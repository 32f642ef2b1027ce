//! groomd under test: `upsr-groom serve` as its own process, or the same
//! service on an in-process listener (the self-test's stand-in).

use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use grooming_service::tcp::{self, TcpServer};
use grooming_service::{Service, ServiceConfig};

use crate::wire::Conn;

/// How long a drained server may take to exit before it is killed.
const EXIT_GRACE: Duration = Duration::from_secs(30);
/// How long `upsr-groom serve` may take to report its address.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// `upsr-groom serve`'s configuration with `workers` worker threads: the
/// shipped defaults (queue, work capacity, shed watermark at half of it,
/// cache on, master seed 0, no default deadline).
pub fn shipped_config(workers: usize) -> ServiceConfig {
    // `ServiceConfig` is non_exhaustive: built by mutating the default.
    let mut config = ServiceConfig::default();
    config.workers = workers;
    config
}

enum Backend {
    Process(Child, JoinHandle<()>),
    InProcess(Service, TcpServer),
}

/// A running groomd.
pub struct Server {
    addr: SocketAddr,
    backend: Option<Backend>,
}

impl Server {
    /// Starts `binary serve` on an ephemeral loopback port and waits until
    /// it reports the address it listens on.
    pub fn spawn(binary: &Path, workers: usize) -> io::Result<Server> {
        let mut child = Command::new(binary)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        // Keep reading groomd's stdout until it exits: a closed pipe would
        // fail its later status lines.
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let drain = thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let first = rx.recv_timeout(START_TIMEOUT).unwrap_or_default();
        let addr = first
            .strip_prefix("groomd listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let mut server = Server {
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            backend: Some(Backend::Process(child, drain)),
        };
        match addr {
            Some(_) => Ok(server),
            None => {
                server.kill();
                Err(io::Error::other(format!(
                    "{} did not report a listen address (got {first:?})",
                    binary.display()
                )))
            }
        }
    }

    /// Serves `config` from this process.
    pub fn in_process(config: ServiceConfig) -> io::Result<Server> {
        let service = Service::start(config);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let server = tcp::serve(listener, &service)?;
        Ok(Server {
            addr: server.addr(),
            backend: Some(Backend::InProcess(service, server)),
        })
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's peak resident set (`VmHWM`) in MiB. An in-process
    /// server reports this whole process.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = match &self.backend {
            Some(Backend::Process(child, _)) => format!("/proc/{}/status", child.id()),
            _ => "/proc/self/status".to_string(),
        };
        let text = std::fs::read_to_string(status).unwrap_or_default();
        text.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Drains the server through the wire `SHUTDOWN` verb and waits until
    /// it has exited. On an error the server is killed.
    pub fn shutdown(mut self) -> io::Result<()> {
        let bye = Conn::connect(self.addr).and_then(|mut c| c.command("SHUTDOWN"))?;
        if bye.trim_end() != "BYE" {
            return Err(io::Error::other(format!("SHUTDOWN answered {bye:?}")));
        }
        match self.backend.take() {
            Some(Backend::Process(mut child, drain)) => {
                let exited = wait_or_kill(&mut child);
                let _ = drain.join();
                exited
            }
            Some(Backend::InProcess(service, server)) => {
                server.join();
                service.shutdown();
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Stops the server without draining it.
    fn kill(&mut self) {
        match self.backend.take() {
            Some(Backend::Process(mut child, drain)) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = drain.join();
            }
            Some(Backend::InProcess(service, server)) => {
                service.begin_shutdown();
                server.join();
                service.shutdown();
            }
            None => {}
        }
    }
}

fn wait_or_kill(child: &mut Child) -> io::Result<()> {
    let started = Instant::now();
    loop {
        if let Some(status) = child.try_wait()? {
            return if status.success() {
                Ok(())
            } else {
                Err(io::Error::other(format!("groomd exited with {status}")))
            };
        }
        if started.elapsed() > EXIT_GRACE {
            child.kill()?;
            child.wait()?;
            return Err(io::Error::other("groomd did not exit after SHUTDOWN"));
        }
        thread::sleep(Duration::from_millis(5));
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached with a live backend only on an error path: never leave
        // a server behind.
        self.kill();
    }
}
