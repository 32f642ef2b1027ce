//! The client side of the wire: loopback connections and the closed loop.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::workload::{Order, WireRequest};

/// One loopback connection to groomd.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    fn read_line(&mut self, into: &mut String) -> io::Result<()> {
        if self.reader.read_line(into)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "groomd closed the connection mid-reply",
            ));
        }
        Ok(())
    }

    /// Writes one request block and reads its reply: the lines up to and
    /// including `END`, or a single `ERR` / `REJECTED` line.
    pub fn round_trip(&mut self, request: &str) -> io::Result<String> {
        self.writer.write_all(request.as_bytes())?;
        let mut reply = String::new();
        loop {
            let start = reply.len();
            self.read_line(&mut reply)?;
            let line = &reply[start..];
            if line.starts_with("END") || line.starts_with("ERR") || line.starts_with("REJECTED") {
                return Ok(reply);
            }
        }
    }

    /// Sends a one-line verb (`PING`, `STATS`, `SHUTDOWN`) and returns its
    /// one-line answer.
    pub fn command(&mut self, verb: &str) -> io::Result<String> {
        self.writer.write_all(format!("{verb}\n").as_bytes())?;
        let mut line = String::new();
        self.read_line(&mut line)?;
        Ok(line)
    }
}

/// One completed round trip.
#[derive(Clone, Debug)]
pub struct Exchange {
    /// Index into the workload's request list.
    pub index: usize,
    /// First request byte written.
    pub sent: Instant,
    /// Last reply byte read.
    pub received: Instant,
    /// The reply bytes.
    pub reply: String,
}

impl Exchange {
    /// The round-trip latency.
    pub fn latency(&self) -> Duration {
        self.received - self.sent
    }
}

/// What a closed-loop phase produced.
pub struct Phase<S> {
    /// Every exchange, in request-index order.
    pub exchanges: Vec<Exchange>,
    /// From the first request written to the last reply read.
    pub wall: Duration,
    /// Each connection thread's final hook state.
    pub states: Vec<S>,
}

/// Runs `order` as a closed loop: each connection sends its next request
/// only after the previous reply's `END`. After every exchange the
/// connection's thread calls `after(state, request, exchange)`; `init`
/// builds each thread's state. The hook's time delays that connection's
/// next request, exactly as a client doing work between requests would.
pub fn closed_loop<S: Send>(
    conns: &mut [Conn],
    requests: &[WireRequest],
    order: &Order,
    init: impl Fn() -> S + Sync,
    after: impl Fn(&mut S, &WireRequest, &Exchange) + Sync,
) -> io::Result<Phase<S>> {
    let barrier = Barrier::new(conns.len());
    let results: Vec<io::Result<(Vec<Exchange>, S)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (barrier, init, after) = (&barrier, &init, &after);
                let lane = order.lanes.get(c).map_or(&[][..], Vec::as_slice);
                scope.spawn(move || {
                    let mut state = init();
                    let mut done = Vec::with_capacity(lane.len());
                    barrier.wait();
                    for &index in lane {
                        let request = &requests[index];
                        let sent = Instant::now();
                        let reply = conn.round_trip(&request.bytes)?;
                        let exchange = Exchange {
                            index,
                            sent,
                            received: Instant::now(),
                            reply,
                        };
                        after(&mut state, request, &exchange);
                        done.push(exchange);
                    }
                    Ok((done, state))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop connection thread panicked"))
            .collect()
    });
    let mut exchanges = Vec::with_capacity(order.len());
    let mut states = Vec::with_capacity(results.len());
    for r in results {
        let (done, state) = r?;
        exchanges.extend(done);
        states.push(state);
    }
    exchanges.sort_by_key(|e| e.index);
    let first = exchanges.iter().map(|e| e.sent).min();
    let last = exchanges.iter().map(|e| e.received).max();
    let wall = match (first, last) {
        (Some(first), Some(last)) => last - first,
        _ => Duration::ZERO,
    };
    Ok(Phase {
        exchanges,
        wall,
        states,
    })
}
