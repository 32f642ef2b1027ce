//! The loopback TCP front end: the [`crate::protocol`] grammar served off
//! a [`std::net::TcpListener`] with blocking I/O that wakes on events.
//!
//! No thread sleeps on a timer. The acceptor blocks in `accept()`. Each
//! connection's reader blocks in `read()` under a 16 KiB buffer and hands
//! the lines straight to [`protocol::parse_request`], the only code that
//! knows where a request block ends. It submits each parsed block and
//! hands its reply slot to the connection's writer, which waits on the
//! slots' [`Ticket`]s in order. So a request costs its solve plus a few
//! thread wake-ups, an idle server burns no CPU, and each open connection
//! costs two parked threads. Solve parallelism still lives in the
//! service's worker pool.
//!
//! Three properties the front end guarantees:
//!
//! * **Slow clients lose nothing.** A line (or a whole request block) may
//!   arrive one byte at a time with stalls anywhere; the reader waits in
//!   `read()` for the rest and reassembles it intact. Lines are split in
//!   one pass over the bytes received.
//! * **Pipelining.** A client may write many request blocks back to back
//!   without reading. Replies come back in submission order; a cheap
//!   `PING` behind a pending `BATCH` waits its turn rather than
//!   overtaking.
//! * **Accept-error taxonomy.** Per-connection failures (reset/aborted)
//!   are logged and the listener keeps serving; only a *persistent streak*
//!   of fatal accept errors (e.g. EMFILE) gives up — by beginning a
//!   graceful service shutdown, never by silently spinning.
//!
//! A `SHUTDOWN` verb (from *any* connection) begins the service's graceful
//! shutdown. A watcher thread parked in [`Service::wait_for_shutdown`]
//! then shuts every connection's read half and wakes the acceptor with one
//! loopback connect: accepting and reading stop, already-admitted batches
//! drain and their replies are written, then connections close and
//! [`TcpServer::join`] returns.
//!
//! End of input or a transport error ends a connection; a block still
//! open then is never answered. A connection is dropped when the open
//! request block's lines pass [`MAX_BUFFERED_BYTES`] — the bound keeps one
//! misbehaving peer from growing server memory without limit — or, with
//! a log line, when its threads cannot be spawned.

use std::borrow::Cow;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::thread;

use crate::protocol::{self, RequestError, WireRequest};
use crate::service::{Service, Ticket};

/// Per-connection cap on the open request block: what its lines cost as
/// they are read. A peer that passes it is dropped.
pub const MAX_BUFFERED_BYTES: usize = 16 << 20;

/// What a line costs beyond its text: its `\n` and the `String` holding
/// it, so blank lines inside an open block fill the cap too.
const LINE_OVERHEAD: usize = 1 + std::mem::size_of::<String>();

/// How many *consecutive* fatal accept errors the listener tolerates
/// before it gives up and begins a graceful shutdown.
const MAX_FATAL_ACCEPTS: u32 = 8;

/// A running TCP front end over a [`Service`].
pub struct TcpServer {
    addr: SocketAddr,
    acceptor: thread::JoinHandle<()>,
}

impl TcpServer {
    /// The bound address (useful with an ephemeral port 0 listener).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server has stopped: it does once the service's
    /// shutdown has begun and every connection has written its pending
    /// replies. Call [`Service::shutdown`] afterwards to join the workers
    /// and take the final stats snapshot.
    pub fn join(self) {
        self.acceptor.join().expect("acceptor thread panicked");
    }
}

/// Serves `service` on `listener` until shutdown begins. Returns
/// immediately; the server runs on its own threads.
pub fn serve(listener: TcpListener, service: &Service) -> io::Result<TcpServer> {
    let addr = listener.local_addr()?;
    let live = Arc::new(Mutex::new(Live::default()));
    let watcher = {
        let (service, live) = (service.clone(), Arc::clone(&live));
        thread::Builder::new()
            .name("groomd-shutdown".into())
            .spawn(move || watch_shutdown(&service, &live, addr))?
    };
    let service = service.clone();
    let acceptor = thread::Builder::new()
        .name("groomd-acceptor".into())
        .spawn(move || {
            accept_loop(&listener, &service, &live);
            // Once the watcher is done, every reader has been stopped.
            watcher.join().expect("shutdown watcher panicked");
            for (conn, _) in std::mem::take(&mut live.lock().unwrap().conns) {
                // A panic has already been reported by the panic hook.
                let _ = conn.join();
            }
        })?;
    Ok(TcpServer { addr, acceptor })
}

/// The connections the acceptor started, shared with the shutdown watcher.
#[derive(Default)]
struct Live {
    /// Shutdown has begun: start no more connections.
    closed: bool,
    /// Each connection's thread, and its stream while it is open.
    conns: Vec<(thread::JoinHandle<()>, Weak<TcpStream>)>,
}

/// One reply slot of a connection, in answer order.
enum PendingReply {
    /// Already-formatted bytes (PONG, STATS, ERR, REJECTED, BYE).
    Ready(String),
    /// A submitted batch; formatted when the ticket resolves.
    Batch(Ticket),
}

/// A connection's input as lines, read straight off its stream.
struct Lines<R> {
    reader: BufReader<R>,
    /// The line being read; reused from line to line.
    buf: Vec<u8>,
    /// What the open request block's lines cost against
    /// [`MAX_BUFFERED_BYTES`].
    held: usize,
}

impl<R: Read> Lines<R> {
    fn new(stream: R) -> Self {
        Lines {
            reader: BufReader::with_capacity(16 << 10, stream),
            buf: Vec::new(),
            held: 0,
        }
    }

    /// The first line of the next request block, past the blank and `#`
    /// lines allowed between blocks; `None` at end of input. Starts the
    /// block's charge.
    fn first_line(&mut self) -> io::Result<Option<String>> {
        loop {
            self.held = 0;
            match self.next_line()? {
                Some(line) if line.trim().is_empty() || line.trim().starts_with('#') => {}
                line => return Ok(line),
            }
        }
    }

    /// The next line, its `\n` (and an optional `\r`) stripped and
    /// invalid UTF-8 replaced, charged to the open block. `None` at end of
    /// input, where a last line without its `\n` is dropped; an error once
    /// the block passes the cap.
    fn next_line(&mut self) -> io::Result<Option<String>> {
        self.buf.clear();
        // Read no further than the cap admits, so a line that never ends
        // cannot grow without bound.
        let room = MAX_BUFFERED_BYTES.saturating_sub(self.held) + 1;
        self.reader
            .by_ref()
            .take(room as u64)
            .read_until(b'\n', &mut self.buf)?;
        let line = self
            .buf
            .strip_suffix(b"\n")
            .map(|line| String::from_utf8_lossy(line.strip_suffix(b"\r").unwrap_or(line)));
        // A partial line is charged its bytes.
        self.held += line
            .as_ref()
            .map_or(self.buf.len(), |line| line.len() + LINE_OVERHEAD);
        if self.over_cap() {
            return Err(io::Error::other("request block passed the buffer cap"));
        }
        Ok(line.map(Cow::into_owned))
    }

    fn over_cap(&self) -> bool {
        self.held > MAX_BUFFERED_BYTES
    }
}

/// The open block's lines, as [`protocol::parse_request`] reads them. End
/// of input here ends the connection, not the block, so it fails like a
/// transport error and the block goes unanswered.
impl<R: Read> Iterator for Lines<R> {
    type Item = io::Result<String>;

    fn next(&mut self) -> Option<io::Result<String>> {
        Some(
            self.next_line()
                .and_then(|line| line.ok_or_else(|| io::ErrorKind::UnexpectedEof.into())),
        )
    }
}

/// One connection: starts its writer, then reads on this thread until end
/// of input (the peer's, or the shutdown watcher's), a transport error,
/// the buffer cap, or the service's shutdown. Returns once every reply has
/// been written.
fn serve_connection(stream: &Arc<TcpStream>, service: &Service) {
    // Each reply goes out in one write once resolved; Nagle would only
    // hold a pipelined one back.
    let _ = stream.set_nodelay(true);
    let (replies, slots) = mpsc::channel();
    let writer = {
        let stream = Arc::clone(stream);
        thread::Builder::new()
            .name("groomd-writer".into())
            .spawn(move || write_replies(&stream, slots))
    };
    let writer = match writer {
        Ok(writer) => writer,
        Err(e) => {
            eprintln!("groomd: cannot start a connection's writer: {e}");
            return;
        }
    };
    let mut lines = Lines::new(&**stream);
    answer_requests(&mut lines, service, &replies);
    if lines.over_cap() {
        // A peer this far ahead of the parser is not a grooming client;
        // cut it loose.
        let _ = stream.shutdown(Shutdown::Both);
    }
    drop(replies);
    // A writer panic has already been reported by the panic hook.
    let _ = writer.join();
}

/// Parses each request block off `lines` and answers or submits it, until
/// the input ends or fails, the service's shutdown has begun (input is no
/// longer consumed), or the writer has gone.
fn answer_requests<R: Read>(
    lines: &mut Lines<R>,
    service: &Service,
    replies: &mpsc::Sender<PendingReply>,
) {
    while let Ok(Some(first)) = lines.first_line() {
        let parsed = protocol::parse_request(&first, lines, service.config());
        if service.is_shutting_down() {
            return;
        }
        let reply = match parsed {
            // The input ended or failed inside the block.
            Err(RequestError::Io(_)) => return,
            // The parser has read the malformed block to its end, so the
            // stream resynchronizes at the next one.
            Err(RequestError::Wire(e)) => PendingReply::Ready(format!("ERR {e}\n")),
            Ok(WireRequest::Ping) => PendingReply::Ready("PONG\n".to_string()),
            Ok(WireRequest::Stats) => PendingReply::Ready(protocol::format_stats(&service.stats())),
            Ok(WireRequest::Shutdown) => {
                service.begin_shutdown();
                PendingReply::Ready("BYE\n".to_string())
            }
            Ok(WireRequest::Batch(request)) => {
                let id = request.id;
                match service.submit(request) {
                    Err(e) => PendingReply::Ready(protocol::format_rejected(id, &e)),
                    Ok(ticket) => PendingReply::Batch(ticket),
                }
            }
        };
        if replies.send(reply).is_err() {
            return;
        }
    }
}

/// The writer: answers slots in the order the reader sent them, waiting on
/// each batch's ticket in turn, until the reader is done.
fn write_replies(mut stream: &TcpStream, slots: mpsc::Receiver<PendingReply>) {
    for slot in slots {
        let text = match slot {
            PendingReply::Ready(text) => text,
            PendingReply::Batch(ticket) => protocol::format_batch_response(&ticket.wait()),
        };
        if stream.write_all(text.as_bytes()).is_err() {
            // The peer is gone: wake the reader too.
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    }
}

/// Classifies an accept error: transient ones are logged and skipped,
/// fatal ones count toward the give-up streak.
fn accept_error_is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::Interrupted
    )
}

/// The acceptor: starts a thread per connection until shutdown begins.
fn accept_loop(listener: &TcpListener, service: &Service, live: &Mutex<Live>) {
    let mut fatal_streak = 0u32;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => Arc::new(stream),
            Err(e) if accept_error_is_transient(e.kind()) => {
                // The handshake died, not the listener: note it and keep
                // serving.
                eprintln!("groomd: transient accept error: {e}");
                continue;
            }
            Err(e) => {
                fatal_streak += 1;
                eprintln!("groomd: accept error ({fatal_streak}/{MAX_FATAL_ACCEPTS}): {e}");
                if fatal_streak >= MAX_FATAL_ACCEPTS {
                    // The listener is wedged (EMFILE and friends).
                    // Refusing silently forever helps nobody; drain and
                    // stop cleanly instead.
                    eprintln!("groomd: listener wedged; beginning shutdown");
                    service.begin_shutdown();
                    break;
                }
                continue;
            }
        };
        fatal_streak = 0;
        // Spawning under the lock the watcher sweeps with: every
        // connection started here is stopped at shutdown.
        let mut live = live.lock().unwrap();
        if live.closed {
            break; // the watcher's wake-up
        }
        live.conns.retain(|(conn, _)| !conn.is_finished());
        let conn = {
            let (stream, service) = (Arc::clone(&stream), service.clone());
            thread::Builder::new()
                .name("groomd-conn".into())
                .spawn(move || serve_connection(&stream, &service))
        };
        match conn {
            Ok(conn) => live.conns.push((conn, Arc::downgrade(&stream))),
            Err(e) => eprintln!("groomd: cannot start a connection thread: {e}"),
        }
    }
}

/// The shutdown watcher: parks until shutdown begins, then ends every
/// connection's input and wakes the acceptor.
fn watch_shutdown(service: &Service, live: &Mutex<Live>, mut addr: SocketAddr) {
    service.wait_for_shutdown();
    {
        let mut live = live.lock().unwrap();
        live.closed = true;
        for (_, stream) in &live.conns {
            // The reader's blocked read returns end of input; the write
            // half stays open for the drain.
            if let Some(stream) = stream.upgrade() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
    }
    // Not every platform routes a connect to the unspecified address.
    if addr.ip().is_unspecified() {
        addr.set_ip(if addr.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        });
    }
    // The acceptor takes this connection, finds `closed` set, and stops.
    if let Err(e) = TcpStream::connect(addr) {
        eprintln!("groomd: cannot wake the acceptor at {addr}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, RequestOptions};
    use crate::service::{Request, ServiceConfig};
    use grooming::algorithm::Algorithm;
    use grooming::solve::Instance;
    use grooming_sonet::demand::DemandSet;
    use rand::{rngs::StdRng, SeedableRng};
    use std::io::{BufRead, BufReader};
    use std::time::Duration;

    fn connect(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).expect("connect to groomd");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
    }

    fn read_lines(stream: &TcpStream, n: usize) -> String {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut out = String::new();
        for _ in 0..n {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
            out.push_str(&line);
        }
        out
    }

    fn roundtrip(stream: &mut TcpStream, request: &str, reply_lines: usize) -> String {
        stream.write_all(request.as_bytes()).unwrap();
        read_lines(stream, reply_lines)
    }

    fn start_server(config: ServiceConfig) -> (Service, TcpServer) {
        let service = Service::start(config);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = serve(listener, &service).unwrap();
        (service, server)
    }

    const BATCH: &str = "BATCH id=1 count=1\nITEM ring k=4\ndemands v1 6 3\n0 1\n1 2\n2 5\nEND\n";

    /// A minimal warm-start request: a 2-demand prior snapshot on one
    /// wavelength, one added pair, nothing removed.
    const RECONFIGURE: &str = "RECONFIGURE id=2 count=1\nITEM reconfigure k=4\n\
         demands v1 6 2\n0 1\n2 3\nplan v1 1\n2 0 1\n\
         demands v1 6 1\n4 5\ndemands v1 6 0\nEND\n";

    #[test]
    fn tcp_serves_ping_batch_stats_and_shutdown() {
        let (service, server) = start_server(ServiceConfig {
            workers: 2,
            master_seed: 7,
            ..Default::default()
        });
        let addr = server.addr();

        let mut stream = connect(addr);
        assert_eq!(roundtrip(&mut stream, "PING\n", 1), "PONG\n");
        // Parse errors keep the connection alive.
        let err = roundtrip(&mut stream, "FROB\n", 1);
        assert!(err.starts_with("ERR "), "got {err:?}");
        let transcript = roundtrip(&mut stream, BATCH, 3);
        assert!(transcript.starts_with("RESULT 1 count=1\nPLAN 0 sadms="));
        assert!(transcript.ends_with("END\n"));
        // A warm-start item over the wire: counted both as a completed
        // item and under the reconfigure-specific counter.
        let transcript = roundtrip(&mut stream, RECONFIGURE, 3);
        assert!(transcript.starts_with("RESULT 2 count=1\nPLAN 0 sadms="));
        assert!(transcript.ends_with("END\n"));
        let stats = roundtrip(&mut stream, "STATS\n", 1);
        assert!(stats.starts_with("STATS accepted_requests=2 accepted_items=2 "));
        assert!(
            stats.contains(" completed_items=2 reconfigures_completed=1 "),
            "got {stats:?}"
        );

        // SHUTDOWN from a second connection: acknowledged, then drained.
        let mut other = connect(addr);
        assert_eq!(roundtrip(&mut other, "SHUTDOWN\n", 1), "BYE\n");
        server.join();
        let snapshot = service.shutdown();
        assert_eq!(snapshot.counters.accepted_items, 2);
        assert_eq!(snapshot.counters.completed_items, 2);
        assert_eq!(snapshot.counters.reconfigures_completed, 1);
        assert_eq!(snapshot.queue_depth, 0);
    }

    /// The slow-client regression: a stall in the middle of a line (longer
    /// than any polling interval) must not discard the bytes already read.
    /// The old `BufReader::lines()` loop dropped the partial line on its
    /// read timeout and answered `ERR` to the remainder.
    #[test]
    fn mid_line_stalls_do_not_drop_bytes() {
        let (service, server) = start_server(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let mut stream = connect(server.addr());

        stream.write_all(b"PI").unwrap();
        thread::sleep(Duration::from_millis(250));
        stream.write_all(b"NG\n").unwrap();
        assert_eq!(read_lines(&stream, 1), "PONG\n");

        // The same across a whole batch block, fragmented at hostile
        // boundaries: mid-verb, mid-number, mid-payload.
        let (a, rest) = BATCH.split_at(9);
        let (b, c) = rest.split_at(25);
        for frag in [a, b, c] {
            stream.write_all(frag.as_bytes()).unwrap();
            thread::sleep(Duration::from_millis(120));
        }
        let transcript = read_lines(&stream, 3);
        assert!(transcript.starts_with("RESULT 1 count=1\nPLAN 0 sadms="));

        // Byte-by-byte, no stalls: reassembly is boundary-independent.
        for byte in "PING\n".bytes() {
            stream.write_all(&[byte]).unwrap();
        }
        assert_eq!(read_lines(&stream, 1), "PONG\n");

        service.begin_shutdown();
        server.join();
        service.shutdown();
    }

    /// Mesh items carry a `topology v1` block ahead of the demand list;
    /// the request block must span it or the link lines are misread as
    /// new verbs, and the mesh batch dies mid-stanza.
    #[test]
    fn mesh_batches_frame_across_the_topology_block() {
        let (service, server) = start_server(ServiceConfig {
            workers: 1,
            master_seed: 5,
            ..Default::default()
        });
        let mut stream = connect(server.addr());

        let batch = "BATCH id=9 count=1\nITEM mesh k=4 routes=2\ntopology v1 4 4\n* *\n2 6\n* *\n* *\n0 1\n1 2\n2 3\n0 3\ndemands v1 4 3\n0 2\n1 3\n0 1\nEND\n";
        // Fragmented mid-ITEM-line and mid-topology: the reader must keep
        // waiting for the rest rather than parse a truncated block.
        let (a, rest) = batch.split_at(40);
        let (b, c) = rest.split_at(30);
        for frag in [a, b, c] {
            stream.write_all(frag.as_bytes()).unwrap();
            thread::sleep(Duration::from_millis(120));
        }
        let transcript = read_lines(&stream, 3);
        assert!(
            transcript.starts_with("RESULT 9 count=1\nPLAN 0 sadms="),
            "got {transcript:?}"
        );
        assert!(transcript.ends_with("END\n"));

        service.begin_shutdown();
        server.join();
        service.shutdown();
    }

    /// Pipelining: many blocks written back to back on one connection are
    /// answered completely and in order — including a cheap PING queued
    /// behind two batches.
    #[test]
    fn pipelined_blocks_answer_in_order() {
        let (service, server) = start_server(ServiceConfig {
            workers: 2,
            master_seed: 3,
            ..Default::default()
        });
        let mut stream = connect(server.addr());

        let second = BATCH.replace("id=1", "id=2");
        let mut wire = String::new();
        wire.push_str(BATCH);
        wire.push_str(&second);
        wire.push_str("PING\n");
        stream.write_all(wire.as_bytes()).unwrap();

        let reply = read_lines(&stream, 7);
        let lines: Vec<&str> = reply.lines().collect();
        assert_eq!(lines[0], "RESULT 1 count=1");
        assert!(lines[1].starts_with("PLAN 0 "));
        assert_eq!(lines[2], "END");
        assert_eq!(lines[3], "RESULT 2 count=1");
        assert_eq!(lines[5], "END");
        assert_eq!(lines[6], "PONG");
        // Identical content ⇒ identical plan line, whatever the request
        // id (content-derived seeds; the second is a cache hit).
        assert_eq!(lines[1], lines[4]);

        let snapshot = service.stats();
        assert_eq!(snapshot.counters.accepted_requests, 2);
        assert_eq!(snapshot.counters.cache_hits, 1);

        service.begin_shutdown();
        server.join();
        service.shutdown();
    }

    /// A client that dies mid-block neither wedges the server nor poisons
    /// other connections.
    #[test]
    fn disconnect_mid_block_leaves_server_healthy() {
        let (service, server) = start_server(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let addr = server.addr();

        {
            let mut dying = connect(addr);
            // Half a batch: header + ITEM line, then vanish.
            dying
                .write_all(b"BATCH id=9 count=1\nITEM ring k=4\ndemands v1 6 3\n0 1\n")
                .unwrap();
        } // dropped: RST/FIN mid-block

        let mut stream = connect(addr);
        assert_eq!(roundtrip(&mut stream, "PING\n", 1), "PONG\n");
        let transcript = roundtrip(&mut stream, BATCH, 3);
        assert!(transcript.starts_with("RESULT 1 count=1\n"));
        // The dead half-block admitted nothing.
        let snapshot = service.stats();
        assert_eq!(snapshot.counters.accepted_requests, 1);

        service.begin_shutdown();
        server.join();
        service.shutdown();
    }

    /// End of input inside a block ends the connection without a reply to
    /// that block, even when its header is already malformed; the replies
    /// before it still arrive.
    #[test]
    fn end_of_input_mid_block_gets_no_reply() {
        let (service, server) = start_server(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let malformed = BATCH.replace("id=1", "id=x");
        let halves = [
            &BATCH[..9],
            &BATCH[..19],
            &BATCH[..30],
            &BATCH[..BATCH.len() - 4],
            // The terminator without its `\n` is not a line yet.
            &BATCH[..BATCH.len() - 1],
            &malformed[..19],
            &malformed[..48],
        ];
        for half in halves {
            let mut stream = connect(server.addr());
            stream
                .write_all(format!("PING\n{half}").as_bytes())
                .unwrap();
            stream.shutdown(Shutdown::Write).unwrap();
            let mut reply = String::new();
            stream.read_to_string(&mut reply).unwrap();
            assert_eq!(reply, "PONG\n", "after {half:?}");
        }
        assert_eq!(service.stats().counters.accepted_requests, 0);

        service.begin_shutdown();
        server.join();
        service.shutdown();
    }

    /// A plan block written one byte at a time gets the reply the same
    /// request gets in one write.
    #[test]
    fn a_reconfigure_written_byte_by_byte_matches_one_write() {
        let (service, server) = start_server(ServiceConfig {
            workers: 1,
            master_seed: 7,
            cache_capacity: 0,
            ..Default::default()
        });
        let mut stream = connect(server.addr());
        stream.set_nodelay(true).unwrap();

        let whole = roundtrip(&mut stream, RECONFIGURE, 3);
        assert!(whole.starts_with("RESULT 2 count=1\nPLAN 0 sadms="));
        for byte in RECONFIGURE.bytes() {
            stream.write_all(&[byte]).unwrap();
        }
        assert_eq!(read_lines(&stream, 3), whole);
        assert_eq!(service.stats().counters.reconfigures_completed, 2);

        service.begin_shutdown();
        server.join();
        service.shutdown();
    }

    /// A burst splits into lines in one pass over its bytes. Draining a
    /// buffer's front once per line made this quadratic in the burst:
    /// minutes for these 2 MB instead of milliseconds.
    #[test]
    fn a_2mb_burst_splits_in_one_pass() {
        let lines = 1 << 19;
        let burst = "0 1\n".repeat(lines) + "2 3";
        // The partial line completes on a later read; `\r\n` ends it too.
        let mut input = Lines::new(burst.as_bytes().chain(&b"\r\n"[..]));
        let mut got = Vec::new();
        while let Some(line) = input.next_line().unwrap() {
            got.push(line);
        }
        assert_eq!(got.len(), lines + 1);
        assert!(got[..lines].iter().all(|l| l == "0 1"));
        assert_eq!(got[lines], "2 3");
        assert_eq!(input.held, (lines + 1) * (3 + LINE_OVERHEAD));
        // The next block starts its charge afresh.
        assert_eq!(input.first_line().unwrap(), None);
        assert_eq!(input.held, 0);
    }

    /// A 200k-line batch written in one burst comes back exactly as the
    /// in-process client answers it.
    #[test]
    fn a_200k_line_batch_matches_the_in_process_transcript() {
        let config = ServiceConfig {
            workers: 1,
            master_seed: 13,
            ..Default::default()
        };
        let demands = DemandSet::random(10_000, 200_000, &mut StdRng::seed_from_u64(13));
        let algo = Algorithm::by_name("spant-euler").unwrap();
        let request = Request {
            id: 5,
            items: vec![Instance::ring(demands, 16)],
            deadline: None,
            algo: Some(algo),
        };
        let wire = protocol::format_batch_request(&request).unwrap();
        assert!(wire.lines().count() > 200_000);

        let (service, server) = start_server(config.clone());
        let mut stream = connect(server.addr());
        let reply = roundtrip(&mut stream, &wire, 3);
        service.begin_shutdown();
        server.join();
        service.shutdown();

        let local = Service::start(config);
        let options = RequestOptions::default().with_id(5).with_algo(algo);
        let expected = Client::new(&local)
            .solve_transcript(request.items, options)
            .unwrap();
        local.shutdown();
        assert_eq!(reply, expected);
    }

    /// Blank lines count against the buffer cap: a peer streaming
    /// newlines into an open `BATCH` (the parser reads them as its
    /// declared 4M demand lines) is dropped, and other connections are
    /// unharmed.
    #[test]
    fn a_blank_line_flood_inside_a_block_is_dropped_at_the_cap() {
        let (service, server) = start_server(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let mut flood = connect(server.addr());
        flood
            .write_all(b"BATCH id=1 count=1\nITEM ring k=4\ndemands v1 10 4000000\n")
            .unwrap();
        let chunk = vec![b'\n'; 64 << 10];
        let mut sent = 0;
        while sent <= MAX_BUFFERED_BYTES && flood.write_all(&chunk).is_ok() {
            sent += chunk.len();
        }
        match flood.read(&mut [0u8; 1]) {
            Ok(0) => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            other => panic!("the flooding peer was not dropped: {other:?}"),
        }

        let mut other = connect(server.addr());
        assert_eq!(roundtrip(&mut other, "PING\n", 1), "PONG\n");
        assert_eq!(service.stats().counters.accepted_requests, 0);

        service.begin_shutdown();
        server.join();
        service.shutdown();
    }

    /// Malformed blocks, one per parse-error class and per point where a
    /// block ends early, plus `\r\n` endings and the blank and `#` lines
    /// allowed between blocks. [`malformed_blocks_resync_as_recorded`]
    /// sends each one followed by `PING`. The server is configured with
    /// `queue_capacity` 8 and `max_nodes` = `max_units` = 64.
    const RESYNC_CORPUS: &[&[u8]] = &[
        // Header errors under a usable count=: the block is read whole.
        b"BATCH id=x count=1\nITEM ring k=4\ndemands v1 6 3\n0 1\n1 2\n2 5\nEND\n",
        b"BATCH id=1 count=1 urgent\nITEM ring k=4\ndemands v1 6 3\n0 1\n1 2\n2 5\nEND\n",
        b"BATCH id=1 count=1 algo=nope\nITEM ring k=4\ndemands v1 6 3\n0 1\n1 2\n2 5\nEND\n",
        b"BATCH count=1\nITEM ring k=4\ndemands v1 6 3\n0 1\n1 2\n2 5\nEND\n",
        b"BATCH id=1 deadline_ms=soon count=1\nITEM ring k=4\ndemands v1 6 1\n0 1\nEND\n",
        b"BATCH id=1 count=1 color=red\nITEM ring k=4\ndemands v1 6 1\n0 1\nEND\n",
        // The last count= sizes the block, even after an unparsable one.
        b"BATCH id=1 count=x count=1\nITEM ring k=4\ndemands v1 6 1\n0 1\nEND\n",
        // No usable count=, or one past the queue: the block is its header
        // line, and what follows is read as new requests.
        b"BATCH id=1\n",
        b"BATCH id=1\nEND\n",
        b"BATCH id=1 count=1 count=x\nEND\n",
        b"BATCH id=1 count=9\nITEM ring k=4\n",
        b"BATCH id=x count=9\n",
        // END where an ITEM was due ends the block there.
        b"BATCH id=1 count=2\nITEM ring k=4\ndemands v1 6 1\n0 1\nEND\n",
        b"RECONFIGURE id=1 count=1\nEND\n",
        b"BATCH id=x count=2\nITEM ring k=4\ndemands v1 6 1\n0 1\nEND\n",
        // Item stanzas, read by their kind whatever their errors.
        b"RECONFIGURE id=3 count=1\nITEM ring k=4\ndemands v1 6 3\n0 1\n1 2\n2 5\nEND\n",
        b"RECONFIGURE id=3 count=1\nITEM mesh k=2 routes=2\ntopology v1 3 3\n* *\n* *\n* *\n\
          0 1\n1 2\n2 0\ndemands v1 3 1\n0 1\nEND\n",
        b"BATCH id=4 count=1\nITEM mesh k=2\ntopology v1 3 3\n* *\n* *\n* *\n\
          0 1\n1 2\n2 0\ndemands v1 3 1\n0 1\nEND\n",
        b"BATCH id=4 count=1\nITEM mesh k=2 routes=2\ntopology v1 3 3\n* *\n* *\n* *\n\
          0 1\n1 2\n2 0\ndemands v1 4 1\n0 1\nEND\n",
        b"BATCH id=5 count=1\nITEM warp k=4\ndemands v1 6 1\n0 0\nEND\n",
        b"BATCH id=5 count=1\nITEM warp k=4\ndemands v1 6 1\n0 1\nEND\n",
        b"BATCH id=5 count=1\nITEM ring k=0\ndemands v1 6 1\n0 1\nEND\n",
        b"BATCH id=6 count=2\nITEM ring k=4\ndemands v1 6 2\n0 0\n1 2\n\
          ITEM ring k=4\ndemands v1 6 1\n0 1\nEND\n",
        b"BATCH id=6 count=1\nITEM weighted k=4\ndemands v1 4 2\n0 1 60\n1 2 60\nEND\n",
        b"BATCH id=6 count=1\nITEM ring k=4\ndemands v1 6 2\n0 1\n\nEND\n",
        b"BATCH id=7 count=1\nITEM ring k=4\ndemands v1 6 1\n0 1\nEXTRA\n",
        // demands, topology and plan headers: not header-shaped, or past a
        // cap, ends the block right after the header.
        b"BATCH id=8 count=1\nITEM ring k=4\ndemands v1 six 1\n0 1\nEND\n",
        b"BATCH id=8 count=1\nITEM ring k=4\ndemands v1 65 1\n0 1\nEND\n",
        b"BATCH id=8 count=1\nITEM ring k=4\ndemands v1 6 65\n0 1\nEND\n",
        b"BATCH id=8 count=1\nITEM ring k=4\ndemands v2 6 1\n0 1\nEND\n",
        b"BATCH id=8 count=1\nITEM mesh k=2 routes=2\ntopology v1 3\n* *\nEND\n",
        b"BATCH id=8 count=1\nITEM mesh k=2 routes=2\ntopology v1 65 1\n* *\nEND\n",
        b"BATCH id=8 count=1\nITEM mesh k=2 routes=2\ntopology v1 3 65\n* *\nEND\n",
        b"RECONFIGURE id=9 count=1\nITEM reconfigure k=2\ndemands v1 3 1\n0 1\nplans v1 1\n\
          1 0\ndemands v1 3 0\ndemands v1 3 0\nEND\n",
        b"RECONFIGURE id=9 count=1\nITEM reconfigure k=2\ndemands v1 3 1\n0 1\nplan v1 1 x\n\
          1 0\ndemands v1 3 0\ndemands v1 3 0\nEND\n",
        b"RECONFIGURE id=9 count=1\nITEM reconfigure k=2\ndemands v1 3 1\n0 1\nplan v1 65\n\
          1 0\nEND\n",
        b"RECONFIGURE id=9 count=1\nITEM reconfigure k=2\ndemands v1 4 3\n0 1\n1 2\n2 3\n\
          plan v1 3\n1 0\n1 x\n1 2\ndemands v1 4 0\ndemands v1 4 0\nEND\n",
        b"RECONFIGURE id=9 count=1\nITEM reconfigure k=2\ndemands v1 3 1\n0 1\nplan v1 1\n\
          1 0\ndemands v1 4 0\ndemands v1 3 0\nEND\n",
        // The first error stands when a later header ends the block.
        b"RECONFIGURE id=9 count=1\nITEM reconfigure k=0\ndemands v1 3 1\n0 1\nplan v1 65\n\
          1 0\nEND\n",
        b"BATCH id=x count=2\nITEM ring k=4\ndemands v1 6 1\n0 1\n\
          ITEM ring k=4\ndemands v1 6 65\n0 1\nEND\n",
        // Simple verbs, invalid UTF-8, and what may sit between blocks.
        b"PING now\n",
        b"HELLO\n",
        b"\xffPING\n",
        b"BATCH id=10 count=1\nITEM ring k=\xff4\ndemands v1 6 1\n0 1\nEND\n",
        b"BATCH id=10 count=1\nITEM ring k=4\ndemands v1 6 1\n0 \xff1\nEND\n",
        b"\n   \n# a comment\n\r\n\t# indented\r\nPING\r\n",
        b"BATCH id=11 count=1\r\nITEM ring k=4\r\ndemands v1 6 3\r\n0 1\r\n1 2\r\n2 5\r\nEND\r\n",
        b"BATCH id=12 count=1\r\nITEM ring k=x\r\ndemands v1 6 1\r\n0 1\r\nEND\r\n",
    ];

    /// The replies to [`RESYNC_CORPUS`], recorded once from the front end
    /// this one replaced: where each block ends, and what it is answered,
    /// must not drift. One reply was since changed on purpose: a `BATCH`
    /// whose `END` arrives where an `ITEM` was due is told so, not that
    /// the stream ended.
    const RESYNC_TRANSCRIPT: &str = include_str!("../testdata/resync_transcript.txt");

    /// Every malformed block is answered and the stream resynchronizes at
    /// the next block, byte for byte as recorded.
    #[test]
    fn malformed_blocks_resync_as_recorded() {
        let (service, server) = start_server(ServiceConfig {
            workers: 1,
            master_seed: 17,
            queue_capacity: 8,
            max_nodes: 64,
            max_units: 64,
            ..Default::default()
        });
        let mut stream = connect(server.addr());
        let mut wire = Vec::new();
        for case in RESYNC_CORPUS {
            wire.extend_from_slice(case);
            wire.extend_from_slice(b"PING\n");
        }
        stream.write_all(&wire).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut transcript = String::new();
        stream.read_to_string(&mut transcript).unwrap();
        assert_eq!(transcript, RESYNC_TRANSCRIPT);

        service.begin_shutdown();
        server.join();
        service.shutdown();
    }
}
