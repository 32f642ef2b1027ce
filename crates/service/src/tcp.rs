//! The loopback TCP front end: the [`crate::protocol`] grammar served off
//! a [`std::net::TcpListener`] with blocking I/O that wakes on events.
//!
//! No thread sleeps on a timer. The acceptor blocks in `accept()`. Each
//! connection's reader blocks in `read()`, frames complete request blocks
//! (`block_bounds`), submits them, and hands each reply slot to the
//! connection's writer, which waits on the slots' [`Ticket`]s in order. So
//! a request costs its solve plus a few thread wake-ups, an idle server
//! burns no CPU, and each open connection costs two parked threads. Solve
//! parallelism still lives in the service's worker pool.
//!
//! Three properties the front end guarantees:
//!
//! * **Slow clients lose nothing.** Bytes accumulate in a per-connection
//!   buffer across arbitrarily many reads; a line (or a whole request
//!   block) may arrive one byte at a time with stalls anywhere and is
//!   reassembled intact. The lines a read completes are split off in one
//!   pass, so framing is linear in the bytes received.
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
//! A connection is dropped when its buffered input passes
//! [`MAX_BUFFERED_BYTES`] without completing a request block — the bound
//! keeps one misbehaving peer from growing server memory without limit —
//! or, with a log line, when its threads cannot be spawned.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::thread;

use crate::protocol::{self, RequestError, WireRequest};
use crate::service::{Service, Ticket};

/// Per-connection cap on buffered input: bytes not yet split into lines
/// plus the complete lines not yet consumed by a request block. A peer
/// that exceeds it without completing a request block is dropped.
pub const MAX_BUFFERED_BYTES: usize = 16 << 20;

/// What a buffered line costs beyond its text: its `\n` and the `String`
/// holding it, so blank lines inside an open block fill the cap too.
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

/// A connection's input: the line still arriving, and complete lines not
/// yet consumed by a request block.
#[derive(Default)]
struct LineBuffer {
    /// Bytes after the last `\n` received; never holds a `\n`.
    partial: Vec<u8>,
    /// Complete lines, `\n` (and an optional `\r`) stripped.
    lines: VecDeque<String>,
    /// What `lines` costs against [`MAX_BUFFERED_BYTES`].
    held: usize,
}

impl LineBuffer {
    /// Appends one read's bytes, splits off every line they complete in one
    /// pass, and drains the consumed prefix once. A trailing partial line
    /// stays buffered — nothing is ever discarded at a read boundary.
    fn push(&mut self, bytes: &[u8]) {
        self.partial.extend_from_slice(bytes);
        let Some(last) = bytes.iter().rposition(|&b| b == b'\n') else {
            return;
        };
        let end = self.partial.len() - bytes.len() + last;
        for line in self.partial[..end].split(|&b| b == b'\n') {
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            let line = String::from_utf8_lossy(line).into_owned();
            self.held += line.len() + LINE_OVERHEAD;
            self.lines.push_back(line);
        }
        self.partial.drain(..=end);
    }

    /// Removes the first `len` complete lines.
    fn take(&mut self, len: usize) -> std::collections::vec_deque::Drain<'_, String> {
        let lines = self.lines.range(..len);
        self.held -= lines.map(|line| line.len() + LINE_OVERHEAD).sum::<usize>();
        self.lines.drain(..len)
    }
}

/// One connection: starts its writer, then reads on this thread until end
/// of input (the peer's, or the shutdown watcher's), a transport error,
/// an over-cap buffer, or the service's shutdown. Returns once every reply
/// has been written.
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
    let mut input = LineBuffer::default();
    let mut buf = [0u8; 16 << 10];
    loop {
        match (&**stream).read(&mut buf) {
            Ok(0) => break,
            Ok(n) => input.push(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        if !submit_blocks(&mut input, service, &replies) {
            break;
        }
        if input.partial.len() + input.held > MAX_BUFFERED_BYTES {
            // A peer this far ahead of the parser is not a grooming
            // client; cut it loose.
            let _ = stream.shutdown(Shutdown::Both);
            break;
        }
    }
    drop(replies);
    // A writer panic has already been reported by the panic hook.
    let _ = writer.join();
}

/// Carves every complete request block off `input` and answers or submits
/// it. Returns `false` once the connection should stop reading: when the
/// service's shutdown has begun (input is no longer consumed), or when its
/// writer has gone.
fn submit_blocks(
    input: &mut LineBuffer,
    service: &Service,
    replies: &mpsc::Sender<PendingReply>,
) -> bool {
    while let Some(first) = input.lines.front() {
        if service.is_shutting_down() {
            return false;
        }
        // Blank lines and comments are allowed between blocks.
        let t = first.trim();
        if t.is_empty() || t.starts_with('#') {
            input.take(1);
            continue;
        }
        let Some(len) = block_bounds(&input.lines, service) else {
            break; // incomplete — wait for more bytes
        };
        let mut block = input.take(len);
        let first = block.next().expect("a block spans at least one line");
        let mut rest = block.map(Ok::<String, io::Error>);
        // On a parse error the rest of the *framed* block is dropped with
        // it, so the stream resynchronizes at the block boundary instead
        // of misreading payload lines as new requests.
        let reply = match protocol::parse_request(first.trim(), &mut rest, service.config()) {
            Err(RequestError::Io(_)) => unreachable!("in-memory lines never fail"),
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
            return false;
        }
    }
    true
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

/// Syntactic framing: how many buffered lines the next request block
/// spans, or `None` if it is still incomplete.
///
/// The scanner consumes exactly what [`protocol::parse_request`] *could*
/// consume: one line for simple verbs (and for headers the parser rejects
/// before reading payload), and `BATCH`/`RECONFIGURE` arithmetic — per
/// item, an ITEM line plus one demand block (or, for `reconfigure`
/// stanzas, a demand block, a plan block, and two delta blocks), plus the
/// `END` terminator — using the same declared-size fields and the same
/// admission caps the parser enforces. An `END` where an `ITEM` was
/// expected closes the block early (the parser reports the truncation as
/// an error, and the stream stays in sync at the boundary).
fn block_bounds(lines: &VecDeque<String>, service: &Service) -> Option<usize> {
    let config = service.config();
    let first = lines[0].trim();
    let mut toks = first.split_whitespace();
    if !matches!(toks.next(), Some("BATCH") | Some("RECONFIGURE")) {
        return Some(1);
    }
    let mut count: Option<usize> = None;
    for tok in toks {
        if let Some(v) = tok.strip_prefix("count=") {
            count = v.parse().ok();
        }
    }
    // Headers the parser refuses without reading payload frame as one
    // line: bad/missing count, or a batch that can never fit the queue.
    let Some(count) = count else {
        return Some(1);
    };
    if count > config.queue_capacity {
        return Some(1);
    }
    let mut idx = 1;
    for _ in 0..count {
        // The ITEM line. A premature END ends the block here; the parser
        // turns it into an UnexpectedEof-style error for the client.
        let item = lines.get(idx)?;
        let item = item.trim();
        if item == "END" {
            return Some(idx + 1);
        }
        let kind = item.split_whitespace().nth(1);
        idx += 1;
        if kind == Some("reconfigure") {
            // prior demands, prior plan, added, removed — in that order.
            for block in ["demands", "plan", "demands", "demands"] {
                let (next, complete) = if block == "plan" {
                    frame_plan_block(lines, idx, config)?
                } else {
                    frame_demand_block(lines, idx, config)?
                };
                if !complete {
                    return Some(next);
                }
                idx = next;
            }
        } else {
            // A mesh item carries its physical topology ahead of the
            // demand list.
            if kind == Some("mesh") {
                let (next, complete) = frame_topology_block(lines, idx, config)?;
                if !complete {
                    return Some(next);
                }
                idx = next;
            }
            let (next, complete) = frame_demand_block(lines, idx, config)?;
            if !complete {
                return Some(next);
            }
            idx = next;
        }
    }
    // The END terminator (the parser consumes it whatever it says).
    lines.get(idx)?;
    Some(idx + 1)
}

/// Frames one demand-list block starting at line `idx`. `Some((next,
/// true))` spans the whole block; `Some((next, false))` means the parser
/// refuses right after the header (frame the block as ending at `next`);
/// `None` means more bytes are needed.
fn frame_demand_block(
    lines: &VecDeque<String>,
    idx: usize,
    config: &crate::service::ServiceConfig,
) -> Option<(usize, bool)> {
    // The demand-list header declares the entry count.
    let header = lines.get(idx)?;
    let mut peek = header.split_whitespace().skip(2);
    let n = peek.next().and_then(|t| t.parse::<u64>().ok());
    let m = peek.next().and_then(|t| t.parse::<u64>().ok());
    let idx = idx + 1;
    let (Some(n), Some(m)) = (n, m) else {
        // Not header-shaped: the parser stops (with an error) right
        // after reading it.
        return Some((idx, false));
    };
    if n > config.max_nodes as u64 || m > config.max_units {
        // The parser refuses oversized declarations before reading a
        // single entry line; frame the block the same way.
        return Some((idx, false));
    }
    let end = idx + m as usize;
    if lines.len() < end {
        return None;
    }
    Some((end, true))
}

/// Frames one `topology v1 <n> <m>` block (header + `n` node-capacity
/// lines + `m` link lines), mirroring [`frame_demand_block`]'s contract
/// and the parser's refusal points in `read_topology_block`.
fn frame_topology_block(
    lines: &VecDeque<String>,
    idx: usize,
    config: &crate::service::ServiceConfig,
) -> Option<(usize, bool)> {
    let header = lines.get(idx)?;
    let mut peek = header.split_whitespace().skip(2);
    let n = peek.next().and_then(|t| t.parse::<u64>().ok());
    let m = peek.next().and_then(|t| t.parse::<u64>().ok());
    let idx = idx + 1;
    let (Some(n), Some(m)) = (n, m) else {
        // Not header-shaped: the parser stops (with an error) right
        // after reading it.
        return Some((idx, false));
    };
    if n > config.max_nodes as u64 || m > config.max_units {
        // Oversized declarations are refused before any body line.
        return Some((idx, false));
    }
    let end = idx + (n + m) as usize;
    if lines.len() < end {
        return None;
    }
    Some((end, true))
}

/// Frames one `plan v1 <W>` block (header + `W` part lines), mirroring
/// [`frame_demand_block`]'s contract and the parser's refusal points.
fn frame_plan_block(
    lines: &VecDeque<String>,
    idx: usize,
    config: &crate::service::ServiceConfig,
) -> Option<(usize, bool)> {
    let header = lines.get(idx)?;
    let mut toks = header.split_whitespace();
    let w = match (toks.next(), toks.next(), toks.next(), toks.next()) {
        (Some("plan"), Some("v1"), Some(w), None) => w.parse::<u64>().ok(),
        _ => None,
    };
    let idx = idx + 1;
    let Some(w) = w else {
        return Some((idx, false));
    };
    if w > config.max_units {
        return Some((idx, false));
    }
    let end = idx + w as usize;
    if lines.len() < end {
        return None;
    }
    Some((end, true))
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
    /// the framer must span it or the link lines are misread as new
    /// verbs (the regression this pins: `block_bounds` knew demand and
    /// plan blocks but not topology, so a mesh batch died mid-stanza).
    #[test]
    fn mesh_batches_frame_across_the_topology_block() {
        let (service, server) = start_server(ServiceConfig {
            workers: 1,
            master_seed: 5,
            ..Default::default()
        });
        let mut stream = connect(server.addr());

        let batch = "BATCH id=9 count=1\nITEM mesh k=4 routes=2\ntopology v1 4 4\n* *\n2 6\n* *\n* *\n0 1\n1 2\n2 3\n0 3\ndemands v1 4 3\n0 2\n1 3\n0 1\nEND\n";
        // Fragmented mid-ITEM-line and mid-topology: the framer must keep
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

    /// A client that dies mid-block neither wedges the poller nor poisons
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

    /// All the lines of one read split off in one pass. Draining the
    /// buffer's front once per line made this quadratic in the burst:
    /// minutes for these 2 MB instead of milliseconds.
    #[test]
    fn a_2mb_burst_splits_in_one_pass() {
        let lines = 1 << 19;
        let mut input = LineBuffer::default();
        input.push("0 1\n".repeat(lines).as_bytes());
        input.push(b"2 3");
        assert_eq!(input.lines.len(), lines);
        assert!(input.lines.iter().all(|l| l == "0 1"));
        assert_eq!(input.partial, b"2 3");
        // The partial line completes on a later read; `\r\n` ends it too.
        input.push(b"\r\n");
        assert_eq!(input.lines.back().map(String::as_str), Some("2 3"));
        assert!(input.partial.is_empty());
        assert_eq!(input.held, (lines + 1) * (3 + LINE_OVERHEAD));
        assert_eq!(input.take(lines + 1).count(), lines + 1);
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
    /// newlines into an open `BATCH` (the framer waits for its declared
    /// 4M demand lines) is dropped, and other connections are unharmed.
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
}
