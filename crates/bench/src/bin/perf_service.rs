//! End-to-end perf + determinism baseline for groomd over a real socket.
//!
//! Three phases:
//!
//! 1. **Determinism digest.** A pinned mixed-kind request corpus is served
//!    by three fresh servers — 1 worker (cache off), 4 workers (cache
//!    off), and 4 workers with the solve cache on, the corpus sent twice
//!    to warm it. All four response transcripts (including the cache-warm
//!    repeat) must be **byte-identical**; the run asserts it and records
//!    the common FNV-1a digest. This is the service determinism contract —
//!    content-derived seeds make worker count *and* cache state invisible
//!    on the wire.
//! 2. **Blocking-point ramp.** Against a server with a deliberately small
//!    admission queue, the client pipelines ever-larger bursts of chunky
//!    batches until admissions start bouncing (`REJECTED … queue_full`).
//!    The run records sustained solves/sec, the blocking rate at the
//!    saturating burst, and the server's own queue-wait / solve-time
//!    percentiles from its final `STATS` line.
//! 3. **Round trip.** 100 warm-up and then 500 measured sequential `PING`s
//!    on one connection: what the TCP front end alone adds to every
//!    request. The run records their p50 and p99 and exits non-zero when
//!    the p50 reaches [`PING_P50_CEILING_US`].
//!
//! `ci.sh` runs the `--fast` variant (small corpus, short ramp; the
//! digest assertion and the round-trip phase run in full). The checked-in
//! `results/BENCH_groomd.json` is produced by the full run:
//! `target/release/perf_service`.
//!
//! Usage: `perf_service [--fast] [--out PATH]`

use std::fmt::Write as _;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use grooming::solve::Instance;
use grooming_graph::generators;
use grooming_graph::ids::NodeId;
use grooming_service::cache::{fnv1a64, FNV1A64_BASIS};
use grooming_service::protocol::{format_batch_request, read_reply};
use grooming_service::{tcp, Request, Service, ServiceConfig};
use grooming_sonet::blsr::BlsrRing;
use grooming_sonet::demand::DemandSet;
use grooming_sonet::weighted::WeightedDemandSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sequential `PING`s sent before the measured ones.
const PING_WARMUP: usize = 100;
/// Sequential `PING`s measured.
const PING_MEASURED: usize = 500;
/// The `PING` round-trip p50 must stay below this. A front end that
/// sleeps on a timer when idle pays that timer here (2 ms per sleep).
const PING_P50_CEILING_US: u64 = 500;

struct Opts {
    fast: bool,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        fast: false,
        out: "results/BENCH_groomd.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => opts.fast = true,
            "--out" => {
                opts.out = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: perf_service [--fast] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// FNV-1a 64 over a transcript, hex-encoded — the digest the determinism
/// phase compares and records.
fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes(), FNV1A64_BASIS))
}

/// A groomd instance on an ephemeral loopback port.
struct Groomd {
    service: Service,
    server: tcp::TcpServer,
}

impl Groomd {
    #[allow(clippy::field_reassign_with_default)]
    fn start(workers: usize, cache: usize, queue: usize, work_capacity: u64) -> Groomd {
        let mut config = ServiceConfig::default();
        config.workers = workers;
        config.cache_capacity = cache;
        config.queue_capacity = queue;
        config.queue_work_capacity = work_capacity;
        config.master_seed = 42;
        let service = Service::start(config);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let server = tcp::serve(listener, &service).expect("start server");
        Groomd { service, server }
    }

    fn connect(&self) -> Conn {
        let stream = TcpStream::connect(self.server.addr()).expect("connect to groomd");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Conn { stream, reader }
    }

    /// Graceful stop: wire SHUTDOWN, drain, join.
    fn stop(self) {
        let mut conn = self.connect();
        conn.send("SHUTDOWN\n");
        assert_eq!(conn.read_reply(), "BYE\n");
        self.server.join();
        self.service.shutdown();
    }
}

/// A blocking client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn send(&mut self, text: &str) {
        self.stream.write_all(text.as_bytes()).expect("write");
    }

    /// One complete reply: a single line, or `RESULT … END` for batches.
    fn read_reply(&mut self) -> String {
        read_reply(&mut self.reader).expect("read a reply from groomd")
    }
}

/// The pinned determinism corpus: `batches` mixed-kind batches with
/// content derived only from `base_seed` — every run, every server, every
/// pass sees the exact same bytes.
fn corpus(batches: usize, base_seed: u64) -> Vec<Request> {
    (0..batches)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(base_seed ^ (i as u64) << 8);
            let graph = generators::gnm(12, 22, &mut rng);
            let demands = DemandSet::random(10, 16, &mut rng);
            // Units injective in `i`, so no two batches share an item and
            // the cold pass is all cache misses.
            let mut weighted = WeightedDemandSet::new(8);
            weighted.add(NodeId(0), NodeId(4), 2 + i as u32);
            weighted.add(NodeId(1), NodeId(5), 1);
            Request {
                id: i as u64 + 1,
                items: vec![
                    Instance::upsr(graph, 4),
                    Instance::ring(demands.clone(), 3),
                    Instance::weighted(weighted, 4),
                    Instance::blsr(BlsrRing::new(10), demands, 3),
                ],
                deadline: None,
                algo: None,
            }
        })
        .collect()
}

/// Serves `requests` serially (one round trip each) on one connection and
/// returns the concatenated response transcript.
fn serve_corpus(conn: &mut Conn, requests: &[Request]) -> String {
    let mut transcript = String::new();
    for request in requests {
        conn.send(&format_batch_request(request).expect("wireable corpus"));
        transcript.push_str(&conn.read_reply());
    }
    transcript
}

/// Reads `key=<u64>` off a `STATS` line.
fn stats_field(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("STATS line missing {key}=: {line:?}"))
}

/// One ramp round: `offered` chunky batches pipelined in a single write,
/// then all replies read back.
struct RampRound {
    offered: usize,
    accepted_items: u64,
    rejected: u64,
    elapsed_s: f64,
}

impl RampRound {
    fn solves_per_sec(&self) -> f64 {
        self.accepted_items as f64 / self.elapsed_s.max(1e-9)
    }

    fn blocking_rate(&self) -> f64 {
        self.rejected as f64 / self.offered as f64
    }
}

/// Chunky ramp batches (slow enough to pile up behind a small queue);
/// fresh content per call so the cache-less server really solves each one.
fn ramp_burst(offered: usize, round: u64, id_base: u64) -> String {
    let mut wire = String::new();
    for i in 0..offered {
        let mut rng = StdRng::seed_from_u64(0xBEEF ^ (round << 32) ^ i as u64);
        let items = (0..4)
            .map(|_| Instance::upsr(generators::gnm(24, 60, &mut rng), 2))
            .collect();
        let request = Request::batch(id_base + i as u64, items);
        wire.push_str(&format_batch_request(&request).expect("wireable ramp batch"));
    }
    wire
}

fn ramp_round(conn: &mut Conn, offered: usize, round: u64, id_base: u64) -> RampRound {
    let wire = ramp_burst(offered, round, id_base);
    let started = Instant::now();
    conn.send(&wire);
    let mut accepted_items = 0u64;
    let mut rejected = 0u64;
    for _ in 0..offered {
        let reply = conn.read_reply();
        if reply.starts_with("RESULT") {
            accepted_items += reply.lines().filter(|l| l.starts_with("PLAN")).count() as u64;
        } else if reply.starts_with("REJECTED") {
            rejected += 1;
        } else {
            panic!("unexpected ramp reply: {reply:?}");
        }
    }
    RampRound {
        offered,
        accepted_items,
        rejected,
        elapsed_s: started.elapsed().as_secs_f64(),
    }
}

/// Sequential `PING` round trips on one connection; returns the measured
/// ones' (p50, p99) in µs.
fn ping_round_trips(conn: &mut Conn) -> (u64, u64) {
    let mut us: Vec<u64> = (0..PING_WARMUP + PING_MEASURED)
        .map(|_| {
            let started = Instant::now();
            conn.send("PING\n");
            assert_eq!(conn.read_reply(), "PONG\n");
            started.elapsed().as_micros() as u64
        })
        .skip(PING_WARMUP)
        .collect();
    us.sort_unstable();
    let percentile = |q: f64| us[((q * us.len() as f64).ceil() as usize).max(1) - 1];
    (percentile(0.50), percentile(0.99))
}

fn main() {
    let opts = parse_opts();
    let (corpus_batches, max_burst) = if opts.fast { (4, 16) } else { (12, 128) };
    let requests = corpus(corpus_batches, 0x9E37);
    let corpus_items: usize = requests.iter().map(|r| r.items.len()).sum();

    // Phase 1: the determinism digest across worker counts and cache
    // state. Serial round trips, so queue pressure never enters.
    println!("perf_service: determinism corpus = {corpus_batches} batches / {corpus_items} items");
    let mut digests: Vec<(String, String)> = Vec::new();
    for (label, workers, cache) in [("workers1", 1, 0), ("workers4", 4, 0)] {
        let groomd = Groomd::start(workers, cache, 256, 1 << 22);
        let mut conn = groomd.connect();
        let transcript = serve_corpus(&mut conn, &requests);
        groomd.stop();
        digests.push((label.to_string(), digest(&transcript)));
    }
    let (cache_hits, warm_digest, cold_digest) = {
        let groomd = Groomd::start(4, 1024, 256, 1 << 22);
        let mut conn = groomd.connect();
        let cold = serve_corpus(&mut conn, &requests);
        let warm = serve_corpus(&mut conn, &requests);
        conn.send("STATS\n");
        let stats = conn.read_reply();
        let hits = stats_field(&stats, "cache_hits");
        groomd.stop();
        (hits, digest(&warm), digest(&cold))
    };
    digests.push(("cache_cold".to_string(), cold_digest));
    digests.push(("cache_warm".to_string(), warm_digest));
    for (label, d) in &digests {
        println!("  transcript digest [{label:<10}] {d}");
        assert_eq!(
            d, &digests[0].1,
            "transcript diverged between {label} and {}",
            digests[0].0
        );
    }
    assert_eq!(
        cache_hits, corpus_items as u64,
        "the warm pass must be served entirely from the cache"
    );
    println!("  identical across 1 worker / 4 workers / cache cold+warm; {cache_hits} cache hits");

    // Phase 2: ramp pipelined bursts at a small queue until admissions
    // bounce. Cache off so every accepted item costs a real solve.
    let groomd = Groomd::start(if opts.fast { 2 } else { 4 }, 0, 8, 1 << 22);
    let mut conn = groomd.connect();
    let mut rounds: Vec<RampRound> = Vec::new();
    let mut offered = 2usize;
    let mut id_base = 1_000u64;
    let mut round = 0u64;
    loop {
        let r = ramp_round(&mut conn, offered, round, id_base);
        id_base += r.offered as u64;
        round += 1;
        println!(
            "  burst {:>4} batches: {:>4} item(s) solved, {:>3} rejected, {:>8.1} solves/s",
            r.offered,
            r.accepted_items,
            r.rejected,
            r.solves_per_sec()
        );
        let blocked = r.rejected > 0;
        rounds.push(r);
        if blocked || offered >= max_burst {
            break;
        }
        offered *= 2;
    }
    conn.send("STATS\n");
    let stats = conn.read_reply();
    let qwait_p50 = stats_field(&stats, "qwait_p50_us");
    let qwait_p99 = stats_field(&stats, "qwait_p99_us");
    let solve_p50 = stats_field(&stats, "solve_p50_us");
    let solve_p99 = stats_field(&stats, "solve_p99_us");
    groomd.stop();

    // Phase 3: sequential PING round trips on an idle server.
    let groomd = Groomd::start(1, 0, 256, 1 << 22);
    let (ping_p50, ping_p99) = ping_round_trips(&mut groomd.connect());
    groomd.stop();
    println!(
        "  PING round trip: p50 {ping_p50}us p99 {ping_p99}us over {PING_MEASURED} \
         sequential requests (ceiling {PING_P50_CEILING_US}us)"
    );

    let last = rounds.last().expect("at least one round");
    println!(
        "  blocking point: burst {} → rate {:.2}, sustained {:.1} solves/s, \
         queue wait p50 <= {}us p99 <= {}us",
        last.offered,
        last.blocking_rate(),
        last.solves_per_sec(),
        qwait_p50,
        qwait_p99
    );
    if !opts.fast {
        assert!(
            last.rejected > 0,
            "the full ramp must reach the blocking point (no rejection seen \
             up to burst {max_burst})"
        );
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"perf_service\",\n  \"fast\": {},\n  \
         \"corpus\": {{\"batches\": {corpus_batches}, \"items\": {corpus_items}}},\n  \
         \"determinism\": {{",
        opts.fast
    );
    for (label, d) in &digests {
        let _ = write!(json, "\"{label}\": \"{d}\", ");
    }
    let _ = write!(
        json,
        "\"identical\": true, \"cache_hits\": {cache_hits}}},\n  \"ramp\": [\n"
    );
    for (i, r) in rounds.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"offered_batches\": {}, \"accepted_items\": {}, \"rejected_requests\": {}, \
             \"solves_per_sec\": {:.1}}}{}",
            r.offered,
            r.accepted_items,
            r.rejected,
            r.solves_per_sec(),
            if i + 1 < rounds.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"blocking\": {{\"offered_batches\": {}, \"rejected_requests\": {}, \
         \"blocking_rate\": {:.3}, \"sustained_solves_per_sec\": {:.1}}},\n  \
         \"queue_wait_us\": {{\"p50\": {qwait_p50}, \"p99\": {qwait_p99}}},\n  \
         \"solve_time_us\": {{\"p50\": {solve_p50}, \"p99\": {solve_p99}}},\n  \
         \"round_trip_us\": {{\"p50\": {ping_p50}, \"p99\": {ping_p99}}}\n}}\n",
        last.offered,
        last.rejected,
        last.blocking_rate(),
        last.solves_per_sec()
    );
    std::fs::write(&opts.out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", opts.out);
        std::process::exit(1);
    });
    println!("baseline written to {}", opts.out);

    assert!(
        ping_p50 < PING_P50_CEILING_US,
        "PING round-trip p50 {ping_p50}us reached the {PING_P50_CEILING_US}us ceiling"
    );
}
