//! perfbench: groomd and groomsim measured end to end and layer by layer.
//!
//! A run generates one workload's requests from a seed, starts groomd,
//! and drives it as a closed loop over loopback TCP: each connection sends
//! its next request only after the previous reply. Every reply is checked.
//! A traced run then replays the same requests in process against a
//! second groomd, timing each public call into a layer (see `trace.rs`).
//!
//! The library code is driven from outside through public functions
//! only; nothing here changes what groomd or groomsim do.

mod check;
mod server;
mod trace;
mod wire;
pub mod workload;

use std::hash::{DefaultHasher, Hasher};
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use grooming::algorithm::Algorithm;
use grooming_graph::spanning::TreeStrategy;
use grooming_service::Service;

use crate::check::{check_reply, stats_field};
use crate::server::{shipped_config, Server};
use crate::trace::{Replayer, Sample};
use crate::wire::{closed_loop, Conn, Exchange, Phase};
use crate::workload::{Inputs, Order, SimRecord, Size, Workload};

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// Which groomd a run measures.
#[derive(Clone, Debug)]
pub enum ServerKind {
    /// `<binary> serve` as its own process (the benchmark proper).
    Process(PathBuf),
    /// The same service on a listener inside this process (self-test).
    InProcess,
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The traffic mix.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Request volume.
    pub size: Size,
    /// Add the traced replay run.
    pub trace: bool,
    /// The groomd to measure.
    pub server: ServerKind,
}

/// A measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric's name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Measured requests (excluding the warm-up).
    pub measured: usize,
    /// Untimed warm-up requests.
    pub warmup: usize,
    /// Replies checked (both phases of a traced run).
    pub attempted: usize,
    /// Failed checks, one line each; every line counts as one failure.
    pub failures: Vec<String>,
    /// Digest of the reply transcript, in request order.
    pub digest: u64,
    /// End-to-end metrics, then (traced runs) per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Lines describing the run for a reader.
    pub notes: Vec<String>,
    /// The traced run's spans, as tab-separated text (see `trace.rs`).
    pub spans: Option<String>,
}

impl RunReport {
    /// Failed checks, counted against [`RunReport::attempted`].
    pub fn failed(&self) -> usize {
        self.failures.len().min(self.attempted)
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); `0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn start_server(kind: &ServerKind, workers: usize) -> io::Result<Server> {
    match kind {
        ServerKind::Process(binary) => Server::spawn(binary, workers),
        ServerKind::InProcess => Server::in_process(shipped_config(workers)),
    }
}

/// Opens `n` connections and checks each answers `PING`.
fn connect(server: &Server, n: usize) -> io::Result<Vec<Conn>> {
    (0..n)
        .map(|_| {
            let mut conn = Conn::connect(server.addr())?;
            match conn.command("PING")?.trim_end() {
                "PONG" => Ok(conn),
                other => Err(io::Error::other(format!("PING answered {other:?}"))),
            }
        })
        .collect()
}

/// Sends `order` as a closed loop with nothing done between requests.
fn send(conns: &mut [Conn], inputs: &Inputs, order: &Order) -> io::Result<Phase<()>> {
    closed_loop(conns, &inputs.requests, order, || (), |_, _, _| ())
}

/// The replies of `exchanges`, in request-index order.
fn transcript<'a>(
    exchanges: impl IntoIterator<Item = &'a Exchange>,
    len: usize,
) -> Vec<Option<String>> {
    let mut replies = vec![None; len];
    for e in exchanges {
        replies[e.index] = Some(e.reply.clone());
    }
    replies
}

/// Hashes a reply transcript with the standard library's SipHash (fixed
/// keys, so equal transcripts give equal digests within one toolchain).
fn digest(replies: &[Option<String>]) -> u64 {
    let mut h = DefaultHasher::new();
    for r in replies.iter().flatten() {
        h.write(r.as_bytes());
    }
    h.finish()
}

/// Runs one workload and returns what it measured. An I/O failure (groomd
/// would not start, a connection dropped) is an error; a reply that fails
/// its check is recorded in [`RunReport::failures`].
pub fn run(cfg: &RunConfig) -> io::Result<RunReport> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut report = RunReport::default();

    // Set-up, repeated: input generation, server start and connect. The
    // last repetition's inputs, server and connections are measured.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut sims: Vec<SimRecord> = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let inputs = workload::generate(cfg.workload, cfg.seed, cfg.size, nproc);
        let server = start_server(&cfg.server, inputs.connections)?;
        let conns = connect(&server, inputs.connections)?;
        setups.push(started.elapsed().as_secs_f64());
        sims.extend(inputs.sim);
        if let Some((_, old, _)) = kept.replace((inputs, server, conns)) {
            Server::shutdown(old)?;
        }
    }
    let (inputs, server, mut conns): (Inputs, Server, Vec<Conn>) =
        kept.expect("at least one set-up");
    let n = inputs.requests.len();
    report.measured = inputs.measured.len();
    report.warmup = inputs.warmup.len();

    let warm = send(&mut conns, &inputs, &inputs.warmup)?;
    let timed = send(&mut conns, &inputs, &inputs.measured)?;
    let stats = conns[0].command("STATS")?;
    let peak_rss_mb = server.peak_rss_mb();
    drop(conns);
    server.shutdown()?;

    let replies = transcript(warm.exchanges.iter().chain(&timed.exchanges), n);
    report.digest = digest(&replies);
    report.attempted = n;
    let stat = |key: &str| stats_field(&stats, key).unwrap_or(u64::MAX);
    let blocked = stat("blocked_demands") as usize;
    let mut sadms = 0usize;
    for (request, reply) in inputs.requests.iter().zip(&replies) {
        match check_reply(request, reply.as_deref().unwrap_or(""), blocked) {
            Ok(plan) => sadms += plan.sadms,
            Err(e) => report.failures.push(e),
        }
    }
    // groomd's own books: every item solved, none failed, timed out,
    // cancelled, or served from the cache (no content repeats).
    for key in [
        "failed_items",
        "timed_out_items",
        "cancelled_items",
        "cache_hits",
        "rejected_requests",
    ] {
        if stat(key) != 0 {
            report.failures.push(format!("STATS {key}={}", stat(key)));
        }
    }
    if stat("completed_items") != n as u64 {
        report.failures.push(format!(
            "STATS completed_items={} for {n} requests",
            stat("completed_items")
        ));
    }

    let latencies: Vec<f64> = timed.exchanges.iter().map(|e| ms(e.latency())).collect();
    let untraced_p50 = quantile(&latencies, 0.5);
    report.push("latency_p50_ms", untraced_p50, "ms");
    report.push("latency_p90_ms", quantile(&latencies, 0.9), "ms");
    report.push(
        "plans_per_s",
        timed.exchanges.len() as f64 / timed.wall.as_secs_f64(),
        "1/s",
    );
    report.push(
        "sadm_over_lb",
        sadms as f64 / stat("lower_bound") as f64,
        "ratio",
    );
    let offered: usize = inputs.requests.iter().map(|r| r.expect.demands).sum();
    let blocking = match (cfg.workload, &inputs.sim) {
        (Workload::MeshMetro, _) => Some(blocked as f64 / offered as f64),
        (_, Some(sim)) => Some(sim.blocked as f64 / sim.offered as f64),
        _ => None,
    };
    let epochs_per_s: Vec<f64> = sims
        .iter()
        .map(|s| s.epochs as f64 / s.wall.as_secs_f64())
        .collect();
    report.push("setup_s", quantile(&setups, 0.5), "s");
    report.push("peak_rss_mb", peak_rss_mb, "MiB");
    report.notes.push(format!(
        "load: closed loop, {} connection(s), groomd workers={}, solve cache on, no deadlines",
        inputs.connections, inputs.connections
    ));
    report.notes.push(format!(
        "requests: {} measured + {} warm-up = {n}; measured phase {:.3} s",
        report.measured,
        report.warmup,
        timed.wall.as_secs_f64()
    ));
    let deciles: Vec<String> = [0.1f64, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
        .iter()
        .map(|&q| format!("p{}={:.3}", (q * 100.0).round(), quantile(&latencies, q)))
        .collect();
    report
        .notes
        .push(format!("latency (ms): {}", deciles.join(" ")));
    report.notes.push(format!(
        "blocking_rate = {}",
        blocking.map_or("n/a (this workload never blocks)".into(), |b| format!(
            "{b} ratio"
        ))
    ));
    report.notes.push(format!(
        "sim_epochs_per_s = {}",
        if epochs_per_s.is_empty() {
            "n/a (no groomsim recording)".to_string()
        } else {
            format!("{} 1/s", quantile(&epochs_per_s, 0.5))
        }
    ));

    if cfg.trace {
        let traced = traced_run(cfg, &inputs, &replies, &mut report)?;
        let sim_self: Vec<f64> = sims
            .iter()
            .map(|s| ms(s.wall.saturating_sub(s.solve)))
            .collect();
        layer_metrics(
            &mut report,
            cfg.workload,
            &traced,
            &stats,
            untraced_p50,
            LayerExtras {
                blocking: blocking.unwrap_or(0.0),
                epochs_per_s: quantile(&epochs_per_s, 0.5),
                sim_self_ms: quantile(&sim_self, 0.5),
            },
        );
        report.attempted += n;
    }
    report.notes.push(format!(
        "failed_share = {} ratio",
        report.failed() as f64 / report.attempted as f64
    ));
    Ok(report)
}

/// What the traced phase hands [`layer_metrics`].
struct Traced {
    samples: Vec<Sample>,
    wire_p50: f64,
}

struct LayerExtras {
    blocking: f64,
    epochs_per_s: f64,
    sim_self_ms: f64,
}

/// The traced phase: the same requests against a fresh groomd (so its
/// solve cache is cold again), each replayed in process right after its
/// wire exchange.
fn traced_run(
    cfg: &RunConfig,
    inputs: &Inputs,
    untraced: &[Option<String>],
    report: &mut RunReport,
) -> io::Result<Traced> {
    let config = shipped_config(inputs.connections);
    let server = start_server(&cfg.server, inputs.connections)?;
    let mut conns = connect(&server, inputs.connections)?;
    let service = Service::start(config.clone());
    // The warm-up grows groomd's workspaces; only measured requests are
    // replayed.
    let warm = send(&mut conns, inputs, &inputs.warmup)?;
    let origin = Instant::now();
    let timed = closed_loop(
        &mut conns,
        &inputs.requests,
        &inputs.measured,
        || Replayer::new(&service, &config, origin),
        Replayer::replay,
    )?;
    drop(conns);
    server.shutdown()?;
    service.shutdown();

    let replies = transcript(
        warm.exchanges.iter().chain(&timed.exchanges),
        inputs.requests.len(),
    );
    for ((a, b), request) in replies.iter().zip(untraced).zip(&inputs.requests) {
        if a != b {
            report.failures.push(format!(
                "request {}: traced-run reply differs from the untraced run",
                request.id
            ));
        }
    }
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    for state in timed.states {
        report.failures.extend(state.failures);
        samples.extend(state.samples);
        spans.extend(state.spans);
    }
    spans.sort_by_key(|s| (s.request, s.id));
    samples.sort_by_key(|s| s.request);
    report.spans = Some(trace::render_spans(&spans));
    let wire: Vec<f64> = timed.exchanges.iter().map(|e| ms(e.latency())).collect();
    Ok(Traced {
        samples,
        wire_p50: quantile(&wire, 0.5),
    })
}

/// The replayed calls that make up one solve of `workload`, as
/// `(span name, metric name)`; `solve.other_ms` is the solve's time
/// outside them.
fn solve_layers(workload: Workload) -> &'static [(&'static str, &'static str)] {
    const BOUND: (&str, &str) = ("bounds.lower_bound", "bounds.lower_bound_ms");
    match workload {
        Workload::RingPowerlaw => &[
            BOUND,
            ("construct.spant_euler", "construct.spant_euler_ms"),
            ("improve.refine", "improve.refine_ms"),
        ],
        // The portfolio's time already holds the work the construct and
        // refine replays repeat on their own.
        Workload::MeshMetro => &[
            ("mesh.route", "mesh.route_ms"),
            BOUND,
            ("portfolio", "portfolio_ms"),
        ],
        Workload::ChurnSim => &[BOUND, ("improve.warm_repair", "improve.warm_repair_ms")],
    }
}

/// The default portfolio's entries under their metric names.
const PORTFOLIO_ENTRIES: [(Algorithm, &str); 6] = [
    (Algorithm::Brauner, "brauner"),
    (Algorithm::WangGuIcc06, "wang_gu"),
    (Algorithm::SpanTEuler(TreeStrategy::Bfs), "spant_euler"),
    (
        Algorithm::SpanTEulerRefined(TreeStrategy::Bfs),
        "spant_refined",
    ),
    (Algorithm::CliqueFirst, "clique_first"),
    (Algorithm::DenseFirst, "dense_first"),
];

fn layer_metrics(
    report: &mut RunReport,
    workload: Workload,
    traced: &Traced,
    stats: &str,
    untraced_p50: f64,
    extras: LayerExtras,
) {
    let samples = &traced.samples;
    let per_request = |f: &dyn Fn(&Sample) -> f64| -> f64 {
        quantile(&samples.iter().map(f).collect::<Vec<_>>(), 0.5)
    };
    let t = |s: &Sample, name: &str| ms(s.time(name));
    let span_ms = |name: &str| per_request(&|s| t(s, name));
    let total = |f: &dyn Fn(&Sample) -> u64| samples.iter().map(f).sum::<u64>() as f64;
    let stat = |key: &str| stats_field(stats, key).unwrap_or(0) as f64;

    let residual_ms = per_request(&|s| {
        t(s, "wire.round_trip")
            - t(s, "protocol.parse")
            - t(s, "service.client")
            - t(s, "protocol.format")
    });
    let overhead_ms =
        per_request(&|s| t(s, "service.client") - t(s, "service.digest") - t(s, "solve"));
    let other_ms = per_request(&|s| {
        let parts: f64 = solve_layers(workload)
            .iter()
            .map(|(span, _)| t(s, span))
            .sum();
        t(s, "solve") - parts
    });
    // The layers one round trip is made of, for the remainder.
    let mut leaves = vec![
        ("tcp.residual_ms", residual_ms),
        ("protocol.parse_ms", span_ms("protocol.parse")),
        ("protocol.format_ms", span_ms("protocol.format")),
        ("service.digest_ms", span_ms("service.digest")),
        ("service.overhead_ms", overhead_ms),
        ("solve.other_ms", other_ms),
    ];
    for &(span, metric) in solve_layers(workload) {
        leaves.push((metric, span_ms(span)));
    }
    let attributed: f64 = leaves.iter().map(|(_, v)| v).sum();

    let mut useful = Duration::ZERO;
    let mut all = Duration::ZERO;
    for &(_, d, won) in samples.iter().flat_map(|s| &s.attempts) {
        all += d;
        if won {
            useful += d;
        }
    }
    let lookups = stat("cache_hits") + stat("cache_misses");

    let mut m = |name: &str, value: f64, unit: &'static str| report.push(name, value, unit);
    m("tcp.residual_ms", residual_ms, "ms");
    m("protocol.parse_ms", span_ms("protocol.parse"), "ms");
    m("protocol.format_ms", span_ms("protocol.format"), "ms");
    let kib = per_request(&|s| s.request_bytes as f64 / 1024.0);
    m("protocol.request_kb", kib, "KiB");
    m("service.digest_ms", span_ms("service.digest"), "ms");
    m("service.overhead_ms", overhead_ms, "ms");
    m("service.queue_wait_p50_us", stat("qwait_p50_us"), "us");
    m("service.queue_wait_p99_us", stat("qwait_p99_us"), "us");
    m(
        "service.cache_hit_share",
        stat("cache_hits") / lookups.max(1.0),
        "ratio",
    );
    m("solve.total_ms", span_ms("solve"), "ms");
    m("solve.other_ms", other_ms, "ms");
    m("bounds.lower_bound_ms", span_ms("bounds.lower_bound"), "ms");
    m(
        "construct.spant_euler_ms",
        span_ms("construct.spant_euler"),
        "ms",
    );
    m("improve.refine_ms", span_ms("improve.refine"), "ms");
    m(
        "improve.swaps_evaluated",
        total(&|s| s.swaps_evaluated),
        "count",
    );
    m(
        "improve.warm_repair_ms",
        span_ms("improve.warm_repair"),
        "ms",
    );
    m(
        "improve.parts_repaired",
        total(&|s| s.parts_repaired),
        "count",
    );
    m("improve.sadms_moved", total(&|s| s.sadms_moved), "count");
    for (algo, entry) in PORTFOLIO_ENTRIES {
        let attempt_ms = |s: &Sample| -> f64 {
            s.attempts
                .iter()
                .filter(|a| a.0 == algo)
                .map(|a| ms(a.1))
                .sum()
        };
        let wins = samples
            .iter()
            .flat_map(|s| &s.attempts)
            .filter(|a| a.0 == algo && a.2)
            .count();
        m(
            &format!("portfolio.{entry}_ms"),
            per_request(&attempt_ms),
            "ms",
        );
        m(&format!("portfolio.{entry}_wins"), wins as f64, "count");
    }
    let useful_share = if all.is_zero() {
        0.0
    } else {
        useful.as_secs_f64() / all.as_secs_f64()
    };
    m("portfolio.useful_share", useful_share, "ratio");
    m("mesh.route_ms", span_ms("mesh.route"), "ms");
    m(
        "mesh.routes_evaluated",
        total(&|s| s.routes_evaluated),
        "count",
    );
    m("sim.self_ms", extras.sim_self_ms, "ms");
    m("blocking_rate", extras.blocking, "ratio");
    m("sim_epochs_per_s", extras.epochs_per_s, "1/s");
    m("trace.unattributed_ms", untraced_p50 - attributed, "ms");
    m("trace.overhead_ms", traced.wire_p50 - untraced_p50, "ms");

    report.notes.push(format!(
        "traced breakdown of the untraced p50 ({untraced_p50:.3} ms), medians per request:"
    ));
    for (name, value) in &leaves {
        report.notes.push(format!(
            "  {name:<28} {value:>10.3} ms  {:>6.1} %",
            100.0 * value / untraced_p50
        ));
    }
    report.notes.push(format!(
        "  {:<28} {:>10.3} ms  {:>6.1} %",
        "unattributed",
        untraced_p50 - attributed,
        100.0 * (untraced_p50 - attributed) / untraced_p50
    ));
    report.notes.push(format!(
        "tracing overhead: traced wire p50 {:.3} ms - untraced p50 {untraced_p50:.3} ms = {:.3} ms",
        traced.wire_p50,
        traced.wire_p50 - untraced_p50
    ));
}
