//! Dynamic-traffic baseline: groomsim blocking points, churn, and the
//! TCP soak contract.
//!
//! Sweeps Poisson arrival/departure traffic over the ring and mesh
//! families to the 1% blocking point per `(family, k, rearrange budget)`
//! cell — the classic "how many Erlangs at 1% blocking" capacity number,
//! now under *dynamic* load rather than `perf_mesh`-style level loading.
//! At each cell's blocking point the run reports carried Erlangs, SADM
//! churn per carried Erlang, sustained warm reconfigures/sec, and
//! warm-solve latency p50/p99.
//!
//! On top of the sweeps the run asserts the simulator's determinism
//! contract (byte-identical traces across reruns and under event-source
//! registration reordering) and the TCP soak contract: replaying a
//! recorded epoch sequence against a live groomd over the
//! `RECONFIGURE`/`BATCH` wire verbs produces a transcript byte-identical
//! to the in-process run.
//!
//! Usage: `perf_sim [--fast] [--out PATH]`

use std::fmt::Write as _;
use std::net::TcpListener;
use std::time::Instant;

use grooming_bench::peak_rss_mb;
use grooming_service::{tcp, Service, ServiceConfig};
use grooming_sim::{
    assert_soak_matches, blocking_point, run, run_recording, run_with_streams, Scenario,
    BLOCKING_TARGET,
};

/// Peak-RSS ceilings per tier: sim state is a demand snapshot plus a
/// partition — tiny next to the scale tiers, same ceilings for
/// consistency with `perf_scale`/`perf_churn`.
const FAST_RSS_CEILING_MB: f64 = 256.0;
const FULL_RSS_CEILING_MB: f64 = 1024.0;

#[derive(Clone, Copy, PartialEq)]
enum Tier {
    Fast,
    Full,
}

impl Tier {
    /// Ring size for the ring family.
    fn ring_n(self) -> usize {
        match self {
            Tier::Fast => 8,
            Tier::Full => 16,
        }
    }

    /// Grid side for the mesh family.
    fn mesh_side(self) -> usize {
        match self {
            Tier::Fast => 3,
            Tier::Full => 4,
        }
    }

    fn k(self) -> usize {
        match self {
            Tier::Fast => 4,
            Tier::Full => 8,
        }
    }

    /// Virtual-time horizon per simulation, in ticks.
    fn horizon(self) -> u64 {
        match self {
            Tier::Fast => 20_000,
            Tier::Full => 120_000,
        }
    }

    /// Bisection refinements per sweep cell.
    fn iterations(self) -> usize {
        match self {
            Tier::Fast => 4,
            Tier::Full => 8,
        }
    }

    /// Virtual-time horizon of the soak recording (kept short: every
    /// epoch becomes one TCP request).
    fn soak_horizon(self) -> u64 {
        match self {
            Tier::Fast => 8_000,
            Tier::Full => 30_000,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Tier::Fast => "fast",
            Tier::Full => "full",
        }
    }

    fn rss_ceiling_mb(self) -> f64 {
        match self {
            Tier::Fast => FAST_RSS_CEILING_MB,
            Tier::Full => FULL_RSS_CEILING_MB,
        }
    }
}

struct Opts {
    tier: Tier,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        tier: Tier::Full,
        out: "results/BENCH_sim.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => opts.tier = Tier::Fast,
            "--out" => {
                opts.out = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: perf_sim [--fast] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// One sweep cell's scenario at unit offered load (the sweep rescales).
fn cell_scenario(tier: Tier, family: &str, budget: Option<usize>) -> Scenario {
    let mut scenario = match family {
        "ring" => Scenario::ring(tier.ring_n(), tier.k()),
        "mesh" => Scenario::mesh(tier.mesh_side(), tier.k()),
        other => unreachable!("unknown family {other}"),
    };
    // A binding wavelength budget: roughly half the node count keeps the
    // blocking point at a load the horizon can resolve.
    scenario.max_wavelengths = (scenario.family.num_nodes() / 2).max(2);
    // Mesh cells must exercise the link-admission layer too: the family
    // default (24 lightpaths/link) never binds at these loads, which
    // would make the mesh sweep numerically identical to the ring's. A
    // per-link capacity of k makes the grid's central links contend.
    if scenario.link_capacity.is_some() {
        scenario.link_capacity = Some(scenario.k as u32);
    }
    scenario.rearrange_budget = budget;
    scenario.horizon = tier.horizon();
    scenario
}

struct Cell {
    family: &'static str,
    budget: Option<usize>,
    erlangs: f64,
    blocking: f64,
    carried_erlangs: f64,
    churn_per_erlang: f64,
    blocked_links: u64,
    epochs: u64,
    reconfigures_per_sec: f64,
    latency_p50_us: u128,
    latency_p99_us: u128,
    evaluations: usize,
}

fn main() {
    let opts = parse_opts();
    let tier = opts.tier;
    println!(
        "perf_sim: tier {} (ring n = {}, mesh {}x{} grid, k = {}, horizon = {} ticks)",
        tier.name(),
        tier.ring_n(),
        tier.mesh_side(),
        tier.mesh_side(),
        tier.k(),
        tier.horizon(),
    );

    // Sweep every (family, k, budget) cell to the 1% blocking point, then
    // re-run the blocking-point scenario timed for throughput and latency.
    let budgets: [Option<usize>; 2] = [Some(4), None];
    let mut cells: Vec<Cell> = Vec::new();
    for family in ["ring", "mesh"] {
        for budget in budgets {
            let scenario = cell_scenario(tier, family, budget);
            let sweep = blocking_point(&scenario, BLOCKING_TARGET, tier.iterations());
            let point = scenario.clone().with_offered_erlangs(sweep.erlangs);
            let t = Instant::now();
            let out = run(&point);
            let elapsed_s = t.elapsed().as_secs_f64();
            assert_eq!(
                out.report, sweep.report,
                "re-running the blocking-point scenario must reproduce the sweep's report"
            );
            let r = &out.report;
            let cell = Cell {
                family,
                budget,
                erlangs: sweep.erlangs,
                blocking: r.blocking_probability,
                carried_erlangs: r.carried_erlangs,
                churn_per_erlang: r.churn_per_erlang(),
                blocked_links: r.blocked_links,
                epochs: r.epochs,
                reconfigures_per_sec: r.epochs as f64 / elapsed_s.max(1e-9),
                latency_p50_us: out.latency.percentile(0.5).as_micros(),
                latency_p99_us: out.latency.percentile(0.99).as_micros(),
                evaluations: sweep.evaluations,
            };
            println!(
                "  {family:>4} budget {:>9}: blocking point {:>8.2} Erlangs \
                 (blocking {:>5.2}%, {} on links, carried {:>7.2})  churn/Erlang {:>6.2}  \
                 {:>6} epochs -> {:>8.0} reconf/s  p50 {} us p99 {} us  ({} sims)",
                match budget {
                    Some(b) => format!("moved<={b}"),
                    None => "unbounded".to_string(),
                },
                cell.erlangs,
                100.0 * cell.blocking,
                cell.blocked_links,
                cell.carried_erlangs,
                cell.churn_per_erlang,
                cell.epochs,
                cell.reconfigures_per_sec,
                cell.latency_p50_us,
                cell.latency_p99_us,
                cell.evaluations,
            );
            assert!(
                cell.blocking >= BLOCKING_TARGET,
                "sweep must land at or above the blocking target"
            );
            cells.push(cell);
        }
    }

    // Determinism: byte-identical traces across reruns and under
    // event-source registration reordering.
    let check = {
        let mut s = cell_scenario(tier, "ring", Some(4));
        s.horizon = tier.soak_horizon();
        s
    };
    let a = run(&check);
    let b = run(&check);
    assert_eq!(a.trace, b.trace, "rerun trace diverged");
    assert_eq!(a.report, b.report, "rerun report diverged");
    let mut reversed = check.stream_ids();
    reversed.reverse();
    let c = run_with_streams(&check, &reversed, false);
    assert_eq!(
        a.trace, c.trace,
        "event-source registration order leaked into the trace"
    );
    assert_eq!(a.report, c.report);
    println!("  determinism: rerun and registration-reorder traces are byte-identical");

    // TCP soak: replay the recorded epoch sequence against a live groomd
    // and require a transcript byte-identical to the in-process run.
    let soak_config = || {
        let mut config = ServiceConfig::default();
        config.workers = 2;
        config.master_seed = 42;
        config
    };
    let recorded = run_recording(&check);
    let service = Service::start(soak_config());
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound address");
    let server = tcp::serve(listener, &service).expect("tcp serve");
    let t = Instant::now();
    let soak =
        assert_soak_matches(addr, &recorded.epochs, soak_config()).expect("soak replay completes");
    let soak_elapsed_s = t.elapsed().as_secs_f64();
    service.begin_shutdown();
    server.join();
    service.shutdown();
    let soak_rps = soak.epochs as f64 / soak_elapsed_s.max(1e-9);
    println!(
        "  tcp soak: {} epochs, {} transcript bytes byte-identical to in-process \
         ({soak_rps:.0} epochs/s over the wire)",
        soak.epochs, soak.transcript_bytes
    );

    let peak_mb = peak_rss_mb();
    let ceiling = tier.rss_ceiling_mb();
    println!("  peak RSS {peak_mb:.1} MiB (ceiling {ceiling:.0} MiB)");

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"perf_sim\",\n  \"tier\": \"{}\",\n  \
         \"ring_n\": {},\n  \"mesh_side\": {},\n  \"k\": {},\n  \
         \"horizon_ticks\": {},\n  \"blocking_target\": {BLOCKING_TARGET},\n  \
         \"cells\": [\n",
        tier.name(),
        tier.ring_n(),
        tier.mesh_side(),
        tier.k(),
        tier.horizon(),
    );
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"family\": \"{}\", \"rearrange_budget\": {}, \
             \"blocking_point_erlangs\": {:.3}, \"blocking\": {:.4}, \
             \"carried_erlangs\": {:.3}, \"churn_per_erlang\": {:.3}, \
             \"blocked_links\": {}, \
             \"epochs\": {}, \"reconfigures_per_sec\": {:.1}, \
             \"latency_p50_us\": {}, \"latency_p99_us\": {}, \
             \"evaluations\": {}}}{}",
            c.family,
            match c.budget {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            },
            c.erlangs,
            c.blocking,
            c.carried_erlangs,
            c.churn_per_erlang,
            c.blocked_links,
            c.epochs,
            c.reconfigures_per_sec,
            c.latency_p50_us,
            c.latency_p99_us,
            c.evaluations,
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"determinism_rerun_identical\": true,\n  \
         \"registration_reorder_identical\": true,\n  \
         \"soak_epochs\": {},\n  \"soak_transcript_bytes\": {},\n  \
         \"soak_transcript_identical\": true,\n  \
         \"soak_epochs_per_sec\": {soak_rps:.1},\n  \
         \"peak_rss_mb\": {peak_mb:.1},\n  \"rss_ceiling_mb\": {ceiling:.0}\n}}\n",
        soak.epochs, soak.transcript_bytes,
    );
    std::fs::write(&opts.out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", opts.out);
        std::process::exit(1);
    });
    println!("baseline written to {}", opts.out);

    assert!(
        peak_mb < ceiling,
        "peak RSS {peak_mb:.1} MiB breached the {} tier's ceiling of {ceiling:.0} MiB",
        tier.name()
    );
}
