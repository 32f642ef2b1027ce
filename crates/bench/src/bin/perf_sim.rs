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

use std::net::TcpListener;
use std::time::Instant;

use grooming_bench::fields;
use grooming_bench::harness::{fixed, Harness, Json};
use grooming_service::{tcp, Service, ServiceConfig};
use grooming_sim::{
    assert_soak_matches, blocking_point, run, run_recording, run_with_streams, Scenario,
    BLOCKING_TARGET,
};

/// Per-tier sizes of the sweep cells and the soak.
struct Params {
    /// Ring size for the ring family.
    ring_n: usize,
    /// Grid side for the mesh family.
    mesh_side: usize,
    k: usize,
    /// Virtual-time horizon per simulation, in ticks.
    horizon: u64,
    /// Bisection refinements per sweep cell.
    iterations: usize,
    /// Virtual-time horizon of the soak recording (kept short: every
    /// epoch becomes one TCP request).
    soak_horizon: u64,
}

const FAST: Params = Params {
    ring_n: 8,
    mesh_side: 3,
    k: 4,
    horizon: 20_000,
    iterations: 4,
    soak_horizon: 8_000,
};

const FULL: Params = Params {
    ring_n: 16,
    mesh_side: 4,
    k: 8,
    horizon: 120_000,
    iterations: 8,
    soak_horizon: 30_000,
};

/// One sweep cell's scenario at unit offered load (the sweep rescales).
fn cell_scenario(p: &Params, family: &str, budget: Option<usize>) -> Scenario {
    let mut scenario = match family {
        "ring" => Scenario::ring(p.ring_n, p.k),
        "mesh" => Scenario::mesh(p.mesh_side, p.k),
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
    scenario.horizon = p.horizon;
    scenario
}

fn main() {
    let h = Harness::from_env("perf_sim", "results/BENCH_sim.json", false);
    let p = if h.fast() { &FAST } else { &FULL };
    println!(
        "perf_sim: tier {} (ring n = {}, mesh {}x{} grid, k = {}, horizon = {} ticks)",
        h.tier.name(),
        p.ring_n,
        p.mesh_side,
        p.mesh_side,
        p.k,
        p.horizon,
    );

    // Sweep every (family, k, budget) cell to the 1% blocking point, then
    // re-run the blocking-point scenario timed for throughput and latency.
    let budgets: [Option<usize>; 2] = [Some(4), None];
    let mut cells = Vec::new();
    for family in ["ring", "mesh"] {
        for budget in budgets {
            let scenario = cell_scenario(p, family, budget);
            let sweep = blocking_point(&scenario, BLOCKING_TARGET, p.iterations);
            let point = scenario.clone().with_offered_erlangs(sweep.erlangs);
            let t = Instant::now();
            let out = run(&point);
            let elapsed_s = t.elapsed().as_secs_f64();
            assert_eq!(
                out.report, sweep.report,
                "re-running the blocking-point scenario must reproduce the sweep's report"
            );
            let r = &out.report;
            let reconfigures_per_sec = r.epochs as f64 / elapsed_s.max(1e-9);
            let latency_p50_us = out.latency.percentile(0.5).as_micros();
            let latency_p99_us = out.latency.percentile(0.99).as_micros();
            println!(
                "  {family:>4} budget {:>9}: blocking point {:>8.2} Erlangs \
                 (blocking {:>5.2}%, {} on links, carried {:>7.2})  churn/Erlang {:>6.2}  \
                 {:>6} epochs -> {reconfigures_per_sec:>8.0} reconf/s  \
                 p50 {latency_p50_us} us p99 {latency_p99_us} us  ({} sims)",
                match budget {
                    Some(b) => format!("moved<={b}"),
                    None => "unbounded".to_string(),
                },
                sweep.erlangs,
                100.0 * r.blocking_probability,
                r.blocked_links,
                r.carried_erlangs,
                r.churn_per_erlang(),
                r.epochs,
                sweep.evaluations,
            );
            assert!(
                r.blocking_probability >= BLOCKING_TARGET,
                "sweep must land at or above the blocking target"
            );
            cells.push(Json::Obj(fields![
                "family" => family, "rearrange_budget" => budget,
                "blocking_point_erlangs" => fixed(sweep.erlangs, 3),
                "blocking" => fixed(r.blocking_probability, 4),
                "carried_erlangs" => fixed(r.carried_erlangs, 3),
                "churn_per_erlang" => fixed(r.churn_per_erlang(), 3),
                "blocked_links" => r.blocked_links, "epochs" => r.epochs,
                "reconfigures_per_sec" => fixed(reconfigures_per_sec, 1),
                "latency_p50_us" => latency_p50_us, "latency_p99_us" => latency_p99_us,
                "evaluations" => sweep.evaluations,
            ]));
        }
    }

    // Determinism: byte-identical traces across reruns and under
    // event-source registration reordering.
    let check = {
        let mut s = cell_scenario(p, "ring", Some(4));
        s.horizon = p.soak_horizon;
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

    let rss = h.rss();

    let mut doc = fields![
        "tier" => h.tier.name(),
        "ring_n" => p.ring_n,
        "mesh_side" => p.mesh_side,
        "k" => p.k,
        "horizon_ticks" => p.horizon,
        "blocking_target" => Json::raw(BLOCKING_TARGET),
        "cells" => Json::Rows(cells),
        "determinism_rerun_identical" => true,
        "registration_reorder_identical" => true,
        "soak_epochs" => soak.epochs,
        "soak_transcript_bytes" => soak.transcript_bytes,
        "soak_transcript_identical" => true,
        "soak_epochs_per_sec" => fixed(soak_rps, 1),
    ];
    doc.extend(rss.fields());
    h.write(doc);

    h.check_rss(&rss);
}
