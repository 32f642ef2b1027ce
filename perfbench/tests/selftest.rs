//! The benchmark's self-test: each workload at a tiny size against an
//! in-process groomd, traced, so every reply check and every layer replay
//! runs.

use perfbench::workload::{Size, Workload};
use perfbench::{quantile, run, RunConfig, RunReport, ServerKind};

/// Outputs that are functions of the seed alone.
const DETERMINISTIC: [&str; 7] = [
    "sadm_over_lb",
    "blocking_rate",
    "improve.swaps_evaluated",
    "mesh.routes_evaluated",
    "improve.sadms_moved",
    "improve.parts_repaired",
    "protocol.request_kb",
];

fn tiny(workload: Workload, seed: u64) -> RunReport {
    let report = run(&RunConfig {
        workload,
        seed,
        size: Size::Tiny,
        trace: true,
        server: ServerKind::InProcess,
    })
    .expect("a tiny run completes");
    // Every reply passed its checks, the traced replies equal the untraced
    // ones, and every replayed layer call reproduced the wire plan.
    assert_eq!(report.failures, Vec::<String>::new(), "{}", workload.name());
    report
}

fn check_workload(workload: Workload, working_layer: &str) {
    let first = tiny(workload, 7);
    let second = tiny(workload, 7);
    assert_eq!(first.digest, second.digest, "{}", workload.name());
    for name in DETERMINISTIC {
        assert_eq!(
            first.metric(name),
            second.metric(name),
            "{} {name}",
            workload.name()
        );
    }
    assert!(
        first.metric(working_layer).is_some_and(|v| v > 0.0),
        "{}: {working_layer} did no work",
        workload.name()
    );
    let spans = first.spans.as_deref().expect("a traced run keeps spans");
    assert!(spans.lines().count() > first.measured);
    assert_ne!(
        first.digest,
        tiny(workload, 8).digest,
        "{}",
        workload.name()
    );
}

#[test]
fn ring_powerlaw_repeats_and_replays() {
    check_workload(Workload::RingPowerlaw, "improve.swaps_evaluated");
}

#[test]
fn mesh_metro_repeats_and_replays() {
    check_workload(Workload::MeshMetro, "mesh.routes_evaluated");
}

#[test]
fn churn_sim_repeats_and_replays() {
    check_workload(Workload::ChurnSim, "improve.parts_repaired");
}

#[test]
fn quantiles_interpolate_between_order_statistics() {
    let v = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(quantile(&v, 0.0), 1.0);
    assert_eq!(quantile(&v, 0.5), 2.5);
    assert_eq!(quantile(&v, 1.0), 4.0);
    assert_eq!(quantile(&[], 0.5), 0.0);
}
