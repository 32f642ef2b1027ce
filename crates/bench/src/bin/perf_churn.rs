//! Warm-start vs cold-solve baseline for grooming under churn.
//!
//! Replays a pinned add/remove trace at the scale tier: a base demand
//! snapshot is cold-solved once, then each maintenance window withdraws
//! and adds a small demand delta. Every window is solved twice — warm
//! (`Instance::Reconfigure` resuming the previous plan against the delta)
//! and cold (the full offline `SpanT_Euler+refine` re-groom the warm path
//! replaces) — and the aggregate warm-vs-cold speedup is asserted against
//! [`SPEEDUP_FLOOR`].
//!
//! Contracts enforced on top of the timings:
//!
//! * **empty-delta identity** — a warm start from an empty delta returns
//!   the prior plan byte-identically with `parts_repaired == 0`;
//! * **never-worse-than-prior-plus-delta** — each warm plan's SADM cost
//!   stays within the prior plan's cost plus the trivial cost of the delta
//!   (≤ 2 new SADMs per added demand, removals never add cost);
//! * **per-window speed** — every warm solve is at least as fast as the
//!   cold re-solve of the same window;
//! * **speedup floor** — total cold time / total warm time ≥ 5× (the
//!   acceptance bar; observed ratios are far higher).
//!
//! Usage: `perf_churn [--fast] [--out PATH]`

use std::time::Instant;

use grooming::algorithm::Algorithm;
use grooming::partition::EdgePartition;
use grooming::solve::{DemandDelta, Instance, Plan, SolveContext, Solver};
use grooming_bench::fields;
use grooming_bench::harness::{fixed, Bound, Harness, Json, Tier};
use grooming_bench::ms;
use grooming_graph::ids::NodeId;
use grooming_graph::spanning::TreeStrategy;
use grooming_sonet::demand::{DemandPair, DemandSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Acceptance floor on total cold time / total warm time.
const SPEEDUP_FLOOR: f64 = 5.0;

fn random_pair(n: usize, rng: &mut StdRng) -> DemandPair {
    let a = rng.gen_range(0..n as u32);
    let mut b = rng.gen_range(0..n as u32);
    while b == a {
        b = rng.gen_range(0..n as u32);
    }
    DemandPair::new(NodeId(a), NodeId(b))
}

fn main() {
    let h = Harness::from_env("perf_churn", "results/BENCH_churn.json", false);
    let (n, windows) = match h.tier {
        Tier::Fast => (10_000, 4usize),
        _ => (100_000, 8),
    };
    let k = 16usize;
    let base_m = 3 * n;
    let delta_size = (n / 1000).max(4);
    let offline = Algorithm::SpanTEulerRefined(TreeStrategy::Bfs);

    println!(
        "perf_churn: tier {} (n = {n}, k = {k}, base m = {base_m}, \
         delta = -{delta_size}/+{delta_size} per window)",
        h.tier.name()
    );

    let mut rng = StdRng::seed_from_u64(0xc4u64);
    let mut demands = DemandSet::new(n);
    for _ in 0..base_m {
        let p = random_pair(n, &mut rng);
        demands.add(p.lo(), p.hi());
    }

    // Cold base: the full offline groom the warm chain resumes from.
    let t = Instant::now();
    let sol = offline
        .solve(
            &Instance::ring(demands.clone(), k),
            &mut SolveContext::seeded(7),
        )
        .expect("ring solves are total");
    let base_ms = ms(t);
    let mut prior: EdgePartition = sol.plan.partition().expect("ring plan").clone();
    let mut prior_cost = sol.plan.sadm_cost();
    println!("  base cold solve: {base_ms:.1} ms, cost {prior_cost}");

    // Empty-delta identity: the warm start must return the prior plan
    // byte for byte with zero repairs.
    let sol = offline
        .solve(
            &Instance::reconfigure(demands.clone(), prior.clone(), DemandDelta::default(), k),
            &mut SolveContext::seeded(8),
        )
        .expect("warm starts are total");
    let Plan::Reconfigure {
        ref outcome,
        parts_repaired,
        ..
    } = sol.plan
    else {
        unreachable!("reconfigure instances yield reconfigure plans");
    };
    assert_eq!(
        outcome.partition.parts(),
        prior.parts(),
        "empty-delta warm start diverged from the prior plan"
    );
    assert_eq!(parts_repaired, 0, "empty delta repaired parts");
    println!("  empty-delta identity ok");

    let (mut total_warm, mut total_cold) = (0.0, 0.0);
    let mut rows = Vec::new();
    for w in 1..=windows {
        let removed: Vec<DemandPair> = (0..delta_size)
            .map(|_| demands.pairs()[rng.gen_range(0..demands.len())])
            .collect();
        let added: Vec<DemandPair> = (0..delta_size).map(|_| random_pair(n, &mut rng)).collect();
        let delta = DemandDelta::new(added, removed);
        let (next, _) = delta
            .apply(&demands)
            .expect("removals draw from the snapshot");

        let t = Instant::now();
        let warm = offline
            .solve(
                &Instance::reconfigure(demands.clone(), prior.clone(), delta.clone(), k),
                &mut SolveContext::seeded(100 + w as u64),
            )
            .expect("warm starts are total");
        let warm_ms = ms(t);
        let Plan::Reconfigure {
            outcome,
            parts_repaired,
            sadms_moved,
        } = warm.plan
        else {
            unreachable!("reconfigure instances yield reconfigure plans");
        };
        let warm_cost = outcome.report.sadm_total;

        let t = Instant::now();
        let cold = offline
            .solve(
                &Instance::ring(next.clone(), k),
                &mut SolveContext::seeded(200 + w as u64),
            )
            .expect("ring solves are total");
        let cold_ms = ms(t);
        let cold_cost = cold.plan.sadm_cost();

        println!(
            "  window {w}: m {:>8}  warm {warm_ms:>8.1} ms (cost {warm_cost}, \
             {parts_repaired} parts, {sadms_moved} SADMs moved)  \
             cold {cold_ms:>8.1} ms (cost {cold_cost})  speedup {:>6.1}x",
            next.len(),
            cold_ms / warm_ms.max(1e-9),
        );

        // Never worse than the prior plan plus the trivial delta cost.
        assert!(
            warm_cost <= prior_cost + 2 * delta.added.len(),
            "window {w}: warm cost {warm_cost} exceeds prior {prior_cost} + delta bound"
        );
        assert!(
            warm_ms <= cold_ms,
            "window {w}: warm solve ({warm_ms:.1} ms) slower than cold ({cold_ms:.1} ms)"
        );

        total_warm += warm_ms;
        total_cold += cold_ms;
        rows.push(Json::Obj(fields![
            "window" => w, "m" => next.len(), "warm_ms" => fixed(warm_ms, 1),
            "cold_ms" => fixed(cold_ms, 1), "warm_cost" => warm_cost, "cold_cost" => cold_cost,
            "parts_repaired" => parts_repaired, "sadms_moved" => sadms_moved,
        ]));
        demands = next;
        prior = outcome.partition;
        prior_cost = warm_cost;
    }

    let speedup = total_cold / f64::max(total_warm, 1e-9);
    println!(
        "  total: warm {total_warm:.1} ms, cold {total_cold:.1} ms, \
         speedup {speedup:.1}x (floor {SPEEDUP_FLOOR:.0}x)"
    );
    let rss = h.rss();

    let mut doc = fields![
        "tier" => h.tier.name(),
        "n" => n,
        "k" => k,
        "base_m" => base_m,
        "delta_per_window" => delta_size,
        "base_cold_ms" => fixed(base_ms, 1),
        "empty_delta_identity" => true,
        "windows" => Json::Rows(rows),
        "total_warm_ms" => fixed(total_warm, 1),
        "total_cold_ms" => fixed(total_cold, 1),
        "speedup" => fixed(speedup, 1),
        "speedup_floor" => fixed(SPEEDUP_FLOOR, 1),
    ];
    doc.extend(rss.fields());
    h.write(doc);

    h.check(
        "warm-vs-cold speedup",
        speedup,
        Bound::AtLeast(SPEEDUP_FLOOR),
    );
    h.check_rss(&rss);
}
