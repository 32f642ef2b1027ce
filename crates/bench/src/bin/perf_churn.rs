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

use std::fmt::Write as _;
use std::time::Instant;

use grooming::algorithm::Algorithm;
use grooming::partition::EdgePartition;
use grooming::solve::{DemandDelta, Instance, Plan, SolveContext, Solver};
use grooming_bench::{ms, peak_rss_mb};
use grooming_graph::ids::NodeId;
use grooming_graph::spanning::TreeStrategy;
use grooming_sonet::demand::{DemandPair, DemandSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Acceptance floor on total cold time / total warm time.
const SPEEDUP_FLOOR: f64 = 5.0;

/// Peak-RSS ceilings per tier, matching the scale tier's documented
/// footprint (the warm path adds no superlinear state).
const FAST_RSS_CEILING_MB: f64 = 256.0;
const FULL_RSS_CEILING_MB: f64 = 1024.0;

#[derive(Clone, Copy, PartialEq)]
enum Tier {
    Fast,
    Full,
}

impl Tier {
    fn n(self) -> usize {
        match self {
            Tier::Fast => 10_000,
            Tier::Full => 100_000,
        }
    }

    fn windows(self) -> usize {
        match self {
            Tier::Fast => 4,
            Tier::Full => 8,
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
        out: "results/BENCH_churn.json".to_string(),
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
                eprintln!("usage: perf_churn [--fast] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn random_pair(n: usize, rng: &mut StdRng) -> DemandPair {
    let a = rng.gen_range(0..n as u32);
    let mut b = rng.gen_range(0..n as u32);
    while b == a {
        b = rng.gen_range(0..n as u32);
    }
    DemandPair::new(NodeId(a), NodeId(b))
}

fn demand_set(n: usize, pairs: &[DemandPair]) -> DemandSet {
    let mut s = DemandSet::new(n);
    for p in pairs {
        s.add(p.lo(), p.hi());
    }
    s
}

/// Applies a delta to the pair list exactly the way `solve_reconfigure`
/// numbers the post-delta snapshot: removals consume the earliest
/// surviving occurrence, survivors keep relative order, additions append.
fn apply_delta(pairs: &[DemandPair], delta: &DemandDelta) -> Vec<DemandPair> {
    use std::collections::HashMap;
    let mut to_remove: HashMap<DemandPair, usize> = HashMap::new();
    for &p in &delta.removed {
        *to_remove.entry(p).or_insert(0) += 1;
    }
    let mut next = Vec::with_capacity(pairs.len() + delta.added.len());
    for &p in pairs {
        match to_remove.get_mut(&p) {
            Some(cnt) if *cnt > 0 => *cnt -= 1,
            _ => next.push(p),
        }
    }
    next.extend_from_slice(&delta.added);
    next
}

struct Window {
    index: usize,
    m: usize,
    warm_ms: f64,
    cold_ms: f64,
    warm_cost: usize,
    cold_cost: usize,
    parts_repaired: u64,
    sadms_moved: u64,
}

fn main() {
    let opts = parse_opts();
    let tier = opts.tier;
    let n = tier.n();
    let k = 16usize;
    let base_m = 3 * n;
    let delta_size = (n / 1000).max(4);
    let offline = Algorithm::SpanTEulerRefined(TreeStrategy::Bfs);

    println!(
        "perf_churn: tier {} (n = {n}, k = {k}, base m = {base_m}, \
         delta = -{delta_size}/+{delta_size} per window)",
        tier.name()
    );

    let mut rng = StdRng::seed_from_u64(0xc4u64);
    let mut pairs: Vec<DemandPair> = (0..base_m).map(|_| random_pair(n, &mut rng)).collect();

    // Cold base: the full offline groom the warm chain resumes from.
    let t = Instant::now();
    let sol = offline
        .solve(
            &Instance::ring(demand_set(n, &pairs), k),
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
            &Instance::reconfigure(
                demand_set(n, &pairs),
                prior.clone(),
                DemandDelta::default(),
                k,
            ),
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

    let mut windows: Vec<Window> = Vec::new();
    for w in 1..=tier.windows() {
        let removed: Vec<DemandPair> = (0..delta_size)
            .map(|_| pairs[rng.gen_range(0..pairs.len())])
            .collect();
        let added: Vec<DemandPair> = (0..delta_size).map(|_| random_pair(n, &mut rng)).collect();
        let delta = DemandDelta::new(added, removed);
        let next_pairs = apply_delta(&pairs, &delta);

        let t = Instant::now();
        let warm = offline
            .solve(
                &Instance::reconfigure(demand_set(n, &pairs), prior.clone(), delta.clone(), k),
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
                &Instance::ring(demand_set(n, &next_pairs), k),
                &mut SolveContext::seeded(200 + w as u64),
            )
            .expect("ring solves are total");
        let cold_ms = ms(t);
        let cold_cost = cold.plan.sadm_cost();

        println!(
            "  window {w}: m {:>8}  warm {warm_ms:>8.1} ms (cost {warm_cost}, \
             {parts_repaired} parts, {sadms_moved} SADMs moved)  \
             cold {cold_ms:>8.1} ms (cost {cold_cost})  speedup {:>6.1}x",
            next_pairs.len(),
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

        windows.push(Window {
            index: w,
            m: next_pairs.len(),
            warm_ms,
            cold_ms,
            warm_cost,
            cold_cost,
            parts_repaired,
            sadms_moved,
        });
        pairs = next_pairs;
        prior = outcome.partition;
        prior_cost = warm_cost;
    }

    let total_warm: f64 = windows.iter().map(|w| w.warm_ms).sum();
    let total_cold: f64 = windows.iter().map(|w| w.cold_ms).sum();
    let speedup = total_cold / total_warm.max(1e-9);
    let peak_mb = peak_rss_mb();
    let ceiling = tier.rss_ceiling_mb();
    println!(
        "  total: warm {total_warm:.1} ms, cold {total_cold:.1} ms, \
         speedup {speedup:.1}x (floor {SPEEDUP_FLOOR:.0}x), peak RSS {peak_mb:.1} MiB"
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"perf_churn\",\n  \"tier\": \"{}\",\n  \"n\": {n},\n  \
         \"k\": {k},\n  \"base_m\": {base_m},\n  \"delta_per_window\": {delta_size},\n  \
         \"base_cold_ms\": {base_ms:.1},\n  \"empty_delta_identity\": true,\n  \
         \"windows\": [\n",
        tier.name()
    );
    for (i, w) in windows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"window\": {}, \"m\": {}, \"warm_ms\": {:.1}, \"cold_ms\": {:.1}, \
             \"warm_cost\": {}, \"cold_cost\": {}, \"parts_repaired\": {}, \
             \"sadms_moved\": {}}}{}",
            w.index,
            w.m,
            w.warm_ms,
            w.cold_ms,
            w.warm_cost,
            w.cold_cost,
            w.parts_repaired,
            w.sadms_moved,
            if i + 1 < windows.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"total_warm_ms\": {total_warm:.1},\n  \"total_cold_ms\": {total_cold:.1},\n  \
         \"speedup\": {speedup:.1},\n  \"speedup_floor\": {SPEEDUP_FLOOR:.1},\n  \
         \"peak_rss_mb\": {peak_mb:.1},\n  \"rss_ceiling_mb\": {ceiling:.0}\n}}\n"
    );
    std::fs::write(&opts.out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", opts.out);
        std::process::exit(1);
    });
    println!("baseline written to {}", opts.out);

    assert!(
        speedup >= SPEEDUP_FLOOR,
        "warm-vs-cold speedup {speedup:.1}x fell below the {SPEEDUP_FLOOR:.0}x floor"
    );
    assert!(
        peak_mb < ceiling,
        "peak RSS {peak_mb:.1} MiB breached the {} tier's ceiling of {ceiling:.0} MiB",
        tier.name()
    );
}
