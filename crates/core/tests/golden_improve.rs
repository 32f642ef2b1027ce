//! Golden equivalence + property tests for the incremental improve engine.
//!
//! The incremental implementations in `grooming::improve` promise *bit
//! identity* with the seed implementations preserved in
//! `grooming::improve::reference`: identical output partitions (same parts,
//! same edge order inside each part) and identical RNG consumption. These
//! tests pin that promise at fixed seeds across a spread of instance sizes
//! (up to `n = 100`), and add property checks (cost never increases,
//! validity, determinism) on the incremental versions alone.

use grooming::improve::{self, reference};
use grooming::partition::EdgePartition;
use grooming::spant_euler::spant_euler;
use grooming_graph::generators;
use grooming_graph::ids::EdgeId;
use grooming_graph::spanning::TreeStrategy;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Instance spread for the golden tests: (n, m, k).
const CASES: &[(usize, usize, usize)] = &[
    (10, 20, 3),
    (16, 40, 4),
    (24, 80, 8),
    (40, 150, 8),
    (60, 240, 16),
    (100, 600, 16),
];

#[test]
fn refine_matches_reference_bit_for_bit() {
    for &(n, m, k) in CASES {
        for seed in 0..3u64 {
            let g = generators::gnm(n, m, &mut rng(seed));
            let base = spant_euler(&g, k, TreeStrategy::Bfs, &mut rng(seed ^ 0xabc));
            let fast = improve::refine(&g, k, &base, 8);
            let slow = reference::refine(&g, k, &base, 8);
            assert_eq!(
                fast.parts(),
                slow.parts(),
                "refine diverged on n={n} m={m} k={k} seed={seed}"
            );
        }
    }
    // Hub-heavy Chung–Lu inputs: the shape where the sweep's shared-leaf
    // and clean-pair filters skip the most pairs.
    for n in [120usize, 240] {
        for k in [4usize, 16] {
            for seed in 0..2u64 {
                let g = generators::power_law(n, 2.5, 6.0, &mut rng(seed));
                let base = spant_euler(&g, k, TreeStrategy::Bfs, &mut rng(seed ^ 0xabc));
                let fast = improve::refine(&g, k, &base, 8);
                let slow = reference::refine(&g, k, &base, 8);
                assert_eq!(
                    fast.parts(),
                    slow.parts(),
                    "refine diverged on power_law n={n} k={k} seed={seed}"
                );
            }
        }
    }
}

#[test]
fn merge_parts_matches_reference_bit_for_bit() {
    for &(n, m, k) in CASES {
        for seed in 0..3u64 {
            let g = generators::gnm(n, m, &mut rng(seed));
            // From a SpanT partition (the production path)...
            let base = spant_euler(&g, k, TreeStrategy::Bfs, &mut rng(seed ^ 0xdef));
            let fast = improve::merge_parts(&g, k, &base);
            let slow = reference::merge_parts(&g, k, &base);
            assert_eq!(
                fast.parts(),
                slow.parts(),
                "merge_parts diverged on n={n} m={m} k={k} seed={seed}"
            );
        }
    }
    // ... and from all-singletons (maximum merge pressure; reference is
    // O(rounds·W²·n) here, so keep the instance modest).
    for seed in 0..3u64 {
        let g = generators::gnm(20, 60, &mut rng(seed));
        let singles = EdgePartition::new(g.edges().map(|e| vec![e]).collect());
        for k in [2usize, 5, 9] {
            let fast = improve::merge_parts(&g, k, &singles);
            let slow = reference::merge_parts(&g, k, &singles);
            assert_eq!(fast.parts(), slow.parts(), "singleton merge diverged");
        }
    }
    // ... and from random partitions into small parts (1–3 edges): many
    // rows share a best partner, so cached partners go stale often, and
    // parts near k make columns flip between fitting and not.
    for seed in 0..3u64 {
        let g = generators::gnm(40, 160, &mut rng(seed));
        for k in [3usize, 4, 7, 16] {
            let mut r = rng(seed ^ (k as u64) << 8);
            let mut edges: Vec<EdgeId> = g.edges().collect();
            edges.shuffle(&mut r);
            let mut parts = Vec::new();
            let mut rest = &edges[..];
            while !rest.is_empty() {
                let take = r.gen_range(1..=3usize.min(k)).min(rest.len());
                parts.push(rest[..take].to_vec());
                rest = &rest[take..];
            }
            let random = EdgePartition::new(parts);
            let fast = improve::merge_parts(&g, k, &random);
            let slow = reference::merge_parts(&g, k, &random);
            assert_eq!(
                fast.parts(),
                slow.parts(),
                "random-partition merge diverged on seed={seed} k={k}"
            );
        }
    }
}

#[test]
fn anneal_matches_reference_and_rng_stream() {
    for &(n, m, k) in CASES {
        for seed in 0..2u64 {
            let g = generators::gnm(n, m, &mut rng(seed));
            let base = spant_euler(&g, k, TreeStrategy::Bfs, &mut rng(seed ^ 0x123));
            let mut r_fast = rng(seed + 1000);
            let mut r_slow = rng(seed + 1000);
            let fast = improve::anneal(&g, k, &base, 4000, &mut r_fast);
            let slow = reference::anneal(&g, k, &base, 4000, &mut r_slow);
            assert_eq!(
                fast.parts(),
                slow.parts(),
                "anneal diverged on n={n} m={m} k={k} seed={seed}"
            );
            // Identical RNG consumption: the streams must be in lockstep
            // after the run, not just the outputs equal.
            assert_eq!(
                r_fast.next_u64(),
                r_slow.next_u64(),
                "anneal consumed a different amount of randomness"
            );
        }
    }
}

#[test]
fn clique_first_matches_reference_and_rng_stream() {
    for &(n, m, k) in CASES {
        let g = generators::gnm(n, m, &mut rng(7));
        let mut r_fast = rng(42);
        let mut r_slow = rng(42);
        let fast = improve::clique_first(&g, k, &mut r_fast);
        let slow = reference::clique_first(&g, k, &mut r_slow);
        assert_eq!(
            fast.parts(),
            slow.parts(),
            "clique_first diverged on n={n} m={m} k={k}"
        );
        assert_eq!(r_fast.next_u64(), r_slow.next_u64());
    }
    // Triangle-free + tiny-k fallbacks.
    let g = generators::grid(5, 5);
    for k in [2usize, 3, 7] {
        let mut r_fast = rng(5);
        let mut r_slow = rng(5);
        let fast = improve::clique_first(&g, k, &mut r_fast);
        let slow = reference::clique_first(&g, k, &mut r_slow);
        assert_eq!(fast.parts(), slow.parts());
        assert_eq!(r_fast.next_u64(), r_slow.next_u64());
    }
}

#[test]
fn dense_first_matches_reference_and_rng_stream() {
    for &(n, m, k) in CASES {
        let g = generators::gnm(n, m, &mut rng(11));
        let mut r_fast = rng(43);
        let mut r_slow = rng(43);
        let fast = improve::dense_first(&g, k, &mut r_fast);
        let slow = reference::dense_first(&g, k, &mut r_slow);
        assert_eq!(
            fast.parts(),
            slow.parts(),
            "dense_first diverged on n={n} m={m} k={k}"
        );
        assert_eq!(r_fast.next_u64(), r_slow.next_u64());
    }
    // Complete graphs stress the residual peeling (one capped clique per
    // round out of a single giant clique).
    for nn in [8usize, 12] {
        let g = generators::complete(nn);
        for k in [6usize, 10, 16] {
            let mut r_fast = rng(9);
            let mut r_slow = rng(9);
            let fast = improve::dense_first(&g, k, &mut r_fast);
            let slow = reference::dense_first(&g, k, &mut r_slow);
            assert_eq!(fast.parts(), slow.parts());
            assert_eq!(r_fast.next_u64(), r_slow.next_u64());
        }
    }
    // mesh-metro's traffic graphs (100 nodes, up to 1152 demands at
    // k = 16) and a hub-heavy Chung–Lu graph: long peeling runs in which
    // each search's bound is carried over from the peel before.
    let shapes = [
        ("gnm(100, 768)", generators::gnm(100, 768, &mut rng(12))),
        ("gnm(100, 1152)", generators::gnm(100, 1152, &mut rng(12))),
        (
            "power_law(240)",
            generators::power_law(240, 2.5, 6.0, &mut rng(13)),
        ),
    ];
    for (name, g) in &shapes {
        let mut r_fast = rng(44);
        let mut r_slow = rng(44);
        let fast = improve::dense_first(g, 16, &mut r_fast);
        let slow = reference::dense_first(g, 16, &mut r_slow);
        assert_eq!(fast.parts(), slow.parts(), "dense_first diverged on {name}");
        assert_eq!(r_fast.next_u64(), r_slow.next_u64());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random instances up to n = 100: refine never increases cost, stays
    /// valid, and is deterministic.
    #[test]
    fn refine_monotone_valid_deterministic(
        n in 4usize..=100,
        frac in 0.05f64..=0.5,
        k in 2usize..=16,
        seed in any::<u64>(),
    ) {
        let max_m = n * (n - 1) / 2;
        let m = (((max_m as f64) * frac).round() as usize).clamp(1, 600.min(max_m));
        let g = generators::gnm(n, m, &mut rng(seed));
        let base = spant_euler(&g, k, TreeStrategy::Bfs, &mut rng(seed ^ 1));
        let refined = improve::refine(&g, k, &base, 6);
        refined.validate(&g, k).unwrap();
        prop_assert!(refined.sadm_cost(&g) <= base.sadm_cost(&g));
        prop_assert!(refined.num_wavelengths() <= base.num_wavelengths());
        let again = improve::refine(&g, k, &base, 6);
        prop_assert_eq!(refined.parts(), again.parts(), "refine must be deterministic");
    }

    /// Merging never increases cost, never increases wavelengths, stays
    /// valid, and is deterministic.
    #[test]
    fn merge_monotone_valid_deterministic(
        n in 4usize..=100,
        frac in 0.05f64..=0.5,
        k in 2usize..=16,
        seed in any::<u64>(),
    ) {
        let max_m = n * (n - 1) / 2;
        let m = (((max_m as f64) * frac).round() as usize).clamp(1, 600.min(max_m));
        let g = generators::gnm(n, m, &mut rng(seed));
        let base = spant_euler(&g, k, TreeStrategy::Bfs, &mut rng(seed ^ 2));
        let merged = improve::merge_parts(&g, k, &base);
        merged.validate(&g, k).unwrap();
        prop_assert!(merged.sadm_cost(&g) <= base.sadm_cost(&g));
        prop_assert!(merged.num_wavelengths() <= base.num_wavelengths());
        let again = improve::merge_parts(&g, k, &base);
        prop_assert_eq!(merged.parts(), again.parts(), "merge must be deterministic");
    }

    /// Annealing never returns worse than its input, stays valid, and is
    /// deterministic given the same RNG seed.
    #[test]
    fn anneal_monotone_valid_deterministic(
        n in 4usize..=100,
        frac in 0.05f64..=0.5,
        k in 2usize..=16,
        seed in any::<u64>(),
    ) {
        let max_m = n * (n - 1) / 2;
        let m = (((max_m as f64) * frac).round() as usize).clamp(1, 600.min(max_m));
        let g = generators::gnm(n, m, &mut rng(seed));
        let base = spant_euler(&g, k, TreeStrategy::Bfs, &mut rng(seed ^ 3));
        let annealed = improve::anneal(&g, k, &base, 1500, &mut rng(seed ^ 4));
        annealed.validate(&g, k).unwrap();
        prop_assert!(annealed.sadm_cost(&g) <= base.sadm_cost(&g));
        let again = improve::anneal(&g, k, &base, 1500, &mut rng(seed ^ 4));
        prop_assert_eq!(annealed.parts(), again.parts(), "anneal must be deterministic");
    }
}
