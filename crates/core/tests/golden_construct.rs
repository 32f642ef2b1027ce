//! Golden tests for the construction pipeline.
//!
//! Two layers of protection:
//!
//! 1. **Reference equality** — the live `spant_euler` / `regular_euler` /
//!    baseline implementations (CSR adjacency, bitset subsets, reusable
//!    workspaces) must produce partitions bit-identical to the frozen seed
//!    implementations in [`grooming::reference`], while consuming the RNG
//!    stream identically.
//! 2. **Checked-in digests** — partitions at pinned seeds hash to
//!    hard-coded values, so an accidental behavior change in *both* paths
//!    (live and reference edited "in sync") is still caught.

use grooming::partition::EdgePartition;
use grooming::{baselines, regular_euler, spant_euler};
use grooming_graph::generators;
use grooming_graph::graph::Graph;
use grooming_graph::spanning::TreeStrategy;
use grooming_oracle::reference;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// FNV-1a over the part structure: part sizes and edge ids, in order.
fn digest(p: &EdgePartition) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(p.parts().len() as u64);
    for part in p.parts() {
        mix(part.len() as u64);
        for &e in part {
            mix(e.index() as u64);
        }
    }
    h
}

fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    generators::gnm(n, m, &mut StdRng::seed_from_u64(seed))
}

/// Asserts live == reference on the same instance, with lockstep RNG
/// consumption (both sides must leave their RNG in the same state).
fn assert_spant_matches(g: &Graph, k: usize, strategy: TreeStrategy, seed: u64) -> u64 {
    let mut rng_live = StdRng::seed_from_u64(seed);
    let mut rng_ref = StdRng::seed_from_u64(seed);
    let live = spant_euler(g, k, strategy, &mut rng_live);
    let refp = reference::spant_euler(g, k, strategy, &mut rng_ref);
    assert_eq!(live, refp, "spant_euler diverged ({strategy}, k = {k})");
    assert_eq!(
        rng_live.next_u64(),
        rng_ref.next_u64(),
        "spant_euler RNG streams diverged ({strategy}, k = {k})"
    );
    live.validate(g, k).unwrap();
    digest(&live)
}

#[test]
fn spant_euler_matches_reference_across_sizes() {
    for (n, m, gseed) in [(20, 45, 11), (60, 200, 12), (100, 420, 13), (200, 900, 14)] {
        let g = gnm(n, m, gseed);
        for k in [2, 3, 7, 16] {
            assert_spant_matches(&g, k, TreeStrategy::Bfs, 100 + k as u64);
        }
    }
}

#[test]
fn spant_euler_matches_reference_for_all_strategies() {
    let g = gnm(60, 210, 21);
    for strategy in TreeStrategy::ALL {
        for k in [3, 8, 24] {
            assert_spant_matches(&g, k, strategy, 7 * k as u64 + 1);
        }
    }
}

#[test]
fn spant_euler_matches_reference_on_awkward_graphs() {
    // Disconnected, parallel edges, self-contained small components.
    let mut g = Graph::new(9);
    for (u, v) in [
        (0, 1),
        (0, 1),
        (1, 2),
        (2, 0),
        (4, 5),
        (5, 6),
        (6, 4),
        (4, 5),
    ] {
        g.add_edge(u.into(), v.into());
    }
    for strategy in TreeStrategy::ALL {
        for k in [1, 2, 4] {
            assert_spant_matches(&g, k, strategy, 3);
        }
    }
    // Empty graph.
    let empty = Graph::new(5);
    assert_spant_matches(&empty, 4, TreeStrategy::Bfs, 9);
}

#[test]
fn regular_euler_matches_reference() {
    for (n, r, gseed) in [(20, 4, 31), (30, 7, 32), (48, 8, 33), (40, 15, 34)] {
        let g = generators::random_regular(n, r, &mut StdRng::seed_from_u64(gseed));
        for k in [2, 5, 12] {
            let live = regular_euler(&g, k).unwrap();
            let refp = reference::regular_euler(&g, k).unwrap();
            assert_eq!(live, refp, "regular_euler diverged (r = {r}, k = {k})");
            live.validate(&g, k).unwrap();
        }
    }
}

#[test]
fn baselines_match_reference() {
    let g = gnm(60, 200, 41);
    for k in [2, 6, 16] {
        let seed = 55 + k as u64;
        let mut ra = StdRng::seed_from_u64(seed);
        let mut rb = StdRng::seed_from_u64(seed);
        let live = baselines::goldschmidt(&g, k, &mut ra);
        let refp = reference::goldschmidt(&g, k, &mut rb);
        assert_eq!(live, refp, "goldschmidt diverged (k = {k})");
        assert_eq!(ra.next_u64(), rb.next_u64(), "goldschmidt RNG diverged");

        assert_eq!(
            baselines::brauner(&g, k),
            reference::brauner(&g, k),
            "brauner diverged (k = {k})"
        );

        let mut ra = StdRng::seed_from_u64(seed);
        let mut rb = StdRng::seed_from_u64(seed);
        let live = baselines::wang_gu_icc06(&g, k, &mut ra);
        let refp = reference::wang_gu_icc06(&g, k, &mut rb);
        assert_eq!(live, refp, "wang_gu_icc06 diverged (k = {k})");
        assert_eq!(ra.next_u64(), rb.next_u64(), "wang_gu_icc06 RNG diverged");
    }
}

/// Pinned digests: regenerate ONLY for an intentional, documented behavior
/// change (see DESIGN.md §10). A mismatch here with `*_matches_reference`
/// still green means live and reference changed together.
#[test]
fn pinned_partition_digests() {
    let cases: &[(usize, usize, u64, usize, TreeStrategy, u64, u64)] = &[
        (20, 45, 11, 3, TreeStrategy::Bfs, 103, 0x975d_4e10_4f0e_c8e9),
        (
            60,
            200,
            12,
            7,
            TreeStrategy::Dfs,
            107,
            0xb5d3_3bf5_8c9f_d5d8,
        ),
        (
            100,
            420,
            13,
            16,
            TreeStrategy::RandomKruskal,
            116,
            0xb3c0_a896_4a93_c6e2,
        ),
        (
            200,
            900,
            14,
            8,
            TreeStrategy::LowDegree,
            108,
            0x42ec_e390_bce8_009c,
        ),
    ];
    for &(n, m, gseed, k, strategy, seed, want) in cases {
        let g = gnm(n, m, gseed);
        let got = digest(&spant_euler(
            &g,
            k,
            strategy,
            &mut StdRng::seed_from_u64(seed),
        ));
        assert_eq!(
            got, want,
            "spant_euler digest changed (n = {n}, k = {k}, {strategy}): got {got:#018x}"
        );
    }

    let reg = generators::random_regular(30, 7, &mut StdRng::seed_from_u64(32));
    let got = digest(&regular_euler(&reg, 5).unwrap());
    assert_eq!(
        got, 0x669d_aef3_55d6_6a7b,
        "regular_euler digest changed: got {got:#018x}"
    );
}
