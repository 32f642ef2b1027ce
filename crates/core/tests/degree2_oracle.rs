//! Differential tests against the closed-form optimum of traffic graphs of
//! maximum degree 2 (`grooming_oracle::degree2_optimum`): exact answers at
//! 10⁵ edges, far past what branch and bound reaches.
//!
//! On a single path or cycle the paper's guarantees pin the optimum:
//! SpanT_Euler's spanning tree leaves `c = 1` component, so Theorem 5's
//! `m + ⌈m/k⌉` is the optimum itself, and a cycle is 2-regular, so
//! Regular_Euler's even-`r` bound of Theorem 10 meets it too. On unions of
//! paths and cycles every algorithm is only held between the lower bound
//! and the optimum. `cargo test --test degree2_oracle -- --nocapture`
//! prints how often each algorithm reaches the optimum.

use grooming::algorithm::Algorithm;
use grooming::bounds::lower_bound;
use grooming_graph::generators;
use grooming_graph::graph::Graph;
use grooming_graph::ids::NodeId;
use grooming_graph::spanning::TreeStrategy;
use grooming_oracle::degree2_optimum;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The algorithms that scale to 10⁵ edges. CliqueFirst and DenseFirst (and
/// the portfolio that runs them) hand `merge_parts` up to m singleton
/// parts, whose W × W overlap matrix rules that size out.
const LINEAR: [Algorithm; 6] = [
    Algorithm::Goldschmidt,
    Algorithm::Brauner,
    Algorithm::WangGuIcc06,
    Algorithm::SpanTEuler(TreeStrategy::Bfs),
    Algorithm::SpanTEulerRefined(TreeStrategy::Bfs),
    Algorithm::RegularEuler,
];

const ALL: [Algorithm; 9] = [
    Algorithm::Goldschmidt,
    Algorithm::Brauner,
    Algorithm::WangGuIcc06,
    Algorithm::SpanTEuler(TreeStrategy::Bfs),
    Algorithm::SpanTEulerRefined(TreeStrategy::Bfs),
    Algorithm::RegularEuler,
    Algorithm::CliqueFirst,
    Algorithm::DenseFirst,
    Algorithm::Portfolio,
];

/// Runs `algo` and returns its validated cost, or `None` if the algorithm
/// does not apply to `g` (Regular_Euler on a non-regular graph).
fn cost(algo: Algorithm, g: &Graph, k: usize, seed: u64) -> Option<usize> {
    if !algo.applicable(g) {
        return None;
    }
    let p = algo
        .run(g, k, &mut StdRng::seed_from_u64(seed))
        .expect("applicable algorithms succeed");
    p.validate(g, k).expect("valid partition");
    Some(p.sadm_cost(g))
}

#[test]
fn single_long_components_meet_the_theorem_bounds() {
    const M: usize = 100_000;
    let mut hits = vec![(0usize, 0usize); LINEAR.len()];
    let mut misses = Vec::new();
    for (shape, g) in [
        ("path", generators::path(M + 1)),
        ("cycle", generators::cycle(M)),
    ] {
        for k in [3usize, 16, 48] {
            let opt = degree2_optimum(&g, k);
            assert_eq!(opt, M + M.div_ceil(k), "{shape} k {k}");
            for (i, &algo) in LINEAR.iter().enumerate() {
                let Some(c) = cost(algo, &g, k, 7) else {
                    continue;
                };
                assert!(
                    c >= opt,
                    "{} beat the optimum on {shape} k {k}",
                    algo.name()
                );
                hits[i].0 += usize::from(c == opt);
                hits[i].1 += 1;
                if c != opt {
                    misses.push(format!("{} {shape} k={k}: +{}", algo.name(), c - opt));
                }
                if algo == Algorithm::SpanTEuler(TreeStrategy::Bfs)
                    || (algo == Algorithm::RegularEuler && shape == "cycle")
                {
                    assert_eq!(c, opt, "{} on {shape} k {k}", algo.name());
                }
            }
        }
    }
    for (algo, (hit, runs)) in LINEAR.iter().zip(&hits) {
        println!(
            "10^5-edge components: {} optimal in {hit}/{runs}",
            algo.name()
        );
    }
    println!("10^5-edge components, above the optimum: {misses:?}");
}

/// A random disjoint union of paths and cycles (only cycles, a 2-regular
/// graph, if `cycles_only`) with about `target` edges on shuffled node ids:
/// half the components are short, so cycles that fit one wavelength occur,
/// and half long.
fn random_union(target: usize, cycles_only: bool, rng: &mut StdRng) -> Graph {
    let mut shapes = Vec::new();
    let (mut edges, mut nodes) = (0, 0);
    while edges < target {
        let cycle = cycles_only || rng.gen_bool(0.5);
        let cap = if rng.gen_bool(0.5) { 20 } else { 300 };
        let len = if cycle {
            rng.gen_range(3..=cap)
        } else {
            rng.gen_range(1..=cap)
        };
        shapes.push((cycle, len));
        edges += len;
        nodes += len + usize::from(!cycle);
    }
    let mut ids: Vec<usize> = (0..nodes).collect();
    ids.shuffle(rng);
    let mut g = Graph::new(nodes);
    let mut base = 0;
    for (cycle, len) in shapes {
        let span = len + usize::from(!cycle);
        for i in 0..len {
            let (u, v) = (ids[base + i], ids[base + (i + 1) % span]);
            g.add_edge(NodeId::new(u), NodeId::new(v));
        }
        base += span;
    }
    g
}

#[test]
fn unions_of_paths_and_cycles_sit_between_the_bound_and_the_optimum() {
    let mut hits = vec![(0usize, 0usize, 0f64); ALL.len()];
    for seed in 0..10u64 {
        let g = random_union(2_000, seed % 2 == 1, &mut StdRng::seed_from_u64(seed));
        for k in [3usize, 4, 7, 16] {
            let opt = degree2_optimum(&g, k);
            assert!(lower_bound(&g, k) <= opt, "seed {seed} k {k}");
            for (i, &algo) in ALL.iter().enumerate() {
                let Some(c) = cost(algo, &g, k, seed) else {
                    continue;
                };
                assert!(
                    c >= opt,
                    "{} beat the optimum: seed {seed} k {k}",
                    algo.name()
                );
                hits[i].0 += usize::from(c == opt);
                hits[i].1 += 1;
                hits[i].2 = hits[i].2.max(c as f64 / opt as f64);
            }
        }
    }
    for (algo, (hit, runs, worst)) in ALL.iter().zip(&hits) {
        assert!(*runs > 0, "{} never ran", algo.name());
        println!(
            "unions: {} optimal in {hit}/{runs}, worst cost/optimum {worst:.3}",
            algo.name()
        );
    }
}
