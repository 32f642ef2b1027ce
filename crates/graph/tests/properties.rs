//! Property-based tests for the graph substrate.
//!
//! Random instances are drawn through the crate's own generators seeded by
//! proptest-provided seeds, so shrinking narrows down to a reproducible
//! `(n, m, seed)` triple.

use grooming_graph::coloring::{largest_color_class, misra_gries, verify_proper};
use grooming_graph::euler::{component_euler_walks, odd_degree_nodes};
use grooming_graph::generators;
use grooming_graph::graph::Graph;
use grooming_graph::matching::{greedy_maximal, maximum_matching};
use grooming_graph::spanning::{is_valid_spanning_forest, spanning_forest, TreeStrategy};
use grooming_graph::tree::{decompose_into_paths, odd_parity_tree_edges};
use grooming_graph::view::EdgeSubset;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random `G(n, m)` with 2..=24 nodes and feasible edge count.
fn arb_gnm() -> impl Strategy<Value = Graph> {
    (2usize..=24, 0.0f64..=1.0, any::<u64>()).prop_map(|(n, frac, seed)| {
        let max_m = n * (n - 1) / 2;
        let m = ((max_m as f64) * frac).round() as usize;
        generators::gnm(n, m.min(max_m), &mut StdRng::seed_from_u64(seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gnm_is_simple_with_exact_count(g in arb_gnm()) {
        prop_assert!(g.is_simple());
        // Handshake lemma.
        let degsum: usize = g.degrees().iter().sum();
        prop_assert_eq!(degsum, 2 * g.num_edges());
    }

    #[test]
    fn spanning_forests_valid_for_all_strategies(g in arb_gnm(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for s in TreeStrategy::ALL {
            let f = spanning_forest(&g, s, &mut rng);
            prop_assert!(is_valid_spanning_forest(&g, &f), "strategy {}", s);
        }
    }

    #[test]
    fn lemma4_core_parity_makes_g2_even(g in arb_gnm(), seed in any::<u64>()) {
        // The heart of SpanT_Euler: mark odd-degree nodes of G\T, compute
        // E_odd via subtree parity; then G'' = E_odd ∪ (E\T) must have all
        // degrees even (Lemma 4's induction engine).
        let mut rng = StdRng::seed_from_u64(seed);
        let forest = spanning_forest(&g, TreeStrategy::RandomKruskal, &mut rng);
        let tree_set = EdgeSubset::from_edges(&g, forest.edges.iter().copied());
        let non_tree = tree_set.complement(&g);
        let marked_nodes = odd_degree_nodes(&g, &non_tree);
        let mut marked = vec![false; g.num_nodes()];
        for v in marked_nodes {
            marked[v.index()] = true;
        }
        let e_odd = odd_parity_tree_edges(&g, &forest, &marked);
        let g2 = EdgeSubset::from_edges(
            &g,
            e_odd.into_iter().chain(non_tree.edges().iter().copied()),
        );
        let odd_in_g2 = odd_degree_nodes(&g, &g2);
        prop_assert!(odd_in_g2.is_empty(), "G'' has odd nodes: {:?}", odd_in_g2);
        // And therefore every component of G'' carries an Euler circuit.
        let walks = component_euler_walks(&g, &g2).unwrap();
        let total: usize = walks.iter().map(|w| w.len()).sum();
        prop_assert_eq!(total, g2.len());
        for w in &walks {
            prop_assert!(w.validate(&g).is_ok());
            prop_assert!(w.is_closed() || w.is_empty());
        }
    }

    #[test]
    fn matchings_are_valid_and_ordered(g in arb_gnm()) {
        let greedy = greedy_maximal(&g);
        let max = maximum_matching(&g);
        prop_assert!(greedy.validate(&g).is_ok());
        prop_assert!(max.validate(&g).is_ok());
        prop_assert!(greedy.is_maximal(&g));
        prop_assert!(max.is_maximal(&g));
        prop_assert!(max.len() >= greedy.len());
        // Maximal matchings are at least half of maximum.
        prop_assert!(2 * greedy.len() >= max.len());
    }

    #[test]
    fn coloring_proper_within_vizing(g in arb_gnm()) {
        let col = misra_gries(&g);
        prop_assert!(verify_proper(&g, &col));
        prop_assert!(col.num_colors <= g.max_degree() + 1);
        if g.num_edges() > 0 {
            prop_assert!(col.num_colors >= g.max_degree());
            // Largest class is a matching of >= m / (Δ+1) edges.
            let class = largest_color_class(&col);
            prop_assert!(class.len() * (g.max_degree() + 1) >= g.num_edges());
        }
    }

    #[test]
    fn tree_path_decomposition_partitions_tree(g in arb_gnm(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = spanning_forest(&g, TreeStrategy::Bfs, &mut rng);
        let paths = decompose_into_paths(&g, &f);
        let mut covered = vec![false; g.num_edges()];
        for p in &paths {
            prop_assert!(p.validate(&g).is_ok());
            prop_assert!(!p.is_empty());
            for &e in p.edges() {
                prop_assert!(!covered[e.index()], "edge covered twice");
                covered[e.index()] = true;
            }
        }
        let covered_count = covered.iter().filter(|&&c| c).count();
        prop_assert_eq!(covered_count, f.edges.len());
    }

    #[test]
    fn regular_generator_is_regular_and_simple(
        n_half in 2usize..=14,
        r_seed in any::<u64>(),
    ) {
        let n = n_half * 2; // even n admits every r < n
        let mut rng = StdRng::seed_from_u64(r_seed);
        use rand::Rng as _;
        let r = rng.gen_range(1..n);
        let g = generators::random_regular(n, r, &mut rng);
        prop_assert!(g.is_regular(r), "n={} r={}", n, r);
        prop_assert!(g.is_simple());
    }

    #[test]
    fn euler_walks_cover_even_multigraphs(g in arb_gnm()) {
        // Double every edge: all degrees even; component walks must be
        // closed and cover everything.
        let mut doubled = Graph::new(g.num_nodes());
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            doubled.add_edge(u, v);
            doubled.add_edge(u, v);
        }
        let s = EdgeSubset::full(&doubled);
        let walks = component_euler_walks(&doubled, &s).unwrap();
        let total: usize = walks.iter().map(|w| w.len()).sum();
        prop_assert_eq!(total, doubled.num_edges());
    }
}
