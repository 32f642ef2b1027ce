//! Property-based tests for the grooming algorithms: on arbitrary random
//! instances, every algorithm must emit a valid partition whose cost sits
//! between the instance lower bound and the paper's theorem bounds.

use grooming::algorithm::Algorithm;
use grooming::bounds;
use grooming::exact;
use grooming::partition::EdgePartition;
use grooming::regular_euler::regular_euler_detailed;
use grooming::skeleton::is_skeleton_shaped;
use grooming::spant_euler::spant_euler_detailed;
use grooming_graph::generators;
use grooming_graph::graph::Graph;
use grooming_graph::spanning::TreeStrategy;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..=20, 0.0f64..=1.0, any::<u64>()).prop_map(|(n, frac, seed)| {
        let max_m = n * (n - 1) / 2;
        let m = ((max_m as f64) * frac).round() as usize;
        generators::gnm(n, m.min(max_m), &mut StdRng::seed_from_u64(seed))
    })
}

fn arb_k() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=8, Just(16usize), Just(64usize)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spant_euler_respects_theorem5(g in arb_graph(), k in arb_k(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for strategy in TreeStrategy::ALL {
            let run = spant_euler_detailed(&g, k, strategy, &mut rng);
            prop_assert!(run.partition.validate(&g, k).is_ok());
            prop_assert!(run.partition.uses_min_wavelengths(&g, k));
            let cost = run.partition.sadm_cost(&g);
            let ub = bounds::theorem5_upper_bound(
                g.num_edges(), k, run.components_g_minus_t);
            prop_assert!(cost <= ub, "{} > {} ({})", cost, ub, strategy);
            prop_assert!(cost >= bounds::lower_bound(&g, k));
            // The cover can never beat the Lemma 4 component count.
            prop_assert!(run.cover_size <= run.components_g_minus_t.max(1));
        }
    }

    #[test]
    fn baselines_emit_valid_partitions(g in arb_graph(), k in arb_k(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for algo in [Algorithm::Goldschmidt, Algorithm::Brauner, Algorithm::WangGuIcc06] {
            let p = algo.run(&g, k, &mut rng).unwrap();
            prop_assert!(p.validate(&g, k).is_ok(), "{}", algo);
            prop_assert!(p.sadm_cost(&g) >= bounds::lower_bound(&g, k), "{}", algo);
            prop_assert!(p.sadm_cost(&g) <= 2 * g.num_edges(), "{}", algo);
        }
        // Euler-based baselines always use minimum wavelengths.
        let p = Algorithm::Brauner.run(&g, k, &mut rng).unwrap();
        prop_assert!(p.uses_min_wavelengths(&g, k));
        let p = Algorithm::WangGuIcc06.run(&g, k, &mut rng).unwrap();
        prop_assert!(p.uses_min_wavelengths(&g, k));
    }

    #[test]
    fn regular_euler_respects_theorem10(
        n_half in 3usize..=16,
        r_pick in any::<u64>(),
        k in arb_k(),
    ) {
        let n = 2 * n_half;
        let mut rng = StdRng::seed_from_u64(r_pick);
        use rand::Rng as _;
        let r = rng.gen_range(1..n.min(12));
        let g = generators::random_regular(n, r, &mut rng);
        let run = regular_euler_detailed(&g, k).unwrap();
        prop_assert!(run.partition.validate(&g, k).is_ok());
        prop_assert!(run.partition.uses_min_wavelengths(&g, k));
        let cost = run.partition.sadm_cost(&g);
        let m = g.num_edges();
        if r % 2 == 1 {
            let ub = bounds::theorem10_upper_bound_odd(m, k, n, r);
            prop_assert!(cost <= ub, "odd r={}: {} > {}", r, cost, ub);
        } else if grooming_graph::traversal::is_connected(&g) {
            let ub = bounds::theorem10_upper_bound_even(m, k);
            prop_assert!(cost <= ub, "even r={}: {} > {}", r, cost, ub);
        }
        prop_assert!(cost >= bounds::lower_bound(&g, k));
    }

    #[test]
    fn exact_dominates_heuristics_on_tiny_instances(
        n in 4usize..=8,
        m_frac in 0.2f64..=0.9,
        k in 2usize..=4,
        seed in any::<u64>(),
    ) {
        let max_m = n * (n - 1) / 2;
        let m = (((max_m as f64) * m_frac).round() as usize).min(12);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnm(n, m, &mut rng);
        let (opt_p, opt) = exact::exact_minimum_partition(&g, k);
        prop_assert!(opt_p.validate(&g, k).is_ok());
        prop_assert!(opt >= bounds::lower_bound(&g, k));
        for algo in Algorithm::FIGURE4 {
            let p = algo.run(&g, k, &mut rng).unwrap();
            prop_assert!(p.sadm_cost(&g) >= opt, "{} beat the optimum", algo);
        }
    }

    #[test]
    fn spant_parts_within_one_skeleton_stay_shaped(
        g in arb_graph(),
        k in 1usize..=6,
        seed in any::<u64>(),
    ) {
        // Not every part is within one skeleton (seams exist), but parts
        // must never exceed k edges and their node count can never exceed
        // edges + 1 + (#seams) <= edges + cover size.
        let mut rng = StdRng::seed_from_u64(seed);
        let run = spant_euler_detailed(&g, k, TreeStrategy::Bfs, &mut rng);
        for part in run.partition.parts() {
            let sub = grooming_graph::view::EdgeSubset::from_edges(&g, part.iter().copied());
            prop_assert!(part.len() <= k);
            prop_assert!(
                sub.touched_node_count(&g) <= part.len() + run.cover_size.max(1)
            );
            // Single-component parts obey the strict Proposition 1 shape.
            if sub.edge_components(&g).len() == 1 {
                prop_assert!(is_skeleton_shaped(&g, part));
            }
        }
    }

    #[test]
    fn wavelength_count_identity(g in arb_graph(), k in arb_k(), seed in any::<u64>()) {
        // For min-wavelength algorithms: sum of part sizes = m and all but
        // the last part are exactly k (the Proposition 2 cutting shape).
        let mut rng = StdRng::seed_from_u64(seed);
        let p = Algorithm::SpanTEuler(TreeStrategy::RandomKruskal)
            .run(&g, k, &mut rng)
            .unwrap();
        prop_assert_eq!(p.num_edges(), g.num_edges());
        let w = p.num_wavelengths();
        prop_assert_eq!(w, EdgePartition::min_wavelengths(g.num_edges(), k));
        for part in p.parts().iter().take(w.saturating_sub(1)) {
            prop_assert_eq!(part.len(), k);
        }
    }
}
