//! Property tests for the improvement heuristics, the budget layer, and
//! the hardness gadget on randomized inputs.

use grooming::algorithm::Algorithm;
use grooming::bounds;
use grooming::budget::enforce_budget;
use grooming::hardness::regularize;
use grooming::improve::{anneal, clique_first, dense_first, merge_parts, refine};
use grooming::partition::EdgePartition;
use grooming::solve::{Instance, SolveContext, Solver};
use grooming::spant_euler::spant_euler;
use grooming_graph::generators;
use grooming_graph::graph::Graph;
use grooming_graph::ids::EdgeId;
use grooming_graph::spanning::TreeStrategy;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..=18, 0.1f64..=1.0, any::<u64>()).prop_map(|(n, frac, seed)| {
        let max_m = n * (n - 1) / 2;
        let m = (((max_m as f64) * frac).round() as usize).max(1);
        generators::gnm(n, m.min(max_m), &mut StdRng::seed_from_u64(seed))
    })
}

/// A random simple graph with all degrees even: start from `G(n,m)` and
/// repeatedly delete an edge incident to an odd-degree node.
fn arb_even_graph() -> impl Strategy<Value = Graph> {
    arb_graph().prop_map(|g| {
        let mut edges: Vec<(u32, u32)> = g.edge_list().iter().map(|&(u, v)| (u.0, v.0)).collect();
        loop {
            let mut deg = vec![0usize; g.num_nodes()];
            for &(u, v) in &edges {
                deg[u as usize] += 1;
                deg[v as usize] += 1;
            }
            // Prefer deleting an edge joining two odd nodes; fall back to
            // any edge touching an odd node.
            let odd = |x: u32| deg[x as usize] % 2 == 1;
            if let Some(i) = edges.iter().position(|&(u, v)| odd(u) && odd(v)) {
                edges.swap_remove(i);
            } else if let Some(i) = edges.iter().position(|&(u, v)| odd(u) || odd(v)) {
                edges.swap_remove(i);
            } else {
                break;
            }
        }
        Graph::from_edges(g.num_nodes(), &edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn improvement_stack_monotone_and_valid(g in arb_graph(), k in 2usize..=16, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = spant_euler(&g, k, TreeStrategy::Bfs, &mut rng);
        let refined = refine(&g, k, &base, 4);
        refined.validate(&g, k).unwrap();
        prop_assert!(refined.sadm_cost(&g) <= base.sadm_cost(&g));
        let annealed = anneal(&g, k, &refined, 500, &mut rng);
        annealed.validate(&g, k).unwrap();
        prop_assert!(annealed.sadm_cost(&g) <= refined.sadm_cost(&g));
        prop_assert!(annealed.sadm_cost(&g) >= bounds::lower_bound(&g, k));
    }

    #[test]
    fn packers_are_valid_and_bounded(g in arb_graph(), k in 3usize..=16, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for p in [clique_first(&g, k, &mut rng), dense_first(&g, k, &mut rng)] {
            p.validate(&g, k).unwrap();
            prop_assert!(p.sadm_cost(&g) >= bounds::lower_bound(&g, k));
            prop_assert!(p.sadm_cost(&g) <= 2 * g.num_edges());
        }
    }

    #[test]
    fn merge_is_cost_safe_and_locally_maximal(g in arb_graph(), k in 2usize..=12) {
        let singles = EdgePartition::new(g.edges().map(|e| vec![e]).collect());
        let merged = merge_parts(&g, k, &singles);
        merged.validate(&g, k).unwrap();
        prop_assert!(merged.sadm_cost(&g) <= singles.sadm_cost(&g));
        prop_assert!(merged.num_wavelengths() <= singles.num_wavelengths());
        // Greedy pairwise merging is only locally optimal: no two
        // remaining parts fit on one wavelength (it may still sit above
        // the global minimum ⌈m/k⌉; enforce_budget's rebalance pass covers
        // that gap).
        let parts = merged.parts();
        for a in 0..parts.len() {
            for b in (a + 1)..parts.len() {
                prop_assert!(parts[a].len() + parts[b].len() > k);
            }
        }
    }

    #[test]
    fn budget_enforcement_reaches_any_feasible_budget(
        g in arb_graph(),
        k in 2usize..=8,
        slack in 0usize..=4,
        seed in any::<u64>(),
    ) {
        let min_w = EdgePartition::min_wavelengths(g.num_edges(), k);
        let budget = min_w + slack;
        let sol = Algorithm::CliqueFirst
            .solve(&Instance::budgeted(g.clone(), k, budget), &mut SolveContext::seeded(seed))
            .unwrap();
        sol.plan.partition().unwrap().validate(&g, k).unwrap();
        prop_assert!(sol.plan.wavelengths() <= budget);
    }

    #[test]
    fn enforce_budget_from_singletons(g in arb_graph(), k in 2usize..=8) {
        let singles = EdgePartition::new(g.edges().map(|e| vec![e]).collect());
        let min_w = EdgePartition::min_wavelengths(g.num_edges(), k);
        let bounded = enforce_budget(&g, k, &singles, min_w);
        bounded.validate(&g, k).unwrap();
        prop_assert!(bounded.num_wavelengths() <= min_w);
    }

    #[test]
    fn regularization_gadget_on_random_even_graphs(g in arb_even_graph()) {
        prop_assume!(g.num_edges() > 0);
        let reg = regularize(&g);
        prop_assert!(reg.graph.is_simple());
        prop_assert!(reg.graph.is_regular(reg.delta));
        prop_assert_eq!(reg.delta, g.max_degree());
        // Edge accounting: 3 copies of G plus 3 edges per gadget triangle.
        prop_assert_eq!(
            reg.graph.num_edges(),
            3 * g.num_edges() + 3 * reg.gadget_triangles.len()
        );
        // Gadget triangles are edge-disjoint triangles.
        let mut used = std::collections::HashSet::new();
        for t in &reg.gadget_triangles {
            for (x, y) in [(t[0], t[1]), (t[1], t[2]), (t[0], t[2])] {
                prop_assert!(reg.graph.has_edge(x, y));
                let key = if x < y { (x, y) } else { (y, x) };
                prop_assert!(used.insert(key), "gadget triangles overlap");
            }
        }
    }

    #[test]
    fn online_groomer_is_always_valid_and_bounded(
        n in 3usize..=16,
        count in 1usize..=40,
        k in 1usize..=8,
        seed in any::<u64>(),
    ) {
        use grooming::online::OnlineGroomer;
        use grooming_sonet::demand::DemandPair;
        use grooming_graph::ids::NodeId;
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng as _;
        let mut groomer = OnlineGroomer::new(n, k);
        let mut edges = Vec::new();
        for _ in 0..count {
            let a = rng.gen_range(0..n as u32);
            let mut b = rng.gen_range(0..n as u32);
            while b == a { b = rng.gen_range(0..n as u32); }
            groomer.add(DemandPair::new(NodeId(a), NodeId(b)));
            edges.push((a.min(b), a.max(b)));
        }
        let assignment = groomer.assignment();
        prop_assert!(assignment.validate(Some(&groomer.demands())).is_ok());
        prop_assert_eq!(assignment.sadm_count(), groomer.sadm_count());
        let g = Graph::from_edges(n, &edges);
        prop_assert!(groomer.sadm_count() >= bounds::lower_bound(&g, k));
        prop_assert!(groomer.sadm_count() <= 2 * count);
        prop_assert!(groomer.num_wavelengths() >= count.div_ceil(k));
    }

    #[test]
    fn walecki_grooming_valid_for_all_odd_n_and_k(t in 1usize..=8, k in 1usize..=20) {
        let n = 2 * t + 1;
        let (g, p) = grooming::alltoall::walecki_grooming(n, k);
        prop_assert!(p.validate(&g, k).is_ok());
        prop_assert!(p.uses_min_wavelengths(&g, k));
        prop_assert!(p.sadm_cost(&g) >= bounds::lower_bound(&g, k));
        // Cycle-aligned wavelengths cost exactly n each.
        if k.is_multiple_of(n) {
            prop_assert_eq!(p.sadm_cost(&g), p.num_wavelengths() * n);
        }
    }

    #[test]
    fn partition_validator_catches_random_corruption(
        g in arb_graph(),
        k in 2usize..=8,
        seed in any::<u64>(),
    ) {
        // Failure injection: corrupt a valid partition and check the
        // validator notices (or the corruption was a no-op).
        prop_assume!(g.num_edges() >= 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let p = spant_euler(&g, k, TreeStrategy::Bfs, &mut rng);
        let mut parts: Vec<Vec<EdgeId>> = p.parts().to_vec();
        use rand::Rng as _;
        match rng.gen_range(0..3) {
            0 => {
                // Duplicate an edge.
                let a = rng.gen_range(0..parts.len());
                let e = parts[a][0];
                parts[a].push(e);
                let bad = EdgePartition::new(parts);
                prop_assert!(bad.validate(&g, k + 1).is_err());
            }
            1 => {
                // Drop an edge.
                let a = rng.gen_range(0..parts.len());
                parts[a].remove(0);
                let bad = EdgePartition::new(parts);
                prop_assert!(bad.validate(&g, k).is_err());
            }
            _ => {
                // Out-of-range edge id.
                let a = rng.gen_range(0..parts.len());
                parts[a][0] = EdgeId::new(g.num_edges() + 5);
                let bad = EdgePartition::new(parts);
                prop_assert!(bad.validate(&g, k).is_err());
            }
        }
    }
}
