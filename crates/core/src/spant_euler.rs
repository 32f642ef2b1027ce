//! Algorithm **SpanT_Euler** (paper §3): the linear-time grooming heuristic
//! for arbitrary traffic graphs.
//!
//! The algorithm hybridizes the spanning-tree skeleton-cover approach of
//! Wang & Gu (ICC'06) with the Euler-path approach of Brauner et al.:
//!
//! 1. compute a spanning tree (forest) `T` of `G`;
//! 2. let `V_odd` be the odd-degree nodes of `G\T`;
//! 3. pair them and let `E_odd ⊆ E(T)` be the tree edges lying on an odd
//!    number of pairing paths — pairing-independent, computed by a single
//!    bottom-up subtree parity sweep
//!    ([`grooming_graph::tree::odd_parity_tree_edges`]);
//! 4. `G'' = E_odd ∪ (E(G)\E(T))` has all degrees even (Lemma 4), so each
//!    of its components carries an Euler circuit; these circuits span all
//!    non-isolated structure and become skeleton backbones;
//! 5. the remaining tree edges `E(T)\E_odd` attach as branches → a skeleton
//!    cover of size at most `c` = #components of `G\T`;
//! 6. Proposition 2 turns the cover into a `k`-edge partition with the
//!    minimum `⌈m/k⌉` wavelengths and cost ≤ `m + ⌈m/k⌉ + (c−1)`
//!    (Theorem 5).
//!
//! Every step is O(|V| + |E|), so the whole algorithm is linear time.

use grooming_graph::euler::component_euler_walks_in;
use grooming_graph::graph::Graph;
use grooming_graph::spanning::{spanning_forest_in, TreeStrategy};
use grooming_graph::tree::odd_parity_tree_edges_from_counts;
use grooming_graph::view::EdgeSubset;
use grooming_graph::workspace::Workspace;
use rand::Rng;

use crate::partition::EdgePartition;
use crate::skeleton::SkeletonCover;

/// Diagnostics from a `SpanT_Euler` run, for bound checks and ablations.
#[derive(Clone, Debug)]
pub struct SpanTEulerRun {
    /// The resulting `k`-edge partition.
    pub partition: EdgePartition,
    /// Size `j` of the skeleton cover actually built.
    pub cover_size: usize,
    /// `c` — number of connected components of `G\T` over the full node
    /// set (the quantity in Lemma 4 / Theorem 5).
    pub components_g_minus_t: usize,
    /// Number of Euler-circuit backbones (components of `G''` with edges).
    pub euler_components: usize,
    /// The spanning-tree strategy used.
    pub strategy: TreeStrategy,
}

/// Runs `SpanT_Euler` and returns just the partition.
///
/// ```
/// use grooming::spant_euler::spant_euler;
/// use grooming_graph::{generators, spanning::TreeStrategy};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let g = generators::gnm(36, 216, &mut rng); // the paper's d = 0.5 instance
/// let p = spant_euler(&g, 16, TreeStrategy::Bfs, &mut rng);
/// assert!(p.validate(&g, 16).is_ok());
/// assert!(p.uses_min_wavelengths(&g, 16)); // W = ⌈216/16⌉ = 14
/// ```
pub fn spant_euler<R: Rng>(
    g: &Graph,
    k: usize,
    strategy: TreeStrategy,
    rng: &mut R,
) -> EdgePartition {
    spant_euler_detailed(g, k, strategy, rng).partition
}

/// Runs `SpanT_Euler` with diagnostics.
///
/// # Panics
/// Panics if `k == 0`.
pub fn spant_euler_detailed<R: Rng>(
    g: &Graph,
    k: usize,
    strategy: TreeStrategy,
    rng: &mut R,
) -> SpanTEulerRun {
    spant_euler_detailed_in(g, k, strategy, rng, &mut Workspace::new())
}

/// [`spant_euler`] against a caller-owned [`Workspace`] — the entry point
/// the solve layer's contexts and portfolio workers use so scratch buffers
/// are allocated once per owner, not once per run.
pub fn spant_euler_in<R: Rng>(
    g: &Graph,
    k: usize,
    strategy: TreeStrategy,
    rng: &mut R,
    ws: &mut Workspace,
) -> EdgePartition {
    spant_euler_detailed_in(g, k, strategy, rng, ws).partition
}

/// The pipeline body, running every stage against one borrowed [`Workspace`]
/// (only `_in` entry points are called from here, so the borrow is threaded
/// through every stage).
///
/// # Panics
/// Panics if `k == 0`.
pub fn spant_euler_detailed_in<R: Rng>(
    g: &Graph,
    k: usize,
    strategy: TreeStrategy,
    rng: &mut R,
    ws: &mut Workspace,
) -> SpanTEulerRun {
    assert!(k > 0, "grooming factor must be positive");
    if g.is_empty() {
        return SpanTEulerRun {
            partition: EdgePartition::new(Vec::new()),
            cover_size: 0,
            components_g_minus_t: g.num_nodes(),
            euler_components: 0,
            strategy,
        };
    }
    // 1. Spanning forest T.
    let forest = spanning_forest_in(g, strategy, rng, ws);
    let tree_set = EdgeSubset::from_edges(g, forest.edges.iter().copied());
    let non_tree = tree_set.complement(g);

    // 2–3. V_odd and E_odd via subtree parity. The sweep only reads node
    // parities, so seed `ws.counts` with the raw G\T degrees instead of
    // materializing the odd-node list (degree ≡ marked mod 2).
    ws.counts.reset(g.num_nodes());
    for &e in non_tree.edges() {
        let (a, b) = g.endpoints(e);
        ws.counts.add(a.index(), 1);
        ws.counts.add(b.index(), 1);
    }
    let e_odd = odd_parity_tree_edges_from_counts(&forest, ws);

    // 4. G'' = E_odd ∪ (E \ T): all degrees even; Euler circuit per component.
    let e_odd_set = EdgeSubset::from_edges(g, e_odd.iter().copied());
    let g2 = e_odd_set.union(g, &non_tree);
    debug_assert!(
        grooming_graph::euler::odd_degree_nodes(g, &g2).is_empty(),
        "Lemma 4: G'' must have even degrees everywhere"
    );
    let backbones = component_euler_walks_in(g, &g2, ws)
        .expect("even-degree components always have Euler circuits");
    let euler_components = backbones.len();

    // 5. Attach the remaining tree edges as branches.
    let remaining = tree_set.minus(g, &e_odd_set);
    let cover = SkeletonCover::build_in(g, backbones, remaining.edges(), ws);
    debug_assert!(cover.validate(g, true).is_ok());

    // 6. Proposition 2.
    let partition = cover.to_partition(k);
    SpanTEulerRun {
        partition,
        cover_size: cover.size(),
        components_g_minus_t: non_tree.spanning_component_count_in(g, ws),
        euler_components,
        strategy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use grooming_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn check_all_invariants(g: &Graph, k: usize, run: &SpanTEulerRun) {
        run.partition.validate(g, k).unwrap();
        assert!(
            run.partition.uses_min_wavelengths(g, k),
            "must use minimum wavelengths"
        );
        let cost = run.partition.sadm_cost(g);
        let m = g.num_edges();
        let bound = bounds::theorem5_upper_bound(m, k, run.components_g_minus_t);
        assert!(cost <= bound, "Theorem 5: cost {cost} > bound {bound}");
        assert!(cost >= bounds::lower_bound(g, k));
    }

    #[test]
    fn empty_graph_produces_empty_partition() {
        let g = Graph::new(5);
        let run = spant_euler_detailed(&g, 4, TreeStrategy::Bfs, &mut rng(0));
        assert_eq!(run.partition.num_wavelengths(), 0);
        assert_eq!(run.cover_size, 0);
    }

    #[test]
    fn single_edge() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let run = spant_euler_detailed(&g, 16, TreeStrategy::Bfs, &mut rng(0));
        check_all_invariants(&g, 16, &run);
        assert_eq!(run.partition.sadm_cost(&g), 2);
    }

    #[test]
    fn triangle_all_k() {
        let g = generators::cycle(3);
        for k in 1..=4 {
            let run = spant_euler_detailed(&g, k, TreeStrategy::Bfs, &mut rng(1));
            check_all_invariants(&g, k, &run);
        }
    }

    #[test]
    fn complete_graph_gets_cover_size_one() {
        // K7 minus a spanning tree stays connected, so G'' is one
        // component and the cover has size 1 -> cost <= m + W.
        let g = generators::complete(7);
        let run = spant_euler_detailed(&g, 4, TreeStrategy::Bfs, &mut rng(2));
        check_all_invariants(&g, 4, &run);
        assert_eq!(run.cover_size, 1);
        let m = g.num_edges();
        assert!(run.partition.sadm_cost(&g) <= m + m.div_ceil(4));
    }

    #[test]
    fn tree_traffic_graph() {
        // G itself a tree: G\T is empty, V_odd empty, E_odd empty, G'' is
        // empty; everything rides on singleton anchors + branches.
        let g = generators::star(8);
        for k in [1, 2, 3, 7, 16] {
            let run = spant_euler_detailed(&g, k, TreeStrategy::Bfs, &mut rng(3));
            check_all_invariants(&g, k, &run);
        }
    }

    #[test]
    fn disconnected_graphs_are_handled() {
        let g = Graph::from_edges(9, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 7)]);
        for k in [1, 2, 3, 4, 16] {
            let run = spant_euler_detailed(&g, k, TreeStrategy::Bfs, &mut rng(4));
            check_all_invariants(&g, k, &run);
        }
    }

    #[test]
    fn random_graphs_all_strategies_all_k() {
        for seed in 0..6u64 {
            let g = generators::gnm(20, 48, &mut rng(seed));
            for strategy in TreeStrategy::ALL {
                for k in [1, 2, 3, 4, 8, 16, 64] {
                    let run = spant_euler_detailed(&g, k, strategy, &mut rng(seed + 100));
                    check_all_invariants(&g, k, &run);
                }
            }
        }
    }

    #[test]
    fn papers_instance_sizes() {
        // n = 36, m = n^{1+d}: the evaluation's instances.
        for d in [0.3f64, 0.5, 0.7] {
            let m = generators::dense_ratio_edges(36, d);
            let g = generators::gnm(36, m, &mut rng(7));
            for k in [4, 16, 64] {
                let run = spant_euler_detailed(&g, k, TreeStrategy::Bfs, &mut rng(8));
                check_all_invariants(&g, k, &run);
            }
        }
    }

    #[test]
    fn k_one_costs_exactly_two_per_edge() {
        // With k = 1 every edge is alone: cost = 2m always.
        let g = generators::gnm(12, 30, &mut rng(9));
        let run = spant_euler_detailed(&g, 1, TreeStrategy::Bfs, &mut rng(9));
        assert_eq!(run.partition.sadm_cost(&g), 2 * g.num_edges());
    }

    #[test]
    fn huge_k_puts_everything_on_one_wavelength() {
        let g = generators::gnm(15, 40, &mut rng(10));
        let run = spant_euler_detailed(&g, 1000, TreeStrategy::Bfs, &mut rng(10));
        assert_eq!(run.partition.num_wavelengths(), 1);
        // One wavelength touches at most all non-isolated nodes.
        assert!(run.partition.sadm_cost(&g) <= g.non_isolated_nodes().len());
    }
}
