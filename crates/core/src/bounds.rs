//! Lower bounds and the paper's theorem bounds for the `k`-edge
//! partitioning cost.
//!
//! Lower bounds serve two purposes: they calibrate the experiments (how far
//! can any heuristic be from optimal?) and they anchor property tests
//! (`lower ≤ heuristic ≤ theorem bound` on every random instance).

use grooming_graph::graph::Graph;

/// ν(e): the minimum number of nodes a subgraph with `e` edges can touch —
/// the smallest `p` with `C(p,2) ≥ e` (achieved by a clique). `ν(0) = 0`.
pub fn min_nodes_for_edges(e: usize) -> usize {
    if e == 0 {
        return 0;
    }
    // Solve p(p-1)/2 >= e.
    let mut p = (0.5 + (0.25 + 2.0 * e as f64).sqrt()).floor() as usize;
    while p * p.saturating_sub(1) / 2 < e {
        p += 1;
    }
    while p >= 1 && (p - 1) * p.saturating_sub(2) / 2 >= e {
        p -= 1;
    }
    p
}

/// The clique lower bound: the minimum of `Σ ν(e_i)` over all ways to split
/// `m` edges into parts of at most `k`, computed exactly. No valid
/// partition of any graph with `m` edges can cost less.
///
/// The dynamic program `dp(x) = min_{1 ≤ e ≤ k} dp(x − e) + ν(e)` only has
/// to be tabulated up to `k² + k`: beyond `k²` it is periodic. Let `p*` be
/// the smallest part size minimising `ν(e)/e`. Among any `p*` parts of
/// other sizes, some nonempty subset sums to a multiple `t·p*` (pigeonhole
/// on prefix sums mod `p*`), and `t` parts of size `p*` cost no more than
/// that subset. So some optimal split has fewer than `p*` parts of other
/// sizes, carrying at most `(p* − 1)·k < k²` edges; for `x ≥ k²` it holds
/// a part of size `p*`, and `dp(x) = dp(x − p*) + ν(p*)`. With
/// `q = ⌊(m − k²)/p*⌋`, `dp(m) = dp(m − q·p*) + q·ν(p*)`, and
/// `m − q·p* < k² + p*` lies inside the table.
pub fn clique_lower_bound(m: usize, k: usize) -> usize {
    CliqueTable::new(k, m).get(m)
}

/// The clique DP tabulated up to its periodic regime (see
/// [`clique_lower_bound`]), answering any `m` in O(1) after an
/// O(k³)-bounded build.
struct CliqueTable {
    /// `dp[x]` for `x ≤ min(max_m, k² + k)`.
    dp: Vec<usize>,
    /// Where the periodic regime starts: `k²`.
    start: usize,
    /// The best-ratio part size `p*` and its node count `ν(p*)`.
    period: usize,
    period_cost: usize,
}

impl CliqueTable {
    /// Tabulates the DP for answers up to `max_m`.
    fn new(k: usize, max_m: usize) -> Self {
        assert!(k > 0, "grooming factor must be positive");
        let start = k.saturating_mul(k);
        let len = max_m.min(start.saturating_add(k));
        // ν is only ever evaluated at 1..=k; tabulating it keeps the DP's
        // inner loop to an add and a compare.
        let nu: Vec<usize> = (0..=k.min(len)).map(min_nodes_for_edges).collect();
        let mut dp = vec![usize::MAX; len + 1];
        dp[0] = 0;
        for x in 1..=len {
            for e in 1..=k.min(x) {
                let cand = dp[x - e].saturating_add(nu[e]);
                if cand < dp[x] {
                    dp[x] = cand;
                }
            }
        }
        // Smallest e minimising ν(e)/e (cross-multiplied, strict `<`).
        // Only answers past the table need it, and then `len = k² + k`,
        // so ν is tabulated over all of 1..=k.
        let (mut period, mut period_cost) = (1, 2);
        if len < max_m {
            for (e, &c) in nu.iter().enumerate().skip(2) {
                if c * period < period_cost * e {
                    (period, period_cost) = (e, c);
                }
            }
        }
        CliqueTable {
            dp,
            start,
            period,
            period_cost,
        }
    }

    /// `dp(m)`; `m` must not exceed the table's `max_m`.
    fn get(&self, m: usize) -> usize {
        if m < self.dp.len() {
            return self.dp[m];
        }
        let q = (m - self.start) / self.period;
        self.dp[m - q * self.period] + q * self.period_cost
    }
}

/// The degree lower bound: node `v` with degree `d` must appear in at
/// least `⌈d/k⌉` parts (each part carries at most `k` of its edges), so
/// `Σ_v ⌈deg(v)/k⌉ ≤ cost`.
pub fn degree_lower_bound(g: &Graph, k: usize) -> usize {
    assert!(k > 0, "grooming factor must be positive");
    g.nodes().map(|v| g.degree(v).div_ceil(k)).sum()
}

/// The per-component clique bound: a part's node count decomposes over the
/// connected components it intersects, and within each component the
/// distinct pairs it covers still have to be covered — so
/// `Σ_c clique_lower_bound(distinct_c, k)` is a valid (and for
/// disconnected traffic graphs strictly tighter) global bound.
///
/// Distinct pairs, not raw edge counts: ν counts the nodes needed for
/// distinct adjacencies, and `u` parallel demands between the same nodes
/// happily share two SADMs. Components come from a union-find over the
/// edge endpoints; each node `u` then counts its distinct neighbours
/// `v > u` with one node stamp, so every pair is counted once, at its
/// smaller endpoint. O(n + m), no sort.
pub fn component_lower_bound(g: &Graph, k: usize) -> usize {
    let n = g.num_nodes();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let up = parent[parent[x as usize] as usize];
            parent[x as usize] = up; // path halving
            x = up;
        }
        x
    }
    for &(u, v) in g.edge_list() {
        let (ru, rv) = (find(&mut parent, u.0), find(&mut parent, v.0));
        if ru != rv {
            parent[ru.max(rv) as usize] = ru.min(rv);
        }
    }
    let mut distinct = vec![0usize; n];
    let mut stamp = vec![u32::MAX; n];
    for u in g.nodes() {
        let mut count = 0;
        for &(v, _) in g.incident(u) {
            if v > u && stamp[v.index()] != u.0 {
                stamp[v.index()] = u.0;
                count += 1;
            }
        }
        if count > 0 {
            distinct[find(&mut parent, u.0) as usize] += count;
        }
    }
    let table = CliqueTable::new(k, distinct.iter().copied().max().unwrap_or(0));
    distinct.iter().map(|&d| table.get(d)).sum()
}

/// The best available lower bound for grooming `g` with factor `k`.
///
/// ```
/// use grooming::bounds::lower_bound;
/// use grooming_graph::generators;
///
/// // K9 at k = 3 can be partitioned into triangles (STS(9) exists), so
/// // the bound m = 36 is tight.
/// assert_eq!(lower_bound(&generators::complete(9), 3), 36);
/// ```
pub fn lower_bound(g: &Graph, k: usize) -> usize {
    // Every wavelength holds at least one edge, hence at least 2 nodes:
    // the volume floor that survives arbitrary demand multiplicity.
    let wavelength_floor = 2 * g.num_edges().div_ceil(k.max(1));
    // The whole-graph clique DP is omitted deliberately: the DP is
    // subadditive (any split of two edge sets concatenates into a split
    // of their union), so the per-component sum always dominates it.
    component_lower_bound(g, k)
        .max(degree_lower_bound(g, k))
        .max(if g.is_empty() { 0 } else { wavelength_floor })
}

/// Theorem 5 (SpanT_Euler): cost ≤ `m + ⌈m/k⌉ + (c − 1)` where `c` is the
/// number of connected components of `G\T` over the full node set.
pub fn theorem5_upper_bound(m: usize, k: usize, c: usize) -> usize {
    if m == 0 {
        return 0;
    }
    m + m.div_ceil(k) + c.max(1) - 1
}

/// Theorem 10, even `r` (Regular_Euler on a connected even-regular graph):
/// cost ≤ `m + ⌈m/k⌉` — the paper writes it as `m/k (1 + 1/k) · k`, i.e.
/// `m (1 + 1/k)` rounded through the ceiling of `m/k`.
pub fn theorem10_upper_bound_even(m: usize, k: usize) -> usize {
    if m == 0 {
        return 0;
    }
    m + m.div_ceil(k)
}

/// Theorem 10, odd `r`: cost ≤ `m + ⌈m/k⌉ + 3n/(2(r+1)) − 1`, the last
/// terms coming from Lemma 9's skeleton-cover bound `j ≤ 3n/(2(r+1))`.
pub fn theorem10_upper_bound_odd(m: usize, k: usize, n: usize, r: usize) -> usize {
    if m == 0 {
        return 0;
    }
    let cover = ((3 * n) as f64 / (2.0 * (r as f64 + 1.0))).floor() as usize;
    m + m.div_ceil(k) + cover.max(1) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use grooming_graph::generators;

    #[test]
    fn nu_small_values() {
        // nu: 0->0, 1->2, 2->3, 3->3, 4->4, 6->4, 7->5, 10->5, 11->6
        let expect = [
            (0, 0),
            (1, 2),
            (2, 3),
            (3, 3),
            (4, 4),
            (5, 4),
            (6, 4),
            (7, 5),
            (10, 5),
            (11, 6),
            (15, 6),
            (16, 7),
            (21, 7),
            (22, 8),
        ];
        for (e, p) in expect {
            assert_eq!(min_nodes_for_edges(e), p, "nu({e})");
        }
    }

    #[test]
    fn nu_is_monotone_and_tight() {
        for e in 1..200usize {
            let p = min_nodes_for_edges(e);
            assert!(p * (p - 1) / 2 >= e);
            assert!((p - 1) * (p - 2) / 2 < e);
        }
    }

    #[test]
    fn clique_bound_prefers_triangles_over_full_parts() {
        // m=6, k=4: two triangles (3+3 edges -> 3+3 nodes) beat (4,2).
        assert_eq!(clique_lower_bound(6, 4), 6);
        // m=6, k=3: two triangles.
        assert_eq!(clique_lower_bound(6, 3), 6);
        // m=3, k=3: one triangle.
        assert_eq!(clique_lower_bound(3, 3), 3);
    }

    #[test]
    fn clique_bound_edges_alone() {
        // k=1: every edge alone: 2 per edge.
        assert_eq!(clique_lower_bound(7, 1), 14);
        assert_eq!(clique_lower_bound(0, 5), 0);
    }

    #[test]
    fn degree_bound_on_star() {
        let g = generators::star(9); // hub degree 8
        assert_eq!(degree_lower_bound(&g, 4), 2 + 8); // hub twice, leaves once
        assert_eq!(degree_lower_bound(&g, 8), 1 + 8);
    }

    #[test]
    fn lower_bound_takes_max() {
        let g = generators::star(9);
        // Degree bound (10 at k=4) beats the clique DP bound here.
        assert!(lower_bound(&g, 4) >= degree_lower_bound(&g, 4));
        assert!(lower_bound(&g, 4) >= clique_lower_bound(8, 4));
    }

    #[test]
    fn triangle_partition_cost_matches_bound_exactly() {
        // K9 with k=3: cost m = 36 is achievable (STS) and is the bound.
        assert_eq!(clique_lower_bound(36, 3), 36);
    }

    #[test]
    fn component_bound_is_tighter_on_disjoint_unions() {
        // Four disjoint single edges at k = 4: the global clique DP would
        // allow one 4-edge "clique-ish" part (nu(4) = 4), but each
        // component needs its own 2 nodes.
        let g = grooming_graph::graph::Graph::from_edges(8, &[(0, 1), (2, 3), (4, 5), (6, 7)]);
        assert_eq!(clique_lower_bound(4, 4), 4);
        assert_eq!(component_lower_bound(&g, 4), 8);
        assert_eq!(lower_bound(&g, 4), 8);
        // And the bound is achievable: one part with all four edges costs
        // exactly 8 -> the heuristics can certify optimality here.
    }

    #[test]
    fn multigraph_demands_do_not_inflate_the_bound() {
        // Regression: four parallel demands between the same nodes fit on
        // one wavelength with TWO SADMs; the clique bound must not claim 4.
        let mut g = grooming_graph::graph::Graph::new(3);
        let a = grooming_graph::ids::NodeId(0);
        let b = grooming_graph::ids::NodeId(1);
        for _ in 0..4 {
            g.add_edge(a, b);
        }
        assert_eq!(lower_bound(&g, 4), 2);
        // With k = 2 the volume floor kicks in: two wavelengths, 2 each.
        assert_eq!(lower_bound(&g, 2), 4);
        // Degree bound still sees the multiplicity.
        assert_eq!(degree_lower_bound(&g, 2), 4);
    }

    #[test]
    fn component_bound_matches_global_on_connected_graphs() {
        let g = generators::complete(6);
        for k in [2usize, 3, 5, 15] {
            assert_eq!(
                component_lower_bound(&g, k),
                clique_lower_bound(g.num_edges(), k)
            );
        }
    }

    /// The clique DP tabulated in full, with no extrapolation: the oracle
    /// for [`CliqueTable`]'s periodic answers.
    fn plain_clique_dp(max_m: usize, k: usize) -> Vec<usize> {
        let nu: Vec<usize> = (0..=k).map(min_nodes_for_edges).collect();
        let mut dp = vec![usize::MAX; max_m + 1];
        dp[0] = 0;
        for x in 1..=max_m {
            for e in 1..=k.min(x) {
                dp[x] = dp[x].min(dp[x - e] + nu[e]);
            }
        }
        dp
    }

    #[test]
    fn extrapolated_clique_bound_matches_the_plain_dp() {
        const MAX_M: usize = 20_000;
        for k in 1..=64usize {
            let dp = plain_clique_dp(MAX_M, k);
            let table = CliqueTable::new(k, MAX_M);
            for (m, &want) in dp.iter().enumerate() {
                assert_eq!(table.get(m), want, "m={m} k={k}");
            }
            // The public entry point builds its own table per call.
            for m in [0, 1, k * k, k * k + k + 1, MAX_M] {
                assert_eq!(clique_lower_bound(m, k), dp[m], "m={m} k={k}");
            }
        }
    }

    /// The sort-based per-component formulation the union-find version
    /// replaced, kept as its oracle.
    fn component_bound_by_sorting(g: &grooming_graph::graph::Graph, k: usize) -> usize {
        grooming_graph::view::EdgeSubset::full(g)
            .edge_components(g)
            .iter()
            .map(|comp| {
                let mut pairs: Vec<(u32, u32)> = comp
                    .iter()
                    .map(|&e| {
                        let (u, v) = g.endpoints(e);
                        (u.0.min(v.0), u.0.max(v.0))
                    })
                    .collect();
                pairs.sort_unstable();
                pairs.dedup();
                plain_clique_dp(pairs.len(), k)[pairs.len()]
            })
            .sum()
    }

    #[test]
    fn union_find_component_bound_matches_the_sorting_oracle() {
        use grooming_graph::ids::NodeId;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut r = StdRng::seed_from_u64(0xb0d5);
        for case in 0..300 {
            // Several blocks of nodes, edges only inside a block (so at
            // least as many components as nonempty blocks), repeated pairs
            // for parallel demands, and spare nodes left isolated.
            let n = r.gen_range(2..60usize);
            let blocks = r.gen_range(1..6usize);
            let mut g = grooming_graph::graph::Graph::new(n);
            for _ in 0..r.gen_range(0..3 * n) {
                let b = r.gen_range(0..blocks);
                let lo = b * n / blocks;
                let hi = (b + 1) * n / blocks;
                if hi - lo < 2 {
                    continue;
                }
                let u = r.gen_range(lo..hi);
                let v = r.gen_range(lo..hi);
                if u == v {
                    continue;
                }
                for _ in 0..r.gen_range(1..4) {
                    g.add_edge(NodeId(u as u32), NodeId(v as u32));
                }
            }
            for k in [1usize, 2, 3, 4, 6, 8, 16, 64] {
                assert_eq!(
                    component_lower_bound(&g, k),
                    component_bound_by_sorting(&g, k),
                    "case {case}, k {k}, n {n}, m {}",
                    g.num_edges()
                );
            }
        }
    }

    #[test]
    fn theorem_bounds_zero_edges() {
        assert_eq!(theorem5_upper_bound(0, 4, 3), 0);
        assert_eq!(theorem10_upper_bound_even(0, 4), 0);
        assert_eq!(theorem10_upper_bound_odd(0, 4, 10, 3), 0);
    }

    #[test]
    fn theorem_bounds_formulas() {
        assert_eq!(theorem5_upper_bound(10, 4, 1), 10 + 3);
        assert_eq!(theorem5_upper_bound(10, 4, 4), 10 + 3 + 3);
        assert_eq!(theorem10_upper_bound_even(126, 16), 126 + 8);
        // n=36, r=7: 3*36/16 = 6.75 -> 6
        assert_eq!(theorem10_upper_bound_odd(126, 16, 36, 7), 126 + 8 + 5);
    }

    #[test]
    fn lower_bounds_never_exceed_trivial_costs() {
        // Any graph can be groomed at cost <= 2m (k >= 1), so LB <= 2m.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..5 {
            let g = generators::gnm(14, 30, &mut r);
            for k in [1usize, 2, 4, 9] {
                assert!(lower_bound(&g, k) <= 2 * g.num_edges());
            }
        }
    }
}
