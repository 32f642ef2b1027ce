//! The exact SADM optimum of traffic graphs of maximum degree 2, in closed
//! form and linear time: an oracle that works at any scale.

use grooming_graph::graph::Graph;
use grooming_graph::traversal::connected_components;

/// The minimum SADM cost `Σ|V_i|` over all `k`-edge partitions of a
/// traffic graph whose nodes have degree at most 2 and whose demands are
/// pairwise distinct:
///
/// `m + Σ_paths ⌈L/k⌉ + Σ_{cycles with L > k} ⌈L/k⌉`,
///
/// summed over the components with `L ≥ 1` edges (isolated nodes cost
/// nothing). The wavelength count is left free.
///
/// *Proof.* Such a graph is a disjoint union of paths and cycles. Call the
/// connected components of one part's edges its *pieces*. A piece lies in
/// one component and is a sub-path of it, or the whole component when that
/// is a cycle, so a piece of `e` edges has `e + 1` nodes, or `e` nodes if
/// it is a whole cycle; a part's node count is the sum over its pieces.
/// Every piece has at most `k` edges, so a component of length `L` splits
/// into at least `⌈L/k⌉` pieces. A path therefore costs at least
/// `L + ⌈L/k⌉`; a cycle costs `L` if it is one whole piece, which needs
/// `L ≤ k`, and at least `L + ⌈L/k⌉` otherwise. Cutting every component
/// into `⌈L/k⌉` consecutive runs of at most `k` edges, one part per run,
/// attains every one of these bounds at once.
///
/// # Panics
/// Panics if `k == 0`, if a node has degree above 2, or if two demands
/// join the same pair of nodes.
pub fn degree2_optimum(g: &Graph, k: usize) -> usize {
    assert!(k > 0, "grooming factor must be positive");
    assert!(
        g.max_degree() <= 2,
        "degree2_optimum needs maximum degree 2 (got {})",
        g.max_degree()
    );
    assert!(g.is_simple(), "degree2_optimum needs distinct demands");
    let comps = connected_components(g);
    let mut nodes = vec![0usize; comps.count];
    let mut edges = vec![0usize; comps.count];
    for v in g.nodes() {
        nodes[comps.labels[v.index()]] += 1;
    }
    for e in g.edges() {
        edges[comps.labels[g.endpoints(e).0.index()]] += 1;
    }
    let pieces: usize = nodes
        .iter()
        .zip(&edges)
        .filter(|&(_, &len)| len > 0)
        .map(|(&n, &len)| {
            // A connected graph of maximum degree 2 is a cycle iff it has
            // as many edges as nodes, and a path otherwise.
            let whole_cycle = len == n && len <= k;
            if whole_cycle {
                0
            } else {
                len.div_ceil(k)
            }
        })
        .sum();
    g.num_edges() + pieces
}

#[cfg(test)]
mod tests {
    use super::*;
    use grooming::exact::exact_minimum;
    use grooming_graph::generators;
    use grooming_graph::ids::NodeId;

    #[test]
    fn closed_form_on_single_components() {
        // Path of 10 edges: 10 + ⌈10/4⌉.
        assert_eq!(degree2_optimum(&generators::path(11), 4), 13);
        // Cycle that fits one wavelength costs its length.
        assert_eq!(degree2_optimum(&generators::cycle(6), 6), 6);
        // Cycle one edge too long for that: 7 + ⌈7/6⌉.
        assert_eq!(degree2_optimum(&generators::cycle(7), 6), 9);
        // Isolated nodes cost nothing.
        assert_eq!(degree2_optimum(&Graph::new(5), 3), 0);
    }

    #[test]
    fn matches_branch_and_bound_on_small_unions() {
        // Disjoint unions of paths and cycles, up to the exact solver's
        // edge cap, at every k that matters for their lengths.
        let shapes: &[&[(bool, usize)]] = &[
            &[(false, 1), (false, 2), (true, 3)],
            &[(true, 4), (true, 5)],
            &[(false, 7), (true, 3), (false, 3)],
            &[(true, 8), (false, 5)],
            &[(true, 3), (true, 3), (true, 3), (false, 4)],
        ];
        for shape in shapes {
            let n: usize = shape.iter().map(|&(cyc, len)| len + !cyc as usize).sum();
            let mut g = Graph::new(n + 1); // one isolated node
            let mut base = 0u32;
            for &(cyc, len) in *shape {
                let nodes = (len + !cyc as usize) as u32;
                for i in 0..len as u32 {
                    let (u, v) = (base + i, base + (i + 1) % nodes);
                    g.add_edge(NodeId(u), NodeId(v));
                }
                base += nodes;
            }
            for k in 1..=9 {
                assert_eq!(
                    degree2_optimum(&g, k),
                    exact_minimum(&g, k),
                    "shape {shape:?} k {k}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "maximum degree 2")]
    fn rejects_a_degree_three_node() {
        degree2_optimum(&generators::star(4), 3);
    }

    #[test]
    #[should_panic(expected = "distinct demands")]
    fn rejects_parallel_demands() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 1)]);
        degree2_optimum(&g, 3);
    }
}
