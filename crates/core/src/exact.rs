//! Exact optimum for tiny instances (branch and bound).
//!
//! The `k`-edge-partitioning problem is NP-hard (Goldschmidt et al. 2003;
//! this paper for regular graphs), so exact solving is only feasible for
//! tiny instances — which is precisely what the test suite and the
//! optimality-gap experiment need: a ground truth to measure heuristics
//! against, and the cost oracle for verifying the Theorem 7 reduction
//! (`cost = m` at `k = 3` ⇔ triangle partition exists).

use grooming_graph::graph::Graph;
use grooming_graph::ids::EdgeId;

use crate::bounds;
use crate::partition::EdgePartition;

/// Practical instance-size cap: branch and bound is exponential and this
/// module refuses graphs beyond it.
pub const MAX_EDGES: usize = 24;

/// Computes the exact minimum SADM cost.
///
/// # Panics
/// Panics if `k == 0`, if the graph has more than [`MAX_EDGES`] edges, or
/// more than 64 nodes (node sets are tracked as `u64` bitmasks).
pub fn exact_minimum(g: &Graph, k: usize) -> usize {
    exact_minimum_partition(g, k).1
}

/// Computes an optimal partition and its cost.
///
/// # Panics
/// See [`exact_minimum`].
pub fn exact_minimum_partition(g: &Graph, k: usize) -> (EdgePartition, usize) {
    assert!(k > 0, "grooming factor must be positive");
    assert!(
        g.num_edges() <= MAX_EDGES,
        "exact solver capped at {MAX_EDGES} edges (got {})",
        g.num_edges()
    );
    assert!(
        g.num_nodes() <= 64,
        "exact solver tracks nodes as u64 masks"
    );
    let m = g.num_edges();
    if m == 0 {
        return (EdgePartition::new(Vec::new()), 0);
    }

    // Warm start: a cheap greedy upper bound (edges in order, first part
    // that minimizes added nodes).
    let warm = greedy_partition(g, k);
    let mut best_cost = warm.sadm_cost(g);
    let mut best_parts: Vec<Vec<EdgeId>> = warm.parts().to_vec();

    let masks: Vec<u64> = g
        .edges()
        .map(|e| {
            let (u, v) = g.endpoints(e);
            (1u64 << u.index()) | (1u64 << v.index())
        })
        .collect();

    struct State<'a> {
        g: &'a Graph,
        masks: &'a [u64],
        k: usize,
        m: usize,
        parts: Vec<(Vec<EdgeId>, u64)>,
        cost: usize,
        best_cost: usize,
        best_parts: Vec<Vec<EdgeId>>,
    }

    impl State<'_> {
        /// Admissible lower bound on the extra cost of placing edges
        /// `from..m`.
        fn heuristic(&self, from: usize) -> usize {
            let n = self.g.num_nodes();
            // Remaining degree per node.
            let mut rd = vec![0usize; n];
            for e in from..self.m {
                let (u, v) = self.g.endpoints(EdgeId::new(e));
                rd[u.index()] += 1;
                rd[v.index()] += 1;
            }
            // h1: node v needs ceil((rd_v - freecap_v)/k) new appearances,
            // where freecap_v is the spare capacity of parts containing v.
            let mut h1 = 0usize;
            for (v, &rdv) in rd.iter().enumerate().take(n) {
                if rdv == 0 {
                    continue;
                }
                let freecap: usize = self
                    .parts
                    .iter()
                    .filter(|(p, mask)| mask & (1u64 << v) != 0 && p.len() < self.k)
                    .map(|(p, _)| self.k - p.len())
                    .sum();
                h1 += rdv.saturating_sub(freecap).div_ceil(self.k);
            }
            // h2: new parts must absorb edges beyond total spare capacity;
            // each new part costs at least 2 nodes.
            let spare: usize = self.parts.iter().map(|(p, _)| self.k - p.len()).sum();
            let remaining = self.m - from;
            let h2 = 2 * remaining.saturating_sub(spare).div_ceil(self.k);
            h1.max(h2)
        }

        fn search(&mut self, e: usize) {
            if self.cost + self.heuristic(e) >= self.best_cost {
                return;
            }
            if e == self.m {
                self.best_cost = self.cost;
                self.best_parts = self.parts.iter().map(|(p, _)| p.clone()).collect();
                return;
            }
            let emask = self.masks[e];
            // Try existing parts, cheapest added-node count first.
            let mut order: Vec<usize> = (0..self.parts.len())
                .filter(|&i| self.parts[i].0.len() < self.k)
                .collect();
            order.sort_by_key(|&i| (emask & !self.parts[i].1).count_ones());
            for i in order {
                let added = (emask & !self.parts[i].1).count_ones() as usize;
                let old_mask = self.parts[i].1;
                self.parts[i].0.push(EdgeId::new(e));
                self.parts[i].1 |= emask;
                self.cost += added;
                self.search(e + 1);
                self.cost -= added;
                self.parts[i].1 = old_mask;
                self.parts[i].0.pop();
            }
            // Open one canonical new part.
            self.parts.push((vec![EdgeId::new(e)], emask));
            self.cost += 2;
            self.search(e + 1);
            self.cost -= 2;
            self.parts.pop();
        }
    }

    let mut st = State {
        g,
        masks: &masks,
        k,
        m,
        parts: Vec::new(),
        cost: 0,
        best_cost,
        best_parts: std::mem::take(&mut best_parts),
    };
    // The global lower bound can certify the greedy solution immediately.
    if bounds::lower_bound(g, k) < best_cost {
        st.search(0);
    }
    best_cost = st.best_cost;
    let partition = EdgePartition::new(st.best_parts);
    debug_assert!(partition.validate(g, k).is_ok());
    debug_assert_eq!(partition.sadm_cost(g), best_cost);
    (partition, best_cost)
}

/// Greedy warm start: place each edge into the part that adds the fewest
/// nodes (ties to the fullest part), opening a new part when needed.
fn greedy_partition(g: &Graph, k: usize) -> EdgePartition {
    let mut parts: Vec<(Vec<EdgeId>, u64)> = Vec::new();
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        let emask = (1u64 << u.index()) | (1u64 << v.index());
        let mut best: Option<(usize, u32)> = None;
        for (i, (p, mask)) in parts.iter().enumerate() {
            if p.len() >= k {
                continue;
            }
            let added = (emask & !mask).count_ones();
            if best.is_none_or(|(_, b)| added < b) {
                best = Some((i, added));
            }
        }
        match best {
            // An edge always costs 2 in a fresh part; reusing an existing
            // part never costs more and saves wavelengths.
            Some((i, _)) => {
                parts[i].0.push(e);
                parts[i].1 |= emask;
            }
            None => parts.push((vec![e], emask)),
        }
    }
    EdgePartition::new(parts.into_iter().map(|(p, _)| p).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use grooming_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn triangle_is_optimal_at_three() {
        let g = generators::cycle(3);
        assert_eq!(exact_minimum(&g, 3), 3);
        assert_eq!(exact_minimum(&g, 1), 6);
        assert_eq!(exact_minimum(&g, 2), 5); // parts (2,1): 3 + 2
    }

    #[test]
    fn octahedron_partitions_into_triangles() {
        let g = Graph::from_edges(
            6,
            &[
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (1, 2),
                (1, 3),
                (1, 4),
                (1, 5),
                (2, 4),
                (2, 5),
                (3, 4),
                (3, 5),
            ],
        );
        // K_{2,2,2}: triangle-partitionable, so the k=3 optimum is m = 12.
        assert_eq!(exact_minimum(&g, 3), 12);
    }

    #[test]
    fn k4_cannot_reach_m_at_k3() {
        let g = generators::complete(4);
        // No triangle partition (odd degrees) -> cost > m = 6.
        let c = exact_minimum(&g, 3);
        assert!(c > 6);
        // Optimal: one triangle (3 nodes) + the star at the fourth node
        // (4 nodes) = 7.
        assert_eq!(c, 7);
    }

    #[test]
    fn c6_cannot_reach_m_at_k3() {
        let g = generators::cycle(6);
        let c = exact_minimum(&g, 3);
        assert!(c > 6);
        assert_eq!(c, 8);
    }

    #[test]
    fn path_optimal_cuts() {
        let g = generators::path(9); // 8 edges
        assert_eq!(exact_minimum(&g, 4), 10); // two subpaths of 4 edges
        assert_eq!(exact_minimum(&g, 8), 9);
    }

    #[test]
    fn exact_is_at_most_heuristics_and_at_least_lower_bound() {
        use crate::baselines;
        use crate::spant_euler::spant_euler;
        use grooming_graph::spanning::TreeStrategy;
        for seed in 0..6u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let g = generators::gnm(8, 12, &mut r);
            for k in [2usize, 3, 4] {
                let (p, c) = exact_minimum_partition(&g, k);
                p.validate(&g, k).unwrap();
                assert!(c >= bounds::lower_bound(&g, k), "seed {seed} k {k}");
                let h1 = spant_euler(&g, k, TreeStrategy::Bfs, &mut r).sadm_cost(&g);
                let h2 = baselines::brauner(&g, k).sadm_cost(&g);
                let h3 = baselines::goldschmidt(&g, k, &mut r).sadm_cost(&g);
                assert!(c <= h1 && c <= h2 && c <= h3, "exact must win");
            }
        }
    }

    #[test]
    fn empty_graph_costs_zero() {
        let g = Graph::new(3);
        let (p, c) = exact_minimum_partition(&g, 4);
        assert_eq!(c, 0);
        assert_eq!(p.num_wavelengths(), 0);
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn oversized_instance_rejected() {
        let g = generators::complete(9); // 36 edges
        let _ = exact_minimum(&g, 3);
    }
}
