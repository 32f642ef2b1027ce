//! The `k`-edge partition: result type, SADM cost, and validation.
//!
//! A grooming of a traffic graph `G` with grooming factor `k` is an edge
//! partition `E = {E_1, …, E_W}` with `|E_i| ≤ k`. Its cost — the number of
//! SADMs the corresponding wavelength assignment deploys — is
//! `Σ_i |V_i|` where `V_i` is the node set touched by `E_i`; `W` is the
//! number of wavelengths.

use grooming_graph::graph::Graph;
use grooming_graph::ids::EdgeId;
use grooming_graph::view::EdgeSubset;

/// Why an [`EdgePartition`] fails validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// A part exceeds the grooming factor.
    PartTooLarge {
        /// Index of the oversized part.
        part: usize,
        /// Its edge count.
        size: usize,
        /// The limit `k`.
        k: usize,
    },
    /// An edge id appears in more than one part (or twice in one).
    EdgeRepeated(EdgeId),
    /// An edge of the graph appears in no part.
    EdgeMissing(EdgeId),
    /// An edge id is out of range for the graph.
    EdgeOutOfRange(EdgeId),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::PartTooLarge { part, size, k } => {
                write!(f, "part {part} has {size} edges > k = {k}")
            }
            PartitionError::EdgeRepeated(e) => write!(f, "edge {e:?} appears twice"),
            PartitionError::EdgeMissing(e) => write!(f, "edge {e:?} is not covered"),
            PartitionError::EdgeOutOfRange(e) => write!(f, "edge {e:?} out of range"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// An edge partition of a traffic graph — the output of every grooming
/// algorithm in this crate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgePartition {
    parts: Vec<Vec<EdgeId>>,
}

impl EdgePartition {
    /// Builds a partition from parts, dropping empty ones.
    pub fn new(parts: Vec<Vec<EdgeId>>) -> Self {
        EdgePartition {
            parts: parts.into_iter().filter(|p| !p.is_empty()).collect(),
        }
    }

    /// The parts (wavelength edge sets). Never contains an empty part.
    pub fn parts(&self) -> &[Vec<EdgeId>] {
        &self.parts
    }

    /// Number of wavelengths used, `W`.
    pub fn num_wavelengths(&self) -> usize {
        self.parts.len()
    }

    /// Total edges covered.
    pub fn num_edges(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    /// The SADM cost `Σ_i |V_i|` against the parent graph: one node stamp
    /// shared by every part, so the whole count is one pass over the edges.
    pub fn sadm_cost(&self, g: &Graph) -> usize {
        let mut mark = vec![u32::MAX; g.num_nodes()];
        let mut cost = 0;
        for (i, part) in self.parts.iter().enumerate() {
            for &e in part {
                let (u, v) = g.endpoints(e);
                for z in [u, v] {
                    if mark[z.index()] != i as u32 {
                        mark[z.index()] = i as u32;
                        cost += 1;
                    }
                }
            }
        }
        cost
    }

    /// Per-part `(edges, touched nodes)` statistics.
    pub fn part_stats(&self, g: &Graph) -> Vec<(usize, usize)> {
        self.parts
            .iter()
            .map(|p| {
                let s = EdgeSubset::from_edges(g, p.iter().copied());
                (s.len(), s.touched_node_count(g))
            })
            .collect()
    }

    /// The minimum possible number of wavelengths for `m` edges: `⌈m/k⌉`.
    pub fn min_wavelengths(m: usize, k: usize) -> usize {
        assert!(k > 0, "grooming factor must be positive");
        m.div_ceil(k)
    }

    /// `true` if this partition uses the minimum `⌈m/k⌉` wavelengths
    /// (one of the headline guarantees of the paper's algorithms).
    pub fn uses_min_wavelengths(&self, g: &Graph, k: usize) -> bool {
        self.num_wavelengths() == Self::min_wavelengths(g.num_edges(), k)
    }

    /// Full validation: every edge of `g` in exactly one part, every part
    /// within the grooming factor `k`.
    pub fn validate(&self, g: &Graph, k: usize) -> Result<(), PartitionError> {
        let m = g.num_edges();
        let mut seen = vec![false; m];
        for (i, part) in self.parts.iter().enumerate() {
            if part.len() > k {
                return Err(PartitionError::PartTooLarge {
                    part: i,
                    size: part.len(),
                    k,
                });
            }
            for &e in part {
                if e.index() >= m {
                    return Err(PartitionError::EdgeOutOfRange(e));
                }
                if seen[e.index()] {
                    return Err(PartitionError::EdgeRepeated(e));
                }
                seen[e.index()] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(PartitionError::EdgeMissing(EdgeId::new(missing)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grooming_graph::generators;

    fn triangle_pair() -> Graph {
        Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    }

    fn ids(v: &[u32]) -> Vec<EdgeId> {
        v.iter().map(|&i| EdgeId(i)).collect()
    }

    #[test]
    fn valid_partition_and_cost() {
        let g = triangle_pair();
        let p = EdgePartition::new(vec![ids(&[0, 1, 2]), ids(&[3, 4, 5])]);
        p.validate(&g, 3).unwrap();
        assert_eq!(p.num_wavelengths(), 2);
        assert_eq!(p.sadm_cost(&g), 6);
        assert!(p.uses_min_wavelengths(&g, 3));
        assert_eq!(p.part_stats(&g), vec![(3, 3), (3, 3)]);
    }

    #[test]
    fn empty_parts_are_dropped() {
        let p = EdgePartition::new(vec![vec![], ids(&[0]), vec![]]);
        assert_eq!(p.num_wavelengths(), 1);
    }

    #[test]
    fn oversize_part_rejected() {
        let g = triangle_pair();
        let p = EdgePartition::new(vec![ids(&[0, 1, 2, 3]), ids(&[4, 5])]);
        assert_eq!(
            p.validate(&g, 3),
            Err(PartitionError::PartTooLarge {
                part: 0,
                size: 4,
                k: 3
            })
        );
    }

    #[test]
    fn repeated_edge_rejected() {
        let g = triangle_pair();
        let p = EdgePartition::new(vec![ids(&[0, 1]), ids(&[1, 2, 3, 4]), ids(&[5])]);
        assert_eq!(
            p.validate(&g, 4),
            Err(PartitionError::EdgeRepeated(EdgeId(1)))
        );
    }

    #[test]
    fn missing_edge_rejected() {
        let g = triangle_pair();
        let p = EdgePartition::new(vec![ids(&[0, 1, 2, 3, 4])]);
        assert_eq!(
            p.validate(&g, 5),
            Err(PartitionError::EdgeMissing(EdgeId(5)))
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let g = triangle_pair();
        let p = EdgePartition::new(vec![ids(&[0, 1, 2, 3, 4, 5, 6])]);
        assert_eq!(
            p.validate(&g, 10),
            Err(PartitionError::EdgeOutOfRange(EdgeId(6)))
        );
    }

    #[test]
    fn min_wavelength_arithmetic() {
        assert_eq!(EdgePartition::min_wavelengths(0, 4), 0);
        assert_eq!(EdgePartition::min_wavelengths(8, 4), 2);
        assert_eq!(EdgePartition::min_wavelengths(9, 4), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_k_rejected() {
        let _ = EdgePartition::min_wavelengths(3, 0);
    }

    #[test]
    fn cost_counts_distinct_nodes_only() {
        let g = generators::star(5);
        let p = EdgePartition::new(vec![ids(&[0, 1, 2, 3])]);
        p.validate(&g, 4).unwrap();
        assert_eq!(p.sadm_cost(&g), 5); // hub + 4 leaves
    }
}
