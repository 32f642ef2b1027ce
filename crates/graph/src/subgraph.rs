//! Subgraph extraction with edge-id mapping.
//!
//! Packing heuristics groom a *subset* of the demands with a sub-algorithm
//! (e.g. the dense-first heuristic packs cliques, then runs `SpanT_Euler`
//! on the leftovers). They need a standalone [`Graph`] over the leftover
//! edges plus the mapping back to parent edge ids; this module provides
//! that extraction in one audited place.

use crate::graph::Graph;
use crate::ids::EdgeId;

/// A graph built from a subset of a parent graph's edges, remembering the
/// parent edge id of every extracted edge.
#[derive(Clone, Debug)]
pub struct ExtractedSubgraph {
    /// The standalone subgraph (same node id space as the parent).
    pub graph: Graph,
    /// `parent_edge[e]` = the parent edge id of subgraph edge `e`.
    pub parent_edge: Vec<EdgeId>,
}

impl ExtractedSubgraph {
    /// Translates a subgraph edge id back to the parent graph.
    pub fn to_parent(&self, e: EdgeId) -> EdgeId {
        self.parent_edge[e.index()]
    }

    /// Translates a collection of subgraph edge ids back to the parent.
    pub fn edges_to_parent(&self, edges: &[EdgeId]) -> Vec<EdgeId> {
        edges.iter().map(|&e| self.to_parent(e)).collect()
    }
}

/// Extracts the subgraph of the edges *not* flagged in `used`, in ascending
/// edge-id order — the "leftover" graph of a packing heuristic, built in one
/// pass over the flag array instead of materialising the surviving id list
/// first.
///
/// # Panics
/// Panics if `used.len() != g.num_edges()`.
pub fn extract_unused(g: &Graph, used: &[bool]) -> ExtractedSubgraph {
    assert_eq!(
        used.len(),
        g.num_edges(),
        "flag array must cover every edge"
    );
    let mut graph = Graph::new(g.num_nodes());
    let mut parent_edge = Vec::new();
    for e in g.edges() {
        if !used[e.index()] {
            let (u, v) = g.endpoints(e);
            graph.add_edge(u, v);
            parent_edge.push(e);
        }
    }
    ExtractedSubgraph { graph, parent_edge }
}
