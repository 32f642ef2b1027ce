//! Subgraph extraction with edge-id mapping.
//!
//! Several algorithms groom a *subset* of the demands with a sub-algorithm
//! (e.g. the clique-first heuristic packs cliques, then runs `SpanT_Euler`
//! on the leftovers). They need a standalone [`Graph`] over the chosen
//! edges plus the mapping back to parent edge ids; this module provides
//! that extraction in one audited place.

use crate::graph::Graph;
use crate::ids::EdgeId;
use crate::view::EdgeSubset;

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

/// Extracts the subgraph on the given edges (node set unchanged, so parent
/// node ids remain valid).
pub fn extract(g: &Graph, edges: &[EdgeId]) -> ExtractedSubgraph {
    let mut graph = Graph::new(g.num_nodes());
    let mut parent_edge = Vec::with_capacity(edges.len());
    for &e in edges {
        let (u, v) = g.endpoints(e);
        graph.add_edge(u, v);
        parent_edge.push(e);
    }
    ExtractedSubgraph { graph, parent_edge }
}

/// Extracts the subgraph of an [`EdgeSubset`].
pub fn extract_subset(g: &Graph, subset: &EdgeSubset) -> ExtractedSubgraph {
    extract(g, subset.edges())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::ids::NodeId;

    #[test]
    fn extraction_preserves_endpoints_and_mapping() {
        let g = generators::complete(5);
        let chosen: Vec<EdgeId> = vec![EdgeId(1), EdgeId(4), EdgeId(7)];
        let sub = extract(&g, &chosen);
        assert_eq!(sub.graph.num_nodes(), 5);
        assert_eq!(sub.graph.num_edges(), 3);
        for e in sub.graph.edges() {
            let parent = sub.to_parent(e);
            assert_eq!(sub.graph.endpoints(e), g.endpoints(parent));
        }
        assert_eq!(
            sub.edges_to_parent(&[EdgeId(0), EdgeId(2)]),
            vec![EdgeId(1), EdgeId(7)]
        );
    }

    #[test]
    fn empty_extraction() {
        let g = generators::cycle(4);
        let sub = extract(&g, &[]);
        assert_eq!(sub.graph.num_edges(), 0);
        assert_eq!(sub.graph.num_nodes(), 4);
    }

    #[test]
    fn unused_extraction_matches_filtered_extract() {
        let g = generators::complete(5);
        let mut used = vec![false; g.num_edges()];
        used[1] = true;
        used[4] = true;
        let by_flags = extract_unused(&g, &used);
        let survivors: Vec<EdgeId> = g.edges().filter(|e| !used[e.index()]).collect();
        let by_list = extract(&g, &survivors);
        assert_eq!(by_flags.parent_edge, by_list.parent_edge);
        assert_eq!(by_flags.graph.num_edges(), g.num_edges() - 2);
    }

    #[test]
    fn subset_extraction_round_trips() {
        let g = generators::gnm(10, 20, &mut {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(2)
        });
        let subset = EdgeSubset::from_edges(&g, g.edges().filter(|e| e.index() % 2 == 0));
        let sub = extract_subset(&g, &subset);
        assert_eq!(sub.graph.num_edges(), subset.len());
        // Degrees in the subgraph match subset degrees in the parent.
        for v in g.nodes() {
            assert_eq!(sub.graph.degree(v), subset.degree(&g, v));
        }
        let _ = NodeId(0);
    }
}
