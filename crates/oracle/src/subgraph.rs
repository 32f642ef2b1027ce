//! Edge-list subgraph extraction: the seed `dense_first` in
//! [`crate::improve`] re-extracts its residual with [`extract`] every
//! peeling round, and the tests use it to build subgraphs by edge list.
//! Production code extracts leftovers with
//! `grooming_graph::subgraph::extract_unused`.

use grooming_graph::graph::Graph;
use grooming_graph::ids::EdgeId;
use grooming_graph::subgraph::ExtractedSubgraph;
use grooming_graph::view::EdgeSubset;

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

#[cfg(test)]
mod tests {
    use super::*;
    use grooming_graph::generators;
    use grooming_graph::ids::NodeId;
    use grooming_graph::subgraph::extract_unused;

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
