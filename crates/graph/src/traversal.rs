//! Connected components.

use crate::graph::Graph;
use crate::ids::NodeId;

/// Component labeling over the full node set: `labels[v]` is the dense id
/// (`0..count`) of `v`'s connected component. Isolated nodes get their own
/// components.
#[derive(Clone, Debug)]
pub struct Components {
    /// Component label per node.
    pub labels: Vec<usize>,
    /// Number of components.
    pub count: usize,
}

impl Components {
    /// Groups nodes by component label, in label order.
    pub fn groups(&self) -> Vec<Vec<NodeId>> {
        let mut groups = vec![Vec::new(); self.count];
        for (i, &c) in self.labels.iter().enumerate() {
            groups[c].push(NodeId::new(i));
        }
        groups
    }

    /// `true` if `u` and `v` are in the same component.
    pub fn same(&self, u: NodeId, v: NodeId) -> bool {
        self.labels[u.index()] == self.labels[v.index()]
    }
}

/// Computes connected components of `g` over the full node set.
pub fn connected_components(g: &Graph) -> Components {
    let csr = g.csr();
    let mut labels = vec![usize::MAX; g.num_nodes()];
    let mut count = 0;
    let mut stack = Vec::new();
    for v in g.nodes() {
        if labels[v.index()] != usize::MAX {
            continue;
        }
        labels[v.index()] = count;
        stack.push(v);
        while let Some(x) = stack.pop() {
            for &(w, _) in csr.incident(x) {
                if labels[w.index()] == usize::MAX {
                    labels[w.index()] = count;
                    stack.push(w);
                }
            }
        }
        count += 1;
    }
    Components { labels, count }
}

/// `true` if `g` is connected (graphs with zero or one node count as
/// connected).
pub fn is_connected(g: &Graph) -> bool {
    g.num_nodes() <= 1 || connected_components(g).count == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn components_count_isolated_nodes() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2)]);
        let c = connected_components(&g);
        assert_eq!(c.count, 3);
        assert!(c.same(NodeId(0), NodeId(2)));
        assert!(!c.same(NodeId(0), NodeId(3)));
        let groups = c.groups();
        assert_eq!(groups[0], vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn connectivity_predicates() {
        assert!(is_connected(&path4()));
        assert!(is_connected(&Graph::new(1)));
        assert!(is_connected(&Graph::new(0)));
        let g = Graph::from_edges(3, &[(0, 1)]);
        assert!(!is_connected(&g)); // node 2 isolated
    }
}
