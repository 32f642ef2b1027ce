//! Bipartiteness and Hopcroft–Karp maximum bipartite matching.
//!
//! Hopcroft–Karp finds maximum matchings of bipartite graphs in
//! `O(E √V)` by an algorithm that shares nothing with Edmonds' blossom
//! search, so the test suite uses it to cross-validate
//! `grooming_graph::matching::maximum_matching` (`Regular_Euler`'s
//! matching step for odd `r`) on bipartite graphs.

use grooming_graph::graph::Graph;
use grooming_graph::ids::NodeId;
use grooming_graph::matching::Matching;
use std::collections::VecDeque;

/// A 2-coloring of a bipartite graph: `side[v]` is `false`/`true` for the
/// two classes (component-by-component, lowest node gets `false`).
#[derive(Clone, Debug)]
pub struct Bipartition {
    /// The side of each node.
    pub side: Vec<bool>,
}

impl Bipartition {
    /// Nodes on the given side.
    pub fn class(&self, side: bool) -> Vec<NodeId> {
        self.side
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == side)
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }
}

/// Returns a bipartition if `g` is bipartite, `None` otherwise (an
/// odd cycle exists).
pub fn bipartition(g: &Graph) -> Option<Bipartition> {
    let n = g.num_nodes();
    let mut side = vec![None; n];
    let mut queue = VecDeque::new();
    for root in g.nodes() {
        if side[root.index()].is_some() {
            continue;
        }
        side[root.index()] = Some(false);
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            let sv = side[v.index()].unwrap();
            for &(w, _) in g.incident(v) {
                match side[w.index()] {
                    None => {
                        side[w.index()] = Some(!sv);
                        queue.push_back(w);
                    }
                    Some(sw) if sw == sv => return None,
                    Some(_) => {}
                }
            }
        }
    }
    Some(Bipartition {
        side: side.into_iter().map(|s| s.unwrap_or(false)).collect(),
    })
}

/// Maximum matching of a **bipartite** graph via Hopcroft–Karp.
///
/// Returns `None` if the graph is not bipartite (use
/// [`grooming_graph::matching::maximum_matching`] instead).
pub fn hopcroft_karp(g: &Graph) -> Option<Matching> {
    let bip = bipartition(g)?;
    let n = g.num_nodes();
    let left: Vec<NodeId> = bip.class(false);
    const NIL: usize = usize::MAX;
    let mut mate = vec![NIL; n];
    let mut dist = vec![usize::MAX; n];

    // BFS layering from free left vertices.
    let bfs = |mate: &[usize], dist: &mut [usize]| -> bool {
        let mut queue = VecDeque::new();
        for &u in &left {
            if mate[u.index()] == NIL {
                dist[u.index()] = 0;
                queue.push_back(u);
            } else {
                dist[u.index()] = usize::MAX;
            }
        }
        let mut found = false;
        while let Some(u) = queue.pop_front() {
            for &(v, _) in g.incident(u) {
                let w = mate[v.index()];
                if w == NIL {
                    found = true;
                } else if dist[w] == usize::MAX {
                    dist[w] = dist[u.index()] + 1;
                    queue.push_back(NodeId::new(w));
                }
            }
        }
        found
    };

    fn dfs(g: &Graph, u: NodeId, mate: &mut [usize], dist: &mut [usize]) -> bool {
        for i in 0..g.incident(u).len() {
            let (v, _) = g.incident(u)[i];
            let w = mate[v.index()];
            let ok = if w == usize::MAX {
                true
            } else if dist[w] == dist[u.index()] + 1 {
                dfs(g, NodeId::new(w), mate, dist)
            } else {
                false
            };
            if ok {
                mate[v.index()] = u.index();
                mate[u.index()] = v.index();
                return true;
            }
        }
        dist[u.index()] = usize::MAX;
        false
    }

    while bfs(&mate, &mut dist) {
        for &u in &left {
            if mate[u.index()] == NIL {
                let _ = dfs(g, u, &mut mate, &mut dist);
            }
        }
    }

    let mates: Vec<Option<NodeId>> = mate
        .iter()
        .map(|&m| (m != NIL).then(|| NodeId::new(m)))
        .collect();
    Some(Matching::from_mate_array(g, mates))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grooming_graph::generators;
    use grooming_graph::matching::maximum_matching;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn even_cycle_is_bipartite_odd_is_not() {
        assert!(bipartition(&generators::cycle(6)).is_some());
        assert!(bipartition(&generators::cycle(5)).is_none());
        assert!(bipartition(&generators::petersen()).is_none());
        assert!(bipartition(&generators::grid(3, 4)).is_some());
    }

    #[test]
    fn bipartition_classes_cover_all_nodes() {
        let g = generators::grid(3, 3);
        let b = bipartition(&g).unwrap();
        assert_eq!(b.class(false).len() + b.class(true).len(), 9);
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            assert_ne!(b.side[u.index()], b.side[v.index()]);
        }
    }

    #[test]
    fn hopcroft_karp_on_grid_matches_blossom() {
        let g = generators::grid(4, 4);
        let hk = hopcroft_karp(&g).unwrap();
        hk.validate(&g).unwrap();
        assert_eq!(hk.len(), maximum_matching(&g).len());
        assert_eq!(hk.len(), 8); // perfect matching on a 4x4 grid
    }

    #[test]
    fn hopcroft_karp_rejects_non_bipartite() {
        assert!(hopcroft_karp(&generators::cycle(5)).is_none());
    }

    #[test]
    fn random_bipartite_graphs_agree_with_blossom() {
        for seed in 0..10u64 {
            let mut r = StdRng::seed_from_u64(seed);
            // Random bipartite graph: left 0..6, right 6..13.
            let mut g = Graph::new(13);
            for u in 0..6u32 {
                for v in 6..13u32 {
                    if r.gen_bool(0.35) {
                        g.add_edge(NodeId(u), NodeId(v));
                    }
                }
            }
            let hk = hopcroft_karp(&g).unwrap();
            hk.validate(&g).unwrap();
            assert!(hk.is_maximal(&g));
            assert_eq!(hk.len(), maximum_matching(&g).len(), "seed {seed}");
        }
    }

    #[test]
    fn star_matching_is_one_edge() {
        let g = generators::star(7);
        let hk = hopcroft_karp(&g).unwrap();
        assert_eq!(hk.len(), 1);
    }

    #[test]
    fn empty_graph_is_bipartite_with_empty_matching() {
        let g = Graph::new(4);
        assert!(bipartition(&g).is_some());
        let hk = hopcroft_karp(&g).unwrap();
        assert!(hk.is_empty());
    }
}
