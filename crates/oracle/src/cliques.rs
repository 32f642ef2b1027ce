//! Bron–Kerbosch maximal clique enumeration: the oracle for
//! `grooming_graph::cliques::CliqueResidual`'s branch-and-bound search,
//! and the clique step of the seed `dense_first` in [`crate::improve`].

use grooming_graph::bitset;
use grooming_graph::graph::Graph;
use grooming_graph::ids::NodeId;

struct Ctx<'a> {
    adj: &'a [Vec<u64>],
    n: usize,
    words: usize,
    out: Vec<Vec<NodeId>>,
}

fn expand(ctx: &mut Ctx, r: &mut Vec<NodeId>, p: Vec<u64>, mut x: Vec<u64>) {
    if bitset::count(&p) == 0 && bitset::count(&x) == 0 {
        ctx.out.push(r.clone());
        return;
    }
    // Pivot: vertex of P ∪ X with the most neighbors in P.
    let mut pivot = usize::MAX;
    let mut best = usize::MAX;
    for i in 0..ctx.n {
        if bitset::test(&p, i) || bitset::test(&x, i) {
            let nb = bitset::intersection_count(&p, &ctx.adj[i]);
            let missing = bitset::count(&p) - nb;
            if pivot == usize::MAX || missing < best {
                pivot = i;
                best = missing;
            }
        }
    }
    // Candidates: P minus neighbors of the pivot.
    let mut candidates = Vec::new();
    for i in 0..ctx.n {
        if bitset::test(&p, i) && !bitset::test(&ctx.adj[pivot], i) {
            candidates.push(i);
        }
    }
    let mut p = p;
    for v in candidates {
        let mut p2 = vec![0u64; ctx.words];
        let mut x2 = vec![0u64; ctx.words];
        for w in 0..ctx.words {
            p2[w] = p[w] & ctx.adj[v][w];
            x2[w] = x[w] & ctx.adj[v][w];
        }
        r.push(NodeId::new(v));
        expand(ctx, r, p2, x2);
        r.pop();
        bitset::clear(&mut p, v);
        bitset::set(&mut x, v);
    }
}

/// All maximal cliques of a simple graph, each as an ascending node list;
/// the full list is sorted.
///
/// Bron–Kerbosch with greedy pivoting over `n × n` adjacency bitsets;
/// exponential in the worst case but fast on the sparse-to-moderate
/// instances ring planning produces. The grooming heuristics search a
/// `CliqueResidual` instead; this enumeration is their test oracle.
///
/// ```
/// use grooming_oracle::cliques::maximal_cliques;
/// use grooming_graph::generators;
///
/// // The bowtie has exactly two maximal cliques: its triangles.
/// let g = grooming_graph::graph::Graph::from_edges(
///     5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
/// assert_eq!(maximal_cliques(&g).len(), 2);
/// let _ = generators::petersen(); // triangle-free: 15 edge-cliques
/// ```
///
/// # Panics
/// Panics if `g` has parallel edges.
pub fn maximal_cliques(g: &Graph) -> Vec<Vec<NodeId>> {
    assert!(g.is_simple(), "clique enumeration requires a simple graph");
    let n = g.num_nodes();
    let words = bitset::words_for(n).max(1);
    let mut adj = vec![vec![0u64; words]; n];
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        bitset::set(&mut adj[u.index()], v.index());
        bitset::set(&mut adj[v.index()], u.index());
    }
    let mut ctx = Ctx {
        adj: &adj,
        n,
        words,
        out: Vec::new(),
    };
    let mut p = vec![0u64; words];
    for i in 0..n {
        bitset::set(&mut p, i);
    }
    expand(&mut ctx, &mut Vec::new(), p, vec![0u64; words]);
    for c in &mut ctx.out {
        c.sort_unstable();
    }
    ctx.out.sort();
    ctx.out
}

/// A maximum clique (largest cardinality) as an ascending node list: among
/// all maximum cliques, the lexicographically greatest — the last of
/// [`maximal_cliques`]' sorted list with the largest size. Empty graph →
/// empty clique.
pub fn maximum_clique(g: &Graph) -> Vec<NodeId> {
    maximal_cliques(g)
        .into_iter()
        .max_by_key(|c| c.len())
        .unwrap_or_default()
}

/// `true` if `nodes` induces a clique in `g`.
pub fn is_clique(g: &Graph, nodes: &[NodeId]) -> bool {
    for (i, &u) in nodes.iter().enumerate() {
        for &v in &nodes[i + 1..] {
            if u == v || !g.has_edge(u, v) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use grooming_graph::generators;

    #[test]
    fn triangle_is_its_own_maximal_clique() {
        let g = generators::cycle(3);
        let cs = maximal_cliques(&g);
        assert_eq!(cs, vec![vec![NodeId(0), NodeId(1), NodeId(2)]]);
    }

    #[test]
    fn complete_graph_has_one_maximal_clique() {
        let g = generators::complete(6);
        let cs = maximal_cliques(&g);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].len(), 6);
        assert_eq!(maximum_clique(&g).len(), 6);
    }

    #[test]
    fn cycle_cliques_are_edges() {
        let g = generators::cycle(5);
        let cs = maximal_cliques(&g);
        assert_eq!(cs.len(), 5);
        assert!(cs.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn petersen_maximal_cliques_are_its_edges() {
        // Petersen is triangle-free: 15 maximal cliques of size 2.
        let g = generators::petersen();
        let cs = maximal_cliques(&g);
        assert_eq!(cs.len(), 15);
        assert!(cs.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn bowtie_has_two_triangles() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let cs = maximal_cliques(&g);
        assert_eq!(cs.len(), 2);
        assert!(cs.iter().all(|c| c.len() == 3 && is_clique(&g, c)));
    }

    #[test]
    fn every_enumerated_clique_is_maximal() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut r = StdRng::seed_from_u64(1);
        let g = generators::gnm(14, 40, &mut r);
        let cs = maximal_cliques(&g);
        for c in &cs {
            assert!(is_clique(&g, c));
            // No vertex extends it.
            for v in g.nodes() {
                if c.contains(&v) {
                    continue;
                }
                let extends = c.iter().all(|&u| g.has_edge(u, v));
                assert!(!extends, "clique {c:?} extended by {v:?}");
            }
        }
        // Every edge is inside some clique.
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            assert!(cs.iter().any(|c| c.contains(&u) && c.contains(&v)));
        }
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = Graph::new(0);
        // A single empty clique (R = {}) is reported for the empty graph;
        // maximum_clique maps it to the empty list.
        assert!(maximum_clique(&g).is_empty());
        let g = Graph::new(3);
        let cs = maximal_cliques(&g);
        // Three isolated vertices: three maximal 1-cliques.
        assert_eq!(cs.len(), 3);
        assert!(cs.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn is_clique_rejects_non_cliques() {
        let g = generators::path(4);
        assert!(is_clique(&g, &[NodeId(0), NodeId(1)]));
        assert!(!is_clique(&g, &[NodeId(0), NodeId(2)]));
        assert!(!is_clique(&g, &[NodeId(0), NodeId(0)]));
        assert!(is_clique(&g, &[]));
    }
}
