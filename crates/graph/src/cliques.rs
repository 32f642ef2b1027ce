//! Clique enumeration and search.
//!
//! The ICPP'06 paper closes by proposing to partition traffic graphs "into
//! sub-graphs which are cliques or close to cliques": a `q`-clique packs
//! `C(q,2)` edges onto `q` SADMs, the densest possible wavelength. This
//! module provides the clique machinery behind that heuristic: maximal
//! clique enumeration (Bron–Kerbosch with pivoting), maximum clique, the
//! sparse residual the iterated peeling searches by branch and bound, and
//! the largest clique usable under a grooming factor (`C(q,2) ≤ k`).

use crate::bitset;
use crate::graph::Graph;
use crate::ids::NodeId;

/// Sparse residual for iterated clique peeling (the `dense_first` grooming
/// heuristic): build it once from the traffic graph, delete the edges of
/// each extracted clique in place, and search the updated residual again.
///
/// Each node keeps the ascending list of its *higher* residual neighbours,
/// all in one flat array, so the structure is O(n + m) however many nodes
/// the graph names. [`maximum_clique`](Self::maximum_clique) returns the
/// same clique as the free [`maximum_clique`] on the surviving edges.
#[derive(Clone, Debug)]
pub struct CliqueResidual {
    /// Node `u`'s higher neighbours are `up[start[u]..start[u] + len[u]]`.
    start: Vec<u32>,
    len: Vec<u32>,
    up: Vec<u32>,
}

impl CliqueResidual {
    /// Builds the residual of a simple graph.
    ///
    /// # Panics
    /// Panics if `g` has parallel edges.
    pub fn from_graph(g: &Graph) -> Self {
        assert!(g.is_simple(), "clique search requires a simple graph");
        let n = g.num_nodes();
        let mut len = vec![0u32; n];
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            len[u.index().min(v.index())] += 1;
        }
        let mut start = Vec::with_capacity(n);
        let mut total = 0u32;
        for &l in &len {
            start.push(total);
            total += l;
        }
        let mut fill = start.clone();
        let mut up = vec![0u32; total as usize];
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            let (lo, hi) = (u.index().min(v.index()), u.index().max(v.index()));
            up[fill[lo] as usize] = hi as u32;
            fill[lo] += 1;
        }
        for u in 0..n {
            let s = start[u] as usize;
            up[s..s + len[u] as usize].sort_unstable();
        }
        CliqueResidual { start, len, up }
    }

    fn higher(&self, u: usize) -> &[u32] {
        let s = self.start[u] as usize;
        &self.up[s..s + self.len[u] as usize]
    }

    /// Removes the edge `{u, v}` from the residual.
    ///
    /// # Panics
    /// Panics if the residual does not hold `{u, v}`.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) {
        let (lo, hi) = (u.index().min(v.index()), u.index().max(v.index()));
        let i = self
            .higher(lo)
            .binary_search(&(hi as u32))
            .expect("the edge is in the residual");
        let s = self.start[lo] as usize;
        let end = s + self.len[lo] as usize;
        self.up.copy_within(s + i + 1..end, s + i);
        self.len[lo] -= 1;
    }

    /// A maximum clique of the residual as an ascending node list: among
    /// all maximum cliques, the lexicographically greatest — the one the
    /// free [`maximum_clique`] returns. Empty residual → empty clique.
    ///
    /// `limit` must be at least the residual's clique number; the search
    /// stops as soon as it holds a clique that large. Deleting edges never
    /// grows a clique, so a peeling loop passes the previous answer's size
    /// (`usize::MAX` on the first call).
    ///
    /// Exact branch and bound: every depth tries node ids in descending
    /// order, so cliques of one size are met in descending lexicographic
    /// order, and a clique is kept only if strictly larger than the best so
    /// far. The first clique of the final size is therefore the
    /// lexicographically greatest, and a branch is cut only when its
    /// candidates cannot beat the best so far.
    pub fn maximum_clique(&self, limit: usize) -> Vec<NodeId> {
        let mut search = Search {
            res: self,
            clique: Vec::new(),
            best: Vec::new(),
            cand: Vec::new(),
            limit,
        };
        for v in (0..self.len.len()).rev() {
            let room = 1 + self.len[v] as usize;
            if room <= search.best.len() {
                continue;
            }
            search.cand.extend_from_slice(self.higher(v));
            if search.visit(v as u32, 0) {
                break;
            }
        }
        search.best.into_iter().map(NodeId).collect()
    }
}

/// Branch-and-bound state of one [`CliqueResidual::maximum_clique`] call.
/// `cand` is a stack of ascending candidate lists, one per depth.
struct Search<'a> {
    res: &'a CliqueResidual,
    clique: Vec<u32>,
    best: Vec<u32>,
    cand: Vec<u32>,
    limit: usize,
}

impl Search<'_> {
    /// Adds `v` to the clique; its candidates are `cand[lo..]` (the common
    /// higher neighbours of the clique and `v`). Returns `true` once the
    /// best clique reaches `limit`. Pops `v` and its candidates on return.
    fn visit(&mut self, v: u32, lo: usize) -> bool {
        self.clique.push(v);
        if self.clique.len() > self.best.len() {
            self.best.clone_from(&self.clique);
            if self.best.len() >= self.limit {
                return true;
            }
        }
        let res = self.res;
        let hi = self.cand.len();
        for i in (lo..hi).rev() {
            let w = self.cand[i];
            let ups = res.higher(w as usize);
            if self.clique.len() + 1 + (hi - i - 1).min(ups.len()) <= self.best.len() {
                continue;
            }
            // Candidates after `w`: the later entries of this depth's
            // list that are also higher neighbours of `w`.
            let (mut a, mut b) = (i + 1, 0);
            while a < hi && b < ups.len() {
                let (x, y) = (self.cand[a], ups[b]);
                if x <= y {
                    a += 1;
                }
                if y <= x {
                    b += 1;
                }
                if x == y {
                    self.cand.push(x);
                }
            }
            if self.clique.len() + 1 + (self.cand.len() - hi) <= self.best.len() {
                self.cand.truncate(hi);
                continue;
            }
            if self.visit(w, hi) {
                return true;
            }
        }
        self.cand.truncate(lo);
        self.clique.pop();
        false
    }
}

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
/// [`CliqueResidual`] instead; this enumeration is their test oracle.
///
/// ```
/// use grooming_graph::cliques::maximal_cliques;
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

/// The largest clique size `q` whose edge count fits a grooming factor:
/// `C(q,2) ≤ k` (at least 2, since a single edge always fits any `k ≥ 1`).
pub fn max_clique_size_for_k(k: usize) -> usize {
    let mut q = 2usize;
    while (q + 1) * q / 2 <= k {
        q += 1;
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

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

    #[test]
    fn clique_size_for_grooming_factor() {
        assert_eq!(max_clique_size_for_k(1), 2);
        assert_eq!(max_clique_size_for_k(2), 2);
        assert_eq!(max_clique_size_for_k(3), 3);
        assert_eq!(max_clique_size_for_k(5), 3);
        assert_eq!(max_clique_size_for_k(6), 4);
        assert_eq!(max_clique_size_for_k(10), 5);
        assert_eq!(max_clique_size_for_k(16), 6); // C(6,2)=15 <= 16 < C(7,2)=21
        assert_eq!(max_clique_size_for_k(64), 11); // C(11,2)=55 <= 64 < 66
    }
}
