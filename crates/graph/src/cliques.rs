//! Maximum-clique search.
//!
//! The ICPP'06 paper closes by proposing to partition traffic graphs "into
//! sub-graphs which are cliques or close to cliques": a `q`-clique packs
//! `C(q,2)` edges onto `q` SADMs, the densest possible wavelength. This
//! module provides the clique machinery behind that heuristic: the sparse
//! residual the iterated peeling searches by branch and bound, and the
//! largest clique usable under a grooming factor (`C(q,2) ≤ k`).

use crate::graph::Graph;
use crate::ids::NodeId;

/// Sparse residual for iterated clique peeling (the `dense_first` grooming
/// heuristic): build it once from the traffic graph, delete the edges of
/// each extracted clique in place, and search the updated residual again.
///
/// Each node keeps the ascending list of its *higher* residual neighbours,
/// all in one flat array, so the structure is O(n + m) however many nodes
/// the graph names. [`maximum_clique`](Self::maximum_clique) returns the
/// lexicographically greatest maximum clique of the surviving edges.
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
    /// all maximum cliques, the lexicographically greatest. Empty residual
    /// → empty clique.
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
