//! The core undirected multigraph type.

use crate::csr::Csr;
use crate::ids::{EdgeId, NodeId};
use std::fmt;
use std::sync::OnceLock;

/// An undirected multigraph with dense node and edge ids.
///
/// ```
/// use grooming_graph::graph::Graph;
/// use grooming_graph::ids::NodeId;
///
/// let mut g = Graph::new(3);
/// let e = g.add_edge(NodeId(0), NodeId(1));
/// g.add_edge(NodeId(1), NodeId(2));
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.degree(NodeId(1)), 2);
/// assert_eq!(g.other_endpoint(e, NodeId(0)), NodeId(1));
/// ```
///
/// * Nodes are `0..n` and fixed at construction time.
/// * Edges are appended and never removed; algorithms that need a mutable
///   edge set work on [`crate::view::EdgeSubset`] views instead, which keeps
///   edge ids stable across the whole grooming pipeline (an id allocated by a
///   traffic-graph conversion still identifies the same demand pair after
///   partitioning).
/// * Parallel edges are allowed (the grooming algorithms introduce *virtual*
///   edges that may duplicate existing pairs). Self-loops are rejected:
///   a traffic demand from a node to itself needs no wavelength at all, and
///   none of the paper's machinery is defined for loops.
#[derive(Clone, Default)]
pub struct Graph {
    /// endpoints[e] = (u, v) with u, v the endpoints of edge e (unordered;
    /// stored in insertion order).
    endpoints: Vec<(NodeId, NodeId)>,
    /// adj[v] = list of (neighbor, connecting edge id).
    adj: Vec<Vec<(NodeId, EdgeId)>>,
    /// Flat CSR snapshot of `adj`, built lazily on first [`Graph::csr`] call
    /// and dropped on mutation.
    csr: OnceLock<Csr>,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            endpoints: Vec::new(),
            adj: vec![Vec::new(); n],
            csr: OnceLock::new(),
        }
    }

    /// Creates a graph with `n` nodes and the given endpoint pairs.
    ///
    /// # Panics
    /// Panics if any endpoint is out of range or a pair is a self-loop.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        Self::from_endpoints(n, edges.iter().map(|&(u, v)| (NodeId(u), NodeId(v))))
    }

    /// Creates a graph with `n` nodes and the given endpoint pairs, each
    /// adjacency list allocated once at its final size: a first pass
    /// counts degrees, a second adds the edges in order, so ids and
    /// [`Graph::incident`] order equal those of one [`Graph::add_edge`]
    /// call per pair.
    ///
    /// # Panics
    /// Panics if any endpoint is out of range or a pair is a self-loop.
    pub fn from_endpoints<I>(n: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        let mut degree = vec![0usize; n];
        let mut m = 0;
        for (u, v) in pairs.clone() {
            m += 1;
            // Out-of-range endpoints are left to `add_edge` to report.
            for x in [u, v] {
                if let Some(d) = degree.get_mut(x.index()) {
                    *d += 1;
                }
            }
        }
        let mut g = Graph {
            endpoints: Vec::with_capacity(m),
            adj: degree.into_iter().map(Vec::with_capacity).collect(),
            csr: OnceLock::new(),
        };
        for (u, v) in pairs {
            g.add_edge(u, v);
        }
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges (counting parallels).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// `true` if the graph has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterator over all edge ids in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.num_edges() as u32).map(EdgeId)
    }

    /// Adds an undirected edge `{u, v}` and returns its id.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or on a self-loop.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> EdgeId {
        assert!(
            u.index() < self.num_nodes() && v.index() < self.num_nodes(),
            "edge endpoint out of range: ({u:?}, {v:?}) with n = {}",
            self.num_nodes()
        );
        assert_ne!(u, v, "self-loops are not supported");
        let id = EdgeId::new(self.endpoints.len());
        self.endpoints.push((u, v));
        self.adj[u.index()].push((v, id));
        self.adj[v.index()].push((u, id));
        self.csr.take(); // snapshot is stale now
        id
    }

    /// The flat CSR adjacency snapshot, built on first use and cached until
    /// the next mutation. Reports the same `(neighbor, edge)` pairs in the
    /// same order as [`Graph::incident`]; hot traversal loops prefer it
    /// because all incidence lists live in one allocation.
    #[inline]
    pub fn csr(&self) -> &Csr {
        self.csr.get_or_init(|| Csr::build(self))
    }

    /// The endpoints of edge `e`, in insertion order.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.endpoints[e.index()]
    }

    /// Given edge `e` incident to `v`, returns the other endpoint.
    ///
    /// # Panics
    /// Panics if `v` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let (a, b) = self.endpoints(e);
        if a == v {
            b
        } else if b == v {
            a
        } else {
            panic!("{v:?} is not an endpoint of {e:?} = ({a:?}, {b:?})")
        }
    }

    /// Degree of `v` (parallel edges each count once per copy).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// Incident `(neighbor, edge)` pairs of `v`, in insertion order.
    #[inline]
    pub fn incident(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj[v.index()]
    }

    /// Iterator over the neighbors of `v` (with multiplicity).
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj[v.index()].iter().map(|&(w, _)| w)
    }

    /// `true` if at least one edge joins `u` and `v`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        // Scan the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a.index()].iter().any(|&(w, _)| w == b)
    }

    /// Some edge id joining `u` and `v`, if any.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a.index()]
            .iter()
            .find(|&&(w, _)| w == b)
            .map(|&(_, e)| e)
    }

    /// `true` if the graph has no parallel edges.
    pub fn is_simple(&self) -> bool {
        // Vec-indexed seen-map keyed by the smaller endpoint: bucket `a`
        // holds the larger endpoints already paired with `a`. Degrees are
        // small in practice, so the linear bucket scan beats hashing.
        let mut seen: Vec<Vec<NodeId>> = vec![Vec::new(); self.num_nodes()];
        for &(u, v) in &self.endpoints {
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            let bucket = &mut seen[a.index()];
            if bucket.contains(&b) {
                return false;
            }
            bucket.push(b);
        }
        true
    }

    /// The first edge id of every distinct endpoint pair, in insertion
    /// order — i.e. the edge list with parallel copies dropped. Uses the
    /// same smaller-endpoint seen-map as [`Graph::is_simple`].
    pub fn edges_deduped(&self) -> Vec<EdgeId> {
        let mut seen: Vec<Vec<NodeId>> = vec![Vec::new(); self.num_nodes()];
        let mut out = Vec::with_capacity(self.num_edges());
        for (i, &(u, v)) in self.endpoints.iter().enumerate() {
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            let bucket = &mut seen[a.index()];
            if !bucket.contains(&b) {
                bucket.push(b);
                out.push(EdgeId::new(i));
            }
        }
        out
    }

    /// Maximum degree Δ(G); zero on an empty node set.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Minimum degree δ(G); zero on an empty node set.
    pub fn min_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// The full degree sequence, indexed by node.
    pub fn degrees(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.degrees_into(&mut out);
        out
    }

    /// Writes the degree sequence into `out` (cleared first), reusing its
    /// allocation — the form the sweep hot path uses.
    pub fn degrees_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.adj.iter().map(Vec::len));
    }

    /// `true` if every node has degree exactly `r`.
    pub fn is_regular(&self, r: usize) -> bool {
        self.adj.iter().all(|a| a.len() == r)
    }

    /// If the graph is regular, its common degree.
    pub fn regularity(&self) -> Option<usize> {
        let mut it = self.adj.iter().map(Vec::len);
        let first = it.next()?;
        it.all(|d| d == first).then_some(first)
    }

    /// Number of nodes with odd degree (always even, by handshake).
    pub fn odd_degree_count(&self) -> usize {
        self.adj.iter().filter(|a| a.len() % 2 == 1).count()
    }

    /// Nodes with nonzero degree.
    pub fn non_isolated_nodes(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.non_isolated_nodes_into(&mut out);
        out
    }

    /// Writes the nodes with nonzero degree into `out` (cleared first),
    /// reusing its allocation.
    pub fn non_isolated_nodes_into(&self, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.nodes().filter(|&v| self.degree(v) > 0));
    }

    /// All edges as endpoint pairs (insertion order).
    pub fn edge_list(&self) -> &[(NodeId, NodeId)] {
        &self.endpoints
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, edges={:?})",
            self.num_nodes(),
            self.num_edges(),
            self.endpoints
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn from_endpoints_matches_incremental_construction() {
        // Parallel edges, a hub and an isolated node (5).
        let pairs = [(0, 1), (2, 0), (0, 1), (3, 0), (4, 2), (1, 4), (0, 4)];
        let mut by_add = Graph::new(6);
        for &(u, v) in &pairs {
            by_add.add_edge(NodeId(u), NodeId(v));
        }
        let built = Graph::from_endpoints(6, pairs.iter().map(|&(u, v)| (NodeId(u), NodeId(v))));
        assert_eq!(built.edge_list(), by_add.edge_list());
        for v in by_add.nodes() {
            assert_eq!(built.incident(v), by_add.incident(v));
            assert_eq!(built.incident(v).len(), built.adj[v.index()].capacity());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_endpoints_rejects_out_of_range_endpoints() {
        let _ = Graph::from_edges(2, &[(0, 1), (1, 2)]);
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::new(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_empty());
        assert!(g.is_simple());
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn triangle_degrees_and_edges() {
        let g = triangle();
        assert_eq!(g.num_edges(), 3);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.is_regular(2));
        assert_eq!(g.regularity(), Some(2));
        assert_eq!(g.odd_degree_count(), 0);
    }

    #[test]
    fn endpoints_and_other_endpoint() {
        let g = triangle();
        let (u, v) = g.endpoints(EdgeId(0));
        assert_eq!((u, v), (NodeId(0), NodeId(1)));
        assert_eq!(g.other_endpoint(EdgeId(0), NodeId(0)), NodeId(1));
        assert_eq!(g.other_endpoint(EdgeId(0), NodeId(1)), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "is not an endpoint")]
    fn other_endpoint_rejects_non_endpoint() {
        let g = triangle();
        let _ = g.other_endpoint(EdgeId(0), NodeId(2));
    }

    #[test]
    fn parallel_edges_are_allowed_and_detected() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert!(!g.is_simple());
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(1), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_rejected() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(2));
    }

    #[test]
    fn has_edge_and_find_edge() {
        let g = triangle();
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(g.has_edge(NodeId(2), NodeId(0)));
        assert_eq!(g.find_edge(NodeId(1), NodeId(2)), Some(EdgeId(1)));
        let mut h = Graph::new(3);
        h.add_edge(NodeId(0), NodeId(1));
        assert!(!h.has_edge(NodeId(0), NodeId(2)));
        assert_eq!(h.find_edge(NodeId(1), NodeId(2)), None);
    }

    #[test]
    fn neighbors_respect_multiplicity() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        let ns: Vec<_> = g.neighbors(NodeId(0)).collect();
        assert_eq!(ns, vec![NodeId(1), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn degree_sequence_and_extremes() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.degrees(), vec![3, 1, 1, 1]);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
        assert_eq!(g.odd_degree_count(), 4);
        assert_eq!(g.regularity(), None);
    }

    #[test]
    fn edges_deduped_keeps_first_copy() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1)); // e0
        g.add_edge(NodeId(1), NodeId(0)); // e1, parallel to e0
        g.add_edge(NodeId(1), NodeId(2)); // e2
        g.add_edge(NodeId(0), NodeId(1)); // e3, parallel again
        assert_eq!(g.edges_deduped(), vec![EdgeId(0), EdgeId(2)]);
        let simple = triangle();
        assert_eq!(simple.edges_deduped().len(), simple.num_edges());
    }

    #[test]
    fn into_variants_reuse_buffers() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let mut deg = vec![99usize; 10];
        g.degrees_into(&mut deg);
        assert_eq!(deg, vec![3, 1, 1, 1]);
        let mut nodes = Vec::new();
        g.non_isolated_nodes_into(&mut nodes);
        assert_eq!(nodes.len(), 4);
    }

    #[test]
    fn non_isolated_nodes_skips_isolated() {
        let g = Graph::from_edges(4, &[(1, 2)]);
        assert_eq!(g.non_isolated_nodes(), vec![NodeId(1), NodeId(2)]);
    }
}
