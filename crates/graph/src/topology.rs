//! Physical mesh topologies and deterministic k-shortest-path routing.
//!
//! Ring grooming needs no layer-0 model: on a UPSR every circle visits
//! every node, so the physical ring disappears from the math. Mesh
//! grooming does not get that luxury — demands are *routed* over an
//! arbitrary weighted topology first, and only then groomed into
//! wavelengths at nodes with finite hardware ([`NodeCaps`]). This module
//! is the layer-0 substrate: a [`Topology`] couples a [`Graph`] with
//! per-link weights and per-node capacities, and
//! [`Topology::k_shortest_paths`] enumerates candidate routes with **Yen's
//! algorithm**.
//!
//! # Determinism contract
//!
//! Routing must be a pure function of the topology — no RNG, no iteration
//! over hash maps, no dependence on worker count — because the solve
//! surface promises bit-identical plans at any parallelism. Two rules
//! deliver that:
//!
//! * every shortest-path query returns the minimum-length path whose
//!   **node sequence is lexicographically smallest** among equals (the
//!   (length, lex-path) order), computed by a reverse Dijkstra followed by
//!   a greedy lex walk;
//! * routes are identified by their node sequences: parallel links never
//!   create "distinct" routes, and Yen's spur step bans the *node pair*
//!   of a used hop (all parallel links at once), so the route list is
//!   invariant under permutations of the input's edge order.
//!
//! Ties between parallel links of equal weight resolve to the smallest
//! [`EdgeId`] when a route is materialized into link ids.
//!
//! # Routing once per topology
//!
//! Each reverse Dijkstra stops as soon as it settles the node its lex
//! walk starts from, which is exact (see `dist_to`). A [`RouteTable`]
//! remembers the answers for one topology and route limit, so a caller
//! that routes over the same fiber plant again pays a lookup instead.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use crate::graph::Graph;
use crate::ids::{EdgeId, NodeId};

/// Hardware capacities of one grooming node.
///
/// Capacities are *per-wavelength-circle* counts, matching the SADM
/// accounting of the ring model: terminating any amount of traffic of one
/// wavelength at a node occupies one add/drop port there, and passing a
/// wavelength through without terminating occupies one unit of switching
/// capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeCaps {
    /// Wavelengths this node can add/drop (terminate) traffic on.
    pub add_drop_ports: u32,
    /// Wavelengths this node can switch through without terminating.
    pub switch_capacity: u32,
}

impl NodeCaps {
    /// A node with no hardware limits (both counters at `u32::MAX`).
    pub const UNLIMITED: NodeCaps = NodeCaps {
        add_drop_ports: u32::MAX,
        switch_capacity: u32::MAX,
    };

    /// A node terminating on at most `ports` wavelengths and switching at
    /// most `switch` through.
    pub fn new(ports: u32, switch: u32) -> Self {
        NodeCaps {
            add_drop_ports: ports,
            switch_capacity: switch,
        }
    }
}

/// A physical mesh: a weighted multigraph of fiber links plus per-node
/// grooming hardware.
#[derive(Clone, Debug)]
pub struct Topology {
    graph: Graph,
    weights: Vec<u32>,
    caps: Vec<NodeCaps>,
}

/// One candidate route: a loopless path as node sequence, the link ids
/// realizing each hop, and its total weighted length.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutePath {
    /// The node sequence, endpoints included.
    pub nodes: Vec<NodeId>,
    /// One link id per hop (`links.len() == nodes.len() - 1`).
    pub links: Vec<EdgeId>,
    /// Total weighted length.
    pub length: u64,
}

impl RoutePath {
    /// Number of hops.
    pub fn num_hops(&self) -> usize {
        self.links.len()
    }
}

impl Topology {
    /// A topology over `graph` with one weight per link and one capacity
    /// record per node.
    ///
    /// # Panics
    /// Panics if the weight or capacity vectors do not match the graph, or
    /// if any link weight is zero (zero-weight links would let the lex
    /// walk cycle). Wire-facing callers validate first via
    /// [`crate::io::parse_topology`], which never panics.
    pub fn new(graph: Graph, weights: Vec<u32>, caps: Vec<NodeCaps>) -> Self {
        assert_eq!(weights.len(), graph.num_edges(), "one weight per link");
        assert_eq!(caps.len(), graph.num_nodes(), "one capacity per node");
        assert!(weights.iter().all(|&w| w >= 1), "link weights must be >= 1");
        Topology {
            graph,
            weights,
            caps,
        }
    }

    /// A topology with unit link weights and unlimited node capacities.
    pub fn uniform(graph: Graph) -> Self {
        let weights = vec![1; graph.num_edges()];
        let caps = vec![NodeCaps::UNLIMITED; graph.num_nodes()];
        Topology::new(graph, weights, caps)
    }

    /// The unidirectional-ring topology on `n` nodes (unit weights,
    /// unlimited capacities): the degenerate mesh on which mesh grooming
    /// must reproduce the UPSR solver exactly.
    ///
    /// # Panics
    /// Panics if `n < 3`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "a ring needs at least 3 nodes");
        Topology::uniform(crate::generators::cycle(n))
    }

    /// The underlying link graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of fiber links.
    pub fn num_links(&self) -> usize {
        self.graph.num_edges()
    }

    /// The weight of link `e`.
    pub fn weight(&self, e: EdgeId) -> u32 {
        self.weights[e.index()]
    }

    /// All link weights, indexed by [`EdgeId`].
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// The capacities of node `v`.
    pub fn caps(&self, v: NodeId) -> NodeCaps {
        self.caps[v.index()]
    }

    /// All node capacities, indexed by [`NodeId`].
    pub fn node_caps(&self) -> &[NodeCaps] {
        &self.caps
    }

    /// `true` if every node is unlimited — capacity repair is a no-op.
    pub fn is_uncapacitated(&self) -> bool {
        self.caps.iter().all(|&c| c == NodeCaps::UNLIMITED)
    }

    /// Reverse Dijkstra into `search.dist`: the distance from every node
    /// *to* `t`, skipping banned nodes and banned node pairs, stopping as
    /// soon as it settles `stop`. `u64::MAX` marks unreachable.
    ///
    /// The early stop is exact for the lex walk from `stop`. The walk
    /// reads only nodes strictly closer to `t` than `stop`, and those are
    /// settled (final) by then. A node left unsettled holds a tentative
    /// distance of at least `dist[stop]`, so it fails the walk's
    /// `dist[u] + w == need` test just as its final distance would.
    fn dist_to(&self, t: NodeId, stop: NodeId, search: &mut Search) {
        let csr = self.graph.csr();
        let Search {
            dist,
            heap,
            banned_node,
            banned_hop,
        } = search;
        dist.clear();
        dist.resize(self.graph.num_nodes(), u64::MAX);
        heap.clear();
        if banned_node[t.index()] {
            return;
        }
        dist[t.index()] = 0;
        heap.push(Reverse((0, t.0)));
        while let Some(Reverse((d, v))) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            if v == stop.0 {
                break;
            }
            for &(u, e) in csr.incident(NodeId(v)) {
                if banned_node[u.index()] || banned_hop.contains(NodeId(v), u) {
                    continue;
                }
                let nd = d + self.weights[e.index()] as u64;
                if nd < dist[u.index()] {
                    dist[u.index()] = nd;
                    heap.push(Reverse((nd, u.0)));
                }
            }
        }
    }

    /// The lex walk: from `s`, repeatedly step to the smallest-id neighbor
    /// that stays on a shortest path to the target of `search.dist`.
    /// Yields the (length, lex-path)-minimal path. Weights are >= 1, so
    /// the distance strictly decreases and the walk cannot cycle.
    fn lex_walk(&self, s: NodeId, search: &Search) -> Option<RoutePath> {
        let Search {
            dist,
            banned_node,
            banned_hop,
            ..
        } = search;
        if dist[s.index()] == u64::MAX {
            return None;
        }
        let csr = self.graph.csr();
        let length = dist[s.index()];
        let mut nodes = vec![s];
        let mut links = Vec::new();
        let mut cur = s;
        while dist[cur.index()] > 0 {
            let need = dist[cur.index()];
            // The smallest next node on a shortest continuation, then the
            // (weight-matching) smallest link id to it.
            let mut best: Option<(NodeId, EdgeId)> = None;
            for &(u, e) in csr.incident(cur) {
                if banned_node[u.index()]
                    || banned_hop.contains(cur, u)
                    || dist[u.index()] == u64::MAX
                {
                    continue;
                }
                let w = self.weights[e.index()] as u64;
                if dist[u.index()] + w != need {
                    continue;
                }
                match best {
                    Some((bu, be)) if (u, e) >= (bu, be) => {}
                    _ => best = Some((u, e)),
                }
            }
            let (u, e) = best?;
            nodes.push(u);
            links.push(e);
            cur = u;
        }
        Some(RoutePath {
            nodes,
            links,
            length,
        })
    }

    /// The shortest `s -> t` path under the (length, lex-path) order, or
    /// `None` if `t` is unreachable (or `s == t`).
    pub fn shortest_path(&self, s: NodeId, t: NodeId) -> Option<RoutePath> {
        if s == t {
            return None;
        }
        let mut search = Search::new(self.num_nodes());
        self.dist_to(t, s, &mut search);
        self.lex_walk(s, &search)
    }

    /// Up to `k` loopless shortest `s -> t` paths by **Yen's algorithm**,
    /// in increasing (length, lex-path) order.
    ///
    /// Routes are identified by node sequence — parallel links never
    /// produce duplicate routes — and the whole computation is seed-free,
    /// so the result is a pure function of the topology (see the module
    /// docs for the determinism contract).
    pub fn k_shortest_paths(&self, s: NodeId, t: NodeId, k: usize) -> Vec<RoutePath> {
        if k == 0 || s == t {
            return Vec::new();
        }
        let mut search = Search::new(self.num_nodes());
        self.dist_to(t, s, &mut search);
        let Some(first) = self.lex_walk(s, &search) else {
            return Vec::new();
        };
        // Every route found so far, accepted or waiting as a candidate: a
        // spur path equal to one of them is not added again.
        let mut seen: HashSet<Vec<NodeId>> = HashSet::from([first.nodes.clone()]);
        let mut accepted = vec![first];
        let mut candidates: Vec<RoutePath> = Vec::new();
        while accepted.len() < k {
            let prev = &accepted[accepted.len() - 1];
            for i in 0..prev.nodes.len() - 1 {
                let spur = prev.nodes[i];
                let root = &prev.nodes[..=i];
                // Ban the next hop of every accepted path sharing this
                // root — as a node pair, so parallel links are banned
                // together and the route list stays edge-order invariant.
                search.banned_hop.clear();
                for p in &accepted {
                    if p.nodes.len() > i && p.nodes[..=i] == *root {
                        search.banned_hop.insert(p.nodes[i], p.nodes[i + 1]);
                    }
                }
                // Ban the root nodes (except the spur) to keep paths
                // loopless.
                for v in &root[..i] {
                    search.banned_node[v.index()] = true;
                }
                self.dist_to(t, spur, &mut search);
                if let Some(tail) = self.lex_walk(spur, &search) {
                    let mut nodes = root[..i].to_vec();
                    nodes.extend_from_slice(&tail.nodes);
                    if !seen.contains(&nodes) {
                        seen.insert(nodes.clone());
                        let mut links = prev.links[..i].to_vec();
                        links.extend_from_slice(&tail.links);
                        let length = prev.links[..i]
                            .iter()
                            .map(|&e| self.weights[e.index()] as u64)
                            .sum::<u64>()
                            + tail.length;
                        candidates.push(RoutePath {
                            nodes,
                            links,
                            length,
                        });
                    }
                }
                for v in &root[..i] {
                    search.banned_node[v.index()] = false;
                }
            }
            // Promote the (length, lex-path)-minimal candidate.
            let Some(best) = candidates
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| (a.length, &a.nodes).cmp(&(b.length, &b.nodes)))
                .map(|(i, _)| i)
            else {
                break;
            };
            accepted.push(candidates.swap_remove(best));
        }
        accepted
    }

    /// The route leaving `s` over `links` in order: its node sequence,
    /// its links and its length. This is how a stored link sequence (see
    /// [`RouteTable`]) becomes a [`RoutePath`] again.
    ///
    /// # Panics
    /// Panics if a link does not leave the node the walk has reached.
    pub fn route_along(&self, s: NodeId, links: &[EdgeId]) -> RoutePath {
        let mut nodes = Vec::with_capacity(links.len() + 1);
        nodes.push(s);
        let mut cur = s;
        let mut length = 0u64;
        for &e in links {
            let (u, v) = self.graph.endpoints(e);
            cur = if u == cur {
                v
            } else {
                assert_eq!(v, cur, "link {e:?} does not leave node {cur:?}");
                u
            };
            nodes.push(cur);
            length += self.weights[e.index()] as u64;
        }
        RoutePath {
            nodes,
            links: links.to_vec(),
            length,
        }
    }
}

/// The buffers one routing query reuses across its reverse Dijkstras:
/// the distance field, the heap, and the spur step's bans.
struct Search {
    dist: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    banned_node: Vec<bool>,
    banned_hop: BannedHops,
}

impl Search {
    fn new(n: usize) -> Self {
        Search {
            dist: Vec::with_capacity(n),
            heap: BinaryHeap::new(),
            banned_node: vec![false; n],
            banned_hop: BannedHops::default(),
        }
    }
}

/// The most link ids a [`RouteTable`] stores (4 MiB of them) before it
/// empties itself and starts over, so a long-lived table stays bounded
/// however many distinct pairs it is asked about.
const ROUTE_TABLE_MAX_LINKS: usize = 1 << 20;

/// Remembered [`Topology::k_shortest_paths`] answers for one topology and
/// one route limit.
///
/// Routing is a pure function of (topology, s, t, k), and a planning
/// service is asked about the same fiber plant again and again, so a
/// table kept between solves (it lives in
/// [`crate::workspace::Workspace`]) makes repeated routing a lookup. Its
/// key is everything routing reads: the node count, the ordered link
/// endpoints, the link weights and the route limit, compared in full on
/// every [`RouteTable::bind`]. Any difference empties the table. Node
/// capacities are not part of the key, since routing ignores them.
///
/// Candidates are stored as link ids in one flat arena, each pair's
/// candidates contiguous and in Yen order. Once the arena would pass 2^20
/// ids (4 MiB), the table empties itself and keeps going. Answers are
/// always exactly what `k_shortest_paths` returns; only the time to
/// produce them depends on what the table holds.
#[derive(Debug, Default)]
pub struct RouteTable {
    nodes: usize,
    links: Vec<(NodeId, NodeId)>,
    weights: Vec<u32>,
    limit: usize,
    /// `(s, t)` → the range of its candidates in `spans`.
    pairs: HashMap<(NodeId, NodeId), (u32, u32)>,
    /// Per stored candidate, the range of its links in `arena`.
    spans: Vec<(u32, u32)>,
    arena: Vec<EdgeId>,
}

impl RouteTable {
    /// Binds the table to `topology` and route limit `limit`, emptying it
    /// unless both match the key its contents were computed under.
    pub fn bind<'a>(&'a mut self, topology: &'a Topology, limit: usize) -> BoundRoutes<'a> {
        let same = self.nodes == topology.num_nodes()
            && self.limit == limit
            && self.links == topology.graph.edge_list()
            && self.weights == topology.weights;
        if !same {
            self.nodes = topology.num_nodes();
            self.limit = limit;
            self.links.clear();
            self.links.extend_from_slice(topology.graph.edge_list());
            self.weights.clear();
            self.weights.extend_from_slice(&topology.weights);
            self.clear_routes();
        }
        BoundRoutes {
            table: self,
            topology,
        }
    }

    fn clear_routes(&mut self) {
        self.pairs.clear();
        self.spans.clear();
        self.arena.clear();
    }
}

/// A [`RouteTable`] bound to one topology and route limit (see
/// [`RouteTable::bind`]).
pub struct BoundRoutes<'a> {
    table: &'a mut RouteTable,
    topology: &'a Topology,
}

impl BoundRoutes<'_> {
    /// The links of each of `topology.k_shortest_paths(s, t, limit)`, in
    /// order, and `true` if the table already held them. On a miss they
    /// are computed and stored.
    pub fn candidates(
        &mut self,
        s: NodeId,
        t: NodeId,
    ) -> (impl ExactSizeIterator<Item = &[EdgeId]> + '_, bool) {
        let table = &mut *self.table;
        let stored = table.pairs.get(&(s, t)).copied();
        let (first, count) = match stored {
            Some(range) => range,
            None => {
                let paths = self.topology.k_shortest_paths(s, t, table.limit);
                let links: usize = paths.iter().map(RoutePath::num_hops).sum();
                if table.arena.len() + links > ROUTE_TABLE_MAX_LINKS {
                    table.clear_routes();
                }
                let range = (table.spans.len() as u32, paths.len() as u32);
                for p in &paths {
                    let start = table.arena.len() as u32;
                    table.arena.extend_from_slice(&p.links);
                    table.spans.push((start, table.arena.len() as u32));
                }
                table.pairs.insert((s, t), range);
                range
            }
        };
        let arena = &table.arena;
        let spans = &table.spans[first as usize..(first + count) as usize];
        let links = spans
            .iter()
            .map(move |&(a, b)| &arena[a as usize..b as usize]);
        (links, stored.is_some())
    }
}

/// A small set of banned (undirected) node pairs — the spur step's "remove
/// this hop" device. Linear scan: Yen bans at most one hop per accepted
/// path, so the set stays tiny and order-independent.
#[derive(Default)]
struct BannedHops {
    pairs: Vec<(NodeId, NodeId)>,
}

impl BannedHops {
    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    fn insert(&mut self, a: NodeId, b: NodeId) {
        let key = Self::key(a, b);
        if !self.pairs.contains(&key) {
            self.pairs.push(key);
        }
    }

    fn contains(&self, a: NodeId, b: NodeId) -> bool {
        self.pairs.contains(&Self::key(a, b))
    }

    fn clear(&mut self) {
        self.pairs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// FNV-1a digest of a route list's node sequences — the golden pin.
    fn digest(routes: &[RoutePath]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |b: u64| {
            h ^= b;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for r in routes {
            eat(r.length);
            eat(r.nodes.len() as u64);
            for v in &r.nodes {
                eat(v.0 as u64 + 1);
            }
        }
        h
    }

    fn weighted(g: Graph, seed: u64) -> Topology {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = (0..g.num_edges()).map(|_| rng.gen_range(1..=4)).collect();
        let caps = vec![NodeCaps::UNLIMITED; g.num_nodes()];
        Topology::new(g, weights, caps)
    }

    #[test]
    fn ring_routes_are_the_two_arcs() {
        let topo = Topology::ring(6);
        let routes = topo.k_shortest_paths(NodeId(0), NodeId(2), 4);
        assert_eq!(routes.len(), 2, "a cycle has exactly two loopless routes");
        assert_eq!(
            routes[0].nodes,
            vec![NodeId(0), NodeId(1), NodeId(2)],
            "short arc first"
        );
        assert_eq!(routes[0].length, 2);
        assert_eq!(routes[1].length, 4);
        assert_eq!(routes[1].nodes.len(), 5);
    }

    #[test]
    fn lex_order_breaks_equal_length_ties() {
        // A 4-cycle: both arcs between opposite corners have length 2; the
        // lex-smaller node sequence must come first.
        let topo = Topology::ring(4);
        let routes = topo.k_shortest_paths(NodeId(0), NodeId(2), 2);
        assert_eq!(routes[0].nodes, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(routes[1].nodes, vec![NodeId(0), NodeId(3), NodeId(2)]);
        assert_eq!(routes[0].length, routes[1].length);
    }

    #[test]
    fn grid_spur_paths_are_loopless_and_ordered() {
        let topo = Topology::uniform(generators::grid(4, 4));
        let routes = topo.k_shortest_paths(NodeId(0), NodeId(15), 8);
        assert_eq!(routes.len(), 8);
        let mut last = (0, Vec::new());
        for r in &routes {
            // Loopless.
            let mut seen = r.nodes.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), r.nodes.len(), "route revisits a node");
            // Hops match links and the length adds up.
            assert_eq!(r.links.len(), r.nodes.len() - 1);
            let len: u64 = r.links.iter().map(|&e| topo.weight(e) as u64).sum();
            assert_eq!(len, r.length);
            for (hop, &e) in r.links.iter().enumerate() {
                let (u, v) = topo.graph().endpoints(e);
                let (a, b) = (r.nodes[hop], r.nodes[hop + 1]);
                assert!((u, v) == (a, b) || (u, v) == (b, a));
            }
            // (length, lex) order.
            let key = (r.length, r.nodes.clone());
            assert!(last < key || last.1.is_empty(), "routes out of order");
            last = key;
        }
        // All six shortest 6-hop monotone paths come before any detour.
        assert!(routes[..6].iter().all(|r| r.length == 6));
    }

    #[test]
    fn parallel_links_resolve_to_smallest_id_and_never_duplicate_routes() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1)); // e0
        g.add_edge(NodeId(0), NodeId(1)); // e1 (parallel)
        g.add_edge(NodeId(1), NodeId(2)); // e2
        let topo = Topology::uniform(g);
        let routes = topo.k_shortest_paths(NodeId(0), NodeId(2), 4);
        assert_eq!(routes.len(), 1, "parallel links are one route");
        assert_eq!(routes[0].links, vec![EdgeId(0), EdgeId(2)]);
    }

    #[test]
    fn unreachable_and_degenerate_queries_return_empty() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        let topo = Topology::uniform(g);
        assert!(topo.k_shortest_paths(NodeId(0), NodeId(3), 3).is_empty());
        assert!(topo.k_shortest_paths(NodeId(0), NodeId(0), 3).is_empty());
        assert!(topo.k_shortest_paths(NodeId(0), NodeId(1), 0).is_empty());
        assert!(topo.shortest_path(NodeId(0), NodeId(3)).is_none());
        assert_eq!(
            topo.shortest_path(NodeId(0), NodeId(1)).unwrap().links,
            vec![EdgeId(0)]
        );
    }

    #[test]
    fn golden_digests_on_pinned_topologies() {
        // Pinned gnm and geometric topologies: any change to the routing
        // order — tie-breaks included — trips these digests. The values
        // are the observed outputs of the initial implementation.
        let g = generators::gnm(24, 60, &mut StdRng::seed_from_u64(7));
        let topo = weighted(g, 7);
        let mut routes = Vec::new();
        for (s, t) in [(0u32, 23u32), (3, 17), (11, 5)] {
            routes.extend(topo.k_shortest_paths(NodeId(s), NodeId(t), 5));
        }
        assert_eq!(digest(&routes), GOLDEN_GNM);

        let g = generators::random_geometric(32, 0.35, &mut StdRng::seed_from_u64(9));
        let topo = Topology::uniform(g);
        let mut routes = Vec::new();
        for (s, t) in [(0u32, 31u32), (8, 19)] {
            routes.extend(topo.k_shortest_paths(NodeId(s), NodeId(t), 4));
        }
        assert_eq!(digest(&routes), GOLDEN_GEOMETRIC);
    }

    // Filled from the first run and pinned ever since.
    const GOLDEN_GNM: u64 = 9558364635370350417;
    const GOLDEN_GEOMETRIC: u64 = 16895635278581779677;

    #[test]
    fn routes_identical_across_repeated_queries() {
        let topo = weighted(generators::gnm(20, 50, &mut StdRng::seed_from_u64(3)), 3);
        let a = topo.k_shortest_paths(NodeId(1), NodeId(18), 6);
        let b = topo.k_shortest_paths(NodeId(1), NodeId(18), 6);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn route_table_starts_over_at_its_cap() {
        // A 3000-node path: a pair's one route spans up to 2999 links, so
        // a few hundred distinct pairs overrun the arena cap. (Limit 1: a
        // spur search on a path explores the whole tail, and this test is
        // about the arena, not about Yen.)
        let topo = Topology::uniform(generators::path(3000));
        let mut table = RouteTable::default();
        let mut cleared = false;
        for s in 0..600u32 {
            let (s, t) = (NodeId(s), NodeId(2999 - s % 7));
            let before = table.arena.len();
            let served: Vec<RoutePath> = {
                let mut bound = table.bind(&topo, 1);
                let (candidates, hit) = bound.candidates(s, t);
                assert!(!hit);
                candidates.map(|links| topo.route_along(s, links)).collect()
            };
            assert_eq!(served, topo.k_shortest_paths(s, t, 1));
            assert!(table.arena.len() <= ROUTE_TABLE_MAX_LINKS);
            cleared |= table.arena.len() < before;
        }
        assert!(cleared, "600 long routes never reached the cap");
        assert!(table.pairs.len() < 600);
    }
}

#[cfg(test)]
mod route_props {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// Routes must be a pure function of the topology, not of the order
    /// edges were inserted: shuffle the edge list, re-add under the
    /// permutation, and the node sequences (and lengths) of every
    /// k-shortest-path query must be unchanged.
    fn shuffled(topo: &Topology, seed: u64) -> Topology {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..topo.num_links()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut g = Graph::new(topo.num_nodes());
        let mut weights = Vec::with_capacity(topo.num_links());
        for &old in &order {
            let e = EdgeId::new(old);
            let (u, v) = topo.graph().endpoints(e);
            g.add_edge(u, v);
            weights.push(topo.weight(e));
        }
        Topology::new(g, weights, topo.node_caps().to_vec())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A route table walked through a random sequence of topologies on
        /// the same nodes answers exactly what a fresh Yen search does,
        /// and is kept exactly when the routing key is unchanged: a
        /// caps-only step keeps it, a real change of a weight, a link's
        /// endpoints, the link order or the route limit empties it.
        #[test]
        fn route_table_never_serves_a_stale_route(seed in any::<u64>()) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(5..=12);
            let m = rng.gen_range(n..=(3 * n).min(n * (n - 1) / 2));
            let mut links = generators::gnm(n, m, &mut rng).edge_list().to_vec();
            let mut weights: Vec<u32> = (0..m).map(|_| rng.gen_range(1..=3)).collect();
            let mut caps = vec![NodeCaps::UNLIMITED; n];
            let mut limit = rng.gen_range(1..=4);
            let mut table = RouteTable::default();
            let mut key = None;
            // The pairs asked since the key last changed: exactly these hit.
            let mut asked = std::collections::HashSet::new();
            for _ in 0..12 {
                match rng.gen_range(0..5) {
                    0 => {
                        let e = rng.gen_range(0..m);
                        weights[e] = weights[e] % 3 + 1;
                    }
                    1 => {
                        let u = rng.gen_range(0..n as u32);
                        let v = (u + rng.gen_range(1..n as u32)) % n as u32;
                        links[rng.gen_range(0..m)] = (NodeId(u), NodeId(v));
                    }
                    2 => {
                        for i in (1..m).rev() {
                            let j = rng.gen_range(0..=i);
                            links.swap(i, j);
                            weights.swap(i, j);
                        }
                    }
                    3 => limit = limit % 4 + 1,
                    _ => {
                        caps[rng.gen_range(0..n)] =
                            NodeCaps::new(rng.gen_range(0..4), rng.gen_range(0..4));
                    }
                }
                let mut g = Graph::new(n);
                for &(u, v) in &links {
                    g.add_edge(u, v);
                }
                let topo = Topology::new(g, weights.clone(), caps.clone());
                let now = Some((links.clone(), weights.clone(), limit));
                if key != now {
                    key = now;
                    asked.clear();
                }
                let mut bound = table.bind(&topo, limit);
                for _ in 0..6 {
                    let s = NodeId(rng.gen_range(0..n as u32));
                    let t = NodeId(rng.gen_range(0..n as u32));
                    let (candidates, hit) = bound.candidates(s, t);
                    let served: Vec<RoutePath> = candidates
                        .map(|links| topo.route_along(s, links))
                        .collect();
                    prop_assert_eq!(served, topo.k_shortest_paths(s, t, limit));
                    prop_assert_eq!(hit, !asked.insert((s, t)));
                }
            }
        }

        /// A reverse Dijkstra that stops once it settles the walk's start
        /// leads the lex walk along exactly the path a full one does, with
        /// banned nodes and hops as in Yen's spur step.
        #[test]
        fn early_stopped_dijkstra_walks_like_a_full_one(seed in any::<u64>()) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(4..=16);
            let m = rng.gen_range(n..=(3 * n).min(n * (n - 1) / 2));
            let g = generators::gnm(n, m, &mut rng);
            let weights = (0..m).map(|_| rng.gen_range(1..=4)).collect();
            let topo = Topology::new(g, weights, vec![NodeCaps::UNLIMITED; n]);
            let t = NodeId(rng.gen_range(0..n as u32));
            let mut search = Search::new(n);
            for v in 0..n {
                search.banned_node[v] = NodeId(v as u32) != t && rng.gen_range(0..6) == 0;
            }
            for _ in 0..rng.gen_range(0..3) {
                let (u, v) = topo.graph().endpoints(EdgeId::new(rng.gen_range(0..m)));
                search.banned_hop.insert(u, v);
            }
            for s in (0..n as u32).map(NodeId) {
                if search.banned_node[s.index()] {
                    continue;
                }
                // No node has id u32::MAX, so this one never stops early.
                topo.dist_to(t, NodeId(u32::MAX), &mut search);
                let full = topo.lex_walk(s, &search);
                topo.dist_to(t, s, &mut search);
                prop_assert_eq!(topo.lex_walk(s, &search), full);
            }
        }

        #[test]
        fn routes_invariant_under_edge_order_permutation(
            seed in any::<u64>(),
            shuffle_seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(6..=16);
            let m = rng.gen_range(n..=(3 * n).min(n * (n - 1) / 2));
            let g = generators::gnm(n, m, &mut rng);
            let weights = (0..m).map(|_| rng.gen_range(1..=3)).collect();
            let topo = Topology::new(g, weights, vec![NodeCaps::UNLIMITED; n]);
            let perm = shuffled(&topo, shuffle_seed);
            let s = NodeId(rng.gen_range(0..n as u32));
            let t = NodeId(rng.gen_range(0..n as u32));
            let a = topo.k_shortest_paths(s, t, 4);
            let b = perm.k_shortest_paths(s, t, 4);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(&x.nodes, &y.nodes);
                prop_assert_eq!(x.length, y.length);
            }
        }

        #[test]
        fn shortest_lengths_equivariant_under_node_relabeling(
            seed in any::<u64>(),
            rot in any::<u32>(),
        ) {
            // Lex tie-breaks follow node ids, so the chosen *path* may
            // differ under relabeling — but the length never does.
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(6..=14);
            let m = rng.gen_range(n..=(3 * n).min(n * (n - 1) / 2));
            let g = generators::gnm(n, m, &mut rng);
            let weights: Vec<u32> = (0..m).map(|_| rng.gen_range(1..=4)).collect();
            let pi = |v: NodeId| NodeId((v.0 + rot % n as u32) % n as u32);
            let mut h = Graph::new(n);
            for e in g.edges() {
                let (u, v) = g.endpoints(e);
                h.add_edge(pi(u), pi(v));
            }
            let t1 = Topology::new(g, weights.clone(), vec![NodeCaps::UNLIMITED; n]);
            let t2 = Topology::new(h, weights, vec![NodeCaps::UNLIMITED; n]);
            let s = NodeId(rng.gen_range(0..n as u32));
            let t = NodeId(rng.gen_range(0..n as u32));
            if s == t { return Ok(()); }
            let a = t1.shortest_path(s, t);
            let b = t2.shortest_path(pi(s), pi(t));
            prop_assert_eq!(a.as_ref().map(|p| p.length), b.as_ref().map(|p| p.length));
        }
    }
}
