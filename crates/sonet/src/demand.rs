//! Symmetric unitary traffic demands and their graph/matrix views.
//!
//! A demand pair `{x, y}` stands for the two directed unit demands `(x, y)`
//! and `(y, x)` (the paper's notation). The paper shows that carrying both
//! directions on the same wavelength never costs more SADMs than splitting
//! them, so a demand *set* is exactly a multiset of unordered pairs — i.e.
//! an undirected multigraph on the ring nodes, the **traffic graph**.

use grooming_graph::graph::Graph;
use grooming_graph::ids::NodeId;
use rand::Rng;

/// A symmetric unitary demand pair `{a, b}`, stored with `a < b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DemandPair {
    a: NodeId,
    b: NodeId,
}

impl DemandPair {
    /// Creates a normalized pair.
    ///
    /// # Panics
    /// Panics if `a == b` (a node does not demand traffic to itself).
    pub fn new(a: NodeId, b: NodeId) -> Self {
        assert_ne!(a, b, "demand endpoints must differ");
        if a < b {
            DemandPair { a, b }
        } else {
            DemandPair { a: b, b: a }
        }
    }

    /// The lower endpoint.
    pub fn lo(self) -> NodeId {
        self.a
    }

    /// The higher endpoint.
    pub fn hi(self) -> NodeId {
        self.b
    }

    /// `true` if `v` is one of the endpoints.
    pub fn touches(self, v: NodeId) -> bool {
        self.a == v || self.b == v
    }
}

impl std::fmt::Display for DemandPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{{}, {}}}", self.a, self.b)
    }
}

/// A multiset of symmetric unitary demand pairs on `n` ring nodes.
///
/// ```
/// use grooming_sonet::demand::DemandSet;
/// use grooming_graph::ids::NodeId;
///
/// let mut demands = DemandSet::new(6);
/// demands.add(NodeId(0), NodeId(3));
/// demands.add(NodeId(3), NodeId(0)); // a second unit between 0 and 3
/// demands.add(NodeId(1), NodeId(4));
/// let g = demands.to_traffic_graph();
/// assert_eq!(g.num_edges(), 3); // a multigraph: parallel demands kept
/// assert_eq!(demands.degree(NodeId(0)), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DemandSet {
    n: usize,
    pairs: Vec<DemandPair>,
}

impl DemandSet {
    /// An empty demand set on `n` nodes.
    pub fn new(n: usize) -> Self {
        DemandSet {
            n,
            pairs: Vec::new(),
        }
    }

    /// Builds a demand set from raw endpoint pairs.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or self-demands.
    pub fn from_pairs(n: usize, raw: &[(u32, u32)]) -> Self {
        let mut s = DemandSet::new(n);
        for &(a, b) in raw {
            s.add(NodeId(a), NodeId(b));
        }
        s
    }

    /// Adds the pair `{a, b}` (duplicates are allowed: two units of demand
    /// between the same nodes are two pairs).
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or `a == b`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> DemandPair {
        assert!(
            a.index() < self.n && b.index() < self.n,
            "demand endpoint out of range"
        );
        let p = DemandPair::new(a, b);
        self.pairs.push(p);
        p
    }

    /// Number of ring nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of demand pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` if there are no demands.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The pairs in insertion order.
    pub fn pairs(&self) -> &[DemandPair] {
        &self.pairs
    }

    /// Number of pairs touching node `v` (the node's demand degree `r_v`).
    pub fn degree(&self, v: NodeId) -> usize {
        self.pairs.iter().filter(|p| p.touches(v)).count()
    }

    /// `true` if every node appears in exactly `r` pairs — the paper's
    /// **regular traffic pattern** (all-to-all is `r = n − 1`).
    pub fn is_regular(&self, r: usize) -> bool {
        (0..self.n as u32).all(|v| self.degree(NodeId(v)) == r)
    }

    /// The traffic graph: one node per ring node, one edge per pair. Edge
    /// `i` corresponds to `pairs()[i]`, so partition parts translate back
    /// to demand groups by edge id.
    pub fn to_traffic_graph(&self) -> Graph {
        Graph::from_endpoints(self.n, self.pairs.iter().map(|p| (p.lo(), p.hi())))
    }

    /// Interprets an undirected multigraph as a demand set (inverse of
    /// [`DemandSet::to_traffic_graph`], preserving edge order).
    pub fn from_traffic_graph(g: &Graph) -> Self {
        let mut s = DemandSet::new(g.num_nodes());
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            s.add(u, v);
        }
        s
    }

    /// The all-to-all pattern: every unordered pair once (`r = n − 1`).
    pub fn all_to_all(n: usize) -> Self {
        let mut s = DemandSet::new(n);
        for a in 0..n as u32 {
            for b in (a + 1)..n as u32 {
                s.add(NodeId(a), NodeId(b));
            }
        }
        s
    }

    /// The paper's random model: `m` distinct pairs uniformly at random.
    pub fn random<R: Rng>(n: usize, m: usize, rng: &mut R) -> Self {
        Self::from_traffic_graph(&grooming_graph::generators::gnm(n, m, rng))
    }

    /// A random regular pattern: every node in exactly `r` pairs.
    pub fn random_regular<R: Rng>(n: usize, r: usize, rng: &mut R) -> Self {
        Self::from_traffic_graph(&grooming_graph::generators::random_regular(n, r, rng))
    }

    /// A hubbed pattern: every non-hub node demands one unit to each hub
    /// (the classic access-to-gateway shape of metro rings).
    ///
    /// # Panics
    /// Panics if a hub index is out of range or hubs are not distinct.
    pub fn hubbed(n: usize, hubs: &[u32]) -> Self {
        let mut s = DemandSet::new(n);
        for (i, &h) in hubs.iter().enumerate() {
            assert!((h as usize) < n, "hub {h} out of range");
            assert!(!hubs[..i].contains(&h), "duplicate hub {h}");
        }
        for v in 0..n as u32 {
            if hubs.contains(&v) {
                continue;
            }
            for &h in hubs {
                s.add(NodeId(v), NodeId(h));
            }
        }
        s
    }

    /// A locality pattern: `m` distinct pairs sampled with probability
    /// proportional to `1 / ring_distance^alpha` — near neighbors talk
    /// more, the empirical shape of metro traffic. `alpha = 0` recovers
    /// the uniform model.
    ///
    /// # Panics
    /// Panics if `m` exceeds the number of distinct pairs.
    pub fn locality<R: Rng>(n: usize, m: usize, alpha: f64, rng: &mut R) -> Self {
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(n * (n - 1) / 2);
        let mut weights: Vec<f64> = Vec::with_capacity(pairs.capacity());
        for a in 0..n as u32 {
            for b in (a + 1)..n as u32 {
                let cw = (b - a) as usize;
                let dist = cw.min(n - cw).max(1);
                pairs.push((a, b));
                weights.push(1.0 / (dist as f64).powf(alpha));
            }
        }
        assert!(m <= pairs.len(), "requested more pairs than exist");
        // Weighted sampling without replacement (exponential sort trick).
        let mut keyed: Vec<(f64, usize)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                (-u.ln() / w, i)
            })
            .collect();
        keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut s = DemandSet::new(n);
        for &(_, i) in keyed.iter().take(m) {
            let (a, b) = pairs[i];
            s.add(NodeId(a), NodeId(b));
        }
        s
    }

    /// The symmetric traffic matrix view.
    pub fn to_matrix(&self) -> TrafficMatrix {
        let mut m = TrafficMatrix::zero(self.n);
        for p in &self.pairs {
            m.add(p.lo(), p.hi(), 1);
        }
        m
    }
}

/// A symmetric integer traffic matrix (`counts[a][b]` = units of demand
/// between `a` and `b`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrafficMatrix {
    n: usize,
    counts: Vec<u32>,
}

impl TrafficMatrix {
    /// The all-zero matrix.
    pub fn zero(n: usize) -> Self {
        TrafficMatrix {
            n,
            counts: vec![0; n * n],
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Demand units between `a` and `b`.
    pub fn get(&self, a: NodeId, b: NodeId) -> u32 {
        self.counts[a.index() * self.n + b.index()]
    }

    /// Adds `units` of symmetric demand between `a` and `b`.
    ///
    /// # Panics
    /// Panics if `a == b` or endpoints are out of range.
    pub fn add(&mut self, a: NodeId, b: NodeId, units: u32) {
        assert_ne!(a, b, "diagonal demands are not allowed");
        assert!(a.index() < self.n && b.index() < self.n);
        self.counts[a.index() * self.n + b.index()] += units;
        self.counts[b.index() * self.n + a.index()] += units;
    }

    /// Expands the matrix into a demand set (one pair per unit).
    pub fn to_demand_set(&self) -> DemandSet {
        let mut s = DemandSet::new(self.n);
        for a in 0..self.n as u32 {
            for b in (a + 1)..self.n as u32 {
                for _ in 0..self.get(NodeId(a), NodeId(b)) {
                    s.add(NodeId(a), NodeId(b));
                }
            }
        }
        s
    }

    /// Checks symmetry and a zero diagonal (always true for matrices built
    /// through [`TrafficMatrix::add`]; useful for externally supplied data).
    pub fn is_valid(&self) -> bool {
        for a in 0..self.n {
            if self.counts[a * self.n + a] != 0 {
                return false;
            }
            for b in 0..self.n {
                if self.counts[a * self.n + b] != self.counts[b * self.n + a] {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pairs_normalize() {
        let p = DemandPair::new(NodeId(5), NodeId(2));
        assert_eq!(p.lo(), NodeId(2));
        assert_eq!(p.hi(), NodeId(5));
        assert!(p.touches(NodeId(5)) && p.touches(NodeId(2)));
        assert!(!p.touches(NodeId(3)));
        assert_eq!(p, DemandPair::new(NodeId(2), NodeId(5)));
        assert_eq!(p.to_string(), "{2, 5}");
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn self_demand_rejected() {
        let _ = DemandPair::new(NodeId(1), NodeId(1));
    }

    #[test]
    fn demand_set_basics_and_degree() {
        let s = DemandSet::from_pairs(4, &[(0, 1), (1, 2), (1, 3)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.degree(NodeId(1)), 3);
        assert_eq!(s.degree(NodeId(0)), 1);
        assert!(!s.is_regular(1));
    }

    #[test]
    fn duplicates_are_counted() {
        let s = DemandSet::from_pairs(3, &[(0, 1), (1, 0)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.degree(NodeId(0)), 2);
    }

    #[test]
    fn traffic_graph_round_trip_preserves_order() {
        let s = DemandSet::from_pairs(5, &[(0, 3), (2, 1), (3, 4)]);
        let g = s.to_traffic_graph();
        assert_eq!(g.num_edges(), 3);
        let back = DemandSet::from_traffic_graph(&g);
        assert_eq!(back.pairs(), s.pairs());
    }

    #[test]
    fn all_to_all_is_regular() {
        let s = DemandSet::all_to_all(6);
        assert_eq!(s.len(), 15);
        assert!(s.is_regular(5));
    }

    #[test]
    fn random_regular_demands_are_regular() {
        let mut r = StdRng::seed_from_u64(4);
        let s = DemandSet::random_regular(12, 5, &mut r);
        assert!(s.is_regular(5));
        assert_eq!(s.len(), 12 * 5 / 2);
    }

    #[test]
    fn random_demands_have_exact_count() {
        let mut r = StdRng::seed_from_u64(4);
        let s = DemandSet::random(10, 17, &mut r);
        assert_eq!(s.len(), 17);
        assert_eq!(s.num_nodes(), 10);
    }

    #[test]
    fn hubbed_pattern_shape() {
        let s = DemandSet::hubbed(8, &[0, 4]);
        assert_eq!(s.len(), 6 * 2);
        assert_eq!(s.degree(NodeId(0)), 6);
        assert_eq!(s.degree(NodeId(4)), 6);
        assert_eq!(s.degree(NodeId(1)), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate hub")]
    fn hubbed_rejects_duplicate_hubs() {
        let _ = DemandSet::hubbed(6, &[1, 1]);
    }

    #[test]
    fn locality_pattern_prefers_short_hops() {
        let mut r = StdRng::seed_from_u64(1);
        let n = 24;
        let m = 60;
        let strong = DemandSet::locality(n, m, 3.0, &mut r);
        let uniform = DemandSet::locality(n, m, 0.0, &mut r);
        assert_eq!(strong.len(), m);
        assert_eq!(uniform.len(), m);
        let mean_dist = |s: &DemandSet| -> f64 {
            s.pairs()
                .iter()
                .map(|p| {
                    let cw = (p.hi().0 - p.lo().0) as usize;
                    cw.min(n - cw) as f64
                })
                .sum::<f64>()
                / s.len() as f64
        };
        assert!(
            mean_dist(&strong) < mean_dist(&uniform),
            "alpha=3 should shorten hops: {} vs {}",
            mean_dist(&strong),
            mean_dist(&uniform)
        );
    }

    #[test]
    fn locality_pairs_are_distinct() {
        let mut r = StdRng::seed_from_u64(2);
        let s = DemandSet::locality(10, 45, 2.0, &mut r);
        assert_eq!(s.len(), 45); // every pair exactly once
        assert!(s.to_traffic_graph().is_simple());
    }

    #[test]
    fn matrix_round_trip() {
        let s = DemandSet::from_pairs(4, &[(0, 1), (0, 1), (2, 3)]);
        let m = s.to_matrix();
        assert!(m.is_valid());
        assert_eq!(m.get(NodeId(0), NodeId(1)), 2);
        assert_eq!(m.get(NodeId(1), NodeId(0)), 2);
        assert_eq!(m.get(NodeId(2), NodeId(3)), 1);
        let s2 = m.to_demand_set();
        assert_eq!(s2.len(), 3);
        assert_eq!(s2.to_matrix(), m);
    }

    #[test]
    fn invalid_matrix_detected() {
        let mut m = TrafficMatrix::zero(3);
        m.counts[1] = 2; // asymmetric poke
        assert!(!m.is_valid());
        let mut d = TrafficMatrix::zero(2);
        d.counts[0] = 1; // diagonal poke
        assert!(!d.is_valid());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn demand_out_of_range_rejected() {
        let mut s = DemandSet::new(3);
        s.add(NodeId(0), NodeId(3));
    }
}
