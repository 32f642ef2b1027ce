//! Bidirectional line-switched ring (BLSR) — the routing-dependent sibling
//! of the UPSR (the "other variants" the paper's introduction points to).
//!
//! In a BLSR both fiber directions carry working traffic, and each demand
//! is *routed*: clockwise or counter-clockwise, normally the shorter way.
//! Capacity is then per-arc rather than per-pair — a wavelength is feasible
//! iff no directed arc carries more than `k` circuits — so spatially
//! separated demands can share a wavelength "around" the ring and a BLSR
//! wavelength can carry far more than `k` pairs. The SADM rule is
//! unchanged: one ADM per wavelength per node that adds/drops traffic.
//!
//! This module provides the ring, routing, load accounting, and a greedy
//! grooming heuristic, so the repository quantifies what the UPSR
//! assumption costs (see `examples/` and the integration tests).

use crate::demand::{DemandPair, DemandSet};
use crate::ring::{RingArc, UpsrRing};

/// Routing direction on the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Clockwise (the UPSR working direction).
    Clockwise,
    /// Counter-clockwise.
    CounterClockwise,
}

/// A routed symmetric demand: the pair plus the direction its `lo → hi`
/// circuit takes (the `hi → lo` circuit takes the opposite arcs of the
/// *same* direction choice — both circuits occupy the same span set, once
/// per directed fiber).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoutedDemand {
    /// The demand pair.
    pub pair: DemandPair,
    /// Chosen route for the `lo → hi` circuit.
    pub direction: Direction,
}

/// A bidirectional ring: same node/arc geometry as [`UpsrRing`], but both
/// rotation senses carry working traffic.
#[derive(Clone, Copy, Debug)]
pub struct BlsrRing {
    inner: UpsrRing,
}

impl BlsrRing {
    /// A BLSR with `n ≥ 2` nodes.
    pub fn new(n: usize) -> Self {
        BlsrRing {
            inner: UpsrRing::new(n),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    /// The *spans* a routed demand occupies (a span is used by both its
    /// directed circuits, one per fiber, so span load is the right
    /// capacity measure).
    pub fn spans_used(&self, d: RoutedDemand) -> Vec<RingArc> {
        match d.direction {
            Direction::Clockwise => self.inner.arc_path(d.pair.lo(), d.pair.hi()),
            Direction::CounterClockwise => self.inner.arc_path(d.pair.hi(), d.pair.lo()),
        }
    }

    /// The shortest-route choice for a pair (ties go clockwise).
    pub fn shortest_route(&self, pair: DemandPair) -> RoutedDemand {
        let cw = self.inner.clockwise_distance(pair.lo(), pair.hi());
        let ccw = self.inner.num_nodes() - cw;
        RoutedDemand {
            pair,
            direction: if cw <= ccw {
                Direction::Clockwise
            } else {
                Direction::CounterClockwise
            },
        }
    }

    /// Per-span load of a set of routed demands sharing one wavelength.
    pub fn span_loads(&self, demands: &[RoutedDemand]) -> Vec<usize> {
        let mut loads = vec![0usize; self.num_nodes()];
        for &d in demands {
            for span in self.spans_used(d) {
                loads[span.index()] += 1;
            }
        }
        loads
    }

    /// `true` if the routed demands fit one wavelength of grooming factor
    /// `k` (every span load ≤ `k`).
    pub fn fits(&self, demands: &[RoutedDemand], k: usize) -> bool {
        self.span_loads(demands).into_iter().max().unwrap_or(0) <= k
    }

    /// SADMs needed by one wavelength carrying the routed demands.
    pub fn adm_count(&self, demands: &[RoutedDemand]) -> usize {
        let mut seen = vec![false; self.num_nodes()];
        let mut count = 0;
        for d in demands {
            for v in [d.pair.lo(), d.pair.hi()] {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                }
            }
        }
        count
    }
}

/// A BLSR grooming: wavelengths of routed demands.
#[derive(Clone, Debug)]
pub struct BlsrAssignment {
    ring: BlsrRing,
    grooming_factor: usize,
    wavelengths: Vec<Vec<RoutedDemand>>,
}

impl BlsrAssignment {
    /// The wavelengths.
    pub fn wavelengths(&self) -> &[Vec<RoutedDemand>] {
        &self.wavelengths
    }

    /// Number of wavelengths used.
    pub fn num_wavelengths(&self) -> usize {
        self.wavelengths.len()
    }

    /// Total SADM count.
    pub fn sadm_count(&self) -> usize {
        self.wavelengths
            .iter()
            .map(|w| self.ring.adm_count(w))
            .sum()
    }

    /// Validates per-span capacity on every wavelength and (optionally)
    /// demand coverage.
    pub fn validate(&self, demands: Option<&DemandSet>) -> Result<(), String> {
        for (i, w) in self.wavelengths.iter().enumerate() {
            if !self.ring.fits(w, self.grooming_factor) {
                return Err(format!("wavelength {i} exceeds span capacity"));
            }
        }
        if let Some(demands) = demands {
            let mut got: Vec<DemandPair> =
                self.wavelengths.iter().flatten().map(|d| d.pair).collect();
            let mut want: Vec<DemandPair> = demands.pairs().to_vec();
            got.sort_unstable();
            want.sort_unstable();
            if got != want {
                return Err("carried pairs differ from the demand set".into());
            }
        }
        Ok(())
    }
}

/// Greedy BLSR grooming: demands are routed the short way, then placed
/// first-fit into the wavelength needing the fewest new SADMs among those
/// with span capacity left.
pub fn groom_blsr(ring: BlsrRing, demands: &DemandSet, k: usize) -> BlsrAssignment {
    assert!(k > 0, "grooming factor must be positive");
    assert_eq!(ring.num_nodes(), demands.num_nodes(), "size mismatch");
    struct Wave {
        demands: Vec<RoutedDemand>,
        loads: Vec<usize>,
        has_node: Vec<bool>,
    }
    let n = ring.num_nodes();
    let mut waves: Vec<Wave> = Vec::new();
    for &pair in demands.pairs() {
        let routed = ring.shortest_route(pair);
        let spans = ring.spans_used(routed);
        let mut best: Option<(usize, usize)> = None; // (idx, new ADMs)
        for (i, w) in waves.iter().enumerate() {
            if spans.iter().any(|s| w.loads[s.index()] + 1 > k) {
                continue;
            }
            let new_adms = [pair.lo(), pair.hi()]
                .iter()
                .filter(|v| !w.has_node[v.index()])
                .count();
            if best.is_none_or(|(_, b)| new_adms < b) {
                best = Some((i, new_adms));
            }
        }
        let idx = match best {
            Some((i, _)) => i,
            None => {
                waves.push(Wave {
                    demands: Vec::new(),
                    loads: vec![0; n],
                    has_node: vec![false; n],
                });
                waves.len() - 1
            }
        };
        let w = &mut waves[idx];
        for s in &spans {
            w.loads[s.index()] += 1;
        }
        w.has_node[pair.lo().index()] = true;
        w.has_node[pair.hi().index()] = true;
        w.demands.push(routed);
    }
    let assignment = BlsrAssignment {
        ring,
        grooming_factor: k,
        wavelengths: waves.into_iter().map(|w| w.demands).collect(),
    };
    debug_assert!(assignment.validate(Some(demands)).is_ok());
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use grooming_graph::ids::NodeId;

    fn pair(a: u32, b: u32) -> DemandPair {
        DemandPair::new(NodeId(a), NodeId(b))
    }

    #[test]
    fn shortest_route_picks_the_short_way() {
        let ring = BlsrRing::new(8);
        // 0 -> 2: clockwise distance 2 < 6.
        let r = ring.shortest_route(pair(0, 2));
        assert_eq!(r.direction, Direction::Clockwise);
        assert_eq!(ring.spans_used(r).len(), 2);
        // 0 -> 6: clockwise distance 6 > 2 counter-clockwise.
        let r = ring.shortest_route(pair(0, 6));
        assert_eq!(r.direction, Direction::CounterClockwise);
        assert_eq!(ring.spans_used(r).len(), 2);
        // Tie (distance 4 both ways) goes clockwise.
        let r = ring.shortest_route(pair(0, 4));
        assert_eq!(r.direction, Direction::Clockwise);
    }

    #[test]
    fn disjoint_demands_share_a_wavelength_even_at_k1() {
        // On a UPSR, k = 1 means one pair per wavelength. On a BLSR,
        // spatially disjoint short hops coexist.
        let ring = BlsrRing::new(8);
        let demands = DemandSet::from_pairs(8, &[(0, 1), (2, 3), (4, 5), (6, 7)]);
        let a = groom_blsr(ring, &demands, 1);
        a.validate(Some(&demands)).unwrap();
        assert_eq!(a.num_wavelengths(), 1);
        assert_eq!(a.sadm_count(), 8);
    }

    #[test]
    fn overlapping_demands_respect_span_capacity() {
        let ring = BlsrRing::new(6);
        // Three demands all crossing span 0->1.
        let demands = DemandSet::from_pairs(6, &[(0, 1), (0, 2), (0, 1)]);
        let a = groom_blsr(ring, &demands, 1);
        a.validate(Some(&demands)).unwrap();
        assert_eq!(a.num_wavelengths(), 3);
        let b = groom_blsr(ring, &demands, 3);
        assert_eq!(b.num_wavelengths(), 1);
    }

    #[test]
    fn blsr_never_uses_more_wavelengths_than_upsr_rule() {
        // The UPSR rule is "≤ k pairs per wavelength"; per-span capacity is
        // strictly more permissive, so the greedy BLSR grooming needs at
        // most ceil(m/1)… compare against the pair-count bound.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let demands = DemandSet::random(12, 30, &mut rng);
            for k in [2usize, 4, 8] {
                let a = groom_blsr(BlsrRing::new(12), &demands, k);
                a.validate(Some(&demands)).unwrap();
                // Span-capacity lower bound: total span-hops / (n*k).
                let total_spans: usize = demands
                    .pairs()
                    .iter()
                    .map(|&p| {
                        BlsrRing::new(12)
                            .spans_used(BlsrRing::new(12).shortest_route(p))
                            .len()
                    })
                    .sum();
                let lb = total_spans.div_ceil(12 * k);
                assert!(a.num_wavelengths() >= lb);
            }
        }
    }

    #[test]
    fn validate_catches_mismatch() {
        let ring = BlsrRing::new(6);
        let demands = DemandSet::from_pairs(6, &[(0, 1), (2, 3)]);
        let a = groom_blsr(ring, &demands, 4);
        let other = DemandSet::from_pairs(6, &[(0, 1)]);
        assert!(a.validate(Some(&other)).is_err());
        assert!(a.validate(Some(&demands)).is_ok());
    }

    #[test]
    fn adm_count_dedups_nodes() {
        let ring = BlsrRing::new(5);
        let d1 = ring.shortest_route(pair(0, 1));
        let d2 = ring.shortest_route(pair(1, 2));
        assert_eq!(ring.adm_count(&[d1, d2]), 3);
    }
}
