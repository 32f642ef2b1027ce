//! UPSR protection switching and failure simulation.
//!
//! The "PS" in UPSR: every transmitter bridges its signal onto both the
//! clockwise working ring and the counter-clockwise protection ring; the
//! receiver selects whichever copy arrives. A demand `x → y` therefore has
//! two arc-disjoint routes — the clockwise path and the counter-clockwise
//! path — which together use every span exactly once. Consequences this
//! module makes executable:
//!
//! * any **single span cut** (both fibers of one span severed) is fully
//!   survivable: a demand's two routes never share a span;
//! * a **double span cut** partitions the ring into two arcs; exactly the
//!   demands whose endpoints sit on opposite sides are lost.

use crate::demand::DemandSet;
use crate::ring::{RingArc, UpsrRing};
use grooming_graph::ids::NodeId;

/// A failure: one or more severed spans (a span = the working + protection
/// fiber pair between adjacent nodes; span `i` sits between node `i` and
/// node `i+1 mod n`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// The severed spans.
    pub cut_spans: Vec<RingArc>,
}

impl Failure {
    /// A single-span cut.
    pub fn single(span: RingArc) -> Self {
        Failure {
            cut_spans: vec![span],
        }
    }

    /// A double-span cut.
    pub fn double(a: RingArc, b: RingArc) -> Self {
        Failure {
            cut_spans: vec![a, b],
        }
    }

    fn is_cut(&self, span: RingArc) -> bool {
        self.cut_spans.contains(&span)
    }
}

/// How one directed demand fares under a failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DemandFate {
    /// Working path intact; no switch needed.
    Working,
    /// Working path cut; receiver selects the protection copy.
    SwitchedToProtection,
    /// Both routes cut; traffic lost.
    Lost,
}

/// Survivability report for a demand set under a failure.
#[derive(Clone, Debug)]
pub struct SurvivabilityReport {
    /// Fate of each directed demand, two per pair: `(lo→hi, hi→lo)`.
    pub fates: Vec<(DemandFate, DemandFate)>,
    /// Directed demands still on their working path.
    pub working: usize,
    /// Directed demands switched to protection.
    pub switched: usize,
    /// Directed demands lost.
    pub lost: usize,
}

impl SurvivabilityReport {
    /// `true` if no traffic is lost.
    pub fn fully_survivable(&self) -> bool {
        self.lost == 0
    }
}

/// Fate of the directed demand `from → to` under `failure`.
pub fn directed_fate(ring: &UpsrRing, from: NodeId, to: NodeId, failure: &Failure) -> DemandFate {
    let working_cut = ring
        .arc_path(from, to)
        .into_iter()
        .any(|a| failure.is_cut(a));
    if !working_cut {
        return DemandFate::Working;
    }
    // The protection route uses exactly the complementary spans (the
    // counter-clockwise path from..to traverses the spans of the clockwise
    // path to..from).
    let protection_cut = ring
        .arc_path(to, from)
        .into_iter()
        .any(|a| failure.is_cut(a));
    if protection_cut {
        DemandFate::Lost
    } else {
        DemandFate::SwitchedToProtection
    }
}

/// Simulates `failure` against every demand of `demands`.
pub fn simulate(ring: &UpsrRing, demands: &DemandSet, failure: &Failure) -> SurvivabilityReport {
    assert_eq!(
        ring.num_nodes(),
        demands.num_nodes(),
        "ring and demand set sizes must agree"
    );
    let mut fates = Vec::with_capacity(demands.len());
    let (mut working, mut switched, mut lost) = (0usize, 0usize, 0usize);
    for p in demands.pairs() {
        let f1 = directed_fate(ring, p.lo(), p.hi(), failure);
        let f2 = directed_fate(ring, p.hi(), p.lo(), failure);
        for f in [f1, f2] {
            match f {
                DemandFate::Working => working += 1,
                DemandFate::SwitchedToProtection => switched += 1,
                DemandFate::Lost => lost += 1,
            }
        }
        fates.push((f1, f2));
    }
    SurvivabilityReport {
        fates,
        working,
        switched,
        lost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring6() -> UpsrRing {
        UpsrRing::new(6)
    }

    fn span(i: u32) -> RingArc {
        RingArc { from: i }
    }

    #[test]
    fn single_cut_is_always_survivable() {
        let ring = ring6();
        let demands = DemandSet::all_to_all(6);
        for s in ring.arcs() {
            let rep = simulate(&ring, &demands, &Failure::single(s));
            assert!(rep.fully_survivable(), "span {s:?}");
            assert_eq!(rep.working + rep.switched, 2 * demands.len());
            assert!(rep.switched > 0, "some demand must cross any span");
        }
    }

    #[test]
    fn switch_happens_exactly_when_working_path_crosses_cut() {
        let ring = ring6();
        // Demand 1 -> 4 works clockwise over spans 1,2,3.
        let f = Failure::single(span(2));
        assert_eq!(
            directed_fate(&ring, NodeId(1), NodeId(4), &f),
            DemandFate::SwitchedToProtection
        );
        // Reverse direction 4 -> 1 works over spans 4,5,0: unaffected.
        assert_eq!(
            directed_fate(&ring, NodeId(4), NodeId(1), &f),
            DemandFate::Working
        );
    }

    #[test]
    fn double_cut_loses_exactly_the_separated_pairs() {
        let ring = ring6();
        let demands = DemandSet::all_to_all(6);
        // Cut spans 0 (between 0 and 1) and 3 (between 3 and 4):
        // sides are {1,2,3} and {4,5,0}.
        let rep = simulate(&ring, &demands, &Failure::double(span(0), span(3)));
        let mut lost = 0;
        for (p, &(fate, _)) in demands.pairs().iter().zip(&rep.fates) {
            let side_lo = (1..=3).contains(&p.lo().0);
            let side_hi = (1..=3).contains(&p.hi().0);
            assert_eq!(fate == DemandFate::Lost, side_lo != side_hi, "pair {p}");
            lost += usize::from(fate == DemandFate::Lost);
        }
        assert_eq!(lost, 9); // 3 × 3 cross pairs
    }

    #[test]
    fn double_cut_report_is_consistent() {
        let ring = ring6();
        let demands = DemandSet::all_to_all(6);
        let rep = simulate(&ring, &demands, &Failure::double(span(0), span(3)));
        assert!(!rep.fully_survivable());
        // Lost directed demands = 2 per separated pair.
        assert_eq!(rep.lost, 18);
        assert_eq!(rep.working + rep.switched + rep.lost, 30);
        // Both directions of a separated pair are lost together.
        for (f1, f2) in &rep.fates {
            assert_eq!(
                matches!(f1, DemandFate::Lost),
                matches!(f2, DemandFate::Lost)
            );
        }
    }

    #[test]
    fn same_side_pairs_survive_double_cut() {
        let ring = ring6();
        let f = Failure::double(span(0), span(3));
        // 1 -> 3 lies entirely inside {1,2,3}.
        assert_ne!(
            directed_fate(&ring, NodeId(1), NodeId(3), &f),
            DemandFate::Lost
        );
        assert_ne!(
            directed_fate(&ring, NodeId(3), NodeId(1), &f),
            DemandFate::Lost
        );
    }

    #[test]
    #[should_panic(expected = "sizes must agree")]
    fn mismatched_ring_rejected() {
        let ring = UpsrRing::new(4);
        let demands = DemandSet::all_to_all(6);
        let _ = simulate(&ring, &demands, &Failure::single(span(0)));
    }
}
