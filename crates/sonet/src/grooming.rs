//! Grooming assignments: demand pairs placed on wavelengths, validated
//! against ring capacity, with SADM accounting.

use crate::channel::WavelengthChannel;
use crate::demand::{DemandPair, DemandSet};
use crate::ring::UpsrRing;
use crate::stats::RingCostReport;
use grooming_graph::ids::NodeId;

/// Why a grooming assignment is invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroomingError {
    /// A wavelength exceeds the grooming factor on some arc.
    Overloaded {
        /// Index of the offending wavelength.
        wavelength: usize,
        /// Its maximum per-arc load.
        load: usize,
        /// The grooming factor it had to respect.
        grooming_factor: usize,
    },
    /// The multiset of groomed pairs differs from the demand set.
    DemandMismatch {
        /// Human-readable discrepancy description.
        detail: String,
    },
    /// A pair references a node outside the ring.
    NodeOutOfRange {
        /// The offending pair.
        pair: DemandPair,
    },
}

impl std::fmt::Display for GroomingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroomingError::Overloaded {
                wavelength,
                load,
                grooming_factor,
            } => write!(
                f,
                "wavelength {wavelength} carries load {load} > grooming factor {grooming_factor}"
            ),
            GroomingError::DemandMismatch { detail } => {
                write!(f, "groomed pairs do not match the demand set: {detail}")
            }
            GroomingError::NodeOutOfRange { pair } => {
                write!(f, "pair {pair} references a node outside the ring")
            }
        }
    }
}

impl std::error::Error for GroomingError {}

/// A complete grooming: every demand pair assigned to a wavelength.
#[derive(Clone, Debug)]
pub struct GroomingAssignment {
    ring: UpsrRing,
    grooming_factor: usize,
    channels: Vec<WavelengthChannel>,
}

impl GroomingAssignment {
    /// Creates an assignment from per-wavelength pair groups.
    pub fn new(ring: UpsrRing, grooming_factor: usize, groups: Vec<Vec<DemandPair>>) -> Self {
        GroomingAssignment {
            ring,
            grooming_factor,
            channels: groups
                .into_iter()
                .map(WavelengthChannel::from_pairs)
                .collect(),
        }
    }

    /// The ring this assignment lives on.
    pub fn ring(&self) -> &UpsrRing {
        &self.ring
    }

    /// The grooming factor each wavelength must respect.
    pub fn grooming_factor(&self) -> usize {
        self.grooming_factor
    }

    /// The wavelengths.
    pub fn channels(&self) -> &[WavelengthChannel] {
        &self.channels
    }

    /// Number of wavelengths used.
    pub fn num_wavelengths(&self) -> usize {
        self.channels.len()
    }

    /// Total SADMs across all wavelengths — the paper's objective.
    pub fn sadm_count(&self) -> usize {
        self.channels.iter().map(|c| c.adm_count(&self.ring)).sum()
    }

    /// SADMs required at a given node (one per wavelength it adds/drops).
    pub fn sadm_at(&self, v: NodeId) -> usize {
        self.channels
            .iter()
            .filter(|c| c.pairs().iter().any(|p| p.touches(v)))
            .count()
    }

    /// Total optical bypasses (node × wavelength combinations with no ADM).
    pub fn bypass_count(&self) -> usize {
        self.channels
            .iter()
            .map(|c| c.bypass_count(&self.ring))
            .sum()
    }

    /// Validates capacity and (optionally) demand coverage.
    ///
    /// When `demands` is given, the multiset of groomed pairs must equal
    /// the demand multiset exactly — every demand groomed once, nothing
    /// invented.
    pub fn validate(&self, demands: Option<&DemandSet>) -> Result<(), GroomingError> {
        let n = self.ring.num_nodes();
        for (i, ch) in self.channels.iter().enumerate() {
            for p in ch.pairs() {
                if p.hi().index() >= n {
                    return Err(GroomingError::NodeOutOfRange { pair: *p });
                }
            }
            let load = ch.max_arc_load(&self.ring);
            if load > self.grooming_factor {
                return Err(GroomingError::Overloaded {
                    wavelength: i,
                    load,
                    grooming_factor: self.grooming_factor,
                });
            }
        }
        if let Some(demands) = demands {
            let groomed = self.channels.iter().flat_map(|c| c.pairs().iter().copied());
            let wanted = demands.pairs().iter().copied();
            if !same_multiset(n.max(demands.num_nodes()), wanted, groomed) {
                return Err(GroomingError::DemandMismatch {
                    detail: format!(
                        "groomed {} pairs, demand set has {}",
                        self.channels
                            .iter()
                            .map(WavelengthChannel::len)
                            .sum::<usize>(),
                        demands.len()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Builds the cost report for this assignment.
    pub fn report(&self) -> RingCostReport {
        let n = self.ring.num_nodes();
        // One pass over the channels instead of one `sadm_at` scan per
        // ring node: a channel's ADM nodes each take one SADM, and every
        // other (node, wavelength) combination is a bypass.
        let mut per_node = vec![0usize; n];
        let mut mark = vec![usize::MAX; n];
        for (i, ch) in self.channels.iter().enumerate() {
            for p in ch.pairs() {
                for v in [p.lo(), p.hi()] {
                    if mark[v.index()] != i {
                        mark[v.index()] = i;
                        per_node[v.index()] += 1;
                    }
                }
            }
        }
        let sadm_total: usize = per_node.iter().sum();
        let bypass_total = n * self.num_wavelengths() - sadm_total;
        let capacity = self.num_wavelengths() * self.grooming_factor;
        let used: usize = self.channels.iter().map(WavelengthChannel::len).sum();
        RingCostReport {
            nodes: n,
            grooming_factor: self.grooming_factor,
            wavelengths: self.num_wavelengths(),
            sadm_total,
            bypass_total,
            per_node_adms: per_node,
            pairs_carried: used,
            capacity_pairs: capacity,
        }
    }

    /// The naive no-grooming baseline for the same demands: one dedicated
    /// wavelength per demand pair (2 SADMs each). Useful to quantify what
    /// grooming saves.
    pub fn dedicated(ring: UpsrRing, grooming_factor: usize, demands: &DemandSet) -> Self {
        GroomingAssignment::new(
            ring,
            grooming_factor,
            demands.pairs().iter().map(|&p| vec![p]).collect(),
        )
    }
}

/// `true` if `groomed` holds exactly the pairs of `wanted`, with the same
/// multiplicities; every endpoint must be below `n`. Both sides are bucketed
/// by their `lo` node (a counting sort), then each bucket's `hi` values are
/// counted up for `wanted` and back down for `groomed` in one shared
/// `n`-sized tally: O(n + m), no comparison sort.
fn same_multiset(
    n: usize,
    wanted: impl Iterator<Item = DemandPair> + Clone,
    groomed: impl Iterator<Item = DemandPair> + Clone,
) -> bool {
    let (want_start, want_hi) = bucket_by_lo(n, wanted);
    let (got_start, got_hi) = bucket_by_lo(n, groomed);
    let mut tally = vec![0i32; n];
    for lo in 0..n {
        let want = &want_hi[want_start[lo] as usize..want_start[lo + 1] as usize];
        let got = &got_hi[got_start[lo] as usize..got_start[lo + 1] as usize];
        if want.len() != got.len() {
            return false;
        }
        for &h in want {
            tally[h as usize] += 1;
        }
        for &h in got {
            tally[h as usize] -= 1;
        }
        // Equal bucket sizes make the tally sum to zero, and slots only
        // `want` touched are positive, so it is all zero iff every slot
        // `got` touched is.
        let same = got.iter().all(|&h| tally[h as usize] == 0);
        for &h in want.iter().chain(got) {
            tally[h as usize] = 0;
        }
        if !same {
            return false;
        }
    }
    true
}

/// Counting sort of `pairs` by `lo` node: bucket `lo` of the returned `hi`
/// list is `hi[start[lo]..start[lo + 1]]`.
fn bucket_by_lo(n: usize, pairs: impl Iterator<Item = DemandPair> + Clone) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; n + 1];
    for p in pairs.clone() {
        start[p.lo().index() + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut fill = start.clone();
    let mut hi = vec![0u32; start[n] as usize];
    for p in pairs {
        let slot = &mut fill[p.lo().index()];
        hi[*slot as usize] = p.hi().0;
        *slot += 1;
    }
    (start, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(a: u32, b: u32) -> DemandPair {
        DemandPair::new(NodeId(a), NodeId(b))
    }

    fn demands() -> DemandSet {
        DemandSet::from_pairs(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    }

    #[test]
    fn two_triangles_on_two_wavelengths() {
        let ring = UpsrRing::new(6);
        let d = demands();
        let a = GroomingAssignment::new(
            ring,
            3,
            vec![
                vec![pair(0, 1), pair(1, 2), pair(2, 0)],
                vec![pair(3, 4), pair(4, 5), pair(5, 3)],
            ],
        );
        a.validate(Some(&d)).unwrap();
        assert_eq!(a.num_wavelengths(), 2);
        assert_eq!(a.sadm_count(), 6);
        assert_eq!(a.bypass_count(), 2 * 6 - 6);
        assert_eq!(a.sadm_at(NodeId(0)), 1);
    }

    #[test]
    fn overload_detected() {
        let ring = UpsrRing::new(6);
        let a = GroomingAssignment::new(ring, 2, vec![vec![pair(0, 1), pair(1, 2), pair(2, 0)]]);
        match a.validate(None) {
            Err(GroomingError::Overloaded {
                wavelength: 0,
                load: 3,
                grooming_factor: 2,
            }) => {}
            other => panic!("expected overload, got {other:?}"),
        }
    }

    #[test]
    fn demand_mismatch_detected() {
        let ring = UpsrRing::new(6);
        let d = demands();
        let a = GroomingAssignment::new(ring, 3, vec![vec![pair(0, 1)]]);
        assert!(matches!(
            a.validate(Some(&d)),
            Err(GroomingError::DemandMismatch { .. })
        ));
    }

    #[test]
    fn bucketed_multiset_check_matches_sorting() {
        // Random multisets over a few nodes (so repeats are common), each
        // compared with itself shuffled across channels, with one pair
        // swapped for another, and with one pair dropped.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as u32
        };
        for case in 0..400 {
            let n = 3 + next(6);
            let m = next(24) as usize;
            let pairs: Vec<(u32, u32)> = (0..m)
                .map(|_| {
                    let a = next(n);
                    (a, (a + 1 + next(n - 1)) % n)
                })
                .collect();
            let d = DemandSet::from_pairs(n as usize, &pairs);
            let mut groomed: Vec<DemandPair> = d.pairs().to_vec();
            groomed.reverse();
            match case % 3 {
                1 if m > 0 => {
                    let a = next(n);
                    groomed[0] = pair(a, (a + 1 + next(n - 1)) % n);
                }
                2 if m > 0 => {
                    groomed.pop();
                }
                _ => {}
            }
            let mut want = d.pairs().to_vec();
            let mut got = groomed.clone();
            want.sort_unstable();
            got.sort_unstable();
            let channels = groomed.chunks(4).map(<[DemandPair]>::to_vec).collect();
            let a = GroomingAssignment::new(UpsrRing::new(n as usize), 4, channels);
            assert_eq!(a.validate(Some(&d)).is_ok(), want == got, "case {case}");
        }
    }

    #[test]
    fn out_of_range_pair_detected() {
        let ring = UpsrRing::new(3);
        let a = GroomingAssignment::new(ring, 4, vec![vec![pair(0, 5)]]);
        assert!(matches!(
            a.validate(None),
            Err(GroomingError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn dedicated_baseline_costs_two_adms_per_pair() {
        let ring = UpsrRing::new(6);
        let d = demands();
        let a = GroomingAssignment::dedicated(ring, 3, &d);
        a.validate(Some(&d)).unwrap();
        assert_eq!(a.num_wavelengths(), 6);
        assert_eq!(a.sadm_count(), 12);
    }

    #[test]
    fn report_is_consistent() {
        let ring = UpsrRing::new(6);
        let d = demands();
        let a = GroomingAssignment::new(
            ring,
            3,
            vec![
                vec![pair(0, 1), pair(1, 2), pair(2, 0)],
                vec![pair(3, 4), pair(4, 5), pair(5, 3)],
            ],
        );
        let r = a.report();
        assert_eq!(r.sadm_total, 6);
        assert_eq!(r.wavelengths, 2);
        assert_eq!(r.pairs_carried, d.len());
        assert_eq!(r.capacity_pairs, 6);
        assert_eq!(r.per_node_adms.iter().sum::<usize>(), r.sadm_total);
        assert!((r.utilization() - 1.0).abs() < 1e-12);
    }
}
