//! Online (dynamic) grooming: demands arrive one at a time and must be
//! assigned to a wavelength immediately, without re-arranging earlier
//! traffic — the operational reality the static paper abstracts away, and
//! the classic follow-up problem in the grooming literature.
//!
//! The groomer is first-fit with SADM affinity: among wavelengths with
//! spare capacity, pick the one needing the fewest new ADMs (ties to the
//! fullest); open a new wavelength otherwise. The affinity lookup goes
//! through a node → wavelengths index, so provisioning touches only the
//! waves that already carry an endpoint — not all `W` of them. Demands
//! depart through [`OnlineGroomer::remove`] (deterministic in-place slot
//! vacation), and [`OnlineGroomer::snapshot`] extracts the state as a
//! `(demands, partition)` pair — the prior-plan input of a warm-start
//! `Instance::Reconfigure` solve.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use grooming_graph::ids::EdgeId;
use grooming_sonet::demand::{DemandPair, DemandSet};
use grooming_sonet::grooming::GroomingAssignment;
use grooming_sonet::ring::UpsrRing;

use crate::partition::EdgePartition;

/// Incremental grooming state.
///
/// ```
/// use grooming::online::OnlineGroomer;
/// use grooming_sonet::demand::DemandPair;
/// use grooming_graph::ids::NodeId;
///
/// let mut groomer = OnlineGroomer::new(8, 4);
/// let lambda = groomer.add(DemandPair::new(NodeId(0), NodeId(3)));
/// assert_eq!(lambda, 0);
/// groomer.add(DemandPair::new(NodeId(0), NodeId(5))); // shares node 0
/// assert_eq!(groomer.num_wavelengths(), 1);
/// assert_eq!(groomer.sadm_count(), 3);
/// assert_eq!(groomer.remove(DemandPair::new(NodeId(5), NodeId(0))), Some(0));
/// assert_eq!(groomer.sadm_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct OnlineGroomer {
    n: usize,
    k: usize,
    waves: Vec<Wave>,
    /// Node → wavelengths currently deploying an ADM there (unordered,
    /// duplicate-free) — the affinity index.
    node_waves: Vec<Vec<u32>>,
    /// Per fill level `f < k`, a lazy min-index heap of waves that entered
    /// that level. Entries go stale when a wave's fill changes; queries
    /// pop stale tops. Answers "fullest non-full wave, ties to the lowest
    /// index" without scanning all `W` waves when no affinity wave exists.
    by_fill: Vec<BinaryHeap<Reverse<u32>>>,
}

#[derive(Clone, Debug)]
struct Wave {
    pairs: Vec<DemandPair>,
    has_node: Vec<bool>,
    adms: usize,
}

impl OnlineGroomer {
    /// A groomer for an `n`-node ring at grooming factor `k`.
    ///
    /// # Panics
    /// Panics if `k == 0` or `n < 2`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k > 0, "grooming factor must be positive");
        assert!(n >= 2, "a ring needs at least 2 nodes");
        OnlineGroomer {
            n,
            k,
            waves: Vec::new(),
            node_waves: vec![Vec::new(); n],
            by_fill: (0..k).map(|_| BinaryHeap::new()).collect(),
        }
    }

    /// Provisions one demand pair; returns the wavelength it landed on.
    ///
    /// Selection is unchanged from the full-scan implementation — fewest
    /// new ADMs, ties to the fullest, then to the lowest index — but only
    /// waves holding an endpoint (via the node index) are scored; when
    /// none qualifies, every non-full wave needs 2 new ADMs and the
    /// fill-level heaps answer the tie-break directly.
    ///
    /// # Panics
    /// Panics if an endpoint is outside the ring.
    pub fn add(&mut self, pair: DemandPair) -> usize {
        assert!(
            pair.hi().index() < self.n,
            "demand endpoint outside the ring"
        );
        let (lo, hi) = (pair.lo(), pair.hi());
        let mut best: Option<(usize, usize, usize)> = None; // (idx, new_adms, fill)
        for &wi in self.node_waves[lo.index()]
            .iter()
            .chain(&self.node_waves[hi.index()])
        {
            let i = wi as usize;
            let w = &self.waves[i];
            if w.pairs.len() >= self.k {
                continue;
            }
            let new_adms = [lo, hi].iter().filter(|v| !w.has_node[v.index()]).count();
            let better = match best {
                None => true,
                Some((bi, bn, bfill)) => {
                    new_adms < bn
                        || (new_adms == bn
                            && (w.pairs.len() > bfill || (w.pairs.len() == bfill && i < bi)))
                }
            };
            if better {
                best = Some((i, new_adms, w.pairs.len()));
            }
        }
        let idx = match best {
            // A wave holding an endpoint always beats one holding none
            // (new_adms ≤ 1 < 2), so the fallback is consulted only when
            // no indexed wave has capacity.
            Some((i, _, _)) => i,
            None => match self.best_nonfull() {
                Some(i) => i,
                None => {
                    self.waves.push(Wave {
                        pairs: Vec::new(),
                        has_node: vec![false; self.n],
                        adms: 0,
                    });
                    self.waves.len() - 1
                }
            },
        };
        let w = &mut self.waves[idx];
        for v in [lo, hi] {
            if !w.has_node[v.index()] {
                w.has_node[v.index()] = true;
                w.adms += 1;
                self.node_waves[v.index()].push(idx as u32);
            }
        }
        w.pairs.push(pair);
        let fill = w.pairs.len();
        if fill < self.k {
            self.by_fill[fill].push(Reverse(idx as u32));
        }
        idx
    }

    /// The fullest non-full wave, ties to the lowest index — scanning fill
    /// levels from the top and popping stale heap entries.
    fn best_nonfull(&mut self) -> Option<usize> {
        for f in (0..self.k).rev() {
            loop {
                match self.by_fill[f].peek() {
                    Some(&Reverse(wi)) if self.waves[wi as usize].pairs.len() == f => {
                        return Some(wi as usize);
                    }
                    Some(_) => {
                        self.by_fill[f].pop();
                    }
                    None => break,
                }
            }
        }
        None
    }

    /// Withdraws one unit of `pair`, vacating its slot in place.
    ///
    /// Removal semantics are normative across the repo (see DESIGN.md
    /// §15 and [`crate::solve::DemandDelta`]): **the earliest surviving
    /// occurrence per removed pair is retired**, in the structure's own
    /// canonical order. Here that order is (wavelength index, slot within
    /// the wavelength), so the copy on the lowest-indexed wavelength
    /// carrying the pair goes first; in [`crate::solve::Instance::Reconfigure`]
    /// the order is the snapshot's edge numbering, so the lowest prior
    /// edge id goes first. Units of the same pair are interchangeable, so
    /// both views drain the same multiset deterministically.
    ///
    /// ADMs left supporting no demand on that wavelength are reclaimed
    /// (the freed slot and any emptied wavelength stay available to later
    /// adds). Returns the vacated wavelength, or `None` if the pair is
    /// not provisioned.
    pub fn remove(&mut self, pair: DemandPair) -> Option<usize> {
        if pair.hi().index() >= self.n {
            return None;
        }
        let idx = self.node_waves[pair.lo().index()]
            .iter()
            .copied()
            .filter(|&wi| self.waves[wi as usize].pairs.contains(&pair))
            .min()? as usize;
        let w = &mut self.waves[idx];
        let pos = w
            .pairs
            .iter()
            .position(|&p| p == pair)
            .expect("indexed wave must carry the pair");
        w.pairs.remove(pos); // keep provisioning order for the rest
        for v in [pair.lo(), pair.hi()] {
            if !w.pairs.iter().any(|p| p.touches(v)) {
                w.has_node[v.index()] = false;
                w.adms -= 1;
                let list = &mut self.node_waves[v.index()];
                let at = list
                    .iter()
                    .position(|&x| x == idx as u32)
                    .expect("node index must list the deploying wave");
                list.swap_remove(at);
            }
        }
        let fill = self.waves[idx].pairs.len();
        if fill < self.k {
            self.by_fill[fill].push(Reverse(idx as u32));
        }
        Some(idx)
    }

    /// The grooming factor the groomer was created with.
    pub fn grooming_factor(&self) -> usize {
        self.k
    }

    /// Total SADMs deployed so far.
    pub fn sadm_count(&self) -> usize {
        self.waves.iter().map(|w| w.adms).sum()
    }

    /// Wavelengths currently lit (empty slots left behind by
    /// [`OnlineGroomer::remove`] stay reusable but are not lit).
    pub fn num_wavelengths(&self) -> usize {
        self.waves.iter().filter(|w| !w.pairs.is_empty()).count()
    }

    /// The demand snapshot, in arrival order.
    pub fn demands(&self) -> DemandSet {
        let mut s = DemandSet::new(self.n);
        // Arrival order is not preserved across waves; for re-grooming
        // only the multiset matters.
        for w in &self.waves {
            for p in &w.pairs {
                s.add(p.lo(), p.hi());
            }
        }
        s
    }

    /// Materializes the current state as a validated ring assignment.
    pub fn assignment(&self) -> GroomingAssignment {
        let a = GroomingAssignment::new(
            UpsrRing::new(self.n),
            self.k,
            self.waves
                .iter()
                .filter(|w| !w.pairs.is_empty())
                .map(|w| w.pairs.clone())
                .collect(),
        );
        debug_assert!(a.validate(Some(&self.demands())).is_ok());
        a
    }

    /// The current state as a `(demands, partition)` pair — the prior-plan
    /// input of an `Instance::Reconfigure` warm-start solve. Part `i` of
    /// the partition is the `i`-th lit wavelength; edge ids follow the
    /// demand order of [`OnlineGroomer::demands`].
    pub fn snapshot(&self) -> (DemandSet, EdgePartition) {
        let demands = self.demands();
        let mut parts = Vec::new();
        let mut next = 0u32;
        for w in &self.waves {
            if w.pairs.is_empty() {
                continue;
            }
            let ids: Vec<EdgeId> = (0..w.pairs.len() as u32)
                .map(|i| EdgeId(next + i))
                .collect();
            next += w.pairs.len() as u32;
            parts.push(ids);
        }
        (demands, EdgePartition::new(parts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use crate::solve::{Instance, Plan, SolveContext, Solver};
    use grooming_graph::ids::NodeId;
    use grooming_graph::spanning::TreeStrategy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pair(a: u32, b: u32) -> DemandPair {
        DemandPair::new(NodeId(a), NodeId(b))
    }

    #[test]
    fn capacity_is_respected() {
        let mut g = OnlineGroomer::new(6, 2);
        for i in 0..6u32 {
            g.add(pair(i % 6, (i + 1) % 6));
        }
        assert_eq!(g.num_wavelengths(), 3);
        g.assignment().validate(None).unwrap();
    }

    #[test]
    fn affinity_groups_shared_endpoints() {
        let mut g = OnlineGroomer::new(8, 4);
        g.add(pair(0, 1));
        g.add(pair(0, 2));
        g.add(pair(0, 3));
        // All share node 0: one wavelength, 4 ADMs.
        assert_eq!(g.num_wavelengths(), 1);
        assert_eq!(g.sadm_count(), 4);
    }

    #[test]
    fn online_never_beats_the_exact_offline_optimum() {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = OnlineGroomer::new(8, 3);
            let mut edges = Vec::new();
            for _ in 0..10 {
                let a = rng.gen_range(0..8u32);
                let mut b = rng.gen_range(0..8u32);
                while b == a {
                    b = rng.gen_range(0..8u32);
                }
                g.add(pair(a, b));
                edges.push((a.min(b), a.max(b)));
            }
            let graph = grooming_graph::graph::Graph::from_edges(8, &edges);
            let opt = crate::exact::exact_minimum(&graph, 3);
            assert!(g.sadm_count() >= opt, "seed {seed}");
        }
    }

    #[test]
    fn rearrangement_reports_both_costs() {
        // The maintenance-window comparison: the online cost against an
        // offline ring solve of the same snapshot.
        let mut ctx = SolveContext::seeded(7);
        let rng = ctx.rng_mut();
        let mut g = OnlineGroomer::new(16, 8);
        for _ in 0..40 {
            let a = rng.gen_range(0..16u32);
            let mut b = rng.gen_range(0..16u32);
            while b == a {
                b = rng.gen_range(0..16u32);
            }
            g.add(pair(a, b));
        }
        let sol = Algorithm::SpanTEuler(TreeStrategy::Bfs)
            .solve(&Instance::ring(g.demands(), g.grooming_factor()), &mut ctx)
            .unwrap();
        assert!(g.sadm_count() > 0);
        assert!(sol.plan.sadm_cost() > 0);
        // Both cover 40 demands on valid assignments.
        g.assignment().validate(Some(&g.demands())).unwrap();
        let Plan::Ring { outcome } = &sol.plan else {
            unreachable!("ring instances yield ring plans");
        };
        outcome.assignment.validate(Some(&g.demands())).unwrap();
    }

    #[test]
    fn arrival_order_changes_cost_but_not_validity() {
        // Adversarial order costs more than clustered order.
        let clustered = {
            let mut g = OnlineGroomer::new(9, 3);
            for hub in [0u32, 3, 6] {
                for off in 1..=3u32 {
                    g.add(pair(hub, (hub + off) % 9));
                }
            }
            g.sadm_count()
        };
        let interleaved = {
            let mut g = OnlineGroomer::new(9, 3);
            for off in 1..=3u32 {
                for hub in [0u32, 3, 6] {
                    g.add(pair(hub, (hub + off) % 9));
                }
            }
            g.sadm_count()
        };
        assert!(clustered <= interleaved);
    }

    #[test]
    #[should_panic(expected = "outside the ring")]
    fn out_of_range_demand_rejected() {
        let mut g = OnlineGroomer::new(4, 2);
        g.add(pair(0, 7));
    }

    #[test]
    fn remove_vacates_the_lowest_wave_and_reclaims_adms() {
        let mut g = OnlineGroomer::new(6, 2);
        // Two copies of (0,1) land on two waves (capacity 2 shared with a
        // second pair each).
        g.add(pair(0, 1));
        g.add(pair(0, 2));
        g.add(pair(0, 1));
        assert_eq!(g.num_wavelengths(), 2);
        // Deterministic vacation: the lowest-indexed wave holding the pair.
        assert_eq!(g.remove(pair(0, 1)), Some(0));
        // Node 1 no longer terminates anything on wave 0.
        assert_eq!(g.assignment().sadm_at(NodeId(1)), 1);
        // The second copy is still provisioned.
        assert_eq!(g.remove(pair(0, 1)), Some(1));
        assert_eq!(g.remove(pair(0, 1)), None);
        // Absent and out-of-range pairs are no-ops, not panics.
        assert_eq!(g.remove(pair(3, 4)), None);
        assert_eq!(g.remove(pair(0, 9)), None);
        g.assignment().validate(None).unwrap();
    }

    #[test]
    fn removal_frees_capacity_for_later_adds() {
        let mut g = OnlineGroomer::new(4, 1);
        g.add(pair(0, 1));
        g.add(pair(2, 3));
        assert_eq!(g.num_wavelengths(), 2);
        g.remove(pair(0, 1));
        assert_eq!(g.num_wavelengths(), 1);
        // The vacated slot is reused instead of lighting a third wave.
        g.add(pair(1, 2));
        assert_eq!(g.num_wavelengths(), 2);
        assert_eq!(g.demands().len(), 2);
    }

    #[test]
    fn snapshot_is_a_valid_partition_of_the_demands() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = OnlineGroomer::new(12, 3);
        let mut live: Vec<DemandPair> = Vec::new();
        for _ in 0..40 {
            if !live.is_empty() && rng.gen_bool(0.3) {
                let p = live.swap_remove(rng.gen_range(0..live.len()));
                assert!(g.remove(p).is_some());
            } else {
                let a = rng.gen_range(0..12u32);
                let b = (a + 1 + rng.gen_range(0..11u32)) % 12;
                let p = pair(a.min(b), a.max(b));
                g.add(p);
                live.push(p);
            }
        }
        let (demands, partition) = g.snapshot();
        assert_eq!(demands.len(), live.len());
        let graph = demands.to_traffic_graph();
        partition.validate(&graph, 3).unwrap();
        // The snapshot's cost is the groomer's own accounting.
        assert_eq!(partition.sadm_cost(&graph), g.sadm_count());
    }
}
