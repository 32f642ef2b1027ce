//! End-to-end pipeline: demands → traffic graph → partition → validated
//! grooming on the modeled ring → cost report.
//!
//! This is the crate's "front door" for applications: it connects the
//! graph-theoretic algorithms to the SONET substrate and cross-checks the
//! two cost models against each other (the graph-side `Σ|V_i|` must equal
//! the SADM count derived by placing ADMs on the simulated ring).

use grooming_sonet::demand::{DemandPair, DemandSet};
use grooming_sonet::grooming::GroomingAssignment;
use grooming_sonet::ring::UpsrRing;
use grooming_sonet::stats::RingCostReport;
use rand::Rng;

use crate::algorithm::Algorithm;
use crate::partition::EdgePartition;
use crate::regular_euler::NotRegularError;

/// The result of grooming a demand set on a ring.
#[derive(Clone, Debug)]
pub struct GroomingOutcome {
    /// The graph-side `k`-edge partition.
    pub partition: EdgePartition,
    /// The ring-side wavelength assignment (validated).
    pub assignment: GroomingAssignment,
    /// The cost report.
    pub report: RingCostReport,
}

/// Grooms `demands` with `algorithm` at grooming factor `k`.
///
/// Validates everything: the partition against the traffic graph, the
/// assignment against ring capacity and demand coverage, and the agreement
/// of the two SADM accountings.
///
/// # Panics
/// Panics if `k == 0`, if the demand set has fewer than 2 nodes, or if any
/// internal consistency check fails (which would be a bug, not an input
/// error).
pub fn groom<R: Rng>(
    demands: &DemandSet,
    k: usize,
    algorithm: Algorithm,
    rng: &mut R,
) -> Result<GroomingOutcome, NotRegularError> {
    let g = demands.to_traffic_graph();
    let partition = algorithm.run(&g, k, rng)?;
    Ok(assemble(demands, &g, k, partition))
}

/// Turns a partition of `demands`' traffic graph `g` into a validated
/// ring-side grooming with cross-checked cost accounting — the back half of
/// [`groom`], shared with the solve layer and the CLI.
///
/// # Panics
/// Panics if any internal consistency check fails (a bug, not an input
/// error).
pub fn assemble(
    demands: &DemandSet,
    g: &grooming_graph::graph::Graph,
    k: usize,
    partition: EdgePartition,
) -> GroomingOutcome {
    partition
        .validate(g, k)
        .expect("algorithms must emit valid partitions");

    // Edge i of the traffic graph is demands.pairs()[i].
    let groups: Vec<Vec<DemandPair>> = partition
        .parts()
        .iter()
        .map(|part| part.iter().map(|e| demands.pairs()[e.index()]).collect())
        .collect();

    let ring = UpsrRing::new(demands.num_nodes());
    let assignment = GroomingAssignment::new(ring, k, groups);
    assignment
        .validate(Some(demands))
        .expect("a valid k-edge partition always fits the ring");

    // Cross-check the two cost models. The report's total is the ring-side
    // Σ|adm_nodes| (what `sadm_count` would recount in a second pass).
    let report = assignment.report();
    let graph_cost = partition.sadm_cost(g);
    assert_eq!(
        graph_cost, report.sadm_total,
        "graph-side and ring-side SADM accounting must agree"
    );
    assert_eq!(partition.num_wavelengths(), assignment.num_wavelengths());

    GroomingOutcome {
        partition,
        assignment,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grooming_graph::spanning::TreeStrategy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn pipeline_runs_and_cross_checks() {
        let demands = DemandSet::random(16, 40, &mut rng(1));
        for algo in Algorithm::FIGURE4 {
            let out = groom(&demands, 4, algo, &mut rng(2)).unwrap();
            assert_eq!(
                out.report.sadm_total,
                out.partition.sadm_cost(&demands.to_traffic_graph())
            );
            assert_eq!(out.report.pairs_carried, demands.len());
        }
    }

    #[test]
    fn regular_traffic_through_regular_euler() {
        let demands = DemandSet::random_regular(16, 5, &mut rng(3));
        let out = groom(&demands, 8, Algorithm::RegularEuler, &mut rng(4)).unwrap();
        assert_eq!(out.report.wavelengths, demands.len().div_ceil(8));
    }

    #[test]
    fn grooming_beats_dedicated_wavelengths() {
        let demands = DemandSet::all_to_all(10); // 45 pairs
        let out = groom(
            &demands,
            16,
            Algorithm::SpanTEuler(TreeStrategy::Bfs),
            &mut rng(5),
        )
        .unwrap();
        let dedicated = GroomingAssignment::dedicated(UpsrRing::new(10), 16, &demands).sadm_count();
        assert!(out.report.sadm_total < dedicated);
        assert!(out.report.wavelengths < demands.len());
    }

    #[test]
    fn irregular_demands_reported_as_error() {
        let demands = DemandSet::from_pairs(4, &[(0, 1), (1, 2)]);
        assert!(groom(&demands, 4, Algorithm::RegularEuler, &mut rng(6)).is_err());
    }

    #[test]
    fn single_pair_demand() {
        let demands = DemandSet::from_pairs(4, &[(1, 3)]);
        let out = groom(&demands, 16, Algorithm::Brauner, &mut rng(7)).unwrap();
        assert_eq!(out.report.sadm_total, 2);
        assert_eq!(out.report.wavelengths, 1);
        assert_eq!(out.report.bypass_total, 2);
    }
}
