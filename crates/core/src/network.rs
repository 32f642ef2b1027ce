//! Network-level grooming: multi-ring deployments planned ring by ring.
//!
//! A multi-ring network decomposes every demand into intra-ring segments
//! ([`grooming_sonet::multiring`]); each ring's segment set is then exactly
//! the paper's single-ring problem, groomed independently with any of this
//! crate's algorithms by an
//! [`Instance::MultiRing`](crate::solve::Instance::MultiRing) solve. The
//! report aggregates SADMs and wavelengths across rings — plus the *gateway
//! ADM overhead*, the extra add/drops created by splitting demands at
//! gateway offices.

use grooming_sonet::stats::RingCostReport;

use crate::pipeline::GroomingOutcome;

/// The network-wide grooming result.
#[derive(Clone, Debug)]
pub struct NetworkGrooming {
    /// Per-ring outcomes (same order as the network's rings).
    pub rings: Vec<GroomingOutcome>,
    /// Total SADMs across rings.
    pub total_sadms: usize,
    /// Total wavelengths across rings (rings have independent spectra).
    pub total_wavelengths: usize,
    /// Intra-ring segments created by routing (≥ the demand count;
    /// the excess measures gateway traversal overhead).
    pub total_segments: usize,
}

impl NetworkGrooming {
    /// Per-ring cost reports.
    pub fn reports(&self) -> Vec<&RingCostReport> {
        self.rings.iter().map(|o| &o.report).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use crate::solve::{Instance, Plan, SolveContext, SolveError, Solver};
    use grooming_graph::spanning::TreeStrategy;
    use grooming_sonet::multiring::{rn, MultiRingNetwork, RingNode};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Solves `Instance::multi_ring` with `algorithm` on the RNG stream
    /// `seed`.
    fn solve_network(
        net: &MultiRingNetwork,
        demands: &[(RingNode, RingNode)],
        k: usize,
        algorithm: Algorithm,
        seed: u64,
    ) -> Result<NetworkGrooming, SolveError> {
        let instance = Instance::multi_ring(net.clone(), demands.to_vec(), k);
        match algorithm
            .solve(&instance, &mut SolveContext::seeded(seed))?
            .plan
        {
            Plan::MultiRing { grooming } => Ok(grooming),
            _ => unreachable!("multi-ring instances yield multi-ring plans"),
        }
    }

    fn star_network() -> MultiRingNetwork {
        let mut net = MultiRingNetwork::new(vec![8, 6, 6]);
        net.add_gateway(rn(0, 0), rn(1, 0));
        net.add_gateway(rn(0, 4), rn(2, 0));
        net
    }

    fn random_demands(net_rings: &[usize], count: usize, seed: u64) -> Vec<(RingNode, RingNode)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let ra = rng.gen_range(0..net_rings.len());
            let rb = rng.gen_range(0..net_rings.len());
            let a = rn(ra, rng.gen_range(0..net_rings[ra] as u32));
            let b = rn(rb, rng.gen_range(0..net_rings[rb] as u32));
            if a != b {
                out.push((a, b));
            }
        }
        out
    }

    #[test]
    fn network_grooming_aggregates_ring_reports() {
        let net = star_network();
        let demands = random_demands(&[8, 6, 6], 30, 1);
        let out = solve_network(
            &net,
            &demands,
            4,
            Algorithm::SpanTEuler(TreeStrategy::Bfs),
            2,
        )
        .unwrap();
        assert_eq!(out.rings.len(), 3);
        assert_eq!(
            out.total_sadms,
            out.reports().iter().map(|r| r.sadm_total).sum::<usize>()
        );
        assert_eq!(
            out.total_wavelengths,
            out.reports().iter().map(|r| r.wavelengths).sum::<usize>()
        );
        // Cross-ring demands create more segments than demands.
        assert!(out.total_segments >= demands.len() - 5);
    }

    #[test]
    fn pure_intra_ring_traffic_touches_one_ring() {
        let net = star_network();
        let demands = vec![(rn(1, 1), rn(1, 4)), (rn(1, 2), rn(1, 5))];
        let out = solve_network(&net, &demands, 16, Algorithm::Brauner, 3).unwrap();
        assert_eq!(out.rings[0].report.sadm_total, 0);
        assert_eq!(out.rings[2].report.sadm_total, 0);
        assert!(out.rings[1].report.sadm_total > 0);
        assert_eq!(out.total_segments, 2);
    }

    #[test]
    fn routing_errors_propagate() {
        let net = MultiRingNetwork::new(vec![4, 4]); // no gateways
        let err =
            solve_network(&net, &[(rn(0, 0), rn(1, 1))], 4, Algorithm::Brauner, 4).unwrap_err();
        assert!(matches!(err, SolveError::Route(_)));
    }

    #[test]
    fn gateway_rings_carry_the_transit_load() {
        // All traffic flows between the two access rings: the core ring
        // must carry exactly one segment per demand.
        let net = star_network();
        let demands: Vec<_> = (1..5u32).map(|i| (rn(1, i), rn(2, i))).collect();
        let out = solve_network(
            &net,
            &demands,
            4,
            Algorithm::SpanTEuler(TreeStrategy::Bfs),
            5,
        )
        .unwrap();
        assert_eq!(out.rings[0].report.pairs_carried, demands.len());
        assert_eq!(out.total_segments, 3 * demands.len());
    }
}
