//! The unified solve surface: every workload normalizes into an
//! [`Instance`] served by the same [`Solver`] trait, bit-identical to the
//! per-workload entry points it replaced, with a deadline model that always
//! returns a valid best-so-far plan.

use std::time::Duration;

use grooming::algorithm::Algorithm;
use grooming::partition::EdgePartition;
use grooming::pipeline::groom;
use grooming::solve::{Instance, Plan, PortfolioSolver, SolveContext, SolveError, Solver};
use grooming_graph::ids::NodeId;
use grooming_graph::spanning::TreeStrategy;
use grooming_sonet::blsr::BlsrRing;
use grooming_sonet::demand::DemandSet;
use grooming_sonet::multiring::{rn, MultiRingNetwork};
use grooming_sonet::weighted::WeightedDemandSet;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn spant() -> Algorithm {
    Algorithm::SpanTEuler(TreeStrategy::Bfs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The weighted-splittable instance is exactly "expand, then the core
    /// pipeline": same RNG stream in, bit-identical grooming out.
    #[test]
    fn weighted_instance_matches_manual_expand(
        seed in any::<u64>(),
        n in 6usize..12,
        count in 3usize..10,
        gen_seed in any::<u64>(),
    ) {
        use rand::Rng;
        let mut gen = StdRng::seed_from_u64(gen_seed);
        let mut set = WeightedDemandSet::new(n);
        for _ in 0..count {
            let a = gen.gen_range(0..n as u32);
            let b = gen.gen_range(0..n as u32);
            if a != b {
                set.add(NodeId(a), NodeId(b), gen.gen_range(1..5u32));
            }
        }
        let k = 4;

        let mut ctx = SolveContext::seeded(seed);
        let sol = spant().solve(&Instance::weighted(set.clone(), k), &mut ctx).unwrap();
        let Plan::WeightedSplittable { outcome, expanded } = sol.plan else {
            panic!("weighted instances yield weighted plans");
        };

        let manual_expanded = set.expand();
        prop_assert_eq!(expanded.pairs(), manual_expanded.pairs());
        let mut rng = StdRng::seed_from_u64(seed);
        let manual = groom(&manual_expanded, k, spant(), &mut rng).unwrap();
        prop_assert_eq!(outcome.partition.parts(), manual.partition.parts());
        prop_assert_eq!(outcome.report.sadm_total, manual.report.sadm_total);
        prop_assert_eq!(outcome.report.wavelengths, manual.report.wavelengths);
    }
}

/// A maintenance-window re-groom is a ring solve of the online groomer's
/// snapshot, bit-identical to `pipeline::groom` on the same stream.
#[test]
fn online_snapshot_ring_solve_matches_groom() {
    use grooming::online::OnlineGroomer;
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let demands = DemandSet::random(10, 18, &mut rng);
        let mut groomer = OnlineGroomer::new(10, 4);
        for &p in demands.pairs() {
            groomer.add(p);
        }
        let snapshot = groomer.demands();
        for algo in [spant(), Algorithm::CliqueFirst] {
            let mut ctx = SolveContext::seeded(seed ^ 0x5EED);
            let sol = algo
                .solve(
                    &Instance::ring(snapshot.clone(), groomer.grooming_factor()),
                    &mut ctx,
                )
                .unwrap();
            let Plan::Ring { outcome } = sol.plan else {
                panic!("ring instances yield ring plans");
            };
            let mut direct_rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            let direct = groom(&snapshot, 4, algo, &mut direct_rng).unwrap();
            assert_eq!(
                outcome.partition.parts(),
                direct.partition.parts(),
                "seed {seed} {algo}"
            );
            assert_eq!(outcome.report.sadm_total, direct.report.sadm_total);
        }
    }
}

/// Zero deadline still yields a valid plan: attempt 0 always runs, and the
/// solution is flagged `timed_out`.
#[test]
fn zero_deadline_returns_valid_best_so_far_plan() {
    let mut rng = StdRng::seed_from_u64(11);
    let demands = DemandSet::random(12, 24, &mut rng);
    let instance = Instance::ring(demands.clone(), 4);

    let mut ctx = SolveContext::seeded(7).with_timeout(Duration::ZERO);
    let sol = spant().solve(&instance, &mut ctx).unwrap();
    assert!(sol.timed_out, "expired deadline must be reported");
    let Plan::Ring { outcome } = &sol.plan else {
        panic!("ring instances yield ring plans");
    };
    assert!(outcome.assignment.validate(Some(&demands)).is_ok());
    assert_eq!(ctx.stats().attempts, 1, "exactly attempt 0 runs");

    // Same through the portfolio meta-solver: one attempt, valid plan.
    let mut ctx = SolveContext::seeded(7).with_timeout(Duration::ZERO);
    let sol = PortfolioSolver::default()
        .solve(&instance, &mut ctx)
        .unwrap();
    assert!(sol.timed_out);
    assert_eq!(ctx.stats().attempts, 1);
    assert!(sol.plan.sadm_cost() > 0);
}

/// Every workload variant solves through the one `Solver` surface, and the
/// failures come back as the one `SolveError` taxonomy.
#[test]
fn all_variants_solve_through_one_surface() {
    let mut rng = StdRng::seed_from_u64(3);
    let demands = DemandSet::random(10, 20, &mut rng);
    let g = demands.to_traffic_graph();
    let k = 4;

    let mut weighted = WeightedDemandSet::new(8);
    weighted.add(NodeId(0), NodeId(3), 5);
    weighted.add(NodeId(2), NodeId(6), 3);

    let mut net = MultiRingNetwork::new(vec![6, 5]);
    net.add_gateway(rn(0, 0), rn(1, 0));

    let instances = vec![
        Instance::upsr(g.clone(), k),
        Instance::ring(demands.clone(), k),
        Instance::budgeted(
            g.clone(),
            k,
            EdgePartition::min_wavelengths(g.num_edges(), k) + 1,
        ),
        Instance::multi_ring(net, vec![(rn(0, 1), rn(1, 2)), (rn(1, 1), rn(1, 3))], k),
        Instance::weighted(weighted, k),
        Instance::blsr(BlsrRing::new(10), demands.clone(), k),
    ];
    let mut ctx = SolveContext::seeded(17);
    for instance in &instances {
        let sol = spant().solve(instance, &mut ctx).unwrap();
        assert!(!sol.timed_out);
        assert!(sol.plan.sadm_cost() > 0);
        assert!(sol.plan.wavelengths() > 0);
    }
    // 5 partition-shaped instances (multi-ring counts one per ring, BLSR is
    // deterministic and draws no attempt) and one stage call per instance
    // (the six distinct workloads aggregate into six stage kinds).
    assert_eq!(ctx.stats().attempts, 6);
    assert_eq!(ctx.stats().stage_calls(), instances.len() as u64);
    assert_eq!(ctx.stats().stages.len(), instances.len());

    // Unified error taxonomy: an infeasible budget and a non-regular graph
    // both surface as `SolveError`, payloads preserved.
    let err = spant()
        .solve(&Instance::budgeted(g.clone(), k, 0), &mut ctx)
        .unwrap_err();
    assert!(matches!(
        err,
        SolveError::InfeasibleBudget { budget: 0, .. }
    ));
    let err = Algorithm::RegularEuler
        .solve(&Instance::upsr(g, k), &mut ctx)
        .unwrap_err();
    assert!(matches!(err, SolveError::NotRegular(_)));
}
