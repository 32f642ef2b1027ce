//! The warm-start contract: resuming a prior plan through
//! [`Instance::Reconfigure`] returns the prior plan byte-identically when
//! the delta is empty, always yields valid plans, never does worse than
//! the prior plan plus the trivial cost of the delta, and respects the
//! rearrangement budget. Bit-identity to a cold solve is explicitly *not*
//! the contract — the repair is local by design.

use grooming::algorithm::Algorithm;
use grooming::partition::EdgePartition;
use grooming::solve::{DemandDelta, Instance, Plan, SolveConfig, SolveContext, SolveError, Solver};
use grooming_graph::ids::NodeId;
use grooming_graph::spanning::TreeStrategy;
use grooming_sonet::demand::{DemandPair, DemandSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn refined() -> Algorithm {
    Algorithm::SpanTEulerRefined(TreeStrategy::Bfs)
}

fn random_demands(n: usize, m: usize, seed: u64) -> DemandSet {
    DemandSet::random(n, m, &mut StdRng::seed_from_u64(seed))
}

/// Cold-solves `demands` and returns the partition to warm-start from.
fn cold_plan(demands: &DemandSet, k: usize, seed: u64) -> EdgePartition {
    let sol = refined()
        .solve(
            &Instance::ring(demands.clone(), k),
            &mut SolveContext::seeded(seed),
        )
        .unwrap();
    sol.plan.partition().expect("ring plan").clone()
}

fn reconfigure_plan(sol: Plan) -> (EdgePartition, u64, u64) {
    let Plan::Reconfigure {
        outcome,
        parts_repaired,
        sadms_moved,
    } = sol
    else {
        panic!("reconfigure instances yield reconfigure plans");
    };
    (outcome.partition, parts_repaired, sadms_moved)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Warm-starting from an empty delta is a no-op: the prior plan comes
    /// back bit-for-bit with zero repaired parts and zero moved SADMs.
    #[test]
    fn empty_delta_returns_prior_plan_bit_for_bit(
        gen_seed in any::<u64>(),
        solve_seed in any::<u64>(),
        n in 8usize..20,
        m in 10usize..40,
        k in 2usize..6,
    ) {
        let m = m.min(n * (n - 1) / 2);
        let demands = random_demands(n, m, gen_seed);
        let prior = cold_plan(&demands, k, solve_seed);

        let sol = refined()
            .solve(
                &Instance::reconfigure(demands, prior.clone(), DemandDelta::default(), k),
                &mut SolveContext::seeded(solve_seed ^ 1),
            )
            .unwrap();
        let (warm, parts_repaired, sadms_moved) = reconfigure_plan(sol.plan);
        prop_assert_eq!(warm.parts(), prior.parts());
        prop_assert_eq!(parts_repaired, 0);
        prop_assert_eq!(sadms_moved, 0);
    }

    /// Warm plans under churn are valid partitions of the post-delta
    /// demands, cost no more than the prior plan plus the trivial delta
    /// cost (each added demand needs at most 2 new SADMs; removals never
    /// raise cost), and honor the rearrangement budget when one is set.
    #[test]
    fn warm_plans_are_valid_and_respect_the_budget(
        gen_seed in any::<u64>(),
        solve_seed in any::<u64>(),
        n in 8usize..20,
        m in 10usize..40,
        k in 2usize..6,
        removals in 0usize..6,
        additions in 0usize..6,
        budget_raw in 0usize..20,
    ) {
        // The shim proptest has no Option strategy: fold half the range
        // into "no budget".
        let budget = if budget_raw < 10 { Some(budget_raw) } else { None };
        let m = m.min(n * (n - 1) / 2);
        let demands = random_demands(n, m, gen_seed);
        let prior = cold_plan(&demands, k, solve_seed);
        let prior_cost = {
            let g = demands.to_traffic_graph();
            prior.sadm_cost(&g)
        };

        let mut rng = StdRng::seed_from_u64(gen_seed ^ 0xdead);
        let removed: Vec<DemandPair> = (0..removals.min(demands.len()))
            .map(|_| demands.pairs()[rng.gen_range(0..demands.len())])
            .collect();
        let added: Vec<DemandPair> = (0..additions)
            .map(|_| {
                let a = rng.gen_range(0..n as u32);
                let mut b = rng.gen_range(0..n as u32);
                while b == a {
                    b = rng.gen_range(0..n as u32);
                }
                DemandPair::new(NodeId(a), NodeId(b))
            })
            .collect();
        // Removals may repeat a pair more often than the snapshot holds
        // it; that is the over-withdrawal error path, tested separately.
        let mut counts = std::collections::HashMap::new();
        for &p in demands.pairs() {
            *counts.entry(p).or_insert(0usize) += 1;
        }
        let mut removed_keep = Vec::new();
        for p in removed {
            let c = counts.entry(p).or_insert(0);
            if *c > 0 {
                *c -= 1;
                removed_keep.push(p);
            }
        }
        let removed_len = removed_keep.len();
        let delta = DemandDelta::new(added.clone(), removed_keep.clone());

        let mut config = SolveConfig::default();
        config.rearrange_budget = budget;
        let mut ctx = SolveContext::seeded(solve_seed ^ 2).with_config(config);
        let sol = refined()
            .solve(
                &Instance::reconfigure(demands.clone(), prior, delta.clone(), k),
                &mut ctx,
            )
            .unwrap();
        let (warm, _parts, sadms_moved) = reconfigure_plan(sol.plan);

        prop_assert_eq!(ctx.stats().sadms_moved, sadms_moved);
        if let Some(b) = budget {
            prop_assert!(
                sadms_moved <= b as u64,
                "moved {} SADMs on a budget of {}", sadms_moved, b
            );
        }

        // The warm plan is a valid partition of the post-delta snapshot,
        // rebuilt with the solver's numbering (earliest surviving
        // occurrence retired, survivors in order, additions appended),
        // and costs no more than the prior plan plus the trivial delta
        // cost.
        let mut to_remove = std::collections::HashMap::new();
        for &p in &removed_keep {
            *to_remove.entry(p).or_insert(0usize) += 1;
        }
        let mut next = DemandSet::new(n);
        for &p in demands.pairs() {
            match to_remove.get_mut(&p) {
                Some(c) if *c > 0 => *c -= 1,
                _ => {
                    next.add(p.lo(), p.hi());
                }
            }
        }
        for &p in &added {
            next.add(p.lo(), p.hi());
        }
        prop_assert_eq!(next.len(), demands.len() - removed_len + added.len());
        // The delta's own rule builds the same snapshot as this hand-built
        // reference.
        let (applied, _) = delta.apply(&demands).unwrap();
        prop_assert_eq!(applied.pairs(), next.pairs());
        let g = next.to_traffic_graph();
        prop_assert!(warm.validate(&g, k).is_ok());
        let warm_cost = warm.sadm_cost(&g);
        prop_assert!(
            warm_cost <= prior_cost + 2 * added.len(),
            "warm cost {} exceeds prior {} + 2*{}", warm_cost, prior_cost, added.len()
        );
    }
}

/// Deterministic end-to-end cost check: chain three churn windows and
/// assert the never-worse-than-prior-plus-delta invariant on each, with
/// the warm plan validated against the post-delta traffic graph.
#[test]
fn warm_cost_never_worse_than_prior_plus_delta() {
    let n = 40;
    let k = 4;
    let mut rng = StdRng::seed_from_u64(99);
    let mut pairs: Vec<DemandPair> = DemandSet::random(n, 80, &mut rng).pairs().to_vec();
    let demand_set = |pairs: &[DemandPair]| {
        let mut s = DemandSet::new(n);
        for p in pairs {
            s.add(p.lo(), p.hi());
        }
        s
    };
    let mut prior = cold_plan(&demand_set(&pairs), k, 5);
    let mut prior_cost = prior.sadm_cost(&demand_set(&pairs).to_traffic_graph());

    for w in 0..3 {
        let removed: Vec<DemandPair> = (0..4)
            .map(|_| pairs[rng.gen_range(0..pairs.len())])
            .collect();
        let added: Vec<DemandPair> = (0..4)
            .map(|_| {
                let a = rng.gen_range(0..n as u32);
                let mut b = rng.gen_range(0..n as u32);
                while b == a {
                    b = rng.gen_range(0..n as u32);
                }
                DemandPair::new(NodeId(a), NodeId(b))
            })
            .collect();
        // Drop over-withdrawn repeats the same way the solver counts them.
        let mut counts = std::collections::HashMap::new();
        for &p in &pairs {
            *counts.entry(p).or_insert(0usize) += 1;
        }
        let mut removed_ok = Vec::new();
        for p in removed {
            let c = counts.entry(p).or_insert(0);
            if *c > 0 {
                *c -= 1;
                removed_ok.push(p);
            }
        }
        let delta = DemandDelta::new(added.clone(), removed_ok.clone());

        // The post-delta snapshot with the solver's numbering.
        let mut to_remove = std::collections::HashMap::new();
        for &p in &removed_ok {
            *to_remove.entry(p).or_insert(0usize) += 1;
        }
        let mut next_pairs = Vec::new();
        for &p in &pairs {
            match to_remove.get_mut(&p) {
                Some(c) if *c > 0 => *c -= 1,
                _ => next_pairs.push(p),
            }
        }
        next_pairs.extend_from_slice(&added);

        let sol = refined()
            .solve(
                &Instance::reconfigure(demand_set(&pairs), prior.clone(), delta, k),
                &mut SolveContext::seeded(10 + w),
            )
            .unwrap();
        let (warm, _, _) = reconfigure_plan(sol.plan);
        let g = demand_set(&next_pairs).to_traffic_graph();
        warm.validate(&g, k).expect("warm plans must be valid");
        let warm_cost = warm.sadm_cost(&g);
        assert!(
            warm_cost <= prior_cost + 2 * added.len(),
            "window {w}: warm cost {warm_cost} exceeds prior {prior_cost} + 2*{}",
            added.len()
        );
        pairs = next_pairs;
        prior = warm;
        prior_cost = warm_cost;
    }
}

/// Withdrawing a demand the snapshot does not hold is a structured error,
/// not a panic.
#[test]
fn over_withdrawal_is_a_missing_demand_error() {
    let demands = random_demands(10, 15, 3);
    let prior = cold_plan(&demands, 3, 4);
    let absent = {
        // A pair not in the snapshot.
        let mut p = DemandPair::new(NodeId(0), NodeId(1));
        let mut i = 0;
        while demands.pairs().contains(&p) {
            i += 1;
            p = DemandPair::new(NodeId(i % 10), NodeId((i + 1) % 10));
        }
        p
    };
    let err = refined()
        .solve(
            &Instance::reconfigure(
                demands,
                prior,
                DemandDelta::new(Vec::new(), vec![absent]),
                3,
            ),
            &mut SolveContext::seeded(1),
        )
        .unwrap_err();
    assert!(matches!(err, SolveError::MissingDemand { pair } if pair == absent));
}

/// A prior plan that does not partition the snapshot is a structured
/// error naming the defect.
#[test]
fn malformed_prior_plan_is_a_prior_plan_error() {
    let demands = random_demands(10, 15, 3);
    // Drop the last edge from the prior plan: EdgeMissing.
    let mut parts = cold_plan(&demands, 3, 4).parts().to_vec();
    for part in parts.iter_mut() {
        if let Some(pos) = part.iter().position(|e| e.index() == demands.len() - 1) {
            part.remove(pos);
        }
    }
    let err = refined()
        .solve(
            &Instance::reconfigure(
                demands,
                EdgePartition::new(parts),
                DemandDelta::default(),
                3,
            ),
            &mut SolveContext::seeded(1),
        )
        .unwrap_err();
    assert!(matches!(err, SolveError::PriorPlan(_)));
}
