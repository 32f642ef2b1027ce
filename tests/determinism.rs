//! Determinism regression tests: the same seed must produce byte-identical
//! results across runs, for every algorithm — reproducibility is what makes
//! EXPERIMENTS.md's numbers auditable.

use grooming::algorithm::Algorithm;
use grooming::pipeline::groom;
use grooming::portfolio::{best_of_seeded, PortfolioEngine, DEFAULT_PORTFOLIO};
use grooming::solve::{Instance, SolveContext, Solver};
use grooming_graph::generators;
use grooming_graph::spanning::TreeStrategy;
use grooming_sonet::demand::DemandSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn all_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::Goldschmidt,
        Algorithm::Brauner,
        Algorithm::WangGuIcc06,
        Algorithm::SpanTEuler(TreeStrategy::Bfs),
        Algorithm::SpanTEuler(TreeStrategy::Dfs),
        Algorithm::SpanTEuler(TreeStrategy::RandomKruskal),
        Algorithm::SpanTEulerRefined(TreeStrategy::Bfs),
        Algorithm::CliqueFirst,
        Algorithm::DenseFirst,
    ]
}

#[test]
fn same_seed_same_partition() {
    let demands = DemandSet::random(20, 60, &mut StdRng::seed_from_u64(5));
    for algo in all_algorithms() {
        let a = groom(&demands, 8, algo, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = groom(&demands, 8, algo, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(
            a.partition.parts(),
            b.partition.parts(),
            "{algo} must be deterministic under a fixed seed"
        );
        assert_eq!(a.report.sadm_total, b.report.sadm_total);
    }
}

#[test]
fn same_seed_same_generators() {
    for seed in [0u64, 1, 42] {
        let g1 = generators::gnm(36, 216, &mut StdRng::seed_from_u64(seed));
        let g2 = generators::gnm(36, 216, &mut StdRng::seed_from_u64(seed));
        assert_eq!(g1.edge_list(), g2.edge_list());
        let r1 = generators::random_regular(36, 7, &mut StdRng::seed_from_u64(seed));
        let r2 = generators::random_regular(36, 7, &mut StdRng::seed_from_u64(seed));
        assert_eq!(r1.edge_list(), r2.edge_list());
        let d1 = DemandSet::locality(20, 40, 2.0, &mut StdRng::seed_from_u64(seed));
        let d2 = DemandSet::locality(20, 40, 2.0, &mut StdRng::seed_from_u64(seed));
        assert_eq!(d1.pairs(), d2.pairs());
    }
}

#[test]
fn regular_euler_is_seed_free_deterministic() {
    // No RNG input at all: two calls must agree.
    let g = generators::random_regular(36, 7, &mut StdRng::seed_from_u64(3));
    let a = grooming::regular_euler(&g, 16).unwrap();
    let b = grooming::regular_euler(&g, 16).unwrap();
    assert_eq!(a.parts(), b.parts());
}

#[test]
fn budget_layer_is_deterministic() {
    let g = generators::gnm(18, 50, &mut StdRng::seed_from_u64(6));
    let solve = || {
        Algorithm::CliqueFirst
            .solve(
                &Instance::budgeted(g.clone(), 8, 7),
                &mut SolveContext::seeded(2),
            )
            .unwrap()
            .plan
    };
    let (a, b) = (solve(), solve());
    assert_eq!(
        a.partition().unwrap().parts(),
        b.partition().unwrap().parts()
    );
}

#[test]
fn portfolio_result_is_independent_of_job_count() {
    // The tentpole guarantee: one master seed fixes the full
    // `PortfolioResult` (winning partition, per-attempt costs, seeds) no
    // matter how many workers execute the plan.
    let g = generators::gnm(24, 90, &mut StdRng::seed_from_u64(11));
    for master in [0u64, 41, 0xFEED_FACE] {
        let baseline = best_of_seeded(&g, 6, &DEFAULT_PORTFOLIO, 2, master, 1);
        for jobs in [2usize, 3, 7] {
            let parallel = best_of_seeded(&g, 6, &DEFAULT_PORTFOLIO, 2, master, jobs);
            assert_eq!(
                baseline.fingerprint(),
                parallel.fingerprint(),
                "jobs = {jobs} diverged from sequential at master seed {master}"
            );
        }
    }
}

#[test]
fn portfolio_result_is_independent_of_entry_order() {
    // Attempt seeds derive from each algorithm's stable id, not its index
    // in the portfolio slice, so shuffling the lineup cannot change any
    // attempt (and therefore cannot change the winner).
    let g = generators::gnm(24, 90, &mut StdRng::seed_from_u64(11));
    let mut reversed: Vec<Algorithm> = DEFAULT_PORTFOLIO.to_vec();
    reversed.reverse();
    let a = best_of_seeded(&g, 6, &DEFAULT_PORTFOLIO, 2, 99, 1);
    let b = best_of_seeded(&g, 6, &reversed, 2, 99, 4);
    assert_eq!(a.partition.parts(), b.partition.parts());
    assert_eq!(a.cost, b.cost);
    assert_eq!((a.winner, a.winner_restart), (b.winner, b.winner_restart));
}

#[test]
fn portfolio_restart_streams_are_self_contained() {
    // Raising the restart count adds attempts without perturbing the ones
    // already in the plan: attempt (algo, r) draws from its own derived
    // stream, never from a shared sequence another attempt advances.
    let g = generators::gnm(24, 90, &mut StdRng::seed_from_u64(11));
    let small = PortfolioEngine::new(&DEFAULT_PORTFOLIO)
        .restarts(2)
        .master_seed(7)
        .run(&g, 6);
    let large = PortfolioEngine::new(&DEFAULT_PORTFOLIO)
        .restarts(5)
        .master_seed(7)
        .jobs(3)
        .run(&g, 6);
    for a in &small.attempts {
        let same = large
            .attempts
            .iter()
            .find(|b| b.algorithm == a.algorithm && b.restart == a.restart)
            .expect("shared attempt present in the larger plan");
        assert_eq!(a.seed, same.seed);
        assert_eq!(a.cost, same.cost);
        assert_eq!(a.wavelengths, same.wavelengths);
    }
}

#[test]
fn different_seeds_usually_differ() {
    // Sanity check the RNG is actually consulted by the randomized
    // strategies: at least one of several seeds must produce a different
    // partition than seed 0.
    let demands = DemandSet::random(20, 60, &mut StdRng::seed_from_u64(5));
    let base = groom(
        &demands,
        8,
        Algorithm::SpanTEuler(TreeStrategy::RandomKruskal),
        &mut StdRng::seed_from_u64(0),
    )
    .unwrap();
    let any_differs = (1..6u64).any(|s| {
        let other = groom(
            &demands,
            8,
            Algorithm::SpanTEuler(TreeStrategy::RandomKruskal),
            &mut StdRng::seed_from_u64(s),
        )
        .unwrap();
        other.partition.parts() != base.partition.parts()
    });
    assert!(any_differs, "randomized strategy never varied across seeds");
}
