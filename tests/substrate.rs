//! Integration tests across the substrate extensions: weighted demands,
//! protection switching, BLSR grooming, and the wavelength-budget layer —
//! exercised together through realistic scenarios.

use grooming::algorithm::Algorithm;
use grooming::pipeline::groom;
use grooming::solve::{Instance, SolveContext, Solver};
use grooming_graph::spanning::TreeStrategy;
use grooming_sonet::blsr::{groom_blsr, BlsrRing};
use grooming_sonet::demand::DemandSet;
use grooming_sonet::protection::{simulate, Failure};
use grooming_sonet::ring::UpsrRing;
use grooming_sonet::weighted::{first_fit_decreasing, WeightedDemandSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn random_weighted(n: usize, count: usize, max_units: u32, seed: u64) -> WeightedDemandSet {
    let mut r = rng(seed);
    let mut set = WeightedDemandSet::new(n);
    for _ in 0..count {
        let a = r.gen_range(0..n as u32);
        let mut b = r.gen_range(0..n as u32);
        while b == a {
            b = r.gen_range(0..n as u32);
        }
        set.add(
            grooming_graph::ids::NodeId(a),
            grooming_graph::ids::NodeId(b),
            r.gen_range(1..=max_units),
        );
    }
    set
}

#[test]
fn weighted_splittable_path_runs_the_paper_algorithms() {
    for seed in 0..3u64 {
        let set = random_weighted(14, 20, 6, seed);
        let unitary = set.expand();
        assert_eq!(unitary.len() as u64, set.total_units());
        for algo in [
            Algorithm::SpanTEuler(TreeStrategy::Bfs),
            Algorithm::Brauner,
            Algorithm::CliqueFirst,
        ] {
            let out = groom(&unitary, 16, algo, &mut rng(seed)).unwrap();
            out.assignment.validate(Some(&unitary)).unwrap();
            assert_eq!(out.report.wavelengths, unitary.len().div_ceil(16));
        }
    }
}

#[test]
fn weighted_non_splittable_never_beats_splittable_wavelengths() {
    for seed in 0..4u64 {
        let set = random_weighted(12, 15, 8, seed);
        let k = 16;
        let non_split = first_fit_decreasing(&set, k);
        non_split.validate(Some(&set)).unwrap();
        let split_min = (set.total_units() as usize).div_ceil(k);
        assert!(non_split.num_wavelengths() >= split_min);
    }
}

#[test]
fn groomed_rings_survive_every_single_span_cut() {
    // The full stack: groom, then fire-drill the result's demand set.
    let demands = DemandSet::random(18, 50, &mut rng(9));
    let out = groom(
        &demands,
        8,
        Algorithm::SpanTEuler(TreeStrategy::Bfs),
        &mut rng(9),
    )
    .unwrap();
    assert_eq!(out.report.pairs_carried, demands.len());
    let ring = UpsrRing::new(18);
    for span in ring.arcs() {
        let rep = simulate(&ring, &demands, &Failure::single(span));
        assert!(rep.fully_survivable());
        assert_eq!(rep.working + rep.switched, 2 * demands.len());
    }
}

#[test]
fn blsr_uses_no_more_wavelengths_than_upsr_on_short_hop_traffic() {
    // Adjacent-neighbor traffic: the best case for spatial reuse.
    let n = 16;
    let mut demands = DemandSet::new(n);
    for i in 0..n as u32 {
        demands.add(
            grooming_graph::ids::NodeId(i),
            grooming_graph::ids::NodeId((i + 1) % n as u32),
        );
    }
    let k = 4;
    let upsr = groom(&demands, k, Algorithm::Brauner, &mut rng(1)).unwrap();
    let blsr = groom_blsr(BlsrRing::new(n), &demands, k);
    blsr.validate(Some(&demands)).unwrap();
    assert!(blsr.num_wavelengths() <= upsr.report.wavelengths);
    // 16 single-hop demands, span capacity 4: the ring carries them all on
    // one wavelength (each span loaded once).
    assert_eq!(blsr.num_wavelengths(), 1);
}

#[test]
fn budget_layer_composes_with_the_pipeline_demands() {
    let demands = DemandSet::random(16, 40, &mut rng(3));
    let g = demands.to_traffic_graph();
    let min_w = 40usize.div_ceil(8);
    let budgeted = |budget: usize| {
        Algorithm::CliqueFirst
            .solve(
                &Instance::budgeted(g.clone(), 8, budget),
                &mut SolveContext::seeded(3),
            )
            .unwrap()
            .plan
    };
    let p = budgeted(min_w);
    p.partition().unwrap().validate(&g, 8).unwrap();
    assert!(p.wavelengths() <= min_w);
    // And with slack, cost is no worse.
    let loose = budgeted(min_w + 4);
    assert!(loose.sadm_cost() <= p.sadm_cost());
}

#[test]
fn weighted_protection_drill() {
    // Expand weighted demands, groom, and verify survivability of the
    // expanded set (duplicates included).
    let set = random_weighted(10, 12, 4, 5);
    let unitary = set.expand();
    let ring = UpsrRing::new(10);
    for span in ring.arcs() {
        let rep = simulate(&ring, &unitary, &Failure::single(span));
        assert!(rep.fully_survivable());
    }
}
