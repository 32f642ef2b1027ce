//! Wavelength-budget grooming: minimize SADMs subject to `W ≤ B`.
//!
//! The paper's introduction surveys the known tension between the two
//! objectives — minimum SADMs and minimum wavelengths cannot always be
//! achieved simultaneously (its refs [1, 7, 13]). The reason is one-sided:
//! *merging* two wavelengths never increases the SADM count
//! (`|V_A ∪ V_B| ≤ |V_A| + |V_B|`) but is blocked when `|E_A| + |E_B| > k`,
//! so SADM-optimal groomings may hold parts underfull and exceed `⌈m/k⌉`
//! wavelengths. This module resolves the tension operationally: an
//! [`Instance::Budgeted`](crate::solve::Instance::Budgeted) solve runs any
//! algorithm, then drives the wavelength count down to a budget `B` with
//! cheapest-first merges, falling back to a rebalancing pass (and finally
//! to a minimum-wavelength algorithm) when merging alone cannot reach `B`.

use grooming_graph::graph::Graph;

use crate::partition::EdgePartition;

/// Reduces the wavelength count of `partition` to at most `budget` without
/// ever increasing the SADM cost, when possible by merges alone; otherwise
/// rebalances edges out of the smallest parts (which may cost SADMs).
///
/// Precondition: `budget ≥ ⌈m/k⌉` (checked by
/// [`Instance::Budgeted`](crate::solve::Instance::Budgeted) solves; this
/// helper panics if merging+rebalancing cannot reach the budget, which
/// cannot happen when the precondition holds).
pub fn enforce_budget(
    g: &Graph,
    k: usize,
    partition: &EdgePartition,
    budget: usize,
) -> EdgePartition {
    assert!(k > 0, "grooming factor must be positive");
    let mut parts: Vec<Vec<_>> = partition.parts().to_vec();
    let touched = |part: &[grooming_graph::ids::EdgeId]| {
        grooming_graph::view::EdgeSubset::from_edges(g, part.iter().copied()).touched_node_count(g)
    };

    while parts.len() > budget {
        // Cheapest feasible merge: minimize the SADM delta
        // |V_{A∪B}| − |V_A| − |V_B| (always ≤ 0 for the count sum, but the
        // merged count can exceed either one, so pick the best pair).
        let mut best: Option<(usize, usize, isize)> = None;
        for a in 0..parts.len() {
            for b in (a + 1)..parts.len() {
                if parts[a].len() + parts[b].len() > k {
                    continue;
                }
                let merged: Vec<_> = parts[a].iter().chain(parts[b].iter()).copied().collect();
                let delta = touched(&merged) as isize
                    - touched(&parts[a]) as isize
                    - touched(&parts[b]) as isize;
                if best.is_none_or(|(_, _, d)| delta < d) {
                    best = Some((a, b, delta));
                }
            }
        }
        if let Some((a, b, _)) = best {
            let donor = parts.swap_remove(b);
            parts[a].extend(donor);
            continue;
        }
        // No pair fits: rebalance — spread the smallest part's edges into
        // parts with spare capacity (capacity must exist when
        // budget ≥ ⌈m/k⌉ and parts.len() > budget).
        let smallest = (0..parts.len())
            .min_by_key(|&i| parts[i].len())
            .expect("nonempty part list");
        let donor = parts.swap_remove(smallest);
        let mut leftovers = Vec::new();
        'edges: for e in donor {
            for part in parts.iter_mut() {
                if part.len() < k {
                    part.push(e);
                    continue 'edges;
                }
            }
            leftovers.push(e);
        }
        assert!(
            leftovers.is_empty(),
            "budget >= ceil(m/k) guarantees spare capacity"
        );
    }
    let out = EdgePartition::new(parts);
    debug_assert!(out.validate(g, k).is_ok());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use crate::bounds;
    use crate::solve::{Instance, SolveContext, SolveError, Solver};
    use grooming_graph::generators;
    use grooming_graph::spanning::TreeStrategy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Solves `Instance::budgeted` with `algorithm` on the RNG stream `seed`.
    fn budgeted(
        g: &Graph,
        k: usize,
        budget: usize,
        algorithm: Algorithm,
        seed: u64,
    ) -> Result<EdgePartition, SolveError> {
        let instance = Instance::budgeted(g.clone(), k, budget);
        let sol = algorithm.solve(&instance, &mut SolveContext::seeded(seed))?;
        Ok(sol.plan.partition().expect("budgeted plan").clone())
    }

    #[test]
    fn infeasible_budget_is_an_error() {
        let g = generators::gnm(10, 20, &mut rng(1));
        let err = budgeted(&g, 4, 4, Algorithm::Brauner, 1).unwrap_err();
        assert_eq!(
            err,
            SolveError::InfeasibleBudget {
                budget: 4,
                minimum: 5
            }
        );
    }

    #[test]
    fn minimum_budget_always_achievable() {
        for seed in 0..5u64 {
            let g = generators::gnm(16, 40, &mut rng(seed));
            for k in [2usize, 4, 16] {
                let min_w = EdgePartition::min_wavelengths(g.num_edges(), k);
                for algo in [
                    Algorithm::Goldschmidt, // often exceeds the minimum
                    Algorithm::CliqueFirst,
                    Algorithm::SpanTEuler(TreeStrategy::Bfs),
                ] {
                    let p = budgeted(&g, k, min_w, algo, seed + 9).unwrap();
                    p.validate(&g, k).unwrap();
                    assert!(p.num_wavelengths() <= min_w, "{algo} k={k}");
                    assert!(p.sadm_cost(&g) >= bounds::lower_bound(&g, k));
                }
            }
        }
    }

    #[test]
    fn generous_budget_keeps_the_algorithms_output() {
        let g = generators::gnm(14, 30, &mut rng(2));
        let base = Algorithm::CliqueFirst.run(&g, 4, &mut rng(3)).unwrap();
        let bounded = budgeted(&g, 4, base.num_wavelengths(), Algorithm::CliqueFirst, 3).unwrap();
        assert_eq!(bounded.sadm_cost(&g), base.sadm_cost(&g));
    }

    #[test]
    fn merging_never_raises_cost_when_merges_suffice() {
        // Singleton partition: every merge is feasible for k >= 2.
        let g = generators::gnm(12, 18, &mut rng(4));
        let singletons = EdgePartition::new(g.edges().map(|e| vec![e]).collect());
        let before = singletons.sadm_cost(&g);
        let bounded = enforce_budget(&g, 3, &singletons, 6);
        bounded.validate(&g, 3).unwrap();
        assert_eq!(bounded.num_wavelengths(), 6);
        assert!(bounded.sadm_cost(&g) <= before);
    }

    #[test]
    fn tightening_budget_weakly_raises_cost() {
        let g = generators::gnm(15, 36, &mut rng(5));
        let k = 6;
        let min_w = EdgePartition::min_wavelengths(g.num_edges(), k); // 6
        let mut costs = Vec::new();
        for budget in [min_w, min_w + 2, min_w + 4] {
            let p = budgeted(&g, k, budget, Algorithm::CliqueFirst, 6).unwrap();
            p.validate(&g, k).unwrap();
            assert!(p.num_wavelengths() <= budget);
            costs.push(p.sadm_cost(&g));
        }
        // Looser budgets can only help (the same merges remain available).
        assert!(costs[0] >= costs[2]);
    }

    #[test]
    fn algorithm_errors_propagate() {
        let g = generators::star(5);
        let err = budgeted(&g, 4, 10, Algorithm::RegularEuler, 7);
        assert!(matches!(err, Err(SolveError::NotRegular(_))));
    }
}
