//! A uniform interface over all grooming algorithms, for the benchmark
//! harness, the pipeline, and the examples.

use grooming_graph::graph::Graph;
use grooming_graph::spanning::TreeStrategy;
use grooming_graph::workspace::Workspace;
use rand::Rng;

use crate::baselines;
use crate::partition::EdgePartition;
use crate::regular_euler::{self, NotRegularError};
use crate::solve::{SolveConfig, SolveError, SolveStats};
use crate::spant_euler;

/// Every grooming algorithm in this crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Algo 1 — Goldschmidt et al. 2003 (spanning-tree partition).
    Goldschmidt,
    /// Algo 2 — Brauner et al. 2003 (Euler-path partition).
    Brauner,
    /// Algo 3 — Wang & Gu ICC'06 (tree-path skeleton cover).
    WangGuIcc06,
    /// The paper's SpanT_Euler with a choice of spanning-tree strategy.
    SpanTEuler(TreeStrategy),
    /// The paper's Regular_Euler (regular traffic graphs only).
    RegularEuler,
    /// SpanT_Euler followed by local-search refinement
    /// ([`crate::improve::refine`]) — the concluding remarks' first
    /// improvement direction.
    SpanTEulerRefined(TreeStrategy),
    /// The clique-first packer ([`crate::improve::clique_first`]) — the
    /// concluding remarks' "dense sub-graphs" direction.
    CliqueFirst,
    /// The generalized dense-first packer
    /// ([`crate::improve::dense_first`]): maximal cliques up to the
    /// grooming capacity, not just triangles.
    DenseFirst,
    /// The portfolio meta-algorithm ([`crate::portfolio::PortfolioEngine`]):
    /// run every general-purpose algorithm and keep the cheapest plan.
    Portfolio,
}

impl Algorithm {
    /// The figure-4 lineup: the three baselines plus SpanT_Euler.
    pub const FIGURE4: [Algorithm; 4] = [
        Algorithm::Goldschmidt,
        Algorithm::Brauner,
        Algorithm::WangGuIcc06,
        Algorithm::SpanTEuler(TreeStrategy::Bfs),
    ];

    /// The figure-5 lineup: the three baselines plus Regular_Euler.
    pub const FIGURE5: [Algorithm; 4] = [
        Algorithm::Goldschmidt,
        Algorithm::Brauner,
        Algorithm::WangGuIcc06,
        Algorithm::RegularEuler,
    ];

    /// Short display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Goldschmidt => "Algo 1 (Goldschmidt)",
            Algorithm::Brauner => "Algo 2 (Brauner)",
            Algorithm::WangGuIcc06 => "Algo 3 (WangGu ICC06)",
            Algorithm::SpanTEuler(_) => "SpanT_Euler",
            Algorithm::RegularEuler => "Regular_Euler",
            Algorithm::SpanTEulerRefined(_) => "SpanT_Euler+refine",
            Algorithm::CliqueFirst => "CliqueFirst",
            Algorithm::DenseFirst => "DenseFirst",
            Algorithm::Portfolio => "Portfolio (best-of)",
        }
    }

    /// Resolves a CLI/wire spelling (`spant-euler`, `auto`, `algo2`, …) to
    /// an algorithm — the inverse direction of [`Algorithm::name`], shared
    /// by the `upsr-groom` argument parser and the `groomd` wire protocol.
    pub fn by_name(name: &str) -> Option<Algorithm> {
        Some(match name {
            "goldschmidt" | "algo1" => Algorithm::Goldschmidt,
            "brauner" | "algo2" => Algorithm::Brauner,
            "wang-gu" | "wanggu" | "algo3" => Algorithm::WangGuIcc06,
            "spant-euler" | "spant" => Algorithm::SpanTEuler(TreeStrategy::Bfs),
            "spant-refined" | "refined" => Algorithm::SpanTEulerRefined(TreeStrategy::Bfs),
            "regular-euler" | "regular" => Algorithm::RegularEuler,
            "clique-first" | "clique" => Algorithm::CliqueFirst,
            "dense-first" | "dense" => Algorithm::DenseFirst,
            "auto" | "portfolio" => Algorithm::Portfolio,
            _ => return None,
        })
    }

    /// The canonical CLI/wire spelling — round-trips through
    /// [`Algorithm::by_name`]. Tree-strategy variants flatten to their
    /// canonical (BFS) spelling: the wire does not distinguish strategies.
    pub fn wire_name(&self) -> &'static str {
        match self {
            Algorithm::Goldschmidt => "goldschmidt",
            Algorithm::Brauner => "brauner",
            Algorithm::WangGuIcc06 => "wang-gu",
            Algorithm::SpanTEuler(_) => "spant-euler",
            Algorithm::SpanTEulerRefined(_) => "spant-refined",
            Algorithm::RegularEuler => "regular-euler",
            Algorithm::CliqueFirst => "clique-first",
            Algorithm::DenseFirst => "dense-first",
            Algorithm::Portfolio => "auto",
        }
    }

    /// A stable identity for seed derivation and tie-breaking in the
    /// portfolio engine: unlike a portfolio index, it never changes when
    /// entries are reordered, added, or removed. See
    /// [`crate::portfolio::attempt_seed`].
    pub fn stable_id(&self) -> u64 {
        fn strategy_ordinal(s: TreeStrategy) -> u64 {
            match s {
                TreeStrategy::Bfs => 0,
                TreeStrategy::Dfs => 1,
                TreeStrategy::RandomKruskal => 2,
                TreeStrategy::LowDegree => 3,
            }
        }
        match *self {
            Algorithm::Goldschmidt => 1,
            Algorithm::Brauner => 2,
            Algorithm::WangGuIcc06 => 3,
            Algorithm::RegularEuler => 4,
            Algorithm::CliqueFirst => 5,
            Algorithm::DenseFirst => 6,
            Algorithm::Portfolio => 7,
            Algorithm::SpanTEuler(s) => 0x10 + strategy_ordinal(s),
            Algorithm::SpanTEulerRefined(s) => 0x20 + strategy_ordinal(s),
        }
    }

    /// `true` if the algorithm's preconditions accept `g` — probed once
    /// per portfolio entry so a failing precondition skips the entry
    /// instead of erroring on every restart.
    pub fn applicable(&self, g: &Graph) -> bool {
        match self {
            Algorithm::RegularEuler => g.regularity().is_some(),
            _ => true,
        }
    }

    /// Runs the algorithm on traffic graph `g` with grooming factor `k`.
    ///
    /// Shim over [`Algorithm::run_in`] with a fresh workspace, default
    /// config, and throwaway stats — same outputs, per-call scratch
    /// allocation. Context-aware callers should use
    /// [`crate::solve::Solver::solve`] or [`Algorithm::run_in`] directly.
    pub fn run<R: Rng>(
        &self,
        g: &Graph,
        k: usize,
        rng: &mut R,
    ) -> Result<EdgePartition, NotRegularError> {
        let mut stats = SolveStats::default();
        self.run_in(
            g,
            k,
            rng,
            &mut Workspace::new(),
            &SolveConfig::default(),
            &mut stats,
        )
        .map_err(|e| match e {
            SolveError::NotRegular(err) => err,
            other => unreachable!("graph-level algorithms only fail as NotRegular, got {other:?}"),
        })
    }

    /// Runs the algorithm against a caller-owned [`Workspace`], config, and
    /// stats sink — the entry point the solve layer and the portfolio
    /// engine's workers use. Outputs are bit-identical to [`Algorithm::run`]
    /// on the same RNG stream (the workspace only affects allocation).
    pub fn run_in<R: Rng>(
        &self,
        g: &Graph,
        k: usize,
        rng: &mut R,
        ws: &mut Workspace,
        config: &SolveConfig,
        stats: &mut SolveStats,
    ) -> Result<EdgePartition, SolveError> {
        Ok(match self {
            Algorithm::Goldschmidt => baselines::goldschmidt_in(g, k, rng, ws),
            Algorithm::Brauner => baselines::brauner_in(g, k, ws),
            Algorithm::WangGuIcc06 => baselines::wang_gu_icc06_in(g, k, rng, ws),
            Algorithm::SpanTEuler(strategy) => {
                spant_euler::spant_euler_in(g, k, *strategy, rng, ws)
            }
            Algorithm::RegularEuler => regular_euler::regular_euler_in(g, k, ws)?,
            Algorithm::SpanTEulerRefined(strategy) => {
                let base = spant_euler::spant_euler_in(g, k, *strategy, rng, ws);
                let (refined, swaps) =
                    crate::improve::refine_with_stats(g, k, &base, config.refine_rounds);
                stats.swaps_evaluated += swaps;
                refined
            }
            Algorithm::CliqueFirst => crate::improve::clique_first(g, k, rng),
            Algorithm::DenseFirst => crate::improve::dense_first(g, k, rng),
            Algorithm::Portfolio => {
                // Draw the master with one `next_u64`, as
                // `PortfolioSolver` does without an explicit master seed.
                let master = rng.next_u64();
                let result =
                    crate::portfolio::PortfolioEngine::new(&crate::portfolio::DEFAULT_PORTFOLIO)
                        .master_seed(master)
                        .jobs(1)
                        .config(config.clone())
                        .run_in(g, k, ws);
                stats.swaps_evaluated += result.swaps_evaluated;
                result.partition
            }
        })
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grooming_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_algorithms_run_on_regular_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::random_regular(20, 4, &mut rng);
        for algo in Algorithm::FIGURE5 {
            let p = algo.run(&g, 4, &mut rng).unwrap();
            p.validate(&g, 4).unwrap();
        }
    }

    #[test]
    fn regular_euler_refuses_irregular_inputs() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::star(6);
        assert!(Algorithm::RegularEuler.run(&g, 4, &mut rng).is_err());
        for algo in Algorithm::FIGURE4 {
            assert!(algo.run(&g, 4, &mut rng).is_ok(), "{algo}");
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> = Algorithm::FIGURE4
            .iter()
            .chain(&[
                Algorithm::RegularEuler,
                Algorithm::CliqueFirst,
                Algorithm::DenseFirst,
                Algorithm::SpanTEulerRefined(TreeStrategy::Bfs),
            ])
            .map(|a| a.name())
            .collect();
        assert_eq!(names.len(), 8);
        assert_eq!(
            Algorithm::SpanTEuler(TreeStrategy::Bfs).to_string(),
            "SpanT_Euler"
        );
    }

    #[test]
    fn extension_algorithms_never_lose_to_their_base() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnm(18, 50, &mut rng);
        for k in [3usize, 4, 16] {
            let mut r1 = StdRng::seed_from_u64(9);
            let mut r2 = StdRng::seed_from_u64(9);
            let base = Algorithm::SpanTEuler(TreeStrategy::Bfs)
                .run(&g, k, &mut r1)
                .unwrap();
            let refined = Algorithm::SpanTEulerRefined(TreeStrategy::Bfs)
                .run(&g, k, &mut r2)
                .unwrap();
            refined.validate(&g, k).unwrap();
            assert!(refined.sadm_cost(&g) <= base.sadm_cost(&g));
            let cf = Algorithm::CliqueFirst.run(&g, k, &mut r2).unwrap();
            cf.validate(&g, k).unwrap();
        }
    }
}
