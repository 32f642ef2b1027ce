//! Portfolio meta-grooming: a deterministic parallel engine that races
//! several algorithms (each with several restarts) and keeps the cheapest
//! plan — the practical "just give me the cheapest plan" entry point for
//! planners who don't care which heuristic wins.
//!
//! # Determinism model
//!
//! Every `(algorithm, restart)` attempt owns an independent RNG stream
//! derived from a single master seed by a SplitMix64 finalizer over the
//! algorithm's *stable id* (see [`Algorithm::stable_id`]) and the restart
//! index ([`attempt_seed`]). Because no attempt shares RNG state with any
//! other, the set of attempt outcomes is a pure function of
//! `(graph, k, master_seed)` — independent of worker count, scheduling,
//! portfolio order, and of how many *extra* restarts run alongside.
//!
//! The reduction picks the minimum under the fixed tie-break key
//! `(cost, stable_id, restart)`, which is order-free, so the parallel
//! result is bit-identical to the sequential (`jobs = 1`) result for the
//! same master seed.
//!
//! # Deadline model
//!
//! An optional deadline (and cooperative cancel flag) is checked at
//! *attempt boundaries only* — never mid-attempt. The first attempt of the
//! plan always runs, so even an already-expired deadline yields a valid
//! best-so-far result; [`PortfolioResult::timed_out`] reports the cut.
//! Which later attempts complete under a racing deadline depends on
//! wall-clock, but the reduction over whatever completed stays order-free.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use grooming_graph::graph::Graph;
use grooming_graph::spanning::TreeStrategy;
use grooming_graph::workspace::Workspace;

use crate::algorithm::Algorithm;
use crate::partition::EdgePartition;
use crate::solve::{SolveConfig, SolveStats};

/// The default portfolio: every algorithm applicable to arbitrary traffic,
/// ordered cheap-to-expensive.
pub const DEFAULT_PORTFOLIO: [Algorithm; 6] = [
    Algorithm::Brauner,
    Algorithm::WangGuIcc06,
    Algorithm::SpanTEuler(TreeStrategy::Bfs),
    Algorithm::SpanTEulerRefined(TreeStrategy::Bfs),
    Algorithm::CliqueFirst,
    Algorithm::DenseFirst,
];

/// Derives the RNG seed of one `(algorithm, restart)` attempt from the
/// engine's master seed.
///
/// The derivation goes through the algorithm's [`Algorithm::stable_id`]
/// (not its position in the portfolio), so reordering a portfolio never
/// changes any attempt's stream, and a SplitMix64 finalizer decorrelates
/// neighbouring `(master, restart)` inputs.
pub fn attempt_seed(master: u64, algo: Algorithm, restart: usize) -> u64 {
    // Domain-separate from raw master seeds so `attempt_seed(m, a, 0)`
    // never collides with a user-chosen master `m`.
    let mut state = (master ^ 0xD1B5_4A32_D192_ED03)
        .wrapping_add(algo.stable_id().wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((restart as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    rand::splitmix64(&mut state)
}

/// One executed `(algorithm, restart)` attempt, for cost/time reporting.
#[derive(Clone, Debug)]
pub struct AttemptRecord {
    /// The algorithm that ran.
    pub algorithm: Algorithm,
    /// Its position in the (deduplicated) portfolio.
    pub algo_index: usize,
    /// The restart index, `0..=restarts`.
    pub restart: usize,
    /// The derived RNG seed the attempt ran with.
    pub seed: u64,
    /// SADM cost of the attempt's partition.
    pub cost: usize,
    /// Wavelength count of the attempt's partition.
    pub wavelengths: usize,
    /// Wall-clock time of this attempt (informational; not deterministic).
    pub duration: Duration,
    /// Refinement swaps this attempt evaluated (zero for non-refining
    /// algorithms).
    pub swaps_evaluated: u64,
    /// Scratch-buffer resets this attempt performed in its workspace.
    pub scratch_resets: u64,
}

/// The winning entry of a portfolio run.
#[derive(Clone, Debug)]
pub struct PortfolioResult {
    /// The cheapest partition found.
    pub partition: EdgePartition,
    /// Which algorithm produced it.
    pub winner: Algorithm,
    /// The restart index that produced the winning partition.
    pub winner_restart: usize,
    /// Its SADM cost.
    pub cost: usize,
    /// Best cost of every *applicable* portfolio entry, in input order
    /// (for reporting).
    pub all_costs: Vec<(Algorithm, usize)>,
    /// Every executed attempt in `(algo_index, restart)` order, with
    /// per-attempt cost and timing.
    pub attempts: Vec<AttemptRecord>,
    /// Portfolio entries skipped because their preconditions failed on
    /// this instance (probed once per algorithm, before any restart).
    pub skipped: Vec<Algorithm>,
    /// Attempts that returned an error at runtime (skipped, not fatal).
    pub failed_attempts: usize,
    /// Planned attempts left unexecuted because the deadline passed or the
    /// cancel flag was raised.
    pub deadline_skipped: usize,
    /// `true` if the deadline/cancel flag cut the run short; the result is
    /// still the valid best over everything that did run.
    pub timed_out: bool,
    /// Refinement swaps evaluated, summed over executed attempts
    /// (order-independent, hence deterministic for a fixed attempt set).
    pub swaps_evaluated: u64,
    /// Scratch-buffer resets, summed over executed attempts.
    pub scratch_resets: u64,
    /// Wall-clock time of the whole run (informational).
    pub wall_time: Duration,
}

/// The deterministic payload of a [`PortfolioResult`]: the winning
/// partition, winner name, cost, and per-attempt `(name, restart, cost,
/// seed)` tuples — everything except the wall-clock measurements.
pub type Fingerprint = (
    Vec<Vec<grooming_graph::ids::EdgeId>>,
    String,
    usize,
    Vec<(String, usize, usize, u64)>,
);

impl PortfolioResult {
    /// The deterministic payload of the result — everything except the
    /// wall-clock measurements. Two runs with the same master seed compare
    /// equal under this view regardless of `jobs` or portfolio order.
    pub fn fingerprint(&self) -> Fingerprint {
        (
            self.partition.parts().to_vec(),
            self.winner.name().to_string(),
            self.cost,
            self.attempts
                .iter()
                .map(|a| (a.algorithm.name().to_string(), a.restart, a.cost, a.seed))
                .collect(),
        )
    }
}

/// Configuration of a deterministic parallel portfolio run.
#[derive(Clone, Debug)]
pub struct PortfolioEngine<'a> {
    portfolio: &'a [Algorithm],
    restarts: usize,
    jobs: usize,
    master_seed: u64,
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
    config: SolveConfig,
}

impl<'a> PortfolioEngine<'a> {
    /// Engine over `portfolio` with no extra restarts, auto job count, and
    /// master seed 0.
    pub fn new(portfolio: &'a [Algorithm]) -> Self {
        PortfolioEngine {
            portfolio,
            restarts: 0,
            jobs: 0,
            master_seed: 0,
            deadline: None,
            cancel: None,
            config: SolveConfig::default(),
        }
    }

    /// Extra RNG-reseeded attempts per entry (`0` = single shot).
    pub fn restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts;
        self
    }

    /// Worker threads (`0` = one per available core, `1` = in-thread
    /// sequential execution). Never affects the result, only wall-clock.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// The master seed every attempt stream is derived from.
    pub fn master_seed(mut self, master_seed: u64) -> Self {
        self.master_seed = master_seed;
        self
    }

    /// An optional absolute deadline, checked at attempt boundaries only;
    /// the plan's first attempt always runs.
    pub fn deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// A cooperative cancel flag, checked at the same boundaries as the
    /// deadline.
    pub fn cancel_with(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Tunables forwarded into every attempt (e.g. refinement rounds).
    pub fn config(mut self, config: SolveConfig) -> Self {
        self.config = config;
        self
    }

    fn should_stop(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Runs the portfolio on `(g, k)` with a throwaway scratch workspace —
    /// shim over [`PortfolioEngine::run_in`].
    ///
    /// # Panics
    /// Panics if `k == 0`, if the portfolio contains
    /// [`Algorithm::Portfolio`], or if no entry accepts the instance.
    pub fn run(&self, g: &Graph, k: usize) -> PortfolioResult {
        self.run_in(g, k, &mut Workspace::new())
    }

    /// Runs the portfolio on `(g, k)` against a caller-owned [`Workspace`]
    /// (used directly by the sequential path; parallel workers own one
    /// workspace each).
    ///
    /// Applicability is probed once per algorithm ([`Algorithm::applicable`]);
    /// entries that fail the probe are reported in
    /// [`PortfolioResult::skipped`]. An attempt that still errors at
    /// runtime is counted in [`PortfolioResult::failed_attempts`] and
    /// skipped — it never cancels the remaining restarts.
    ///
    /// # Panics
    /// Panics if `k == 0`, if the portfolio contains
    /// [`Algorithm::Portfolio`] (the meta-algorithm cannot nest inside the
    /// lineup it is running), or if no entry accepts the instance.
    pub fn run_in(&self, g: &Graph, k: usize, ws: &mut Workspace) -> PortfolioResult {
        assert!(k > 0, "grooming factor must be positive");
        assert!(
            !self
                .portfolio
                .iter()
                .any(|a| matches!(a, Algorithm::Portfolio)),
            "Algorithm::Portfolio cannot appear inside a portfolio lineup"
        );
        let started = Instant::now();

        // Deduplicate by stable id, keeping first occurrence: duplicate
        // entries would run identical streams and only blur the tie-break.
        let mut entries: Vec<Algorithm> = Vec::with_capacity(self.portfolio.len());
        let mut skipped = Vec::new();
        for &algo in self.portfolio {
            if entries.iter().any(|e| e.stable_id() == algo.stable_id()) {
                continue;
            }
            if algo.applicable(g) {
                entries.push(algo);
            } else {
                skipped.push(algo);
            }
        }

        // The attempt plan, in deterministic (algo_index, restart) order.
        let plan: Vec<(usize, Algorithm, usize, u64)> = entries
            .iter()
            .enumerate()
            .flat_map(|(ai, &algo)| {
                (0..=self.restarts).map(move |restart| {
                    (
                        ai,
                        algo,
                        restart,
                        attempt_seed(self.master_seed, algo, restart),
                    )
                })
            })
            .collect();

        let (mut outcomes, timed_out) = self.execute(g, k, &plan, ws);

        // Deterministic reduction: per-entry bests in input order, global
        // best under the order-free (cost, stable_id, restart) key.
        let mut attempts = Vec::with_capacity(plan.len());
        let mut failed_attempts = 0usize;
        let mut deadline_skipped = 0usize;
        let mut swaps_evaluated = 0u64;
        let mut scratch_resets = 0u64;
        let mut per_entry_best: Vec<Option<usize>> = vec![None; entries.len()];
        let mut best: Option<(usize, (usize, u64, usize))> = None; // (plan idx, key)
        for (i, slot) in outcomes.iter().enumerate() {
            let (ai, algo, restart, seed) = plan[i];
            let outcome = match slot {
                AttemptSlot::Skipped => {
                    deadline_skipped += 1;
                    continue;
                }
                AttemptSlot::Failed => {
                    failed_attempts += 1;
                    continue;
                }
                AttemptSlot::Done(outcome) => outcome,
            };
            swaps_evaluated += outcome.swaps_evaluated;
            scratch_resets += outcome.scratch_resets;
            attempts.push(AttemptRecord {
                algorithm: algo,
                algo_index: ai,
                restart,
                seed,
                cost: outcome.cost,
                wavelengths: outcome.wavelengths,
                duration: outcome.duration,
                swaps_evaluated: outcome.swaps_evaluated,
                scratch_resets: outcome.scratch_resets,
            });
            let slot = &mut per_entry_best[ai];
            *slot = Some(slot.map_or(outcome.cost, |b| b.min(outcome.cost)));
            let key = (outcome.cost, algo.stable_id(), restart);
            if best.as_ref().is_none_or(|(_, bk)| key < *bk) {
                best = Some((i, key));
            }
        }

        let (best_idx, _) = best.expect("no portfolio entry accepted the instance");
        let (_, winner, winner_restart, _) = plan[best_idx];
        // Move the winning partition out instead of cloning it; the
        // outcome slots are dropped right after the reduction anyway.
        let outcome = std::mem::replace(&mut outcomes[best_idx], AttemptSlot::Skipped)
            .into_done()
            .expect("winner outcome exists");
        let all_costs = entries
            .iter()
            .zip(&per_entry_best)
            .filter_map(|(&algo, best)| best.map(|c| (algo, c)))
            .collect();

        PortfolioResult {
            partition: outcome.partition,
            winner,
            winner_restart,
            cost: outcome.cost,
            all_costs,
            attempts,
            skipped,
            failed_attempts,
            deadline_skipped,
            timed_out,
            swaps_evaluated,
            scratch_resets,
            wall_time: started.elapsed(),
        }
    }

    /// Executes the plan, one outcome slot per attempt. `jobs == 1` runs
    /// in-thread against the caller's workspace; otherwise a scoped thread
    /// pool drains an atomic cursor, each worker owning one
    /// [`Workspace`] across every attempt it drains (scratch buffers are
    /// allocated once per worker, not once per attempt). Either path fills
    /// identical slots because every attempt's RNG stream is
    /// self-contained. Deadline/cancel checks happen only between
    /// attempts, and the plan's first attempt is exempt so a valid result
    /// always exists.
    fn execute(
        &self,
        g: &Graph,
        k: usize,
        plan: &[(usize, Algorithm, usize, u64)],
        ws: &mut Workspace,
    ) -> (Vec<AttemptSlot>, bool) {
        let jobs = effective_jobs(self.jobs, plan.len());
        if jobs <= 1 {
            let mut slots = Vec::with_capacity(plan.len());
            let mut stopped = false;
            for (i, &(_, algo, _, seed)) in plan.iter().enumerate() {
                if i > 0 && (stopped || self.should_stop()) {
                    stopped = true;
                    slots.push(AttemptSlot::Skipped);
                    continue;
                }
                slots.push(run_attempt(g, k, algo, seed, &self.config, ws));
            }
            return (slots, stopped);
        }
        let slots: Vec<Mutex<AttemptSlot>> = plan
            .iter()
            .map(|_| Mutex::new(AttemptSlot::Skipped))
            .collect();
        let cursor = AtomicUsize::new(0);
        let stopped = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| {
                    let mut worker_ws = Workspace::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(_, algo, _, seed)) = plan.get(i) else {
                            break;
                        };
                        if i > 0 && self.should_stop() {
                            stopped.store(true, Ordering::Relaxed);
                            break;
                        }
                        let outcome = run_attempt(g, k, algo, seed, &self.config, &mut worker_ws);
                        *slots[i].lock().expect("attempt slot poisoned") = outcome;
                    }
                });
            }
        });
        (
            slots
                .into_iter()
                .map(|slot| slot.into_inner().expect("attempt slot poisoned"))
                .collect(),
            stopped.into_inner(),
        )
    }
}

/// Resolves a `jobs` request: `0` means one worker per available core,
/// and there is never a reason to spawn more workers than attempts.
fn effective_jobs(jobs: usize, attempts: usize) -> usize {
    let requested = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        jobs
    };
    requested.min(attempts.max(1))
}

/// How one planned attempt ended: never started (deadline/cancel), failed
/// at runtime, or completed.
enum AttemptSlot {
    Skipped,
    Failed,
    Done(AttemptOutcome),
}

impl AttemptSlot {
    fn into_done(self) -> Option<AttemptOutcome> {
        match self {
            AttemptSlot::Done(outcome) => Some(outcome),
            _ => None,
        }
    }
}

struct AttemptOutcome {
    partition: EdgePartition,
    cost: usize,
    wavelengths: usize,
    duration: Duration,
    swaps_evaluated: u64,
    scratch_resets: u64,
}

/// Runs one attempt on its own derived stream against `ws`. Runtime errors
/// become [`AttemptSlot::Failed`] (the attempt is skipped, per-restart
/// errors never cancel later restarts).
fn run_attempt(
    g: &Graph,
    k: usize,
    algo: Algorithm,
    seed: u64,
    config: &SolveConfig,
    ws: &mut Workspace,
) -> AttemptSlot {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let started = Instant::now();
    let resets_before = ws.scratch_resets();
    let mut stats = SolveStats::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let Ok(partition) = algo.run_in(g, k, &mut rng, ws, config, &mut stats) else {
        return AttemptSlot::Failed;
    };
    debug_assert!(partition.validate(g, k).is_ok());
    let cost = partition.sadm_cost(g);
    let wavelengths = partition.num_wavelengths();
    AttemptSlot::Done(AttemptOutcome {
        partition,
        cost,
        wavelengths,
        duration: started.elapsed(),
        swaps_evaluated: stats.swaps_evaluated,
        scratch_resets: ws.scratch_resets() - resets_before,
    })
}

/// Runs every algorithm in `portfolio` (skipping entries whose
/// preconditions fail) with `restarts` extra derived-seed attempts per
/// entry and `jobs` workers, and returns the cheapest valid result.
///
/// Ties break by the fixed `(cost, stable_id, restart)` key, so the
/// result is bit-identical across job counts and portfolio orderings.
///
/// # Panics
/// Panics if `k == 0` or no portfolio entry accepts the instance.
pub fn best_of_seeded(
    g: &Graph,
    k: usize,
    portfolio: &[Algorithm],
    restarts: usize,
    master_seed: u64,
    jobs: usize,
) -> PortfolioResult {
    PortfolioEngine::new(portfolio)
        .restarts(restarts)
        .master_seed(master_seed)
        .jobs(jobs)
        .run(g, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use grooming_graph::generators;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The master seed a context seeded with `seed` hands the engine (one
    /// `next_u64` draw).
    fn master(seed: u64) -> u64 {
        StdRng::seed_from_u64(seed).next_u64()
    }

    #[test]
    fn portfolio_beats_or_matches_every_member() {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnm(20, 60, &mut rng);
            for k in [3usize, 8, 16] {
                let result = best_of_seeded(&g, k, &DEFAULT_PORTFOLIO, 0, master(seed + 100), 1);
                result.partition.validate(&g, k).unwrap();
                assert_eq!(result.cost, result.partition.sadm_cost(&g));
                for &(_, c) in &result.all_costs {
                    assert!(result.cost <= c);
                }
                assert!(result.cost >= bounds::lower_bound(&g, k));
            }
        }
    }

    #[test]
    fn restarts_never_hurt() {
        let g = generators::gnm(18, 50, &mut StdRng::seed_from_u64(1));
        let single = best_of_seeded(&g, 8, &DEFAULT_PORTFOLIO, 0, master(2), 1);
        let multi = best_of_seeded(&g, 8, &DEFAULT_PORTFOLIO, 3, master(2), 1);
        assert!(multi.cost <= single.cost);
    }

    #[test]
    fn skips_inapplicable_entries() {
        // Regular_Euler in the portfolio on irregular input: skipped, the
        // rest still compete.
        let g = generators::star(8);
        let portfolio = [
            Algorithm::RegularEuler,
            Algorithm::SpanTEuler(grooming_graph::spanning::TreeStrategy::Bfs),
        ];
        let result = best_of_seeded(&g, 4, &portfolio, 0, master(3), 1);
        assert_eq!(result.winner.name(), "SpanT_Euler");
        assert_eq!(result.all_costs.len(), 1);
        assert_eq!(result.skipped, vec![Algorithm::RegularEuler]);
        assert_eq!(result.failed_attempts, 0);
        assert_eq!(result.deadline_skipped, 0);
        assert!(!result.timed_out);
    }

    #[test]
    fn winner_is_reported_consistently() {
        let g = generators::complete(12);
        let result = best_of_seeded(&g, 3, &DEFAULT_PORTFOLIO, 0, master(4), 1);
        // On triangle-rich graphs at k=3 a clique packer must win.
        assert!(matches!(
            result.winner,
            Algorithm::CliqueFirst | Algorithm::DenseFirst
        ));
    }

    #[test]
    #[should_panic(expected = "no portfolio entry")]
    fn empty_portfolio_panics() {
        let g = generators::cycle(4);
        let _ = best_of_seeded(&g, 2, &[], 0, master(5), 1);
    }

    #[test]
    #[should_panic(expected = "cannot appear inside a portfolio lineup")]
    fn nested_portfolio_entry_panics() {
        let g = generators::cycle(6);
        let lineup = [Algorithm::Brauner, Algorithm::Portfolio];
        let _ = PortfolioEngine::new(&lineup).run(&g, 2);
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let g = generators::gnm(24, 90, &mut StdRng::seed_from_u64(11));
        for master in [0u64, 7, 0xDEAD_BEEF] {
            let sequential = best_of_seeded(&g, 8, &DEFAULT_PORTFOLIO, 2, master, 1);
            for jobs in [2usize, 3, 8] {
                let parallel = best_of_seeded(&g, 8, &DEFAULT_PORTFOLIO, 2, master, jobs);
                assert_eq!(sequential.fingerprint(), parallel.fingerprint());
            }
        }
    }

    #[test]
    fn portfolio_order_does_not_change_the_outcome() {
        let g = generators::gnm(20, 70, &mut StdRng::seed_from_u64(13));
        let forward = best_of_seeded(&g, 6, &DEFAULT_PORTFOLIO, 1, 99, 0);
        let mut reversed_portfolio = DEFAULT_PORTFOLIO;
        reversed_portfolio.reverse();
        let reversed = best_of_seeded(&g, 6, &reversed_portfolio, 1, 99, 0);
        assert_eq!(forward.cost, reversed.cost);
        assert_eq!(forward.winner.name(), reversed.winner.name());
        assert_eq!(forward.partition.parts(), reversed.partition.parts());
    }

    #[test]
    fn extra_restarts_preserve_shared_attempts() {
        let g = generators::gnm(18, 55, &mut StdRng::seed_from_u64(17));
        let small = best_of_seeded(&g, 8, &DEFAULT_PORTFOLIO, 1, 5, 0);
        let large = best_of_seeded(&g, 8, &DEFAULT_PORTFOLIO, 4, 5, 0);
        // Every attempt of the small run reappears, bit-identical, in the
        // large run: streams depend on (master, algo, restart) only.
        for a in &small.attempts {
            let twin = large
                .attempts
                .iter()
                .find(|b| {
                    b.algorithm.stable_id() == a.algorithm.stable_id() && b.restart == a.restart
                })
                .expect("shared attempt must exist");
            assert_eq!(twin.seed, a.seed);
            assert_eq!(twin.cost, a.cost);
        }
        assert!(large.cost <= small.cost);
    }

    #[test]
    fn duplicate_entries_are_deduplicated() {
        let g = generators::gnm(16, 40, &mut StdRng::seed_from_u64(19));
        let doubled = [
            Algorithm::Brauner,
            Algorithm::Brauner,
            Algorithm::SpanTEuler(TreeStrategy::Bfs),
        ];
        let result = best_of_seeded(&g, 4, &doubled, 2, 1, 0);
        assert_eq!(result.all_costs.len(), 2);
        assert_eq!(result.attempts.len(), 2 * 3);
    }

    #[test]
    fn attempt_records_cover_the_whole_plan() {
        let g = generators::gnm(14, 30, &mut StdRng::seed_from_u64(23));
        let restarts = 2;
        let result = best_of_seeded(&g, 4, &DEFAULT_PORTFOLIO, restarts, 3, 0);
        assert_eq!(
            result.attempts.len(),
            DEFAULT_PORTFOLIO.len() * (restarts + 1)
        );
        for a in &result.attempts {
            assert_eq!(a.seed, attempt_seed(3, a.algorithm, a.restart));
            assert!(a.cost >= result.cost);
            assert!(a.wavelengths >= 1);
        }
        // Records arrive in deterministic (algo_index, restart) order.
        let order: Vec<(usize, usize)> = result
            .attempts
            .iter()
            .map(|a| (a.algo_index, a.restart))
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }

    #[test]
    fn expired_deadline_still_runs_the_first_attempt() {
        let g = generators::gnm(16, 40, &mut StdRng::seed_from_u64(29));
        let result = PortfolioEngine::new(&DEFAULT_PORTFOLIO)
            .restarts(2)
            .jobs(1)
            .master_seed(7)
            .deadline(Some(Instant::now()))
            .run(&g, 4);
        assert!(result.timed_out);
        assert_eq!(result.attempts.len(), 1);
        assert_eq!(result.deadline_skipped, DEFAULT_PORTFOLIO.len() * 3 - 1);
        // The survivor is the plan's first attempt, so the result is
        // deterministic even under a zero deadline.
        assert_eq!(result.winner.stable_id(), DEFAULT_PORTFOLIO[0].stable_id());
        assert_eq!(result.winner_restart, 0);
        result.partition.validate(&g, 4).unwrap();
    }

    #[test]
    fn expired_deadline_parallel_also_yields_exactly_attempt_zero() {
        let g = generators::gnm(16, 40, &mut StdRng::seed_from_u64(31));
        let sequential = PortfolioEngine::new(&DEFAULT_PORTFOLIO)
            .jobs(1)
            .master_seed(9)
            .deadline(Some(Instant::now()))
            .run(&g, 4);
        let parallel = PortfolioEngine::new(&DEFAULT_PORTFOLIO)
            .jobs(4)
            .master_seed(9)
            .deadline(Some(Instant::now()))
            .run(&g, 4);
        assert_eq!(sequential.fingerprint(), parallel.fingerprint());
        assert!(parallel.timed_out);
    }

    #[test]
    fn cancel_flag_cuts_the_run_short() {
        let g = generators::gnm(16, 40, &mut StdRng::seed_from_u64(37));
        let flag = Arc::new(AtomicBool::new(true));
        let result = PortfolioEngine::new(&DEFAULT_PORTFOLIO)
            .jobs(1)
            .cancel_with(Arc::clone(&flag))
            .run(&g, 4);
        assert!(result.timed_out);
        assert_eq!(result.attempts.len(), 1);
    }

    #[test]
    fn no_deadline_reports_no_timeout_and_aggregated_stats() {
        let g = generators::gnm(18, 50, &mut StdRng::seed_from_u64(41));
        let result = best_of_seeded(&g, 4, &DEFAULT_PORTFOLIO, 0, 11, 1);
        assert!(!result.timed_out);
        assert_eq!(result.deadline_skipped, 0);
        // The lineup includes SpanT_Euler+refine, so swap evaluations and
        // scratch resets must both have been counted.
        assert!(result.swaps_evaluated > 0);
        assert!(result.scratch_resets > 0);
        assert_eq!(
            result.swaps_evaluated,
            result
                .attempts
                .iter()
                .map(|a| a.swaps_evaluated)
                .sum::<u64>()
        );
    }
}
