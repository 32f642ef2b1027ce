//! The context/solver layer: one entry point, many workloads.
//!
//! Every grooming workload in this crate — the core single-ring problem,
//! wavelength-budgeted grooming, multi-ring networks, weighted splittable
//! demands, BLSR rings, warm starts, and mesh topologies — normalizes into
//! an [`Instance`], and anything implementing [`Solver`] (a single
//! [`Algorithm`] or the [`PortfolioSolver`]) turns an instance into a
//! [`Solution`] against a caller-owned [`SolveContext`].
//!
//! The context owns everything a solve needs and everything it reports:
//!
//! * **RNG stream** — a seeded [`StdRng`]; solvers draw from it exactly as
//!   the pre-context entry points did, so fixed seeds reproduce bit-for-bit;
//! * **workspace** — one [`Workspace`] of reusable scratch buffers threaded
//!   through the whole construction pipeline (no hidden thread-locals);
//! * **deadline + cancellation** — an optional [`Instant`] and a shared
//!   [`AtomicBool`]; both are checked only at *attempt boundaries* (never
//!   mid-pass), a timed-out solve still returns the best plan found so far
//!   with [`Solution::timed_out`] set, and the first attempt always runs so
//!   even an already-expired deadline yields a valid plan;
//! * **instrumentation** — [`SolveStats`] counters (attempts, swap
//!   evaluations, scratch resets, per-stage wall time) filled in as the
//!   solve progresses.
//!
//! All workload errors collapse into the single [`SolveError`] taxonomy.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grooming_graph::graph::Graph;
use grooming_graph::ids::EdgeId;
use grooming_graph::spanning::TreeStrategy;
use grooming_graph::topology::{RoutePath, Topology};
use grooming_graph::workspace::Workspace;
use grooming_sonet::blsr::{groom_blsr, BlsrAssignment, BlsrRing};
use grooming_sonet::demand::{DemandPair, DemandSet};
use grooming_sonet::multiring::{MultiRingNetwork, RingNode, RouteError};
use grooming_sonet::weighted::WeightedDemandSet;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::algorithm::Algorithm;
use crate::network::NetworkGrooming;
use crate::partition::{EdgePartition, PartitionError};
use crate::pipeline::GroomingOutcome;
use crate::portfolio::{PortfolioEngine, DEFAULT_PORTFOLIO};
use crate::regular_euler::NotRegularError;

/// The number of local-search refinement rounds `SpanT_Euler+refine` runs
/// by default — the value every pre-context entry point hard-coded.
pub const DEFAULT_REFINE_ROUNDS: usize = 8;

/// Tunables a [`SolveContext`] carries into every solver it serves.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct SolveConfig {
    /// Refinement rounds for [`Algorithm::SpanTEulerRefined`]
    /// (default [`DEFAULT_REFINE_ROUNDS`]).
    pub refine_rounds: usize,
    /// For [`Instance::Reconfigure`] warm starts: a bound on the SADM
    /// movement (occupancy churn) the repair's local re-optimization may
    /// spend — rearrangement as a first-class constraint next to SADM
    /// count. `None` (the default) means unbounded; applying the delta
    /// itself is always allowed. See
    /// [`crate::improve::RepairReport::sadms_moved`].
    pub rearrange_budget: Option<usize>,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            refine_rounds: DEFAULT_REFINE_ROUNDS,
            rearrange_budget: None,
        }
    }
}

/// Aggregated wall-clock accounting for one kind of solve stage (one name
/// per [`Instance`] variant).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageTime {
    /// The stage name.
    pub stage: &'static str,
    /// Completed solves of this stage.
    pub calls: u64,
    /// Total wall clock across those calls.
    pub total: Duration,
}

/// Instrumentation counters accumulated across every solve served by one
/// [`SolveContext`].
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct SolveStats {
    /// Algorithm attempts executed (one per `(algorithm, restart)` pair in
    /// a portfolio solve; one per single-algorithm solve).
    pub attempts: u64,
    /// Candidate swaps evaluated by the local-search refinement engine.
    /// Swaps it skips as provable misses are not counted: pairs sharing no
    /// leaf node, and pairs whose edge sets are unchanged since a scan in
    /// an earlier refine round found nothing. Write-only: it never feeds
    /// back into a plan.
    pub swaps_evaluated: u64,
    /// Generation-stamped scratch-buffer resets performed by the
    /// construction pipeline (see
    /// [`grooming_graph::workspace::Workspace::scratch_resets`]).
    pub scratch_resets: u64,
    /// Parts touched by warm-start repairs ([`Instance::Reconfigure`]):
    /// vacated, receiving added edges, or locally re-optimized. Zero when
    /// no reconfigure solves ran (or their deltas were empty).
    pub parts_repaired: u64,
    /// Occupancy churn spent by warm-start repairs' re-optimization (what
    /// [`SolveConfig::rearrange_budget`] bounds).
    pub sadms_moved: u64,
    /// Yen route candidates considered by mesh solves
    /// ([`Instance::Mesh`]): one per (demand, candidate) pair, whether
    /// the route table held them or not.
    pub routes_evaluated: u64,
    /// Mesh demands whose candidates came from the workspace's route
    /// table ([`grooming_graph::topology::RouteTable`]) instead of a fresh
    /// Yen search. Unlike the other counters it depends on the
    /// workspace's history (which topology, and which pairs on it, were
    /// routed before), so a service's total varies with how requests
    /// fall across its workers. Write-only: it never feeds back into a
    /// plan.
    pub route_table_hits: u64,
    /// Add/drop ports occupied by mesh plans after capacity repair —
    /// `Σ|T_i|` over wavelength parts, the mesh form of the SADM cost.
    pub groom_ports_used: u64,
    /// Demands blocked by mesh capacity repair (a graceful outcome, not
    /// an error — the blocking-rate curve `perf_mesh` sweeps).
    pub blocked_demands: u64,
    /// Combinatorial lower bound on SADM cost, summed across every solved
    /// traffic graph ([`crate::bounds::lower_bound`]: the max of the
    /// per-component clique-decomposition, degree, and `2⌈m/k⌉`
    /// wavelength floors). Compare against total plan cost for a
    /// certified optimality gap. (The paper's `m + ⌈m/k⌉` expression is
    /// Theorem 10's *upper* bound, not a floor — K9 at k=3 grooms for
    /// 36 < 48.)
    pub lower_bound: u64,
    /// Wall-clock time per stage *kind*, aggregated by name in
    /// first-recorded order (informational; not deterministic). Bounded by
    /// the number of distinct stage names, so a long-running service can
    /// merge per-worker stats forever without growing a ledger.
    pub stages: Vec<StageTime>,
}

impl SolveStats {
    /// Total wall-clock time across all recorded stages.
    pub fn total_wall_time(&self) -> Duration {
        self.stages.iter().map(|s| s.total).sum()
    }

    /// Completed stage calls across all stage kinds (one per solved
    /// instance).
    pub fn stage_calls(&self) -> u64 {
        self.stages.iter().map(|s| s.calls).sum()
    }

    /// Records one completed stage call, folding into the existing entry
    /// for `stage` if there is one.
    pub fn record_stage(&mut self, stage: &'static str, elapsed: Duration) {
        self.fold_stage(stage, 1, elapsed);
    }

    fn fold_stage(&mut self, stage: &'static str, calls: u64, total: Duration) {
        match self.stages.iter_mut().find(|s| s.stage == stage) {
            Some(s) => {
                s.calls += calls;
                s.total += total;
            }
            None => self.stages.push(StageTime {
                stage,
                calls,
                total,
            }),
        }
    }

    /// Folds `other` into `self`: counters add, stage aggregates fold by
    /// name.
    ///
    /// This is the reduction a multi-worker service uses to aggregate
    /// per-worker stats into one snapshot — counter totals and per-stage
    /// sums are order-independent; only the first-seen order of stage
    /// names depends on the merge order (informational, like the
    /// durations).
    pub fn merge(&mut self, other: &SolveStats) {
        self.attempts += other.attempts;
        self.swaps_evaluated += other.swaps_evaluated;
        self.scratch_resets += other.scratch_resets;
        self.parts_repaired += other.parts_repaired;
        self.sadms_moved += other.sadms_moved;
        self.routes_evaluated += other.routes_evaluated;
        self.route_table_hits += other.route_table_hits;
        self.groom_ports_used += other.groom_ports_used;
        self.blocked_demands += other.blocked_demands;
        self.lower_bound += other.lower_bound;
        for s in &other.stages {
            self.fold_stage(s.stage, s.calls, s.total);
        }
    }
}

/// Everything one solve needs (RNG stream, scratch workspace, deadline,
/// cancellation flag, config) and everything it reports ([`SolveStats`]).
///
/// ```
/// use grooming::algorithm::Algorithm;
/// use grooming::solve::{Instance, SolveContext, Solver};
/// use grooming_graph::{generators, spanning::TreeStrategy};
/// use rand::SeedableRng;
///
/// let g = generators::gnm(16, 40, &mut rand::rngs::StdRng::seed_from_u64(1));
/// let mut ctx = SolveContext::seeded(7);
/// let solution = Algorithm::SpanTEuler(TreeStrategy::Bfs)
///     .solve(&Instance::upsr(g, 8), &mut ctx)
///     .unwrap();
/// assert!(!solution.timed_out);
/// assert_eq!(ctx.stats().attempts, 1);
/// ```
#[derive(Debug)]
pub struct SolveContext {
    rng: StdRng,
    workspace: Workspace,
    deadline: Option<Instant>,
    cancel: Arc<AtomicBool>,
    config: SolveConfig,
    stats: SolveStats,
}

impl SolveContext {
    /// A context whose RNG stream starts from `seed`; no deadline, default
    /// config, fresh workspace and stats.
    pub fn seeded(seed: u64) -> Self {
        SolveContext {
            rng: StdRng::seed_from_u64(seed),
            workspace: Workspace::new(),
            deadline: None,
            cancel: Arc::new(AtomicBool::new(false)),
            config: SolveConfig::default(),
            stats: SolveStats::default(),
        }
    }

    /// Sets an absolute deadline. Checked at attempt boundaries only; the
    /// first attempt always runs, so a solve returns a valid best-so-far
    /// plan even when the deadline has already passed.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `timeout` from now ([`Self::with_deadline`]).
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Replaces the scratch workspace — the handle a worker pool uses to
    /// thread one *warm* [`Workspace`] through many short-lived contexts
    /// (pair with [`Self::into_workspace`] to get it back). Workspace
    /// contents never influence results, only allocation traffic and,
    /// through its route table, how long mesh routing takes.
    pub fn with_workspace(mut self, workspace: Workspace) -> Self {
        self.workspace = workspace;
        self
    }

    /// Consumes the context, returning its workspace for reuse.
    pub fn into_workspace(self) -> Workspace {
        self.workspace
    }

    /// Replaces the cancel flag with a shared one, so one external switch
    /// (a service's shutdown latch) cancels every context it was installed
    /// into. Checked at the same attempt boundaries as the deadline.
    pub fn with_cancel_flag(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Replaces the config.
    pub fn with_config(mut self, config: SolveConfig) -> Self {
        self.config = config;
        self
    }

    /// A handle another thread can use to cooperatively cancel solves
    /// served by this context (checked at the same boundaries as the
    /// deadline).
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// `true` once the deadline has passed or the cancel flag is set.
    pub fn expired(&self) -> bool {
        self.cancelled() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// `true` once the cancel flag is set.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// The deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The config solvers read tunables from.
    pub fn config(&self) -> &SolveConfig {
        &self.config
    }

    /// Instrumentation accumulated so far.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// The context's RNG stream (for callers mixing context solves with
    /// direct entry-point calls on one stream).
    pub fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// The context's scratch workspace.
    pub fn workspace_mut(&mut self) -> &mut Workspace {
        &mut self.workspace
    }

    /// Splits the context into simultaneously-borrowable parts.
    fn split(&mut self) -> (&mut StdRng, &mut Workspace, &SolveConfig, &mut SolveStats) {
        (
            &mut self.rng,
            &mut self.workspace,
            &self.config,
            &mut self.stats,
        )
    }
}

/// A demand churn window: pairs provisioned and pairs withdrawn since a
/// prior plan was computed — the input that makes a solve resumable.
///
/// `removed` is a multiset against the prior snapshot. The normative
/// removal rule (shared with [`crate::online::OnlineGroomer::remove`] and
/// stated in DESIGN.md §15) is: **each entry retires the earliest
/// surviving occurrence per removed pair** — here, in snapshot edge
/// order, the lowest prior edge id first — so repeated pairs drain
/// deterministically and survivors keep their relative order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DemandDelta {
    /// Pairs provisioned since the prior plan.
    pub added: Vec<DemandPair>,
    /// Pairs withdrawn since the prior plan (must exist in the snapshot).
    pub removed: Vec<DemandPair>,
}

impl DemandDelta {
    /// A delta adding `added` and removing `removed`.
    pub fn new(added: Vec<DemandPair>, removed: Vec<DemandPair>) -> Self {
        DemandDelta { added, removed }
    }

    /// `true` if the delta changes nothing — a warm start from an empty
    /// delta returns the prior plan byte-identically with zero repairs.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Total churn units (`added + removed`).
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

/// Why a solve failed. One taxonomy for every workload; [`NotRegularError`]
/// and [`RouteError`] convert in with payloads preserved.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveError {
    /// An algorithm requiring a regular traffic graph got an irregular one.
    NotRegular(NotRegularError),
    /// A wavelength budget below the minimum `⌈m/k⌉`.
    InfeasibleBudget {
        /// The requested budget.
        budget: usize,
        /// The minimum possible wavelength count.
        minimum: usize,
    },
    /// A multi-ring demand could not be routed.
    Route(RouteError),
    /// A per-ring solve inside a multi-ring instance failed.
    Ring {
        /// The ring that failed.
        ring: usize,
        /// The underlying failure.
        source: Box<SolveError>,
    },
    /// A reconfigure instance's prior plan is not a valid partition of its
    /// snapshot's traffic graph.
    PriorPlan(PartitionError),
    /// A reconfigure delta withdrew a pair the prior snapshot does not
    /// hold (or more units of it than exist).
    MissingDemand {
        /// The over-withdrawn pair.
        pair: DemandPair,
    },
    /// A mesh demand is structurally unroutable: its endpoints are
    /// disconnected in the physical topology. (Capacity *blocking* is
    /// never an error — blocked demands are reported in the plan.)
    Capacity {
        /// The unroutable pair.
        pair: DemandPair,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::NotRegular(e) => write!(f, "{e}"),
            SolveError::InfeasibleBudget { budget, minimum } => write!(
                f,
                "budget of {budget} wavelengths below the minimum {minimum}"
            ),
            SolveError::Route(e) => write!(f, "routing: {e}"),
            SolveError::Ring { ring, source } => write!(f, "ring {ring}: {source}"),
            SolveError::PriorPlan(e) => write!(f, "prior plan: {e}"),
            SolveError::MissingDemand { pair } => {
                write!(f, "delta removes {pair} beyond the prior snapshot")
            }
            SolveError::Capacity { pair } => {
                write!(f, "demand {pair} has no route in the topology")
            }
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::NotRegular(e) => Some(e),
            SolveError::Route(e) => Some(e),
            SolveError::Ring { source, .. } => Some(source.as_ref()),
            SolveError::PriorPlan(e) => Some(e),
            SolveError::InfeasibleBudget { .. }
            | SolveError::MissingDemand { .. }
            | SolveError::Capacity { .. } => None,
        }
    }
}

impl From<NotRegularError> for SolveError {
    fn from(e: NotRegularError) -> Self {
        SolveError::NotRegular(e)
    }
}

impl From<RouteError> for SolveError {
    fn from(e: RouteError) -> Self {
        SolveError::Route(e)
    }
}

/// A normalized grooming workload — the one input shape every [`Solver`]
/// accepts.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum Instance {
    /// The paper's core problem: `k`-edge-partition a traffic graph on a
    /// unidirectional ring.
    Upsr {
        /// The traffic graph.
        graph: Graph,
        /// The grooming factor.
        k: usize,
    },
    /// A demand set on a UPSR ring, solved through the full pipeline
    /// (partition + validated ring assignment + cost report).
    Ring {
        /// The symmetric unitary demands.
        demands: DemandSet,
        /// The grooming factor.
        k: usize,
    },
    /// The core problem under a wavelength budget `W ≤ B`.
    Budgeted {
        /// The traffic graph.
        graph: Graph,
        /// The grooming factor.
        k: usize,
        /// The wavelength budget.
        budget: usize,
    },
    /// A multi-ring network: route demands through gateways, groom every
    /// ring, aggregate.
    MultiRing {
        /// The ring/gateway topology.
        network: MultiRingNetwork,
        /// End-to-end demands in ring-node addressing.
        demands: Vec<(RingNode, RingNode)>,
        /// The grooming factor.
        k: usize,
    },
    /// Weighted splittable demands: expanded to unit demands and groomed
    /// through the core path.
    WeightedSplittable {
        /// The weighted demand multiset.
        demands: WeightedDemandSet,
        /// The grooming factor in tributary units.
        k: usize,
    },
    /// A bidirectional (BLSR) ring, groomed by the deterministic
    /// shortest-side greedy regardless of solver.
    Blsr {
        /// The ring geometry.
        ring: BlsrRing,
        /// The symmetric unitary demands.
        demands: DemandSet,
        /// The grooming factor.
        k: usize,
    },
    /// A warm start: resume a prior plan against a demand delta, repairing
    /// only the parts the delta touches instead of solving from scratch.
    /// Like [`Instance::Blsr`] this runs its own deterministic algorithm
    /// ([`crate::improve::warm_repair`]) regardless of solver.
    Reconfigure {
        /// The prior demand snapshot (edge `i` of its traffic graph is
        /// `demands.pairs()[i]` — the numbering `prior` partitions).
        demands: DemandSet,
        /// The prior plan's partition over that snapshot's traffic graph.
        prior: EdgePartition,
        /// The churn since the prior plan.
        delta: DemandDelta,
        /// The grooming factor.
        k: usize,
    },
    /// Multi-layer mesh grooming: demands routed over an arbitrary
    /// physical topology (deterministic Yen k-shortest-paths, no RNG),
    /// groomed into wavelength circles by the partition solvers, then
    /// capacity-repaired against the topology's per-node hardware limits
    /// (see [`crate::mesh`]). A ring topology with unlimited capacities
    /// reproduces [`Instance::Upsr`] byte-identically.
    Mesh {
        /// The physical topology (weighted links, capacitated nodes).
        topology: Topology,
        /// The symmetric unitary demands (node count must match the
        /// topology).
        demands: DemandSet,
        /// The grooming factor.
        k: usize,
        /// Yen candidates enumerated per demand (`0` is treated as `1`).
        routes: usize,
    },
}

impl Instance {
    /// A core UPSR instance over a traffic graph.
    pub fn upsr(graph: Graph, k: usize) -> Self {
        Instance::Upsr { graph, k }
    }

    /// A full-pipeline instance over a demand set.
    pub fn ring(demands: DemandSet, k: usize) -> Self {
        Instance::Ring { demands, k }
    }

    /// A wavelength-budgeted instance.
    ///
    /// ```
    /// use grooming::algorithm::Algorithm;
    /// use grooming::solve::{Instance, SolveContext, SolveError, Solver};
    /// use grooming_graph::generators;
    ///
    /// let mut ctx = SolveContext::seeded(1);
    /// let g = generators::gnm(16, 40, ctx.rng_mut());
    /// // CliqueFirst may exceed the minimum ⌈40/8⌉ = 5 wavelengths; the
    /// // budget layer merges it back down.
    /// let sol = Algorithm::CliqueFirst
    ///     .solve(&Instance::budgeted(g.clone(), 8, 5), &mut ctx)
    ///     .unwrap();
    /// assert!(sol.plan.wavelengths() <= 5);
    /// let err = Algorithm::CliqueFirst.solve(&Instance::budgeted(g, 8, 4), &mut ctx);
    /// assert!(matches!(err, Err(SolveError::InfeasibleBudget { budget: 4, minimum: 5 })));
    /// ```
    pub fn budgeted(graph: Graph, k: usize, budget: usize) -> Self {
        Instance::Budgeted { graph, k, budget }
    }

    /// A multi-ring network instance.
    pub fn multi_ring(
        network: MultiRingNetwork,
        demands: Vec<(RingNode, RingNode)>,
        k: usize,
    ) -> Self {
        Instance::MultiRing {
            network,
            demands,
            k,
        }
    }

    /// A weighted-splittable instance.
    pub fn weighted(demands: WeightedDemandSet, k: usize) -> Self {
        Instance::WeightedSplittable { demands, k }
    }

    /// A BLSR instance.
    pub fn blsr(ring: BlsrRing, demands: DemandSet, k: usize) -> Self {
        Instance::Blsr { ring, demands, k }
    }

    /// A warm-start instance resuming `prior` (a plan for `demands`'
    /// traffic graph — typically [`Plan::partition`] of the previous
    /// solve) against `delta`.
    pub fn reconfigure(
        demands: DemandSet,
        prior: EdgePartition,
        delta: DemandDelta,
        k: usize,
    ) -> Self {
        Instance::Reconfigure {
            demands,
            prior,
            delta,
            k,
        }
    }

    /// A mesh instance routing `demands` over `topology` with up to
    /// `routes` Yen candidates per demand.
    ///
    /// # Panics
    /// Panics if the demand set and topology disagree on the node count
    /// (the service's mesh parser validates wire input first).
    pub fn mesh(topology: Topology, demands: DemandSet, k: usize, routes: usize) -> Self {
        assert_eq!(
            demands.num_nodes(),
            topology.num_nodes(),
            "demand set and topology must agree on the node count"
        );
        Instance::Mesh {
            topology,
            demands,
            k,
            routes,
        }
    }

    /// The grooming factor of any instance.
    pub fn grooming_factor(&self) -> usize {
        match self {
            Instance::Upsr { k, .. }
            | Instance::Ring { k, .. }
            | Instance::Budgeted { k, .. }
            | Instance::MultiRing { k, .. }
            | Instance::WeightedSplittable { k, .. }
            | Instance::Blsr { k, .. }
            | Instance::Reconfigure { k, .. }
            | Instance::Mesh { k, .. } => *k,
        }
    }
}

/// A solved [`Instance`], shaped per workload.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum Plan {
    /// Core UPSR result.
    Upsr {
        /// The `k`-edge partition.
        partition: EdgePartition,
        /// Its SADM cost.
        cost: usize,
    },
    /// Full-pipeline result.
    Ring {
        /// Partition, validated ring assignment, and cost report.
        outcome: GroomingOutcome,
    },
    /// Budget-enforced result (`W ≤ B` guaranteed).
    Budgeted {
        /// The budget-conforming partition.
        partition: EdgePartition,
        /// Its SADM cost.
        cost: usize,
    },
    /// Multi-ring result.
    MultiRing {
        /// Per-ring outcomes and aggregates.
        grooming: NetworkGrooming,
    },
    /// Weighted-splittable result.
    WeightedSplittable {
        /// The grooming of the expanded unit demands.
        outcome: GroomingOutcome,
        /// The expanded unit-demand set (edge `i` of the traffic graph is
        /// `expanded.pairs()[i]`).
        expanded: DemandSet,
    },
    /// BLSR result.
    Blsr {
        /// The validated BLSR assignment.
        assignment: BlsrAssignment,
    },
    /// Warm-start result: the repaired grooming of the post-delta
    /// demands, plus what the repair disturbed.
    Reconfigure {
        /// The repaired grooming (partition + validated assignment + cost
        /// report) over the post-delta demand set.
        outcome: GroomingOutcome,
        /// Distinct parts the repair touched (zero for an empty delta).
        parts_repaired: u64,
        /// Occupancy churn the local re-optimization spent.
        sadms_moved: u64,
    },
    /// Mesh result: the grooming of the demands that survived capacity
    /// repair, plus the routing layer's outputs.
    Mesh {
        /// The grooming (partition + validated assignment + cost report)
        /// over the *carried* demand set's traffic graph.
        outcome: GroomingOutcome,
        /// The carried demands (edge `i` of the groomed traffic graph is
        /// `carried.pairs()[i]`).
        carried: DemandSet,
        /// The chosen physical route per carried demand.
        routes: Vec<RoutePath>,
        /// Demands blocked by capacity repair, in blocking order (empty
        /// on uncapacitated topologies).
        blocked: Vec<DemandPair>,
        /// The routing bottleneck: the most routes crossing one link.
        max_link_load: u32,
    },
}

impl Plan {
    /// Total SADM cost of the plan (summed across rings for multi-ring).
    pub fn sadm_cost(&self) -> usize {
        match self {
            Plan::Upsr { cost, .. } | Plan::Budgeted { cost, .. } => *cost,
            Plan::Ring { outcome }
            | Plan::WeightedSplittable { outcome, .. }
            | Plan::Reconfigure { outcome, .. }
            | Plan::Mesh { outcome, .. } => outcome.report.sadm_total,
            Plan::MultiRing { grooming } => grooming.total_sadms,
            Plan::Blsr { assignment } => assignment.sadm_count(),
        }
    }

    /// Total wavelength count of the plan.
    pub fn wavelengths(&self) -> usize {
        match self {
            Plan::Upsr { partition, .. } | Plan::Budgeted { partition, .. } => {
                partition.num_wavelengths()
            }
            Plan::Ring { outcome }
            | Plan::WeightedSplittable { outcome, .. }
            | Plan::Reconfigure { outcome, .. }
            | Plan::Mesh { outcome, .. } => outcome.report.wavelengths,
            Plan::MultiRing { grooming } => grooming.total_wavelengths,
            Plan::Blsr { assignment } => assignment.num_wavelengths(),
        }
    }

    /// The graph-side partition, for plans that have exactly one.
    pub fn partition(&self) -> Option<&EdgePartition> {
        match self {
            Plan::Upsr { partition, .. } | Plan::Budgeted { partition, .. } => Some(partition),
            Plan::Ring { outcome }
            | Plan::WeightedSplittable { outcome, .. }
            | Plan::Reconfigure { outcome, .. }
            | Plan::Mesh { outcome, .. } => Some(&outcome.partition),
            Plan::MultiRing { .. } | Plan::Blsr { .. } => None,
        }
    }
}

/// A [`Plan`] plus how the solve ended.
#[derive(Clone, Debug)]
pub struct Solution {
    /// The best plan found.
    pub plan: Plan,
    /// `true` if the deadline (or cancel flag) cut the solve short — the
    /// plan is still the valid best-so-far.
    pub timed_out: bool,
    /// `true` if the context's cancel flag was set.
    pub cancelled: bool,
}

/// Anything that can turn an [`Instance`] into a [`Solution`] against a
/// [`SolveContext`]: a single [`Algorithm`], or the [`PortfolioSolver`].
pub trait Solver {
    /// Solves `instance`, drawing RNG state, scratch space, deadline, and
    /// config from `ctx` and accumulating instrumentation into it.
    fn solve(&self, instance: &Instance, ctx: &mut SolveContext) -> Result<Solution, SolveError>;
}

impl Solver for Algorithm {
    /// One attempt of this algorithm per (per-ring) traffic graph, on the
    /// context's RNG stream — bit-identical to calling [`Algorithm::run`]
    /// with the same stream.
    fn solve(&self, instance: &Instance, ctx: &mut SolveContext) -> Result<Solution, SolveError> {
        solve_instance(instance, ctx, |g, k, ctx| {
            let resets_before = ctx.workspace.scratch_resets();
            let (rng, ws, config, stats) = ctx.split();
            stats.attempts += 1;
            let partition = self.run_in(g, k, rng, ws, config, stats)?;
            ctx.stats.scratch_resets += ctx.workspace.scratch_resets() - resets_before;
            Ok((partition, ctx.expired()))
        })
    }
}

/// The portfolio meta-solver: races a lineup of algorithms (with restarts)
/// per (per-ring) traffic graph and keeps the cheapest plan, honoring the
/// context's deadline at attempt boundaries.
#[derive(Clone, Debug)]
pub struct PortfolioSolver<'a> {
    /// The lineup (deduplicated by stable id; must not contain
    /// [`Algorithm::Portfolio`]).
    pub portfolio: &'a [Algorithm],
    /// Extra derived-seed attempts per entry (`0` = single shot).
    pub restarts: usize,
    /// Worker threads (`0` = one per core, `1` = sequential in-thread).
    pub jobs: usize,
    /// Explicit master seed; `None` draws one from the context's RNG
    /// (exactly one `next_u64` call, as [`Algorithm::Portfolio`] does).
    pub master_seed: Option<u64>,
}

impl Default for PortfolioSolver<'static> {
    fn default() -> Self {
        PortfolioSolver {
            portfolio: &DEFAULT_PORTFOLIO,
            restarts: 0,
            jobs: 1,
            master_seed: None,
        }
    }
}

impl Solver for PortfolioSolver<'_> {
    fn solve(&self, instance: &Instance, ctx: &mut SolveContext) -> Result<Solution, SolveError> {
        solve_instance(instance, ctx, |g, k, ctx| {
            let master = match self.master_seed {
                Some(master) => master,
                None => ctx.rng.next_u64(),
            };
            let result = PortfolioEngine::new(self.portfolio)
                .restarts(self.restarts)
                .jobs(self.jobs)
                .master_seed(master)
                .deadline(ctx.deadline)
                .cancel_with(Arc::clone(&ctx.cancel))
                .config(ctx.config.clone())
                .run_in(g, k, &mut ctx.workspace);
            ctx.stats.attempts += result.attempts.len() as u64;
            ctx.stats.swaps_evaluated += result.swaps_evaluated;
            ctx.stats.scratch_resets += result.scratch_resets;
            let timed_out = result.timed_out;
            Ok((result.partition, timed_out))
        })
    }
}

/// The shared workload dispatcher: normalizes each [`Instance`] variant
/// down to per-traffic-graph `solve_partition` calls, then re-assembles the
/// workload-shaped [`Plan`].
fn solve_instance<F>(
    instance: &Instance,
    ctx: &mut SolveContext,
    mut solve_partition: F,
) -> Result<Solution, SolveError>
where
    F: FnMut(&Graph, usize, &mut SolveContext) -> Result<(EdgePartition, bool), SolveError>,
{
    let started = Instant::now();
    let (plan, timed_out, stage) = match instance {
        Instance::Upsr { graph, k } => {
            ctx.stats.lower_bound += crate::bounds::lower_bound(graph, *k) as u64;
            let (partition, timed) = solve_partition(graph, *k, ctx)?;
            let cost = partition.sadm_cost(graph);
            (Plan::Upsr { partition, cost }, timed, "upsr")
        }
        Instance::Ring { demands, k } => {
            let g = demands.to_traffic_graph();
            ctx.stats.lower_bound += crate::bounds::lower_bound(&g, *k) as u64;
            let (partition, timed) = solve_partition(&g, *k, ctx)?;
            let outcome = crate::pipeline::assemble(demands, &g, *k, partition);
            (Plan::Ring { outcome }, timed, "ring")
        }
        Instance::Budgeted { graph, k, budget } => {
            let minimum = EdgePartition::min_wavelengths(graph.num_edges(), *k);
            if *budget < minimum {
                return Err(SolveError::InfeasibleBudget {
                    budget: *budget,
                    minimum,
                });
            }
            ctx.stats.lower_bound += crate::bounds::lower_bound(graph, *k) as u64;
            let (base, timed) = solve_partition(graph, *k, ctx)?;
            let mut bounded = if base.num_wavelengths() <= *budget {
                base
            } else {
                crate::budget::enforce_budget(graph, *k, &base, *budget)
            };
            if bounded.num_wavelengths() > *budget {
                // Paranoia fallback: the enforcement is total for feasible
                // budgets, but keep the guaranteed-minimum algorithm as a
                // safety net.
                let (rng, ws, _, _) = ctx.split();
                bounded = crate::spant_euler::spant_euler_in(graph, *k, TreeStrategy::Bfs, rng, ws);
            }
            let cost = bounded.sadm_cost(graph);
            (
                Plan::Budgeted {
                    partition: bounded,
                    cost,
                },
                timed,
                "budgeted",
            )
        }
        Instance::MultiRing {
            network,
            demands,
            k,
        } => {
            let per_ring = network.route_all(demands).map_err(SolveError::Route)?;
            let total_segments = per_ring.iter().map(|d| d.len()).sum();
            let mut rings = Vec::with_capacity(per_ring.len());
            let mut timed = false;
            // Every ring solves — a deadline degrades each ring's solve to
            // its first attempt rather than skipping rings, so the plan is
            // always complete.
            for (ring, segs) in per_ring.iter().enumerate() {
                let g = segs.to_traffic_graph();
                ctx.stats.lower_bound += crate::bounds::lower_bound(&g, *k) as u64;
                let (partition, t) =
                    solve_partition(&g, *k, ctx).map_err(|source| SolveError::Ring {
                        ring,
                        source: Box::new(source),
                    })?;
                timed |= t;
                rings.push(crate::pipeline::assemble(segs, &g, *k, partition));
            }
            let total_sadms = rings.iter().map(|o| o.report.sadm_total).sum();
            let total_wavelengths = rings.iter().map(|o| o.report.wavelengths).sum();
            (
                Plan::MultiRing {
                    grooming: NetworkGrooming {
                        rings,
                        total_sadms,
                        total_wavelengths,
                        total_segments,
                    },
                },
                timed,
                "multi-ring",
            )
        }
        Instance::WeightedSplittable { demands, k } => {
            let expanded = demands.expand();
            let g = expanded.to_traffic_graph();
            ctx.stats.lower_bound += crate::bounds::lower_bound(&g, *k) as u64;
            let (partition, timed) = solve_partition(&g, *k, ctx)?;
            let outcome = crate::pipeline::assemble(&expanded, &g, *k, partition);
            (
                Plan::WeightedSplittable {
                    outcome,
                    expanded: expanded.clone(),
                },
                timed,
                "weighted-splittable",
            )
        }
        Instance::Blsr { ring, demands, k } => {
            // BLSR grooming is the deterministic shortest-side greedy; it
            // is not partition-shaped, so it runs the same under every
            // solver (the "attempt 0 always runs" rule: even an expired
            // deadline yields the full plan).
            ctx.stats.lower_bound +=
                crate::bounds::lower_bound(&demands.to_traffic_graph(), *k) as u64;
            let assignment = groom_blsr(*ring, demands, *k);
            debug_assert!(assignment.validate(Some(demands)).is_ok());
            (Plan::Blsr { assignment }, ctx.expired(), "blsr")
        }
        Instance::Reconfigure {
            demands,
            prior,
            delta,
            k,
        } => {
            let (plan, timed) = solve_reconfigure(demands, prior, delta, *k, ctx)?;
            (plan, timed, "reconfigure")
        }
        Instance::Mesh {
            topology,
            demands,
            k,
            routes,
        } => {
            // Layer 0: seed-free routing — the RNG stream is untouched
            // until the partition stage, exactly where the UPSR path
            // starts drawing, so a ring topology reproduces `Upsr`
            // byte-identically.
            let routed = crate::mesh::route_demands(
                topology,
                demands,
                *routes,
                &mut ctx.workspace.route_table,
            )?;
            ctx.stats.routes_evaluated += routed.routes_evaluated;
            ctx.stats.route_table_hits += routed.route_table_hits;
            let g = demands.to_traffic_graph();
            ctx.stats.lower_bound += crate::bounds::lower_bound(&g, *k) as u64;
            // Layer 1: groom, then repair against node capacities.
            let (partition, timed) = solve_partition(&g, *k, ctx)?;
            let repaired =
                crate::mesh::enforce_caps(topology, demands, routed.routes, partition, *k);
            ctx.stats.parts_repaired += repaired.parts_repaired;
            ctx.stats.sadms_moved += repaired.sadms_moved;
            ctx.stats.swaps_evaluated += repaired.swaps_evaluated;
            ctx.stats.blocked_demands += repaired.blocked.len() as u64;
            // Nothing blocked: the carried demands are the offered ones.
            let g_carried = if repaired.blocked.is_empty() {
                g
            } else {
                repaired.carried.to_traffic_graph()
            };
            let outcome =
                crate::pipeline::assemble(&repaired.carried, &g_carried, *k, repaired.partition);
            ctx.stats.groom_ports_used += outcome.report.sadm_total as u64;
            (
                Plan::Mesh {
                    outcome,
                    carried: repaired.carried,
                    routes: repaired.routes,
                    blocked: repaired.blocked,
                    max_link_load: routed.max_link_load,
                },
                timed,
                "mesh",
            )
        }
    };
    ctx.stats.record_stage(stage, started.elapsed());
    Ok(Solution {
        plan,
        timed_out,
        cancelled: ctx.cancelled(),
    })
}

/// The warm-start path: validate the prior plan, apply the delta to the
/// snapshot, remap the surviving placement into the post-delta edge
/// numbering, and hand it to [`crate::improve::warm_repair`]. Like the
/// BLSR arm this ignores the solver — warm repair is its own deterministic
/// algorithm, so reconfigure transcripts are trivially worker-count
/// invariant.
fn solve_reconfigure(
    demands: &DemandSet,
    prior: &EdgePartition,
    delta: &DemandDelta,
    k: usize,
    ctx: &mut SolveContext,
) -> Result<(Plan, bool), SolveError> {
    let m_old = demands.len();

    // The prior plan must partition the snapshot's edges exactly (checked
    // without materializing the old traffic graph: only the edge count and
    // `k` matter). Wire-facing, so a malformed prior is an error, not a
    // panic.
    let mut seen = vec![false; m_old];
    for (i, part) in prior.parts().iter().enumerate() {
        if part.len() > k {
            return Err(SolveError::PriorPlan(PartitionError::PartTooLarge {
                part: i,
                size: part.len(),
                k,
            }));
        }
        for &e in part {
            if e.index() >= m_old {
                return Err(SolveError::PriorPlan(PartitionError::EdgeOutOfRange(e)));
            }
            if seen[e.index()] {
                return Err(SolveError::PriorPlan(PartitionError::EdgeRepeated(e)));
            }
            seen[e.index()] = true;
        }
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        return Err(SolveError::PriorPlan(PartitionError::EdgeMissing(
            EdgeId::new(missing),
        )));
    }

    // Subtract the removals: each removed unit retires the earliest
    // surviving occurrence of its pair, and survivors keep their relative
    // order, so `old_to_new` is a monotone remap of the surviving ids.
    let mut to_remove: HashMap<DemandPair, usize> = HashMap::new();
    for &p in &delta.removed {
        *to_remove.entry(p).or_insert(0) += 1;
    }
    let mut old_to_new = vec![u32::MAX; m_old];
    let mut new_demands = DemandSet::new(demands.num_nodes());
    for (i, &p) in demands.pairs().iter().enumerate() {
        if let Some(c) = to_remove.get_mut(&p) {
            if *c > 0 {
                *c -= 1;
                continue;
            }
        }
        old_to_new[i] = new_demands.len() as u32;
        new_demands.add(p.lo(), p.hi());
    }
    if m_old - new_demands.len() != delta.removed.len() {
        // Over-withdrawal: report the first offending pair (deterministic
        // scan of the delta, not of the hash map).
        for &p in &delta.removed {
            let have = demands.pairs().iter().filter(|&&q| q == p).count();
            let want = delta.removed.iter().filter(|&&q| q == p).count();
            if want > have {
                return Err(SolveError::MissingDemand { pair: p });
            }
        }
        unreachable!("removal count mismatch without an over-withdrawn pair");
    }

    // Remap the surviving placement; parts that lost edges are the
    // removal side of the dirty frontier.
    let mut seed_parts: Vec<Vec<EdgeId>> = Vec::with_capacity(prior.num_wavelengths());
    let mut vacated: Vec<usize> = Vec::new();
    for part in prior.parts() {
        let mut mapped = Vec::with_capacity(part.len());
        for &e in part {
            let ni = old_to_new[e.index()];
            if ni != u32::MAX {
                mapped.push(EdgeId(ni));
            }
        }
        if mapped.len() < part.len() {
            vacated.push(seed_parts.len());
        }
        seed_parts.push(mapped);
    }

    // Append the additions and repair.
    let first_added = new_demands.len();
    for &p in &delta.added {
        new_demands.add(p.lo(), p.hi());
    }
    let added_ids: Vec<EdgeId> = (first_added..new_demands.len()).map(EdgeId::new).collect();
    let g = new_demands.to_traffic_graph();
    ctx.stats.lower_bound += crate::bounds::lower_bound(&g, k) as u64;
    let (partition, report) = crate::improve::warm_repair(
        &g,
        k,
        &seed_parts,
        &vacated,
        &added_ids,
        ctx.config.rearrange_budget,
        ctx.config.refine_rounds,
    );
    ctx.stats.parts_repaired += report.parts_repaired;
    ctx.stats.sadms_moved += report.sadms_moved;
    ctx.stats.swaps_evaluated += report.swaps_evaluated;
    let outcome = crate::pipeline::assemble(&new_demands, &g, k, partition);
    Ok((
        Plan::Reconfigure {
            outcome,
            parts_repaired: report.parts_repaired,
            sadms_moved: report.sadms_moved,
        },
        ctx.expired(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grooming_graph::generators;
    use grooming_sonet::multiring::rn;

    fn graph(seed: u64) -> Graph {
        generators::gnm(16, 40, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn upsr_solve_matches_direct_run() {
        let g = graph(1);
        for algo in [
            Algorithm::Brauner,
            Algorithm::SpanTEuler(TreeStrategy::Bfs),
            Algorithm::SpanTEulerRefined(TreeStrategy::Dfs),
            Algorithm::CliqueFirst,
            Algorithm::Portfolio,
        ] {
            let mut ctx = SolveContext::seeded(9);
            let sol = algo.solve(&Instance::upsr(g.clone(), 8), &mut ctx).unwrap();
            let mut rng = StdRng::seed_from_u64(9);
            let direct = algo.run(&g, 8, &mut rng).unwrap();
            assert_eq!(
                sol.plan.partition().unwrap().parts(),
                direct.parts(),
                "{algo}"
            );
            assert_eq!(sol.plan.sadm_cost(), direct.sadm_cost(&g));
            // RNG streams stay in lockstep after the solve.
            assert_eq!(ctx.rng_mut().next_u64(), rng.next_u64(), "{algo}");
            assert!(!sol.timed_out);
            assert!(!sol.cancelled);
        }
    }

    #[test]
    fn portfolio_solver_matches_seeded_engine() {
        let g = graph(2);
        let solver = PortfolioSolver {
            restarts: 1,
            master_seed: Some(42),
            ..PortfolioSolver::default()
        };
        let mut ctx = SolveContext::seeded(0);
        let sol = solver
            .solve(&Instance::upsr(g.clone(), 6), &mut ctx)
            .unwrap();
        let reference = crate::portfolio::best_of_seeded(&g, 6, &DEFAULT_PORTFOLIO, 1, 42, 1);
        assert_eq!(
            sol.plan.partition().unwrap().parts(),
            reference.partition.parts()
        );
        assert_eq!(ctx.stats().attempts, reference.attempts.len() as u64);
        assert!(ctx.stats().scratch_resets > 0);
        assert!(ctx.stats().swaps_evaluated > 0); // lineup contains +refine
    }

    #[test]
    fn budgeted_solve_enforces_budget_and_rejects_infeasible() {
        let g = graph(3);
        let minimum = EdgePartition::min_wavelengths(g.num_edges(), 8);
        let mut ctx = SolveContext::seeded(4);
        let sol = Algorithm::CliqueFirst
            .solve(&Instance::budgeted(g.clone(), 8, minimum), &mut ctx)
            .unwrap();
        assert!(sol.plan.wavelengths() <= minimum);
        sol.plan.partition().unwrap().validate(&g, 8).unwrap();

        let err = Algorithm::CliqueFirst
            .solve(&Instance::budgeted(g, 8, minimum - 1), &mut ctx)
            .unwrap_err();
        assert_eq!(
            err,
            SolveError::InfeasibleBudget {
                budget: minimum - 1,
                minimum
            }
        );
    }

    #[test]
    fn multi_ring_solve_matches_per_ring_groom() {
        // The multi-ring arm is "route, then groom every ring in order on
        // the context's one RNG stream".
        let mut net = MultiRingNetwork::new(vec![8, 6]);
        net.add_gateway(rn(0, 0), rn(1, 0));
        let demands = vec![
            (rn(0, 1), rn(1, 3)),
            (rn(0, 2), rn(0, 5)),
            (rn(1, 1), rn(1, 4)),
        ];
        let algo = Algorithm::WangGuIcc06;
        let mut ctx = SolveContext::seeded(5);
        let sol = algo
            .solve(
                &Instance::multi_ring(net.clone(), demands.clone(), 4),
                &mut ctx,
            )
            .unwrap();
        let Plan::MultiRing { grooming } = &sol.plan else {
            panic!("wrong plan shape");
        };
        let per_ring = net.route_all(&demands).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(grooming.rings.len(), per_ring.len());
        for (outcome, segs) in grooming.rings.iter().zip(&per_ring) {
            let direct = crate::pipeline::groom(segs, 4, algo, &mut rng).unwrap();
            assert_eq!(outcome.partition.parts(), direct.partition.parts());
            assert_eq!(outcome.report.sadm_total, direct.report.sadm_total);
        }
        assert_eq!(
            grooming.total_segments,
            per_ring.iter().map(|d| d.len()).sum::<usize>()
        );
        assert_eq!(ctx.stats().attempts, net.num_rings() as u64);
    }

    #[test]
    fn multi_ring_route_errors_map_into_solve_error() {
        let net = MultiRingNetwork::new(vec![4, 4]); // no gateways
        let mut ctx = SolveContext::seeded(6);
        let err = Algorithm::Brauner
            .solve(
                &Instance::multi_ring(net, vec![(rn(0, 0), rn(1, 1))], 4),
                &mut ctx,
            )
            .unwrap_err();
        assert!(matches!(err, SolveError::Route(_)));
    }

    #[test]
    fn not_regular_maps_into_solve_error() {
        let g = generators::star(6);
        let mut ctx = SolveContext::seeded(7);
        let err = Algorithm::RegularEuler
            .solve(&Instance::upsr(g, 4), &mut ctx)
            .unwrap_err();
        assert!(matches!(err, SolveError::NotRegular(_)));
    }

    #[test]
    fn blsr_solves_through_the_same_surface() {
        let demands = DemandSet::random(10, 20, &mut StdRng::seed_from_u64(8));
        let mut ctx = SolveContext::seeded(8);
        let sol = Algorithm::Brauner
            .solve(
                &Instance::blsr(BlsrRing::new(10), demands.clone(), 4),
                &mut ctx,
            )
            .unwrap();
        let Plan::Blsr { assignment } = &sol.plan else {
            panic!("wrong plan shape");
        };
        assignment.validate(Some(&demands)).unwrap();
        assert_eq!(sol.plan.sadm_cost(), assignment.sadm_count());
    }

    #[test]
    fn cancel_flag_marks_solution_cancelled() {
        let g = graph(11);
        let mut ctx = SolveContext::seeded(11);
        ctx.cancel_flag().store(true, Ordering::Relaxed);
        let sol = Algorithm::Brauner
            .solve(&Instance::upsr(g.clone(), 4), &mut ctx)
            .unwrap();
        // Attempt 0 always runs: a valid plan comes back regardless.
        sol.plan.partition().unwrap().validate(&g, 4).unwrap();
        assert!(sol.cancelled);
        assert!(sol.timed_out);
    }

    #[test]
    fn stats_track_stages_and_attempts() {
        let g = graph(12);
        let mut ctx = SolveContext::seeded(12);
        Algorithm::Brauner
            .solve(&Instance::upsr(g.clone(), 4), &mut ctx)
            .unwrap();
        Algorithm::Brauner
            .solve(&Instance::upsr(g, 4), &mut ctx)
            .unwrap();
        assert_eq!(ctx.stats().attempts, 2);
        // Two solves of the same kind fold into one aggregated entry.
        assert_eq!(ctx.stats().stages.len(), 1);
        assert_eq!(ctx.stats().stages[0].stage, "upsr");
        assert_eq!(ctx.stats().stages[0].calls, 2);
        assert_eq!(ctx.stats().stage_calls(), 2);
        assert!(ctx.stats().scratch_resets > 0);
    }

    #[test]
    fn stats_merge_sums_counters_and_folds_stages() {
        // Simulate three workers' stats and fold them into one snapshot:
        // merged counters must equal the per-worker sums exactly, and
        // same-named stage entries must fold instead of appending (a
        // long-running service merges forever — the ledger stays bounded).
        fn stage(name: &'static str, calls: u64, ms: u64) -> StageTime {
            StageTime {
                stage: name,
                calls,
                total: Duration::from_millis(ms),
            }
        }
        let workers = [
            SolveStats {
                attempts: 3,
                swaps_evaluated: 100,
                scratch_resets: 7,
                routes_evaluated: 9,
                groom_ports_used: 12,
                blocked_demands: 2,
                lower_bound: 30,
                stages: vec![stage("upsr", 1, 1)],
                ..SolveStats::default()
            },
            SolveStats {
                attempts: 0,
                swaps_evaluated: 0,
                scratch_resets: 0,
                stages: vec![],
                ..SolveStats::default()
            },
            SolveStats {
                attempts: 5,
                swaps_evaluated: 41,
                scratch_resets: 11,
                stages: vec![stage("ring", 2, 2), stage("upsr", 1, 3)],
                ..SolveStats::default()
            },
        ];
        let mut merged = SolveStats::default();
        for w in &workers {
            merged.merge(w);
        }
        assert_eq!(merged.attempts, workers.iter().map(|w| w.attempts).sum());
        assert_eq!(
            merged.swaps_evaluated,
            workers.iter().map(|w| w.swaps_evaluated).sum()
        );
        assert_eq!(
            merged.scratch_resets,
            workers.iter().map(|w| w.scratch_resets).sum()
        );
        assert_eq!(merged.routes_evaluated, 9);
        assert_eq!(merged.groom_ports_used, 12);
        assert_eq!(merged.blocked_demands, 2);
        assert_eq!(merged.lower_bound, 30);
        // "upsr" appears in two workers but folds into one entry.
        assert_eq!(
            merged.stages,
            vec![stage("upsr", 2, 4), stage("ring", 2, 2)]
        );
        assert_eq!(
            merged.stage_calls(),
            workers.iter().map(|w| w.stage_calls()).sum::<u64>()
        );
        assert_eq!(
            merged.total_wall_time(),
            workers.iter().map(|w| w.total_wall_time()).sum()
        );
    }

    #[test]
    fn workspace_round_trips_warm_through_contexts() {
        let g = graph(13);
        let mut ctx = SolveContext::seeded(13);
        Algorithm::Brauner
            .solve(&Instance::upsr(g.clone(), 4), &mut ctx)
            .unwrap();
        let warm = ctx.into_workspace();
        let resets_before = warm.scratch_resets();
        assert!(resets_before > 0);
        // A second context adopting the warm workspace keeps its counters
        // and produces the same plan as a cold one (scratch never affects
        // results).
        let mut ctx2 = SolveContext::seeded(13).with_workspace(warm);
        let sol2 = Algorithm::Brauner
            .solve(&Instance::upsr(g.clone(), 4), &mut ctx2)
            .unwrap();
        let mut cold = SolveContext::seeded(13);
        let sol_cold = Algorithm::Brauner
            .solve(&Instance::upsr(g, 4), &mut cold)
            .unwrap();
        assert_eq!(
            sol2.plan.partition().unwrap().parts(),
            sol_cold.plan.partition().unwrap().parts()
        );
        assert!(ctx2.into_workspace().scratch_resets() > resets_before);
    }

    #[test]
    fn shared_cancel_flag_cancels_adopting_context() {
        let shared = Arc::new(AtomicBool::new(false));
        let ctx = SolveContext::seeded(1).with_cancel_flag(Arc::clone(&shared));
        assert!(!ctx.cancelled());
        shared.store(true, Ordering::Relaxed);
        assert!(ctx.cancelled());
        assert!(ctx.expired());
    }

    #[test]
    fn error_conversions_preserve_payloads() {
        let nr = NotRegularError {
            min_degree: 1,
            max_degree: 3,
        };
        let unreachable = RouteError::Unreachable { from: 0, to: 1 };
        assert_eq!(
            SolveError::from(unreachable.clone()),
            SolveError::Route(unreachable)
        );
        let converted = SolveError::Ring {
            ring: 3,
            source: Box::new(SolveError::from(nr.clone())),
        };
        assert_eq!(
            converted,
            SolveError::Ring {
                ring: 3,
                source: Box::new(SolveError::NotRegular(nr))
            }
        );
        assert!(converted.to_string().contains("ring 3"));
        assert!(std::error::Error::source(&converted).is_some());
    }

    #[test]
    fn mesh_on_ring_topology_reproduces_upsr_on_fig4_grid() {
        // The acceptance bridge: a ring topology with unlimited node
        // capacities fed through `Instance::Mesh` must produce plans
        // byte-identical to `Instance::Upsr` on the pinned Fig-4 grid
        // (n = 36, m = n^(1+d)) — same partition parts, same cost, and
        // RNG streams in lockstep (routing consumes none).
        for (d, algo) in [
            (0.3f64, Algorithm::SpanTEuler(TreeStrategy::Bfs)),
            (0.3, Algorithm::Portfolio),
            (0.5, Algorithm::SpanTEulerRefined(TreeStrategy::Dfs)),
            (0.7, Algorithm::SpanTEuler(TreeStrategy::Dfs)),
        ] {
            let m = generators::dense_ratio_edges(36, d);
            let seeded = generators::gnm(36, m, &mut StdRng::seed_from_u64(4));
            let demands = DemandSet::from_traffic_graph(&seeded);
            let g = demands.to_traffic_graph();

            let mut upsr_ctx = SolveContext::seeded(11);
            let upsr = algo.solve(&Instance::upsr(g, 16), &mut upsr_ctx).unwrap();
            let mut mesh_ctx = SolveContext::seeded(11);
            let mesh = algo
                .solve(
                    &Instance::mesh(Topology::ring(36), demands.clone(), 16, 3),
                    &mut mesh_ctx,
                )
                .unwrap();

            assert_eq!(
                mesh.plan.partition().unwrap().parts(),
                upsr.plan.partition().unwrap().parts(),
                "d = {d}, {algo}: mesh diverged from upsr"
            );
            assert_eq!(mesh.plan.sadm_cost(), upsr.plan.sadm_cost());
            assert_eq!(
                mesh_ctx.rng_mut().next_u64(),
                upsr_ctx.rng_mut().next_u64(),
                "d = {d}, {algo}: routing consumed RNG"
            );
            let Plan::Mesh {
                blocked,
                routes,
                carried,
                max_link_load,
                ..
            } = &mesh.plan
            else {
                panic!("mesh instance must produce a mesh plan");
            };
            assert!(blocked.is_empty(), "uncapacitated ring never blocks");
            assert_eq!(routes.len(), demands.len());
            assert_eq!(carried.pairs(), demands.pairs());
            assert!(*max_link_load > 0);
            // Mesh-only stats are populated; the bound is shared.
            assert_eq!(mesh_ctx.stats().blocked_demands, 0);
            assert!(mesh_ctx.stats().routes_evaluated >= demands.len() as u64);
            assert_eq!(
                mesh_ctx.stats().groom_ports_used,
                mesh.plan.sadm_cost() as u64
            );
            assert_eq!(mesh_ctx.stats().lower_bound, upsr_ctx.stats().lower_bound);
            assert!(mesh_ctx.stats().lower_bound > 0);
            assert!(mesh_ctx.stats().lower_bound <= mesh.plan.sadm_cost() as u64);
        }
    }

    #[test]
    fn mesh_capacity_blocking_is_graceful_and_counted() {
        // A grid topology with one throttled core node: the solve
        // surface must report blocked demands in the plan and the stats
        // instead of erroring, and the surviving grooming must still be
        // a valid partition.
        let topo = {
            let g = generators::grid(4, 4);
            let mut caps = vec![grooming_graph::topology::NodeCaps::UNLIMITED; 16];
            caps[5] = grooming_graph::topology::NodeCaps::new(0, 0);
            Topology::new(g, vec![1; 24], caps)
        };
        let mut demands = DemandSet::new(16);
        for (a, b) in [(0, 5), (5, 10), (1, 5), (0, 15), (3, 12), (2, 7)] {
            demands.add(
                grooming_graph::ids::NodeId(a),
                grooming_graph::ids::NodeId(b),
            );
        }
        let mut ctx = SolveContext::seeded(5);
        let sol = Algorithm::SpanTEuler(TreeStrategy::Bfs)
            .solve(&Instance::mesh(topo, demands.clone(), 4, 4), &mut ctx)
            .unwrap();
        let Plan::Mesh {
            outcome,
            carried,
            blocked,
            routes,
            ..
        } = &sol.plan
        else {
            panic!("mesh instance must produce a mesh plan");
        };
        assert!(!blocked.is_empty(), "node 5 is over-subscribed");
        assert_eq!(carried.len() + blocked.len(), demands.len());
        assert_eq!(routes.len(), carried.len());
        assert_eq!(ctx.stats().blocked_demands, blocked.len() as u64);
        assert_eq!(
            ctx.stats().groom_ports_used,
            outcome.report.sadm_total as u64
        );
        outcome
            .partition
            .validate(&carried.to_traffic_graph(), 4)
            .unwrap();
        assert_eq!(ctx.stats().sadms_moved, 0, "capacity repair never moves");
    }

    #[test]
    fn mesh_plans_do_not_depend_on_the_route_table() {
        // One mesh item solved on a cold workspace, on one whose route
        // table another topology filled, and on one this topology filled:
        // byte-identical plans and candidate counts; only the hits differ.
        use grooming_graph::topology::NodeCaps;
        let grid = || generators::grid(5, 5);
        let topology = Topology::new(grid(), vec![1; 40], vec![NodeCaps::new(3, 8); 25]);
        let mut weights = vec![1; 40];
        weights[7] = 3;
        let other = Topology::new(grid(), weights, vec![NodeCaps::UNLIMITED; 25]);
        let demands = DemandSet::random(25, 60, &mut StdRng::seed_from_u64(21));
        let item = Instance::mesh(topology, demands.clone(), 4, 3);
        let solve = |instance: &Instance, workspace: Workspace| {
            let mut ctx = SolveContext::seeded(9).with_workspace(workspace);
            let plan = PortfolioSolver::default()
                .solve(instance, &mut ctx)
                .unwrap()
                .plan;
            let stats = ctx.stats().clone();
            (format!("{plan:?}"), stats, ctx.into_workspace())
        };
        let warmup = DemandSet::random(25, 40, &mut StdRng::seed_from_u64(22));
        let warmed_by_other = solve(&Instance::mesh(other, warmup, 4, 3), Workspace::new()).2;
        let (cold, cold_stats, _) = solve(&item, Workspace::new());
        let (stale, stale_stats, _) = solve(&item, warmed_by_other);
        let (warm, warm_stats, _) = solve(&item, solve(&item, Workspace::new()).2);
        assert_eq!(stale, cold);
        assert_eq!(warm, cold);
        assert_eq!(stale_stats.routes_evaluated, cold_stats.routes_evaluated);
        assert_eq!(warm_stats.routes_evaluated, cold_stats.routes_evaluated);
        // Cold tables hit only on pairs repeated inside the item.
        assert_eq!(stale_stats.route_table_hits, cold_stats.route_table_hits);
        assert!(cold_stats.route_table_hits < demands.len() as u64);
        assert_eq!(warm_stats.route_table_hits, demands.len() as u64);
    }

    #[test]
    fn mesh_unroutable_demand_errors() {
        let mut g = Graph::new(4);
        g.add_edge(
            grooming_graph::ids::NodeId(0),
            grooming_graph::ids::NodeId(1),
        );
        let topo = Topology::uniform(g);
        let mut demands = DemandSet::new(4);
        let p = demands.add(
            grooming_graph::ids::NodeId(2),
            grooming_graph::ids::NodeId(3),
        );
        let mut ctx = SolveContext::seeded(1);
        let err = Algorithm::SpanTEuler(TreeStrategy::Bfs)
            .solve(&Instance::mesh(topo, demands, 4, 2), &mut ctx)
            .unwrap_err();
        assert_eq!(err, SolveError::Capacity { pair: p });
        assert!(err.to_string().contains("no route"));
    }

    #[test]
    fn lower_bound_reported_for_every_workload() {
        // Satellite of the certified-quality roadmap item: every solved
        // workload accumulates `bounds::lower_bound` into its stats, so
        // the gap is visible on every solve.
        let g = graph(6);
        let demands = DemandSet::from_traffic_graph(&g);
        let mut ctx = SolveContext::seeded(2);
        let algo = Algorithm::SpanTEuler(TreeStrategy::Bfs);
        let expected = crate::bounds::lower_bound(&demands.to_traffic_graph(), 4) as u64;
        assert!(expected > 0);
        for instance in [
            Instance::upsr(g.clone(), 4),
            Instance::ring(demands.clone(), 4),
            Instance::budgeted(g.clone(), 4, g.num_edges()),
            Instance::mesh(Topology::ring(demands.num_nodes()), demands.clone(), 4, 2),
        ] {
            let before = ctx.stats().lower_bound;
            let sol = algo.solve(&instance, &mut ctx).unwrap();
            let gained = ctx.stats().lower_bound - before;
            assert_eq!(gained, expected);
            assert!(gained <= sol.plan.sadm_cost() as u64, "bound exceeds cost");
        }
        // BLSR and reconfigure accumulate it too.
        let before = ctx.stats().lower_bound;
        algo.solve(
            &Instance::blsr(BlsrRing::new(demands.num_nodes()), demands.clone(), 4),
            &mut ctx,
        )
        .unwrap();
        assert_eq!(ctx.stats().lower_bound - before, expected);
    }
}
