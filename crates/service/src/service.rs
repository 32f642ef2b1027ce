//! The service core: work-based admission, the worker pool, the solve
//! cache, and shutdown.
//!
//! # Lifecycle
//!
//! ```text
//! submit ──► [admission queue, bounded in items AND estimated work]
//!    │             │    (pause/resume; deadline-aware shed when saturated)
//!    │ Rejected    │ closed on shutdown
//!    ▼             ▼
//!  caller       worker pool ── solve cache ──► batch slots
//!                  │  warm Workspace per worker │
//!                  │  content-derived RNG seed  ▼
//!                  └─────── drained exactly once; last item sends response
//! ```
//!
//! Admission is all-or-nothing per request: a batch either fits into the
//! queue's remaining capacity entirely (both the item cap and the
//! estimated-work cap) or is rejected with the observed depth and cost, so
//! a caller always knows whether *every* item of its request is in flight.
//! Under saturation (queued work above [`ServiceConfig::shed_watermark`])
//! the admission gate additionally sheds the cheapest-to-reject work
//! first: a request whose deadline cannot survive the estimated queue wait
//! would deliver zero value, so it is refused *before* the queue fills to
//! its hard cap, keeping capacity for work that will still matter when it
//! completes.
//!
//! Workers pop items (not batches), so one large batch spreads across the
//! pool; each finished item fills its slot in the batch's result vector
//! and the worker that completes the last slot sends the re-assembled,
//! submission-ordered response.
//!
//! # Stats consistency
//!
//! All counters, the in-flight gauge, and both latency histograms live
//! under **one** mutex, and every transition that moves an item between
//! "queued", "in flight", and "completed" updates the queue and the stats
//! ledger while holding the queue lock (lock order: queue → stats →
//! cache). A [`StatsSnapshot`] therefore always satisfies
//! `accepted_items == completed_items + queue_depth + in_flight` — the
//! books balance at every instant, not just at rest.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use grooming::algorithm::Algorithm;
use grooming::portfolio::DEFAULT_PORTFOLIO;
use grooming::solve::{
    Instance, Plan, PortfolioSolver, SolveContext, SolveError, SolveStats, Solver,
};
use grooming_graph::workspace::Workspace;

use crate::cache::{instance_digest, SolveCache};
use crate::histogram::Histogram;

/// Derives the RNG seed of one solve from the service's master seed and
/// the item's canonical content digest ([`instance_digest`]).
///
/// Like the portfolio engine's `attempt_seed`, the derivation is a pure
/// function of identity — not of scheduling — so which worker picks the
/// item up (and in what order) can never change its stream. Deriving from
/// the *content* digest (rather than `(request_id, index)`) goes one step
/// further: identical instances always run the identical solve, no matter
/// which request carries them — the property that makes the solve cache
/// byte-exact. The domain constant differs from the attempt-seed domain so
/// service item seeds never collide with portfolio attempt seeds for the
/// same master.
pub fn item_seed(master: u64, digest: u128) -> u64 {
    let mut state = (master ^ 0x7E46_A12B_90C3_55D8)
        .wrapping_add((digest as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(((digest >> 64) as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    rand::splitmix64(&mut state)
}

/// Per-item admission overhead floor in work units.
const ITEM_BASE_COST: u64 = 32;

/// The `(nodes, demand units)` size of an instance — what both the
/// admission guards and the cost model measure.
fn instance_size(instance: &Instance) -> (usize, u64) {
    match instance {
        Instance::Upsr { graph, k: _ } | Instance::Budgeted { graph, .. } => {
            (graph.num_nodes(), graph.num_edges() as u64)
        }
        Instance::Ring { demands, .. }
        | Instance::OnlineRearrange { demands, .. }
        | Instance::Blsr { demands, .. } => (demands.num_nodes(), demands.len() as u64),
        Instance::MultiRing {
            network, demands, ..
        } => (
            (0..network.num_rings()).map(|r| network.ring_size(r)).sum(),
            demands.len() as u64,
        ),
        Instance::WeightedSplittable { demands, .. } => {
            (demands.num_nodes(), demands.total_units())
        }
        // A warm start touches the prior snapshot plus the churn, so the
        // whole post-delta demand volume is the work measure.
        Instance::Reconfigure { demands, delta, .. } => (
            demands.num_nodes(),
            (demands.len() + delta.added.len() + delta.removed.len()) as u64,
        ),
        // Mesh work is governed by the physical topology (routing) and the
        // demand count (grooming); the per-demand route fan-out is priced
        // separately in [`estimated_cost`].
        Instance::Mesh {
            topology, demands, ..
        } => (topology.num_nodes(), demands.len() as u64),
        // `Instance` is non-exhaustive; future variants pass the guard
        // until a size notion is defined for them.
        _ => (0, 0),
    }
}

/// The admission cost model: estimated work of one item in abstract units,
/// derived from `(n, m, k)`.
///
/// The construction pipeline is `O(m log n)`-flavoured per attempt and the
/// refinement engine scans per-edge candidates per part (`m / k`-ish parts
/// touch the quadratic-ish tail), so the estimate is
/// `BASE + (m + n)·⌈log₂(n+2)⌉ + m/k`. The absolute scale is arbitrary —
/// only ratios between items and the configured capacities matter — but it
/// is *deterministic*, which is what makes admission decisions (and the
/// saturation tests) reproducible.
pub fn estimated_cost(instance: &Instance) -> u64 {
    let (nodes, units) = instance_size(instance);
    let n = nodes as u64;
    let k = instance.grooming_factor().max(1) as u64;
    let lg = 64 - (n + 2).leading_zeros() as u64;
    // Mesh solves run Yen's algorithm per demand before grooming, so the
    // route fan-out multiplies into the work estimate.
    let route_term = match instance {
        Instance::Mesh { routes, .. } => units * (*routes).max(1) as u64,
        _ => 0,
    };
    ITEM_BASE_COST + (units + n) * lg + units / k + route_term
}

/// Tunables of a [`Service`].
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Worker threads (`0` = one per core). Worker count never changes
    /// any response payload, only throughput.
    pub workers: usize,
    /// Admission queue capacity in *items* (a batch of `N` instances
    /// consumes `N` slots). Submissions that do not fit entirely are
    /// rejected with [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Admission queue capacity in estimated *work units*
    /// ([`estimated_cost`]): a batch is admitted only if its total
    /// estimate also fits — item count alone no longer lets a few huge
    /// instances monopolize the queue.
    pub queue_work_capacity: u64,
    /// Queued-work level at which the deadline-aware load-shed policy
    /// engages (see [`SubmitError::Shed`]). Must be ≤
    /// [`ServiceConfig::queue_work_capacity`] to ever matter.
    pub shed_watermark: u64,
    /// The assumed drain rate (work units per millisecond) the shed
    /// policy uses to estimate queue wait. A static, configured estimate —
    /// deterministic on purpose; calibrate it from `perf_service` runs.
    pub shed_cost_per_ms: u64,
    /// Solve-cache capacity in plans (`0` disables the cache).
    pub cache_capacity: usize,
    /// Master seed for the per-item RNG stream derivation
    /// ([`item_seed`]).
    pub master_seed: u64,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Admission guard: largest ring/node count an item may touch.
    pub max_nodes: usize,
    /// Admission guard: largest demand-unit count an item may expand to
    /// (weighted demands multiply out before solving).
    pub max_units: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_capacity: 256,
            queue_work_capacity: 1 << 22,
            shed_watermark: 1 << 21,
            shed_cost_per_ms: 256,
            cache_capacity: 1024,
            master_seed: 0,
            default_deadline: None,
            max_nodes: 1 << 20,
            max_units: 1 << 22,
        }
    }
}

/// One submission: a batch of instances solved under shared options, with
/// responses re-assembled in item order.
#[derive(Clone, Debug)]
pub struct Request {
    /// Caller-chosen request id — the envelope correlation id echoed in
    /// the response. It does *not* perturb solves: plans are a pure
    /// function of `(instance content, solver, master_seed)`, which is
    /// what lets the solve cache serve repeats across requests.
    pub id: u64,
    /// The instances to solve.
    pub items: Vec<Instance>,
    /// Per-request deadline, measured from admission (queue wait counts);
    /// `None` falls back to [`ServiceConfig::default_deadline`].
    pub deadline: Option<Duration>,
    /// Solver override; `None` runs the default portfolio.
    pub algo: Option<Algorithm>,
}

impl Request {
    /// A batch request with no deadline and the default portfolio solver.
    pub fn batch(id: u64, items: Vec<Instance>) -> Self {
        Request {
            id,
            items,
            deadline: None,
            algo: None,
        }
    }
}

/// Why an individual item failed (the batch itself still completes; other
/// items are unaffected).
#[derive(Clone, Debug)]
pub enum ItemError {
    /// The solver rejected the instance.
    Solve(SolveError),
    /// An admission guard tripped ([`ServiceConfig::max_nodes`] /
    /// [`ServiceConfig::max_units`]).
    TooLarge {
        /// What exceeded the limit (`"nodes"` or `"units"`).
        what: &'static str,
        /// The offending size.
        got: u64,
        /// The configured limit.
        limit: u64,
    },
}

impl std::fmt::Display for ItemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ItemError::Solve(e) => write!(f, "{e}"),
            ItemError::TooLarge { what, got, limit } => {
                write!(f, "instance too large: {got} {what} exceeds limit {limit}")
            }
        }
    }
}

impl std::error::Error for ItemError {}

/// The outcome of one item of a batch.
#[derive(Clone, Debug)]
pub enum ItemOutcome {
    /// The solve produced a plan.
    Solved {
        /// The best plan found.
        plan: Plan,
        /// `true` if the deadline cut the solve short (the plan is the
        /// valid best-so-far).
        timed_out: bool,
        /// `true` if the service's cancel latch (shutdown) cut it short.
        cancelled: bool,
    },
    /// The item failed; the error is per-item, the batch still completes.
    Failed {
        /// Why.
        error: ItemError,
    },
}

/// A completed batch: one outcome per submitted item, in submission order.
#[derive(Clone, Debug)]
pub struct BatchResponse {
    /// The request id this answers.
    pub id: u64,
    /// Outcomes, indexed exactly like [`Request::items`].
    pub items: Vec<ItemOutcome>,
}

/// Why a submission was not admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The batch does not fit into the queue's remaining capacity —
    /// either the item cap or the estimated-work cap. The caller sees the
    /// depth and cost it bounced off of — explicit backpressure, never
    /// blocking, never unbounded buffering.
    QueueFull {
        /// Items queued at rejection time.
        queue_depth: usize,
        /// Estimated work units queued at rejection time.
        queued_cost: u64,
    },
    /// The queue is saturated (above [`ServiceConfig::shed_watermark`])
    /// and this request's deadline cannot survive the estimated queue
    /// wait: it would time out before a worker reached it, so admitting
    /// it would burn capacity on zero-value work. Shed work is the
    /// cheapest work to reject — its value was already lost.
    Shed {
        /// Estimated wait before a worker would pick the request up,
        /// from the queued work and the configured drain rate.
        estimated_wait_ms: u64,
        /// The deadline the request cannot meet.
        deadline_ms: u64,
    },
    /// The service has stopped admitting (shutdown in progress).
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull {
                queue_depth,
                queued_cost,
            } => {
                write!(f, "queue full (depth {queue_depth}, cost {queued_cost})")
            }
            SubmitError::Shed {
                estimated_wait_ms,
                deadline_ms,
            } => write!(
                f,
                "shed under saturation: estimated queue wait {estimated_wait_ms}ms \
                 exceeds deadline {deadline_ms}ms"
            ),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A claim on one accepted request's response.
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    rx: mpsc::Receiver<BatchResponse>,
}

impl Ticket {
    /// The request id this ticket answers for.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the batch completes. Every accepted request is
    /// answered exactly once — shutdown drains the queue instead of
    /// dropping it — so this only panics if a worker thread itself
    /// panicked (a solver bug).
    pub fn wait(self) -> BatchResponse {
        self.rx
            .recv()
            .expect("service answers every accepted request exactly once")
    }
}

/// Admission/completion counters (monotonic over the service lifetime).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceCounters {
    /// Requests admitted.
    pub accepted_requests: u64,
    /// Items admitted (sum of batch sizes).
    pub accepted_items: u64,
    /// Requests rejected (queue full, shed, or shutting down).
    pub rejected_requests: u64,
    /// Requests shed by the deadline-aware saturation policy (a subset of
    /// [`ServiceCounters::rejected_requests`]).
    pub shed_requests: u64,
    /// Items that finished solving (including failed ones).
    pub completed_items: u64,
    /// Completed items that were [`Instance::Reconfigure`] warm starts (a
    /// subset of [`ServiceCounters::completed_items`]; cache hits
    /// included). Soak harnesses assert on this directly instead of
    /// inferring reconfigure traffic from batch totals.
    pub reconfigures_completed: u64,
    /// Items that returned a per-item error.
    pub failed_items: u64,
    /// Items whose solve was cut by a deadline.
    pub timed_out_items: u64,
    /// Items whose solve was cut by the shutdown cancel latch.
    pub cancelled_items: u64,
    /// Items served byte-identically from the solve cache.
    pub cache_hits: u64,
    /// Items that consulted the cache and solved from scratch.
    pub cache_misses: u64,
}

/// A point-in-time observability snapshot (`STATS` on the wire).
///
/// Taken under one consistent lock acquisition, so the books balance:
/// `counters.accepted_items == counters.completed_items + queue_depth +
/// in_flight` holds for every snapshot, even under full load.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct StatsSnapshot {
    /// Admission/completion counters.
    pub counters: ServiceCounters,
    /// Items waiting in the queue right now.
    pub queue_depth: usize,
    /// Estimated work units waiting in the queue right now.
    pub queued_cost: u64,
    /// Items popped by a worker but not yet completed.
    pub in_flight: u64,
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Merged per-worker solve instrumentation ([`SolveStats::merge`]).
    pub solve: SolveStats,
    /// Admission → worker-pickup latency per item.
    pub queue_wait: Histogram,
    /// Worker pickup → completion latency per item (cache hits included,
    /// at their near-zero cost).
    pub solve_time: Histogram,
    /// Plans currently held by the solve cache.
    pub cache_entries: usize,
    /// Plans evicted from the solve cache so far.
    pub cache_evictions: u64,
}

/// One queued unit of work: a single item of some batch.
struct Job {
    instance: Instance,
    deadline: Option<Instant>,
    algo: Option<Algorithm>,
    index: usize,
    /// Canonical content digest — cache key and seed source.
    digest: u128,
    /// The content-derived RNG seed ([`item_seed`]).
    seed: u64,
    /// Estimated work units ([`estimated_cost`]).
    cost: u64,
    /// When admission accepted the item (queue-wait histogram anchor).
    admitted_at: Instant,
    batch: Arc<BatchState>,
}

/// Shared completion state of one batch.
struct BatchState {
    id: u64,
    slots: Mutex<Vec<Option<ItemOutcome>>>,
    remaining: AtomicUsize,
    tx: mpsc::Sender<BatchResponse>,
}

/// The queue proper, guarded by one mutex with a worker-side condvar.
struct QueueState {
    jobs: VecDeque<Job>,
    /// Sum of `cost` over `jobs` — the work-based admission gauge.
    queued_cost: u64,
    /// No further admissions; workers exit once the queue is empty.
    closed: bool,
    /// Workers hold off popping (maintenance window); admission stays
    /// open. Shutdown overrides pause so draining always terminates.
    paused: bool,
    /// Content digests workers are solving right now (cache on only). A
    /// queued item with the same content waits for that solve and is then
    /// a cache hit instead of a second, concurrent solve.
    solving: Vec<u128>,
}

/// Everything the stats lock guards — one acquisition yields one
/// consistent view.
#[derive(Default)]
struct StatsInner {
    counters: ServiceCounters,
    solve: SolveStats,
    queue_wait: Histogram,
    solve_time: Histogram,
    in_flight: u64,
}

struct Shared {
    state: Mutex<QueueState>,
    work_cv: Condvar,
    cancel: Arc<AtomicBool>,
    stats: Mutex<StatsInner>,
    cache: Mutex<SolveCache>,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
    workers: usize,
    config: ServiceConfig,
}

/// A running grooming service. Cheap to clone — all clones share one
/// queue, pool, cache, and stats ledger.
///
/// ```
/// use grooming::solve::Instance;
/// use grooming_sonet::demand::DemandSet;
/// use grooming_service::{Request, Service, ServiceConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut config = ServiceConfig::default();
/// config.workers = 2;
/// let service = Service::start(config);
/// let demands = DemandSet::random(12, 30, &mut StdRng::seed_from_u64(5));
/// let ticket = service
///     .submit(Request::batch(1, vec![Instance::ring(demands, 4)]))
///     .unwrap();
/// let response = ticket.wait();
/// assert_eq!(response.items.len(), 1);
/// service.shutdown();
/// ```
#[derive(Clone)]
pub struct Service {
    shared: Arc<Shared>,
}

impl Service {
    /// Starts the worker pool and returns the service handle.
    pub fn start(config: ServiceConfig) -> Self {
        let workers = if config.workers == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.workers
        };
        let cache = SolveCache::new(config.cache_capacity);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                queued_cost: 0,
                closed: false,
                paused: false,
                solving: Vec::new(),
            }),
            work_cv: Condvar::new(),
            cancel: Arc::new(AtomicBool::new(false)),
            stats: Mutex::new(StatsInner::default()),
            cache: Mutex::new(cache),
            handles: Mutex::new(Vec::with_capacity(workers)),
            workers,
            config,
        });
        {
            let mut handles = shared.handles.lock().unwrap();
            for i in 0..workers {
                let shared = Arc::clone(&shared);
                let handle = thread::Builder::new()
                    .name(format!("groomd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread");
                handles.push(handle);
            }
        }
        Service { shared }
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// The master seed all item streams derive from.
    pub fn master_seed(&self) -> u64 {
        self.shared.config.master_seed
    }

    /// The configuration the service was started with (the wire parser
    /// reads its admission limits).
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.config
    }

    /// Submits a request. Admission is all-or-nothing and never blocks:
    /// the batch is either queued entirely (you get a [`Ticket`] that will
    /// resolve exactly once) or rejected with the observed queue state.
    pub fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        let Request {
            id,
            items,
            deadline,
            algo,
        } = request;
        // Digest/cost derivation works on content only — keep it outside
        // every lock.
        let metas: Vec<(u128, u64)> = items
            .iter()
            .map(|i| (instance_digest(i, algo), estimated_cost(i)))
            .collect();
        let batch_cost: u64 = metas.iter().map(|(_, c)| c).sum();
        let effective_deadline = deadline.or(self.shared.config.default_deadline);

        let (tx, rx) = mpsc::channel();
        let mut state = self.shared.state.lock().unwrap();
        if state.closed {
            drop(state);
            self.reject(None);
            return Err(SubmitError::ShuttingDown);
        }
        let queue_depth = state.jobs.len();
        let queued_cost = state.queued_cost;
        if queue_depth + items.len() > self.shared.config.queue_capacity
            || queued_cost + batch_cost > self.shared.config.queue_work_capacity
        {
            drop(state);
            self.reject(None);
            return Err(SubmitError::QueueFull {
                queue_depth,
                queued_cost,
            });
        }
        // Saturation shed: above the watermark, work that cannot survive
        // the estimated queue wait is rejected while it is still cheap to
        // reject (its deadline would void it anyway).
        if queued_cost >= self.shared.config.shed_watermark {
            if let Some(d) = effective_deadline {
                let estimated_wait_ms = queued_cost / self.shared.config.shed_cost_per_ms.max(1);
                let deadline_ms = d.as_millis() as u64;
                if deadline_ms < estimated_wait_ms {
                    drop(state);
                    self.reject(Some(SubmitError::Shed {
                        estimated_wait_ms,
                        deadline_ms,
                    }));
                    return Err(SubmitError::Shed {
                        estimated_wait_ms,
                        deadline_ms,
                    });
                }
            }
        }
        {
            // Still holding the queue lock: admission counters move in the
            // same critical section that grows the queue, so a snapshot
            // can never see the items without the count (or vice versa).
            let mut stats = self.shared.stats.lock().unwrap();
            stats.counters.accepted_requests += 1;
            stats.counters.accepted_items += items.len() as u64;
        }
        let deadline = effective_deadline.map(|d| Instant::now() + d);
        let n = items.len();
        let batch = Arc::new(BatchState {
            id,
            slots: Mutex::new((0..n).map(|_| None).collect()),
            remaining: AtomicUsize::new(n),
            tx,
        });
        if n == 0 {
            // An empty batch completes immediately (nothing to queue).
            let _ = batch.tx.send(BatchResponse { id, items: vec![] });
        }
        let admitted_at = Instant::now();
        for ((index, instance), (digest, cost)) in items.into_iter().enumerate().zip(metas) {
            state.queued_cost += cost;
            state.jobs.push_back(Job {
                instance,
                deadline,
                algo,
                index,
                digest,
                seed: item_seed(self.shared.config.master_seed, digest),
                cost,
                admitted_at,
                batch: Arc::clone(&batch),
            });
        }
        drop(state);
        self.shared.work_cv.notify_all();
        Ok(Ticket { id, rx })
    }

    /// Counts one rejection (and classifies a shed).
    fn reject(&self, shed: Option<SubmitError>) {
        let mut stats = self.shared.stats.lock().unwrap();
        stats.counters.rejected_requests += 1;
        if matches!(shed, Some(SubmitError::Shed { .. })) {
            stats.counters.shed_requests += 1;
        }
    }

    /// Holds the workers off the queue (they finish their current item).
    /// Admission stays open — the maintenance-window switch: queue up a
    /// rearrangement batch, then [`Service::resume`]. Shutdown overrides a
    /// pause so draining always terminates.
    pub fn pause(&self) {
        self.shared.state.lock().unwrap().paused = true;
    }

    /// Releases a [`Service::pause`].
    pub fn resume(&self) {
        self.shared.state.lock().unwrap().paused = false;
        self.shared.work_cv.notify_all();
    }

    /// `true` once shutdown has begun (admissions are being rejected).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.state.lock().unwrap().closed
    }

    /// Blocks until shutdown has begun. Parks on the workers' condvar, which
    /// is only ever woken with `notify_all`, so it steals no worker wake-up.
    pub fn wait_for_shutdown(&self) {
        let mut state = self.shared.state.lock().unwrap();
        while !state.closed {
            state = self.shared.work_cv.wait(state).unwrap();
        }
    }

    /// The shared cancel latch — the flag [`Service::begin_shutdown`]
    /// flips and every solve context adopts.
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.cancel)
    }

    /// Begins a graceful shutdown without waiting for it: stops admitting
    /// (new submissions get [`SubmitError::ShuttingDown`]) and flips the
    /// shared cancel latch so in-flight solves return their best-so-far
    /// plan at the next attempt boundary. Already-accepted items still
    /// run — every ticket resolves. Idempotent.
    pub fn begin_shutdown(&self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            if state.closed {
                return;
            }
            state.closed = true;
        }
        self.shared.cancel.store(true, Ordering::Relaxed);
        self.shared.work_cv.notify_all();
    }

    /// Graceful shutdown: [`Service::begin_shutdown`], then join the
    /// workers once they have drained every accepted item, and return the
    /// final stats snapshot. Safe to call from any clone; later calls
    /// return the (identical) final snapshot without re-joining.
    pub fn shutdown(&self) -> StatsSnapshot {
        self.begin_shutdown();
        let handles = std::mem::take(&mut *self.shared.handles.lock().unwrap());
        for handle in handles {
            handle.join().expect("worker thread panicked");
        }
        self.stats()
    }

    /// A point-in-time stats snapshot ([`StatsSnapshot`]), taken with the
    /// queue and stats locks held together so the item accounting always
    /// balances.
    pub fn stats(&self) -> StatsSnapshot {
        let state = self.shared.state.lock().unwrap();
        let stats = self.shared.stats.lock().unwrap();
        let queue_depth = state.jobs.len();
        let queued_cost = state.queued_cost;
        let snapshot = StatsSnapshot {
            counters: stats.counters.clone(),
            queue_depth,
            queued_cost,
            in_flight: stats.in_flight,
            workers: self.shared.workers,
            solve: stats.solve.clone(),
            queue_wait: stats.queue_wait.clone(),
            solve_time: stats.solve_time.clone(),
            cache_entries: 0,
            cache_evictions: 0,
        };
        drop(stats);
        drop(state);
        // The cache gauge does not participate in the item-accounting
        // invariant, so it may be read after the consistent pair.
        let cache = self.shared.cache.lock().unwrap();
        StatsSnapshot {
            cache_entries: cache.len(),
            cache_evictions: cache.evictions(),
            ..snapshot
        }
    }
}

/// The per-worker loop: pop one item, solve it on the warm workspace,
/// deliver its slot, repeat until the queue is closed *and* empty.
fn worker_loop(shared: &Shared) {
    let mut workspace = Workspace::new();
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap();
            loop {
                // Shutdown overrides pause: a closed queue always drains.
                if !state.paused || state.closed {
                    let next = state
                        .jobs
                        .iter()
                        .position(|job| !state.solving.contains(&job.digest));
                    if let Some(job) = next.and_then(|i| state.jobs.remove(i)) {
                        // Queue → in-flight is one transition under both
                        // locks, so snapshots never lose the item.
                        state.queued_cost -= job.cost;
                        if shared.config.cache_capacity > 0 {
                            state.solving.push(job.digest);
                        }
                        let mut stats = shared.stats.lock().unwrap();
                        stats.in_flight += 1;
                        stats.queue_wait.record(job.admitted_at.elapsed());
                        drop(stats);
                        break Some(job);
                    }
                    if state.closed && state.jobs.is_empty() {
                        break None;
                    }
                }
                state = shared.work_cv.wait(state).unwrap();
            }
        };
        let Some(job) = job else {
            return;
        };
        workspace = run_job(shared, job, workspace);
    }
}

/// Solves one job (or serves it from the cache) and fills its batch slot;
/// the worker completing the last slot of a batch sends the assembled
/// response. Returns the (now warmer) workspace for the next job.
fn run_job(shared: &Shared, job: Job, workspace: Workspace) -> Workspace {
    let started = Instant::now();
    let mut cache_lookup: Option<bool> = None; // Some(hit?) once consulted
    let mut solve_stats: Option<SolveStats> = None;
    let mut workspace = Some(workspace);

    let outcome = match check_size(&job.instance, &shared.config) {
        Err(error) => ItemOutcome::Failed { error },
        Ok(()) => {
            let cached = if shared.config.cache_capacity > 0 {
                let hit = shared.cache.lock().unwrap().get(job.digest).cloned();
                cache_lookup = Some(hit.is_some());
                hit
            } else {
                None
            };
            match cached {
                // A hit is byte-identical to re-solving (content-derived
                // seed + deterministic solver) — serve it without touching
                // the workspace.
                Some(plan) => ItemOutcome::Solved {
                    plan,
                    timed_out: false,
                    cancelled: false,
                },
                None => {
                    let mut ctx = SolveContext::seeded(job.seed)
                        .with_workspace(workspace.take().expect("workspace present"))
                        .with_cancel_flag(Arc::clone(&shared.cancel));
                    if let Some(deadline) = job.deadline {
                        ctx = ctx.with_deadline(deadline);
                    }
                    let result = match job.algo {
                        Some(algo) => algo.solve(&job.instance, &mut ctx),
                        None => PortfolioSolver {
                            portfolio: &DEFAULT_PORTFOLIO,
                            restarts: 0,
                            // Workers are the parallelism; keep each solve
                            // sequential in-thread.
                            jobs: 1,
                            master_seed: Some(job.seed),
                        }
                        .solve(&job.instance, &mut ctx),
                    };
                    let outcome = match result {
                        Ok(solution) => {
                            // Only complete solves enter the cache: a
                            // truncated best-so-far plan is not the
                            // canonical answer for this content.
                            if !solution.timed_out && !solution.cancelled {
                                shared
                                    .cache
                                    .lock()
                                    .unwrap()
                                    .insert(job.digest, solution.plan.clone());
                            }
                            ItemOutcome::Solved {
                                plan: solution.plan,
                                timed_out: solution.timed_out,
                                cancelled: solution.cancelled,
                            }
                        }
                        Err(e) => ItemOutcome::Failed {
                            error: ItemError::Solve(e),
                        },
                    };
                    solve_stats = Some(ctx.stats().clone());
                    workspace = Some(ctx.into_workspace());
                    outcome
                }
            }
        }
    };

    {
        // One stats critical section per completion: counters, the
        // in-flight gauge, the solve-time histogram, and the merged solve
        // instrumentation all move together.
        let mut stats = shared.stats.lock().unwrap();
        if let Some(s) = &solve_stats {
            stats.solve.merge(s);
        }
        stats.solve_time.record(started.elapsed());
        stats.in_flight -= 1;
        let counters = &mut stats.counters;
        counters.completed_items += 1;
        if matches!(job.instance, Instance::Reconfigure { .. }) {
            counters.reconfigures_completed += 1;
        }
        match cache_lookup {
            Some(true) => counters.cache_hits += 1,
            Some(false) => counters.cache_misses += 1,
            None => {}
        }
        match &outcome {
            ItemOutcome::Failed { .. } => counters.failed_items += 1,
            ItemOutcome::Solved {
                timed_out,
                cancelled,
                ..
            } => {
                if *timed_out {
                    counters.timed_out_items += 1;
                }
                if *cancelled {
                    counters.cancelled_items += 1;
                }
            }
        }
    }

    if shared.config.cache_capacity > 0 {
        // The plan is cached now (unless the solve was cut short): release
        // any queued duplicate held back while it solved.
        let mut state = shared.state.lock().unwrap();
        state.solving.retain(|&d| d != job.digest);
        if state.jobs.iter().any(|queued| queued.digest == job.digest) {
            shared.work_cv.notify_all();
        }
    }

    {
        let mut slots = job.batch.slots.lock().unwrap();
        debug_assert!(slots[job.index].is_none(), "item solved twice");
        slots[job.index] = Some(outcome);
    }
    if job.batch.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        let slots = std::mem::take(&mut *job.batch.slots.lock().unwrap());
        let items = slots
            .into_iter()
            .map(|s| s.expect("every slot filled before batch completion"))
            .collect();
        // A dropped ticket (receiver) is fine — send just reports it.
        let _ = job.batch.tx.send(BatchResponse {
            id: job.batch.id,
            items,
        });
    }

    workspace.expect("workspace returned")
}

/// The admission guards: node and expanded-unit caps, so one oversized
/// (or adversarial) item cannot balloon a worker's memory.
fn check_size(instance: &Instance, config: &ServiceConfig) -> Result<(), ItemError> {
    let (nodes, units) = instance_size(instance);
    if nodes > config.max_nodes {
        return Err(ItemError::TooLarge {
            what: "nodes",
            got: nodes as u64,
            limit: config.max_nodes as u64,
        });
    }
    if units > config.max_units {
        return Err(ItemError::TooLarge {
            what: "units",
            got: units,
            limit: config.max_units,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use grooming_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn item_seed_is_content_derived_and_decorrelated() {
        let g1 = generators::gnm(8, 14, &mut StdRng::seed_from_u64(1));
        let g2 = generators::gnm(8, 14, &mut StdRng::seed_from_u64(2));
        let d1 = instance_digest(&Instance::upsr(g1.clone(), 4), None);
        let d2 = instance_digest(&Instance::upsr(g2, 4), None);
        let d3 = instance_digest(&Instance::upsr(g1, 3), None);
        // Pure function of identity: stable across calls.
        assert_eq!(item_seed(1, d1), item_seed(1, d1));
        // Distinct content, distinct masters → distinct streams.
        assert_ne!(item_seed(0, d1), item_seed(0, d2));
        assert_ne!(item_seed(0, d1), item_seed(0, d3));
        assert_ne!(item_seed(0, d1), item_seed(1, d1));
        // Distinct from the portfolio attempt-seed domain for the same
        // master (different domain-separation constant).
        assert_ne!(
            item_seed(7, d1),
            grooming::portfolio::attempt_seed(7, Algorithm::Brauner, 0)
        );
    }

    #[test]
    fn estimated_cost_grows_with_size_and_shrinking_k() {
        let small = Instance::ring(grooming_sonet::demand::DemandSet::all_to_all(6), 4);
        let large = Instance::ring(grooming_sonet::demand::DemandSet::all_to_all(24), 4);
        assert!(estimated_cost(&large) > estimated_cost(&small));
        let loose = Instance::upsr(generators::gnm(16, 40, &mut StdRng::seed_from_u64(1)), 16);
        let tight = Instance::upsr(generators::gnm(16, 40, &mut StdRng::seed_from_u64(1)), 2);
        assert!(estimated_cost(&tight) > estimated_cost(&loose));
        // Deterministic: same instance, same estimate.
        assert_eq!(estimated_cost(&small), estimated_cost(&small));
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let response = service.submit(Request::batch(9, vec![])).unwrap().wait();
        assert_eq!(response.id, 9);
        assert!(response.items.is_empty());
        let stats = service.shutdown();
        assert_eq!(stats.counters.accepted_requests, 1);
        assert_eq!(stats.counters.accepted_items, 0);
    }

    #[test]
    fn oversized_items_fail_without_poisoning_the_batch() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            max_nodes: 8,
            ..ServiceConfig::default()
        });
        let small = generators::gnm(6, 9, &mut StdRng::seed_from_u64(1));
        let big = generators::gnm(16, 30, &mut StdRng::seed_from_u64(2));
        let response = service
            .submit(Request::batch(
                1,
                vec![Instance::upsr(big, 4), Instance::upsr(small, 4)],
            ))
            .unwrap()
            .wait();
        assert!(matches!(
            &response.items[0],
            ItemOutcome::Failed {
                error: ItemError::TooLarge {
                    what: "nodes",
                    got: 16,
                    limit: 8
                }
            }
        ));
        assert!(matches!(&response.items[1], ItemOutcome::Solved { .. }));
        let stats = service.shutdown();
        assert_eq!(stats.counters.failed_items, 1);
        assert_eq!(stats.counters.completed_items, 2);
    }

    #[test]
    fn solve_errors_are_per_item() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        // A star graph is irregular: RegularEuler must fail this item.
        let star = generators::star(6);
        let response = service
            .submit(Request {
                id: 4,
                items: vec![Instance::upsr(star, 4)],
                deadline: None,
                algo: Some(Algorithm::RegularEuler),
            })
            .unwrap()
            .wait();
        assert!(matches!(
            &response.items[0],
            ItemOutcome::Failed {
                error: ItemError::Solve(SolveError::NotRegular(_))
            }
        ));
        service.shutdown();
    }

    #[test]
    fn cache_serves_repeats_byte_identically() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            master_seed: 5,
            ..ServiceConfig::default()
        });
        let g = generators::gnm(10, 20, &mut StdRng::seed_from_u64(8));
        let items = || vec![Instance::upsr(g.clone(), 4)];
        let first = service.submit(Request::batch(1, items())).unwrap().wait();
        // Different request id, same content: served from the cache, with
        // the identical plan (content-derived seed makes this exact).
        let second = service.submit(Request::batch(2, items())).unwrap().wait();
        let (ItemOutcome::Solved { plan: a, .. }, ItemOutcome::Solved { plan: b, .. }) =
            (&first.items[0], &second.items[0])
        else {
            panic!("both solves must succeed");
        };
        assert_eq!(a.sadm_cost(), b.sadm_cost());
        assert_eq!(a.wavelengths(), b.wavelengths());
        assert_eq!(
            a.partition().unwrap().parts(),
            b.partition().unwrap().parts()
        );
        let stats = service.shutdown();
        assert_eq!(stats.counters.cache_hits, 1);
        assert_eq!(stats.counters.cache_misses, 1);
        assert_eq!(stats.cache_entries, 1);
    }

    #[test]
    fn disabled_cache_still_solves_identically() {
        let mut plans = Vec::new();
        for cache_capacity in [0, 64] {
            let service = Service::start(ServiceConfig {
                workers: 1,
                cache_capacity,
                master_seed: 9,
                ..ServiceConfig::default()
            });
            let g = generators::gnm(10, 18, &mut StdRng::seed_from_u64(4));
            let response = service
                .submit(Request::batch(1, vec![Instance::upsr(g, 4)]))
                .unwrap()
                .wait();
            let ItemOutcome::Solved { plan, .. } = &response.items[0] else {
                panic!("solve failed");
            };
            plans.push(plan.partition().unwrap().parts().to_vec());
            let stats = service.shutdown();
            if cache_capacity == 0 {
                assert_eq!(stats.counters.cache_hits + stats.counters.cache_misses, 0);
            }
        }
        assert_eq!(plans[0], plans[1], "cache must never change a plan");
    }

    #[test]
    fn work_capacity_rejects_with_observed_cost() {
        let demands = grooming_sonet::demand::DemandSet::all_to_all(8);
        let item = Instance::ring(demands, 4);
        let cost = estimated_cost(&item);
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_work_capacity: cost * 2,
            shed_watermark: cost * 2, // shed disabled for this test
            ..ServiceConfig::default()
        });
        service.pause();
        let t = service
            .submit(Request::batch(1, vec![item.clone(), item.clone()]))
            .unwrap();
        match service.submit(Request::batch(2, vec![item.clone()])) {
            Err(SubmitError::QueueFull {
                queue_depth,
                queued_cost,
            }) => {
                assert_eq!(queue_depth, 2);
                assert_eq!(queued_cost, cost * 2);
            }
            other => panic!("expected QueueFull, got {:?}", other.map(|t| t.id())),
        }
        service.resume();
        assert_eq!(t.wait().items.len(), 2);
        service.shutdown();
    }
}
