//! The traced run's replay: each wire request is replayed in process,
//! with a span around every public call into a layer.
//!
//! Spans are kept in memory and written out when the run ends. Each span
//! has a name, start, end, parent and request id; a layer's self time is
//! its span minus the time its child spans cover.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use grooming::algorithm::Algorithm;
use grooming::bounds;
use grooming::improve;
use grooming::partition::EdgePartition;
use grooming::portfolio::{PortfolioEngine, DEFAULT_PORTFOLIO};
use grooming::solve::{
    DemandDelta, Instance, Plan, PortfolioSolver, SolveConfig, SolveContext, SolveStats, Solver,
    DEFAULT_REFINE_ROUNDS,
};
use grooming_graph::graph::Graph;
use grooming_graph::spanning::TreeStrategy;
use grooming_graph::workspace::Workspace;
use grooming_graph::EdgeId;
use grooming_service::protocol::{self, format_batch_response, parse_request};
use grooming_service::{
    instance_digest, item_seed, BatchResponse, Client, ItemOutcome, RequestOptions, Service,
    ServiceConfig,
};
use grooming_sonet::demand::{DemandPair, DemandSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::parse_reply;
use crate::wire::Exchange;
use crate::workload::WireRequest;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// The request the span belongs to.
    pub request: u64,
    /// Index of the span within its request.
    pub id: usize,
    /// The enclosing span within the same request.
    pub parent: Option<usize>,
    /// The layer call, e.g. `improve.refine`.
    pub name: &'static str,
    /// Start, relative to the trace origin.
    pub start: Duration,
    /// End, relative to the trace origin.
    pub end: Duration,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// What one replayed request measured beyond its spans.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    /// The request id.
    pub request: u64,
    /// Request bytes on the wire.
    pub request_bytes: usize,
    /// Total duration of this request's spans, by name.
    pub times: Vec<(&'static str, Duration)>,
    /// `refine_with_stats` swap evaluations.
    pub swaps_evaluated: u64,
    /// Yen candidates `k_shortest_paths` returned.
    pub routes_evaluated: u64,
    /// `warm_repair`'s parts touched and SADM churn.
    pub parts_repaired: u64,
    /// See [`Sample::parts_repaired`].
    pub sadms_moved: u64,
    /// Portfolio attempts: `(entry, duration, won)`.
    pub attempts: Vec<(Algorithm, Duration, bool)>,
}

impl Sample {
    /// Total time of this request's spans named `name`.
    pub fn time(&self, name: &str) -> Duration {
        self.times
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, d)| *d)
            .sum()
    }
}

/// Builds one request's span tree.
struct Recorder {
    origin: Instant,
    request: u64,
    spans: Vec<Span>,
}

impl Recorder {
    fn record(&mut self, name: &'static str, parent: Option<usize>, start: Instant) -> usize {
        let at = start - self.origin;
        self.spans.push(Span {
            request: self.request,
            id: self.spans.len(),
            parent,
            name,
            start: at,
            end: at,
        });
        self.spans.len() - 1
    }

    fn open(&mut self, name: &'static str, parent: usize) -> usize {
        self.record(name, Some(parent), Instant::now())
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now() - self.origin;
    }

    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }
}

/// One connection thread's replay state.
pub struct Replayer {
    client: Client,
    config: ServiceConfig,
    workspace: Workspace,
    origin: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    /// One sample per recorded request.
    pub samples: Vec<Sample>,
    /// Replay mismatches, one line each.
    pub failures: Vec<String>,
}

impl Replayer {
    /// A replayer over the in-process `service` (started with `config`,
    /// the same configuration as the groomd under test); span times count
    /// from `origin`.
    pub fn new(service: &Service, config: &ServiceConfig, origin: Instant) -> Self {
        Replayer {
            client: Client::new(service),
            config: config.clone(),
            workspace: Workspace::new(),
            origin,
            spans: Vec::new(),
            samples: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Replays `request` after its wire exchange `exchange`.
    pub fn replay(&mut self, request: &WireRequest, exchange: &Exchange) {
        let mut rec = Recorder {
            origin: self.origin,
            request: request.id,
            spans: Vec::new(),
        };
        let mut sample = Sample {
            request: request.id,
            request_bytes: request.bytes.len(),
            ..Sample::default()
        };
        let root = rec.record("request", None, exchange.sent);
        let wire = rec.record("wire.round_trip", Some(root), exchange.sent);
        rec.spans[wire].end = exchange.received - self.origin;
        let replay = rec.open("replay", root);
        if let Err(e) = self.replay_request(&mut rec, replay, request, exchange, &mut sample) {
            self.failures.push(format!("request {}: {e}", request.id));
        }
        rec.close(replay);
        rec.close(root);
        for span in &rec.spans {
            match sample.times.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, d)) => *d += span.duration(),
                None => sample.times.push((span.name, span.duration())),
            }
        }
        self.samples.push(sample);
        self.spans.append(&mut rec.spans);
    }

    fn replay_request(
        &mut self,
        rec: &mut Recorder,
        replay: usize,
        request: &WireRequest,
        exchange: &Exchange,
        sample: &mut Sample,
    ) -> Result<(), String> {
        let config = &self.config;
        let parsed = rec.time("protocol.parse", replay, || {
            let mut lines = request.bytes.lines().map(|l| Ok(l.to_string()));
            let first = lines.next().and_then(Result::ok).unwrap_or_default();
            parse_request(&first, &mut lines, config)
        });
        let batch = match parsed {
            Ok(protocol::WireRequest::Batch(batch)) => batch,
            Ok(other) => return Err(format!("parsed as {other:?}, not a batch")),
            Err(e) => return Err(format!("does not parse: {e}")),
        };
        let [item] = &batch.items[..] else {
            return Err("the replay covers one-item requests only".into());
        };
        let item = item.clone();
        let mut options = RequestOptions::default().with_id(batch.id);
        if let Some(algo) = batch.algo {
            options = options.with_algo(algo);
        }
        let algo = batch.algo;
        let response = rec
            .time("service.client", replay, || {
                self.client.solve_batch(batch.items, options)
            })
            .map_err(|e| format!("in-process service refused it: {e}"))?;
        let transcript = rec.time("protocol.format", replay, || {
            format_batch_response(&response)
        });
        if transcript != exchange.reply {
            return Err(format!(
                "wire reply {:?} differs from the in-process transcript {transcript:?}",
                exchange.reply
            ));
        }
        let span = rec.open("item", replay);
        let out = self.replay_item(rec, span, &item, algo, exchange, sample);
        rec.close(span);
        out
    }

    fn replay_item(
        &mut self,
        rec: &mut Recorder,
        parent: usize,
        item: &Instance,
        algo: Option<Algorithm>,
        exchange: &Exchange,
        sample: &mut Sample,
    ) -> Result<(), String> {
        let digest = rec.time("service.digest", parent, || instance_digest(item, algo));
        let seed = item_seed(self.config.master_seed, digest);
        let mut ctx =
            SolveContext::seeded(seed).with_workspace(std::mem::take(&mut self.workspace));
        let solved = rec.time("solve", parent, || match algo {
            Some(algo) => algo.solve(item, &mut ctx),
            None => PortfolioSolver {
                portfolio: &DEFAULT_PORTFOLIO,
                restarts: 0,
                jobs: 1,
                master_seed: Some(seed),
            }
            .solve(item, &mut ctx),
        });
        let stats = ctx.stats().clone();
        self.workspace = ctx.into_workspace();
        let solution = solved.map_err(|e| format!("replayed solve failed: {e}"))?;
        let id = sample.request;
        let replayed = format_batch_response(&BatchResponse {
            id,
            items: vec![ItemOutcome::Solved {
                plan: solution.plan.clone(),
                timed_out: solution.timed_out,
                cancelled: solution.cancelled,
            }],
        });
        if replayed != exchange.reply {
            return Err(format!(
                "Solver::solve replay {replayed:?} differs from the wire reply {:?}",
                exchange.reply
            ));
        }
        let partition = solution.plan.partition();
        let lower_bound = |rec: &mut Recorder, g: &Graph, k: usize| {
            let lb = rec.time("bounds.lower_bound", parent, || bounds::lower_bound(g, k));
            if lb as u64 == stats.lower_bound {
                Ok(())
            } else {
                Err(format!("lower_bound {lb} != solve's {}", stats.lower_bound))
            }
        };
        match item {
            Instance::Ring { demands, k } => {
                let Some(Algorithm::SpanTEulerRefined(strategy)) = algo else {
                    return Err("ring replay covers algo=spant-refined only".into());
                };
                let g = demands.to_traffic_graph();
                lower_bound(rec, &g, *k)?;
                let (refined, swaps) = self.construct_refine(rec, parent, &g, *k, strategy, seed);
                if Some(refined.parts()) != partition.map(EdgePartition::parts) {
                    return Err("construct + refine replay differs from the solve".into());
                }
                if swaps != stats.swaps_evaluated {
                    return Err(format!(
                        "refine swaps {swaps} != solve's {}",
                        stats.swaps_evaluated
                    ));
                }
                sample.swaps_evaluated += swaps;
            }
            Instance::Mesh {
                topology,
                demands,
                k,
                routes,
            } => {
                let evaluated = rec.time("mesh.route", parent, || {
                    demands
                        .pairs()
                        .iter()
                        .map(|p| {
                            topology
                                .k_shortest_paths(p.lo(), p.hi(), (*routes).max(1))
                                .len() as u64
                        })
                        .sum::<u64>()
                });
                if evaluated != stats.routes_evaluated {
                    return Err(format!(
                        "routes {evaluated} != solve's {}",
                        stats.routes_evaluated
                    ));
                }
                sample.routes_evaluated += evaluated;
                let g = demands.to_traffic_graph();
                lower_bound(rec, &g, *k)?;
                let result = rec.time("portfolio", parent, || {
                    PortfolioEngine::new(&DEFAULT_PORTFOLIO)
                        .restarts(0)
                        .jobs(1)
                        .master_seed(seed)
                        .run_in(&g, *k, &mut self.workspace)
                });
                if result.attempts.len() as u64 != stats.attempts {
                    return Err("portfolio replay ran a different attempt set".into());
                }
                for a in &result.attempts {
                    let won = a.algorithm == result.winner && a.restart == result.winner_restart;
                    sample.attempts.push((a.algorithm, a.duration, won));
                }
                // The refining entry's two halves, replayed on their own.
                let refining = result.attempts.iter().find_map(|a| match a.algorithm {
                    Algorithm::SpanTEulerRefined(strategy) => Some((a, strategy)),
                    _ => None,
                });
                if let Some((a, strategy)) = refining {
                    let (refined, swaps) =
                        self.construct_refine(rec, parent, &g, *k, strategy, a.seed);
                    if refined.sadm_cost(&g) != a.cost || swaps != a.swaps_evaluated {
                        return Err("construct + refine replay differs from its attempt".into());
                    }
                    sample.swaps_evaluated += swaps;
                }
                // Capacity repair blocks demands, so the wire plan is held
                // to the bounds of the demands it carried.
                if let Plan::Mesh { carried, .. } = &solution.plan {
                    let plan = parse_reply(id, &exchange.reply)?;
                    let lb = bounds::lower_bound(&carried.to_traffic_graph(), *k);
                    if plan.sadms < lb || plan.wavelengths < carried.len().div_ceil(*k) {
                        return Err(format!("plan {plan:?} below its carried set's bounds"));
                    }
                }
            }
            Instance::Reconfigure {
                demands,
                prior,
                delta,
                k,
            } => {
                let (g, seed_parts, vacated, added) = warm_inputs(demands, prior, delta);
                lower_bound(rec, &g, *k)?;
                let (repaired, report) = rec.time("improve.warm_repair", parent, || {
                    improve::warm_repair(
                        &g,
                        *k,
                        &seed_parts,
                        &vacated,
                        &added,
                        None,
                        DEFAULT_REFINE_ROUNDS,
                    )
                });
                if Some(repaired.parts()) != partition.map(EdgePartition::parts)
                    || report.parts_repaired != stats.parts_repaired
                    || report.sadms_moved != stats.sadms_moved
                {
                    return Err("warm_repair replay differs from the solve".into());
                }
                sample.parts_repaired += report.parts_repaired;
                sample.sadms_moved += report.sadms_moved;
            }
            _ => return Err("no layer replay for this instance kind".into()),
        }
        Ok(())
    }

    /// `Algorithm::SpanTEuler(strategy).run_in` then `refine_with_stats`,
    /// on the RNG stream `seed` — the two halves of a `SpanT_Euler+refine`
    /// attempt.
    fn construct_refine(
        &mut self,
        rec: &mut Recorder,
        parent: usize,
        g: &Graph,
        k: usize,
        strategy: TreeStrategy,
        seed: u64,
    ) -> (EdgePartition, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stats = SolveStats::default();
        let ws = &mut self.workspace;
        let base = rec
            .time("construct.spant_euler", parent, || {
                Algorithm::SpanTEuler(strategy).run_in(
                    g,
                    k,
                    &mut rng,
                    ws,
                    &SolveConfig::default(),
                    &mut stats,
                )
            })
            .expect("SpanT_Euler accepts every traffic graph");
        rec.time("improve.refine", parent, || {
            improve::refine_with_stats(g, k, &base, DEFAULT_REFINE_ROUNDS)
        })
    }
}

/// The inputs groomd's warm start hands `improve::warm_repair`: the
/// post-delta traffic graph, the surviving placement renumbered into it,
/// the parts that lost edges, and the appended additions. Each removal
/// retires the earliest surviving occurrence of its pair.
fn warm_inputs(
    demands: &DemandSet,
    prior: &EdgePartition,
    delta: &DemandDelta,
) -> (Graph, Vec<Vec<EdgeId>>, Vec<usize>, Vec<EdgeId>) {
    let mut to_remove: HashMap<DemandPair, usize> = HashMap::new();
    for &p in &delta.removed {
        *to_remove.entry(p).or_insert(0) += 1;
    }
    let mut old_to_new = vec![None; demands.len()];
    let mut after = DemandSet::new(demands.num_nodes());
    for (i, &p) in demands.pairs().iter().enumerate() {
        if let Some(c) = to_remove.get_mut(&p).filter(|c| **c > 0) {
            *c -= 1;
            continue;
        }
        old_to_new[i] = Some(EdgeId::new(after.len()));
        after.add(p.lo(), p.hi());
    }
    let mut seed_parts = Vec::with_capacity(prior.num_wavelengths());
    let mut vacated = Vec::new();
    for part in prior.parts() {
        let mapped: Vec<EdgeId> = part.iter().filter_map(|e| old_to_new[e.index()]).collect();
        if mapped.len() < part.len() {
            vacated.push(seed_parts.len());
        }
        seed_parts.push(mapped);
    }
    let first_added = after.len();
    for &p in &delta.added {
        after.add(p.lo(), p.hi());
    }
    let added = (first_added..after.len()).map(EdgeId::new).collect();
    (after.to_traffic_graph(), seed_parts, vacated, added)
}

/// Each span's self time: its duration minus the union of its children's
/// intervals.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: HashMap<(u64, usize), Vec<(Duration, Duration)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry((s.request, p))
                .or_default()
                .push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = Duration::ZERO;
            if let Some(kids) = children.get_mut(&(s.request, s.id)) {
                kids.sort();
                let mut reach = s.start;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(s.end));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// The spans as tab-separated text: request, span, parent, name, start,
/// end and self time (µs from the trace origin).
pub fn render_spans(spans: &[Span]) -> String {
    let mut out = String::from("request\tspan\tparent\tname\tstart_us\tend_us\tself_us\n");
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{}\t{parent}\t{}\t{:.3}\t{:.3}\t{:.3}",
            s.request,
            s.id,
            s.name,
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6,
            own.as_secs_f64() * 1e6
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_us: u64, end_us: u64) -> Span {
        Span {
            request: 1,
            id,
            parent,
            name: "x",
            start: Duration::from_micros(start_us),
            end: Duration::from_micros(end_us),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 90, 120),
            span(4, Some(1), 12, 14),
        ];
        let own: Vec<u64> = self_times(&spans)
            .iter()
            .map(|d| d.as_micros() as u64)
            .collect();
        // Children cover [10, 50) and [90, 100) of the root: 50 µs.
        assert_eq!(own, vec![50, 18, 30, 30, 2]);
    }
}
