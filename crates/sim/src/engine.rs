//! The simulation engine: the event loop driving warm-start solves.
//!
//! Every arrival and departure epoch goes through
//! [`grooming::solve::Instance::Reconfigure`] — the warm-start path — so
//! the simulator measures exactly what an operator's control loop would
//! pay: blocking probability at the admission limits, SADM churn under a
//! [`rearrange_budget`](grooming::solve::SolveConfig::rearrange_budget),
//! and per-epoch solve latency. Cold solves are deliberately absent
//! (enforced by a CI guard): the network starts empty and every state is
//! reached by repairing the previous one.
//!
//! # Determinism
//!
//! The engine's observable outputs — the event [`trace`](SimOutcome::trace),
//! the [`SimReport`], and the recorded epoch instances — are pure
//! functions of `(scenario, master_seed)`:
//!
//! * event order is the `(time, sequence)` total order of
//!   [`crate::event::EventQueue`], with sequence keys derived from stream
//!   identity (registration order is unobservable);
//! * every random draw comes from a per-stream RNG seeded by
//!   [`crate::rng::stream_seed`], and each stream's draws happen in a
//!   fixed per-stream order (an arrival's holding time is drawn when the
//!   arrival is *scheduled*, so admission outcomes never shift a stream's
//!   consumption);
//! * warm repair is deterministic and solver-independent, so the
//!   solver's seed cannot leak into the trace;
//! * wall-clock latencies are recorded only in
//!   [`SimOutcome::latency`], never in the trace or report.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use grooming::partition::EdgePartition;
use grooming::portfolio::DEFAULT_PORTFOLIO;
use grooming::solve::{
    DemandDelta, Instance, Plan, PortfolioSolver, SolveConfig, SolveContext, Solver,
};
use grooming_graph::EdgeId;
use grooming_service::Histogram;
use grooming_sonet::demand::{DemandPair, DemandSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::event::{Event, EventKind, EventQueue, EventSeq};
use crate::report::SimReport;
use crate::rng::stream_seed;
use crate::scenario::{Scenario, TopologyFamily};

/// One event as the engine resolved it — the structured form of a trace
/// line, for callers (like `examples/dynamic_provisioning.rs`) that want
/// to replay the admitted sequence through another provisioning policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppliedEvent {
    /// An arrival was admitted and provisioned.
    Admitted {
        /// Virtual time.
        time: u64,
        /// The provisioned pair.
        pair: DemandPair,
        /// Its holding time in ticks.
        holding: u64,
    },
    /// An arrival was blocked (no state change).
    Blocked {
        /// Virtual time.
        time: u64,
        /// The refused pair.
        pair: DemandPair,
    },
    /// An admitted connection departed.
    Departed {
        /// Virtual time.
        time: u64,
        /// The withdrawn pair.
        pair: DemandPair,
    },
}

/// Everything one simulation run produces.
pub struct SimOutcome {
    /// The summary statistics (deterministic; see [`SimReport`]).
    pub report: SimReport,
    /// The event trace: one line per processed event, byte-identical
    /// across runs of the same `(scenario, master_seed)`.
    pub trace: String,
    /// The resolved event sequence in processing order.
    pub applied: Vec<AppliedEvent>,
    /// Wall-clock latency of each warm-start solve (observational only —
    /// deliberately outside the trace and report).
    pub latency: Histogram,
    /// When recording was requested: the exact [`Instance::Reconfigure`]
    /// sequence the engine solved, for TCP soak replay
    /// ([`crate::soak`]). Empty otherwise.
    pub epochs: Vec<Instance>,
}

/// Runs `scenario` with streams registered in canonical order.
pub fn run(scenario: &Scenario) -> SimOutcome {
    run_with_streams(scenario, &scenario.stream_ids(), false)
}

/// Runs `scenario` and records every solved epoch instance for replay.
pub fn run_recording(scenario: &Scenario) -> SimOutcome {
    run_with_streams(scenario, &scenario.stream_ids(), true)
}

/// Runs `scenario` with demand streams registered in the given order.
///
/// The registration order MUST be unobservable: any permutation of the
/// same id set yields a byte-identical trace and report (property-tested
/// in `tests/determinism.rs`).
///
/// # Panics
/// Panics if `streams` contains duplicate ids, or if a warm-start solve
/// fails (the engine only builds deltas the solver accepts).
pub fn run_with_streams(scenario: &Scenario, streams: &[u64], record: bool) -> SimOutcome {
    let n = scenario.family.num_nodes();
    let topology = match scenario.family {
        TopologyFamily::Mesh { .. } => Some(scenario.family.build()),
        TopologyFamily::Ring { .. } => None,
    };

    // Per-stream RNGs, keyed by stable identity (not registration slot).
    let mut rngs: HashMap<u64, StdRng> = HashMap::with_capacity(streams.len());
    let mut queue = EventQueue::new();
    for &sid in streams {
        let mut rng = StdRng::seed_from_u64(stream_seed(scenario.master_seed, sid));
        let first = exp_ticks(&mut rng, scenario.mean_interarrival).max(1);
        if first < scenario.horizon {
            let pair = draw_pair(&mut rng, n);
            let holding = exp_ticks(&mut rng, scenario.mean_holding);
            queue.push(Event {
                time: first,
                seq: EventSeq {
                    stream: sid,
                    index: 0,
                    departure: false,
                },
                kind: EventKind::Arrival { pair, holding },
            });
        }
        let clash = rngs.insert(sid, rng);
        assert!(clash.is_none(), "duplicate stream id {sid}");
    }

    // The solve context persists across epochs: the workspace amortizes,
    // and the rearrange budget rides in via the config. Warm repair
    // consumes no solver RNG, so the seed cannot reach the trace.
    // `SolveConfig` is non_exhaustive: built by mutating the default.
    #[allow(clippy::field_reassign_with_default)]
    let config = {
        let mut config = SolveConfig::default();
        config.rearrange_budget = scenario.rearrange_budget;
        config
    };
    let mut ctx =
        SolveContext::seeded(stream_seed(scenario.master_seed, u64::MAX)).with_config(config);
    let solver = PortfolioSolver {
        portfolio: &DEFAULT_PORTFOLIO,
        restarts: 0,
        jobs: 1,
        master_seed: Some(scenario.master_seed),
    };

    // Provisioned state: the demand snapshot and its partition, plus the
    // route each admitted connection holds (mesh link accounting).
    let mut demands = DemandSet::new(n);
    let mut prior = EdgePartition::new(Vec::new());
    let mut link_load: Vec<u32> = topology
        .as_ref()
        .map(|t| vec![0; t.num_links()])
        .unwrap_or_default();
    let mut routes: HashMap<(u64, u64), Vec<EdgeId>> = HashMap::new();

    let mut trace = String::new();
    let mut applied = Vec::new();
    let mut epochs = Vec::new();
    let mut latency = Histogram::default();
    let mut report = SimReport {
        family: scenario.family.name(),
        nodes: n,
        k: scenario.k,
        rearrange_budget: scenario.rearrange_budget,
        offered: 0,
        admitted: 0,
        blocked: 0,
        blocked_links: 0,
        blocking_probability: 0.0,
        offered_erlangs: scenario.offered_erlangs(),
        carried_erlangs: 0.0,
        epochs: 0,
        sadms_moved: 0,
        parts_repaired: 0,
        final_wavelengths: 0,
        final_sadms: 0,
        final_active: 0,
        peak_active: 0,
        end_time: 0,
    };

    // Carried-load integral: active connections × elapsed virtual time.
    let mut active: usize = 0;
    let mut last_time: u64 = 0;
    let mut active_ticks: u128 = 0;

    while let Some(event) = queue.pop() {
        active_ticks += active as u128 * u128::from(event.time - last_time);
        last_time = event.time;
        match event.kind {
            EventKind::Arrival { pair, holding } => {
                // Draw this stream's next arrival *first*, so the
                // stream's RNG consumption is independent of how the
                // present arrival fares at admission.
                let rng = rngs
                    .get_mut(&event.seq.stream)
                    .expect("every scheduled event belongs to a registered stream");
                let gap = exp_ticks(rng, scenario.mean_interarrival).max(1);
                let next_time = event.time.saturating_add(gap);
                if next_time < scenario.horizon {
                    let next_pair = draw_pair(rng, n);
                    let next_holding = exp_ticks(rng, scenario.mean_holding);
                    queue.push(Event {
                        time: next_time,
                        seq: EventSeq {
                            stream: event.seq.stream,
                            index: event.seq.index + 1,
                            departure: false,
                        },
                        kind: EventKind::Arrival {
                            pair: next_pair,
                            holding: next_holding,
                        },
                    });
                }

                report.offered += 1;
                let head = format!(
                    "t={} s={}#{} arrive {}-{} hold={holding}",
                    event.time,
                    event.seq.stream,
                    event.seq.index,
                    pair.lo().index(),
                    pair.hi().index()
                );

                // Mesh link admission: the shortest-path route must have
                // spare lightpath capacity on every link.
                let route = topology.as_ref().map(|t| {
                    t.shortest_path(pair.lo(), pair.hi())
                        .expect("grid topologies are connected")
                        .links
                });
                if let (Some(route), Some(cap)) = (&route, scenario.link_capacity) {
                    if route.iter().any(|&e| link_load[e.index()] >= cap) {
                        report.blocked += 1;
                        report.blocked_links += 1;
                        let _ = writeln!(trace, "{head} -> blocked links");
                        applied.push(AppliedEvent::Blocked {
                            time: event.time,
                            pair,
                        });
                        continue;
                    }
                }

                // The warm-start epoch: repair the prior plan around the
                // added pair.
                let instance = Instance::reconfigure(
                    demands.clone(),
                    prior.clone(),
                    DemandDelta::new(vec![pair], Vec::new()),
                    scenario.k,
                );
                let (outcome, parts_repaired, sadms_moved) =
                    solve_epoch(&solver, &instance, &mut ctx, &mut latency);
                report.epochs += 1;
                if record {
                    epochs.push(instance);
                }
                let w = outcome.partition.num_wavelengths();
                if w > scenario.max_wavelengths {
                    // Wavelength-budget blocking: discard the repaired
                    // plan, keep the prior state.
                    report.blocked += 1;
                    let _ = writeln!(trace, "{head} -> blocked wavelengths (needed W={w})");
                    applied.push(AppliedEvent::Blocked {
                        time: event.time,
                        pair,
                    });
                    continue;
                }

                // Commit. An add-only delta appends the pair, so the new
                // snapshot is the old one plus `pair` at the end — the
                // same numbering `solve_reconfigure` produced.
                demands.add(pair.lo(), pair.hi());
                debug_assert_eq!(demands.len(), outcome.partition.num_edges());
                report.admitted += 1;
                report.sadms_moved += sadms_moved;
                report.parts_repaired += parts_repaired;
                let sadms = outcome.report.sadm_total;
                prior = outcome.partition;
                active += 1;
                report.peak_active = report.peak_active.max(active);
                if let Some(route) = route {
                    for &e in &route {
                        link_load[e.index()] += 1;
                    }
                    routes.insert((event.seq.stream, event.seq.index), route);
                }
                queue.push(Event {
                    time: event.time.saturating_add(holding),
                    seq: EventSeq {
                        departure: true,
                        ..event.seq
                    },
                    kind: EventKind::Departure { pair },
                });
                let _ = writeln!(
                    trace,
                    "{head} -> carried W={w} sadms={sadms} moved={sadms_moved} \
                     repaired={parts_repaired}"
                );
                applied.push(AppliedEvent::Admitted {
                    time: event.time,
                    pair,
                    holding,
                });
            }
            EventKind::Departure { pair } => {
                let delta = DemandDelta::new(Vec::new(), vec![pair]);
                let (next, _) = delta
                    .apply(&demands)
                    .expect("departure for a pair that is not provisioned");
                let instance = Instance::reconfigure(
                    std::mem::replace(&mut demands, next),
                    prior.clone(),
                    delta,
                    scenario.k,
                );
                let (outcome, parts_repaired, sadms_moved) =
                    solve_epoch(&solver, &instance, &mut ctx, &mut latency);
                report.epochs += 1;
                if record {
                    epochs.push(instance);
                }
                debug_assert_eq!(demands.len(), outcome.partition.num_edges());
                report.sadms_moved += sadms_moved;
                report.parts_repaired += parts_repaired;
                let w = outcome.partition.num_wavelengths();
                let sadms = outcome.report.sadm_total;
                prior = outcome.partition;
                active -= 1;
                if let Some(route) = routes.remove(&(event.seq.stream, event.seq.index)) {
                    for &e in &route {
                        link_load[e.index()] -= 1;
                    }
                }
                let _ = writeln!(
                    trace,
                    "t={} s={}#{} depart {}-{} -> W={w} sadms={sadms} moved={sadms_moved} \
                     repaired={parts_repaired}",
                    event.time,
                    event.seq.stream,
                    event.seq.index,
                    pair.lo().index(),
                    pair.hi().index()
                );
                applied.push(AppliedEvent::Departed {
                    time: event.time,
                    pair,
                });
            }
        }
    }

    report.end_time = last_time;
    report.blocking_probability = if report.offered > 0 {
        report.blocked as f64 / report.offered as f64
    } else {
        0.0
    };
    let span = last_time.max(scenario.horizon).max(1);
    report.carried_erlangs = active_ticks as f64 / span as f64;
    report.final_wavelengths = prior.num_wavelengths();
    report.final_sadms = prior.sadm_cost(&demands.to_traffic_graph());
    report.final_active = active;

    SimOutcome {
        report,
        trace,
        applied,
        latency,
        epochs,
    }
}

/// Solves one reconfigure epoch, recording wall-clock latency, and
/// unwraps the reconfigure plan arm.
fn solve_epoch(
    solver: &PortfolioSolver<'_>,
    instance: &Instance,
    ctx: &mut SolveContext,
    latency: &mut Histogram,
) -> (grooming::pipeline::GroomingOutcome, u64, u64) {
    let started = Instant::now();
    let solution = solver
        .solve(instance, ctx)
        .expect("the engine only builds deltas warm repair accepts");
    latency.record(started.elapsed());
    match solution.plan {
        Plan::Reconfigure {
            outcome,
            parts_repaired,
            sadms_moved,
        } => (outcome, parts_repaired, sadms_moved),
        _ => unreachable!("reconfigure instances yield reconfigure plans"),
    }
}

/// An exponential holding/interarrival draw with the given mean,
/// quantized to whole ticks. Zero is a legal outcome (and certain when
/// `mean <= 0`): a connection may arrive and instantly depart.
fn exp_ticks<R: Rng>(rng: &mut R, mean: f64) -> u64 {
    // One uniform is always consumed, so a stream's draw schedule is a
    // pure function of its seed regardless of the mean.
    let u: f64 = rng.gen_range(0.0..1.0);
    if mean <= 0.0 {
        return 0;
    }
    // 1 - u ∈ (0, 1]: ln is finite, the draw is bounded below by 0.
    (-mean * (1.0 - u).ln()).round() as u64
}

/// A uniform random demand pair over `n` nodes (rejection-samples the
/// diagonal).
fn draw_pair<R: Rng>(rng: &mut R, n: usize) -> DemandPair {
    loop {
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        if a != b {
            return DemandPair::new(grooming_graph::NodeId(a), grooming_graph::NodeId(b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_scenario_same_seed_is_byte_identical() {
        let scenario = Scenario::ring(8, 4);
        let a = run(&scenario);
        let b = run(&scenario);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.report, b.report);
        assert_eq!(a.report.render(), b.report.render());
    }

    #[test]
    fn books_balance() {
        let scenario = Scenario::ring(8, 4);
        let out = run(&scenario);
        let r = &out.report;
        assert_eq!(r.offered, r.admitted + r.blocked);
        // Every admitted connection departs before the queue drains.
        assert_eq!(r.final_active, 0);
        // Epochs: one per admitted arrival, one per departure, one per
        // wavelength-blocked arrival (link-blocked ones never solve).
        assert_eq!(r.epochs, 2 * r.admitted + (r.blocked - r.blocked_links));
        assert!(r.carried_erlangs <= r.offered_erlangs + 1e-9);
        assert_eq!(out.applied.len() as u64, r.offered + r.admitted);
    }

    #[test]
    fn tight_wavelength_budget_blocks() {
        let mut scenario = Scenario::ring(8, 4).with_offered_erlangs(24.0);
        scenario.max_wavelengths = 1;
        let out = run(&scenario);
        assert!(out.report.blocked > 0, "W=1 must block under 24 Erlangs");
        assert!(out.report.final_wavelengths <= 1);
    }

    #[test]
    fn mesh_link_capacity_blocks_before_the_solver() {
        let mut scenario = Scenario::mesh(3, 4).with_offered_erlangs(30.0);
        scenario.link_capacity = Some(1);
        scenario.max_wavelengths = usize::MAX;
        let out = run(&scenario);
        assert!(out.report.blocked_links > 0);
        assert_eq!(out.report.blocked, out.report.blocked_links);
    }

    #[test]
    fn recording_captures_every_epoch() {
        let scenario = Scenario::ring(6, 3);
        let out = run_recording(&scenario);
        assert_eq!(out.epochs.len() as u64, out.report.epochs);
        assert!(out
            .epochs
            .iter()
            .all(|i| matches!(i, Instance::Reconfigure { .. })));
    }
}
