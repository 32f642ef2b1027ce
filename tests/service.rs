//! Integration tests for groomd: the determinism contract, explicit
//! backpressure, deadline behaviour, and the drain-on-shutdown guarantee.

use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use grooming::portfolio::DEFAULT_PORTFOLIO;
use grooming::solve::{Instance, PortfolioSolver, SolveContext, Solver};
use grooming_graph::generators;
use grooming_graph::ids::NodeId;
use grooming_service::{
    estimated_cost, instance_digest, item_seed, Client, ItemOutcome, Request, Service,
    ServiceConfig, SubmitError,
};
use grooming_sonet::blsr::BlsrRing;
use grooming_sonet::demand::DemandSet;
use grooming_sonet::weighted::WeightedDemandSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

// `ServiceConfig` is non_exhaustive, so outside its crate it can only be
// built by mutating the default.
#[allow(clippy::field_reassign_with_default)]
fn config(workers: usize) -> ServiceConfig {
    let mut config = ServiceConfig::default();
    config.workers = workers;
    config.master_seed = 42;
    config
}

/// A mixed workload touching every wire-representable instance kind.
fn mixed_items() -> Vec<Instance> {
    let mut rng = StdRng::seed_from_u64(7);
    let graph = generators::gnm(10, 18, &mut rng);
    let demands = DemandSet::random(9, 14, &mut rng);
    let mut weighted = WeightedDemandSet::new(6);
    weighted.add(NodeId(0), NodeId(3), 3);
    weighted.add(NodeId(1), NodeId(4), 2);
    weighted.add(NodeId(2), NodeId(5), 1);
    vec![
        Instance::upsr(graph.clone(), 4),
        Instance::ring(demands.clone(), 3),
        Instance::budgeted(graph, 4, 6),
        Instance::weighted(weighted, 4),
        Instance::blsr(BlsrRing::new(9), demands, 3),
    ]
}

#[test]
fn transcripts_are_byte_identical_across_worker_counts() {
    let mut transcripts = Vec::new();
    for workers in [1, 4] {
        let service = Service::start(config(workers));
        let mut client = Client::new(&service);
        let transcript = client
            .solve_transcript(mixed_items(), Default::default())
            .unwrap();
        service.shutdown();
        transcripts.push(transcript);
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "worker count leaked into the response transcript"
    );
    // And the transcript is a real, fully-solved one, not a pile of
    // coincidentally-equal errors.
    assert!(transcripts[0].starts_with("RESULT 1 count=5\nPLAN 0 sadms="));
    assert!(!transcripts[0].contains("ERROR"));
    assert!(transcripts[0].ends_with("END\n"));
}

/// A reconfigure workload: cold-solve a snapshot once, then warm-start it
/// with a small add/remove delta.
fn reconfigure_items() -> Vec<Instance> {
    use grooming::algorithm::Algorithm;
    use grooming::solve::DemandDelta;
    use grooming_graph::spanning::TreeStrategy;
    use grooming_sonet::demand::DemandPair;

    let mut rng = StdRng::seed_from_u64(11);
    let demands = DemandSet::random(12, 24, &mut rng);
    let prior = Algorithm::SpanTEulerRefined(TreeStrategy::Bfs)
        .solve(
            &Instance::ring(demands.clone(), 4),
            &mut SolveContext::seeded(5),
        )
        .unwrap()
        .plan
        .partition()
        .expect("ring plan")
        .clone();
    let delta = DemandDelta::new(
        vec![
            DemandPair::new(NodeId(0), NodeId(7)),
            DemandPair::new(NodeId(3), NodeId(9)),
        ],
        vec![demands.pairs()[0], demands.pairs()[5]],
    );
    vec![
        Instance::reconfigure(demands.clone(), prior.clone(), delta, 4),
        // An empty delta rides along: its plan must echo the prior.
        Instance::reconfigure(demands, prior, DemandDelta::default(), 4),
    ]
}

/// RECONFIGURE solves are deterministic-given-input like BATCH: warm
/// repair never consults the solver's RNG, so transcripts cannot depend
/// on the worker count.
#[test]
fn reconfigure_transcripts_are_byte_identical_across_worker_counts() {
    let mut transcripts = Vec::new();
    for workers in [1, 4] {
        let service = Service::start(config(workers));
        let mut client = Client::new(&service);
        let transcript = client
            .solve_transcript(reconfigure_items(), Default::default())
            .unwrap();
        service.shutdown();
        transcripts.push(transcript);
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "worker count leaked into the reconfigure transcript"
    );
    assert!(transcripts[0].starts_with("RESULT 1 count=2\nPLAN 0 sadms="));
    assert!(!transcripts[0].contains("ERROR"));
    assert!(transcripts[0].ends_with("END\n"));
}

#[test]
fn overload_is_rejected_with_observed_depth() {
    let service = Service::start({
        let mut c = config(1);
        c.queue_capacity = 4;
        c
    });
    // Hold the worker off the queue so the admission arithmetic is exact.
    service.pause();
    let small = || vec![Instance::ring(DemandSet::all_to_all(5), 3); 3];
    let ticket = service.submit(Request::batch(1, small())).unwrap();
    // 3 of 4 slots taken: another 3-item batch cannot fit — all or
    // nothing, with the observed depth in the refusal.
    match service.submit(Request::batch(2, small())) {
        Err(SubmitError::QueueFull { queue_depth, .. }) => assert_eq!(queue_depth, 3),
        other => panic!("expected QueueFull, got {:?}", other.map(|t| t.id())),
    }
    // A single item still fits; the queue is then exactly full.
    let one = service
        .submit(Request::batch(
            3,
            vec![Instance::ring(DemandSet::all_to_all(4), 3)],
        ))
        .unwrap();
    match service.submit(Request::batch(
        4,
        vec![Instance::ring(DemandSet::all_to_all(4), 3)],
    )) {
        Err(SubmitError::QueueFull { queue_depth, .. }) => assert_eq!(queue_depth, 4),
        other => panic!("expected QueueFull, got {:?}", other.map(|t| t.id())),
    }
    service.resume();
    assert_eq!(ticket.wait().items.len(), 3);
    assert_eq!(one.wait().items.len(), 1);
    let stats = service.shutdown();
    assert_eq!(stats.counters.accepted_requests, 2);
    assert_eq!(stats.counters.rejected_requests, 2);
    assert_eq!(stats.counters.completed_items, 4);
    // Post-shutdown submissions are refused, not dropped.
    match service.submit(Request::batch(5, vec![])) {
        Err(SubmitError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {:?}", other.map(|t| t.id())),
    }
}

#[test]
fn zero_deadline_returns_a_valid_best_so_far_plan() {
    let service = Service::start(config(1));
    let response = service
        .submit(Request {
            id: 1,
            items: vec![Instance::ring(
                DemandSet::random(10, 20, &mut StdRng::seed_from_u64(3)),
                4,
            )],
            deadline: Some(Duration::ZERO),
            algo: None,
        })
        .unwrap()
        .wait();
    let ItemOutcome::Solved {
        plan, timed_out, ..
    } = &response.items[0]
    else {
        panic!("expected a solved item, got {:?}", response.items[0]);
    };
    assert!(timed_out, "an already-expired deadline must be reported");
    // Best-so-far, but still a complete valid plan.
    assert!(plan.sadm_cost() > 0);
    assert!(plan.wavelengths() > 0);
    let stats = service.shutdown();
    assert_eq!(stats.counters.timed_out_items, 1);
}

#[test]
fn shutdown_under_load_drains_every_accepted_request_exactly_once() {
    let service = Service::start({
        let mut c = config(2);
        c.queue_capacity = 64;
        c
    });
    // Queue a pile of batches while the workers are held off, so shutdown
    // begins with everything still pending.
    service.pause();
    let mut tickets = Vec::new();
    for id in 1..=5 {
        let items = vec![Instance::ring(DemandSet::all_to_all(6), 3); 3];
        tickets.push(service.submit(Request::batch(id, items)).unwrap());
    }
    // Waiters on their own threads: every one must resolve.
    let resolved = Arc::new(Mutex::new(Vec::new()));
    let waiters: Vec<_> = tickets
        .into_iter()
        .map(|t| {
            let resolved = Arc::clone(&resolved);
            thread::spawn(move || {
                let response = t.wait();
                resolved
                    .lock()
                    .unwrap()
                    .push((response.id, response.items.len()));
            })
        })
        .collect();
    // Shutdown overrides the pause: the queue drains, nothing is dropped.
    let stats = service.shutdown();
    for w in waiters {
        w.join().unwrap();
    }
    let mut got = resolved.lock().unwrap().clone();
    got.sort_unstable();
    assert_eq!(got, vec![(1, 3), (2, 3), (3, 3), (4, 3), (5, 3)]);
    assert_eq!(stats.counters.accepted_items, 15);
    assert_eq!(stats.counters.completed_items, 15);
    assert_eq!(stats.queue_depth, 0);
}

#[test]
fn service_solve_stats_equal_the_sum_of_solo_solves() {
    // The service's merged instrumentation must equal re-solving each item
    // by hand with the same derived seed — merge() loses nothing, and the
    // derivation is a pure function of (master, instance content).
    let master = 42;
    let request_id = 1;
    let items = mixed_items();
    let mut expected_attempts = 0u64;
    let mut expected_swaps = 0u64;
    for instance in items.iter() {
        let seed = item_seed(master, instance_digest(instance, None));
        let mut ctx = SolveContext::seeded(seed);
        // Exactly the solver the service runs for algo-less requests.
        PortfolioSolver {
            portfolio: &DEFAULT_PORTFOLIO,
            restarts: 0,
            jobs: 1,
            master_seed: Some(seed),
        }
        .solve(instance, &mut ctx)
        .unwrap();
        expected_attempts += ctx.stats().attempts;
        expected_swaps += ctx.stats().swaps_evaluated;
    }

    let service = Service::start(config(3));
    service
        .submit(Request::batch(request_id, items))
        .unwrap()
        .wait();
    let stats = service.shutdown();
    assert_eq!(stats.solve.attempts, expected_attempts);
    assert_eq!(stats.solve.swaps_evaluated, expected_swaps);
}

/// Every [`grooming_service::StatsSnapshot`] taken under full concurrent
/// load must balance: `accepted_items == completed_items + queue_depth +
/// in_flight`. The old implementation assembled snapshots from three
/// separately-locked pieces and could observe an item in none (or two) of
/// the three buckets.
#[test]
fn snapshots_balance_under_concurrent_load() {
    let service = Service::start({
        let mut c = config(3);
        c.queue_capacity = 512;
        c.cache_capacity = 0; // every item really solves
        c
    });
    let submitter = {
        let service = service.clone();
        thread::spawn(move || {
            let mut waiters = Vec::new();
            for id in 1..=20 {
                let items = vec![Instance::ring(DemandSet::all_to_all(7), 3); 4];
                waiters.push(service.submit(Request::batch(id, items)).unwrap());
            }
            for w in waiters {
                w.wait();
            }
        })
    };
    // Hammer snapshots the whole time work is admitted and completed.
    while !submitter.is_finished() {
        let s = service.stats();
        assert_eq!(
            s.counters.accepted_items,
            s.counters.completed_items + s.queue_depth as u64 + s.in_flight,
            "snapshot books must balance at every instant: {s:?}"
        );
    }
    submitter.join().unwrap();
    let s = service.shutdown();
    assert_eq!(s.counters.accepted_items, 80);
    assert_eq!(s.counters.completed_items, 80);
    assert_eq!(s.in_flight, 0);
    assert_eq!(s.queue_depth, 0);
    // Latency ledgers saw every item exactly once.
    assert_eq!(s.queue_wait.count(), 80);
    assert_eq!(s.solve_time.count(), 80);
}

/// Under saturation the shed policy refuses deadline-unmeetable work with
/// numbers that are a pure function of the queue contents — byte-stable
/// rejections, and exactly-once completion for everything admitted.
#[test]
fn saturation_sheds_deadline_unmeetable_work_deterministically() {
    let item = || Instance::ring(DemandSet::all_to_all(8), 4);
    let cost = estimated_cost(&item());
    let service = Service::start({
        let mut c = config(2);
        c.queue_work_capacity = cost * 4;
        c.shed_watermark = cost; // saturated after one queued item
        c.shed_cost_per_ms = 1; // 1 work unit per ms: wait == queued cost
        c
    });
    service.pause();
    let admitted = service
        .submit(Request::batch(1, vec![item(), item()]))
        .unwrap();
    // Saturated (2·cost ≥ watermark): a deadline shorter than the
    // estimated wait is shed, with the exact arithmetic in the refusal.
    let doomed = Request {
        id: 2,
        items: vec![item()],
        deadline: Some(Duration::from_millis(1)),
        algo: None,
    };
    match service.submit(doomed) {
        Err(SubmitError::Shed {
            estimated_wait_ms,
            deadline_ms,
        }) => {
            assert_eq!(estimated_wait_ms, 2 * cost);
            assert_eq!(deadline_ms, 1);
        }
        other => panic!("expected Shed, got {:?}", other.map(|t| t.id())),
    }
    // A deadline that survives the estimated wait is admitted even under
    // saturation — shedding is deadline-aware, not a hard gate …
    let patient = service
        .submit(Request {
            id: 3,
            items: vec![item()],
            deadline: Some(Duration::from_secs(3600)),
            algo: None,
        })
        .unwrap();
    // … and so is work with no deadline at all.
    let undated = service.submit(Request::batch(4, vec![item()])).unwrap();
    service.resume();
    assert_eq!(admitted.wait().items.len(), 2);
    assert_eq!(patient.wait().items.len(), 1);
    assert_eq!(undated.wait().items.len(), 1);
    let stats = service.shutdown();
    assert_eq!(stats.counters.accepted_requests, 3);
    assert_eq!(stats.counters.rejected_requests, 1);
    assert_eq!(stats.counters.shed_requests, 1);
    assert_eq!(stats.counters.completed_items, 4);
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[test]
fn a_huge_sparse_ring_item_is_solved_in_linear_memory() {
    // 200,000 nodes and four demands (a triangle and a pendant edge) pass
    // admission. The default portfolio runs DenseFirst on it, whose
    // residual must stay O(n + m): an n × n bitset would need ~5 GB here.
    use grooming::solve::Plan;
    let n = 200_000;
    let demands = DemandSet::from_pairs(
        n,
        &[
            (3, 150_000),
            (150_000, 199_999),
            (199_999, 3),
            (199_999, 42),
        ],
    );
    let k = 4;
    let service = Service::start(config(1));
    let mut client = Client::new(&service);
    let response = client
        .solve_batch(vec![Instance::ring(demands.clone(), k)], Default::default())
        .unwrap();
    service.shutdown();
    let ItemOutcome::Solved { plan, .. } = &response.items[0] else {
        panic!("expected a solved item, got {:?}", response.items[0]);
    };
    let Plan::Ring { outcome } = plan else {
        panic!("expected a ring plan, got {plan:?}");
    };
    outcome
        .partition
        .validate(&demands.to_traffic_graph(), k)
        .unwrap();
    let peak = peak_rss_mib();
    eprintln!("peak RSS with a 200,000-node ring item: {peak:.1} MiB");
    assert!(peak < 1024.0, "peak RSS {peak:.1} MiB");
}
