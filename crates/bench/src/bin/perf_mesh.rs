//! Mesh grooming baseline: iterative loading to the blocking point.
//!
//! Drives the routed mesh workload the way SONET planning studies load a
//! network: a fixed metro-grid topology with finite add/drop ports and
//! switching capacity per node is offered an increasing number of random
//! demands until the capacity-repair pass starts blocking at least
//! [`BLOCKING_TARGET`] of them. The load level that first crosses the
//! target is the *blocking point* — the headline capacity number of the
//! topology under this grooming policy.
//!
//! Every level is solved twice: cold, on a fresh workspace whose route
//! table is empty, and warm, on one workspace threaded through all the
//! levels the way a groomd worker keeps its own. The two plans must be
//! byte-identical; the run records both times and the warm solve's route
//! table hits.
//!
//! On top of the loading curve the run measures sustained mesh solve
//! throughput through the service (cache disabled, so every item pays for
//! routing + grooming + capacity repair) as the median of
//! [`THROUGHPUT_REPEATS`] timed phases, and asserts the determinism
//! contract end to end: the same batch of mesh items produces
//! byte-identical response transcripts on a 1-worker and a 4-worker
//! service. At the fast tier the curve's total route table hits must not
//! fall below [`FAST_ROUTE_TABLE_HITS`], and its total routes evaluated
//! must not rise above [`FAST_ROUTES_EVALUATED`]: deterministic counts
//! beside the noisy cold/warm ratio.
//!
//! Usage: `perf_mesh [--fast] [--out PATH]`

use std::time::Instant;

use grooming::algorithm::Algorithm;
use grooming::solve::{Instance, Plan, SolveContext, Solver};
use grooming_bench::fields;
use grooming_bench::harness::{fixed, Bound, Harness, Json};
use grooming_bench::ms;
use grooming_graph::generators;
use grooming_graph::spanning::TreeStrategy;
use grooming_graph::topology::{NodeCaps, Topology};
use grooming_graph::workspace::Workspace;
use grooming_service::{Client, RequestOptions, Service, ServiceConfig};
use grooming_sonet::demand::DemandSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The blocking rate that defines the blocking point.
const BLOCKING_TARGET: f64 = 0.01;

/// The least aggregate cold/warm solve-time ratio the fast tier accepts
/// over its loading curve. It measured 2.47–2.57× in five runs on a
/// shared 2-vCPU host; the floor sits under half the lowest, so a route
/// table that stops hitting (a ratio near 1×) trips it and a noisy host
/// does not. The full tier's curve repeats far fewer pairs (1.5×
/// measured), so it records its ratio without a floor.
const FAST_COLD_OVER_WARM_FLOOR: f64 = 1.2;

/// How many times the throughput phase runs, each on a fresh service. One
/// ~0.4 s phase on a shared 2-vCPU host read either 55–60 or 100–135
/// solves/s, so the run records the median with the lowest and highest.
const THROUGHPUT_REPEATS: usize = 5;

/// The fast tier's floor on route table hits summed over its loading
/// curve. Route choice is deterministic: two `perf_mesh --fast` runs of
/// the release build at commit f66c3d0 read exactly 1,457 (per level 0, 7,
/// 28, 66, 97, 147, 218, 253, 308, 333) both times. A table that stops
/// hitting drops the count and trips the gate, as it would the timing
/// floor above, without the host's noise.
const FAST_ROUTE_TABLE_HITS: u64 = 1_457;

/// The fast tier's ceiling on candidate routes evaluated (the warm
/// context's `SolveStats::routes_evaluated`) summed over its loading
/// curve. Like the table hits it is deterministic: two `perf_mesh --fast`
/// runs of the release build at commit f39ea72, with only this count's
/// recording added, read exactly 6,240 (per level 192, 288, 384, …,
/// 1,056) both times: three candidate routes per demand at every level
/// (`routes = 3`). Routing that starts trying more candidates per demand
/// raises the count and trips the gate.
const FAST_ROUTES_EVALUATED: u64 = 6_240;

/// Per-tier parameters of the metro mesh, its loading curve and the
/// throughput batches.
struct Params {
    /// Grid side length; the topology is a `side × side` metro mesh.
    side: usize,
    k: usize,
    routes: usize,
    /// Per-node add/drop port budget.
    ports: u32,
    /// Per-node transit (switching) budget.
    switch: u32,
    base_load: usize,
    load_step: usize,
    /// Items per throughput batch.
    batch_items: usize,
}

const FAST: Params = Params {
    side: 6,
    k: 8,
    routes: 3,
    ports: 10,
    switch: 40,
    base_load: 64,
    load_step: 32,
    batch_items: 8,
};

const FULL: Params = Params {
    side: 10,
    k: 16,
    routes: 4,
    ports: 12,
    switch: 48,
    base_load: 256,
    load_step: 128,
    batch_items: 16,
};

/// The pinned metro mesh: a grid with uniform finite node capacities.
fn metro_topology(p: &Params) -> Topology {
    let graph = generators::grid(p.side, p.side);
    let n = graph.num_nodes();
    let m = graph.num_edges();
    let caps = vec![NodeCaps::new(p.ports, p.switch); n];
    Topology::new(graph, vec![1; m], caps)
}

fn main() {
    let h = Harness::from_env("perf_mesh", "results/BENCH_mesh.json", false);
    let p = if h.fast() { &FAST } else { &FULL };
    let topology = metro_topology(p);
    let n = topology.num_nodes();
    let (k, routes) = (p.k, p.routes);
    let algo = Algorithm::SpanTEulerRefined(TreeStrategy::Bfs);

    println!(
        "perf_mesh: tier {} ({}x{} grid, n = {n}, links = {}, k = {k}, routes = {routes}, \
         caps = {}/{} ports/switch per node)",
        h.tier.name(),
        p.side,
        p.side,
        topology.num_links(),
        p.ports,
        p.switch,
    );

    // Iterative loading: raise the offered load until the blocking rate
    // crosses the target. Each level draws a fresh demand set from a
    // level-pinned seed, so the curve is reproducible point by point.
    let mut levels = Vec::new();
    let (mut cold_total, mut warm_total, mut hits_total) = (0.0, 0.0, 0u64);
    let mut routes_total = 0u64;
    let mut load = p.base_load;
    let mut warm_workspace = Workspace::new();
    let (blocking_point, rate) = loop {
        let mut rng = StdRng::seed_from_u64(0x3e5 + load as u64);
        let demands = DemandSet::random(n, load, &mut rng);
        let instance = Instance::mesh(topology.clone(), demands, k, routes);
        let solve = |workspace: Workspace| {
            let mut ctx = SolveContext::seeded(17).with_workspace(workspace);
            let t = Instant::now();
            let sol = algo
                .solve(&instance, &mut ctx)
                .expect("grid topologies are connected; every demand routes");
            (sol.plan, ms(t), ctx)
        };
        let (plan, cold_ms, ctx) = solve(Workspace::new());
        let (warm_plan, warm_ms, warm_ctx) = solve(warm_workspace);
        assert_eq!(
            format!("{plan:?}"),
            format!("{warm_plan:?}"),
            "load {load}: the warm route table changed the plan"
        );
        let route_table_hits = warm_ctx.stats().route_table_hits;
        let routes_evaluated = warm_ctx.stats().routes_evaluated;
        warm_workspace = warm_ctx.into_workspace();
        let Plan::Mesh {
            outcome,
            blocked,
            max_link_load,
            ..
        } = plan
        else {
            unreachable!("mesh instances yield mesh plans");
        };
        let rate = blocked.len() as f64 / load as f64;
        let lower_bound = ctx.stats().lower_bound;
        let sadms = outcome.report.sadm_total;
        println!(
            "  load {load:>5}: blocked {:>4} ({:>5.2}%)  cold {cold_ms:>7.1} ms  \
             warm {warm_ms:>7.1} ms ({route_table_hits:>5} table hits, \
             {routes_evaluated:>6} routes)  \
             sadms {sadms:>5} (lb {lower_bound})  max link load {max_link_load}",
            blocked.len(),
            100.0 * rate,
        );
        levels.push(Json::Obj(fields![
            "load" => load, "blocked" => blocked.len(), "blocking_rate" => fixed(rate, 4),
            "cold_ms" => fixed(cold_ms, 1), "warm_ms" => fixed(warm_ms, 1),
            "route_table_hits" => route_table_hits, "routes_evaluated" => routes_evaluated,
            "sadms" => sadms,
            "lower_bound" => lower_bound, "max_link_load" => max_link_load,
        ]));
        cold_total += cold_ms;
        warm_total += warm_ms;
        hits_total += route_table_hits;
        routes_total += routes_evaluated;
        if rate >= BLOCKING_TARGET {
            break (load, rate);
        }
        assert!(
            levels.len() < 64,
            "no blocking point within 64 load levels — caps are effectively unlimited"
        );
        load += p.load_step;
    };
    println!(
        "  blocking point: {blocking_point} demands ({:.2}% blocked)",
        100.0 * rate
    );
    let cold_over_warm = cold_total / f64::max(warm_total, 1e-9);
    println!(
        "  route table: cold {cold_total:.1} ms vs warm {warm_total:.1} ms over the curve \
         -> {cold_over_warm:.2}x (plans byte-identical)"
    );

    // Throughput: repeated batches of distinct mesh items through the
    // service with the cache off, so every item pays the full routing +
    // grooming + repair pipeline.
    let throughput_load = p.base_load;
    let batch_items = p.batch_items;
    let mesh_batch = |salt: u64| -> Vec<Instance> {
        (0..batch_items)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(0x7a11 + salt * 1000 + i as u64);
                let demands = DemandSet::random(n, throughput_load, &mut rng);
                Instance::mesh(topology.clone(), demands, k, routes)
            })
            .collect()
    };
    let mut config = ServiceConfig::default();
    config.workers = 4;
    config.cache_capacity = 0;
    config.master_seed = 42;
    let batches = 3usize;
    let solved = (batches * batch_items) as f64;
    let mut rates: Vec<f64> = (0..THROUGHPUT_REPEATS)
        .map(|_| {
            let service = Service::start(config.clone());
            let mut client = Client::new(&service);
            let t = Instant::now();
            for salt in 0..batches as u64 {
                let response = client
                    .solve_batch(mesh_batch(salt), RequestOptions::default())
                    .expect("admission accepts the throughput batches");
                assert_eq!(response.items.len(), batch_items);
            }
            let elapsed_s = t.elapsed().as_secs_f64();
            service.shutdown();
            solved / elapsed_s.max(1e-9)
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    let solves_per_sec = rates[THROUGHPUT_REPEATS / 2];
    let (solves_per_sec_min, solves_per_sec_max) = (rates[0], rates[THROUGHPUT_REPEATS - 1]);
    println!(
        "  throughput: {solved:.0} mesh solves per phase, {THROUGHPUT_REPEATS} phases -> \
         median {solves_per_sec:.1} solves/sec (min {solves_per_sec_min:.1}, max \
         {solves_per_sec_max:.1})"
    );

    // Determinism: the same batch must produce byte-identical transcripts
    // on a 1-worker and a 4-worker service.
    let mut transcripts = Vec::new();
    for workers in [1usize, 4] {
        let mut config = ServiceConfig::default();
        config.workers = workers;
        config.cache_capacity = 0;
        config.master_seed = 42;
        let service = Service::start(config);
        let mut client = Client::new(&service);
        let transcript = client
            .solve_transcript(mesh_batch(99), RequestOptions::default().with_id(7))
            .expect("admission accepts the invariance batch");
        service.shutdown();
        transcripts.push(transcript);
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "mesh transcripts diverged between 1 and 4 workers"
    );
    println!("  transcript invariance: 1 worker == 4 workers");

    let rss = h.rss();

    let floor = h.fast().then_some(FAST_COLD_OVER_WARM_FLOOR);
    let mut doc = fields![
        "tier" => h.tier.name(),
        "n" => n,
        "links" => topology.num_links(),
        "k" => k,
        "routes" => routes,
        "ports_per_node" => p.ports,
        "switch_per_node" => p.switch,
        "blocking_target" => Json::raw(BLOCKING_TARGET),
        "levels" => Json::Rows(levels),
        "blocking_point_load" => blocking_point,
        "routes_evaluated" => routes_total,
        "cold_over_warm" => fixed(cold_over_warm, 2),
        "cold_over_warm_floor" => floor.map(Json::raw),
        "solves_per_sec" => fixed(solves_per_sec, 1),
        "solves_per_sec_min" => fixed(solves_per_sec_min, 1),
        "solves_per_sec_max" => fixed(solves_per_sec_max, 1),
        "transcript_invariant" => true,
    ];
    doc.extend(rss.fields());
    h.write(doc);

    h.check_rss(&rss);
    if let Some(floor) = floor {
        h.check(
            "cold/warm curve time",
            cold_over_warm,
            Bound::AtLeast(floor),
        );
        h.check(
            "route table hits over the curve",
            hits_total as f64,
            Bound::AtLeast(FAST_ROUTE_TABLE_HITS as f64),
        );
        h.check(
            "routes evaluated over the curve",
            routes_total as f64,
            Bound::AtMost(FAST_ROUTES_EVALUATED as f64),
        );
    }
}
