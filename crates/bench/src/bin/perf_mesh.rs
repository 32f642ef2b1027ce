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
//! service.
//!
//! Usage: `perf_mesh [--fast] [--out PATH]`

use std::fmt::Write as _;
use std::time::Instant;

use grooming::algorithm::Algorithm;
use grooming::solve::{Instance, Plan, SolveContext, Solver};
use grooming_bench::{ms, peak_rss_mb};
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

/// Peak-RSS ceilings per tier. Mesh state is linear in topology + demands;
/// these match the other perf baselines' footprints.
const FAST_RSS_CEILING_MB: f64 = 256.0;
const FULL_RSS_CEILING_MB: f64 = 1024.0;

#[derive(Clone, Copy, PartialEq)]
enum Tier {
    Fast,
    Full,
}

impl Tier {
    /// Grid side length; the topology is a `side × side` metro mesh.
    fn side(self) -> usize {
        match self {
            Tier::Fast => 6,
            Tier::Full => 10,
        }
    }

    fn k(self) -> usize {
        match self {
            Tier::Fast => 8,
            Tier::Full => 16,
        }
    }

    fn routes(self) -> usize {
        match self {
            Tier::Fast => 3,
            Tier::Full => 4,
        }
    }

    /// Per-node add/drop port budget.
    fn ports(self) -> u32 {
        match self {
            Tier::Fast => 10,
            Tier::Full => 12,
        }
    }

    /// Per-node transit (switching) budget.
    fn switch(self) -> u32 {
        match self {
            Tier::Fast => 40,
            Tier::Full => 48,
        }
    }

    fn base_load(self) -> usize {
        match self {
            Tier::Fast => 64,
            Tier::Full => 256,
        }
    }

    fn load_step(self) -> usize {
        match self {
            Tier::Fast => 32,
            Tier::Full => 128,
        }
    }

    /// Items per throughput batch.
    fn batch_items(self) -> usize {
        match self {
            Tier::Fast => 8,
            Tier::Full => 16,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Tier::Fast => "fast",
            Tier::Full => "full",
        }
    }

    fn rss_ceiling_mb(self) -> f64 {
        match self {
            Tier::Fast => FAST_RSS_CEILING_MB,
            Tier::Full => FULL_RSS_CEILING_MB,
        }
    }

    fn cold_over_warm_floor(self) -> Option<f64> {
        match self {
            Tier::Fast => Some(FAST_COLD_OVER_WARM_FLOOR),
            Tier::Full => None,
        }
    }
}

struct Opts {
    tier: Tier,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        tier: Tier::Full,
        out: "results/BENCH_mesh.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => opts.tier = Tier::Fast,
            "--out" => {
                opts.out = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: perf_mesh [--fast] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// The pinned metro mesh: a grid with uniform finite node capacities.
fn metro_topology(tier: Tier) -> Topology {
    let side = tier.side();
    let graph = generators::grid(side, side);
    let n = graph.num_nodes();
    let m = graph.num_edges();
    let caps = vec![NodeCaps::new(tier.ports(), tier.switch()); n];
    Topology::new(graph, vec![1; m], caps)
}

struct Level {
    load: usize,
    blocked: usize,
    rate: f64,
    cold_ms: f64,
    warm_ms: f64,
    route_table_hits: u64,
    sadms: usize,
    lower_bound: u64,
    max_link_load: u32,
}

fn main() {
    let opts = parse_opts();
    let tier = opts.tier;
    let topology = metro_topology(tier);
    let n = topology.num_nodes();
    let k = tier.k();
    let routes = tier.routes();
    let algo = Algorithm::SpanTEulerRefined(TreeStrategy::Bfs);

    println!(
        "perf_mesh: tier {} ({}x{} grid, n = {n}, links = {}, k = {k}, routes = {routes}, \
         caps = {}/{} ports/switch per node)",
        tier.name(),
        tier.side(),
        tier.side(),
        topology.num_links(),
        tier.ports(),
        tier.switch(),
    );

    // Iterative loading: raise the offered load until the blocking rate
    // crosses the target. Each level draws a fresh demand set from a
    // level-pinned seed, so the curve is reproducible point by point.
    let mut levels: Vec<Level> = Vec::new();
    let mut load = tier.base_load();
    let mut warm_workspace = Workspace::new();
    let blocking_point = loop {
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
        let stats = ctx.stats();
        println!(
            "  load {load:>5}: blocked {:>4} ({:>5.2}%)  cold {cold_ms:>7.1} ms  \
             warm {warm_ms:>7.1} ms ({route_table_hits:>5} table hits)  \
             sadms {:>5} (lb {})  max link load {max_link_load}",
            blocked.len(),
            100.0 * rate,
            outcome.report.sadm_total,
            stats.lower_bound,
        );
        levels.push(Level {
            load,
            blocked: blocked.len(),
            rate,
            cold_ms,
            warm_ms,
            route_table_hits,
            sadms: outcome.report.sadm_total,
            lower_bound: stats.lower_bound,
            max_link_load,
        });
        if rate >= BLOCKING_TARGET {
            break load;
        }
        assert!(
            levels.len() < 64,
            "no blocking point within 64 load levels — caps are effectively unlimited"
        );
        load += tier.load_step();
    };
    println!(
        "  blocking point: {blocking_point} demands ({:.2}% blocked)",
        100.0 * levels.last().expect("at least one level").rate
    );
    let cold_total: f64 = levels.iter().map(|l| l.cold_ms).sum();
    let warm_total: f64 = levels.iter().map(|l| l.warm_ms).sum();
    let cold_over_warm = cold_total / warm_total.max(1e-9);
    println!(
        "  route table: cold {cold_total:.1} ms vs warm {warm_total:.1} ms over the curve \
         -> {cold_over_warm:.2}x (plans byte-identical)"
    );

    // Throughput: repeated batches of distinct mesh items through the
    // service with the cache off, so every item pays the full routing +
    // grooming + repair pipeline.
    let throughput_load = tier.base_load();
    let batch_items = tier.batch_items();
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

    let peak_mb = peak_rss_mb();
    let ceiling = tier.rss_ceiling_mb();
    println!("  peak RSS {peak_mb:.1} MiB (ceiling {ceiling:.0} MiB)");

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"perf_mesh\",\n  \"tier\": \"{}\",\n  \"n\": {n},\n  \
         \"links\": {},\n  \"k\": {k},\n  \"routes\": {routes},\n  \
         \"ports_per_node\": {},\n  \"switch_per_node\": {},\n  \
         \"blocking_target\": {BLOCKING_TARGET},\n  \"levels\": [\n",
        tier.name(),
        topology.num_links(),
        tier.ports(),
        tier.switch(),
    );
    for (i, l) in levels.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"load\": {}, \"blocked\": {}, \"blocking_rate\": {:.4}, \
             \"cold_ms\": {:.1}, \"warm_ms\": {:.1}, \"route_table_hits\": {}, \
             \"sadms\": {}, \"lower_bound\": {}, \"max_link_load\": {}}}{}",
            l.load,
            l.blocked,
            l.rate,
            l.cold_ms,
            l.warm_ms,
            l.route_table_hits,
            l.sadms,
            l.lower_bound,
            l.max_link_load,
            if i + 1 < levels.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"blocking_point_load\": {blocking_point},\n  \
         \"cold_over_warm\": {cold_over_warm:.2},\n  \
         \"cold_over_warm_floor\": {},\n  \
         \"solves_per_sec\": {solves_per_sec:.1},\n  \
         \"solves_per_sec_min\": {solves_per_sec_min:.1},\n  \
         \"solves_per_sec_max\": {solves_per_sec_max:.1},\n  \
         \"transcript_invariant\": true,\n  \
         \"peak_rss_mb\": {peak_mb:.1},\n  \"rss_ceiling_mb\": {ceiling:.0}\n}}\n",
        tier.cold_over_warm_floor()
            .map_or("null".to_string(), |f| f.to_string()),
    );
    std::fs::write(&opts.out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", opts.out);
        std::process::exit(1);
    });
    println!("baseline written to {}", opts.out);

    assert!(
        peak_mb < ceiling,
        "peak RSS {peak_mb:.1} MiB breached the {} tier's ceiling of {ceiling:.0} MiB",
        tier.name()
    );
    if let Some(floor) = tier.cold_over_warm_floor() {
        assert!(
            cold_over_warm >= floor,
            "warm route tables solved the curve only {cold_over_warm:.2}x faster than cold \
             ones (the {} tier's floor is {floor}x)",
            tier.name()
        );
    }
}
