//! `upsr-groom`: plan SADM placement for a SONET/WDM UPSR ring.

#![forbid(unsafe_code)]

mod args;

use std::time::Duration;

use args::{algorithm_by_name, parse, Command, GroomOptions, ALGO_NAMES, USAGE};
use grooming::algorithm::Algorithm;
use grooming::bounds;
use grooming::pipeline::groom;
use grooming::solve::{Instance, Plan, SolveContext, Solver};
use grooming_sonet::demand::DemandSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse(&argv) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {}", e.0);
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    match cmd {
        Command::Help => println!("{USAGE}"),
        Command::Algos => {
            println!("available algorithms (--algo NAME):");
            for (name, desc) in ALGO_NAMES {
                println!("  {name:<16} {desc}");
            }
        }
        Command::File { path, opts } => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {path:?}: {e}");
                    std::process::exit(1);
                }
            };
            // Auto-detect: edge list first, then graph6.
            let graph = match grooming_graph::io::parse_edge_list(&text) {
                Ok(g) => g,
                Err(edge_err) => match grooming_graph::io::parse_graph6(&text) {
                    Ok(g) => g,
                    Err(g6_err) => {
                        eprintln!("error: {path} is neither format:");
                        eprintln!("  as edge list: {edge_err}");
                        eprintln!("  as graph6   : {g6_err}");
                        std::process::exit(1);
                    }
                },
            };
            let demands = DemandSet::from_traffic_graph(&graph);
            run(&demands, &opts);
        }
        Command::Random { n, m, opts } => {
            let mut rng = StdRng::seed_from_u64(opts.seed);
            let max = n * n.saturating_sub(1) / 2;
            if m > max {
                eprintln!("error: --m {m} exceeds the {max} possible pairs on {n} nodes");
                std::process::exit(1);
            }
            let demands = DemandSet::random(n, m, &mut rng);
            run(&demands, &opts);
        }
        Command::Regular { n, r, opts } => {
            if r == 0 || r >= n || n * r % 2 == 1 {
                eprintln!("error: no {r}-regular pattern exists on {n} nodes");
                std::process::exit(1);
            }
            let mut rng = StdRng::seed_from_u64(opts.seed);
            let demands = DemandSet::random_regular(n, r, &mut rng);
            run(&demands, &opts);
        }
        Command::Pattern { n, kind, opts } => {
            let mut rng = StdRng::seed_from_u64(opts.seed);
            let demands = match kind {
                args::PatternKind::AllToAll => DemandSet::all_to_all(n),
                args::PatternKind::Locality { m, alpha } => {
                    let max = n * n.saturating_sub(1) / 2;
                    if m > max {
                        eprintln!("error: --m {m} exceeds the {max} possible pairs");
                        std::process::exit(1);
                    }
                    DemandSet::locality(n, m, alpha, &mut rng)
                }
                args::PatternKind::Hubbed { hubs } => {
                    if hubs.iter().any(|&h| h as usize >= n) {
                        eprintln!("error: a hub id is outside the ring");
                        std::process::exit(1);
                    }
                    DemandSet::hubbed(n, &hubs)
                }
            };
            run(&demands, &opts);
        }
        Command::Serve { opts } => run_serve(&opts),
        Command::Sim { opts } => run_sim(&opts),
    }
}

/// The `sim` command: drive Poisson arrivals and departures through the
/// warm-start reconfigure path and report blocking, churn, and carried
/// load (or bisect to the 1% blocking point with `--sweep`).
fn run_sim(opts: &args::SimOptions) {
    use grooming_sim::{blocking_point, run, Scenario, BLOCKING_TARGET};

    let mut scenario = match opts.family.as_str() {
        "ring" => Scenario::ring(opts.size, opts.k),
        "mesh" => Scenario::mesh(opts.size, opts.k),
        other => {
            eprintln!("error: unknown family {other:?} (ring | mesh)");
            std::process::exit(1);
        }
    };
    scenario.rearrange_budget = opts.rearrange_budget;
    if let Some(w) = opts.max_wavelengths {
        scenario.max_wavelengths = w;
    }
    scenario.streams = opts.streams;
    scenario.horizon = opts.horizon;
    scenario.master_seed = opts.seed;
    let scenario = scenario.with_offered_erlangs(opts.erlangs);

    if opts.sweep {
        let cell = blocking_point(&scenario, BLOCKING_TARGET, 8);
        println!(
            "blocking point ({:.0}% target): {:.3} Erlangs offered \
             (measured blocking {:.4}, {} simulation(s))",
            BLOCKING_TARGET * 100.0,
            cell.erlangs,
            cell.blocking,
            cell.evaluations
        );
        println!("{}", cell.report.render());
    } else {
        let out = run(&scenario);
        if opts.trace {
            print!("{}", out.trace);
        }
        println!("{}", out.report.render());
    }
}

/// The `serve` command: run groomd on a TCP listener until a graceful
/// shutdown is requested — either the wire `SHUTDOWN` verb from any
/// connection or a `quit` line on stdin. (No signal handler: the
/// workspace forbids unsafe code and the environment has no signal crate,
/// so Ctrl-C is an abrupt exit; use `quit`/`SHUTDOWN` to drain.)
fn run_serve(opts: &args::ServeOptions) {
    use grooming_service::{tcp, Service, ServiceConfig};

    // `ServiceConfig` is non_exhaustive: built by mutating the default.
    #[allow(clippy::field_reassign_with_default)]
    let config = {
        let mut config = ServiceConfig::default();
        config.workers = opts.workers;
        config.queue_capacity = opts.queue;
        config.queue_work_capacity = opts.work_capacity;
        // Saturation begins at half the work capacity; the shed policy
        // only ever applies to requests that carry (or inherit) a
        // deadline.
        config.shed_watermark = opts.work_capacity / 2;
        config.cache_capacity = opts.cache;
        config.master_seed = opts.master_seed;
        config.default_deadline = opts.deadline_ms.map(Duration::from_millis);
        config
    };
    let service = Service::start(config);

    let listener = match std::net::TcpListener::bind(&opts.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", opts.addr);
            std::process::exit(1);
        }
    };
    let server = match tcp::serve(listener, &service) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot start server: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "groomd listening on {} ({} worker(s), queue capacity {} item(s) / {} work unit(s), \
         cache {} plan(s), master seed {})",
        server.addr(),
        service.workers(),
        opts.queue,
        opts.work_capacity,
        opts.cache,
        opts.master_seed
    );
    println!("type `quit` to drain and exit (or send the SHUTDOWN verb)");

    // Watch stdin for `quit`. EOF only stops the watcher — a backgrounded
    // server with a closed stdin keeps serving until wire SHUTDOWN.
    {
        let service = service.clone();
        std::thread::Builder::new()
            .name("groomd-stdin".into())
            .spawn(move || {
                let stdin = std::io::stdin();
                let mut line = String::new();
                loop {
                    line.clear();
                    match stdin.read_line(&mut line) {
                        Ok(0) | Err(_) => return,
                        Ok(_) => {
                            let word = line.trim();
                            if word.eq_ignore_ascii_case("quit")
                                || word.eq_ignore_ascii_case("shutdown")
                            {
                                service.begin_shutdown();
                                return;
                            }
                        }
                    }
                }
            })
            .expect("spawn stdin watcher");
    }

    server.join();
    let snapshot = service.shutdown();
    let c = &snapshot.counters;
    println!(
        "groomd drained: {} request(s) accepted, {} item(s) completed \
         ({} failed, {} timed out, {} cancelled), {} request(s) rejected ({} shed)",
        c.accepted_requests,
        c.completed_items,
        c.failed_items,
        c.timed_out_items,
        c.cancelled_items,
        c.rejected_requests,
        c.shed_requests
    );
    println!(
        "solve cache: {} hit(s), {} miss(es), {} plan(s) held, {} evicted",
        c.cache_hits, c.cache_misses, snapshot.cache_entries, snapshot.cache_evictions
    );
    println!(
        "solve totals: {} attempt(s), {} swap(s) evaluated, {} scratch reset(s), \
         {} part(s) repaired, {} SADM(s) moved",
        snapshot.solve.attempts,
        snapshot.solve.swaps_evaluated,
        snapshot.solve.scratch_resets,
        snapshot.solve.parts_repaired,
        snapshot.solve.sadms_moved
    );
    print_latency("queue wait", &snapshot.queue_wait);
    print_latency("solve time", &snapshot.solve_time);
}

/// One drain-summary line per latency histogram: count, mean, and the
/// bucket-upper-bound percentiles.
fn print_latency(label: &str, h: &grooming_service::Histogram) {
    if h.is_empty() {
        println!("{label}: no samples");
        return;
    }
    println!(
        "{label}: {} sample(s), mean {:?}, p50 <= {:?}, p99 <= {:?}",
        h.count(),
        h.mean(),
        h.percentile(0.5),
        h.percentile(0.99)
    );
}

fn run(demands: &DemandSet, opts: &GroomOptions) {
    if demands.num_nodes() < 2 {
        eprintln!("error: a ring needs at least 2 nodes");
        std::process::exit(1);
    }
    println!(
        "ring: {} nodes, {} demand pairs, grooming factor k = {}",
        demands.num_nodes(),
        demands.len(),
        opts.k
    );
    let lb = bounds::lower_bound(&demands.to_traffic_graph(), opts.k);
    println!("SADM lower bound: {lb}");
    if opts.compare {
        compare(demands, opts);
    } else {
        run_one(demands, opts.algorithm, opts);
    }
}

fn compare(demands: &DemandSet, opts: &GroomOptions) {
    println!(
        "\n{:<24} {:>6} {:>12} {:>10}",
        "algorithm", "SADMs", "wavelengths", "bypasses"
    );
    for (name, _) in ALGO_NAMES {
        let algo = algorithm_by_name(name).expect("table names resolve");
        let mut rng = StdRng::seed_from_u64(opts.seed);
        match groom(demands, opts.k, algo, &mut rng) {
            Ok(out) => println!(
                "{:<24} {:>6} {:>12} {:>10}",
                algo.name(),
                out.report.sadm_total,
                out.report.wavelengths,
                out.report.bypass_total
            ),
            Err(e) => println!("{:<24} (skipped: {e})", algo.name()),
        }
    }
}

/// A solve context configured from the CLI options: the `--seed` RNG
/// stream plus the optional `--deadline-ms` deadline.
fn make_context(opts: &GroomOptions) -> SolveContext {
    let mut ctx = SolveContext::seeded(opts.seed);
    if let Some(ms) = opts.deadline_ms {
        ctx = ctx.with_timeout(Duration::from_millis(ms));
    }
    ctx
}

fn print_solve_summary(ctx: &SolveContext, timed_out: bool, sadm_cost: usize) {
    let stats = ctx.stats();
    // Warm-start repair counters only appear when a reconfigure ran —
    // cold solves keep the familiar three-field line.
    let repairs = if stats.parts_repaired > 0 || stats.sadms_moved > 0 {
        format!(
            ", {} part(s) repaired, {} SADM(s) moved",
            stats.parts_repaired, stats.sadms_moved
        )
    } else {
        String::new()
    };
    println!(
        "solve: {} attempt(s), {} swap(s) evaluated, {} scratch reset(s){repairs} in {:.1?}{}",
        stats.attempts,
        stats.swaps_evaluated,
        stats.scratch_resets,
        stats.total_wall_time(),
        if timed_out {
            " (deadline hit: best-so-far plan)"
        } else {
            ""
        },
    );
    // The solver records the combinatorial lower bound for every workload;
    // report the cost over it so a plan's quality can be judged without
    // re-deriving the bound by hand. It is not an optimality gap: the bound
    // itself sits below the optimum by an unknown margin.
    if stats.lower_bound > 0 && sadm_cost > 0 {
        let over = (sadm_cost as u64).saturating_sub(stats.lower_bound);
        println!(
            "bound: {} SADM lower bound, cost over bound {} ({:.1}%)",
            stats.lower_bound,
            over,
            100.0 * over as f64 / stats.lower_bound as f64
        );
    }
}

fn run_one(demands: &DemandSet, algo: Algorithm, opts: &GroomOptions) {
    let mut ctx = make_context(opts);
    // A wavelength budget routes through the budget instance, then the
    // resulting partition is rebuilt into a full ring assignment via the
    // pipeline for consistent reporting.
    if let Some(budget) = opts.budget {
        let g = demands.to_traffic_graph();
        match algo.solve(&Instance::budgeted(g, opts.k, budget), &mut ctx) {
            Ok(sol) => {
                let Plan::Budgeted { partition, .. } = &sol.plan else {
                    unreachable!("budgeted instances yield budgeted plans");
                };
                let groups: Vec<Vec<grooming_sonet::demand::DemandPair>> = partition
                    .parts()
                    .iter()
                    .map(|part| part.iter().map(|e| demands.pairs()[e.index()]).collect())
                    .collect();
                let ring = grooming_sonet::ring::UpsrRing::new(demands.num_nodes());
                let assignment =
                    grooming_sonet::grooming::GroomingAssignment::new(ring, opts.k, groups);
                assignment
                    .validate(Some(demands))
                    .expect("budgeted partitions stay valid");
                println!("algorithm: {} (budget {budget})", algo.name());
                println!("\n{}", assignment.report());
                print_solve_summary(&ctx, sol.timed_out, assignment.report().sadm_total);
                if opts.show_parts {
                    print_parts(&assignment);
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    // The portfolio routes through the deterministic parallel engine so
    // --jobs / --master-seed / --restarts take effect and the per-attempt
    // breakdown can be reported.
    if algo == Algorithm::Portfolio {
        run_portfolio(demands, opts);
        return;
    }
    let sol = match algo.solve(&Instance::ring(demands.clone(), opts.k), &mut ctx) {
        Ok(sol) => sol,
        Err(e) => {
            eprintln!("error: {}: {e}", algo.name());
            eprintln!(
                "hint: that algorithm needs a regular traffic pattern; try --algo spant-euler"
            );
            std::process::exit(1);
        }
    };
    let Plan::Ring { outcome: out } = sol.plan else {
        unreachable!("ring instances yield ring plans");
    };
    println!("algorithm: {}", algo.name());
    println!("\n{}", out.report);
    print_solve_summary(&ctx, sol.timed_out, out.report.sadm_total);
    if opts.analyze {
        let g = demands.to_traffic_graph();
        println!(
            "\n{}",
            grooming::analysis::analyze(&g, opts.k, &out.partition)
        );
    }
    if let Some(path) = &opts.dot {
        let g = demands.to_traffic_graph();
        let mut color = vec![usize::MAX; g.num_edges()];
        for (i, part) in out.partition.parts().iter().enumerate() {
            for &e in part {
                color[e.index()] = i;
            }
        }
        let dot = grooming_graph::io::format_dot(&g, "grooming", Some(&color));
        match std::fs::write(path, dot) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if opts.show_parts {
        print_parts(&out.assignment);
    }
}

fn run_portfolio(demands: &DemandSet, opts: &GroomOptions) {
    use grooming::portfolio::{PortfolioEngine, DEFAULT_PORTFOLIO};
    let g = demands.to_traffic_graph();
    let master = opts.master_seed.unwrap_or(opts.seed);
    let mut engine = PortfolioEngine::new(&DEFAULT_PORTFOLIO)
        .restarts(opts.restarts)
        .master_seed(master)
        .jobs(opts.jobs);
    if let Some(ms) = opts.deadline_ms {
        engine = engine.deadline(Some(std::time::Instant::now() + Duration::from_millis(ms)));
    }
    let result = engine.run(&g, opts.k);

    // Rebuild the ring-side assignment for the standard report.
    let groups: Vec<Vec<grooming_sonet::demand::DemandPair>> = result
        .partition
        .parts()
        .iter()
        .map(|part| part.iter().map(|e| demands.pairs()[e.index()]).collect())
        .collect();
    let ring = grooming_sonet::ring::UpsrRing::new(demands.num_nodes());
    let assignment = grooming_sonet::grooming::GroomingAssignment::new(ring, opts.k, groups);
    assignment
        .validate(Some(demands))
        .expect("portfolio partitions stay valid");

    println!(
        "algorithm: {} (portfolio winner, restart {}, master seed {master})",
        result.winner.name(),
        result.winner_restart
    );
    println!("\n{}", assignment.report());
    println!(
        "portfolio: {} attempts in {:.1?} ({} skipped, {} failed, {} past deadline){}",
        result.attempts.len(),
        result.wall_time,
        result.skipped.len(),
        result.failed_attempts,
        result.deadline_skipped,
        if result.timed_out {
            " — deadline hit: best-so-far plan"
        } else {
            ""
        },
    );
    println!(
        "  {:<24} {:>7} {:>6} {:>12} {:>8} {:>8} {:>12}",
        "attempt", "restart", "SADMs", "wavelengths", "swaps", "resets", "time"
    );
    for a in &result.attempts {
        println!(
            "  {:<24} {:>7} {:>6} {:>12} {:>8} {:>8} {:>12.1?}",
            a.algorithm.name(),
            a.restart,
            a.cost,
            a.wavelengths,
            a.swaps_evaluated,
            a.scratch_resets,
            a.duration,
        );
    }
    for s in &result.skipped {
        println!("  {:<24} (skipped: preconditions not met)", s.name());
    }
    println!(
        "  totals: {} swap(s) evaluated, {} scratch reset(s)",
        result.swaps_evaluated, result.scratch_resets
    );
    if opts.analyze {
        println!(
            "\n{}",
            grooming::analysis::analyze(&g, opts.k, &result.partition)
        );
    }
    if opts.show_parts {
        print_parts(&assignment);
    }
}

fn print_parts(assignment: &grooming_sonet::grooming::GroomingAssignment) {
    println!("\nper-wavelength demand groups:");
    for (i, ch) in assignment.channels().iter().enumerate() {
        let pairs: Vec<String> = ch.pairs().iter().map(|p| p.to_string()).collect();
        println!("  λ{:<3} [{} pairs] {}", i, ch.len(), pairs.join(" "));
    }
}
