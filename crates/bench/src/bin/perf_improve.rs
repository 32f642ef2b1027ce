//! Perf baseline for the improvement engine (refine / merge / anneal) and
//! the DenseFirst packer.
//!
//! Runs the pipeline `SpanT_Euler base → refine → merge_parts → anneal` on
//! fixed large instances twice per stage — once with the incremental engine
//! (`grooming::improve`) and once with the preserved seed implementations
//! (`grooming::improve::reference`) — asserts the outputs are
//! **bit-identical**, and writes per-stage wall clock + cost + speedup to a
//! JSON baseline (`results/BENCH_improve.json` by default). A `dense_first`
//! cell does the same for the whole DenseFirst packer (clique peeling,
//! leftovers, merge, refine; RNG streams in lockstep too) at mesh-metro's
//! median traffic-graph shape. `ci.sh` runs the `--fast` variant in
//! release mode, which exits non-zero if that cell's speedup falls below
//! [`FAST_DENSE_FIRST_FLOOR`].
//!
//! Usage: `perf_improve [--fast] [--out PATH]`

use std::fmt::Write as _;

use grooming::improve::{self, reference};
use grooming::partition::EdgePartition;
use grooming::spant_euler::spant_euler;
use grooming_bench::time_best;
use grooming_graph::generators;
use grooming_graph::graph::Graph;
use grooming_graph::spanning::TreeStrategy;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The least `dense_first` speedup over `reference::dense_first` the fast
/// tier accepts. It measured 59–109× in fourteen runs on a shared 2-vCPU
/// host; the floor sits under half the lowest, so a packer that goes back
/// to enumerating every maximal clique per peel (3.7–4.7× over the
/// reference) trips it and a noisy host does not.
const FAST_DENSE_FIRST_FLOOR: f64 = 25.0;

struct Opts {
    fast: bool,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        fast: false,
        out: "results/BENCH_improve.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => opts.fast = true,
            "--out" => {
                opts.out = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: perf_improve [--fast] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    opts
}

struct StageResult {
    stage: &'static str,
    ref_ms: f64,
    new_ms: f64,
    cost: usize,
    identical: bool,
}

impl StageResult {
    fn speedup(&self) -> f64 {
        self.ref_ms / self.new_ms.max(1e-9)
    }
}

fn run_instance(
    name: &str,
    g: &Graph,
    k: usize,
    graph_seed: u64,
    anneal_iters: usize,
    reps: usize,
) -> (Vec<StageResult>, String) {
    let base = spant_euler(
        g,
        k,
        TreeStrategy::Bfs,
        &mut StdRng::seed_from_u64(graph_seed ^ 0xb),
    );
    let mut stages = Vec::new();

    // Stage 1: refine (8 rounds, the Algorithm::SpanTEulerRefined budget).
    let (new_ms, refined) = time_best(reps, || improve::refine(g, k, &base, 8));
    let (ref_ms, refined_ref) = time_best(reps, || reference::refine(g, k, &base, 8));
    stages.push(StageResult {
        stage: "refine",
        ref_ms,
        new_ms,
        cost: refined.sadm_cost(g),
        identical: refined.parts() == refined_ref.parts(),
    });

    // Stage 2: merge_parts on the refined partition.
    let (new_ms, merged) = time_best(reps, || improve::merge_parts(g, k, &refined));
    let (ref_ms, merged_ref) = time_best(reps, || reference::merge_parts(g, k, &refined));
    stages.push(StageResult {
        stage: "merge_parts",
        ref_ms,
        new_ms,
        cost: merged.sadm_cost(g),
        identical: merged.parts() == merged_ref.parts(),
    });

    // Stage 3: anneal from the merged partition (fresh identical RNG per run).
    let (new_ms, annealed) = time_best(reps, || {
        improve::anneal(
            g,
            k,
            &merged,
            anneal_iters,
            &mut StdRng::seed_from_u64(graph_seed ^ 0xc),
        )
    });
    let (ref_ms, annealed_ref) = time_best(reps, || {
        reference::anneal(
            g,
            k,
            &merged,
            anneal_iters,
            &mut StdRng::seed_from_u64(graph_seed ^ 0xc),
        )
    });
    stages.push(StageResult {
        stage: "anneal",
        ref_ms,
        new_ms,
        cost: annealed.sadm_cost(g),
        identical: annealed.parts() == annealed_ref.parts(),
    });

    for s in &stages {
        assert!(
            s.identical,
            "{name}/{}: incremental output diverged from reference",
            s.stage
        );
    }

    let pipe_ref: f64 = stages.iter().map(|s| s.ref_ms).sum();
    let pipe_new: f64 = stages.iter().map(|s| s.new_ms).sum();
    println!(
        "instance {name} (n={}, m={}, k={k}):",
        g.num_nodes(),
        g.num_edges()
    );
    for s in &stages {
        println!(
            "  {:<12} ref {:>9.3} ms   new {:>9.3} ms   speedup {:>6.2}x   cost {}   identical",
            s.stage,
            s.ref_ms,
            s.new_ms,
            s.speedup(),
            s.cost
        );
    }
    println!(
        "  {:<12} ref {:>9.3} ms   new {:>9.3} ms   speedup {:>6.2}x",
        "pipeline",
        pipe_ref,
        pipe_new,
        pipe_ref / pipe_new.max(1e-9)
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "    {{\n      \"name\": \"{name}\",\n      \"n\": {},\n      \"m\": {},\n      \"k\": {k},\n      \"graph_seed\": {graph_seed},\n      \"anneal_iters\": {anneal_iters},\n      \"stages\": [\n",
        g.num_nodes(),
        g.num_edges()
    );
    for (i, s) in stages.iter().enumerate() {
        let _ = writeln!(
            json,
            "        {{\"stage\": \"{}\", \"ref_ms\": {:.3}, \"new_ms\": {:.3}, \"speedup\": {:.2}, \"cost\": {}, \"identical\": {}}}{}",
            s.stage,
            s.ref_ms,
            s.new_ms,
            s.speedup(),
            s.cost,
            s.identical,
            if i + 1 < stages.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "      ],\n      \"pipeline\": {{\"ref_ms\": {:.3}, \"new_ms\": {:.3}, \"speedup\": {:.2}}}\n    }}",
        pipe_ref,
        pipe_new,
        pipe_ref / pipe_new.max(1e-9)
    );
    (stages, json)
}

/// Prints a one-stage instance and returns its JSON entry.
fn single_stage_entry(name: &str, g: &Graph, k: usize, s: &StageResult) -> String {
    println!(
        "instance {name} (n={}, m={}, k={k}):",
        g.num_nodes(),
        g.num_edges()
    );
    println!(
        "  {:<12} ref {:>9.3} ms   new {:>9.3} ms   speedup {:>6.2}x   cost {}   identical",
        s.stage,
        s.ref_ms,
        s.new_ms,
        s.speedup(),
        s.cost
    );
    format!(
        "    {{\n      \"name\": \"{name}\",\n      \"n\": {},\n      \"m\": {},\n      \"k\": {k},\n      \"stages\": [\n        {{\"stage\": \"{}\", \"ref_ms\": {:.3}, \"new_ms\": {:.3}, \"speedup\": {:.2}, \"cost\": {}, \"identical\": {}}}\n      ]\n    }}",
        g.num_nodes(),
        g.num_edges(),
        s.stage,
        s.ref_ms,
        s.new_ms,
        s.speedup(),
        s.cost,
        s.identical
    )
}

/// Merge-only stage from an all-singletons partition — the workload where
/// the cached overlap matrix matters: the reference re-scores every pair
/// against `0..n` each round (O(rounds·W²·n)), the incremental version
/// scores once and re-scores only the merged part's row.
fn run_singleton_merge(name: &str, g: &Graph, k: usize, reps: usize) -> String {
    let singles = EdgePartition::new(g.edges().map(|e| vec![e]).collect());
    let (new_ms, merged) = time_best(reps, || improve::merge_parts(g, k, &singles));
    let (ref_ms, merged_ref) = time_best(reps, || reference::merge_parts(g, k, &singles));
    let s = StageResult {
        stage: "merge_singletons",
        ref_ms,
        new_ms,
        cost: merged.sadm_cost(g),
        identical: merged.parts() == merged_ref.parts(),
    };
    assert!(
        s.identical,
        "{name}: incremental merge diverged from reference"
    );
    single_stage_entry(name, g, k, &s)
}

/// The whole DenseFirst packer against its seed version, from identical
/// RNG streams: the outputs and the streams' next draws must agree.
fn run_dense_first(name: &str, g: &Graph, k: usize, reps: usize) -> (StageResult, String) {
    let run = |f: fn(&Graph, usize, &mut StdRng) -> EdgePartition| {
        let mut rng = StdRng::seed_from_u64(43);
        let p = f(g, k, &mut rng);
        (p, rng.next_u64())
    };
    let (new_ms, (fast, fast_next)) = time_best(reps, || run(improve::dense_first));
    let (ref_ms, (slow, slow_next)) = time_best(reps, || run(reference::dense_first));
    let s = StageResult {
        stage: "dense_first",
        ref_ms,
        new_ms,
        cost: fast.sadm_cost(g),
        identical: fast.parts() == slow.parts() && fast_next == slow_next,
    };
    assert!(s.identical, "{name}: dense_first diverged from reference");
    let json = single_stage_entry(name, g, k, &s);
    (s, json)
}

fn main() {
    let opts = parse_opts();
    let reps = if opts.fast { 1 } else { 3 };
    // 50k sweeps is already 10× the largest anneal budget used anywhere in
    // the workspace (5k in the criterion bench); beyond that the pipeline
    // timing degenerates into measuring the shared RNG + Metropolis-`exp`
    // stream that bit-identity forces both implementations to consume.
    let anneal_iters = if opts.fast { 10_000 } else { 50_000 };

    // Fixed instances: the acceptance-criterion instance first, then a
    // denser one for headroom. Graph seeds are pinned so the baseline is
    // comparable across runs and machines.
    let primary = generators::gnm(100, 600, &mut StdRng::seed_from_u64(7));
    let mut entries = Vec::new();
    let (stages, json) = run_instance("gnm_100_600_k16", &primary, 16, 7, anneal_iters, reps);
    let pipeline_speedup: f64 = stages.iter().map(|s| s.ref_ms).sum::<f64>()
        / stages.iter().map(|s| s.new_ms).sum::<f64>().max(1e-9);
    entries.push(json);

    // mesh-metro's median traffic graph: 100 nodes, 768 demands, k = 16.
    let metro = generators::gnm(100, 768, &mut StdRng::seed_from_u64(10));
    let (packer, json) = run_dense_first("dense_first_gnm_100_768_k16", &metro, 16, reps);
    entries.push(json);

    if !opts.fast {
        let dense = generators::gnm(150, 1500, &mut StdRng::seed_from_u64(8));
        let (_, json) = run_instance("gnm_150_1500_k32", &dense, 32, 8, anneal_iters, reps);
        entries.push(json);

        let scattered = generators::gnm(40, 200, &mut StdRng::seed_from_u64(9));
        entries.push(run_singleton_merge(
            "singletons_40_200_k8",
            &scattered,
            8,
            reps,
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"perf_improve\",\n  \"fast\": {},\n  \"reps\": {reps},\n  \"instances\": [\n{}\n  ]\n}}\n",
        opts.fast,
        entries.join(",\n")
    );
    std::fs::write(&opts.out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", opts.out);
        std::process::exit(1);
    });
    println!("baseline written to {}", opts.out);
    println!("primary pipeline speedup: {pipeline_speedup:.2}x");
    if opts.fast {
        assert!(
            packer.speedup() >= FAST_DENSE_FIRST_FLOOR,
            "dense_first ran only {:.2}x faster than its reference (the fast tier's floor is \
             {FAST_DENSE_FIRST_FLOOR}x)",
            packer.speedup()
        );
    }
}
