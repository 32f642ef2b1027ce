//! Perf baseline for the improvement engine (refine / merge / anneal) and
//! the DenseFirst packer.
//!
//! Runs the pipeline `SpanT_Euler base → refine → merge_parts → anneal` on
//! fixed large instances twice per stage — once with the incremental engine
//! (`grooming::improve`) and once with the preserved seed implementations
//! (`grooming_oracle::improve`) — asserts the outputs are
//! **bit-identical**, and writes per-stage wall clock + cost + speedup to a
//! JSON baseline (`results/BENCH_improve.json` by default). A `dense_first`
//! cell does the same for the whole DenseFirst packer (clique peeling,
//! leftovers, merge, refine; RNG streams in lockstep too) at mesh-metro's
//! median traffic-graph shape. `ci.sh` runs the `--fast` variant in
//! release mode, which exits non-zero if that cell's speedup falls below
//! [`FAST_DENSE_FIRST_FLOOR`].
//!
//! Usage: `perf_improve [--fast] [--out PATH]`

use grooming::improve;
use grooming::partition::EdgePartition;
use grooming::spant_euler::spant_euler;
use grooming_bench::fields;
use grooming_bench::harness::{fixed, Bound, Harness, Json};
use grooming_bench::time_best;
use grooming_graph::generators;
use grooming_graph::graph::Graph;
use grooming_graph::spanning::TreeStrategy;
use grooming_oracle::improve as reference;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The least `dense_first` speedup over `reference::dense_first` the fast
/// tier accepts. It measured 59–109× in fourteen runs on a shared 2-vCPU
/// host; the floor sits under half the lowest, so a packer that goes back
/// to enumerating every maximal clique per peel (3.7–4.7× over the
/// reference) trips it and a noisy host does not.
const FAST_DENSE_FIRST_FLOOR: f64 = 25.0;

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

    fn print(&self) {
        println!(
            "  {:<12} ref {:>9.3} ms   new {:>9.3} ms   speedup {:>6.2}x   cost {}   identical",
            self.stage,
            self.ref_ms,
            self.new_ms,
            self.speedup(),
            self.cost
        );
    }

    fn json(&self) -> Json {
        Json::Obj(fields![
            "stage" => self.stage, "ref_ms" => fixed(self.ref_ms, 3),
            "new_ms" => fixed(self.new_ms, 3), "speedup" => fixed(self.speedup(), 2),
            "cost" => self.cost, "identical" => self.identical,
        ])
    }
}

/// Prints an instance's header line and returns its leading BENCH keys.
fn instance_head(name: &str, g: &Graph, k: usize) -> Vec<(&'static str, Json)> {
    let (n, m) = (g.num_nodes(), g.num_edges());
    println!("instance {name} (n={n}, m={m}, k={k}):");
    fields!["name" => name, "n" => n, "m" => m, "k" => k]
}

fn run_instance(
    name: &str,
    g: &Graph,
    k: usize,
    graph_seed: u64,
    anneal_iters: usize,
    reps: usize,
) -> (Vec<StageResult>, Json) {
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
    let pipe_speedup = pipe_ref / pipe_new.max(1e-9);
    let mut entry = instance_head(name, g, k);
    stages.iter().for_each(StageResult::print);
    println!(
        "  {:<12} ref {pipe_ref:>9.3} ms   new {pipe_new:>9.3} ms   speedup {pipe_speedup:>6.2}x",
        "pipeline"
    );
    entry.extend(fields![
        "graph_seed" => graph_seed,
        "anneal_iters" => anneal_iters,
        "stages" => Json::Rows(stages.iter().map(StageResult::json).collect()),
        "pipeline" => Json::Obj(fields![
            "ref_ms" => fixed(pipe_ref, 3), "new_ms" => fixed(pipe_new, 3),
            "speedup" => fixed(pipe_speedup, 2),
        ]),
    ]);
    (stages, Json::Block(entry))
}

/// Prints a one-stage instance and returns its BENCH entry.
fn single_stage_entry(name: &str, g: &Graph, k: usize, s: &StageResult) -> Json {
    let mut entry = instance_head(name, g, k);
    s.print();
    entry.push(("stages", Json::Rows(vec![s.json()])));
    Json::Block(entry)
}

/// Merge-only stage from an all-singletons partition — the workload where
/// the cached overlap matrix matters: the reference re-scores every pair
/// against `0..n` each round (O(rounds·W²·n)), the incremental version
/// scores once and re-scores only the merged part's row.
fn run_singleton_merge(name: &str, g: &Graph, k: usize, reps: usize) -> Json {
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
fn run_dense_first(name: &str, g: &Graph, k: usize, reps: usize) -> (StageResult, Json) {
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
    let h = Harness::from_env("perf_improve", "results/BENCH_improve.json", false);
    let reps = if h.fast() { 1 } else { 3 };
    // 50k sweeps is already 10× the largest anneal budget used anywhere in
    // the workspace (5k in the criterion bench); beyond that the pipeline
    // timing degenerates into measuring the shared RNG + Metropolis-`exp`
    // stream that bit-identity forces both implementations to consume.
    let anneal_iters = if h.fast() { 10_000 } else { 50_000 };

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

    if !h.fast() {
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

    h.write(fields![
        "fast" => h.fast(),
        "reps" => reps,
        "instances" => Json::Rows(entries),
    ]);
    println!("primary pipeline speedup: {pipeline_speedup:.2}x");
    if h.fast() {
        h.check(
            "dense_first speedup over its reference",
            packer.speedup(),
            Bound::AtLeast(FAST_DENSE_FIRST_FLOOR),
        );
    }
}
