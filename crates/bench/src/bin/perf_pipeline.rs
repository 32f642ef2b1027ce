//! End-to-end perf baseline for the construction pipeline.
//!
//! Sweeps the pinned Figure-4 grid (`n = 36`, `d ∈ {0.3, 0.5, 0.7}`, the
//! full `k` ladder, 20 seeds per cell) through every construction algorithm
//! twice — once on the live path (CSR adjacency, bitset subsets, reusable
//! workspaces) and once on the frozen seed implementations in
//! [`grooming_oracle::reference`] — asserts the partitions are
//! **bit-identical** cell by cell, and writes per-stage wall clock +
//! speedup to a JSON baseline (`results/BENCH_pipeline.json` by default). `Regular_Euler`
//! additionally sweeps the Figure-5 regular grid (`r ∈ {7, 8, 15, 16}`).
//!
//! `ci.sh` runs the `--fast` variant (reduced grid, identity checks only)
//! in release mode; the full run also asserts the tracked end-to-end
//! speedup floor of 1.5× so substrate regressions fail loudly.
//!
//! Usage: `perf_pipeline [--fast] [--out PATH]`

use grooming::partition::EdgePartition;
use grooming::{baselines, regular_euler, spant_euler};
use grooming_bench::fields;
use grooming_bench::harness::{fixed, Bound, Harness, Json};
use grooming_bench::{time_best, workload::Workload};
use grooming_graph::graph::Graph;
use grooming_graph::spanning::TreeStrategy;
use grooming_oracle::reference;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// End-to-end speedup floor asserted by the full (non-`--fast`) run.
const SPEEDUP_FLOOR: f64 = 1.5;

/// One sweep cell: a pinned instance, a grooming factor, and the RNG seed
/// both paths start from.
struct Cell<'a> {
    g: &'a Graph,
    k: usize,
    seed: u64,
}

/// Deterministic per-cell seed so both paths (and every rerun) consume an
/// identical RNG stream.
fn cell_seed(group: usize, k: usize, s: usize) -> u64 {
    ((group as u64) << 32) ^ ((k as u64) << 16) ^ (s as u64) ^ 0x00f1_660d
}

fn cells<'a>(groups: &'a [Vec<Graph>], ks: &[usize]) -> Vec<Cell<'a>> {
    let mut out = Vec::new();
    for (gi, graphs) in groups.iter().enumerate() {
        for &k in ks {
            for (s, g) in graphs.iter().enumerate() {
                out.push(Cell {
                    g,
                    k,
                    seed: cell_seed(gi, k, s),
                });
            }
        }
    }
    out
}

struct StageResult {
    stage: &'static str,
    cells: usize,
    ref_ms: f64,
    new_ms: f64,
    cost: usize,
}

impl StageResult {
    fn speedup(&self) -> f64 {
        self.ref_ms / self.new_ms.max(1e-9)
    }
}

/// Sweeps every cell through `new_path` and `ref_path`, asserts the
/// partitions match cell by cell, and reports the per-path wall clock.
fn run_stage(
    stage: &'static str,
    cells: &[Cell<'_>],
    reps: usize,
    mut new_path: impl FnMut(&Cell<'_>) -> EdgePartition,
    mut ref_path: impl FnMut(&Cell<'_>) -> EdgePartition,
) -> StageResult {
    let (new_ms, new_parts) =
        time_best(reps, || cells.iter().map(&mut new_path).collect::<Vec<_>>());
    let (ref_ms, ref_parts) =
        time_best(reps, || cells.iter().map(&mut ref_path).collect::<Vec<_>>());
    for (i, ((cell, a), b)) in cells.iter().zip(&new_parts).zip(&ref_parts).enumerate() {
        assert_eq!(
            a,
            b,
            "{stage}: live path diverged from reference at cell {i} \
             (n={}, m={}, k={})",
            cell.g.num_nodes(),
            cell.g.num_edges(),
            cell.k
        );
    }
    let cost = cells
        .iter()
        .zip(&new_parts)
        .map(|(cell, p)| p.sadm_cost(cell.g))
        .sum();
    StageResult {
        stage,
        cells: cells.len(),
        ref_ms,
        new_ms,
        cost,
    }
}

fn main() {
    let h = Harness::from_env("perf_pipeline", "results/BENCH_pipeline.json", false);
    let reps = if h.fast() { 1 } else { 3 };
    let (ks, seeds): (&[usize], usize) = if h.fast() {
        (&[4, 16, 64], 3)
    } else {
        (&[2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64], 20)
    };

    // Pinned Figure-4 instances: n = 36, m = round(n^(1+d)).
    let dense_ds = [0.3f64, 0.5, 0.7];
    let dense_groups: Vec<Vec<Graph>> = dense_ds
        .iter()
        .map(|&d| {
            (0..seeds)
                .map(|s| Workload::DenseRatio { n: 36, d }.instance(s as u64))
                .collect()
        })
        .collect();
    let dense_cells = cells(&dense_groups, ks);

    // Pinned Figure-5 instances for Regular_Euler: r ∈ {7, 8, 15, 16}.
    let regular_rs = [7usize, 8, 15, 16];
    let regular_groups: Vec<Vec<Graph>> = regular_rs
        .iter()
        .map(|&r| {
            (0..seeds)
                .map(|s| Workload::Regular { n: 36, r }.instance(s as u64))
                .collect()
        })
        .collect();
    let regular_cells = cells(&regular_groups, ks);

    println!(
        "perf_pipeline: {} dense cells + {} regular cells, best of {reps}",
        dense_cells.len(),
        regular_cells.len()
    );

    let stages = vec![
        run_stage(
            "spant_euler",
            &dense_cells,
            reps,
            |c| {
                spant_euler(
                    c.g,
                    c.k,
                    TreeStrategy::Bfs,
                    &mut StdRng::seed_from_u64(c.seed),
                )
            },
            |c| {
                reference::spant_euler(
                    c.g,
                    c.k,
                    TreeStrategy::Bfs,
                    &mut StdRng::seed_from_u64(c.seed),
                )
            },
        ),
        run_stage(
            "regular_euler",
            &regular_cells,
            reps,
            |c| regular_euler(c.g, c.k).expect("regular instance"),
            |c| reference::regular_euler(c.g, c.k).expect("regular instance"),
        ),
        run_stage(
            "goldschmidt",
            &dense_cells,
            reps,
            |c| baselines::goldschmidt(c.g, c.k, &mut StdRng::seed_from_u64(c.seed)),
            |c| reference::goldschmidt(c.g, c.k, &mut StdRng::seed_from_u64(c.seed)),
        ),
        run_stage(
            "brauner",
            &dense_cells,
            reps,
            |c| baselines::brauner(c.g, c.k),
            |c| reference::brauner(c.g, c.k),
        ),
        run_stage(
            "wang_gu_icc06",
            &dense_cells,
            reps,
            |c| baselines::wang_gu_icc06(c.g, c.k, &mut StdRng::seed_from_u64(c.seed)),
            |c| reference::wang_gu_icc06(c.g, c.k, &mut StdRng::seed_from_u64(c.seed)),
        ),
    ];

    let pipe_ref: f64 = stages.iter().map(|s| s.ref_ms).sum();
    let pipe_new: f64 = stages.iter().map(|s| s.new_ms).sum();
    let pipe_speedup = pipe_ref / pipe_new.max(1e-9);
    for s in &stages {
        println!(
            "  {:<14} ref {:>9.3} ms   new {:>9.3} ms   speedup {:>6.2}x   cells {:>4}   identical",
            s.stage,
            s.ref_ms,
            s.new_ms,
            s.speedup(),
            s.cells
        );
    }
    println!(
        "  {:<14} ref {:>9.3} ms   new {:>9.3} ms   speedup {:>6.2}x",
        "pipeline", pipe_ref, pipe_new, pipe_speedup
    );

    let stage_rows = stages.iter().map(|s| {
        Json::Obj(fields![
            "stage" => s.stage, "cells" => s.cells, "ref_ms" => fixed(s.ref_ms, 3),
            "new_ms" => fixed(s.new_ms, 3), "speedup" => fixed(s.speedup(), 2),
            "total_cost" => s.cost, "identical" => true,
        ])
    });
    h.write(fields![
        "fast" => h.fast(),
        "reps" => reps,
        "grid" => Json::Obj(fields![
            "n" => 36usize, "ds" => Json::raw(format!("{dense_ds:?}")),
            "rs" => Json::raw(format!("{regular_rs:?}")), "ks" => Json::raw(format!("{ks:?}")),
            "seeds" => seeds,
        ]),
        "stages" => Json::Rows(stage_rows.collect()),
        "pipeline" => Json::Obj(fields![
            "ref_ms" => fixed(pipe_ref, 3), "new_ms" => fixed(pipe_new, 3),
            "speedup" => fixed(pipe_speedup, 2),
        ]),
    ]);

    if !h.fast() {
        h.check(
            "end-to-end pipeline speedup",
            pipe_speedup,
            Bound::AtLeast(SPEEDUP_FLOOR),
        );
    }
}
