//! Shared experiment harness for the figure-regeneration binaries.
//!
//! The paper evaluates on random traffic graphs (`n = 36`,
//! `m = n^(1+d)`) and random `r`-regular graphs, averaging SADM counts over
//! seeds for each grooming factor `k`. This crate provides:
//!
//! * [`sweep`] — the seed-parallel measurement loop (scoped threads, one
//!   seed per task, per-attempt RNG streams derived from a master seed so
//!   results are bit-identical at any `--jobs` count);
//! * [`table`] — fixed-width table printing shared by all binaries;
//! * [`workload`] — the paper's instance generators with their parameters;
//! * [`harness`] — the `perf_*` binaries' flags, tiers, RSS and bound
//!   gates, and `BENCH_*.json` writer;
//! * [`ms`] and [`time_best`] — the `perf_*` binaries' wall-clock readings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

pub mod harness;
pub mod plot;
pub mod sweep;
pub mod table;
pub mod workload;

/// Default number of random seeds averaged per configuration.
pub const DEFAULT_SEEDS: u64 = 20;

/// The paper's ring size.
pub const PAPER_N: usize = 36;

/// The grooming factors swept in the figures (the paper's x axis).
pub const K_VALUES: [usize; 11] = [2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64];

/// Milliseconds elapsed since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Times `f` over `reps` repetitions and returns (best milliseconds, output
/// of the last run). Every repetition must be a from-scratch run (the
/// closure captures only immutable inputs).
pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let value = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(value);
    }
    (best * 1e3, out.expect("reps >= 1"))
}

/// Parses `--seeds N`, `--fast`, `--jobs N`, `--master-seed S` and
/// `--svg DIR` from argv; `--fast` caps seeds at 5 and thins the `k`
/// sweep (for smoke tests).
pub fn parse_args() -> RunOptions {
    let mut opts = RunOptions {
        seeds: DEFAULT_SEEDS,
        fast: false,
        svg_dir: None,
        jobs: 0,
        master_seed: sweep::DEFAULT_MASTER_SEED,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => {
                let v = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seeds needs an integer");
                opts.seeds = v;
            }
            "--fast" => opts.fast = true,
            "--jobs" => {
                opts.jobs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--jobs needs an integer (0 = auto)");
            }
            "--master-seed" => {
                opts.master_seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--master-seed needs an integer");
            }
            "--svg" => {
                let dir = args.next().expect("--svg needs a directory");
                opts.svg_dir = Some(dir.into());
            }
            other => {
                eprintln!(
                    "unknown argument {other:?} (supported: --seeds N, --fast, \
                     --jobs N, --master-seed S, --svg DIR)"
                );
                std::process::exit(2);
            }
        }
    }
    if opts.fast {
        opts.seeds = opts.seeds.min(5);
    }
    opts
}

/// Command-line options shared by the binaries.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Seeds averaged per configuration.
    pub seeds: u64,
    /// Thin sweeps for smoke testing.
    pub fast: bool,
    /// When set, figure binaries also write SVG charts into this directory.
    pub svg_dir: Option<std::path::PathBuf>,
    /// Worker threads for sweeps (`0` = one per core).
    pub jobs: usize,
    /// Master seed for the per-attempt RNG stream derivation.
    pub master_seed: u64,
}

impl RunOptions {
    /// The sweep execution knobs these options select.
    pub fn sweep_config(&self) -> sweep::SweepConfig {
        sweep::SweepConfig {
            jobs: self.jobs,
            master_seed: self.master_seed,
        }
    }
}

impl RunOptions {
    /// Writes an SVG chart for the given rows if `--svg` was requested.
    pub fn maybe_write_svg(
        &self,
        file_stem: &str,
        title: &str,
        algorithms: &[grooming::algorithm::Algorithm],
        rows: &[sweep::Row],
    ) {
        let Some(dir) = &self.svg_dir else { return };
        let series: Vec<plot::Series> = algorithms
            .iter()
            .enumerate()
            .map(|(i, a)| plot::Series {
                label: a.name().to_string(),
                points: rows
                    .iter()
                    .map(|r| (r.k as f64, r.cells[i].mean_sadm))
                    .collect(),
            })
            .collect();
        let spec = plot::ChartSpec {
            title: title.to_string(),
            x_label: "grooming factor k (log scale)".to_string(),
            y_label: "SADMs (mean)".to_string(),
            log_x: true,
            ..Default::default()
        };
        let svg = plot::line_chart(&spec, &series);
        std::fs::create_dir_all(dir).expect("create --svg directory");
        let path = dir.join(format!("{file_stem}.svg"));
        std::fs::write(&path, svg).expect("write SVG");
        println!("wrote {}", path.display());
    }
}

impl RunOptions {
    /// The grooming-factor sweep honoring `--fast`.
    pub fn k_values(&self) -> Vec<usize> {
        if self.fast {
            vec![4, 16, 64]
        } else {
            K_VALUES.to_vec()
        }
    }
}
