//! Million-edge scale baseline for the sparse solve tier.
//!
//! Generates one instance per family — `gnm`, `power_law` (Chung–Lu), and
//! `random_geometric` — at the scale tier's pinned sizes, runs each through
//! generation, the `SpanT_Euler` construction, and sparse-incidence
//! refinement, and writes per-stage wall clock plus the process peak RSS to
//! `results/BENCH_scale.json`.
//!
//! Three contracts are enforced on top of the timings:
//!
//! * **bit-identity** — the forced-sparse refine is checked against the
//!   forced-dense refine (on a comparison cell small enough for the dense
//!   `W x n` incidence matrix to exist at all);
//! * **memory floor** — peak RSS must stay under the tier's documented
//!   ceiling ([`FAST_RSS_CEILING_MB`] / [`FULL_RSS_CEILING_MB`]). The full
//!   tier (`n = 100_000`, `m ≈ 300_000`, `k = 16`) is the teeth: a dense
//!   incidence matrix alone would need `W x n x 2 B ≈ 3.75 GB` there, so
//!   the 1 GiB ceiling is only reachable through the sparse path;
//! * **hub tail** — at the full tier, power-law refine must take at most
//!   [`POWER_LAW_REFINE_MAX_RATIO`] times gnm's: the sweep skips the swap
//!   pairs that provably miss, so Chung–Lu hubs no longer multiply the
//!   scan;
//! * **smoke** — `ci.sh` runs `--fast` (`n = 10_000`) on every gate.
//!
//! The tier above — `--huge`, `n = 1_000_000`, `m ≈ 3_000_000` — is the
//! documented full-mode scale target; it runs the same stages and ceiling
//! but is not part of the checked-in baseline (minutes of wall clock on
//! one core).
//!
//! Usage: `perf_scale [--fast | --huge] [--out PATH]`

use std::fmt::Write as _;
use std::time::Instant;

use grooming::algorithm::Algorithm;
use grooming::improve;
use grooming::solve::{Instance, SolveContext, Solver};
use grooming_bench::{ms, peak_rss_mb};
use grooming_graph::generators;
use grooming_graph::graph::Graph;
use grooming_graph::spanning::TreeStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Peak-RSS ceiling for the `--fast` tier (`n = 10_000`), asserted on
/// every run. Generous headroom over the observed footprint so allocator
/// noise cannot flake CI, but far below what a dense incidence matrix at
/// the comparison size would tolerate being leaked repeatedly.
const FAST_RSS_CEILING_MB: f64 = 256.0;

/// Peak-RSS ceiling for the full tier (`n = 100_000`): the documented
/// memory floor of the scale tier. Dense incidence at this size is ~3.75 GB,
/// so staying under 1 GiB proves the sparse path carried the solve.
const FULL_RSS_CEILING_MB: f64 = 1024.0;

/// Peak-RSS ceiling for the `--huge` tier (`n = 1_000_000`): linear-memory
/// headroom at 10x the full tier.
const HUGE_RSS_CEILING_MB: f64 = 8192.0;

/// Refinement rounds per instance — enough for the swap sweep to do real
/// work without dominating the construction stages at the huge tier.
const REFINE_ROUNDS: usize = 2;

/// Full-tier ceiling on power-law refine time over gnm refine time. The
/// filtered sweep measured 2.9× on a shared 2-vCPU host (7.2× before the
/// filters); 4× leaves room for that host's run-to-run swings.
const POWER_LAW_REFINE_MAX_RATIO: f64 = 4.0;

#[derive(Clone, Copy, PartialEq)]
enum Tier {
    Fast,
    Full,
    Huge,
}

impl Tier {
    fn n(self) -> usize {
        match self {
            Tier::Fast => 10_000,
            Tier::Full => 100_000,
            Tier::Huge => 1_000_000,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Tier::Fast => "fast",
            Tier::Full => "full",
            Tier::Huge => "huge",
        }
    }

    fn rss_ceiling_mb(self) -> f64 {
        match self {
            Tier::Fast => FAST_RSS_CEILING_MB,
            Tier::Full => FULL_RSS_CEILING_MB,
            Tier::Huge => HUGE_RSS_CEILING_MB,
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
        out: "results/BENCH_scale.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => opts.tier = Tier::Fast,
            "--huge" => opts.tier = Tier::Huge,
            "--out" => {
                opts.out = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: perf_scale [--fast | --huge] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    opts
}

struct FamilyResult {
    family: &'static str,
    n: usize,
    m: usize,
    k: usize,
    generate_ms: f64,
    construct_ms: f64,
    refine_ms: f64,
    swaps_evaluated: u64,
    cost_constructed: usize,
    cost_refined: usize,
    wavelengths: usize,
}

/// Generates, constructs (through the solve surface), and refines one
/// family instance, timing each stage.
fn run_family(
    family: &'static str,
    n: usize,
    k: usize,
    generate: impl FnOnce(&mut StdRng) -> Graph,
) -> FamilyResult {
    let mut rng = StdRng::seed_from_u64(0x5ca1e ^ family.len() as u64);
    let t = Instant::now();
    let g = generate(&mut rng);
    let generate_ms = ms(t);
    let m = g.num_edges();

    let mut ctx = SolveContext::seeded(7);
    let t = Instant::now();
    let sol = Algorithm::SpanTEuler(TreeStrategy::Bfs)
        .solve(&Instance::upsr(g.clone(), k), &mut ctx)
        .expect("UPSR solves are total");
    let construct_ms = ms(t);
    let constructed = sol.plan.partition().expect("UPSR plan").clone();
    let cost_constructed = constructed.sadm_cost(&g);

    let t = Instant::now();
    let (refined, swaps_evaluated) = improve::refine_with_stats(&g, k, &constructed, REFINE_ROUNDS);
    let refine_ms = ms(t);
    let cost_refined = refined.sadm_cost(&g);
    assert!(
        cost_refined <= cost_constructed,
        "{family}: refine regressed"
    );

    println!(
        "  {family:<17} n {n:>8} m {m:>8}  generate {generate_ms:>9.1} ms  \
         construct {construct_ms:>9.1} ms  refine {refine_ms:>9.1} ms \
         ({swaps_evaluated} swaps)  cost {cost_constructed} -> {cost_refined}"
    );
    FamilyResult {
        family,
        n,
        m,
        k,
        generate_ms,
        construct_ms,
        refine_ms,
        swaps_evaluated,
        cost_constructed,
        cost_refined,
        wavelengths: refined.num_wavelengths(),
    }
}

/// Asserts forced-sparse and forced-dense refinement agree bit-for-bit on
/// a cell small enough for the dense incidence matrix, returning both
/// timings.
fn incidence_identity(n: usize, m: usize, k: usize) -> (f64, f64) {
    let g = generators::gnm(n, m, &mut StdRng::seed_from_u64(5));
    let base = grooming::spant_euler(&g, k, TreeStrategy::Bfs, &mut StdRng::seed_from_u64(6));
    let t = Instant::now();
    let sparse = improve::refine_forced_incidence(&g, k, &base, REFINE_ROUNDS, true);
    let sparse_ms = ms(t);
    let t = Instant::now();
    let dense = improve::refine_forced_incidence(&g, k, &base, REFINE_ROUNDS, false);
    let dense_ms = ms(t);
    assert_eq!(
        sparse.parts(),
        dense.parts(),
        "sparse refine diverged from dense (n={n}, m={m}, k={k})"
    );
    (sparse_ms, dense_ms)
}

fn main() {
    let opts = parse_opts();
    let tier = opts.tier;
    let n = tier.n();
    let k = 16usize;
    let m_gnm = 3 * n;
    // Target average degree 6 for the implicit-m families, matching gnm's
    // m = 3n: power-law exponent 2.5, geometric radius r = sqrt(6 / (pi n)).
    let avg_degree = 6.0f64;
    let radius = (avg_degree / (std::f64::consts::PI * n as f64)).sqrt();

    println!("perf_scale: tier {} (n = {n}, k = {k})", tier.name());
    let families = vec![
        run_family("gnm", n, k, |rng| generators::gnm(n, m_gnm, rng)),
        run_family("power_law", n, k, |rng| {
            generators::power_law(n, 2.5, avg_degree, rng)
        }),
        run_family("random_geometric", n, k, |rng| {
            generators::random_geometric(n, radius, rng)
        }),
    ];
    for f in &families {
        assert!(
            f.m >= n.div_ceil(10),
            "{}: degenerate instance (m = {})",
            f.family,
            f.m
        );
    }

    // Identity cell: a fixed mid-size instance regardless of tier, so the
    // contract runs (and the dense matrix fits) even in --fast.
    let (sparse_ms, dense_ms) = incidence_identity(4_096, 40_960, k);
    println!("  incidence identity ok (sparse {sparse_ms:.1} ms, dense {dense_ms:.1} ms)");

    let peak_mb = peak_rss_mb();
    let ceiling = tier.rss_ceiling_mb();
    println!("  peak RSS {peak_mb:.1} MiB (ceiling {ceiling:.0} MiB)");

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"perf_scale\",\n  \"tier\": \"{}\",\n  \"k\": {k},\n  \"families\": [\n",
        tier.name()
    );
    for (i, f) in families.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"family\": \"{}\", \"n\": {}, \"m\": {}, \"k\": {}, \
             \"generate_ms\": {:.1}, \"construct_ms\": {:.1}, \"refine_ms\": {:.1}, \
             \"swaps_evaluated\": {}, \"cost_constructed\": {}, \"cost_refined\": {}, \
             \"wavelengths\": {}}}{}",
            f.family,
            f.n,
            f.m,
            f.k,
            f.generate_ms,
            f.construct_ms,
            f.refine_ms,
            f.swaps_evaluated,
            f.cost_constructed,
            f.cost_refined,
            f.wavelengths,
            if i + 1 < families.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"incidence_identity\": {{\"n\": 4096, \"m\": 40960, \
         \"sparse_ms\": {sparse_ms:.1}, \"dense_ms\": {dense_ms:.1}, \"identical\": true}},\n  \
         \"peak_rss_mb\": {peak_mb:.1},\n  \"rss_ceiling_mb\": {ceiling:.0}\n}}\n"
    );
    std::fs::write(&opts.out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", opts.out);
        std::process::exit(1);
    });
    println!("baseline written to {}", opts.out);

    assert!(
        peak_mb < ceiling,
        "peak RSS {peak_mb:.1} MiB breached the {} tier's documented \
         ceiling of {ceiling:.0} MiB — the sparse path regressed",
        tier.name()
    );
    // families[0] is gnm, families[1] power_law.
    let ratio = families[1].refine_ms / families[0].refine_ms;
    println!("  power_law / gnm refine time {ratio:.1}x");
    if tier == Tier::Full {
        assert!(
            ratio <= POWER_LAW_REFINE_MAX_RATIO,
            "power_law refine took {ratio:.1}x gnm's, above the \
             {POWER_LAW_REFINE_MAX_RATIO:.0}x ceiling — the sweep's miss filters regressed"
        );
    }
}
