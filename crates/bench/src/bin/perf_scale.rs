//! Million-edge scale baseline for the sparse solve tier.
//!
//! Generates one instance per family — `gnm`, `power_law` (Chung–Lu), and
//! `random_geometric` — at the scale tier's pinned sizes, runs each through
//! generation, the `SpanT_Euler` construction, and sparse-incidence
//! refinement (every scale-tier instance is far above the engine's dense
//! cutover, so it runs on per-part rows and views), and writes per-stage
//! wall clock plus the process peak RSS to `results/BENCH_scale.json`.
//!
//! Five contracts are enforced on top of the timings:
//!
//! * **bit-identity** — the forced-sparse refine is checked against the
//!   forced-dense refine (on a comparison cell small enough for the dense
//!   `W x n` incidence matrix to exist at all);
//! * **memory floor** — peak RSS must stay under the tier's documented
//!   ceiling ([`Tier::rss_ceiling_mb`]: 256 MiB fast, 1 GiB full, 8 GiB
//!   huge). The full tier (`n = 100_000`, `m ≈ 300_000`, `k = 16`) is the
//!   teeth: a dense incidence matrix alone would need
//!   `W x n x 2 B ≈ 3.75 GB` there, so the 1 GiB ceiling is only reachable
//!   through the sparse path;
//! * **hub tail** — at the full tier, power-law refine must take at most
//!   [`POWER_LAW_REFINE_MAX_RATIO`] times gnm's: the sweep skips the swap
//!   pairs that provably miss, so Chung–Lu hubs no longer multiply the
//!   scan;
//! * **work** — at the fast tier, each family's `swaps_evaluated` must not
//!   rise above [`FAST_SWAPS_EVALUATED`], a deterministic count beside the
//!   noisy wall clock;
//! * **smoke** — `ci.sh` runs `--fast` (`n = 10_000`) on every gate.
//!
//! The tier above — `--huge`, `n = 1_000_000`, `m ≈ 3_000_000` — is the
//! documented full-mode scale target; it runs the same stages and ceiling
//! but is not part of the checked-in baseline (minutes of wall clock on
//! one core).
//!
//! Usage: `perf_scale [--fast | --huge] [--out PATH]`

use std::time::Instant;

use grooming::algorithm::Algorithm;
use grooming::improve;
use grooming::solve::{Instance, SolveContext, Solver};
use grooming_bench::fields;
use grooming_bench::harness::{fixed, Bound, Harness, Json, Tier};
use grooming_bench::ms;
use grooming_graph::generators;
use grooming_graph::graph::Graph;
use grooming_graph::spanning::TreeStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Refinement rounds per instance — enough for the swap sweep to do real
/// work without dominating the construction stages at the huge tier.
const REFINE_ROUNDS: usize = 2;

/// Full-tier ceiling on power-law refine time over gnm refine time. The
/// filtered sweep measured 2.9× on a shared 2-vCPU host (7.2× before the
/// filters); 4× leaves room for that host's run-to-run swings.
const POWER_LAW_REFINE_MAX_RATIO: f64 = 4.0;

/// Fast-tier ceilings on each family's `swaps_evaluated`, in `run_family`
/// order (gnm, power_law, random_geometric). The sweep is deterministic:
/// two `perf_scale --fast` runs of the release build at commit f66c3d0
/// read exactly these counts both times. A sweep that stops skipping the
/// pairs that provably miss evaluates more swaps and trips the gate; a
/// change that lowers a count should lower its pin too.
const FAST_SWAPS_EVALUATED: [u64; 3] = [437_621, 961_682, 118_269];

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
    let h = Harness::from_env("perf_scale", "results/BENCH_scale.json", true);
    let n = match h.tier {
        Tier::Fast => 10_000,
        Tier::Full => 100_000,
        Tier::Huge => 1_000_000,
    };
    let k = 16usize;
    let m_gnm = 3 * n;
    // Target average degree 6 for the implicit-m families, matching gnm's
    // m = 3n: power-law exponent 2.5, geometric radius r = sqrt(6 / (pi n)).
    let avg_degree = 6.0f64;
    let radius = (avg_degree / (std::f64::consts::PI * n as f64)).sqrt();

    println!("perf_scale: tier {} (n = {n}, k = {k})", h.tier.name());
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
    let (id_n, id_m) = (4_096usize, 40_960usize);
    let (sparse_ms, dense_ms) = incidence_identity(id_n, id_m, k);
    println!("  incidence identity ok (sparse {sparse_ms:.1} ms, dense {dense_ms:.1} ms)");

    let rss = h.rss();

    let family_rows = families.iter().map(|f| {
        Json::Obj(fields![
            "family" => f.family, "n" => f.n, "m" => f.m, "k" => f.k,
            "generate_ms" => fixed(f.generate_ms, 1), "construct_ms" => fixed(f.construct_ms, 1),
            "refine_ms" => fixed(f.refine_ms, 1), "swaps_evaluated" => f.swaps_evaluated,
            "cost_constructed" => f.cost_constructed, "cost_refined" => f.cost_refined,
            "wavelengths" => f.wavelengths,
        ])
    });
    let mut doc = fields![
        "tier" => h.tier.name(),
        "k" => k,
        "families" => Json::Rows(family_rows.collect()),
        "incidence_identity" => Json::Obj(fields![
            "n" => id_n, "m" => id_m, "sparse_ms" => fixed(sparse_ms, 1),
            "dense_ms" => fixed(dense_ms, 1), "identical" => true,
        ]),
    ];
    doc.extend(rss.fields());
    h.write(doc);

    h.check_rss(&rss);
    if h.fast() {
        for (f, pinned) in families.iter().zip(FAST_SWAPS_EVALUATED) {
            let name = format!("{} swaps_evaluated", f.family);
            h.check(
                &name,
                f.swaps_evaluated as f64,
                Bound::AtMost(pinned as f64),
            );
        }
    }
    // families[0] is gnm, families[1] power_law.
    let ratio = families[1].refine_ms / families[0].refine_ms;
    println!("  power_law / gnm refine time {ratio:.1}x");
    if h.tier == Tier::Full {
        h.check(
            "power_law / gnm refine time",
            ratio,
            Bound::AtMost(POWER_LAW_REFINE_MAX_RATIO),
        );
    }
}
