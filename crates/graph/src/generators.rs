//! Graph generators: the paper's evaluation workloads plus named families.
//!
//! The ICPP'06 evaluation uses two random models:
//!
//! * **`G(n, m)`** — `n = 36` nodes and `m = n^(1+d)` edges for a *dense
//!   ratio* `d`, sampled uniformly among all `C(n,2)`-choose-`m` edge sets
//!   ([`gnm`]).
//! * **random `r`-regular graphs** — the paper uses Meringer's GenReg; we
//!   substitute a circulant seed randomized by double-edge swaps
//!   ([`random_regular`]), the standard MCMC sampler for simple regular
//!   graphs (see DESIGN.md §3 for the substitution rationale).
//!
//! Named families (complete, cycle, Petersen, grids, circulants) support
//! tests, and [`steiner_triple_system`] produces triangle *decompositions* of
//! `K_n` — positive instances for the NP-hardness reduction machinery.

use crate::graph::Graph;
use crate::ids::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// Number of unordered node pairs.
fn pair_count(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

/// Decodes a pair index `0 ≤ idx < C(n,2)` into an unordered pair `(v, u)`
/// with `v < u` (colexicographic order).
fn decode_pair(idx: usize) -> (u32, u32) {
    // u is the largest integer with C(u,2) <= idx.
    let mut u = ((1.0 + (1.0 + 8.0 * idx as f64).sqrt()) / 2.0) as usize;
    while u * (u - 1) / 2 > idx {
        u -= 1;
    }
    while (u + 1) * u / 2 <= idx {
        u += 1;
    }
    let v = idx - u * (u - 1) / 2;
    (v as u32, u as u32)
}

/// Uniform random simple graph with exactly `m` edges (the paper's random
/// traffic graph model with `m = round(n^(1+d))`).
///
/// Cost is O(m) time and memory at scale: `rand::seq::index::sample` uses
/// Floyd's algorithm once the pair count outgrows its Fisher–Yates cutoff,
/// so `gnm(100_000, 2_000_000, ..)` never materialises the ~5·10⁹-entry
/// pair table.
///
/// # Panics
/// Panics if `m > C(n, 2)`.
pub fn gnm<R: Rng>(n: usize, m: usize, rng: &mut R) -> Graph {
    let total = pair_count(n);
    assert!(m <= total, "requested {m} edges but K_{n} has only {total}");
    let picks = rand::seq::index::sample(rng, total, m);
    let mut g = Graph::new(n);
    for idx in picks {
        let (v, u) = decode_pair(idx);
        g.add_edge(NodeId(v), NodeId(u));
    }
    g
}

/// The paper's edge-count rule: `m = round(n^(1+d))` for dense ratio `d`,
/// clamped to `C(n,2)`.
pub fn dense_ratio_edges(n: usize, d: f64) -> usize {
    let m = (n as f64).powf(1.0 + d).round() as usize;
    m.min(pair_count(n))
}

/// Erdős–Rényi `G(n, p)` via geometric skip sampling: instead of one
/// Bernoulli draw per pair (O(n²) at any density), the gap to the next
/// present edge is drawn directly as `⌊ln(1−U) / ln(1−p)⌋`, giving
/// O(n + m) expected time. Usable at `n = 10⁵` for sparse `p`.
///
/// Note: this changed the RNG stream relative to the original per-pair
/// loop (one uniform per *edge* rather than per *pair*). `gnp` has no
/// golden-pinned instances, so no digests move.
pub fn gnp<R: Rng>(n: usize, p: f64, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    let p = p.clamp(0.0, 1.0);
    if n < 2 || p <= 0.0 {
        return g;
    }
    if p >= 1.0 {
        return complete(n);
    }
    let total = pair_count(n);
    let log_q = (1.0 - p).ln(); // < 0 since 0 < p < 1
    let mut idx = 0usize;
    while idx < total {
        // U in [0, 1) so 1−U in (0, 1]: the gap is finite and >= 0.
        let u = rng.gen_range(0.0f64..1.0);
        let gap = ((1.0 - u).ln() / log_q).floor();
        if gap >= (total - idx) as f64 {
            break;
        }
        idx += gap as usize;
        let (v, w) = decode_pair(idx);
        g.add_edge(NodeId(v), NodeId(w));
        idx += 1;
    }
    g
}

/// Chung–Lu expected-degree random graph: edge `{u, v}` is present with
/// probability `min(w_u · w_v / Σw, 1)`, independently. Implemented with
/// the Miller–Hagberg skip-sampling scheme — nodes are visited in
/// descending-weight order and the inner loop thins a geometric skip at
/// the current upper-bound probability — for O(n + m) expected time.
///
/// Node `i` of the returned graph keeps weight `weights[i]` regardless of
/// the internal ordering.
///
/// # Panics
/// Panics if any weight is negative or non-finite.
pub fn chung_lu<R: Rng>(weights: &[f64], rng: &mut R) -> Graph {
    let n = weights.len();
    let mut g = Graph::new(n);
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "Chung-Lu weights must be finite and non-negative"
    );
    let s: f64 = weights.iter().sum();
    if n < 2 || s <= 0.0 {
        return g;
    }
    // Descending-weight order (ties broken by node id) makes the
    // upper-bound probability monotone along the inner loop.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        weights[b as usize]
            .partial_cmp(&weights[a as usize])
            .unwrap()
            .then(a.cmp(&b))
    });
    let w: Vec<f64> = order.iter().map(|&i| weights[i as usize]).collect();
    for i in 0..n - 1 {
        if w[i] <= 0.0 {
            break; // all remaining weights are zero
        }
        let mut j = i + 1;
        let mut p = (w[i] * w[j] / s).min(1.0);
        while j < n && p > 0.0 {
            if p < 1.0 {
                let u = rng.gen_range(0.0f64..1.0);
                let gap = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
                if gap >= (n - j) as f64 {
                    break;
                }
                j += gap as usize;
            }
            // Thinning: the skip over-samples at rate p >= q; accept with
            // probability q/p to land at the exact per-pair probability.
            let q = (w[i] * w[j] / s).min(1.0);
            if rng.gen_range(0.0f64..1.0) < q / p {
                g.add_edge(NodeId(order[i]), NodeId(order[j]));
            }
            p = q;
            j += 1;
        }
    }
    g
}

/// Power-law random graph: Chung–Lu with deterministic weights
/// `w_i ∝ (i+1)^(−1/(γ−1))` scaled to mean `avg_degree` — the standard
/// continuous approximation of a degree exponent `γ`.
///
/// # Panics
/// Panics unless `γ > 2` (finite mean) and `avg_degree > 0`.
pub fn power_law<R: Rng>(n: usize, gamma: f64, avg_degree: f64, rng: &mut R) -> Graph {
    assert!(
        gamma > 2.0,
        "power-law exponent must exceed 2 (got {gamma})"
    );
    assert!(
        avg_degree > 0.0 && avg_degree.is_finite(),
        "average degree must be positive"
    );
    if n == 0 {
        return Graph::new(0);
    }
    let alpha = -1.0 / (gamma - 1.0);
    let mut weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(alpha)).collect();
    let mean: f64 = weights.iter().sum::<f64>() / n as f64;
    let scale = avg_degree / mean;
    for w in &mut weights {
        *w *= scale;
    }
    chung_lu(&weights, rng)
}

/// Random geometric graph: `n` points uniform in the unit square, an edge
/// whenever two points are within Euclidean distance `radius`. A grid of
/// cells with side `>= radius` restricts candidate pairs to the 3×3 cell
/// neighborhood, for O(n + m) expected time.
///
/// # Panics
/// Panics unless `0 < radius` and `radius` is finite.
pub fn random_geometric<R: Rng>(n: usize, radius: f64, rng: &mut R) -> Graph {
    assert!(
        radius > 0.0 && radius.is_finite(),
        "radius must be positive and finite"
    );
    let mut g = Graph::new(n);
    if n < 2 {
        return g;
    }
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0f64..1.0), rng.gen_range(0.0f64..1.0)))
        .collect();
    // floor(1/r) cells of side 1/cells >= r; capped at n so the grid stays
    // O(n²_cells) <= O(n²)… and at least 1. For sub-1/n radii the cap keeps
    // cell side 1/n > radius, so the 3x3 scan stays sufficient.
    let cells = (((1.0 / radius) as usize).max(1)).min(n);
    let cell_of = |x: f64| ((x * cells as f64) as usize).min(cells - 1);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); cells * cells];
    for (i, &(x, y)) in pts.iter().enumerate() {
        buckets[cell_of(y) * cells + cell_of(x)].push(i as u32);
    }
    let r2 = radius * radius;
    for u in 0..n {
        let (x, y) = pts[u];
        let (cx, cy) = (cell_of(x), cell_of(y));
        for dy in cy.saturating_sub(1)..=(cy + 1).min(cells - 1) {
            for dx in cx.saturating_sub(1)..=(cx + 1).min(cells - 1) {
                for &v in &buckets[dy * cells + dx] {
                    if (v as usize) <= u {
                        continue;
                    }
                    let (px, py) = pts[v as usize];
                    let (ddx, ddy) = (px - x, py - y);
                    if ddx * ddx + ddy * ddy <= r2 {
                        g.add_edge(NodeId::new(u), NodeId(v));
                    }
                }
            }
        }
    }
    g
}

/// Random simple `r`-regular graph: deterministic circulant seed followed by
/// `10·m` attempted double-edge swaps (each swap preserves the degree
/// sequence and simplicity).
///
/// # Panics
/// Panics unless `0 < r < n` and `n·r` is even (no `r`-regular graph exists
/// otherwise).
pub fn random_regular<R: Rng>(n: usize, r: usize, rng: &mut R) -> Graph {
    let g = circulant_regular(n, r);
    randomize_by_swaps(g, 10, rng)
}

/// Deterministic `r`-regular circulant on `n` nodes: node `i` connects to
/// `i ± 1, …, i ± ⌊r/2⌋`, plus the antipode `i + n/2` when `r` is odd.
///
/// # Panics
/// Panics unless `0 < r < n` and `n·r` is even.
pub fn circulant_regular(n: usize, r: usize) -> Graph {
    assert!(r > 0 && r < n, "need 0 < r < n (got r={r}, n={n})");
    assert!(n * r % 2 == 0, "no r-regular graph on n nodes: n*r is odd");
    let mut offsets: Vec<usize> = (1..=r / 2).collect();
    let mut g = Graph::new(n);
    if r % 2 == 1 {
        offsets.push(n / 2); // n is even here since n*r is even and r odd
    }
    for &off in &offsets {
        for i in 0..n {
            let j = (i + off) % n;
            // The antipodal offset pairs i with i+n/2 twice per sweep when
            // off == n/2; emit each such edge once.
            if off * 2 == n && i >= n / 2 {
                continue;
            }
            // Offsets larger than n/2 would duplicate smaller ones; the
            // construction keeps off <= n/2 so each (i, off) is unique.
            g.add_edge(NodeId::new(i), NodeId::new(j));
        }
    }
    debug_assert!(g.is_regular(r), "circulant construction is r-regular");
    debug_assert!(g.is_simple());
    g
}

/// Randomizes a simple graph by degree-preserving double-edge swaps:
/// pick edges `{a,b}`, `{c,d}` with four distinct endpoints and replace them
/// by `{a,c}`, `{b,d}` when both are absent. Performs `factor · m` attempts.
pub fn randomize_by_swaps<R: Rng>(g: Graph, factor: usize, rng: &mut R) -> Graph {
    let n = g.num_nodes();
    let mut edges: Vec<(u32, u32)> = g
        .edge_list()
        .iter()
        .map(|&(u, v)| (u.0.min(v.0), u.0.max(v.0)))
        .collect();
    let m = edges.len();
    if m < 2 {
        return g;
    }
    let mut present: HashSet<(u32, u32)> = edges.iter().copied().collect();
    let attempts = factor * m;
    for _ in 0..attempts {
        let i = rng.gen_range(0..m);
        let j = rng.gen_range(0..m);
        if i == j {
            continue;
        }
        let (a, b) = edges[i];
        let (c, d) = edges[j];
        // Randomly orient the second edge to explore both rewirings.
        let (c, d) = if rng.gen_bool(0.5) { (c, d) } else { (d, c) };
        let ends = [a, b, c, d];
        if ends[0] == ends[2] || ends[0] == ends[3] || ends[1] == ends[2] || ends[1] == ends[3] {
            continue; // shared endpoint: swap would create a loop
        }
        let e1 = (a.min(c), a.max(c));
        let e2 = (b.min(d), b.max(d));
        if present.contains(&e1) || present.contains(&e2) {
            continue; // would create a parallel edge
        }
        present.remove(&edges[i]);
        present.remove(&edges[j]);
        present.insert(e1);
        present.insert(e2);
        edges[i] = e1;
        edges[j] = e2;
    }
    edges.shuffle(rng);
    Graph::from_edges(n, &edges)
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            g.add_edge(NodeId(u), NodeId(v));
        }
    }
    g
}

/// Cycle `C_n` (`n ≥ 3`).
///
/// # Panics
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 nodes");
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_edge(NodeId::new(i), NodeId::new((i + 1) % n));
    }
    g
}

/// Path `P_n` with `n` nodes and `n−1` edges.
pub fn path(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(NodeId::new(i - 1), NodeId::new(i));
    }
    g
}

/// Star `K_{1,n−1}`: hub `0`, leaves `1..n`.
pub fn star(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(NodeId(0), NodeId::new(i));
    }
    g
}

/// The Petersen graph (10 nodes, 15 edges, 3-regular).
pub fn petersen() -> Graph {
    let mut g = Graph::new(10);
    for i in 0..5u32 {
        g.add_edge(NodeId(i), NodeId((i + 1) % 5)); // outer pentagon
        g.add_edge(NodeId(i + 5), NodeId((i + 2) % 5 + 5)); // inner pentagram
        g.add_edge(NodeId(i), NodeId(i + 5)); // spokes
    }
    g
}

/// `w × h` grid graph.
pub fn grid(w: usize, h: usize) -> Graph {
    let mut g = Graph::new(w * h);
    let id = |x: usize, y: usize| NodeId::new(y * w + x);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                g.add_edge(id(x, y), id(x + 1, y));
            }
            if y + 1 < h {
                g.add_edge(id(x, y), id(x, y + 1));
            }
        }
    }
    g
}

/// A Steiner triple system on `n` points: a set of triples such that every
/// unordered pair of points lies in exactly one triple — equivalently, an
/// edge partition of `K_n` into triangles.
///
/// Implemented via the **Bose construction** for `n ≡ 3 (mod 6)`. Returns
/// `None` for other `n` (systems exist for `n ≡ 1 (mod 6)` too, but the
/// Skolem construction is not needed by this crate's consumers).
pub fn steiner_triple_system(n: usize) -> Option<Vec<[u32; 3]>> {
    if n % 6 != 3 {
        return None;
    }
    let q = n / 3; // odd: n = 6t + 3 => q = 2t + 1
    debug_assert_eq!(q % 2, 1);
    let half = q.div_ceil(2); // inverse of 2 modulo q
    let point = |i: usize, k: usize| (i + k * q) as u32;
    let mut triples = Vec::with_capacity(n * (n - 1) / 6);
    for i in 0..q {
        triples.push([point(i, 0), point(i, 1), point(i, 2)]);
    }
    for k in 0..3 {
        for i in 0..q {
            for j in (i + 1)..q {
                let mid = ((i + j) * half) % q;
                triples.push([point(i, k), point(j, k), point(mid, (k + 1) % 3)]);
            }
        }
    }
    Some(triples)
}

/// Validates that `triples` is a Steiner triple system on `n` points.
pub fn is_steiner_triple_system(n: usize, triples: &[[u32; 3]]) -> bool {
    if n * (n - 1) % 6 != 0 || triples.len() != n * (n - 1) / 6 {
        return false;
    }
    let mut seen = HashSet::with_capacity(n * (n - 1) / 2);
    for t in triples {
        let mut t = *t;
        t.sort_unstable();
        let [a, b, c] = t;
        if a == b || b == c || c as usize >= n {
            return false;
        }
        for pair in [(a, b), (a, c), (b, c)] {
            if !seen.insert(pair) {
                return false;
            }
        }
    }
    seen.len() == n * (n - 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn decode_pair_enumerates_all_pairs() {
        let n = 7;
        let mut seen = HashSet::new();
        for idx in 0..pair_count(n) {
            let (v, u) = decode_pair(idx);
            assert!(v < u && (u as usize) < n, "idx {idx} -> ({v},{u})");
            assert!(seen.insert((v, u)));
        }
        assert_eq!(seen.len(), pair_count(n));
    }

    #[test]
    fn gnm_has_exact_edge_count_and_is_simple() {
        for seed in 0..5 {
            let g = gnm(36, 216, &mut rng(seed));
            assert_eq!(g.num_nodes(), 36);
            assert_eq!(g.num_edges(), 216);
            assert!(g.is_simple());
        }
    }

    #[test]
    fn gnm_full_density_is_complete() {
        let g = gnm(6, 15, &mut rng(0));
        assert_eq!(g.num_edges(), 15);
        assert!(g.is_regular(5));
    }

    #[test]
    #[should_panic(expected = "only")]
    fn gnm_rejects_too_many_edges() {
        let _ = gnm(4, 7, &mut rng(0));
    }

    #[test]
    fn dense_ratio_matches_papers_formula() {
        // n = 36, d = 0.5 -> 36^1.5 = 216
        assert_eq!(dense_ratio_edges(36, 0.5), 216);
        // clamped at C(36,2) = 630
        assert_eq!(dense_ratio_edges(36, 2.0), 630);
    }

    #[test]
    fn gnp_extremes() {
        let g0 = gnp(10, 0.0, &mut rng(1));
        assert_eq!(g0.num_edges(), 0);
        let g1 = gnp(10, 1.0, &mut rng(1));
        assert_eq!(g1.num_edges(), 45);
    }

    #[test]
    fn gnp_skip_sampling_tracks_density() {
        let n = 200;
        let p = 0.1;
        let g = gnp(n, p, &mut rng(11));
        assert!(g.is_simple());
        let expected = (pair_count(n) as f64 * p) as usize; // 1990
        let m = g.num_edges();
        assert!(
            m > expected * 8 / 10 && m < expected * 12 / 10,
            "edge count {m} far from expected {expected}"
        );
    }

    #[test]
    fn chung_lu_uniform_weights_match_gnp_density() {
        // Uniform weight w on all nodes = G(n, p) with p = w²/(n·w) = w/n.
        let n = 300;
        let w = 8.0;
        let g = chung_lu(&vec![w; n], &mut rng(3));
        assert!(g.is_simple());
        let expected = (pair_count(n) as f64 * w / n as f64) as usize; // ~1196
        let m = g.num_edges();
        assert!(
            m > expected * 7 / 10 && m < expected * 13 / 10,
            "edge count {m} far from expected {expected}"
        );
    }

    #[test]
    fn chung_lu_degenerate_inputs() {
        assert_eq!(chung_lu(&[], &mut rng(0)).num_nodes(), 0);
        assert_eq!(chung_lu(&[1.0], &mut rng(0)).num_edges(), 0);
        assert_eq!(chung_lu(&[0.0; 10], &mut rng(0)).num_edges(), 0);
        // Zero-weight nodes stay isolated.
        let mut w = vec![5.0; 20];
        w[7] = 0.0;
        let g = chung_lu(&w, &mut rng(5));
        assert_eq!(g.degree(NodeId(7)), 0);
    }

    #[test]
    fn power_law_is_skewed_and_simple() {
        let g = power_law(500, 2.5, 6.0, &mut rng(9));
        assert!(g.is_simple());
        let degs: Vec<usize> = (0..500).map(|i| g.degree(NodeId::new(i))).collect();
        let max = *degs.iter().max().unwrap();
        let mean = degs.iter().sum::<usize>() as f64 / 500.0;
        assert!(mean > 2.0 && mean < 12.0, "mean degree {mean}");
        assert!(max as f64 > 3.0 * mean, "hub degree {max} vs mean {mean}");
    }

    #[test]
    fn random_geometric_matches_brute_force() {
        let n = 60;
        let radius = 0.22;
        let mut r = rng(13);
        let g = random_geometric(n, radius, &mut r);
        assert!(g.is_simple());
        // Re-derive the points from the same seed: the generator draws
        // exactly 2n uniforms up front.
        let mut r2 = rng(13);
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (r2.gen_range(0.0f64..1.0), r2.gen_range(0.0f64..1.0)))
            .collect();
        let have: HashSet<(u32, u32)> = g
            .edge_list()
            .iter()
            .map(|&(u, v)| (u.0.min(v.0), u.0.max(v.0)))
            .collect();
        let mut want = HashSet::new();
        for u in 0..n {
            for v in (u + 1)..n {
                let (dx, dy) = (pts[u].0 - pts[v].0, pts[u].1 - pts[v].1);
                if dx * dx + dy * dy <= radius * radius {
                    want.insert((u as u32, v as u32));
                }
            }
        }
        assert_eq!(have, want);
    }

    #[test]
    fn random_geometric_extreme_radii() {
        // Radius covering the whole square: complete graph.
        let g = random_geometric(12, 2.0, &mut rng(1));
        assert_eq!(g.num_edges(), pair_count(12));
        // Tiny radius below 1/n: the cell-count cap must not lose pairs.
        let g = random_geometric(40, 1e-9, &mut rng(2));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn circulant_regular_even_and_odd() {
        for (n, r) in [(9, 4), (10, 3), (36, 7), (36, 8), (36, 15), (36, 16)] {
            let g = circulant_regular(n, r);
            assert!(g.is_regular(r), "n={n} r={r}");
            assert!(g.is_simple());
            assert_eq!(g.num_edges(), n * r / 2);
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn circulant_rejects_odd_product() {
        let _ = circulant_regular(7, 3);
    }

    #[test]
    fn random_regular_keeps_degree_and_simplicity() {
        for (n, r) in [(36, 7), (36, 8), (36, 15), (36, 16), (20, 3)] {
            for seed in 0..3 {
                let g = random_regular(n, r, &mut rng(seed));
                assert!(g.is_regular(r), "n={n} r={r} seed={seed}");
                assert!(g.is_simple());
            }
        }
    }

    #[test]
    fn swaps_actually_change_the_graph() {
        let a = random_regular(36, 8, &mut rng(1));
        let b = random_regular(36, 8, &mut rng(2));
        let ea: HashSet<_> = a
            .edge_list()
            .iter()
            .map(|&(u, v)| (u.0.min(v.0), u.0.max(v.0)))
            .collect();
        let eb: HashSet<_> = b
            .edge_list()
            .iter()
            .map(|&(u, v)| (u.0.min(v.0), u.0.max(v.0)))
            .collect();
        assert_ne!(ea, eb, "two seeds should give different regular graphs");
    }

    #[test]
    fn named_families_have_expected_shapes() {
        assert_eq!(complete(5).num_edges(), 10);
        assert!(cycle(6).is_regular(2));
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(star(5).degree(NodeId(0)), 4);
        let p = petersen();
        assert!(p.is_regular(3));
        assert_eq!(p.num_edges(), 15);
        assert!(p.is_simple());
        let g = grid(3, 4);
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4); // 17
    }

    #[test]
    fn bose_sts_is_valid_for_small_orders() {
        for n in [3usize, 9, 15, 21, 27] {
            let sts = steiner_triple_system(n).unwrap();
            assert!(is_steiner_triple_system(n, &sts), "n = {n}");
        }
    }

    #[test]
    fn sts_absent_for_other_orders() {
        for n in [4usize, 6, 7, 8, 10, 12, 13] {
            assert!(steiner_triple_system(n).is_none(), "n = {n}");
        }
    }

    #[test]
    fn sts_validator_rejects_bad_systems() {
        let mut sts = steiner_triple_system(9).unwrap();
        sts[0] = sts[1]; // duplicate triple -> repeated pairs
        assert!(!is_steiner_triple_system(9, &sts));
        assert!(!is_steiner_triple_system(9, &[]));
    }
}
