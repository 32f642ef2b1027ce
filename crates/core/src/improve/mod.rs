//! Post-optimization and the paper's proposed extensions.
//!
//! The concluding remarks of the paper sketch two improvement directions:
//! *"heuristics on constructing denser sub-graphs in the k-edge partition,
//! for example, partitioning the traffic graph into sub-graphs which are
//! cliques or close to cliques"*. This module implements both:
//!
//! * [`refine`] — local search over an existing partition: single-edge
//!   moves and edge swaps between wavelengths, accepted when they strictly
//!   reduce the SADM count. Never increases cost or the wavelength count.
//! * [`merge_parts`] — greedy wavelength merging: fusing two parts that fit
//!   in one wavelength can only reduce cost (`|V_A ∪ V_B| ≤ |V_A| + |V_B|`)
//!   and always reduces the wavelength count.
//! * [`clique_first`] / [`dense_first`] — the "dense sub-graphs first"
//!   heuristics: pack triangles (resp. maximal cliques) into wavelengths,
//!   groom the leftover edges with `SpanT_Euler`, then merge and refine.
//! * [`anneal`] — simulated-annealing refinement that escapes the local
//!   optima [`refine`] stops at.
//!
//! All five run on the *incremental* engine of the private `engine` module: closed-form move
//! deltas, O(1) edge removal, occupied-node lists instead of per-part
//! size-`n` count arrays, a cached overlap matrix for merging, and residual
//! adjacency for the packers. The pre-incremental seed implementations are
//! preserved verbatim in the dev-only `grooming_oracle::improve`; golden
//! tests pin every function here to bit-identical outputs against them
//! (same partitions, same RNG consumption), and the `perf_improve` bench
//! bin tracks the speedup in `BENCH_improve.json`.

mod engine;
mod packing;

use grooming_graph::graph::Graph;
use grooming_graph::ids::EdgeId;
use rand::Rng;

use crate::partition::EdgePartition;
use engine::{build_parts, Engine, IncidenceMode};

pub use packing::{clique_first, dense_first};

/// Local-search refinement: repeatedly apply the best cost-reducing
/// single-edge move or pairwise swap until a local optimum (or the round
/// cap) is reached. The result is always valid, never costlier, and never
/// uses more wavelengths than the input.
///
/// Moves are found through a node → occupying-parts index and swaps through
/// closed-form deltas over a flat incidence-count matrix — no trial
/// mutations, no per-pair allocations. Output is bit-identical to the
/// seed `refine` (`grooming_oracle::improve::refine`).
///
/// ```
/// use grooming::improve::refine;
/// use grooming::spant_euler::spant_euler;
/// use grooming_graph::{generators, spanning::TreeStrategy};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let g = generators::gnm(20, 60, &mut rng);
/// let base = spant_euler(&g, 8, TreeStrategy::Bfs, &mut rng);
/// let better = refine(&g, 8, &base, 8);
/// assert!(better.sadm_cost(&g) <= base.sadm_cost(&g));
/// ```
pub fn refine(g: &Graph, k: usize, partition: &EdgePartition, max_rounds: usize) -> EdgePartition {
    refine_with_stats(g, k, partition, max_rounds).0
}

/// [`refine`] plus the number of candidate swaps it evaluated — the
/// instrumentation counter surfaced through the solve layer's
/// [`crate::solve::SolveStats::swaps_evaluated`]. The partition returned is
/// bit-identical to [`refine`]'s (the counter is write-only).
pub fn refine_with_stats(
    g: &Graph,
    k: usize,
    partition: &EdgePartition,
    max_rounds: usize,
) -> (EdgePartition, u64) {
    refine_with_stats_mode(g, k, partition, max_rounds, IncidenceMode::Auto)
}

/// Bench/test hook: [`refine`] with the engine's incidence representation
/// pinned to sparse (`true`) or dense (`false`) instead of the density
/// threshold picking one. Outputs are bit-identical across representations;
/// `perf_scale` uses this to measure the dense-vs-sparse tradeoff and the
/// bit-identity tests use it to prove the claim.
#[doc(hidden)]
pub fn refine_forced_incidence(
    g: &Graph,
    k: usize,
    partition: &EdgePartition,
    max_rounds: usize,
    sparse: bool,
) -> EdgePartition {
    let mode = if sparse {
        IncidenceMode::ForceSparse
    } else {
        IncidenceMode::ForceDense
    };
    refine_with_stats_mode(g, k, partition, max_rounds, mode).0
}

fn refine_with_stats_mode(
    g: &Graph,
    k: usize,
    partition: &EdgePartition,
    max_rounds: usize,
    mode: IncidenceMode,
) -> (EdgePartition, u64) {
    assert!(k > 0, "grooming factor must be positive");
    let mut eng = Engine::with_mode(g, partition, mode);

    for _ in 0..max_rounds {
        let mut improved = false;

        // Single-edge moves (source part may shrink to empty). A move only
        // helps if it frees a node at the source (freed ≥ 1), and then the
        // target must already hold enough of the edge's endpoints; the
        // engine finds the lowest-index such part directly.
        'moves: for a in 0..eng.parts.len() {
            let mut ei = 0;
            while ei < eng.parts[a].edges.len() {
                let e = eng.parts[a].edges[ei];
                let (u, v) = g.endpoints(e);
                let freed = (eng.cnt_of(a, u) == 1) as usize + (eng.cnt_of(a, v) == 1) as usize;
                if freed > 0 {
                    if let Some(b) = eng.first_move_target(a, u, v, freed, k) {
                        eng.remove_edge_from(a, e);
                        eng.add_edge_to(b, e);
                        improved = true;
                        continue 'moves;
                    }
                }
                ei += 1;
            }
        }

        // Pairwise swaps (handle full parts, the common case after
        // Proposition 2 cutting). The sweep visits only pairs sharing an
        // occupied node — found through the inverted index — and replays
        // the skipped pairs' vector rotations lazily, staying bit-identical
        // to the reference's all-pairs scan.
        if eng.swap_sweep() {
            improved = true;
        }

        if !improved {
            break;
        }
    }

    let swaps = eng.swaps_evaluated;
    let out = EdgePartition::new(eng.into_edge_lists());
    debug_assert!(out.validate(g, k).is_ok());
    debug_assert!(out.sadm_cost(g) <= partition.sadm_cost(g));
    (out, swaps)
}

/// What a [`warm_repair`] run did to the plan it resumed from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Distinct parts the repair touched: vacated by removals, receivers of
    /// added edges, and parts modified by the local re-optimization. Zero
    /// for an empty delta.
    pub parts_repaired: u64,
    /// Occupancy churn spent by the re-optimization: SADM placements
    /// created plus reclaimed by its moves and swaps. Applying the delta
    /// itself (vacating removed edges, first-fit-placing added ones) is
    /// mandatory and does not count; [`warm_repair`]'s `rearrange_budget`
    /// bounds exactly this quantity.
    pub sadms_moved: u64,
    /// Candidate swaps the restricted sweep evaluated. Swaps it skips as
    /// provable misses are not counted: pairs sharing no leaf node, and
    /// combinations with no negative contribution term.
    pub swaps_evaluated: u64,
}

/// Resumes a prior plan against a changed edge set instead of solving from
/// scratch — the warm-start path of the solve surface's `Reconfigure`
/// workload.
///
/// `seed_parts` is the prior plan with removed edges already deleted
/// (parts may be empty; `vacated_parts` names the ones that lost edges)
/// and `added` lists the edges of `g` that `seed_parts` does not place.
/// The engine ingests the seed directly into its incremental state, places
/// each added edge in the part with spare capacity that gains the fewest
/// new nodes, ties to the lowest index (so when no part with space holds an
/// endpoint, the lowest-indexed part with space takes it), then locally
/// re-optimizes — single-edge moves and pairwise swaps restricted
/// to *dirty* parts (touched by the delta or by a previous repair move)
/// and their node-sharing neighbors, for at most `max_rounds` rounds.
///
/// `rearrange_budget` bounds the re-optimization's occupancy churn
/// ([`RepairReport::sadms_moved`]); improving moves that would exceed the
/// remaining budget are skipped. `None` means unbounded.
///
/// Contracts: the result is always a valid partition and never costs more
/// than the seed-plus-delta placement (only strictly improving moves are
/// applied after it); an empty delta reproduces the prior plan
/// byte-identically with `parts_repaired == 0`. Warm starts are *not*
/// bit-identical to cold solves — this is a different algorithm, pinned by
/// the never-worse invariant instead of goldens.
///
/// # Panics
/// Panics if `k == 0`, if `seed_parts` plus `added` is not an exact
/// partition of `g`'s edges, or if an edge id is out of range.
pub fn warm_repair(
    g: &Graph,
    k: usize,
    seed_parts: &[Vec<EdgeId>],
    vacated_parts: &[usize],
    added: &[EdgeId],
    rearrange_budget: Option<usize>,
    max_rounds: usize,
) -> (EdgePartition, RepairReport) {
    assert!(k > 0, "grooming factor must be positive");
    let m = g.num_edges();
    // Pad with empty slots so first-fit can always place: W·k ≥ m
    // guarantees a part with spare capacity while edges remain.
    let needed = if m == 0 {
        seed_parts.len()
    } else {
        seed_parts.len().max(EdgePartition::min_wavelengths(m, k))
    };
    let mut lists: Vec<Vec<EdgeId>> = Vec::with_capacity(needed);
    lists.extend(seed_parts.iter().cloned());
    lists.resize(needed, Vec::new());
    let mut eng = Engine::from_lists(g, lists, IncidenceMode::Auto);

    let w = eng.parts.len();
    let mut touched = vec![false; w]; // everything the repair laid hands on
    let mut dirty: Vec<u32> = Vec::new(); // frontier for the restricted sweep
    let mut dirty_mark = vec![false; w];
    for &p in vacated_parts {
        touched[p] = true;
        if !dirty_mark[p] {
            dirty_mark[p] = true;
            dirty.push(p as u32);
        }
    }
    for &e in added {
        let p = eng.place_with_affinity(e, k);
        touched[p] = true;
        if !dirty_mark[p] {
            dirty_mark[p] = true;
            dirty.push(p as u32);
        }
    }
    // Cost after the mandatory delta application — the never-worse anchor.
    let baseline_cost = eng.cost();

    let mut budget = rearrange_budget;
    let mut moved = 0u64;
    let mut partners: Vec<u32> = Vec::new();

    for _ in 0..max_rounds {
        if dirty.is_empty() {
            break;
        }
        dirty.sort_unstable();
        let mut improved = false;
        let mut next: Vec<u32> = Vec::new();
        let mut next_mark = vec![false; w];
        let wake = |p: usize, next: &mut Vec<u32>, next_mark: &mut Vec<bool>| {
            if !next_mark[p] {
                next_mark[p] = true;
                next.push(p as u32);
            }
        };

        // Single-edge moves out of dirty parts (mirrors the cold refine's
        // move pass, restricted to the frontier and budget-gated).
        for &a in &dirty {
            let a = a as usize;
            let mut ei = 0;
            while ei < eng.parts[a].edges.len() {
                let e = eng.parts[a].edges[ei];
                let (u, v) = g.endpoints(e);
                let freed = (eng.cnt_of(a, u) == 1) as usize + (eng.cnt_of(a, v) == 1) as usize;
                if freed > 0 {
                    if let Some(b) = eng.first_move_target(a, u, v, freed, k) {
                        let added_nodes =
                            (eng.cnt_of(b, u) == 0) as usize + (eng.cnt_of(b, v) == 0) as usize;
                        let churn = freed + added_nodes;
                        if budget.is_none_or(|left| churn <= left) {
                            if let Some(left) = budget.as_mut() {
                                *left -= churn;
                            }
                            eng.remove_edge_from(a, e);
                            eng.add_edge_to(b, e);
                            moved += churn as u64;
                            improved = true;
                            for p in [a, b] {
                                touched[p] = true;
                                wake(p, &mut next, &mut next_mark);
                            }
                            continue; // slot refilled by swap_remove
                        }
                    }
                }
                ei += 1;
            }
        }

        // Pairwise swaps between each dirty part and its node-sharing
        // neighbors; each application strictly reduces cost, so the inner
        // loop terminates. A pair with no shared leaf has no improving
        // swap; the test runs at each visit because part `a` changes
        // between partners.
        for &a in &dirty {
            let a = a as usize;
            eng.partners_sharing_nodes(a, &mut partners);
            for &bp in &partners {
                let b = bp as usize;
                while eng.shares_leaf(a, b) {
                    let Some(churn) = eng.repair_pair(a, b, &mut budget) else {
                        break;
                    };
                    moved += churn as u64;
                    improved = true;
                    for p in [a, b] {
                        touched[p] = true;
                        wake(p, &mut next, &mut next_mark);
                    }
                }
            }
        }

        if !improved {
            break;
        }
        dirty = next;
        dirty_mark = next_mark;
    }
    let _ = dirty_mark;

    let report = RepairReport {
        parts_repaired: touched.iter().filter(|&&t| t).count() as u64,
        sadms_moved: moved,
        swaps_evaluated: eng.swaps_evaluated,
    };
    let out = EdgePartition::new(eng.into_edge_lists());
    debug_assert!(out.validate(g, k).is_ok());
    debug_assert!(out.sadm_cost(g) <= baseline_cost);
    let _ = baseline_cost;
    (out, report)
}

/// Greedy wavelength merging: while two parts fit on one wavelength, merge
/// the pair with the largest node overlap. Cost never increases; the
/// wavelength count strictly decreases with every merge.
///
/// Pair overlaps are computed once into a cached matrix (each by iterating
/// one part's occupied nodes against a stamp, not `0..n`), and each row
/// caches its first best partner: the lowest-index later part that fits
/// with the largest overlap. A merge of `b` into `a` changes only part
/// `a`, removes part `b`, and relocates the last part into slot `b`, so
/// only rows `a` and `b` and the rows whose cached partner was one of
/// those slots are rescanned; every other row compares its cache against
/// the two changed columns. A round costs O(W) plus the rescanned rows,
/// not an O(W²) scan. Output is bit-identical to the seed `merge_parts`
/// (`grooming_oracle::improve::merge_parts`).
pub fn merge_parts(g: &Graph, k: usize, partition: &EdgePartition) -> EdgePartition {
    assert!(k > 0, "grooming factor must be positive");
    let mut parts = build_parts(g, partition.parts().to_vec());
    let w0 = parts.len();

    if w0 >= 2 {
        let mut stamp = vec![0u64; g.num_nodes()];
        let mut tick = 0u64;
        // Symmetric overlap matrix over the initial part indices (parts
        // only ever disappear, so the stride stays valid).
        let mut ov = vec![0u32; w0 * w0];
        for a in 0..w0 {
            tick += 1;
            for &x in &parts[a].occ {
                stamp[x.index()] = tick;
            }
            for b in (a + 1)..w0 {
                let o = parts[b]
                    .occ
                    .iter()
                    .filter(|x| stamp[x.index()] == tick)
                    .count() as u32;
                ov[a * w0 + b] = o;
                ov[b * w0 + a] = o;
            }
        }

        let fits = |parts: &[engine::Part], a: usize, b: usize| {
            parts[a].edges.len() + parts[b].edges.len() <= k
        };
        // Partner `b` with overlap `o` beats the current one under the
        // reference's scan order: larger overlap, then lower index.
        let beats = |o: u32, b: usize, cur: Option<(usize, u32)>| {
            cur.is_none_or(|(c, co)| o > co || (o == co && b < c))
        };
        let scan = |parts: &[engine::Part], ov: &[u32], a: usize| {
            let mut best = None;
            for b in (a + 1)..parts.len() {
                if fits(parts, a, b) && beats(ov[a * w0 + b], b, best) {
                    best = Some((b, ov[a * w0 + b]));
                }
            }
            best
        };
        let mut partner: Vec<Option<(usize, u32)>> =
            (0..w0).map(|a| scan(&parts, &ov, a)).collect();

        loop {
            // The lowest row holding the largest cached overlap: the
            // reference's lexicographic strict-max pick over all pairs.
            let mut best: Option<(usize, usize, u32)> = None;
            for (a, p) in partner.iter().enumerate() {
                if let Some((b, o)) = *p {
                    if best.is_none_or(|(_, _, bo)| o > bo) {
                        best = Some((a, b, o));
                    }
                }
            }
            let Some((a, b, _)) = best else { break };

            // Merge b into a: append the donor's edges (order preserved)
            // and union the occupancy through the stamp.
            let donor = parts.swap_remove(b);
            tick += 1;
            for &x in &parts[a].occ {
                stamp[x.index()] = tick;
            }
            for &x in &donor.occ {
                if stamp[x.index()] != tick {
                    stamp[x.index()] = tick;
                    parts[a].occ.push(x);
                }
            }
            parts[a].edges.extend_from_slice(&donor.edges);

            // The part that swapped into slot b keeps its old overlaps:
            // relocate its row/column from the vacated last slot.
            let moved = parts.len();
            if b != moved {
                for i in 0..parts.len() {
                    ov[i * w0 + b] = ov[i * w0 + moved];
                    ov[b * w0 + i] = ov[moved * w0 + i];
                }
            }
            // Only pairs touching the merged part changed: re-score row a.
            tick += 1;
            for &x in &parts[a].occ {
                stamp[x.index()] = tick;
            }
            for i in 0..parts.len() {
                if i == a {
                    continue;
                }
                let o = parts[i]
                    .occ
                    .iter()
                    .filter(|x| stamp[x.index()] == tick)
                    .count() as u32;
                ov[a * w0 + i] = o;
                ov[i * w0 + a] = o;
            }

            // Rescan rows a and b and every row whose partner was a slot
            // that changed; any other row's partner still stands, and only
            // columns a and b can now beat it.
            partner.swap_remove(b);
            for i in 0..parts.len() {
                let mut cur = partner[i];
                if i == a || i == b || cur.is_some_and(|(c, _)| c == a || c == b || c == moved) {
                    partner[i] = scan(&parts, &ov, i);
                    continue;
                }
                for j in [a, b] {
                    if i < j
                        && j < parts.len()
                        && fits(&parts, i, j)
                        && beats(ov[i * w0 + j], j, cur)
                    {
                        cur = Some((j, ov[i * w0 + j]));
                    }
                }
                partner[i] = cur;
            }
        }
    }

    let out = EdgePartition::new(parts.into_iter().map(|p| p.edges).collect());
    debug_assert!(out.validate(g, k).is_ok());
    out
}

/// Simulated-annealing refinement: random edge moves and swaps accepted by
/// the Metropolis rule with a geometric cooling schedule, tracking the best
/// partition ever seen. Escapes the local optima [`refine`] stops at, at
/// the price of more evaluations; the returned partition is never worse
/// than the input (the incumbent starts at the input).
///
/// Swap deltas are closed-form (no trial mutations) and the incumbent
/// snapshot reuses preallocated buffers instead of cloning every part
/// vector on each improvement. RNG consumption and output are bit-identical
/// to the seed `anneal` (`grooming_oracle::improve::anneal`).
pub fn anneal<R: Rng>(
    g: &Graph,
    k: usize,
    partition: &EdgePartition,
    iterations: usize,
    rng: &mut R,
) -> EdgePartition {
    assert!(k > 0, "grooming factor must be positive");
    let mut eng = Engine::new(g, partition);
    if eng.parts.len() < 2 || iterations == 0 {
        return partition.clone();
    }
    let mut cost = eng.cost() as isize;
    let mut best_cost = cost;
    let mut best: Vec<Vec<EdgeId>> = eng.parts.iter().map(|p| p.edges.clone()).collect();

    // Geometric cooling from ~2 node-moves worth of slack down to ~0.05.
    let t0 = 2.0f64;
    let t1 = 0.05f64;
    let alpha = (t1 / t0).powf(1.0 / iterations.max(1) as f64);
    let mut temp = t0;

    enum Move {
        Shift(EdgeId),
        Swap(EdgeId, EdgeId),
    }

    for _ in 0..iterations {
        temp *= alpha;
        let a = rng.gen_range(0..eng.parts.len());
        let b = rng.gen_range(0..eng.parts.len());
        if a == b || eng.parts[a].edges.is_empty() {
            continue;
        }
        let e = eng.parts[a].edges[rng.gen_range(0..eng.parts[a].edges.len())];
        let delta: isize;
        let mv;
        if eng.parts[b].edges.len() < k && rng.gen_bool(0.5) {
            // Single-edge move a -> b: nodes added at b minus nodes freed at a.
            let (u, v) = g.endpoints(e);
            let added = (eng.cnt_of(b, u) == 0) as isize + (eng.cnt_of(b, v) == 0) as isize;
            let freed = (eng.cnt_of(a, u) == 1) as isize + (eng.cnt_of(a, v) == 1) as isize;
            delta = added - freed;
            mv = Move::Shift(e);
        } else if !eng.parts[b].edges.is_empty() {
            // Swap e <-> f, evaluated in closed form. The reference's
            // trial + undo leaves both edge vectors permuted even on
            // rejection; replay that permutation so later random indexing
            // picks the same edges.
            let f = eng.parts[b].edges[rng.gen_range(0..eng.parts[b].edges.len())];
            delta = eng.swap_delta(a, b, e, f);
            eng.trial_permute(a, e);
            eng.trial_permute(b, f);
            mv = Move::Swap(e, f);
        } else {
            continue;
        }
        let accept = delta <= 0 || rng.gen_bool((-(delta as f64) / temp).exp().clamp(0.0, 1.0));
        if !accept {
            continue;
        }
        match mv {
            Move::Shift(e) => {
                eng.remove_edge_from(a, e);
                eng.add_edge_to(b, e);
            }
            Move::Swap(e, f) => eng.apply_swap(a, b, e, f),
        }
        cost += delta;
        if cost < best_cost {
            best_cost = cost;
            for (slot, p) in best.iter_mut().zip(&eng.parts) {
                slot.clone_from(&p.edges);
            }
        }
    }

    let out = EdgePartition::new(best);
    debug_assert!(out.validate(g, k).is_ok());
    debug_assert!(out.sadm_cost(g) <= partition.sadm_cost(g));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use crate::spant_euler::spant_euler;
    use grooming_graph::generators;
    use grooming_graph::spanning::TreeStrategy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn refine_never_hurts() {
        for seed in 0..6u64 {
            let g = generators::gnm(16, 40, &mut rng(seed));
            for k in [2usize, 4, 8, 16] {
                let base = spant_euler(&g, k, TreeStrategy::Bfs, &mut rng(seed));
                let better = refine(&g, k, &base, 8);
                better.validate(&g, k).unwrap();
                assert!(better.sadm_cost(&g) <= base.sadm_cost(&g));
                assert!(better.num_wavelengths() <= base.num_wavelengths());
                assert!(better.sadm_cost(&g) >= bounds::lower_bound(&g, k));
            }
        }
    }

    #[test]
    fn refine_finds_the_obvious_swap() {
        // Two triangles, k = 3, deliberately bad initial split.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let bad = EdgePartition::new(vec![
            vec![EdgeId(0), EdgeId(1), EdgeId(3)],
            vec![EdgeId(2), EdgeId(4), EdgeId(5)],
        ]);
        assert_eq!(bad.sadm_cost(&g), 5 + 5);
        let fixed = refine(&g, 3, &bad, 10);
        assert_eq!(fixed.sadm_cost(&g), 6, "swap must restore the triangles");
    }

    #[test]
    fn merge_reduces_wavelengths_without_cost_increase() {
        let g = generators::gnm(14, 20, &mut rng(1));
        // k=1 partition: one edge per wavelength.
        let singletons = EdgePartition::new(g.edges().map(|e| vec![e]).collect());
        let merged = merge_parts(&g, 5, &singletons);
        merged.validate(&g, 5).unwrap();
        assert!(merged.num_wavelengths() <= singletons.num_wavelengths());
        assert_eq!(merged.num_wavelengths(), 4); // ceil(20/5)
        assert!(merged.sadm_cost(&g) <= singletons.sadm_cost(&g));
    }

    #[test]
    fn clique_first_near_optimal_on_k9_at_k3() {
        // K9 partitions into 12 triangles (STS(9)); the optimum at k = 3
        // is m = 36. Greedy edge-disjoint triangle packing is not perfect,
        // but it must land close and beat SpanT_Euler comfortably.
        let g = generators::complete(9);
        let p = clique_first(&g, 3, &mut rng(2));
        p.validate(&g, 3).unwrap();
        let cost = p.sadm_cost(&g);
        let spant = spant_euler(&g, 3, TreeStrategy::Bfs, &mut rng(2)).sadm_cost(&g);
        assert!(cost >= 36);
        assert!(cost <= 42, "greedy packing should stay near 36, got {cost}");
        assert!(cost < spant, "clique-first {cost} vs SpanT {spant}");
    }

    #[test]
    fn clique_first_beats_spant_on_triangle_rich_graphs_at_k3() {
        let g = generators::complete(12);
        let spant = spant_euler(&g, 3, TreeStrategy::Bfs, &mut rng(3));
        let cf = clique_first(&g, 3, &mut rng(3));
        cf.validate(&g, 3).unwrap();
        assert!(
            cf.sadm_cost(&g) < spant.sadm_cost(&g),
            "clique-first {} vs SpanT {}",
            cf.sadm_cost(&g),
            spant.sadm_cost(&g)
        );
    }

    #[test]
    fn clique_first_falls_back_gracefully() {
        // Triangle-free graph: pure SpanT path.
        let g = generators::grid(4, 4);
        for k in [2usize, 3, 6] {
            let p = clique_first(&g, k, &mut rng(4));
            p.validate(&g, k).unwrap();
        }
        // k < 3 short-circuits.
        let p = clique_first(&g, 2, &mut rng(5));
        p.validate(&g, 2).unwrap();
    }

    #[test]
    fn sparse_and_dense_incidence_refine_identically() {
        // The incidence representation must be unobservable: forcing the
        // sparse rows and the dense matrix on the same inputs has to yield
        // the same partitions edge-for-edge (not merely equal cost).
        for seed in 0..6u64 {
            let g = generators::gnm(24, 70, &mut rng(seed));
            for k in [2usize, 5, 9, 16] {
                let base = spant_euler(&g, k, TreeStrategy::Dfs, &mut rng(seed));
                let dense = refine_forced_incidence(&g, k, &base, 8, false);
                let sparse = refine_forced_incidence(&g, k, &base, 8, true);
                assert_eq!(
                    dense.parts(),
                    sparse.parts(),
                    "representation leaked into the output (seed {seed}, k {k})"
                );
                assert_eq!(dense.parts(), refine(&g, k, &base, 8).parts());
            }
        }
        for n in [120usize, 240] {
            let g = generators::power_law(n, 2.5, 6.0, &mut rng(n as u64));
            for k in [4usize, 16] {
                let base = spant_euler(&g, k, TreeStrategy::Dfs, &mut rng(3));
                let dense = refine_forced_incidence(&g, k, &base, 8, false);
                let sparse = refine_forced_incidence(&g, k, &base, 8, true);
                assert_eq!(dense.parts(), sparse.parts(), "power_law n {n}, k {k}");
                assert_eq!(dense.parts(), refine(&g, k, &base, 8).parts());
            }
        }
    }

    #[test]
    fn filtered_sweep_evaluates_fewer_swaps_only_after_round_zero() {
        // ring-powerlaw's 2000-node class. The shared-leaf filter skips only
        // pairs that evaluate nothing, and the clean-pair skip has no scan
        // records in round 0, so one round evaluates exactly what the
        // unfiltered all-pairs sweep did (91,791 / 91,817); later rounds
        // skip clean pairs (the unfiltered sweep: 867,023 / 877,912 over
        // 8 rounds) and land on the same costs.
        for (seed, round0, unfiltered8, cost8) in [
            (1u64, 91_791u64, 867_023u64, 6125usize),
            (2, 91_817, 877_912, 6294),
        ] {
            let g = generators::power_law(2000, 2.5, 6.0, &mut rng(seed));
            let base = spant_euler(&g, 16, TreeStrategy::Bfs, &mut rng(seed));
            assert_eq!(refine_with_stats(&g, 16, &base, 1).1, round0, "seed {seed}");
            let (refined, swaps) = refine_with_stats(&g, 16, &base, 8);
            assert!(swaps < unfiltered8, "seed {seed}: {swaps} swaps");
            assert_eq!(refined.sadm_cost(&g), cost8, "seed {seed}");
        }
    }

    #[test]
    fn refine_handles_tiny_partitions() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let p = EdgePartition::new(vec![vec![EdgeId(0)]]);
        let r = refine(&g, 4, &p, 4);
        assert_eq!(r.sadm_cost(&g), 2);
        let empty = Graph::new(3);
        let r = refine(&empty, 4, &EdgePartition::new(vec![]), 4);
        assert_eq!(r.num_wavelengths(), 0);
    }

    #[test]
    fn dense_first_is_optimal_on_disjoint_k5s_at_k10() {
        // Three disjoint K5s at k = 10: dense_first puts each K5 on one
        // wavelength (10 edges, 5 nodes) — the exact optimum of 15 — while
        // the triangle packer cannot cover a K5 with triangles (10 ∤ 3).
        let mut g = Graph::new(15);
        for base in [0u32, 5, 10] {
            for a in 0..5 {
                for b in (a + 1)..5 {
                    g.add_edge(
                        grooming_graph::ids::NodeId(base + a),
                        grooming_graph::ids::NodeId(base + b),
                    );
                }
            }
        }
        let df = dense_first(&g, 10, &mut rng(7));
        df.validate(&g, 10).unwrap();
        assert_eq!(df.sadm_cost(&g), 15, "one wavelength per K5");
        let cf = clique_first(&g, 10, &mut rng(7));
        assert!(df.sadm_cost(&g) <= cf.sadm_cost(&g));
    }

    #[test]
    fn dense_first_competitive_on_k10() {
        // On K10 at k = 16 the triangle packer is already near the lower
        // bound (20); dense_first must stay in the same band and beat
        // SpanT_Euler.
        let g = generators::complete(10);
        let df = dense_first(&g, 16, &mut rng(7));
        df.validate(&g, 16).unwrap();
        let spant = spant_euler(&g, 16, TreeStrategy::Bfs, &mut rng(7));
        assert!(df.sadm_cost(&g) < spant.sadm_cost(&g));
        assert!(df.sadm_cost(&g) <= 24);
    }

    #[test]
    fn dense_first_valid_on_random_instances() {
        for seed in 0..5u64 {
            let g = generators::gnm(18, 70, &mut rng(seed));
            for k in [2usize, 3, 6, 10, 16, 64] {
                let p = dense_first(&g, k, &mut rng(seed + 30));
                p.validate(&g, k).unwrap();
                assert!(p.sadm_cost(&g) >= bounds::lower_bound(&g, k));
            }
        }
    }

    #[test]
    fn dense_first_stays_linear_in_a_huge_node_space() {
        // 2^18 nodes and four edges: a triangle and a pendant edge. An
        // n × n residual would need 8 GiB here; the sparse one is O(n + m).
        // At k = 3 the triangle fills its wavelength, so it survives the
        // merge as a part of its own.
        let mut g = Graph::new(1 << 18);
        let node = grooming_graph::ids::NodeId;
        for (u, v) in [(7, 70_000), (70_000, 262_143), (262_143, 7), (262_143, 9)] {
            g.add_edge(node(u), node(v));
        }
        let p = dense_first(&g, 3, &mut rng(1));
        p.validate(&g, 3).unwrap();
        let mut parts: Vec<Vec<EdgeId>> = p.parts().to_vec();
        for part in &mut parts {
            part.sort_unstable();
        }
        assert!(
            parts.contains(&vec![EdgeId(0), EdgeId(1), EdgeId(2)]),
            "triangle split: {parts:?}"
        );
    }

    #[test]
    fn dense_first_handles_multigraphs_via_fallback() {
        let mut g = Graph::new(3);
        let a = grooming_graph::ids::NodeId(0);
        let b = grooming_graph::ids::NodeId(1);
        g.add_edge(a, b);
        g.add_edge(a, b);
        g.add_edge(b, grooming_graph::ids::NodeId(2));
        let p = dense_first(&g, 4, &mut rng(1));
        p.validate(&g, 4).unwrap();
    }

    #[test]
    fn anneal_never_worse_and_valid() {
        for seed in 0..4u64 {
            let g = generators::gnm(16, 40, &mut rng(seed));
            for k in [3usize, 8, 16] {
                let base = spant_euler(&g, k, TreeStrategy::Bfs, &mut rng(seed));
                let annealed = anneal(&g, k, &base, 2000, &mut rng(seed + 77));
                annealed.validate(&g, k).unwrap();
                assert!(annealed.sadm_cost(&g) <= base.sadm_cost(&g));
            }
        }
    }

    #[test]
    fn anneal_escapes_the_bad_split() {
        // Same fixture refine solves: anneal must find it too.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let bad = EdgePartition::new(vec![
            vec![EdgeId(0), EdgeId(1), EdgeId(3)],
            vec![EdgeId(2), EdgeId(4), EdgeId(5)],
        ]);
        let fixed = anneal(&g, 3, &bad, 5000, &mut rng(1));
        assert_eq!(fixed.sadm_cost(&g), 6);
    }

    #[test]
    fn anneal_degenerate_inputs() {
        let g = Graph::new(3);
        let p = EdgePartition::new(vec![]);
        assert_eq!(anneal(&g, 4, &p, 100, &mut rng(0)).num_wavelengths(), 0);
        let g = Graph::from_edges(2, &[(0, 1)]);
        let p = EdgePartition::new(vec![vec![EdgeId(0)]]);
        assert_eq!(anneal(&g, 4, &p, 100, &mut rng(0)).sadm_cost(&g), 2);
    }

    #[test]
    fn clique_first_respects_k_limits() {
        for seed in 0..4u64 {
            let g = generators::gnm(15, 45, &mut rng(seed));
            for k in [3usize, 4, 5, 7, 16] {
                let p = clique_first(&g, k, &mut rng(seed + 20));
                p.validate(&g, k).unwrap();
                assert!(p.sadm_cost(&g) >= bounds::lower_bound(&g, k));
            }
        }
    }
}
