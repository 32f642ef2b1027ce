//! Dense-subgraph packing heuristics on residual structures.
//!
//! Both packers peel dense pieces (triangles, maximum cliques) off the
//! traffic graph round by round. The seed versions re-derived the residual
//! from scratch each round — re-probing `triangle_edges` per availability
//! check, re-extracting a fresh subgraph and enumerating all its maximal
//! cliques with Bron–Kerbosch per peel. Here the residual is maintained
//! incrementally instead:
//!
//! * [`clique_first`] resolves each triangle's edge triple once, keeps an
//!   edge → triangles index so consuming an edge kills its triangles in
//!   O(1), and stamps part nodes in a shared scratch instead of allocating
//!   `vec![false; n]` per part.
//! * [`dense_first`] keeps a [`CliqueResidual`] (sorted higher-neighbour
//!   lists, O(n + m)), deleting clique edges in place between peels, and
//!   finds each peel's clique by exact branch and bound: the same clique
//!   (the lexicographically greatest maximum one) the seed's enumeration
//!   keeps, bounded above by the previous peel's size.
//!
//! Leftover grooming, merging, and refinement are shared with the parent
//! module; outputs are bit-identical to the seed `clique_first` /
//! `dense_first` in `grooming_oracle::improve` (golden-tested).

use grooming_graph::cliques::{max_clique_size_for_k, CliqueResidual};
use grooming_graph::graph::Graph;
use grooming_graph::ids::{EdgeId, NodeId};
use grooming_graph::spanning::TreeStrategy;
use grooming_graph::subgraph::extract_unused;
use grooming_graph::triangles::{enumerate_triangles, triangle_edges};
use rand::Rng;

use super::{merge_parts, refine};
use crate::partition::EdgePartition;
use crate::spant_euler::spant_euler;

/// Grooms the edges not flagged `used` with `SpanT_Euler` and appends the
/// resulting wavelengths (as parent-graph edge ids) to `parts`. No-op —
/// consuming no randomness, like the seed — when everything is used.
fn groom_leftovers<R: Rng>(
    g: &Graph,
    k: usize,
    used: &[bool],
    parts: &mut Vec<Vec<EdgeId>>,
    rng: &mut R,
) {
    if used.iter().all(|&u| u) {
        return;
    }
    let sub = extract_unused(g, used);
    let inner = spant_euler(&sub.graph, k, TreeStrategy::Bfs, rng);
    for part in inner.parts() {
        parts.push(sub.edges_to_parent(part));
    }
}

/// The paper's "cliques first" idea: greedily pack node-sharing triangles
/// into wavelengths, groom the leftovers with `SpanT_Euler`, then merge
/// underfull wavelengths and refine.
///
/// May use more than `⌈m/k⌉` wavelengths when triangle parts stay
/// underfull (the merge pass usually recovers most of the slack); trades
/// that for denser parts and fewer SADMs at small `k`.
pub fn clique_first<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> EdgePartition {
    assert!(k > 0, "grooming factor must be positive");
    if k < 3 || g.num_edges() < 3 {
        let p = spant_euler(g, k, TreeStrategy::Bfs, rng);
        return refine(g, k, &p, 4);
    }

    let mut used = vec![false; g.num_edges()];
    let triangles = enumerate_triangles(g);
    let per_part = k / 3; // triangles per wavelength

    // Resolve every triangle's edge triple once (`triangle_edges` is
    // deterministic, so one probe equals the seed's repeated probes), and
    // invert it: consuming an edge marks all triangles through it dead —
    // exactly the triangles whose availability check would now fail.
    let tri_edges: Vec<Option<[EdgeId; 3]>> =
        triangles.iter().map(|t| triangle_edges(g, *t)).collect();
    let mut dead: Vec<bool> = tri_edges.iter().map(|es| es.is_none()).collect();
    let mut tris_of_edge: Vec<Vec<u32>> = vec![Vec::new(); g.num_edges()];
    for (ti, es) in tri_edges.iter().enumerate() {
        if let Some(es) = es {
            for e in es {
                tris_of_edge[e.index()].push(ti as u32);
            }
        }
    }
    let consume = |e: EdgeId, used: &mut Vec<bool>, dead: &mut Vec<bool>| {
        used[e.index()] = true;
        for &ti in &tris_of_edge[e.index()] {
            dead[ti as usize] = true;
        }
    };

    // Greedy packing: start a part with any available triangle, then keep
    // adding the available triangle with the largest node overlap. The
    // `remaining` pool keeps dead entries (the seed never drops them), so
    // its swap_remove order — and thus every later scan — matches the seed.
    let mut tri_parts: Vec<Vec<EdgeId>> = Vec::new();
    let mut remaining: Vec<u32> = (0..triangles.len() as u32).collect();
    let mut node_stamp = vec![0u64; g.num_nodes()];
    let mut tick = 0u64;
    // Each outer round seeds a new part with the first live triangle.
    while let Some(seed_idx) = remaining.iter().position(|&t| !dead[t as usize]) {
        let seed_t = remaining.swap_remove(seed_idx) as usize;
        let seed_edges = tri_edges[seed_t].expect("live triangle has resolved edges");
        let mut part: Vec<EdgeId> = seed_edges.to_vec();
        tick += 1;
        for v in triangles[seed_t] {
            node_stamp[v.index()] = tick;
        }
        for e in seed_edges {
            consume(e, &mut used, &mut dead);
        }
        // Grow the part.
        while part.len() / 3 < per_part {
            let mut best: Option<(usize, usize)> = None; // (idx, overlap)
            for (i, &t) in remaining.iter().enumerate() {
                if dead[t as usize] {
                    continue;
                }
                let overlap = triangles[t as usize]
                    .iter()
                    .filter(|v| node_stamp[v.index()] == tick)
                    .count();
                if best.is_none_or(|(_, o)| overlap > o) {
                    best = Some((i, overlap));
                }
            }
            let Some((i, _)) = best else { break };
            let t = remaining.swap_remove(i) as usize;
            let es = tri_edges[t].expect("live triangle has resolved edges");
            for e in es {
                consume(e, &mut used, &mut dead);
                part.push(e);
            }
            for v in triangles[t] {
                node_stamp[v.index()] = tick;
            }
        }
        tri_parts.push(part);
    }

    let mut parts = tri_parts;
    groom_leftovers(g, k, &used, &mut parts, rng);

    let packed = EdgePartition::new(parts);
    debug_assert!(packed.validate(g, k).is_ok());
    let merged = merge_parts(g, k, &packed);
    refine(g, k, &merged, 4)
}

/// The generalized "cliques first" packer: pack maximal cliques (largest
/// first, capped at `q` with `C(q,2) ≤ k`), not just triangles; groom the
/// leftovers with `SpanT_Euler`; merge underfull wavelengths; refine.
///
/// A `q`-clique puts `C(q,2)` demand pairs on `q` SADMs — the densest
/// wavelength possible — so for large grooming factors this dominates
/// triangle packing (at `k = 16` a 6-clique carries 15 pairs on 6 SADMs
/// where five triangles would need up to 15).
pub fn dense_first<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> EdgePartition {
    assert!(k > 0, "grooming factor must be positive");
    if k < 3 || g.num_edges() < 3 || !g.is_simple() {
        let p = spant_euler(g, k, TreeStrategy::Bfs, rng);
        return refine(g, k, &p, 4);
    }
    let cap = max_clique_size_for_k(k);
    let mut used = vec![false; g.num_edges()];
    let mut parts: Vec<Vec<EdgeId>> = Vec::new();

    // Iteratively peel the largest clique of the *residual* graph: a
    // single huge clique (e.g. K_n itself) yields one capped sub-clique
    // per round, each a maximally dense wavelength. Clique edges are
    // deleted from the residual in place each round, so no clique ever
    // outgrows the previous peel's, which bounds the next search.
    let mut residual = CliqueResidual::from_graph(g);
    let mut remaining = g.num_edges();
    let mut limit = usize::MAX;
    while remaining >= 3 {
        let best = residual.maximum_clique(limit);
        if best.len() < 3 {
            break;
        }
        limit = best.len();
        // Take up to `cap` nodes of the clique; all pairwise edges exist
        // in the residual graph by definition of a clique (and `g` is
        // simple here, so each pair names a unique parent edge).
        let chosen: Vec<NodeId> = best.into_iter().take(cap).collect();
        let mut part: Vec<EdgeId> = Vec::with_capacity(chosen.len() * (chosen.len() - 1) / 2);
        for (i, &u) in chosen.iter().enumerate() {
            for &v in &chosen[i + 1..] {
                let e = g
                    .find_edge(u, v)
                    .expect("clique nodes are pairwise adjacent");
                part.push(e);
                residual.remove_edge(u, v);
            }
        }
        for &e in &part {
            used[e.index()] = true;
        }
        remaining -= part.len();
        parts.push(part);
    }

    groom_leftovers(g, k, &used, &mut parts, rng);

    let packed = EdgePartition::new(parts);
    debug_assert!(packed.validate(g, k).is_ok());
    let merged = merge_parts(g, k, &packed);
    refine(g, k, &merged, 4)
}
