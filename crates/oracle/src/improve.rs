//! Reference (pre-incremental) implementations of the improvement stack.
//!
//! These are the seed implementations, kept verbatim: full-mutation trial
//! moves, per-part `count: Vec<u32>` of size `n`, per-round subgraph
//! re-extraction. They exist for two reasons:
//!
//! 1. **Golden equivalence tests** pin the incremental engine in
//!    `grooming::improve` to *bit-identical* outputs (same partitions, same
//!    RNG consumption) against these baselines at fixed seeds.
//! 2. The `perf_improve` bench bin times both stacks on the same instances
//!    and records the speedup in `BENCH_improve.json`.
//!
//! Do not "optimize" this module — its value is being the fixed point the
//! fast path is measured and verified against.

use grooming_graph::graph::Graph;
use grooming_graph::ids::{EdgeId, NodeId};
use grooming_graph::spanning::TreeStrategy;
use rand::Rng;

use grooming::partition::EdgePartition;
use grooming::spant_euler::spant_euler;

/// Node-occupancy bookkeeping for one part: per-node incidence counts.
#[derive(Clone, Debug)]
struct PartState {
    edges: Vec<EdgeId>,
    count: Vec<u32>, // indexed by node
    nodes: usize,    // number of nonzero counts
}

impl PartState {
    fn new(n: usize) -> Self {
        PartState {
            edges: Vec::new(),
            count: vec![0; n],
            nodes: 0,
        }
    }

    fn from_edges(g: &Graph, edges: &[EdgeId]) -> Self {
        let mut s = PartState::new(g.num_nodes());
        for &e in edges {
            s.add(g, e);
        }
        s
    }

    fn add(&mut self, g: &Graph, e: EdgeId) {
        let (u, v) = g.endpoints(e);
        for x in [u, v] {
            if self.count[x.index()] == 0 {
                self.nodes += 1;
            }
            self.count[x.index()] += 1;
        }
        self.edges.push(e);
    }

    fn remove(&mut self, g: &Graph, e: EdgeId) {
        let pos = self
            .edges
            .iter()
            .position(|&x| x == e)
            .expect("edge must be in the part");
        self.edges.swap_remove(pos);
        let (u, v) = g.endpoints(e);
        for x in [u, v] {
            self.count[x.index()] -= 1;
            if self.count[x.index()] == 0 {
                self.nodes -= 1;
            }
        }
    }

    /// Nodes that would become newly occupied by adding `e`.
    fn add_gain(&self, g: &Graph, e: EdgeId) -> usize {
        let (u, v) = g.endpoints(e);
        [u, v].iter().filter(|x| self.count[x.index()] == 0).count()
    }

    /// Nodes that would be freed by removing `e`.
    fn remove_gain(&self, g: &Graph, e: EdgeId) -> usize {
        let (u, v) = g.endpoints(e);
        [u, v].iter().filter(|x| self.count[x.index()] == 1).count()
    }
}

/// Seed `refine`: trial moves simulated by 8 count mutations per swap, both
/// part vectors cloned per `(a, b)` pair.
pub fn refine(g: &Graph, k: usize, partition: &EdgePartition, max_rounds: usize) -> EdgePartition {
    assert!(k > 0, "grooming factor must be positive");
    let mut parts: Vec<PartState> = partition
        .parts()
        .iter()
        .map(|p| PartState::from_edges(g, p))
        .collect();

    for _ in 0..max_rounds {
        let mut improved = false;

        // Single-edge moves (source part may shrink to empty).
        'moves: for a in 0..parts.len() {
            for ei in 0..parts[a].edges.len() {
                let e = parts[a].edges[ei];
                let freed = parts[a].remove_gain(g, e);
                if freed == 0 {
                    continue; // moving e cannot reduce cost at the source
                }
                for b in 0..parts.len() {
                    if a == b || parts[b].edges.len() >= k {
                        continue;
                    }
                    let added = parts[b].add_gain(g, e);
                    if added < freed {
                        parts[a].remove(g, e);
                        parts[b].add(g, e);
                        improved = true;
                        continue 'moves;
                    }
                }
            }
        }

        // Pairwise swaps (handle full parts, the common case after
        // Proposition 2 cutting).
        'swaps: for a in 0..parts.len() {
            for b in (a + 1)..parts.len() {
                // Snapshot edge identities: trial swaps permute the part
                // vectors, so positional iteration would skip pairs.
                let a_edges = parts[a].edges.clone();
                let b_edges = parts[b].edges.clone();
                for &e in &a_edges {
                    for &f in &b_edges {
                        // Evaluate the swap by simulation on counts.
                        let before = parts[a].nodes + parts[b].nodes;
                        parts[a].remove(g, e);
                        parts[b].remove(g, f);
                        parts[a].add(g, f);
                        parts[b].add(g, e);
                        let after = parts[a].nodes + parts[b].nodes;
                        if after < before {
                            improved = true;
                            continue 'swaps;
                        }
                        // Undo.
                        parts[a].remove(g, f);
                        parts[b].remove(g, e);
                        parts[a].add(g, e);
                        parts[b].add(g, f);
                    }
                }
            }
        }

        if !improved {
            break;
        }
    }

    let out = EdgePartition::new(parts.into_iter().map(|p| p.edges).collect());
    debug_assert!(out.validate(g, k).is_ok());
    debug_assert!(out.sadm_cost(g) <= partition.sadm_cost(g));
    out
}

/// Seed `merge_parts`: every round rescans all pairs and computes each
/// overlap by a full `0..n` sweep of both count arrays.
pub fn merge_parts(g: &Graph, k: usize, partition: &EdgePartition) -> EdgePartition {
    assert!(k > 0, "grooming factor must be positive");
    let mut parts: Vec<PartState> = partition
        .parts()
        .iter()
        .map(|p| PartState::from_edges(g, p))
        .collect();

    loop {
        let mut best: Option<(usize, usize, usize)> = None; // (a, b, overlap)
        for a in 0..parts.len() {
            for b in (a + 1)..parts.len() {
                if parts[a].edges.len() + parts[b].edges.len() > k {
                    continue;
                }
                let overlap = (0..g.num_nodes())
                    .filter(|&x| parts[a].count[x] > 0 && parts[b].count[x] > 0)
                    .count();
                if best.is_none_or(|(_, _, o)| overlap > o) {
                    best = Some((a, b, overlap));
                }
            }
        }
        let Some((a, b, _)) = best else { break };
        let donor = parts.swap_remove(b);
        for e in donor.edges {
            parts[a].add(g, e);
        }
    }

    let out = EdgePartition::new(parts.into_iter().map(|p| p.edges).collect());
    debug_assert!(out.validate(g, k).is_ok());
    out
}

/// Seed `clique_first`: re-probes `triangle_edges` on every availability
/// check and allocates a fresh `vec![false; n]` per packed part.
pub fn clique_first<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> EdgePartition {
    assert!(k > 0, "grooming factor must be positive");
    if k < 3 || g.num_edges() < 3 {
        let p = spant_euler(g, k, TreeStrategy::Bfs, rng);
        return refine(g, k, &p, 4);
    }

    let mut used = vec![false; g.num_edges()];
    let triangles = grooming_graph::triangles::enumerate_triangles(g);
    let per_part = k / 3; // triangles per wavelength

    // Greedy packing: start a part with any available triangle, then keep
    // adding the available triangle with the largest node overlap.
    let mut tri_parts: Vec<Vec<EdgeId>> = Vec::new();
    let avail = |t: &[NodeId; 3], used: &[bool], g: &Graph| -> Option<[EdgeId; 3]> {
        let es = grooming_graph::triangles::triangle_edges(g, *t)?;
        es.iter().all(|e| !used[e.index()]).then_some(es)
    };
    let mut remaining: Vec<[NodeId; 3]> = triangles;
    loop {
        // Seed a new part.
        let seed = remaining.iter().position(|t| avail(t, &used, g).is_some());
        let Some(seed_idx) = seed else { break };
        let seed_t = remaining.swap_remove(seed_idx);
        let seed_edges = avail(&seed_t, &used, g).unwrap();
        let mut part: Vec<EdgeId> = seed_edges.to_vec();
        let mut part_nodes: Vec<bool> = vec![false; g.num_nodes()];
        for v in seed_t {
            part_nodes[v.index()] = true;
        }
        for e in seed_edges {
            used[e.index()] = true;
        }
        // Grow the part.
        while part.len() / 3 < per_part {
            let mut best: Option<(usize, usize)> = None; // (idx, overlap)
            for (i, t) in remaining.iter().enumerate() {
                if avail(t, &used, g).is_none() {
                    continue;
                }
                let overlap = t.iter().filter(|v| part_nodes[v.index()]).count();
                if best.is_none_or(|(_, o)| overlap > o) {
                    best = Some((i, overlap));
                }
            }
            let Some((i, _)) = best else { break };
            let t = remaining.swap_remove(i);
            let es = avail(&t, &used, g).unwrap();
            for e in es {
                used[e.index()] = true;
                part.push(e);
            }
            for v in t {
                part_nodes[v.index()] = true;
            }
        }
        tri_parts.push(part);
    }

    // Groom leftovers with SpanT_Euler on a scratch subgraph.
    let leftover: Vec<EdgeId> = g.edges().filter(|e| !used[e.index()]).collect();
    let mut parts = tri_parts;
    if !leftover.is_empty() {
        let mut scratch = Graph::new(g.num_nodes());
        for &e in &leftover {
            let (u, v) = g.endpoints(e);
            scratch.add_edge(u, v);
        }
        let sub = spant_euler(&scratch, k, TreeStrategy::Bfs, rng);
        for part in sub.parts() {
            parts.push(part.iter().map(|se| leftover[se.index()]).collect());
        }
    }

    let packed = EdgePartition::new(parts);
    debug_assert!(packed.validate(g, k).is_ok());
    let merged = merge_parts(g, k, &packed);
    refine(g, k, &merged, 4)
}

/// Seed `dense_first`: extracts a fresh residual subgraph and re-runs the
/// clique enumeration from scratch every peeling round.
pub fn dense_first<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> EdgePartition {
    assert!(k > 0, "grooming factor must be positive");
    if k < 3 || g.num_edges() < 3 || !g.is_simple() {
        let p = spant_euler(g, k, TreeStrategy::Bfs, rng);
        return refine(g, k, &p, 4);
    }
    let cap = grooming_graph::cliques::max_clique_size_for_k(k);
    let mut used = vec![false; g.num_edges()];
    let mut parts: Vec<Vec<EdgeId>> = Vec::new();

    // Iteratively peel the largest clique of the *residual* graph: a
    // single huge clique (e.g. K_n itself) yields one capped sub-clique
    // per round, each a maximally dense wavelength.
    loop {
        let remaining: Vec<EdgeId> = g.edges().filter(|e| !used[e.index()]).collect();
        if remaining.len() < 3 {
            break;
        }
        let sub = crate::subgraph::extract(g, &remaining);
        let best = crate::cliques::maximum_clique(&sub.graph);
        if best.len() < 3 {
            break;
        }
        // Take up to `cap` nodes of the clique; all pairwise edges exist
        // in the residual graph by definition of a clique.
        let chosen: Vec<NodeId> = best.into_iter().take(cap).collect();
        let mut part: Vec<EdgeId> = Vec::with_capacity(chosen.len() * (chosen.len() - 1) / 2);
        for (i, &u) in chosen.iter().enumerate() {
            for &v in &chosen[i + 1..] {
                let e = sub
                    .graph
                    .find_edge(u, v)
                    .expect("clique nodes are pairwise adjacent");
                part.push(sub.to_parent(e));
            }
        }
        for &e in &part {
            used[e.index()] = true;
        }
        parts.push(part);
    }

    // Leftovers through SpanT_Euler on an extracted subgraph.
    let leftover: Vec<EdgeId> = g.edges().filter(|e| !used[e.index()]).collect();
    if !leftover.is_empty() {
        let sub = crate::subgraph::extract(g, &leftover);
        let inner = spant_euler(&sub.graph, k, TreeStrategy::Bfs, rng);
        for part in inner.parts() {
            parts.push(sub.edges_to_parent(part));
        }
    }

    let packed = EdgePartition::new(parts);
    debug_assert!(packed.validate(g, k).is_ok());
    let merged = merge_parts(g, k, &packed);
    refine(g, k, &merged, 4)
}

/// Seed `anneal`: evaluates every swap by an 8-mutation trial + undo and
/// clones every part vector on each incumbent improvement.
pub fn anneal<R: Rng>(
    g: &Graph,
    k: usize,
    partition: &EdgePartition,
    iterations: usize,
    rng: &mut R,
) -> EdgePartition {
    assert!(k > 0, "grooming factor must be positive");
    let mut parts: Vec<PartState> = partition
        .parts()
        .iter()
        .map(|p| PartState::from_edges(g, p))
        .collect();
    if parts.len() < 2 || iterations == 0 {
        return partition.clone();
    }
    let mut cost: isize = parts.iter().map(|p| p.nodes as isize).sum();
    let mut best_cost = cost;
    let mut best: Vec<Vec<EdgeId>> = parts.iter().map(|p| p.edges.clone()).collect();

    // Geometric cooling from ~2 node-moves worth of slack down to ~0.05.
    let t0 = 2.0f64;
    let t1 = 0.05f64;
    let alpha = (t1 / t0).powf(1.0 / iterations.max(1) as f64);
    let mut temp = t0;

    for _ in 0..iterations {
        temp *= alpha;
        let a = rng.gen_range(0..parts.len());
        let b = rng.gen_range(0..parts.len());
        if a == b || parts[a].edges.is_empty() {
            continue;
        }
        let e = parts[a].edges[rng.gen_range(0..parts[a].edges.len())];
        let delta: isize;
        enum Move {
            Shift(EdgeId),
            Swap(EdgeId, EdgeId),
        }
        let mv;
        if parts[b].edges.len() < k && rng.gen_bool(0.5) {
            // Single-edge move a -> b.
            delta = parts[b].add_gain(g, e) as isize - parts[a].remove_gain(g, e) as isize;
            mv = Move::Shift(e);
        } else if !parts[b].edges.is_empty() {
            // Swap e <-> f.
            let f = parts[b].edges[rng.gen_range(0..parts[b].edges.len())];
            let before = (parts[a].nodes + parts[b].nodes) as isize;
            parts[a].remove(g, e);
            parts[b].remove(g, f);
            parts[a].add(g, f);
            parts[b].add(g, e);
            let after = (parts[a].nodes + parts[b].nodes) as isize;
            // Undo; the acceptance decision re-applies if taken.
            parts[a].remove(g, f);
            parts[b].remove(g, e);
            parts[a].add(g, e);
            parts[b].add(g, f);
            delta = after - before;
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
                parts[a].remove(g, e);
                parts[b].add(g, e);
            }
            Move::Swap(e, f) => {
                parts[a].remove(g, e);
                parts[b].remove(g, f);
                parts[a].add(g, f);
                parts[b].add(g, e);
            }
        }
        cost += delta;
        if cost < best_cost {
            best_cost = cost;
            best = parts.iter().map(|p| p.edges.clone()).collect();
        }
    }

    let out = EdgePartition::new(best);
    debug_assert!(out.validate(g, k).is_ok());
    debug_assert!(out.sadm_cost(g) <= partition.sadm_cost(g));
    out
}
