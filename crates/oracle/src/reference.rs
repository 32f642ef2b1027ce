//! Frozen seed implementations of the **construction pipeline**, preserved
//! for bit-identity checks and as the timing baseline of the `perf_pipeline`
//! bench (the construction-path counterpart of [`crate::improve`]).
//!
//! Everything here is a verbatim copy of the pre-CSR/workspace code paths:
//! nested `Vec<Vec<_>>` adjacency via [`Graph::incident`], `Vec<bool>` edge
//! subsets, per-call scratch allocations, `HashMap`-based Goldschmidt
//! splitting, and the bucket-allocating skeleton serialization. The live
//! implementations in [`mod@grooming::spant_euler`],
//! [`mod@grooming::regular_euler`], [`grooming::baselines`], and the
//! `grooming-graph` substrate must produce **bit-identical partitions**
//! while consuming the RNG stream identically; the golden tests in
//! `crates/core/tests/golden_construct.rs` and the `perf_pipeline` bin
//! both assert this. Do not "improve" this module — its value is that it
//! does not change.

// Frozen verbatim: silence style lints introduced after the seed was cut
// rather than edit the preserved code.
#![allow(clippy::manual_is_multiple_of)]

use grooming_graph::graph::Graph;
use grooming_graph::ids::{EdgeId, NodeId};
use grooming_graph::spanning::{SpanningForest, TreeStrategy};
use grooming_graph::walk::Walk;
use rand::seq::SliceRandom;
use rand::Rng;

use grooming::partition::EdgePartition;
use grooming::regular_euler::NotRegularError;
use grooming::skeleton::{Skeleton, SkeletonCover};

// ---------------------------------------------------------------------------
// Edge subsets (seed representation: Vec<bool> membership).
// ---------------------------------------------------------------------------

struct RefSubset {
    edges: Vec<EdgeId>,
    member: Vec<bool>,
}

impl RefSubset {
    fn from_edges(g: &Graph, ids: impl IntoIterator<Item = EdgeId>) -> Self {
        let mut member = vec![false; g.num_edges()];
        let mut edges = Vec::new();
        for e in ids {
            assert!(
                e.index() < g.num_edges(),
                "edge {e:?} out of range (m = {})",
                g.num_edges()
            );
            if !member[e.index()] {
                member[e.index()] = true;
                edges.push(e);
            }
        }
        RefSubset { edges, member }
    }

    fn full(g: &Graph) -> Self {
        RefSubset {
            edges: g.edges().collect(),
            member: vec![true; g.num_edges()],
        }
    }

    fn complement(&self, g: &Graph) -> Self {
        RefSubset::from_edges(g, g.edges().filter(|e| !self.contains(*e)))
    }

    fn minus(&self, g: &Graph, other: &RefSubset) -> Self {
        RefSubset::from_edges(
            g,
            self.edges.iter().copied().filter(|e| !other.contains(*e)),
        )
    }

    fn union(&self, g: &Graph, other: &RefSubset) -> Self {
        RefSubset::from_edges(
            g,
            self.edges
                .iter()
                .copied()
                .chain(other.edges.iter().copied()),
        )
    }

    fn len(&self) -> usize {
        self.edges.len()
    }

    fn contains(&self, e: EdgeId) -> bool {
        self.member.get(e.index()).copied().unwrap_or(false)
    }

    fn degree(&self, g: &Graph, v: NodeId) -> usize {
        g.incident(v)
            .iter()
            .filter(|&&(_, e)| self.contains(e))
            .count()
    }

    fn edge_components(&self, g: &Graph) -> Vec<Vec<EdgeId>> {
        let mut comp_of = vec![usize::MAX; g.num_nodes()];
        let mut comps: Vec<Vec<EdgeId>> = Vec::new();
        let mut stack = Vec::new();
        for &start_e in &self.edges {
            let (root, _) = g.endpoints(start_e);
            if comp_of[root.index()] != usize::MAX {
                continue;
            }
            let cid = comps.len();
            comps.push(Vec::new());
            comp_of[root.index()] = cid;
            stack.push(root);
            let mut edge_seen = Vec::new();
            while let Some(v) = stack.pop() {
                for &(w, e) in g.incident(v) {
                    if !self.contains(e) {
                        continue;
                    }
                    edge_seen.push(e);
                    if comp_of[w.index()] == usize::MAX {
                        comp_of[w.index()] = cid;
                        stack.push(w);
                    }
                }
            }
            edge_seen.sort_unstable();
            edge_seen.dedup();
            comps[cid] = edge_seen;
        }
        comps
    }
}

// ---------------------------------------------------------------------------
// Euler machinery (seed: fresh used/cursor arrays per hierholzer call).
// ---------------------------------------------------------------------------

fn ref_odd_degree_nodes(g: &Graph, subset: &RefSubset) -> Vec<NodeId> {
    let mut deg = vec![0usize; g.num_nodes()];
    for &e in &subset.edges {
        let (u, v) = g.endpoints(e);
        deg[u.index()] += 1;
        deg[v.index()] += 1;
    }
    (0..g.num_nodes() as u32)
        .map(NodeId)
        .filter(|v| deg[v.index()] % 2 == 1)
        .collect()
}

fn ref_hierholzer(g: &Graph, subset: &RefSubset, start: NodeId) -> Walk {
    let n = g.num_nodes();
    let mut used = vec![false; g.num_edges()];
    let mut cursor = vec![0usize; n];
    let mut stack: Vec<(NodeId, Option<EdgeId>)> = vec![(start, None)];
    let mut out_nodes: Vec<NodeId> = Vec::with_capacity(subset.len() + 1);
    let mut out_edges: Vec<EdgeId> = Vec::with_capacity(subset.len());

    while let Some(&(v, via)) = stack.last() {
        let inc = g.incident(v);
        let mut advanced = false;
        while cursor[v.index()] < inc.len() {
            let (w, e) = inc[cursor[v.index()]];
            cursor[v.index()] += 1;
            if subset.contains(e) && !used[e.index()] {
                used[e.index()] = true;
                stack.push((w, Some(e)));
                advanced = true;
                break;
            }
        }
        if !advanced {
            stack.pop();
            out_nodes.push(v);
            if let Some(e) = via {
                out_edges.push(e);
            }
        }
    }
    out_nodes.reverse();
    out_edges.reverse();
    Walk::from_parts(g, out_nodes, out_edges)
}

fn ref_euler_walk(g: &Graph, subset: &RefSubset, prefer_start: Option<NodeId>) -> Walk {
    let odd = ref_odd_degree_nodes(g, subset);
    let start = match odd.len() {
        0 => prefer_start
            .filter(|&v| subset.degree(g, v) > 0)
            .unwrap_or_else(|| {
                let (u, _) = g.endpoints(subset.edges[0]);
                u
            }),
        2 => match prefer_start {
            Some(v) if odd.contains(&v) => v,
            _ => odd[0],
        },
        k => panic!("{k} odd-degree nodes (at most 2 allowed)"),
    };
    ref_hierholzer(g, subset, start)
}

fn ref_component_euler_walks(g: &Graph, subset: &RefSubset) -> Vec<Walk> {
    let comps = subset.edge_components(g);
    let mut walks = Vec::with_capacity(comps.len());
    for comp in comps {
        let sub = RefSubset::from_edges(g, comp);
        walks.push(ref_euler_walk(g, &sub, None));
    }
    walks
}

fn ref_trail_decomposition(g: &Graph, subset: &RefSubset) -> Vec<Walk> {
    let mut trails = Vec::new();
    for comp in subset.edge_components(g) {
        let comp_subset = RefSubset::from_edges(g, comp.iter().copied());
        let odd = ref_odd_degree_nodes(g, &comp_subset);
        if odd.len() <= 2 {
            trails.push(ref_euler_walk(g, &comp_subset, None));
            continue;
        }
        let mut scratch = Graph::new(g.num_nodes());
        let mut origin: Vec<Option<EdgeId>> = Vec::with_capacity(comp.len() + odd.len() / 2);
        for &e in &comp {
            let (u, v) = g.endpoints(e);
            scratch.add_edge(u, v);
            origin.push(Some(e));
        }
        for pair in odd[2..].chunks(2) {
            scratch.add_edge(pair[0], pair[1]);
            origin.push(None);
        }
        let full = RefSubset::full(&scratch);
        let walk = ref_euler_walk(&scratch, &full, Some(odd[0]));
        let nodes = walk.nodes();
        let mut seg = Walk::singleton(nodes[0]);
        for (i, &e) in walk.edges().iter().enumerate() {
            match origin[e.index()] {
                Some(orig) => seg.push(g, orig),
                None => {
                    if !seg.is_empty() {
                        trails.push(std::mem::replace(&mut seg, Walk::singleton(nodes[i + 1])));
                    } else {
                        seg = Walk::singleton(nodes[i + 1]);
                    }
                }
            }
        }
        if !seg.is_empty() {
            trails.push(seg);
        }
    }
    trails
}

// ---------------------------------------------------------------------------
// Spanning forests (seed: nested adjacency, per-call seen arrays).
// ---------------------------------------------------------------------------

fn ref_from_edge_set(g: &Graph, tree_edges: Vec<EdgeId>) -> SpanningForest {
    let n = g.num_nodes();
    let mut adj: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); n];
    for &e in &tree_edges {
        let (u, v) = g.endpoints(e);
        adj[u.index()].push((v, e));
        adj[v.index()].push((u, e));
    }
    let mut parent = vec![None; n];
    let mut depth = vec![0usize; n];
    let mut roots = Vec::new();
    let mut seen = vec![false; n];
    for r in g.nodes() {
        if seen[r.index()] {
            continue;
        }
        seen[r.index()] = true;
        roots.push(r);
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(r);
        while let Some(v) = queue.pop_front() {
            for &(w, e) in &adj[v.index()] {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    parent[w.index()] = Some((v, e));
                    depth[w.index()] = depth[v.index()] + 1;
                    queue.push_back(w);
                }
            }
        }
    }
    SpanningForest {
        edges: tree_edges,
        parent,
        roots,
        depth,
    }
}

fn ref_search_forest(g: &Graph, bfs: bool) -> SpanningForest {
    let n = g.num_nodes();
    let mut parent = vec![None; n];
    let mut depth = vec![0usize; n];
    let mut roots = Vec::new();
    let mut edges = Vec::new();
    let mut seen = vec![false; n];
    let mut deque = std::collections::VecDeque::new();
    for r in g.nodes() {
        if seen[r.index()] {
            continue;
        }
        seen[r.index()] = true;
        roots.push(r);
        deque.push_back(r);
        while let Some(v) = if bfs {
            deque.pop_front()
        } else {
            deque.pop_back()
        } {
            for &(w, e) in g.incident(v) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    parent[w.index()] = Some((v, e));
                    depth[w.index()] = depth[v.index()] + 1;
                    edges.push(e);
                    deque.push_back(w);
                }
            }
        }
    }
    SpanningForest {
        edges,
        parent,
        roots,
        depth,
    }
}

fn ref_random_kruskal_forest<R: Rng>(g: &Graph, rng: &mut R) -> SpanningForest {
    let mut order: Vec<EdgeId> = g.edges().collect();
    order.shuffle(rng);
    let mut dsu = grooming_graph::spanning::Dsu::new(g.num_nodes());
    let mut tree_edges = Vec::with_capacity(g.num_nodes().saturating_sub(1));
    for e in order {
        let (u, v) = g.endpoints(e);
        if dsu.union(u.index(), v.index()) {
            tree_edges.push(e);
        }
    }
    ref_from_edge_set(g, tree_edges)
}

fn ref_low_degree_forest<R: Rng>(g: &Graph, rng: &mut R) -> SpanningForest {
    let mut forest = ref_search_forest(g, true);
    let m = g.num_edges();
    if m == 0 {
        return forest;
    }
    let mut non_tree: Vec<EdgeId> = {
        let mut in_tree = vec![false; m];
        for &e in &forest.edges {
            in_tree[e.index()] = true;
        }
        g.edges().filter(|e| !in_tree[e.index()]).collect()
    };
    non_tree.shuffle(rng);

    let max_rounds = 4 * g.num_nodes().max(8);
    for _ in 0..max_rounds {
        let deg = forest.degrees(g);
        let delta = deg.iter().copied().max().unwrap_or(0);
        if delta <= 2 {
            break;
        }
        let mut improved = false;
        for (slot, &e) in non_tree.iter().enumerate() {
            let (u, w) = g.endpoints(e);
            if deg[u.index()] > delta - 2 || deg[w.index()] > delta - 2 {
                continue;
            }
            let path = grooming_graph::tree::tree_path(g, &forest, u, w)
                .expect("non-tree edge endpoints must be tree-connected");
            let mut swap_edge = None;
            for &pe in &path {
                let (a, b) = g.endpoints(pe);
                if deg[a.index()] == delta || deg[b.index()] == delta {
                    swap_edge = Some(pe);
                    break;
                }
            }
            if let Some(out) = swap_edge {
                let mut edges = forest.edges.clone();
                let pos = edges.iter().position(|&x| x == out).unwrap();
                edges[pos] = e;
                forest = ref_from_edge_set(g, edges);
                non_tree[slot] = out;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    forest
}

fn ref_spanning_forest<R: Rng>(g: &Graph, strategy: TreeStrategy, rng: &mut R) -> SpanningForest {
    match strategy {
        TreeStrategy::Bfs => ref_search_forest(g, true),
        TreeStrategy::Dfs => ref_search_forest(g, false),
        TreeStrategy::RandomKruskal => ref_random_kruskal_forest(g, rng),
        TreeStrategy::LowDegree => ref_low_degree_forest(g, rng),
    }
}

// ---------------------------------------------------------------------------
// Tree utilities (seed: comparison-sort bottom-up order, fresh count array).
// ---------------------------------------------------------------------------

fn ref_bottom_up_order(forest: &SpanningForest) -> Vec<NodeId> {
    let n = forest.parent.len();
    let mut order: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    order.sort_by(|a, b| forest.depth[b.index()].cmp(&forest.depth[a.index()]));
    order
}

fn ref_odd_parity_tree_edges(forest: &SpanningForest, marked: &[bool]) -> Vec<EdgeId> {
    let n = forest.parent.len();
    let mut count = vec![0usize; n];
    for v in 0..n {
        if marked[v] {
            count[v] = 1;
        }
    }
    let mut e_odd = Vec::new();
    for v in ref_bottom_up_order(forest) {
        if let Some((p, e)) = forest.parent[v.index()] {
            if count[v.index()] % 2 == 1 {
                e_odd.push(e);
            }
            count[p.index()] += count[v.index()];
        } else {
            debug_assert!(
                count[v.index()] % 2 == 0,
                "a tree contains an odd number of marked nodes"
            );
        }
    }
    e_odd
}

fn ref_decompose_into_paths(g: &Graph, forest: &SpanningForest) -> Vec<Walk> {
    let n = g.num_nodes();
    let mut adj: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); n];
    for &e in &forest.edges {
        let (u, v) = g.endpoints(e);
        adj[u.index()].push((v, e));
        adj[v.index()].push((u, e));
    }
    let mut used = vec![false; g.num_edges()];
    let mut deg: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut remaining = forest.edges.len();
    let mut paths = Vec::new();

    while remaining > 0 {
        let leaf = (0..n)
            .map(NodeId::new)
            .find(|v| deg[v.index()] == 1)
            .expect("a forest with edges has a leaf");
        let mut walk = Walk::singleton(leaf);
        let mut cur = leaf;
        loop {
            let next = adj[cur.index()]
                .iter()
                .find(|&&(_, e)| !used[e.index()])
                .copied();
            let Some((w, e)) = next else { break };
            used[e.index()] = true;
            deg[cur.index()] -= 1;
            deg[w.index()] -= 1;
            remaining -= 1;
            walk.push(g, e);
            cur = w;
        }
        paths.push(walk);
    }
    paths
}

// ---------------------------------------------------------------------------
// Skeleton cover (seed: per-skeleton bucket allocation in serialize).
// ---------------------------------------------------------------------------

fn ref_serialize(s: &Skeleton) -> Vec<EdgeId> {
    let positions = s.backbone().nodes().len();
    let mut buckets: Vec<Vec<EdgeId>> = vec![Vec::new(); positions];
    for br in s.branches() {
        buckets[br.attach].push(br.edge);
    }
    let mut out = Vec::with_capacity(s.size());
    for (pos, bucket) in buckets.iter().enumerate() {
        out.extend_from_slice(bucket);
        if pos < s.backbone().len() {
            out.push(s.backbone().edges()[pos]);
        }
    }
    out
}

fn ref_build_cover(g: &Graph, backbones: Vec<Walk>, branch_edges: &[EdgeId]) -> SkeletonCover {
    let n = g.num_nodes();
    let mut anchor: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut skeletons: Vec<Skeleton> = Vec::with_capacity(backbones.len());
    for walk in backbones {
        let idx = skeletons.len();
        for (pos, &v) in walk.nodes().iter().enumerate() {
            if anchor[v.index()].is_none() {
                anchor[v.index()] = Some((idx, pos));
            }
        }
        skeletons.push(Skeleton::from_backbone(walk));
    }
    for &e in branch_edges {
        let (a, b) = g.endpoints(e);
        let slot = anchor[a.index()].or(anchor[b.index()]);
        let (idx, pos) = match slot {
            Some(s) => s,
            None => {
                let idx = skeletons.len();
                skeletons.push(Skeleton::from_backbone(Walk::singleton(a)));
                anchor[a.index()] = Some((idx, 0));
                (idx, 0)
            }
        };
        skeletons[idx].attach_branch(g, e, pos);
    }
    let mut cover = SkeletonCover::new();
    for s in skeletons {
        cover.push(s);
    }
    cover
}

fn ref_to_partition(cover: &SkeletonCover, k: usize) -> EdgePartition {
    assert!(k > 0, "grooming factor must be positive");
    let mut parts: Vec<Vec<EdgeId>> = Vec::new();
    let mut current: Vec<EdgeId> = Vec::with_capacity(k);
    for s in cover.skeletons() {
        for e in ref_serialize(s) {
            current.push(e);
            if current.len() == k {
                parts.push(std::mem::take(&mut current));
            }
        }
    }
    if !current.is_empty() {
        parts.push(current);
    }
    EdgePartition::new(parts)
}

// ---------------------------------------------------------------------------
// Public entry points: the five construction algorithms, seed behavior.
// ---------------------------------------------------------------------------

/// Seed `SpanT_Euler` (must stay bit-identical to
/// [`grooming::spant_euler::spant_euler`]).
pub fn spant_euler<R: Rng>(
    g: &Graph,
    k: usize,
    strategy: TreeStrategy,
    rng: &mut R,
) -> EdgePartition {
    assert!(k > 0, "grooming factor must be positive");
    if g.is_empty() {
        return EdgePartition::new(Vec::new());
    }
    let forest = ref_spanning_forest(g, strategy, rng);
    let tree_set = RefSubset::from_edges(g, forest.edges.iter().copied());
    let non_tree = tree_set.complement(g);

    let mut marked = vec![false; g.num_nodes()];
    for v in ref_odd_degree_nodes(g, &non_tree) {
        marked[v.index()] = true;
    }
    let e_odd = ref_odd_parity_tree_edges(&forest, &marked);

    let e_odd_set = RefSubset::from_edges(g, e_odd.iter().copied());
    let g2 = e_odd_set.union(g, &non_tree);
    let backbones = ref_component_euler_walks(g, &g2);

    let remaining: Vec<_> = tree_set.minus(g, &e_odd_set).edges.clone();
    let cover = ref_build_cover(g, backbones, &remaining);
    ref_to_partition(&cover, k)
}

/// Seed `Regular_Euler` (must stay bit-identical to
/// [`grooming::regular_euler::regular_euler`]).
pub fn regular_euler(g: &Graph, k: usize) -> Result<EdgePartition, NotRegularError> {
    assert!(k > 0, "grooming factor must be positive");
    let r = match g.regularity() {
        Some(r) => r,
        None => {
            return Err(NotRegularError {
                min_degree: g.min_degree(),
                max_degree: g.max_degree(),
            })
        }
    };
    if g.is_empty() {
        return Ok(EdgePartition::new(Vec::new()));
    }
    let cover = if r % 2 == 0 {
        let backbones = ref_component_euler_walks(g, &RefSubset::full(g));
        ref_build_cover(g, backbones, &[])
    } else {
        let matching = grooming_graph::matching::maximum_matching(g);
        let m_set = RefSubset::from_edges(g, matching.edges().iter().copied());
        let rest = m_set.complement(g);
        let backbones = ref_trail_decomposition(g, &rest);
        ref_build_cover(g, backbones, matching.edges())
    };
    Ok(ref_to_partition(&cover, k))
}

/// Seed Goldschmidt baseline (must stay bit-identical to
/// [`grooming::baselines::goldschmidt`]).
pub fn goldschmidt<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> EdgePartition {
    assert!(k > 0, "grooming factor must be positive");
    let m = g.num_edges();
    let mut assigned = vec![false; m];
    let mut remaining = m;
    let mut parts: Vec<Vec<EdgeId>> = Vec::new();
    let n = g.num_nodes();
    while remaining > 0 {
        let offset = if n > 0 { rng.gen_range(0..n) } else { 0 };
        let forest = ref_peel_spanning_forest(g, &assigned, offset);
        for tree in &forest {
            ref_split_tree_into_parts(tree, k, &mut parts);
        }
        for tree in forest {
            for (_, _, e) in tree {
                assigned[e.index()] = true;
                remaining -= 1;
            }
        }
    }
    EdgePartition::new(parts)
}

fn ref_peel_spanning_forest(
    g: &Graph,
    assigned: &[bool],
    offset: usize,
) -> Vec<Vec<(NodeId, NodeId, EdgeId)>> {
    let n = g.num_nodes();
    let mut seen = vec![false; n];
    let mut forest = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for i in 0..n {
        let root = NodeId::new((i + offset) % n);
        if seen[root.index()] {
            continue;
        }
        seen[root.index()] = true;
        queue.push_back(root);
        let mut tree = Vec::new();
        while let Some(v) = queue.pop_front() {
            for &(w, e) in g.incident(v) {
                if assigned[e.index()] || seen[w.index()] {
                    continue;
                }
                seen[w.index()] = true;
                tree.push((v, w, e));
                queue.push_back(w);
            }
        }
        if !tree.is_empty() {
            forest.push(tree);
        }
    }
    forest
}

fn ref_split_tree_into_parts(
    tree: &[(NodeId, NodeId, EdgeId)],
    k: usize,
    parts: &mut Vec<Vec<EdgeId>>,
) {
    let mut children: std::collections::HashMap<NodeId, Vec<(NodeId, EdgeId)>> =
        std::collections::HashMap::new();
    let mut is_child: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
    for &(p, c, e) in tree {
        children.entry(p).or_default().push((c, e));
        is_child.insert(c);
    }
    let root = tree
        .iter()
        .map(|&(p, _, _)| p)
        .find(|p| !is_child.contains(p))
        .expect("a nonempty tree has a root");

    let mut bundle: std::collections::HashMap<NodeId, Vec<EdgeId>> =
        std::collections::HashMap::new();
    let mut stack = vec![(root, false)];
    while let Some((v, processed)) = stack.pop() {
        if !processed {
            stack.push((v, true));
            if let Some(ch) = children.get(&v) {
                for &(c, _) in ch {
                    stack.push((c, false));
                }
            }
            continue;
        }
        let mut acc: Vec<EdgeId> = Vec::new();
        if let Some(ch) = children.get(&v) {
            for &(c, e) in ch {
                let mut sub = bundle.remove(&c).unwrap_or_default();
                sub.push(e);
                if sub.len() == k {
                    parts.push(sub);
                } else if acc.len() + sub.len() > k {
                    parts.push(std::mem::replace(&mut acc, sub));
                } else {
                    acc.extend(sub);
                    if acc.len() == k {
                        parts.push(std::mem::take(&mut acc));
                    }
                }
            }
        }
        if !acc.is_empty() {
            bundle.insert(v, acc);
        }
    }
    if let Some(left) = bundle.remove(&root) {
        parts.push(left);
    }
}

/// Seed Brauner baseline (must stay bit-identical to
/// [`grooming::baselines::brauner`]).
pub fn brauner(g: &Graph, k: usize) -> EdgePartition {
    assert!(k > 0, "grooming factor must be positive");
    if g.is_empty() {
        return EdgePartition::new(Vec::new());
    }
    let trails = ref_trail_decomposition(g, &RefSubset::full(g));
    let cover = ref_build_cover(g, trails, &[]);
    ref_to_partition(&cover, k)
}

/// Seed Wang–Gu ICC'06 baseline (must stay bit-identical to
/// [`grooming::baselines::wang_gu_icc06`]).
pub fn wang_gu_icc06<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> EdgePartition {
    assert!(k > 0, "grooming factor must be positive");
    if g.is_empty() {
        return EdgePartition::new(Vec::new());
    }
    let forest = ref_spanning_forest(g, TreeStrategy::RandomKruskal, rng);
    let backbones = ref_decompose_into_paths(g, &forest);
    let tree_set = RefSubset::from_edges(g, forest.edges.iter().copied());
    let non_tree: Vec<EdgeId> = tree_set.complement(g).edges.clone();
    let cover = ref_build_cover(g, backbones, &non_tree);
    ref_to_partition(&cover, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grooming_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reference_algorithms_produce_valid_partitions() {
        let g = generators::gnm(20, 60, &mut StdRng::seed_from_u64(5));
        for k in [2, 4, 16] {
            spant_euler(&g, k, TreeStrategy::Bfs, &mut StdRng::seed_from_u64(1))
                .validate(&g, k)
                .unwrap();
            goldschmidt(&g, k, &mut StdRng::seed_from_u64(2))
                .validate(&g, k)
                .unwrap();
            brauner(&g, k).validate(&g, k).unwrap();
            wang_gu_icc06(&g, k, &mut StdRng::seed_from_u64(3))
                .validate(&g, k)
                .unwrap();
        }
        let reg = generators::random_regular(20, 4, &mut StdRng::seed_from_u64(6));
        regular_euler(&reg, 4).unwrap().validate(&reg, 4).unwrap();
    }
}
