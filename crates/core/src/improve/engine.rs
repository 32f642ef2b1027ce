//! Incremental part state for the local-search engine.
//!
//! The seed implementation kept a heap-allocated `count: Vec<u32>` of size
//! `n` *per part* (an allocation per part, an O(n) sweep to compare two
//! parts) and evaluated every candidate swap by eight apply/undo mutations.
//! This module replaces that with:
//!
//! * [`Part`] — edge list + occupied-node list. The occupancy list's length
//!   is the part's SADM cost, and merging/overlap scoring iterate it instead
//!   of sweeping `0..n`.
//! * [`Engine`] — the parts plus shared state: per-part node counts, an
//!   edge → position map so removal is O(1) instead of a linear scan, and
//!   node lists (one arena, sized by degree) holding each node's occupying
//!   parts, so the move pass asks "which part already covers this
//!   endpoint?" instead of scanning all `W` parts. The counts have two
//!   backends that answer identically: a flat `W × n` matrix while it has
//!   at most [`DENSE_INCIDENCE_MAX`] entries (cache-sized, O(1) lookups),
//!   and above that the node lists carry each count, with two `n`-sized
//!   views holding the parts a pass is working on. Pair scans then read
//!   both parts' counts in O(1), any other part's count is a scan of the
//!   node's list, and refine and warm repair run in O(n + m) memory.
//! * A mutation-free swap pass: per-edge cost contributions are precomputed
//!   once per pair from the (static) counts, most candidate rows collapse to
//!   scanning only the few "negative-contribution" edges of the other side,
//!   and the seed's per-combination trial permutations are replayed in
//!   closed form as a single rotation (see [`Engine::rotate_first`]).
//!
//! Every mutation is written to have the exact same effect on the part edge
//! *vectors* as the seed's apply/undo sequences, so the rebuilt
//! `refine`/`anneal` are bit-identical to the reference implementations,
//! not merely cost-equivalent.

use grooming_graph::graph::Graph;
use grooming_graph::ids::{EdgeId, NodeId};

use crate::partition::EdgePartition;

/// One wavelength: its edges and the distinct nodes they touch.
///
/// `occ` is unordered; its length is the part's SADM cost.
#[derive(Clone, Debug, Default)]
pub(crate) struct Part {
    pub edges: Vec<EdgeId>,
    pub occ: Vec<NodeId>,
}

/// Builds the per-part state for raw edge lists in one pass (a shared stamp
/// array stands in for the seed's per-part `vec![0; n]` count buffers).
/// Unlike [`EdgePartition`], the lists may contain empty parts — warm
/// repair seeds engines with vacated (possibly emptied) slots in place.
/// The lists are moved into the parts, not copied.
pub(crate) fn build_parts(g: &Graph, lists: Vec<Vec<EdgeId>>) -> Vec<Part> {
    let mut mark = vec![u32::MAX; g.num_nodes()];
    lists
        .into_iter()
        .enumerate()
        .map(|(i, edges)| {
            let mut occ = Vec::new();
            for &e in &edges {
                let (u, v) = g.endpoints(e);
                for z in [u, v] {
                    if mark[z.index()] != i as u32 {
                        mark[z.index()] = i as u32;
                        occ.push(z);
                    }
                }
            }
            Part { edges, occ }
        })
        .collect()
}

/// Per-edge swap contribution: (edge, endpoint, endpoint, contribution of
/// each endpoint to the swap delta when it is not shared with the partner
/// edge). Contributions are in `{-1, 0, 1}`.
type EdgeInfo = (EdgeId, NodeId, NodeId, i32, i32);

/// Swap delta of the pair from precomputed contributions: endpoints shared
/// between the two edges cancel; every other endpoint contributes its
/// precomputed term. Equals the seed's `after - before` from its
/// 8-mutation simulation.
#[inline]
fn pair_delta(ea: EdgeInfo, fb: EdgeInfo) -> i32 {
    let (_, u, v, cu, cv) = ea;
    let (_, x, y, cx, cy) = fb;
    cx * ((x != u) & (x != v)) as i32
        + cy * ((y != u) & (y != v)) as i32
        + cu * ((u != x) & (u != y)) as i32
        + cv * ((v != x) & (v != y)) as i32
}

/// Dense-incidence cutover: the engine keeps the flat `W × n` count matrix
/// only while it has at most this many entries (2²⁰ `u16`s, 2 MiB: one
/// core's L2 on the 2-vCPU Xeon host it was measured on), and uses the
/// sparse backend above it. A ForceDense-vs-ForceSparse sweep of 8-round
/// refine and warm repair on `power_law(n)` at `k = 16`, W·n from 2¹² to
/// 2²², one solve alone and two at once, had dense ahead by 10–30 % up to
/// 2¹⁹, the two within noise of each other from 2¹⁹·⁵ to 2²¹, and sparse
/// ahead by 5–20 % at 2²¹·⁶–2²² (DESIGN §14).
const DENSE_INCIDENCE_MAX: usize = 1 << 20;

/// How the engine stores incidence counts. `Auto` applies the
/// [`DENSE_INCIDENCE_MAX`] cutover; the forced variants exist for the
/// bit-identity tests and the `perf_scale` bench comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum IncidenceMode {
    Auto,
    ForceDense,
    ForceSparse,
}

/// No part: the state of a [`View`] that holds nothing.
const NO_PART: u32 = u32::MAX;

/// An `n`-sized copy of one part's node counts, so that a pair scan reads
/// them in O(1) without a `W × n` matrix. Loading zeroes the part dropped
/// (O(|occ|)) and counts the part taken over its edges (O(k)); every count
/// change to the held part is written through, so a view never outlives
/// its part's state.
struct View {
    part: u32,
    cnt: Vec<u32>,
}

impl View {
    fn new(n: usize) -> Self {
        View {
            part: NO_PART,
            cnt: vec![0; n],
        }
    }

    fn load(&mut self, g: &Graph, parts: &[Part], p: u32) {
        if self.part != NO_PART {
            for &x in &parts[self.part as usize].occ {
                self.cnt[x.index()] = 0;
            }
        }
        self.part = p;
        for &e in &parts[p as usize].edges {
            let (u, v) = g.endpoints(e);
            self.cnt[u.index()] += 1;
            self.cnt[v.index()] += 1;
        }
    }
}

/// A node-list entry: the occupying part, alone or with the node's count
/// in it.
trait Entry: Copy + Default {
    fn part(self) -> u32;
}

impl Entry for u32 {
    #[inline]
    fn part(self) -> u32 {
        self
    }
}

impl Entry for (u32, u32) {
    #[inline]
    fn part(self) -> u32 {
        self.0
    }
}

/// Node-side incidence: every node's occupying parts, in one arena. Parts
/// are edge-disjoint, so a node lies in at most `deg(x)` of them; node
/// `x`'s slice is sized by its degree, and ingest allocates the arena once
/// instead of a list per node.
struct NodeLists<E> {
    /// `span[x] = (start, len)`: node `x`'s entries are
    /// `ent[start..start + len]`, with room up to `span[x + 1].0`
    /// (`span[n]` closes the arena). Unordered, one entry per occupying
    /// part.
    span: Vec<(u32, u32)>,
    ent: Vec<E>,
}

impl<E: Entry> NodeLists<E> {
    fn new(g: &Graph) -> Self {
        let mut span = Vec::with_capacity(g.num_nodes() + 1);
        let mut end = 0u32;
        for x in g.nodes() {
            span.push((end, 0));
            end += g.degree(x) as u32;
        }
        span.push((end, 0));
        NodeLists {
            span,
            ent: vec![E::default(); end as usize],
        }
    }

    /// The entry of every part occupying `x`.
    #[inline]
    fn of(&self, x: NodeId) -> &[E] {
        let (s, len) = self.span[x.index()];
        &self.ent[s as usize..(s + len) as usize]
    }

    /// Part `p`'s entry in `x`'s list, if `p` occupies `x`: a list scan.
    #[inline]
    fn find(&mut self, x: NodeId, p: usize) -> Option<&mut E> {
        let (s, len) = self.span[x.index()];
        self.ent[s as usize..(s + len) as usize]
            .iter_mut()
            .find(|e| e.part() == p as u32)
    }

    /// Appends `e`, whose part must not be on `x`'s list yet.
    fn push(&mut self, x: NodeId, e: E) {
        let i = x.index();
        let (s, len) = self.span[i];
        assert!(s + len < self.span[i + 1].0, "parts share an edge");
        self.ent[(s + len) as usize] = e;
        self.span[i].1 += 1;
    }

    /// Drops part `p`'s entry from `x`'s list (the last entry fills the
    /// hole).
    fn remove(&mut self, x: NodeId, p: usize) {
        let i = x.index();
        let (s, len) = self.span[i];
        let list = &mut self.ent[s as usize..(s + len) as usize];
        let j = list
            .iter()
            .position(|e| e.part() == p as u32)
            .expect("node list must hold the occupying part");
        list[j] = list[len as usize - 1];
        self.span[i].1 -= 1;
    }
}

/// Per-part node incidence counts, dense or sparse, with the node lists
/// that go with each.
///
/// Dense is the flat `W × n` matrix (O(1) lookups, O(W·n) memory), held
/// as `u16`: a node's count in a part never exceeds its degree, so dense
/// is chosen only for graphs with `Δ ≤ u16::MAX`. Its node lists hold
/// parts only, written when a part starts or stops occupying a node; the
/// matrix answers every count. Sparse keeps each count once, in the node
/// lists' `(part, count)` entries, plus two [`View`]s: the engine loads
/// the parts a pass is working on into them ([`Engine::focus`]), so their
/// counts are O(1) to read, any other part's count is a scan of the
/// node's list, and the swap sweep's gather reads a partner's leaf-ness
/// straight from the entry. Both answer exactly the same counts, so every
/// consumer is bit-identical across representations.
///
/// Mirroring counts into the dense node lists would cost a list scan per
/// count change, which `anneal` pays on every accepted swap.
enum Incidence {
    Dense {
        cnt: Vec<u16>,
        nodes: NodeLists<u32>,
    },
    Sparse {
        views: [View; 2],
        nodes: NodeLists<(u32, u32)>,
    },
}

impl Incidence {
    #[inline]
    fn get(&self, n: usize, p: usize, x: NodeId) -> u32 {
        match self {
            Incidence::Dense { cnt, .. } => cnt[p * n + x.index()] as u32,
            Incidence::Sparse { views, nodes } => match views.iter().find(|v| v.part == p as u32) {
                Some(v) => v.cnt[x.index()],
                None => nodes
                    .of(x)
                    .iter()
                    .find(|&&(q, _)| q == p as u32)
                    .map_or(0, |&(_, c)| c),
            },
        }
    }

    /// Increments the count of `x` in part `p`; returns the new count.
    #[inline]
    fn inc(&mut self, n: usize, p: usize, x: NodeId) -> u32 {
        match self {
            Incidence::Dense { cnt, nodes } => {
                let slot = &mut cnt[p * n + x.index()];
                *slot += 1;
                if *slot == 1 {
                    nodes.push(x, p as u32);
                }
                *slot as u32
            }
            Incidence::Sparse { views, nodes } => sparse_step(views, nodes, p, x, true),
        }
    }

    /// Decrements the count of `x` in part `p`; returns the new count.
    #[inline]
    fn dec(&mut self, n: usize, p: usize, x: NodeId) -> u32 {
        match self {
            Incidence::Dense { cnt, nodes } => {
                let slot = &mut cnt[p * n + x.index()];
                *slot -= 1;
                if *slot == 0 {
                    nodes.remove(x, p);
                }
                *slot as u32
            }
            Incidence::Sparse { views, nodes } => sparse_step(views, nodes, p, x, false),
        }
    }

    /// The parts occupying `x`.
    #[inline]
    fn parts_at(&self, x: NodeId) -> PartsAt<'_> {
        match self {
            Incidence::Dense { nodes, .. } => PartsAt::Dense(nodes.of(x).iter()),
            Incidence::Sparse { nodes, .. } => PartsAt::Sparse(nodes.of(x).iter()),
        }
    }
}

/// A sparse count change: adds one to (`up`) or takes one from the count
/// of `x` in part `p` in `x`'s list (entering `p` at 1, dropping it at 0),
/// writes it through to any view holding `p`, and returns it. Kept out of
/// line: refine and warm repair change few counts, and the dense arms of
/// [`Incidence::inc`] and [`Incidence::dec`], which `anneal` runs on every
/// accepted move, stay small.
#[inline(never)]
fn sparse_step(
    views: &mut [View; 2],
    nodes: &mut NodeLists<(u32, u32)>,
    p: usize,
    x: NodeId,
    up: bool,
) -> u32 {
    let c = match nodes.find(x, p) {
        Some((_, c)) => {
            if up {
                *c += 1;
            } else {
                *c -= 1;
            }
            *c
        }
        None => {
            assert!(up, "decrement of absent incidence count");
            nodes.push(x, (p as u32, 1));
            1
        }
    };
    if c == 0 {
        nodes.remove(x, p);
    }
    for v in views.iter_mut().filter(|v| v.part == p as u32) {
        v.cnt[x.index()] = c;
    }
    c
}

/// Iterator over the parts occupying one node ([`Incidence::parts_at`]).
enum PartsAt<'a> {
    Dense(std::slice::Iter<'a, u32>),
    Sparse(std::slice::Iter<'a, (u32, u32)>),
}

impl Iterator for PartsAt<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            PartsAt::Dense(it) => it.next().map(|&p| p as usize),
            PartsAt::Sparse(it) => it.next().map(|&(p, _)| p as usize),
        }
    }
}

/// Fenwick tree over part indices holding *deferred* rotation amounts
/// (difference-array form: range add, point query by prefix sum). Used by
/// [`Engine::swap_sweep`] to replay the edge-vector rotations of
/// skipped-but-provably-rejected swap pairs without visiting them.
struct RotFenwick {
    tree: Vec<u64>,
}

impl RotFenwick {
    fn new(w: usize) -> Self {
        RotFenwick {
            tree: vec![0; w + 1],
        }
    }

    fn point_add(&mut self, mut i: usize, delta: u64) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Adds `delta` to every index in `[l, r)`.
    fn range_add(&mut self, l: usize, r: usize, delta: u64) {
        if l >= r {
            return;
        }
        self.point_add(l, delta);
        self.point_add(r, delta.wrapping_neg());
    }

    /// Current value at index `i` (exact: cancellations net out).
    fn value(&self, mut i: usize) -> u64 {
        i += 1;
        let mut s = 0u64;
        while i > 0 {
            s = s.wrapping_add(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// The incremental local-search state: parts plus the shared indices and
/// scratch buffers described in the module docs.
pub(crate) struct Engine<'g> {
    g: &'g Graph,
    n: usize,
    pub parts: Vec<Part>,
    /// Edge id → current position inside its part's `edges` vector.
    /// Only meaningful for edges currently placed in some part.
    edge_pos: Vec<u32>,
    /// Node counts per part and the node lists, dense (`W × n` matrix) or
    /// sparse (counted node lists plus views) per the cutover. The part
    /// count `W` is fixed for an engine's lifetime (parts may empty but
    /// never vanish), so dense strides stay valid.
    inc: Incidence,
    /// Reusable swap-pass scratch (no per-pair allocation).
    info_a: Vec<EdgeInfo>,
    info_b: Vec<EdgeInfo>,
    neg_b: Vec<u32>,
    rot_buf: Vec<EdgeId>,
    /// Edge-set change clock: `changed_at[p]` is the tick of the last
    /// edge added to or removed from part `p` (0: never since ingest).
    /// Rotations and trial permutations reorder edges without changing the
    /// set, so they do not tick.
    clock: u64,
    changed_at: Vec<u64>,
    /// Per swap-sweep row `a`: `(tick, bound)` of its last scan — every
    /// partner below `bound` provably missed against the edge sets as of
    /// `tick` (see [`Self::swap_sweep`]). `bound == 0` records nothing.
    row_scan: Vec<(u64, u32)>,
    /// Candidate swap evaluations performed (instrumentation; never read
    /// by the search itself, so it cannot affect outputs). Pairs skipped
    /// as provable misses are not evaluated, so they add nothing.
    pub swaps_evaluated: u64,
}

impl<'g> Engine<'g> {
    pub fn new(g: &'g Graph, partition: &EdgePartition) -> Self {
        Self::with_mode(g, partition, IncidenceMode::Auto)
    }

    pub fn with_mode(g: &'g Graph, partition: &EdgePartition, mode: IncidenceMode) -> Self {
        Self::from_lists(g, partition.parts().to_vec(), mode)
    }

    /// Builds an engine from raw edge lists, which — unlike an
    /// [`EdgePartition`] — may contain empty parts. Warm repair uses this
    /// to ingest a prior plan with removed edges already vacated and spare
    /// slots appended for the first-fit placement of added edges.
    ///
    /// One pass over the edges: a node-indexed tally counts each part's
    /// incidences, and the counts go straight into the chosen backend: the
    /// matrix and the node-list arena, or the arena alone. No per-node
    /// vector and no per-part count storage is allocated.
    pub fn from_lists(g: &'g Graph, lists: Vec<Vec<EdgeId>>, mode: IncidenceMode) -> Self {
        let n = g.num_nodes();
        let w = lists.len();
        let counts_fit_u16 = g.max_degree() <= u16::MAX as usize;
        let dense = match mode {
            IncidenceMode::Auto => counts_fit_u16 && w.saturating_mul(n) <= DENSE_INCIDENCE_MAX,
            IncidenceMode::ForceDense => {
                assert!(
                    counts_fit_u16,
                    "dense incidence needs max degree ≤ u16::MAX"
                );
                true
            }
            IncidenceMode::ForceSparse => false,
        };
        let mut inc = if dense {
            Incidence::Dense {
                cnt: vec![0u16; w * n],
                nodes: NodeLists::new(g),
            }
        } else {
            Incidence::Sparse {
                views: [View::new(n), View::new(n)],
                nodes: NodeLists::new(g),
            }
        };
        let mut edge_pos = vec![0u32; g.num_edges()];
        let mut tally = vec![0u32; n];
        let mut occ: Vec<NodeId> = Vec::new();
        let mut parts = Vec::with_capacity(w);
        for (i, edges) in lists.into_iter().enumerate() {
            occ.clear();
            for (pos, &e) in edges.iter().enumerate() {
                edge_pos[e.index()] = pos as u32;
                let (u, v) = g.endpoints(e);
                for z in [u, v] {
                    if tally[z.index()] == 0 {
                        occ.push(z);
                    }
                    tally[z.index()] += 1;
                }
            }
            match &mut inc {
                Incidence::Dense { cnt, nodes } => {
                    for &x in &occ {
                        cnt[i * n + x.index()] = std::mem::take(&mut tally[x.index()]) as u16;
                        nodes.push(x, i as u32);
                    }
                }
                Incidence::Sparse { nodes, .. } => {
                    for &x in &occ {
                        nodes.push(x, (i as u32, std::mem::take(&mut tally[x.index()])));
                    }
                }
            }
            parts.push(Part {
                edges,
                occ: occ.clone(),
            });
        }
        Engine {
            g,
            n,
            parts,
            edge_pos,
            inc,
            info_a: Vec::new(),
            info_b: Vec::new(),
            neg_b: Vec::new(),
            rot_buf: Vec::new(),
            clock: 0,
            changed_at: vec![0; w],
            row_scan: vec![(0, 0); w],
            swaps_evaluated: 0,
        }
    }

    /// Total SADM cost: Σ distinct nodes per part.
    pub fn cost(&self) -> usize {
        self.parts.iter().map(|p| p.occ.len()).sum()
    }

    /// Consumes the engine into raw per-part edge lists.
    pub fn into_edge_lists(self) -> Vec<Vec<EdgeId>> {
        self.parts.into_iter().map(|p| p.edges).collect()
    }

    /// Incidence count of node `x` in part `p`. O(1) dense, and O(1)
    /// sparse for the parts held in views ([`Self::focus`]); for any other
    /// sparse part, a scan of `x`'s node list (O(|L(x)|), at most `deg(x)`).
    #[inline]
    pub fn cnt_of(&self, p: usize, x: NodeId) -> u32 {
        self.inc.get(self.n, p, x)
    }

    /// Count slots the engine holds: the dense matrix or the two sparse
    /// views, plus the node-list arena's entries.
    #[cfg(test)]
    fn count_slots(&self) -> usize {
        match &self.inc {
            Incidence::Dense { cnt, nodes } => cnt.len() + nodes.ent.len(),
            Incidence::Sparse { views, nodes } => {
                views.iter().map(|v| v.cnt.len()).sum::<usize>() + nodes.ent.len()
            }
        }
    }

    /// Makes the counts of parts `a` and `b` (`a == b` for one part) O(1)
    /// to read: the sparse backend loads whichever of them its two views
    /// do not already hold, without evicting the other. A no-op for dense.
    pub fn focus(&mut self, a: usize, b: usize) {
        if let Incidence::Sparse { views, .. } = &mut self.inc {
            for (p, q) in [(a as u32, b as u32), (b as u32, a as u32)] {
                if views[0].part != p && views[1].part != p {
                    let slot = (views[0].part == q) as usize;
                    views[slot].load(self.g, &self.parts, p);
                }
            }
        }
    }

    /// Removes `e` from part `a` in O(1) + occupancy upkeep.
    ///
    /// Vector effect: `swap_remove(pos(e))` — identical to the seed's
    /// `PartState::remove`, minus its linear position scan.
    pub fn remove_edge_from(&mut self, a: usize, e: EdgeId) {
        let pos = self.edge_pos[e.index()] as usize;
        let part = &mut self.parts[a];
        debug_assert_eq!(part.edges[pos], e, "edge_pos out of sync");
        part.edges.swap_remove(pos);
        if let Some(&moved) = part.edges.get(pos) {
            self.edge_pos[moved.index()] = pos as u32;
        }
        let (u, v) = self.g.endpoints(e);
        for x in [u, v] {
            if self.inc.dec(self.n, a, x) == 0 {
                let occ = &mut self.parts[a].occ;
                let i = occ
                    .iter()
                    .position(|&y| y == x)
                    .expect("vacated node must be occupied");
                occ.swap_remove(i);
            }
        }
        self.stamp(a);
    }

    /// Appends `e` to part `a` (vector effect: `push`, as in the seed).
    pub fn add_edge_to(&mut self, a: usize, e: EdgeId) {
        self.stamp(a);
        let (u, v) = self.g.endpoints(e);
        for x in [u, v] {
            if self.inc.inc(self.n, a, x) == 1 {
                self.parts[a].occ.push(x);
            }
        }
        self.edge_pos[e.index()] = self.parts[a].edges.len() as u32;
        self.parts[a].edges.push(e);
    }

    /// Records that part `a`'s edge set changed.
    fn stamp(&mut self, a: usize) {
        self.clock += 1;
        self.changed_at[a] = self.clock;
    }

    /// Replays the net *vector* effect of the seed's rejected trial swap on
    /// one part: `swap_remove(pos(e)); push(e)` — i.e. `e` and the current
    /// last edge trade places. Counts and occupancy are untouched. O(1).
    ///
    /// The seed evaluated swaps by remove/remove/add/add then undid them
    /// with the mirror sequence; the mutations cancel *except* for this
    /// permutation of the edge vectors. Replaying it keeps the rebuilt
    /// engine's iteration order — and therefore its output partitions —
    /// bit-identical to the reference implementation.
    pub fn trial_permute(&mut self, a: usize, e: EdgeId) {
        let part = &mut self.parts[a];
        let pos = self.edge_pos[e.index()] as usize;
        let last = part.edges.len() - 1;
        debug_assert_eq!(part.edges[pos], e, "edge_pos out of sync");
        if pos != last {
            let moved = part.edges[last];
            part.edges.swap(pos, last);
            self.edge_pos[moved.index()] = pos as u32;
            self.edge_pos[e.index()] = last as u32;
        }
    }

    /// Applies `t` rounds of "move every snapshot edge to the last position
    /// once, in snapshot order" to part `p` in closed form.
    ///
    /// One round of [`Self::trial_permute`] over a snapshot of length `L`
    /// leaves the last element fixed and rotates the first `L - 1` elements
    /// right by one (each element is swapped to the back and immediately
    /// displaced by its successor); `t` rounds compose into a rotation by
    /// `t mod (L - 1)`. This turns the seed's O(L·t) rejected-trial
    /// permutations of a fully-scanned swap pair into a single O(L) pass.
    pub fn rotate_first(&mut self, p: usize, t: usize) {
        let len = self.parts[p].edges.len();
        if len < 3 {
            return; // one round permutes nothing when fewer than 3 edges
        }
        let m = len - 1;
        let t = t % m;
        if t == 0 {
            return;
        }
        let mut buf = std::mem::take(&mut self.rot_buf);
        buf.clear();
        buf.extend_from_slice(&self.parts[p].edges[..m]);
        for j in 0..m {
            let e = buf[(j + m - t) % m];
            self.parts[p].edges[j] = e;
            self.edge_pos[e.index()] = j as u32;
        }
        self.rot_buf = buf;
    }

    /// Closed-form cost delta of swapping `e` (in part `a`) with `f` (in
    /// part `b`): endpoints shared between the two edges cancel, every
    /// other endpoint contributes a gain if it is new to the receiving part
    /// and a saving if it was held only by the leaving edge.
    ///
    /// Equals the seed's `after - before` from the 8-mutation simulation.
    /// Used by `anneal`, where each iteration touches one random pair once;
    /// on the sparse backend its lookups scan node lists, since loading
    /// views for a pair visited once would cost as much.
    pub fn swap_delta(&mut self, a: usize, b: usize, e: EdgeId, f: EdgeId) -> isize {
        self.swaps_evaluated += 1;
        let (u, v) = self.g.endpoints(e);
        let (x, y) = self.g.endpoints(f);
        let mut delta = 0isize;
        for z in [x, y] {
            if z != u && z != v {
                delta += (self.cnt_of(a, z) == 0) as isize;
                delta -= (self.cnt_of(b, z) == 1) as isize;
            }
        }
        for z in [u, v] {
            if z != x && z != y {
                delta += (self.cnt_of(b, z) == 0) as isize;
                delta -= (self.cnt_of(a, z) == 1) as isize;
            }
        }
        delta
    }

    /// The first part (lowest index) that an edge `(u, v)` leaving part `a`
    /// could profitably move into: `b ≠ a`, below the size cap, and adding
    /// the edge introduces fewer nodes than leaving frees (`added < freed`).
    ///
    /// `freed ∈ {1, 2}`, and `added = 2 - |{u, v} ∩ occupied(b)|`, so the
    /// only candidates are parts already occupying `u` or `v` — found in the
    /// node lists instead of scanning all `W` parts. Taking the minimum
    /// index reproduces the seed's first-hit `0..W` scan exactly.
    pub fn first_move_target(
        &self,
        a: usize,
        u: NodeId,
        v: NodeId,
        freed: usize,
        k: usize,
    ) -> Option<usize> {
        debug_assert!(freed == 1 || freed == 2);
        let mut best: Option<usize> = None;
        for b in self.inc.parts_at(u) {
            if b == a || self.parts[b].edges.len() >= k {
                continue;
            }
            // freed == 1 needs added == 0: b must hold the other endpoint too.
            if freed == 1 && self.cnt_of(b, v) == 0 {
                continue;
            }
            if best.is_none_or(|cur| b < cur) {
                best = Some(b);
            }
        }
        if freed == 2 {
            // added == 1 also qualifies: parts holding only `v`.
            for b in self.inc.parts_at(v) {
                if b == a || self.parts[b].edges.len() >= k {
                    continue;
                }
                if best.is_none_or(|cur| b < cur) {
                    best = Some(b);
                }
            }
        }
        best
    }

    /// Scans the swap combinations of the pair `(a, b)` in the seed's order
    /// — rows over `a`'s edges, columns over `b`'s — and returns the first
    /// `(i, j)` whose swap strictly improves and that `accept` takes, or
    /// `None`. Mutation-free; leaves each edge's contribution terms in
    /// `info_a`/`info_b` for the caller's replay.
    ///
    /// Counts are static while a pair is scanned (rejected trials cancel),
    /// so each edge's delta contribution is precomputed once; a candidate
    /// combination then costs a few comparisons. Rows whose `a`-edge has no
    /// negative contribution can only improve against the (usually few)
    /// `b`-edges that do (`neg_b`) — skipped combinations provably have
    /// `delta ≥ 0`, so the first improving combination found is the same
    /// one an exhaustive scan finds.
    fn scan_pair(
        &mut self,
        a: usize,
        b: usize,
        mut accept: impl FnMut(&Self, EdgeId, EdgeId) -> bool,
    ) -> Option<(usize, usize)> {
        self.focus(a, b);
        let mut info_a = std::mem::take(&mut self.info_a);
        let mut info_b = std::mem::take(&mut self.info_b);
        let mut neg_b = std::mem::take(&mut self.neg_b);
        info_a.clear();
        info_b.clear();
        neg_b.clear();
        for &e in &self.parts[a].edges {
            let (u, v) = self.g.endpoints(e);
            let cu = (self.cnt_of(b, u) == 0) as i32 - (self.cnt_of(a, u) == 1) as i32;
            let cv = (self.cnt_of(b, v) == 0) as i32 - (self.cnt_of(a, v) == 1) as i32;
            info_a.push((e, u, v, cu, cv));
        }
        for (j, &f) in self.parts[b].edges.iter().enumerate() {
            let (x, y) = self.g.endpoints(f);
            let cx = (self.cnt_of(a, x) == 0) as i32 - (self.cnt_of(b, x) == 1) as i32;
            let cy = (self.cnt_of(a, y) == 0) as i32 - (self.cnt_of(b, y) == 1) as i32;
            info_b.push((f, x, y, cx, cy));
            if cx < 0 || cy < 0 {
                neg_b.push(j as u32);
            }
        }

        let mut hit: Option<(usize, usize)> = None;
        'rows: for (i, &ea) in info_a.iter().enumerate() {
            let (_, _, _, cu, cv) = ea;
            if cu < 0 || cv < 0 {
                for (j, &fb) in info_b.iter().enumerate() {
                    self.swaps_evaluated += 1;
                    if pair_delta(ea, fb) < 0 && accept(self, ea.0, fb.0) {
                        hit = Some((i, j));
                        break 'rows;
                    }
                }
            } else {
                for &j in &neg_b {
                    let fb = info_b[j as usize];
                    self.swaps_evaluated += 1;
                    if pair_delta(ea, fb) < 0 && accept(self, ea.0, fb.0) {
                        hit = Some((i, j as usize));
                        break 'rows;
                    }
                }
            }
        }
        self.info_a = info_a;
        self.info_b = info_b;
        self.neg_b = neg_b;
        hit
    }

    /// Runs the seed's full swap scan for the pair `(a, b)` without mutating
    /// anything until the outcome is known ([`Self::scan_pair`]). Applies
    /// the first improving swap and returns `true`, else `false`. Zero
    /// allocations after warm-up. On a miss the seed's rejected-trial
    /// permutations are applied as one closed-form rotation per part; on a
    /// hit they are replayed only up to the hit.
    pub fn swap_pass_pair(&mut self, a: usize, b: usize) -> bool {
        let la = self.parts[a].edges.len();
        if la == 0 || self.parts[b].edges.is_empty() {
            return false; // no combinations: the seed permutes nothing
        }
        match self.scan_pair(a, b, |_, _, _| true) {
            Some((i, j)) => {
                // Replay the rejected-trial permutations that preceded the
                // hit: full rows `0..i` (each moves its `a`-edge to the back
                // once and cycles `b` through one full round), then the
                // partial row up to column `j`.
                for r in 0..i {
                    let er = self.info_a[r].0;
                    self.trial_permute(a, er);
                }
                self.rotate_first(b, i);
                let e = self.info_a[i].0;
                let f = self.info_b[j].0;
                if j > 0 {
                    self.trial_permute(a, e);
                    for c in 0..j {
                        let fr = self.info_b[c].0;
                        self.trial_permute(b, fr);
                    }
                }
                self.apply_swap(a, b, e, f);
                true
            }
            None => {
                // Fully rejected: part `a` saw one round of trials, part `b`
                // one per `a`-edge.
                self.rotate_first(a, 1);
                self.rotate_first(b, la);
                false
            }
        }
    }

    /// Exchanges `e` (in part `a`) with `f` (in part `b`), with the seed's
    /// vector effect: remove both, then append each to the other part.
    pub fn apply_swap(&mut self, a: usize, b: usize, e: EdgeId, f: EdgeId) {
        self.remove_edge_from(a, e);
        self.remove_edge_from(b, f);
        self.add_edge_to(a, f);
        self.add_edge_to(b, e);
    }

    /// `true` if some node held by both parts is a *leaf* (count 1) in
    /// either — the necessary condition for the pair to have any improving
    /// swap. A swap term `[cnt_b(u) = 0] − [cnt_a(u) = 1]` is negative only
    /// when `u` is held by both parts and is a leaf in `a` (symmetrically
    /// for the `b`-side terms), so without such a node every term is
    /// non-negative and no combination can improve. Only `a` is brought
    /// into focus: most partners a warm repair tests share no leaf and are
    /// never scanned, so a sparse `b` is read from the node lists of `a`'s
    /// nodes (O(Σ |L(x)|) over `x ∈ occ(a)`) instead of loaded into a view.
    pub fn shares_leaf(&mut self, a: usize, b: usize) -> bool {
        self.focus(a, a);
        self.parts[a].occ.iter().any(|&x| {
            let cb = self.cnt_of(b, x);
            cb == 1 || (cb > 1 && self.cnt_of(a, x) == 1)
        })
    }

    /// One full swap phase — the all-pairs `(a, b)` sweep of the reference,
    /// restricted to pairs that can still improve. Returns `true` if any
    /// swap was applied.
    ///
    /// Two exact filters pick the partners of row `a`:
    ///
    /// * **Shared leaf.** An improving combination needs a negative
    ///   contribution term, and `(cnt_b(u) == 0) − (cnt_a(u) == 1) < 0`
    ///   forces `u` to be held by *both* parts and to be a leaf (count 1) in
    ///   `a`; likewise for the `b`-side terms. So only partners holding some
    ///   node of `a` that is a leaf in one of the two parts are candidates
    ///   (found through the node lists; a sparse partner's count is read
    ///   from its list entry, not scanned for); every other pair is a
    ///   guaranteed miss that evaluates zero combinations.
    /// * **Clean pair.** Whether a pair has an improving swap depends only
    ///   on the two parts' edge *sets*, not on edge order. Each row records
    ///   the clock and the partner bound of its last scan (every partner
    ///   below the hit — or all of them on a full miss — missed); a partner
    ///   below that bound is skipped while neither part's set has changed
    ///   since. The first sweep after ingest has no records, so it scans
    ///   exactly what the shared-leaf filter keeps.
    ///
    /// Skipped pairs still matter to bit-identity: a missed pair rotates
    /// both edge vectors (`rotate_first(a, 1)`, `rotate_first(b, la)`).
    /// Those rotations are replayed exactly but lazily — part lengths are
    /// constant across the phase (hits exchange edges 1:1), rotations on one
    /// part compose additively, so skipped pairs' effects accumulate in a
    /// Fenwick tree (`b`-side) and nonempty prefix counts (`a`-side) and are
    /// flushed before any part is next read. The partitions are
    /// bit-identical to the reference's all-pairs sweep; `swaps_evaluated`
    /// matches it on the first sweep and falls below it afterwards, since
    /// clean pairs are not re-evaluated.
    pub fn swap_sweep(&mut self) -> bool {
        let w = self.parts.len();
        if w < 2 {
            return false;
        }
        // Lengths are constant for the whole phase: prefix[i] = number of
        // nonempty parts with index < i.
        let mut prefix = vec![0u32; w + 1];
        for p in 0..w {
            prefix[p + 1] = prefix[p] + !self.parts[p].edges.is_empty() as u32;
        }
        let nonempty_in = |l: usize, r: usize| {
            if l >= r {
                0u64
            } else {
                (prefix[r] - prefix[l]) as u64
            }
        };
        let mut fen = RotFenwick::new(w);
        // Fenwick amount already applied to each part.
        let mut flushed = vec![0u64; w];
        let mut cands: Vec<u32> = Vec::new();
        let mut evaluated: Vec<u32> = Vec::new();
        let mut improved = false;

        for a in 0..w {
            let la = self.parts[a].edges.len();
            if la == 0 {
                continue; // every pair (a, ·) is a complete no-op
            }
            // Partners below `bound` missed at `tick`; while both sets are
            // unchanged since, they miss again.
            let (tick, bound) = self.row_scan[a];
            let clean_a = self.changed_at[a] <= tick;
            let row_tick = self.clock;
            // Candidate partners: parts above `a` sharing a node that is a
            // leaf in `a` or in the partner, minus clean pairs.
            cands.clear();
            self.focus(a, a);
            let open = |p: u32| {
                p as usize > a && !(clean_a && p < bound && self.changed_at[p as usize] <= tick)
            };
            for &x in &self.parts[a].occ {
                let leaf_a = self.cnt_of(a, x) == 1;
                match &self.inc {
                    Incidence::Dense { cnt, nodes } => {
                        for &p in nodes.of(x) {
                            if open(p) && (leaf_a || cnt[p as usize * self.n + x.index()] == 1) {
                                cands.push(p);
                            }
                        }
                    }
                    Incidence::Sparse { nodes, .. } => {
                        for &(p, c) in nodes.of(x) {
                            if open(p) && (leaf_a || c == 1) {
                                cands.push(p);
                            }
                        }
                    }
                }
            }
            cands.sort_unstable();
            cands.dedup();
            evaluated.clear();

            let mut prev = a;
            let mut hit_at: Option<usize> = None;
            for &bc in &cands {
                let b = bc as usize;
                // Flush `a`: deferred Fenwick rotations (from earlier rows)
                // plus one rotation per skipped nonempty partner in the gap.
                let pend_a = fen.value(a).wrapping_sub(flushed[a]) + nonempty_in(prev + 1, b);
                if pend_a > 0 {
                    self.rotate_first(a, pend_a as usize);
                }
                flushed[a] = fen.value(a);
                // Flush `b`: deferred rotations from earlier rows.
                let pend_b = fen.value(b).wrapping_sub(flushed[b]);
                if pend_b > 0 {
                    self.rotate_first(b, pend_b as usize);
                }
                flushed[b] = fen.value(b);

                if self.swap_pass_pair(a, b) {
                    improved = true;
                    hit_at = Some(b);
                    break;
                }
                evaluated.push(bc);
                prev = b;
            }

            // No set changed before the hit (misses only reorder edges), so
            // every partner below it missed against the sets as of
            // `row_tick`.
            self.row_scan[a] = (row_tick, hit_at.unwrap_or(w) as u32);
            match hit_at {
                // Hit: the reference aborts the row (`continue 'swaps`), so
                // only partners strictly below the hit owe the deferred
                // `rotate_first(b, la)`; the ones evaluated already got it
                // inside `swap_pass_pair`.
                Some(bh) => {
                    fen.range_add(a + 1, bh, la as u64);
                    for &b in &evaluated {
                        fen.range_add(b as usize, b as usize + 1, (la as u64).wrapping_neg());
                    }
                }
                // Full row of misses: `a` rotates once per nonempty partner
                // after the last candidate; every partner owes `la`.
                None => {
                    let tail = nonempty_in(prev + 1, w);
                    let pend_a = fen.value(a).wrapping_sub(flushed[a]) + tail;
                    if pend_a > 0 {
                        self.rotate_first(a, pend_a as usize);
                    }
                    flushed[a] = fen.value(a);
                    fen.range_add(a + 1, w, la as u64);
                    for &b in &evaluated {
                        fen.range_add(b as usize, b as usize + 1, (la as u64).wrapping_neg());
                    }
                }
            }
        }

        // Phase end: every part must carry its full rotation history before
        // anything else reads the edge vectors.
        for (p, &done) in flushed.iter().enumerate() {
            let pend = fen.value(p).wrapping_sub(done);
            if pend > 0 {
                self.rotate_first(p, pend as usize);
            }
        }
        improved
    }

    /// Collects every part (other than `a`) sharing at least one occupied
    /// node with `a` into `out`, sorted ascending and duplicate-free — the
    /// node-sharing neighborhood a warm repair's restricted sweep visits.
    pub fn partners_sharing_nodes(&self, a: usize, out: &mut Vec<u32>) {
        out.clear();
        for &x in &self.parts[a].occ {
            for p in self.inc.parts_at(x) {
                if p != a {
                    out.push(p as u32);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Occupancy churn the swap `e ↔ f` would cause: the number of SADM
    /// placements created plus reclaimed across both parts — the quantity a
    /// warm repair's `rearrange_budget` bounds. O(1), mutation-free.
    pub fn swap_churn(&self, a: usize, b: usize, e: EdgeId, f: EdgeId) -> usize {
        let (u, v) = self.g.endpoints(e);
        let (x, y) = self.g.endpoints(f);
        let mut churn = 0usize;
        for z in [x, y] {
            if z != u && z != v {
                churn += (self.cnt_of(a, z) == 0) as usize; // enters a
                churn += (self.cnt_of(b, z) == 1) as usize; // leaves b
            }
        }
        for z in [u, v] {
            if z != x && z != y {
                churn += (self.cnt_of(b, z) == 0) as usize; // enters b
                churn += (self.cnt_of(a, z) == 1) as usize; // leaves a
            }
        }
        churn
    }

    /// Places an unassigned edge first-fit with affinity: among parts with
    /// spare capacity, the lowest-indexed one introducing the fewest new
    /// nodes (parts already holding an endpoint are found through the node
    /// lists, so the lookup touches only those); with no affinity
    /// candidate, the lowest-indexed part with space. Unlike the online
    /// groomer, ties never go to the fullest part. Returns the receiving
    /// part.
    ///
    /// # Panics
    /// Panics if every part is at capacity `k` — warm repair sizes the
    /// engine so total capacity always covers the edges to place.
    pub fn place_with_affinity(&mut self, e: EdgeId, k: usize) -> usize {
        let (u, v) = self.g.endpoints(e);
        let mut best: Option<(usize, usize)> = None; // (new_nodes, part)
        for (x, y) in [(u, v), (v, u)] {
            // Every part on x's list holds x; it gains y unless it holds y.
            for p in self.inc.parts_at(x) {
                if self.parts[p].edges.len() >= k {
                    continue;
                }
                let new_nodes = (self.cnt_of(p, y) == 0) as usize;
                if best.is_none_or(|(bn, bp)| new_nodes < bn || (new_nodes == bn && p < bp)) {
                    best = Some((new_nodes, p));
                }
            }
        }
        let target = match best {
            Some((_, p)) => p,
            None => (0..self.parts.len())
                .find(|&p| self.parts[p].edges.len() < k)
                .expect("warm placement requires spare capacity"),
        };
        self.add_edge_to(target, e);
        target
    }

    /// Warm repair's budgeted swap pass for the pair `(a, b)`: applies the
    /// first strictly-improving swap whose occupancy churn fits the
    /// remaining `budget` (improving swaps that exceed it are skipped, not
    /// aborted on), debits the budget, and returns the churn spent; `None`
    /// if no affordable improving swap exists.
    ///
    /// The scan is [`Self::scan_pair`]'s: the same `(i, j)` order as an
    /// exhaustive double loop over both edge vectors, with each edge's
    /// contribution precomputed once, so it picks the same swap that loop
    /// would. Unlike [`Self::swap_pass_pair`] this performs no trial
    /// permutations or rotations — warm starts carry no bit-identity
    /// contract against the reference sweep, so the bookkeeping that exists
    /// only to replay the seed's rejected-trial vector effects is dropped.
    pub fn repair_pair(&mut self, a: usize, b: usize, budget: &mut Option<usize>) -> Option<usize> {
        let left = *budget;
        let mut churn = 0;
        let (i, j) = self.scan_pair(a, b, |eng, e, f| {
            churn = eng.swap_churn(a, b, e, f);
            left.is_none_or(|l| churn <= l)
        })?;
        if let Some(l) = budget.as_mut() {
            *l -= churn;
        }
        let (e, f) = (self.info_a[i].0, self.info_b[j].0);
        self.apply_swap(a, b, e, f);
        Some(churn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grooming_graph::generators;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// The exhaustive double loop [`Engine::repair_pair`] replaced: every
    /// `(i, j)` in edge-vector order, one closed-form [`Engine::swap_delta`]
    /// per combination, the first affordable improving swap wins.
    fn repair_pair_oracle(
        eng: &mut Engine,
        a: usize,
        b: usize,
        budget: &mut Option<usize>,
    ) -> Option<usize> {
        for i in 0..eng.parts[a].edges.len() {
            let e = eng.parts[a].edges[i];
            for j in 0..eng.parts[b].edges.len() {
                let f = eng.parts[b].edges[j];
                if eng.swap_delta(a, b, e, f) < 0 {
                    let churn = eng.swap_churn(a, b, e, f);
                    if budget.is_some_and(|left| churn > left) {
                        continue;
                    }
                    if let Some(left) = budget.as_mut() {
                        *left -= churn;
                    }
                    eng.apply_swap(a, b, e, f);
                    return Some(churn);
                }
            }
        }
        None
    }

    #[test]
    fn repair_pair_picks_the_exhaustive_scans_swap() {
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = if seed % 2 == 0 {
                generators::gnm(24, 90, &mut rng)
            } else {
                generators::power_law(60, 2.5, 6.0, &mut rng)
            };
            let k = [3usize, 4, 8][seed as usize % 3];
            // A random (hence poor) partition, so most pairs can improve.
            let mut edges: Vec<EdgeId> = g.edges().collect();
            edges.shuffle(&mut rng);
            let lists: Vec<Vec<EdgeId>> = edges.chunks(k).map(<[EdgeId]>::to_vec).collect();
            let w = lists.len();
            for (mode, budget) in BOTH_MODES
                .into_iter()
                .flat_map(|mode| [None, Some(0), Some(2), Some(8)].map(|b| (mode, b)))
            {
                let mut fast = Engine::from_lists(&g, lists.clone(), mode);
                let mut slow = Engine::from_lists(&g, lists.clone(), mode);
                let (mut left_fast, mut left_slow) = (budget, budget);
                let mut swaps = 0;
                for a in 0..w {
                    for b in (0..w).filter(|&b| b != a) {
                        loop {
                            let got = fast.repair_pair(a, b, &mut left_fast);
                            let want = repair_pair_oracle(&mut slow, a, b, &mut left_slow);
                            assert_eq!(
                                got, want,
                                "seed {seed}, {mode:?}, budget {budget:?}, pair ({a}, {b})"
                            );
                            assert_eq!(left_fast, left_slow);
                            assert_eq!(fast.parts[a].edges, slow.parts[a].edges);
                            assert_eq!(fast.parts[b].edges, slow.parts[b].edges);
                            if got.is_none() {
                                break;
                            }
                            swaps += 1;
                        }
                    }
                }
                if budget != Some(0) {
                    assert!(swaps > 0, "seed {seed}: the instance exercised no swap");
                }
                assert_eq!(fast.cost(), slow.cost());
            }
        }
    }

    #[test]
    fn shares_leaf_is_necessary_for_an_improving_swap() {
        // Every pair with an improving combination shares a leaf node.
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::power_law(80, 2.5, 6.0, &mut rng);
            let mut edges: Vec<EdgeId> = g.edges().collect();
            edges.shuffle(&mut rng);
            let lists: Vec<Vec<EdgeId>> = edges.chunks(5).map(<[EdgeId]>::to_vec).collect();
            for mode in BOTH_MODES {
                let mut eng = Engine::from_lists(&g, lists.clone(), mode);
                let w = eng.parts.len();
                for a in 0..w {
                    for b in (0..w).filter(|&b| b != a) {
                        let improving = eng.parts[a].edges.clone().into_iter().any(|e| {
                            eng.parts[b]
                                .edges
                                .clone()
                                .into_iter()
                                .any(|f| eng.swap_delta(a, b, e, f) < 0)
                        });
                        if improving {
                            assert!(eng.shares_leaf(a, b), "{mode:?}, pair ({a}, {b})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_counts_take_linear_storage_above_the_cutover() {
        // ring-powerlaw's 5900-node class: a W × n matrix would hold
        // 6.4M counts; the sparse backend holds two n-sized views and a
        // node-list arena of one slot per unit of degree (at least one per
        // (part, node) occupancy).
        let g = generators::power_law(5900, 2.5, 6.0, &mut StdRng::seed_from_u64(1));
        let (n, m) = (g.num_nodes(), g.num_edges());
        let edges: Vec<EdgeId> = g.edges().collect();
        let lists: Vec<Vec<EdgeId>> = edges.chunks(16).map(<[EdgeId]>::to_vec).collect();
        let w = lists.len();
        assert!(w * n > DENSE_INCIDENCE_MAX);
        let eng = Engine::from_lists(&g, lists, IncidenceMode::Auto);
        let slots = eng.count_slots();
        assert!(
            slots <= 2 * n + 2 * m,
            "{slots} count slots for n = {n}, m = {m}"
        );
        assert!(slots * 50 < w * n, "{slots} slots against W·n = {}", w * n);
    }

    /// Both backends, for tests that must hold whichever one runs.
    const BOTH_MODES: [IncidenceMode; 2] = [IncidenceMode::ForceDense, IncidenceMode::ForceSparse];

    /// Panics unless the two engines hold the same edge vectors, answer
    /// the same count for every (part, node), and list exactly the parts
    /// with a nonzero count at every node (sparse: with that count).
    fn assert_in_step(dense: &Engine, sparse: &Engine, step: &str) {
        assert_eq!(dense.parts.len(), sparse.parts.len());
        for p in 0..dense.parts.len() {
            assert_eq!(
                dense.parts[p].edges, sparse.parts[p].edges,
                "{step}: part {p}"
            );
            for x in dense.g.nodes() {
                assert_eq!(
                    dense.cnt_of(p, x),
                    sparse.cnt_of(p, x),
                    "{step}: count of {x:?} in part {p}"
                );
            }
        }
        for x in dense.g.nodes() {
            let want: Vec<(u32, u32)> = (0..dense.parts.len())
                .map(|p| (p as u32, dense.cnt_of(p, x)))
                .filter(|&(_, c)| c > 0)
                .collect();
            let (Incidence::Dense { nodes: dn, .. }, Incidence::Sparse { nodes: sn, .. }) =
                (&dense.inc, &sparse.inc)
            else {
                panic!("engines must run one backend each");
            };
            let mut listed = dn.of(x).to_vec();
            listed.sort_unstable();
            let parts: Vec<u32> = want.iter().map(|&(p, _)| p).collect();
            assert_eq!(listed, parts, "{step}: dense node list of {x:?}");
            let mut listed = sn.of(x).to_vec();
            listed.sort_unstable();
            assert_eq!(listed, want, "{step}: sparse node list of {x:?}");
        }
    }

    /// One random engine operation, applied to both engines with the same
    /// arguments; returns its name and checks the two return values agree.
    fn random_step<'g>(
        dense: &mut Engine<'g>,
        sparse: &mut Engine<'g>,
        k: usize,
        rng: &mut StdRng,
    ) -> String {
        let w = dense.parts.len();
        let nonempty: Vec<usize> = (0..w)
            .filter(|&p| !dense.parts[p].edges.is_empty())
            .collect();
        let a = nonempty[rng.gen_range(0..nonempty.len())];
        let b = (a + 1 + rng.gen_range(0..w - 1)) % w;
        let e = dense.parts[a].edges[rng.gen_range(0..dense.parts[a].edges.len())];
        match rng.gen_range(0..7u32) {
            0 if dense.parts[b].edges.len() < k => {
                for eng in [&mut *dense, &mut *sparse] {
                    eng.remove_edge_from(a, e);
                    eng.add_edge_to(b, e);
                }
                format!("move {e:?} {a} -> {b}")
            }
            1 if !dense.parts[b].edges.is_empty() => {
                let f = dense.parts[b].edges[rng.gen_range(0..dense.parts[b].edges.len())];
                dense.apply_swap(a, b, e, f);
                sparse.apply_swap(a, b, e, f);
                format!("apply_swap {e:?} {f:?} ({a}, {b})")
            }
            2 => {
                assert_eq!(dense.swap_pass_pair(a, b), sparse.swap_pass_pair(a, b));
                format!("swap_pass_pair ({a}, {b})")
            }
            3 => {
                assert_eq!(dense.swap_sweep(), sparse.swap_sweep());
                "swap_sweep".into()
            }
            4 => {
                for eng in [&mut *dense, &mut *sparse] {
                    eng.remove_edge_from(a, e);
                }
                assert_eq!(
                    dense.place_with_affinity(e, k),
                    sparse.place_with_affinity(e, k)
                );
                format!("place_with_affinity {e:?} from {a}")
            }
            5 => {
                let budget = [None, Some(1), Some(4)][rng.gen_range(0..3)];
                let (mut left_d, mut left_s) = (budget, budget);
                assert_eq!(
                    dense.repair_pair(a, b, &mut left_d),
                    sparse.repair_pair(a, b, &mut left_s)
                );
                format!("repair_pair ({a}, {b}) budget {budget:?}")
            }
            _ => {
                assert_eq!(dense.shares_leaf(a, b), sparse.shares_leaf(a, b));
                format!("shares_leaf ({a}, {b})")
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The sparse backend (counted node lists, views) answers every
        /// count the dense matrix does, both list exactly the occupying
        /// parts at every node, and both move edges identically, through
        /// any sequence of engine operations.
        #[test]
        fn dense_and_sparse_engines_stay_in_step(
            seed in any::<u64>(),
            power_law in any::<bool>(),
            n in 12usize..40,
            k in 2usize..7,
            steps in 10usize..60,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = if power_law {
                generators::power_law(n, 2.5, 4.0, &mut rng)
            } else {
                generators::gnm(n, 3 * n, &mut rng)
            };
            prop_assume!(g.num_edges() > k);
            let mut edges: Vec<EdgeId> = g.edges().collect();
            edges.shuffle(&mut rng);
            let mut lists: Vec<Vec<EdgeId>> = edges.chunks(k).map(<[EdgeId]>::to_vec).collect();
            lists.push(Vec::new()); // spare capacity for placements
            let mut dense = Engine::from_lists(&g, lists.clone(), IncidenceMode::ForceDense);
            let mut sparse = Engine::from_lists(&g, lists, IncidenceMode::ForceSparse);
            assert_in_step(&dense, &sparse, "ingest");
            for _ in 0..steps {
                let step = random_step(&mut dense, &mut sparse, k, &mut rng);
                assert_in_step(&dense, &sparse, &step);
            }
            prop_assert_eq!(dense.cost(), sparse.cost());
        }
    }
}
