//! Reusable scratch buffers for the construction pipeline.
//!
//! The grooming heuristics are run thousands of times per sweep (portfolio
//! restarts × seeds × grooming factors), and each run used to allocate a
//! fresh visited array, parity array, BFS queue, and edge buffer per stage.
//! A [`Workspace`] owns all of those buffers once; algorithms borrow it via
//! `_in`-suffixed entry points. Ownership is always explicit: a solve
//! context (or a portfolio worker thread) owns one workspace and threads it
//! down through every `_in` call, while the convenience wrappers without the
//! `_in` suffix simply allocate a fresh workspace per call. There is no
//! hidden thread-local state, so re-entrancy is a non-issue: whoever holds
//! the `&mut Workspace` decides who borrows it next.
//!
//! The visited/parity arrays use the **generation-stamp trick**
//! ([`StampSet`] / [`StampedCounts`]): instead of clearing an `n`-sized
//! array per use, each array stores the generation number at which a slot
//! was last written, and "clearing" is a single counter bump — slots stamped
//! with an older generation read as unset/zero. A reset is `O(1)` except
//! when the buffer must grow or the 32-bit generation wraps (once every
//! ~4 × 10⁹ resets, when the array is physically zeroed). Every reset also
//! bumps a lifetime counter, surfaced by [`Workspace::scratch_resets`] for
//! instrumentation.
//!
//! One field is keyed state rather than scratch: [`Workspace::route_table`]
//! keeps Yen routing answers between calls, valid for the one topology and
//! route limit it was filled under and emptied whenever it is bound to
//! another (see [`RouteTable`]). It changes how long routing takes, never
//! what it returns. Every other buffer carries nothing from one call to
//! the next but its capacity.

use crate::ids::{EdgeId, NodeId};
use crate::topology::RouteTable;
use std::collections::VecDeque;

/// A dense set over `0..len` with `O(1)` clearing via generation stamps.
#[derive(Clone, Debug, Default)]
pub struct StampSet {
    stamp: Vec<u32>,
    gen: u32,
    resets: u64,
}

impl StampSet {
    /// Empties the set and ensures capacity for ids `0..len`.
    pub fn reset(&mut self, len: usize) {
        if self.stamp.len() < len {
            self.stamp.resize(len, 0);
        }
        self.resets += 1;
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.stamp.fill(0);
            self.gen = 1;
        }
    }

    /// Lifetime reset count (instrumentation).
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Inserts `i`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        if self.stamp[i] == self.gen {
            false
        } else {
            self.stamp[i] = self.gen;
            true
        }
    }

    /// `true` if `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.stamp[i] == self.gen
    }
}

/// A dense `0..len → u32` map defaulting to `0`, with `O(1)` clearing via
/// generation stamps.
#[derive(Clone, Debug, Default)]
pub struct StampedCounts {
    stamp: Vec<u32>,
    val: Vec<u32>,
    gen: u32,
    resets: u64,
}

impl StampedCounts {
    /// Zeroes the map and ensures capacity for keys `0..len`.
    pub fn reset(&mut self, len: usize) {
        if self.stamp.len() < len {
            self.stamp.resize(len, 0);
            self.val.resize(len, 0);
        }
        self.resets += 1;
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.stamp.fill(0);
            self.gen = 1;
        }
    }

    /// Lifetime reset count (instrumentation).
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Current value of key `i` (zero if never written this generation).
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        if self.stamp[i] == self.gen {
            self.val[i]
        } else {
            0
        }
    }

    /// Sets key `i` to `v`.
    #[inline]
    pub fn set(&mut self, i: usize, v: u32) {
        self.stamp[i] = self.gen;
        self.val[i] = v;
    }

    /// Adds `delta` to key `i`; returns the new value.
    #[inline]
    pub fn add(&mut self, i: usize, delta: u32) -> u32 {
        let v = self.get(i) + delta;
        self.set(i, v);
        v
    }
}

/// The shared scratch arena. Fields are public so `_in` functions can borrow
/// several buffers at once (disjoint field borrows); each function resets
/// the buffers it uses on entry, so no cross-call invariants exist beyond
/// retained capacity — except in [`Self::route_table`], which is keyed by
/// the topology it was filled for.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Node-indexed visited set (primary traversal).
    pub visited: StampSet,
    /// Node-indexed visited set (secondary, e.g. marked nodes).
    pub visited2: StampSet,
    /// Edge-indexed used/assigned set.
    pub edge_used: StampSet,
    /// Node-indexed counters (degrees, parities, subtree sums).
    pub counts: StampedCounts,
    /// Second node-indexed counter array (e.g. anchor positions).
    pub counts2: StampedCounts,
    /// Node → component label + 1 (0 = unlabeled).
    pub comp: StampedCounts,
    /// Node → adjacency cursor (Hierholzer).
    pub cursor: StampedCounts,
    /// BFS queue.
    pub queue: VecDeque<NodeId>,
    /// DFS stack.
    pub node_stack: Vec<NodeId>,
    /// Generic node buffer (e.g. touched nodes in first-touch order).
    pub node_buf: Vec<NodeId>,
    /// Node ordering buffer (e.g. bottom-up orders).
    pub order_buf: Vec<NodeId>,
    /// Generic edge buffer.
    pub edge_buf: Vec<EdgeId>,
    /// Counting-sort bucket/offset buffer.
    pub bucket_buf: Vec<usize>,
    /// Second counting-sort buffer (cursors alongside offsets).
    pub bucket_buf2: Vec<usize>,
    /// Hierholzer walk stack: (node, edge that led here).
    pub walk_stack: Vec<(NodeId, Option<EdgeId>)>,
    /// Flat `(neighbor, edge)` pair buffer (counting-sorted adjacencies).
    pub pair_buf: Vec<(NodeId, EdgeId)>,
    /// Mesh routing answers kept between solves, for the last topology
    /// and route limit routed over.
    pub route_table: RouteTable,
}

impl Workspace {
    /// A workspace with empty buffers; they grow on first use and are
    /// retained across calls.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Total generation-stamp resets across all stamped buffers — a cheap
    /// proxy for "scratch passes executed against this workspace", used by
    /// the solve layer's instrumentation counters.
    pub fn scratch_resets(&self) -> u64 {
        self.visited.resets()
            + self.visited2.resets()
            + self.edge_used.resets()
            + self.counts.resets()
            + self.counts2.resets()
            + self.comp.resets()
            + self.cursor.resets()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_set_resets_in_constant_time() {
        let mut s = StampSet::default();
        s.reset(4);
        assert!(s.insert(2));
        assert!(!s.insert(2));
        assert!(s.contains(2));
        assert!(!s.contains(3));
        s.reset(4);
        assert!(!s.contains(2));
        assert!(s.insert(2));
    }

    #[test]
    fn stamp_set_grows() {
        let mut s = StampSet::default();
        s.reset(2);
        s.insert(1);
        s.reset(10);
        assert!(!s.contains(1));
        assert!(s.insert(9));
    }

    #[test]
    fn stamped_counts_default_to_zero() {
        let mut c = StampedCounts::default();
        c.reset(3);
        assert_eq!(c.get(1), 0);
        assert_eq!(c.add(1, 2), 2);
        assert_eq!(c.add(1, 3), 5);
        c.set(0, 7);
        assert_eq!(c.get(0), 7);
        c.reset(3);
        assert_eq!(c.get(1), 0);
        assert_eq!(c.get(0), 0);
    }

    #[test]
    fn workspace_reuses_buffers_across_calls() {
        let mut ws = Workspace::new();
        ws.edge_buf.clear();
        ws.edge_buf.extend((0..100u32).map(EdgeId));
        let cap = ws.edge_buf.capacity();
        ws.edge_buf.clear();
        assert!(ws.edge_buf.capacity() >= cap.min(100));
    }

    #[test]
    fn stamp_buffers_stay_correct_across_many_resets() {
        // The scale tier leans on O(1) generation-bump resets: a long-lived
        // workspace is reset hundreds of thousands of times per sweep. No
        // generation may ever bleed state into the next, and the backing
        // arrays must never grow past the largest requested length.
        const RESETS: usize = 100_001;
        let len = 67; // straddles a 64-slot boundary for good measure
        let mut s = StampSet::default();
        let mut c = StampedCounts::default();
        for i in 0..RESETS {
            s.reset(len);
            c.reset(len);
            let slot = i % len;
            assert!(!s.contains(slot), "stale set entry at reset {i}");
            assert!(s.insert(slot));
            assert!(s.contains(slot));
            assert!(!s.contains((slot + 1) % len));
            assert_eq!(c.get(slot), 0, "stale count at reset {i}");
            assert_eq!(c.add(slot, slot as u32 + 1), slot as u32 + 1);
            assert_eq!(c.get((slot + 1) % len), 0);
        }
        assert_eq!(s.resets(), RESETS as u64);
        assert_eq!(c.resets(), RESETS as u64);
        assert_eq!(s.stamp.len(), len);
        assert_eq!(c.val.len(), len);
    }

    #[test]
    fn scratch_resets_count_every_stamped_buffer() {
        let mut ws = Workspace::new();
        assert_eq!(ws.scratch_resets(), 0);
        ws.visited.reset(4);
        ws.counts.reset(4);
        ws.counts.reset(4);
        assert_eq!(ws.scratch_resets(), 3);
    }
}
