//! # grooming-graph
//!
//! Graph substrate for the SONET/WDM traffic-grooming stack.
//!
//! The traffic-grooming problem of Wang & Gu (ICPP 2006) is formulated on an
//! undirected *traffic graph*: one node per SONET ring node and one edge per
//! symmetric unitary demand pair. Every algorithm in the paper is a graph
//! algorithm, and several of the proofs lean on classical machinery (Euler
//! walks, spanning trees, maximum matchings, Vizing edge colorings). This
//! crate provides all of that machinery, built from scratch:
//!
//! * [`Graph`] — an undirected **multigraph** with stable [`NodeId`] /
//!   [`EdgeId`] handles. Multi-edges matter: the paper's algorithms add
//!   *virtual edges* that may parallel real ones.
//! * [`csr`] — a flat compressed-sparse-row adjacency snapshot, cached per
//!   graph, that the traversal-heavy inner loops run on.
//! * [`bitset`] — word-packed `u64` bitset primitives shared by edge
//!   subsets and node sets.
//! * [`workspace`] — reusable generation-stamped scratch buffers (visited
//!   sets, parity counters, queues) threaded through the hot paths.
//! * [`traversal`] — connected components.
//! * [`spanning`] — spanning trees and forests under several strategies
//!   (BFS, DFS, randomized Kruskal, degree-minimizing local search).
//! * [`tree`] — rooted-forest utilities: tree paths, subtree parity sums
//!   (the engine behind `SpanT_Euler`'s `E_odd` computation), and
//!   decompositions of trees into edge-disjoint paths.
//! * [`euler`] — Hierholzer Euler circuits and paths on multigraphs.
//! * [`matching`] — greedy maximal matching and Edmonds' blossom maximum
//!   matching (used by `Regular_Euler` for odd degree `r`).
//! * [`coloring`] — Misra–Gries (Δ+1) proper edge coloring, the
//!   constructive form of Vizing's theorem behind the paper's Lemma 8.
//! * [`generators`] — the evaluation's random graph models (`G(n,m)`,
//!   random `r`-regular via the pairing model) plus named families and
//!   Steiner triple systems (triangle-decomposable complete graphs, used to
//!   exercise the NP-hardness reduction).
//! * [`triangles`] — triangle enumeration and an exact
//!   edge-partition-into-triangles solver (the EPT problem from the
//!   paper's hardness proof).
//! * [`cliques`] — branch-and-bound maximum-clique search over a sparse
//!   residual (the engine of the "dense first" grooming heuristic built on
//!   the paper's closing proposal).
//! * [`subgraph`] — leftover-edge extraction with id mapping.
//! * [`topology`] — physical mesh topologies (weighted links, capacitated
//!   nodes) with deterministic Yen k-shortest-path routing, the layer-0
//!   substrate of the mesh grooming workload.
//! * [`io`] — a plain-text edge-list interchange format.
//!
//! The crate has no dependency on the SONET layer; it is a reusable
//! general-purpose graph library sized for the n ≤ a-few-thousand instances
//! that ring networks produce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod cliques;
pub mod coloring;
pub mod csr;
pub mod decompose;
pub mod euler;
pub mod generators;
pub mod graph;
pub mod ids;
pub mod io;
pub mod matching;
pub mod spanning;
pub mod subgraph;
pub mod topology;
pub mod traversal;
pub mod tree;
pub mod triangles;
pub mod view;
pub mod walk;
pub mod workspace;

pub use graph::Graph;
pub use ids::{EdgeId, NodeId};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::coloring::EdgeColoring;
    pub use crate::graph::Graph;
    pub use crate::ids::{EdgeId, NodeId};
    pub use crate::matching::Matching;
    pub use crate::spanning::SpanningForest;
    pub use crate::view::EdgeSubset;
    pub use crate::walk::Walk;
}
