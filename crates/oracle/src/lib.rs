//! # grooming-oracle
//!
//! Oracles for the grooming crates' tests and perf benches. Nothing here
//! serves a plan: `groomd`, `groomsim` and `upsr-groom` never link this
//! crate. It holds
//!
//! * [`mod@reference`] and [`improve`] — the frozen seed implementations of
//!   the construction pipeline and of the improvement stack. The live code
//!   in `grooming` must reproduce them bit for bit (same partitions, same
//!   RNG consumption); the golden tests and the `perf_pipeline` and
//!   `perf_improve` bins assert it and time both sides;
//! * [`cliques`] and [`subgraph`] — Bron–Kerbosch enumeration and
//!   edge-list extraction, which the seed `dense_first` runs and the
//!   graph proptests compare `CliqueResidual`'s search against;
//! * [`bipartite`] — Hopcroft–Karp, an independent check of the blossom
//!   matching on bipartite graphs;
//! * [`degree2_optimum`] — the closed-form optimum of traffic graphs of
//!   maximum degree 2, an exact answer at any size.
//!
//! An item belongs in a production crate only if a non-test target reaches
//! it or it implements one of the paper's results; code whose only job is
//! to be compared against lives here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bipartite;
pub mod cliques;
mod degree2;
pub mod improve;
pub mod reference;
pub mod subgraph;

pub use degree2::degree2_optimum;
