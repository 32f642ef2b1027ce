//! # grooming
//!
//! A faithful, production-quality implementation of
//!
//! > Yong Wang and Qian-Ping Gu, *Efficient Algorithms for Traffic
//! > Grooming in SONET/WDM Networks*, ICPP 2006.
//!
//! In SONET/WDM unidirectional rings (UPSR), low-rate traffic demands are
//! multiplexed ("groomed") onto wavelength channels; each wavelength needs
//! a SONET add-drop multiplexer (SADM) at every node where it carries local
//! traffic. For symmetric unitary demands, minimizing SADMs is the
//! **k-edge-partitioning problem** on the traffic graph: split the edges
//! into parts of at most `k` (the grooming factor), minimizing the total
//! number of distinct nodes across parts. The problem is NP-hard; this
//! crate implements the paper's two algorithms, its hardness machinery, the
//! baselines it compares against, and the bounds it proves:
//!
//! * [`spant_euler`](mod@spant_euler) — the linear-time **SpanT_Euler**
//!   heuristic for arbitrary traffic graphs (Theorem 5 bound, minimum
//!   wavelengths);
//! * [`regular_euler`](mod@regular_euler) — **Regular_Euler** for regular
//!   traffic patterns (Theorem 10 bounds via maximum matchings, minimum
//!   wavelengths);
//! * [`baselines`] — Algo 1 (Goldschmidt et al.), Algo 2 (Brauner et
//!   al.), Algo 3 (Wang & Gu ICC'06);
//! * [`skeleton`] — the skeleton-cover machinery (Propositions 1 and 2)
//!   shared by all of the above;
//! * [`partition`] — the `k`-edge partition result type with validation;
//! * [`bounds`] — lower bounds and the Theorem 5/10 upper-bound formulas;
//! * [`exact`] — a branch-and-bound optimum for tiny instances;
//! * [`improve`] — the concluding remarks' proposed extensions: local
//!   search refinement, wavelength merging, and the clique/dense-first
//!   packers;
//! * [`budget`] — the SADM-vs-wavelength tradeoff made operational:
//!   minimize SADMs subject to a wavelength budget;
//! * [`hardness`] — the Lemma 6 / Theorem 7 NP-hardness reductions as
//!   executable, empirically verified gadget constructions;
//! * [`pipeline`] — demands → algorithm → validated wavelength assignment
//!   on the simulated ring (via the `grooming-sonet` crate);
//! * [`network`] — multi-ring deployments: route through gateways, groom
//!   each ring with the paper's algorithms, aggregate;
//! * [`online`] — dynamic traffic: demands provisioned and withdrawn one
//!   at a time without rearrangement, snapshotted as the prior plan of a
//!   warm-start solve;
//! * [`analysis`] — planner-facing partition analytics (histograms, hot
//!   nodes, optimality gap);
//! * [`solve`] — the context/solver layer: every workload above
//!   normalizes into a [`solve::Instance`] and solves through one
//!   [`solve::Solver`] surface against a caller-owned
//!   [`solve::SolveContext`] (owned RNG stream, reusable workspace,
//!   deadline + cancellation, instrumentation).
//!
//! ## Quick start
//!
//! ```
//! use grooming::algorithm::Algorithm;
//! use grooming::pipeline::groom;
//! use grooming_graph::spanning::TreeStrategy;
//! use grooming_sonet::demand::DemandSet;
//! use rand::SeedableRng;
//!
//! // 16-node ring, 40 random symmetric OC-3 demands, OC-48 wavelengths.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let demands = DemandSet::random(16, 40, &mut rng);
//! let outcome = groom(
//!     &demands,
//!     16, // grooming factor: sixteen OC-3 tributaries per OC-48 channel
//!     Algorithm::SpanTEuler(TreeStrategy::Bfs),
//!     &mut rng,
//! )
//! .unwrap();
//! assert_eq!(outcome.report.wavelengths, 40usize.div_ceil(16)); // minimum
//! println!("{}", outcome.report);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod alltoall;
pub mod analysis;
pub mod baselines;
pub mod bounds;
pub mod budget;
pub mod exact;
pub mod hardness;
pub mod improve;
pub mod mesh;
pub mod network;
pub mod online;
pub mod partition;
pub mod pipeline;
pub mod portfolio;
pub mod regular_euler;
pub mod skeleton;
pub mod solve;
pub mod spant_euler;

pub use algorithm::Algorithm;
pub use partition::EdgePartition;
pub use pipeline::{groom, GroomingOutcome};
pub use regular_euler::{regular_euler, regular_euler_detailed};
pub use solve::{
    Instance, Plan, PortfolioSolver, Solution, SolveContext, SolveError, SolveStats, Solver,
};
pub use spant_euler::{spant_euler, spant_euler_detailed};
