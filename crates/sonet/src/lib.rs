//! # grooming-sonet
//!
//! A SONET/WDM **unidirectional path-switched ring** (UPSR) substrate.
//!
//! The ICPP'06 paper optimizes a physical quantity — the number of SONET
//! add-drop multiplexers (SADMs) deployed around a WDM ring — by reasoning
//! about an abstract graph partition. This crate is the physical side of
//! that bridge. It models:
//!
//! * [`rates`] — OC-N line rates and the **grooming factor** (how many
//!   tributaries share a wavelength: sixteen OC-3s in an OC-48 → k = 16);
//! * [`ring`] — the UPSR topology: a working fiber ring carrying traffic
//!   clockwise and a counter-rotating protection ring, with directed *arcs*
//!   between adjacent nodes;
//! * [`demand`] — symmetric unitary demand pairs `{x, y}`, demand sets,
//!   traffic matrices, and conversions to/from the traffic graph that the
//!   grooming algorithms consume;
//! * [`channel`] — wavelength channels with per-arc load accounting (a
//!   symmetric pair consumes one capacity unit on *every* arc of the ring:
//!   the x→y path plus the y→x path cover the whole circle);
//! * [`grooming`] — a full grooming assignment: wavelength → demand pairs,
//!   capacity validation, SADM placement, and optical bypass counting;
//! * [`stats`] — the cost report (SADM totals, wavelength counts,
//!   utilization) that the experiments print;
//! * [`weighted`] — the non-unitary demand variant: splittable service
//!   reduces to the unitary multigraph problem, non-splittable service is
//!   bin packing (first-fit decreasing with SADM affinity);
//! * [`protection`] — UPSR protection switching: single-span cuts are
//!   always survivable (the architecture's defining property), double
//!   cuts lose exactly the separated pairs; both simulated and tested;
//! * [`blsr`] — the bidirectional (BLSR) variant with shortest-path
//!   routing and per-span capacity, for quantifying what the UPSR
//!   assumption costs;
//! * [`multiring`] — stacked rings joined at gateways: network demands
//!   decompose into intra-ring segments, each of which is the paper's
//!   single-ring problem.
//!
//! The accounting here is intentionally independent of the graph-side cost
//! formulas in the `grooming` crate: integration tests cross-check that
//! `Σ|V_i|` computed on the traffic graph equals the SADM count this
//! simulator derives by placing ADMs on the modeled ring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blsr;
pub mod channel;
pub mod cost;
pub mod demand;
pub mod grooming;
pub mod multiring;
pub mod protection;
pub mod rates;
pub mod ring;
pub mod stats;
pub mod weighted;

pub use channel::WavelengthChannel;
pub use demand::{DemandPair, DemandSet, TrafficMatrix};
pub use grooming::GroomingAssignment;
pub use rates::OcRate;
pub use ring::UpsrRing;
pub use stats::RingCostReport;
