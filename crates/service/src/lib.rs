//! `groomd` — a long-running grooming solve service.
//!
//! Everything below PR 4's solve surface treats a grooming run as a batch
//! computation: build a [`grooming::solve::SolveContext`], solve, exit.
//! This crate turns that surface into a *service*: a resident process that
//! admits demand-set requests, solves them on a worker pool, and returns
//! groomed plans — the shape an operator actually provisions traffic with.
//!
//! The pieces, bottom to top:
//!
//! * [`service`] — the core: a **work-based bounded admission queue** with
//!   explicit backpressure (a submission that does not fit the item cap
//!   *and* the estimated-work cap gets a
//!   [`service::SubmitError::QueueFull`] reply carrying the observed depth
//!   and queued cost — the service never buffers unbounded memory and
//!   never blocks the submitter), a **deadline-aware load-shed policy**
//!   (above a saturation watermark, requests whose deadline cannot survive
//!   the estimated queue wait are refused as
//!   [`service::SubmitError::Shed`] — the cheapest work to reject is work
//!   that would expire in the queue), a **worker pool** of std threads
//!   each owning one warm [`grooming_graph::workspace::Workspace`], a
//!   **canonical-form solve cache** ([`cache`]) serving repeated demand
//!   patterns byte-identically without re-solving, **per-request
//!   deadlines** mapped onto the context's deadline/cancel machinery (an
//!   expired request still returns its best-so-far plan flagged
//!   `timed_out`), and **graceful shutdown** (stop admitting, flip the
//!   shared cancel flag so in-flight solves cut at their next attempt
//!   boundary, drain every accepted request exactly once, snapshot the
//!   stats).
//! * [`histogram`] — fixed log2-bucket latency [`histogram::Histogram`]s
//!   (no deps, bounded memory) recording queue-wait and solve-time
//!   distributions into every [`StatsSnapshot`].
//! * [`cache`] — the content digest ([`cache::instance_digest`]) and the
//!   bounded FIFO [`cache::SolveCache`] keyed by it.
//! * [`client`] — the in-process [`client::Client`]: the same request →
//!   response cycle without sockets, used by tests and examples to assert
//!   determinism bit for bit.
//! * [`protocol`] — the hand-rolled newline-delimited text protocol (no
//!   serde): `BATCH`/`STATS`/`PING`/`SHUTDOWN` verbs, instance payloads in
//!   the versioned demand-list format of [`grooming_graph::io`].
//! * [`tcp`] — the same core served over a loopback
//!   [`std::net::TcpListener`] with blocking I/O that wakes on events (an
//!   acceptor, and a reader and a writer thread per connection; none
//!   sleeps on a timer): each reader feeds socket lines straight to
//!   [`protocol::parse_request`], so arbitrarily slow or fragmented
//!   clients lose nothing, and pipelined request blocks are answered in
//!   order (the CLI's `serve` subcommand).
//!
//! # Determinism contract
//!
//! Every item of every request owns an independent RNG stream derived
//! order-free from `(master_seed, content digest)` by a SplitMix64
//! finalizer ([`service::item_seed`]). No worker shares RNG state with any
//! other, and batch responses are re-assembled in submission order, so a
//! given `(batch, master_seed)` yields a byte-identical response
//! transcript at *any* worker count — and, because the seed depends on the
//! instance's *content* rather than its request envelope, identical
//! demand patterns yield identical plans across requests, which is exactly
//! the property that makes the solve cache transcript-invisible.

#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod histogram;
pub mod protocol;
pub mod service;
pub mod tcp;

pub use cache::{instance_digest, SolveCache};
pub use client::{Client, RequestOptions};
pub use histogram::Histogram;
pub use service::{
    estimated_cost, item_seed, BatchResponse, ItemError, ItemOutcome, Request, Service,
    ServiceConfig, ServiceCounters, StatsSnapshot, SubmitError, Ticket,
};
