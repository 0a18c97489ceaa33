//! # digest-sim
//!
//! The discrete-time simulation harness (the stand-in for the paper's
//! multithreaded C++ simulator on two Sun Enterprise 250s — our metrics
//! are deterministic *counts*, so a single-process simulator reproduces
//! them exactly, minus the hardware noise).
//!
//! [`parallel::run_replications`] replays a scenario under many seeds on
//! worker threads for statistically reliable (error-barred) metrics;
//! [`runner::run`] drives one [`digest_core::QuerySystem`] against one
//! [`digest_workload::Workload`] for a span of ticks, collecting a
//! [`trace::RunReport`]: per-tick records of the exact aggregate (oracle)
//! versus the system's running estimate, plus totals of snapshots, samples
//! and messages, and the realised precision-violation rates that verify
//! the `(δ, ε, p)` guarantee.
//!
//! For million-node overlays, [`runner::run_events`] swaps the dense tick
//! loop for a calendar [`events::EventQueue`] (cost ∝ due ticks, not the
//! horizon), and [`flat::run_flat`] runs a sharded deterministic
//! simulation of a 10⁶-node [`digest_net::Graph`] with the sampling
//! operator's own M–H walk — per-shard counter-split RNG streams, the
//! shared lock-free claim/publish protocol, ordered merge — so worker
//! counts {1, k} produce byte-identical reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod events;
pub mod flat;
pub mod parallel;
pub mod runner;
pub mod trace;

pub use events::EventQueue;
pub use flat::{run_flat, FlatReport, FlatSimConfig};
pub use parallel::{run_replications, summarize, MetricSummary};
pub use runner::{run, run_events, run_mux, run_observed, RunConfig};
pub use trace::{RunReport, TraceRecord};
