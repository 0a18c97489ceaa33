//! # digest-net
//!
//! The unstructured peer-to-peer overlay substrate of Digest.
//!
//! The paper models the network as an undirected graph `G(V, E)` with
//! arbitrary, dynamically changing topology (§II). This crate provides:
//!
//! * [`graph`] — the overlay graph itself: stable node identities across
//!   joins/leaves, a flat `u32` CSR neighbor arena with bulk loading and
//!   compaction, adjacency queries, connectivity analysis. One store
//!   carries both the paper-scale worlds and 10⁶-node overlays.
//! * [`topology`] — seeded generators for the topologies the paper's
//!   evaluation uses (mesh for the weather-station network, power-law /
//!   Barabási–Albert for the SETI@home-like computing network) plus
//!   Erdős–Rényi, ring, Watts–Strogatz, complete, and star graphs for
//!   tests and ablations.
//! * [`churn`] — the node join/leave process that drives the dynamic
//!   membership of `V` (and hence of the stored relation), per tick or
//!   as an O(batch) event batch.
//! * [`metrics`] — degree distributions, power-law exponent estimation,
//!   clustering, and diameter estimates used to validate generated
//!   topologies against the paper's assumptions (`p_k ∝ k^−α`, 2 < α < 3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod churn;
pub mod error;
pub mod graph;
pub mod metrics;
pub mod topology;

pub use churn::{ChurnConfig, ChurnEvent, ChurnProcess};
pub use error::NetError;
pub use graph::{Graph, NodeId};
pub use metrics::{degree_distribution, estimate_power_law_alpha, DegreeStats};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NetError>;
