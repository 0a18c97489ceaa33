//! # digest-sampling
//!
//! The bottom tier of Digest: the distributed random sampling operator `S`
//! (paper §V).
//!
//! Given any weight function `w` over the live nodes, `S` draws a sample
//! node with probability `p_v = w_v / Σ_u w_u` by running a
//! Metropolis–Hastings random walk whose forwarding probabilities are
//! computed from *local* weight ratios only (Eq. 12) — no global
//! normalisation, no global knowledge. After enough steps the walk's
//! distribution is within any desired total-variation distance `γ` of
//! `p_v` (Theorems 1–4).
//!
//! * [`weight`] — node weight functions (uniform, content-size `m_v`,
//!   degree, custom closures).
//! * [`metropolis`] — one walk: the Eq. 12 transition rule with laziness
//!   ½, plus message accounting per hop.
//! * [`operator`] — the sampling operator: fresh walks (mixing-length) and
//!   continued walks (reset-length, §VI-A's "continue the random walk from
//!   where it stops"), two-stage tuple sampling, cluster sampling (for the
//!   ablation the paper argues against), batch mode. Occasion batches run
//!   through a deterministic parallel executor
//!   ([`SamplingConfig::workers`]): every walk slot owns a counter-derived
//!   RNG stream, so sampled panels are byte-identical for any worker
//!   count, including 1. Walks read the overlay's adjacency straight from
//!   the graph's neighbor arena; beside it each occasion keeps only the
//!   M–H tables — one integer acceptance threshold per arena slot and one
//!   proposal rejection threshold per node, bit-equivalent to the live
//!   Eq. 12 expression so RNG streams and panels are unaffected. The
//!   tables are reused while the graph epoch and the node weights are
//!   unchanged and rebuilt otherwise.
//! * [`mixing`] — exact mixing analysis on small graphs: transition
//!   matrices, `π_t = π_0 Pᵗ`, TVD curves, measured mixing time `τ(γ)`,
//!   spectral-gap estimation (Theorem 3's `θ_P = 1 − |λ₂|`).
//! * [`claim`] — the one lock-free, loom-checked claim/publish protocol
//!   behind every deterministic parallel loop: the walk batch here, and
//!   the replication runner and million-node simulation in `digest-sim`.
//! * [`baselines`] — the oracle (centralised) sampler that bounds the best
//!   possible cost, and the naive uniform-forwarding walk whose stationary
//!   distribution is degree-biased (what Digest's Metropolis rule fixes).
//! * [`size_estimate`] — capture–recapture estimation of the network and
//!   relation sizes, needed to scale `AVG` estimates into `SUM`/`COUNT`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

mod arena;
pub mod baselines;
pub mod claim;
pub mod error;
mod executor;
pub mod metropolis;
pub mod mixing;
pub mod operator;
pub mod size_estimate;
mod snapshot;
mod sync;
pub mod weight;

pub use baselines::{NaiveWalkSampler, OracleSampler};
pub use error::SamplingError;
pub use metropolis::MetropolisWalk;
pub use mixing::{
    calibrated_walk_length, mixing_time, sparse_spectral_diagnostics, transition_matrix, tvd_curve,
    SpectralDiagnostics,
};
pub use operator::{
    default_workers, SampleCost, SamplingConfig, SamplingOperator, SnapshotStats, WORKERS_ENV_VAR,
};
pub use size_estimate::SizeEstimator;
pub use weight::{content_size_weight, degree_weight, uniform_weight, NodeWeight};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SamplingError>;
