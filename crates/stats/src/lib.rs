//! # digest-stats
//!
//! Statistical substrate for the Digest query-answering system.
//!
//! This crate implements, from scratch, every piece of numerical machinery
//! the two tiers of Digest rely on:
//!
//! * [`moments`] — numerically stable running moments (Welford) and paired
//!   moments (covariance / correlation) for streaming data.
//! * [`normal`] — the standard normal distribution: `Φ`, `φ`, and a
//!   high-accuracy inverse CDF used to turn a confidence level `p` into a
//!   quantile `z_p`.
//! * [`clt`] — central-limit-theorem sample sizing: how many i.i.d. samples
//!   are needed so that the sample mean lands within `±ε` of the population
//!   mean with probability `p` (paper Eq. 6).
//! * [`linalg`] — small dense matrices and linear solvers (LU with partial
//!   pivoting, Cholesky) backing the least-squares fitters.
//! * [`lm`] — the Levenberg–Marquardt damped least-squares optimiser the
//!   paper prescribes for fitting the Taylor polynomial of the running
//!   aggregate.
//! * [`poly`] — dense univariate polynomials and (non)linear least-squares
//!   polynomial fitting.
//! * [`taylor`] — Taylor-polynomial extrapolation with Lagrange remainder
//!   bounds: predicts the earliest time the running aggregate can have
//!   drifted by the resolution threshold `δ` (paper §IV-A, Eqs. 1–4).
//! * [`quantile`] — sample quantiles with distribution-free
//!   (order-statistic) confidence intervals, powering `MEDIAN` queries.
//! * [`regression`] — simple linear regression between paired samples,
//!   the auxiliary-variate machinery behind repeated sampling.
//! * [`repeated`] — the repeated-sampling estimator algebra of paper
//!   §IV-B2: optimal panel partitioning `g_opt`, the combined
//!   regression+mean estimator, and its variance (Eqs. 7–11).
//! * [`tvd`] — discrete probability distributions and total-variation
//!   distance, used to certify the mixing of the MCMC sampling operator.
//! * [`splitmix64`] — the shared mixer behind every derived RNG stream
//!   and the HLL++ sketch key.
//!
//! All algorithms are deterministic and allocation-conscious; no external
//! numerical crates are used.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod clt;
pub mod error;

/// Converts a non-negative finite `f64` to `usize`, saturating at the
/// type bounds. The single place sample-size arithmetic (always small,
/// always non-negative) is allowed to leave floating point.
#[must_use]
pub(crate) fn f64_to_usize_saturating(x: f64) -> usize {
    if x.is_nan() || x < 0.0 {
        return 0;
    }
    if x >= usize::MAX as f64 {
        return usize::MAX;
    }
    // In-range by the guards above.
    #[allow(clippy::cast_possible_truncation)]
    let out = x as usize;
    out
}

/// SplitMix64 finalizer (Steele et al., "Fast splittable pseudorandom
/// number generators"): the one fixed 64-bit seed mixer of the
/// workspace. It derives well-separated per-slot and per-shard RNG seeds
/// from a single occasion seed, and keys the HLL++ sketch in place of a
/// keyed hash so its register dumps replay byte-identically. Bijective
/// on `u64`, so it cannot create collisions.
/// xtask: no-alloc
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub mod linalg;
pub mod lm;
pub mod moments;
pub mod normal;
pub mod poly;
pub mod quantile;
pub mod regression;
pub mod repeated;
pub mod taylor;
pub mod tvd;

pub use clt::{required_sample_size, required_sample_size_for_variance};
pub use error::StatsError;
pub use linalg::Matrix;
pub use lm::{LevenbergMarquardt, LmConfig, LmOutcome, LmReport, ResidualModel};
pub use moments::{PairedMoments, RunningMoments};
pub use normal::{inverse_phi, phi, phi_pdf, z_for_confidence};
pub use poly::Polynomial;
pub use quantile::{quantile_interval, sample_quantile, QuantileInterval};
pub use regression::SimpleLinearRegression;
pub use repeated::{combined_estimate, optimal_partition, CombinedEstimate, PanelPartition};
pub use taylor::{Extrapolator, ExtrapolatorConfig, Prediction};
pub use tvd::{total_variation_distance, DiscreteDistribution};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StatsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // Reference outputs for seed 1234567 advancing the SplitMix64
        // stream (Steele et al. appendix vectors).
        assert_eq!(splitmix64(1_234_567), 6_457_827_717_110_365_317);
    }
}
