//! # digest-sketch
//!
//! Deterministic, mergeable sketches backing the continuous sketch
//! aggregates of the Digest stack (DESIGN.md §17): a scale-invariant
//! [UDDSketch](quantile::UddSketch) for `approx_percentile` /
//! `approx_median`, a [HyperLogLog++](distinct::HllSketch) for
//! continuous `COUNT DISTINCT`, and a
//! [space-saving summary](topk::SpaceSavingSketch) for top-k heavy
//! hitters.
//!
//! Every sketch exposes the timescaledb-toolkit *trans / merge / final /
//! serialize* aggregate shape (SNIPPETS.md 1–2): `accumulate` folds one
//! value into a partial state, `merge` combines two partials, the
//! `estimate` methods finalize, and `serialize` / `deserialize` give a
//! canonical byte round trip. Merging is what lets sketch mass combine
//! across sample panels within a snapshot occasion and across occasions
//! of the same continuous query — the fixed-precision (δ, ε, p) contract
//! of the paper (§II, Eq. 1) is then audited per aggregate kind against
//! the per-sketch error bounds documented on each type.
//!
//! The crate is subject to the repository lint rules R1/R2/R5
//! (`cargo xtask lint`): no panicking constructs, no hash collections
//! (every container is a `BTreeMap` so iteration, merge, and serialized
//! dumps are byte-deterministic), and no randomness at all — each sketch
//! is a pure fold over its input stream, so replay determinism across
//! sampling worker counts is structural rather than enforced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod distinct;
pub mod error;
pub mod quantile;
pub mod topk;

pub use distinct::HllSketch;
pub use error::SketchError;
pub use quantile::UddSketch;
pub use topk::SpaceSavingSketch;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SketchError>;

/// Converts a finite `f64` to `i64`, saturating at the type bounds.
///
/// The single place bucket-index arithmetic (bounded by ±ln(f64::MAX) /
/// ln γ, far inside `i64`) leaves floating point; mirrors the guarded
/// saturating-cast idiom of `digest-stats` (§IV-B sizing helpers).
#[must_use]
pub(crate) fn f64_to_i64_saturating(x: f64) -> i64 {
    if x.is_nan() {
        return 0;
    }
    if x >= i64::MAX as f64 {
        return i64::MAX;
    }
    if x <= i64::MIN as f64 {
        return i64::MIN;
    }
    // In-range by the guards above.
    #[allow(clippy::cast_possible_truncation)]
    let out = x as i64;
    out
}

/// Quantizes a continuous attribute value onto a unit-width integer cell
/// (saturating floor), the shared key domain for `COUNT DISTINCT` and
/// top-k (DESIGN.md §17). Oracles apply the same map, so the audited
/// ground truth (§VI methodology) counts exactly the cells the sketches
/// count. NaN maps to cell 0 to stay total.
#[must_use]
pub fn value_cell(value: f64) -> i64 {
    f64_to_i64_saturating(value.floor())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_cell_floors_and_saturates() {
        assert_eq!(value_cell(3.7), 3);
        assert_eq!(value_cell(-0.2), -1);
        assert_eq!(value_cell(f64::NAN), 0);
        assert_eq!(value_cell(1e300), i64::MAX);
        assert_eq!(value_cell(-1e300), i64::MIN);
    }
}
