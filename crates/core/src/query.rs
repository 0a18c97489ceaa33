//! The continuous-query model (paper §II).
//!
//! `SELECT op(expression) FROM R` evaluated continuously from its arrival
//! time, with user-fixed precision:
//!
//! * `δ` — resolution: the reported result must be re-evaluated whenever
//!   the true aggregate has moved by at least `δ` since the last reported
//!   update; smaller excursions may be filtered out ("held").
//! * `ε` — confidence-interval half-width: each reported estimate must
//!   satisfy `|X̂[t_u] − X[t_u]| ≤ ε` …
//! * `p` — … with probability at least `p`.
//!
//! An exact query is the degenerate `δ = ε = 0, p = 1`; Digest requires
//! strictly positive `δ`, `ε` and `p ∈ (0, 1)` (the non-degenerate regime
//! sampling can serve).

use crate::error::CoreError;
use crate::truth::Pass;
use crate::Result;
use digest_db::{Expr, Predicate};
use std::fmt;

/// The aggregate operation of the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateOp {
    /// `AVG(expression)`.
    Avg,
    /// `SUM(expression)` — estimated as `N̂ · AVG` with a sampled size
    /// estimate `N̂`.
    Sum,
    /// `COUNT(*)` — estimated as `N̂`.
    Count,
    /// `MEDIAN(expression)` — estimated by order statistics with a
    /// distribution-free confidence interval (an extension beyond the
    /// paper's operations; see `quantile_est`).
    Median,
    /// `PERCENTILE(expression, q)` — continuous approximate quantile at
    /// rank `q = q_permille / 1000`, served by the UDDSketch sweep
    /// (DESIGN.md §17); `ε` is an absolute half-width on the reported
    /// quantile value under the §II contract.
    Percentile {
        /// Quantile rank in permille, restricted to `1..=999`.
        q_permille: u16,
    },
    /// `COUNT(DISTINCT expression)` — number of distinct unit-width
    /// value cells, served by HyperLogLog++ (DESIGN.md §17); `ε` is a
    /// *relative* cardinality half-width under the §II contract.
    Distinct,
    /// `TOPK(expression, k)` — mass fraction of the `k` heaviest value
    /// cells, served by a space-saving summary (DESIGN.md §17); `ε` is
    /// an absolute half-width on the fraction under the §II contract.
    TopK {
        /// Number of heavy hitters reported, restricted to `1..=64`.
        k: u16,
    },
}

impl AggregateOp {
    /// True for the sketch-served aggregate kinds of DESIGN.md §17
    /// (`PERCENTILE`, `COUNT DISTINCT`, `TOPK`) whose snapshots are
    /// mergeable-sketch sweeps rather than §IV CLT-sized sample panels.
    #[must_use]
    pub fn is_sketch(&self) -> bool {
        matches!(
            self,
            AggregateOp::Percentile { .. } | AggregateOp::Distinct | AggregateOp::TopK { .. }
        )
    }

    /// True when the `ε` of the §II contract is interpreted as a
    /// *relative* half-width (`|X̂ − X| ≤ ε · max(X, 1)`) rather than an
    /// absolute one — the cardinality semantics of `COUNT DISTINCT`
    /// (DESIGN.md §17).
    #[must_use]
    pub fn uses_relative_epsilon(&self) -> bool {
        matches!(self, AggregateOp::Distinct)
    }

    /// The quantile rank in `[0, 1]` this operation reports, if it is an
    /// order statistic (`MEDIAN` → 0.5, `PERCENTILE` → q; §IV order-
    /// statistic extension).
    #[must_use]
    pub fn quantile_rank(&self) -> Option<f64> {
        match self {
            AggregateOp::Median => Some(0.5),
            AggregateOp::Percentile { q_permille } => Some(f64::from(*q_permille) / 1000.0),
            _ => None,
        }
    }
}

impl fmt::Display for AggregateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregateOp::Avg => write!(f, "AVG"),
            AggregateOp::Sum => write!(f, "SUM"),
            AggregateOp::Count => write!(f, "COUNT"),
            AggregateOp::Median => write!(f, "MEDIAN"),
            AggregateOp::Percentile { .. } => write!(f, "PERCENTILE"),
            AggregateOp::Distinct => write!(f, "COUNT DISTINCT"),
            AggregateOp::TopK { .. } => write!(f, "TOPK"),
        }
    }
}

/// The fixed precision `(δ, ε, p)` of an approximate continuous query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Precision {
    /// Resolution threshold `δ > 0`.
    pub delta: f64,
    /// Confidence-interval half-width `ε > 0`.
    pub epsilon: f64,
    /// Confidence level `p ∈ (0, 1)`.
    pub confidence: f64,
}

impl Precision {
    /// Creates and validates a precision specification.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidPrecision`] if any parameter is out of range.
    pub fn new(delta: f64, epsilon: f64, confidence: f64) -> Result<Self> {
        if !delta.is_finite() || delta <= 0.0 {
            return Err(CoreError::InvalidPrecision {
                reason: "delta must be positive and finite",
            });
        }
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(CoreError::InvalidPrecision {
                reason: "epsilon must be positive and finite",
            });
        }
        if !(confidence > 0.0 && confidence < 1.0) {
            return Err(CoreError::InvalidPrecision {
                reason: "confidence must be in (0, 1)",
            });
        }
        Ok(Self {
            delta,
            epsilon,
            confidence,
        })
    }

    /// The target estimator variance `v* = (ε / z_p)²` this precision
    /// demands of any asymptotically normal estimator.
    ///
    /// # Errors
    ///
    /// Propagates quantile-domain errors (unreachable for validated
    /// precisions).
    pub fn target_variance(&self) -> Result<f64> {
        Ok(digest_stats::clt::target_estimator_variance(
            self.epsilon,
            self.confidence,
        )?)
    }
}

/// A fixed-precision approximate continuous aggregate query.
#[derive(Debug, Clone)]
pub struct ContinuousQuery {
    /// The aggregate operation.
    pub op: AggregateOp,
    /// The arithmetic expression over `R`'s attributes.
    pub expr: Expr,
    /// The `WHERE` predicate restricting the aggregated sub-population
    /// ([`Predicate::True`] = the paper's unrestricted query model).
    pub predicate: Predicate,
    /// The fixed precision `(δ, ε, p)`.
    pub precision: Precision,
}

impl ContinuousQuery {
    /// Creates a query over the whole relation.
    #[must_use]
    pub fn new(op: AggregateOp, expr: Expr, precision: Precision) -> Self {
        Self {
            op,
            expr,
            predicate: Predicate::True,
            precision,
        }
    }

    /// Convenience constructor for the common `AVG` case.
    #[must_use]
    pub fn avg(expr: Expr, precision: Precision) -> Self {
        Self::new(AggregateOp::Avg, expr, precision)
    }

    /// Restricts the query with a `WHERE` predicate.
    #[must_use]
    pub fn with_predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = predicate;
        self
    }

    /// Oracle: the exact current answer of this query against a database
    /// (ground truth for simulation; a real peer cannot compute this).
    /// One scan of the query's truth family, then the finish for its
    /// operation — a [`crate::TruthTable`] of one.
    ///
    /// Returns `None` when the answer is undefined (e.g. `AVG`/`MEDIAN`
    /// over an empty qualifying set) or evaluation fails.
    #[must_use]
    pub fn oracle(&self, db: &digest_db::P2PDatabase) -> Option<f64> {
        let mut pass = Pass::for_op(self.op);
        pass.run(db, &self.expr, &self.predicate).ok()?;
        pass.finish(self.op)
    }
}

impl fmt::Display for ContinuousQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            // COUNT ignores its expression; render the conventional `*`.
            AggregateOp::Count => write!(f, "SELECT COUNT(*) FROM R")?,
            AggregateOp::Percentile { q_permille } => write!(
                f,
                "SELECT PERCENTILE({}, {}) FROM R",
                self.expr,
                f64::from(q_permille) / 1000.0
            )?,
            AggregateOp::Distinct => write!(f, "SELECT COUNT(DISTINCT {}) FROM R", self.expr)?,
            AggregateOp::TopK { k } => write!(f, "SELECT TOPK({}, {k}) FROM R", self.expr)?,
            _ => write!(f, "SELECT {}({}) FROM R", self.op, self.expr)?,
        }
        if !self.predicate.is_trivial() {
            write!(f, " WHERE {}", self.predicate)?;
        }
        write!(
            f,
            " [δ={}, ε={}, p={}]",
            self.precision.delta, self.precision.epsilon, self.precision.confidence
        )
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]
mod tests {
    use super::*;
    use digest_db::Schema;

    #[test]
    fn precision_validation() {
        assert!(Precision::new(1.0, 1.0, 0.95).is_ok());
        assert!(Precision::new(0.0, 1.0, 0.95).is_err());
        assert!(Precision::new(-1.0, 1.0, 0.95).is_err());
        assert!(Precision::new(1.0, 0.0, 0.95).is_err());
        assert!(Precision::new(1.0, 1.0, 0.0).is_err());
        assert!(Precision::new(1.0, 1.0, 1.0).is_err());
        assert!(Precision::new(f64::NAN, 1.0, 0.95).is_err());
        assert!(Precision::new(1.0, f64::INFINITY, 0.95).is_err());
    }

    #[test]
    fn target_variance_matches_clt() {
        let p = Precision::new(1.0, 2.0, 0.95).unwrap();
        let v = p.target_variance().unwrap();
        // v* = (2/1.95996)² ≈ 1.0414.
        assert!((v - 1.0414).abs() < 1e-3, "v = {v}");
    }

    #[test]
    fn query_display_is_sql_like() {
        let schema = Schema::new(["memory", "storage"]);
        let expr = Expr::parse("memory + storage", &schema).unwrap();
        let q = ContinuousQuery::new(
            AggregateOp::Sum,
            expr,
            Precision::new(1.0, 0.5, 0.95).unwrap(),
        );
        let s = q.to_string();
        assert!(s.contains("SUM"), "{s}");
        assert!(s.contains("memory"), "{s}");
        assert!(s.contains("δ=1"), "{s}");
    }

    #[test]
    fn avg_convenience() {
        let schema = Schema::single("t");
        let q = ContinuousQuery::avg(
            Expr::first_attr(&schema),
            Precision::new(2.0, 2.0, 0.95).unwrap(),
        );
        assert_eq!(q.op, AggregateOp::Avg);
    }
}
