//! Independent sampling (`INDEP`, paper §IV-B1).
//!
//! Every snapshot query draws a fresh uniform-with-replacement sample of
//! the relation, sized by the central limit theorem (Eq. 6):
//! `n = (σ z_p / ε)²`. The unknown `σ` is estimated sequentially: a pilot
//! batch seeds `σ̂`, then sampling continues until the CLT requirement is
//! met under the running estimate (the standard two-phase/sequential
//! procedure for on-the-fly sampling).

use crate::error::CoreError;
use crate::panel::PanelEntry;
use crate::query::Precision;
use crate::system::TickContext;
use crate::Result;
use digest_db::{Expr, Predicate};
use digest_sampling::SamplingOperator;
use digest_stats::{required_sample_size, RunningMoments};
use rand::RngCore;

/// The outcome of evaluating one snapshot query (§IV-B; carries the
/// `σ̂`/`ρ̂` diagnostics that feed Eq. 6 and Eq. 10 sizing).
#[derive(Debug, Clone)]
pub struct SnapshotEstimate {
    /// Estimated mean of the expression over the relation.
    pub estimate: f64,
    /// Fresh samples drawn through the sampling operator.
    pub fresh_samples: u64,
    /// Retained samples revisited (0 for independent sampling).
    pub revisited_samples: u64,
    /// Messages spent (walks + reports + revisits).
    pub messages: u64,
    /// Estimated value standard deviation `σ̂` at this occasion.
    pub sigma_hat: f64,
    /// Correlation `ρ̂` between consecutive occasions, when the estimator
    /// observes one (repeated sampling only).
    pub rho_hat: Option<f64>,
    /// Estimated variance of `estimate` itself.
    pub estimator_variance: f64,
    /// Samples that satisfied the query predicate (= all samples for the
    /// trivial predicate).
    pub qualifying_samples: u64,
    /// Measured selectivity `qualifying / drawn` (1 for the trivial
    /// predicate).
    pub selectivity: f64,
    /// Panel to retain for the next occasion (empty for independent
    /// sampling).
    pub panel_for_next: Vec<PanelEntry>,
}

impl SnapshotEstimate {
    /// Total samples evaluated this occasion.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.fresh_samples + self.revisited_samples
    }
}

/// The independent-sampling estimator (`INDEP`, paper §IV-B1): fresh
/// CLT-sized sample every occasion (Eq. 6).
#[derive(Debug, Clone, Copy)]
pub struct IndependentEstimator {
    /// Pilot batch size used to seed `σ̂`.
    pub pilot_size: usize,
    /// Hard cap on samples per snapshot (guards against pathological
    /// variance estimates).
    pub max_samples: usize,
    /// Whether to keep the drawn samples as a panel (used when repeated
    /// sampling delegates its first occasion here).
    pub build_panel: bool,
}

impl Default for IndependentEstimator {
    fn default() -> Self {
        Self {
            pilot_size: 30,
            max_samples: 20_000,
            build_panel: false,
        }
    }
}

impl IndependentEstimator {
    /// Creates an estimator.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if `pilot_size < 2` or
    /// `max_samples < pilot_size`.
    pub fn new(pilot_size: usize, max_samples: usize, build_panel: bool) -> Result<Self> {
        if pilot_size < 2 {
            return Err(CoreError::InvalidConfig {
                reason: "pilot_size must be at least 2",
            });
        }
        if max_samples < pilot_size {
            return Err(CoreError::InvalidConfig {
                reason: "max_samples must cover the pilot",
            });
        }
        Ok(Self {
            pilot_size,
            max_samples,
            build_panel,
        })
    }

    /// Evaluates one snapshot query: estimates `AVG(expr)` over the
    /// sub-population satisfying `predicate` to the given precision.
    ///
    /// # Errors
    ///
    /// Sampling/database errors (e.g. an empty relation).
    pub fn evaluate(
        &self,
        ctx: &TickContext<'_>,
        expr: &Expr,
        predicate: &Predicate,
        precision: &Precision,
        operator: &mut SamplingOperator,
        rng: &mut dyn RngCore,
    ) -> Result<SnapshotEstimate> {
        operator.begin_occasion();
        let trivial = predicate.is_trivial();
        let mut moments = RunningMoments::new();
        let mut messages = 0u64;
        let mut panel = Vec::new();

        let mut drawn = 0u64;
        let mut qualifying = 0u64;
        // Rejection headroom: non-qualifying samples cost walks but carry
        // no information, so allow extra draws before giving up.
        let max_draws = if trivial {
            self.max_samples
        } else {
            self.max_samples.saturating_mul(4)
        };
        // Sequential rounds of batch draws: pilot first, then extend until
        // the CLT size is satisfied by the running σ̂ (sizes count
        // *qualifying* samples). Each round requests the current deficit
        // in one `sample_tuples` batch, which runs the occasion's walks
        // through the deterministic parallel executor.
        loop {
            let goal = if qualifying < self.pilot_size as u64 {
                self.pilot_size
            } else {
                let sigma = moments.sample_std();
                required_sample_size(sigma, precision.epsilon, precision.confidence)?
                    .min(self.max_samples)
            };
            if qualifying >= goal as u64 || drawn >= max_draws as u64 {
                break;
            }
            let deficit = goal.saturating_sub(usize::try_from(qualifying).unwrap_or(usize::MAX));
            let headroom = max_draws.saturating_sub(usize::try_from(drawn).unwrap_or(usize::MAX));
            let want = deficit.min(headroom).max(1);
            let batch = operator.sample_tuples(ctx.graph, ctx.db, ctx.origin, want, rng)?;
            for (handle, tuple, cost) in batch {
                messages += cost.total();
                drawn += 1;
                if !trivial && !predicate.eval(&tuple).unwrap_or(false) {
                    continue;
                }
                let value = expr.eval(&tuple)?;
                if value.is_finite() {
                    moments.push(value);
                    qualifying += 1;
                    if self.build_panel {
                        panel.push(PanelEntry {
                            handle,
                            prev_value: value,
                        });
                    }
                }
            }
        }

        if digest_telemetry::events_enabled() {
            digest_telemetry::emit(
                "estimator.snapshot",
                &[
                    ("estimator", digest_telemetry::Field::Str("INDEP")),
                    ("estimate", digest_telemetry::Field::F64(moments.mean())),
                    ("fresh", digest_telemetry::Field::U64(drawn)),
                    ("retained", digest_telemetry::Field::U64(0)),
                ],
            );
        }

        let n = moments.count().max(1) as f64;
        Ok(SnapshotEstimate {
            estimate: moments.mean(),
            fresh_samples: drawn,
            revisited_samples: 0,
            messages,
            sigma_hat: moments.sample_std(),
            rho_hat: None,
            estimator_variance: moments.sample_variance() / n,
            qualifying_samples: qualifying,
            selectivity: if drawn == 0 {
                1.0
            } else {
                qualifying as f64 / drawn as f64
            },
            panel_for_next: panel,
        })
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
    use digest_db::{P2PDatabase, Schema, Tuple};
    use digest_net::{topology, NodeId};
    use digest_sampling::SamplingConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A complete graph of `nodes` nodes, each holding `per_node` tuples
    /// with values from a deterministic spread around `mean`.
    fn setup(
        nodes: u32,
        per_node: u32,
        mean: f64,
        spread: f64,
    ) -> (digest_net::Graph, P2PDatabase) {
        let g = topology::complete(nodes as usize).unwrap();
        let mut db = P2PDatabase::new(Schema::single("a"));
        let total = nodes * per_node;
        let mut k = 0u32;
        for v in 0..nodes {
            db.register_node(NodeId(v));
            for _ in 0..per_node {
                // Evenly spread values in [mean − spread, mean + spread].
                let frac = if total > 1 {
                    k as f64 / (total - 1) as f64
                } else {
                    0.5
                };
                let value = mean - spread + 2.0 * spread * frac;
                db.insert(NodeId(v), Tuple::single(value)).unwrap();
                k += 1;
            }
        }
        (g, db)
    }

    fn operator() -> SamplingOperator {
        SamplingOperator::new(SamplingConfig {
            walk_length: 40,
            reset_length: 8,
            continue_walks: true,
            workers: 1,
        })
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(IndependentEstimator::new(1, 100, false).is_err());
        assert!(IndependentEstimator::new(10, 5, false).is_err());
        assert!(IndependentEstimator::new(10, 100, false).is_ok());
    }

    #[test]
    fn estimates_mean_within_epsilon() {
        let (g, db) = setup(8, 25, 50.0, 10.0);
        let expr = Expr::first_attr(db.schema());
        let precision = Precision::new(1.0, 1.0, 0.95).unwrap();
        let est = IndependentEstimator::default();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let ctx = TickContext {
            tick: 0,
            graph: &g,
            db: &db,
            origin: NodeId(0),
        };
        let truth = db.exact_avg(&expr).unwrap();

        let mut hits = 0;
        let trials = 20;
        for _ in 0..trials {
            let r = est
                .evaluate(&ctx, &expr, &Predicate::True, &precision, &mut op, &mut rng)
                .unwrap();
            if (r.estimate - truth).abs() <= precision.epsilon {
                hits += 1;
            }
            assert!(r.fresh_samples >= 30);
            assert!(
                r.messages > r.fresh_samples,
                "walks cost more than one message"
            );
        }
        // 95% confidence → expect ≥ ~17/20 inside the interval.
        assert!(hits >= 16, "only {hits}/{trials} inside ±ε");
    }

    #[test]
    fn sample_count_scales_with_variance() {
        let precision = Precision::new(1.0, 1.0, 0.95).unwrap();
        let est = IndependentEstimator::default();
        let mut rng = ChaCha8Rng::seed_from_u64(2);

        let (g1, db1) = setup(6, 20, 100.0, 2.0); // low spread
        let ctx1 = TickContext {
            tick: 0,
            graph: &g1,
            db: &db1,
            origin: NodeId(0),
        };
        let e1 = Expr::first_attr(db1.schema());
        let mut op1 = operator();
        let r1 = est
            .evaluate(&ctx1, &e1, &Predicate::True, &precision, &mut op1, &mut rng)
            .unwrap();

        let (g2, db2) = setup(6, 20, 100.0, 20.0); // high spread
        let ctx2 = TickContext {
            tick: 0,
            graph: &g2,
            db: &db2,
            origin: NodeId(0),
        };
        let e2 = Expr::first_attr(db2.schema());
        let mut op2 = operator();
        let r2 = est
            .evaluate(&ctx2, &e2, &Predicate::True, &precision, &mut op2, &mut rng)
            .unwrap();

        assert!(
            r2.fresh_samples > 2 * r1.fresh_samples,
            "high-variance run should need far more samples: {} vs {}",
            r2.fresh_samples,
            r1.fresh_samples
        );
    }

    #[test]
    fn respects_max_samples_cap() {
        let (g, db) = setup(6, 20, 100.0, 50.0);
        let expr = Expr::first_attr(db.schema());
        // Brutally tight ε forces the cap.
        let precision = Precision::new(1.0, 0.01, 0.99).unwrap();
        let est = IndependentEstimator::new(10, 200, false).unwrap();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let ctx = TickContext {
            tick: 0,
            graph: &g,
            db: &db,
            origin: NodeId(0),
        };
        let r = est
            .evaluate(&ctx, &expr, &Predicate::True, &precision, &mut op, &mut rng)
            .unwrap();
        assert!(r.fresh_samples <= 200);
    }

    #[test]
    fn builds_panel_when_asked() {
        let (g, db) = setup(4, 10, 10.0, 1.0);
        let expr = Expr::first_attr(db.schema());
        let precision = Precision::new(1.0, 0.5, 0.95).unwrap();
        let est = IndependentEstimator {
            build_panel: true,
            ..Default::default()
        };
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let ctx = TickContext {
            tick: 0,
            graph: &g,
            db: &db,
            origin: NodeId(0),
        };
        let r = est
            .evaluate(&ctx, &expr, &Predicate::True, &precision, &mut op, &mut rng)
            .unwrap();
        assert_eq!(r.panel_for_next.len() as u64, r.fresh_samples);
        // Panel values are the observed values.
        for e in &r.panel_for_next {
            let t = db.read(e.handle).unwrap();
            assert_eq!(expr.eval(t).unwrap(), e.prev_value);
        }
    }

    #[test]
    fn constant_relation_needs_only_pilot() {
        let (g, db) = setup(5, 10, 42.0, 0.0);
        let expr = Expr::first_attr(db.schema());
        let precision = Precision::new(1.0, 0.5, 0.95).unwrap();
        let est = IndependentEstimator::default();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let ctx = TickContext {
            tick: 0,
            graph: &g,
            db: &db,
            origin: NodeId(0),
        };
        let r = est
            .evaluate(&ctx, &expr, &Predicate::True, &precision, &mut op, &mut rng)
            .unwrap();
        assert_eq!(r.fresh_samples, 30, "zero variance → pilot only");
        assert!((r.estimate - 42.0).abs() < 1e-12);
    }
}
