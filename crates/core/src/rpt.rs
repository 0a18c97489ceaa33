//! Repeated sampling (`RPT`, paper §IV-B2).
//!
//! The first snapshot of a continuous query is evaluated exactly like
//! independent sampling, but the drawn samples are *kept* as a panel. At
//! every later occasion:
//!
//! 1. the required panel size `n` is solved from the repeated-sampling
//!    variance formula (Eq. 10) under the current `ρ̂`, `σ̂` — by Eq. 11
//!    a factor `2/(1+√(1−ρ̂²))` smaller than the CLT size INDEP needs;
//! 2. the panel is partitioned optimally (Eq. 9): `g_opt` samples are
//!    *retained* and revisited (cheap — the nodes are already located),
//!    the rest replaced by fresh walks; tuples that died or whose node
//!    left are detected on revisit and silently become fresh draws
//!    (§IV-B2a's forced-replacement rule);
//! 3. the reported result combines the regression estimate over the
//!    retained pairs with the fresh-sample mean, inverse-variance
//!    weighted (Eq. 7, Table 1);
//! 4. `ρ̂` and `σ̂` are refreshed from this occasion's panel for the next
//!    round (an exponential moving average keeps single-occasion noise
//!    from whipsawing the replacement policy).

use crate::error::CoreError;
use crate::indep::{IndependentEstimator, SnapshotEstimate};
use crate::panel::{PanelEntry, SamplePanel};
use crate::query::Precision;
use crate::system::TickContext;
use crate::Result;
use digest_db::{Expr, Predicate};
use digest_sampling::SamplingOperator;
use digest_stats::repeated::{combined_estimate, optimal_partition, required_panel_size};
use digest_telemetry::{registry as telemetry, Field};
use rand::RngCore;

/// Tuning of the repeated-sampling estimator (`RPT`, paper §IV-B2).
#[derive(Debug, Clone, Copy)]
pub struct RptConfig {
    /// Pilot size for the first (independent) occasion.
    pub pilot_size: usize,
    /// Hard cap on samples per occasion.
    pub max_samples: usize,
    /// Messages to revisit one retained sample (direct request + reply —
    /// the node is already located, no walk needed).
    pub revisit_cost: u64,
    /// Messages wasted discovering that a retained sample's node is gone
    /// (timed-out probe).
    pub lost_probe_cost: u64,
    /// EMA weight given to the newest `ρ̂` observation (0 = frozen,
    /// 1 = no smoothing).
    pub rho_smoothing: f64,
    /// EMA weight given to the newest `σ̂²` observation. Smoothing matters:
    /// sizing is convex in σ̂², so raw per-occasion noise systematically
    /// inflates the average panel.
    pub sigma_smoothing: f64,
    /// Minimum retained pairs for the regression to be trusted; below
    /// this the occasion degrades to a plain fresh-mean estimate.
    pub min_retained_pairs: usize,
    /// Forward regression (paper §VIII future work): after each occasion,
    /// regress the retained samples' *previous* values on their current
    /// ones to retro-correct the previous occasion's reported result.
    /// The correction is exposed through
    /// [`RepeatedEstimator::last_forward_correction`]; it never rewrites
    /// the already-reported history on its own.
    pub forward_correction: bool,
}

impl Default for RptConfig {
    fn default() -> Self {
        Self {
            pilot_size: 30,
            max_samples: 20_000,
            revisit_cost: 2,
            lost_probe_cost: 1,
            rho_smoothing: 0.5,
            sigma_smoothing: 0.3,
            min_retained_pairs: 5,
            forward_correction: false,
        }
    }
}

/// A retro-correction of the previous occasion's estimate produced by
/// forward regression (the backward use of the §IV-B2 regression pair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForwardCorrection {
    /// The tick/occasion index the correction refers to (k−1, counted in
    /// evaluations of this estimator).
    pub occasion: u64,
    /// The estimate as originally reported.
    pub original: f64,
    /// The corrected estimate after folding in occasion k's information.
    pub corrected: f64,
}

/// The repeated-sampling estimator (`RPT`, paper §IV-B2), stateful across
/// occasions: sizes the panel with Eq. 10, splits it with Eq. 9.
#[derive(Debug, Clone)]
pub struct RepeatedEstimator {
    config: RptConfig,
    panel: SamplePanel,
    prev_estimate: Option<f64>,
    prev_variance: Option<f64>,
    rho_hat: Option<f64>,
    sigma_hat: Option<f64>,
    occasions_evaluated: u64,
    last_forward_correction: Option<ForwardCorrection>,
}

impl RepeatedEstimator {
    /// Creates an estimator.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for out-of-range settings.
    pub fn new(config: RptConfig) -> Result<Self> {
        if config.pilot_size < 2 {
            return Err(CoreError::InvalidConfig {
                reason: "pilot_size must be at least 2",
            });
        }
        if config.max_samples < config.pilot_size {
            return Err(CoreError::InvalidConfig {
                reason: "max_samples must cover the pilot",
            });
        }
        if !(0.0..=1.0).contains(&config.rho_smoothing) {
            return Err(CoreError::InvalidConfig {
                reason: "rho_smoothing must be in [0, 1]",
            });
        }
        if !(0.0..=1.0).contains(&config.sigma_smoothing) {
            return Err(CoreError::InvalidConfig {
                reason: "sigma_smoothing must be in [0, 1]",
            });
        }
        Ok(Self {
            config,
            panel: SamplePanel::new(),
            prev_estimate: None,
            prev_variance: None,
            rho_hat: None,
            sigma_hat: None,
            occasions_evaluated: 0,
            last_forward_correction: None,
        })
    }

    /// The retro-correction produced by the most recent occasion, when
    /// forward regression is enabled and enough retained pairs survived.
    #[must_use]
    pub fn last_forward_correction(&self) -> Option<ForwardCorrection> {
        self.last_forward_correction
    }

    /// The current correlation estimate `ρ̂` (None before the second
    /// occasion).
    #[must_use]
    pub fn rho_hat(&self) -> Option<f64> {
        self.rho_hat
    }

    /// Current panel size.
    #[must_use]
    pub fn panel_len(&self) -> usize {
        self.panel.len()
    }

    /// Forgets all cross-occasion state (used after a detected regime
    /// change).
    pub fn reset(&mut self) {
        self.panel.clear();
        self.prev_estimate = None;
        self.prev_variance = None;
        self.rho_hat = None;
        self.sigma_hat = None;
        self.last_forward_correction = None;
    }

    /// Evaluates one snapshot occasion.
    ///
    /// # Errors
    ///
    /// Sampling/database errors (e.g. an empty relation).
    pub fn evaluate(
        &mut self,
        ctx: &TickContext<'_>,
        expr: &Expr,
        predicate: &Predicate,
        precision: &Precision,
        operator: &mut SamplingOperator,
        rng: &mut dyn RngCore,
    ) -> Result<SnapshotEstimate> {
        if self.prev_estimate.is_none() || self.panel.is_empty() {
            return self.first_occasion(ctx, expr, predicate, precision, operator, rng);
        }
        self.kth_occasion(ctx, expr, predicate, precision, operator, rng)
    }

    /// Occasion 1 (and recovery after reset): independent sampling that
    /// builds the initial panel.
    fn first_occasion(
        &mut self,
        ctx: &TickContext<'_>,
        expr: &Expr,
        predicate: &Predicate,
        precision: &Precision,
        operator: &mut SamplingOperator,
        rng: &mut dyn RngCore,
    ) -> Result<SnapshotEstimate> {
        let indep = IndependentEstimator {
            pilot_size: self.config.pilot_size,
            max_samples: self.config.max_samples,
            build_panel: true,
        };
        let mut result = indep.evaluate(ctx, expr, predicate, precision, operator, rng)?;
        self.panel
            .replace(std::mem::take(&mut result.panel_for_next));
        self.prev_estimate = Some(result.estimate);
        self.prev_variance = Some(result.estimator_variance);
        self.sigma_hat = Some(result.sigma_hat);
        self.occasions_evaluated += 1;
        Ok(result)
    }

    /// Occasion `k ≥ 2`: the full repeated-sampling update.
    fn kth_occasion(
        &mut self,
        ctx: &TickContext<'_>,
        expr: &Expr,
        predicate: &Predicate,
        precision: &Precision,
        operator: &mut SamplingOperator,
        rng: &mut dyn RngCore,
    ) -> Result<SnapshotEstimate> {
        operator.begin_occasion();
        let trivial = predicate.is_trivial();
        let cfg = self.config;
        let Some(prev_estimate) = self.prev_estimate else {
            return Err(CoreError::InvalidConfig {
                reason: "repeated estimator reached occasion k >= 2 without a first occasion",
            });
        };
        let rho = self.rho_hat.unwrap_or(0.0);
        let sigma = self.sigma_hat.unwrap_or(0.0).max(1e-12);

        // 1. Size the panel from the RPT variance formula (Eq. 10).
        let target_var = precision.target_variance()?;
        let n = required_panel_size(sigma * sigma, rho, target_var)?
            .clamp(cfg.pilot_size, cfg.max_samples);

        // 2. Optimal partition (Eq. 9) and revisit of the retained part.
        let partition = optimal_partition(n, rho);
        let revisit = self
            .panel
            .revisit(ctx.db, expr, predicate, partition.retained);
        let g_live = revisit.cur_values.len();
        let mut messages =
            g_live as u64 * cfg.revisit_cost + revisit.lost as u64 * cfg.lost_probe_cost;

        // 3. Fresh draws: the replaced portion plus replacements for lost
        //    retained samples. With a nontrivial predicate, non-qualifying
        //    draws are rejected (they still cost their walk).
        let fresh_needed = n.saturating_sub(g_live).max(usize::from(g_live == 0));
        let mut fresh_values = Vec::with_capacity(fresh_needed);
        let mut fresh_entries = Vec::with_capacity(fresh_needed);
        let mut fresh_drawn = 0u64;
        let max_attempts = if trivial {
            fresh_needed
        } else {
            fresh_needed.saturating_mul(8).max(16)
        };
        // Rounds of batch draws through the deterministic parallel
        // executor: each round requests the remaining deficit (capped by
        // the attempt budget) in one `sample_tuples` batch.
        let mut attempts = 0usize;
        while fresh_values.len() < fresh_needed && attempts < max_attempts {
            let want = fresh_needed
                .saturating_sub(fresh_values.len())
                .min(max_attempts.saturating_sub(attempts))
                .max(1);
            attempts += want;
            let batch = operator.sample_tuples(ctx.graph, ctx.db, ctx.origin, want, rng)?;
            for (handle, tuple, cost) in batch {
                messages += cost.total();
                fresh_drawn += 1;
                if !trivial && !predicate.eval(&tuple).unwrap_or(false) {
                    continue;
                }
                let value = expr.eval(&tuple)?;
                if value.is_finite() {
                    fresh_values.push(value);
                    fresh_entries.push(PanelEntry {
                        handle,
                        prev_value: value,
                    });
                }
            }
        }

        // 4. Combined estimate (Eq. 7). With too few retained pairs the
        //    regression coefficient is noise — fall back to treating the
        //    retained current values as plain (fresh-like) observations.
        //    (No per-occasion variance top-up: the paper sizes once per
        //    occasion, and re-drawing on a noisy variance estimate would
        //    systematically inflate the panel.)
        let use_regression = g_live >= cfg.min_retained_pairs;
        let combined = if use_regression {
            combined_estimate(
                &fresh_values,
                &revisit.prev_values,
                &revisit.cur_values,
                prev_estimate,
            )?
        } else {
            let mut all = fresh_values.clone();
            all.extend_from_slice(&revisit.cur_values);
            combined_estimate(&all, &[], &[], prev_estimate)?
        };

        // 6. Refresh cross-occasion state (EMA on σ̂² — see RptConfig).
        let sigma_new = combined.sigma2_hat.sqrt();
        let old_s2 = self.sigma_hat.map_or(combined.sigma2_hat, |s| s * s);
        let smoothed_s2 = old_s2 + cfg.sigma_smoothing * (combined.sigma2_hat - old_s2);
        self.sigma_hat = Some(smoothed_s2.sqrt().max(1e-12));
        if use_regression {
            let observed = combined.rho_hat;
            let smoothed = match self.rho_hat {
                None => observed,
                Some(old) => old + cfg.rho_smoothing * (observed - old),
            };
            self.rho_hat = Some(smoothed.clamp(-0.999, 0.999));
        }
        // Forward regression (§VIII): retro-correct the *previous*
        // occasion's estimate using occasion k's information. Among the
        // retained pairs, regress previous values on current ones; the
        // corrected previous mean shifts the retained panel's old mean by
        // the amount occasion k's (better-informed) estimate implies.
        self.last_forward_correction = None;
        if cfg.forward_correction && use_regression {
            let pairs = digest_stats::PairedMoments::from_pairs(
                &revisit.cur_values,  // x: current values
                &revisit.prev_values, // y: previous values
            );
            let b_fwd = pairs.regression_slope();
            let retro = pairs.mean_y() + b_fwd * (combined.estimate - pairs.mean_x());
            // Inverse-variance combination with the original estimate.
            let rho2 = combined.rho_hat * combined.rho_hat;
            let var_retro = combined.sigma2_hat * (1.0 - rho2) / g_live.max(1) as f64
                + rho2 * combined.variance;
            let var_orig = self.prev_variance.unwrap_or(combined.variance).max(1e-12);
            let w_retro = 1.0 / var_retro.max(1e-12);
            let w_orig = 1.0 / var_orig;
            let corrected = (w_retro * retro + w_orig * prev_estimate) / (w_retro + w_orig);
            if corrected.is_finite() {
                self.last_forward_correction = Some(ForwardCorrection {
                    occasion: self.occasions_evaluated.saturating_sub(1),
                    original: prev_estimate,
                    corrected,
                });
            }
        }

        self.prev_estimate = Some(combined.estimate);
        self.prev_variance = Some(combined.variance);
        self.occasions_evaluated += 1;

        let mut next_panel = revisit.survivors;
        next_panel.extend(fresh_entries);
        self.panel.replace(next_panel);

        let retained_fraction = if n == 0 {
            0.0
        } else {
            partition.retained as f64 / n as f64
        };
        telemetry::CORE_RPT_RETAINED.add(g_live as u64);
        telemetry::CORE_RPT_FRESH.add(fresh_drawn);
        telemetry::CORE_RPT_RETAINED_FRACTION.set(retained_fraction);
        if digest_telemetry::events_enabled() {
            let mut fields = vec![
                ("estimator", Field::Str("RPT")),
                ("estimate", Field::F64(combined.estimate)),
                ("fresh", Field::U64(fresh_drawn)),
                ("retained", Field::U64(g_live as u64)),
                ("retained_fraction", Field::F64(retained_fraction)),
            ];
            if use_regression {
                fields.push(("rho", Field::F64(combined.rho_hat)));
            }
            digest_telemetry::emit("estimator.snapshot", &fields);
        }

        let qualifying = fresh_values.len() as u64 + g_live as u64;
        Ok(SnapshotEstimate {
            estimate: combined.estimate,
            fresh_samples: fresh_drawn,
            revisited_samples: g_live as u64,
            messages,
            sigma_hat: sigma_new,
            rho_hat: if use_regression {
                Some(combined.rho_hat)
            } else {
                None
            },
            estimator_variance: combined.variance,
            qualifying_samples: qualifying,
            selectivity: if fresh_drawn == 0 {
                1.0
            } else {
                fresh_values.len() as f64 / fresh_drawn as f64
            },
            panel_for_next: Vec::new(),
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
    use digest_db::{P2PDatabase, Schema, Tuple, TupleHandle};
    use digest_net::{topology, Graph, NodeId};
    use digest_sampling::SamplingConfig;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    struct World {
        graph: Graph,
        db: P2PDatabase,
        handles: Vec<TupleHandle>,
        expr: Expr,
    }

    /// `nodes` complete-graph nodes, `per_node` tuples each, values
    /// N(mean, spread²)-ish via a deterministic RNG.
    fn world(nodes: u32, per_node: u32, mean: f64, spread: f64, seed: u64) -> World {
        let graph = topology::complete(nodes as usize).unwrap();
        let mut db = P2PDatabase::new(Schema::single("a"));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut handles = Vec::new();
        for v in 0..nodes {
            db.register_node(NodeId(v));
            for _ in 0..per_node {
                let noise: f64 = rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0);
                let h = db
                    .insert(NodeId(v), Tuple::single(mean + spread * noise))
                    .unwrap();
                handles.push(h);
            }
        }
        let expr = Expr::first_attr(db.schema());
        World {
            graph,
            db,
            handles,
            expr,
        }
    }

    /// AR(1)-style drift of all tuples: x ← mean + rho (x − mean) + noise.
    fn drift(world: &mut World, rho: f64, noise: f64, rng: &mut ChaCha8Rng) {
        for &h in &world.handles {
            let x = world.db.read(h).unwrap().value(0).unwrap();
            let nv = rho * x + (1.0 - rho) * 50.0 + noise * (rng.gen_range(-1.0..1.0f64));
            world.db.update(h, &[nv]).unwrap();
        }
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

    fn ctx<'a>(w: &'a World) -> TickContext<'a> {
        TickContext {
            tick: 0,
            graph: &w.graph,
            db: &w.db,
            origin: NodeId(0),
        }
    }

    #[test]
    fn config_validation() {
        assert!(RepeatedEstimator::new(RptConfig {
            pilot_size: 1,
            ..Default::default()
        })
        .is_err());
        assert!(RepeatedEstimator::new(RptConfig {
            max_samples: 5,
            ..Default::default()
        })
        .is_err());
        assert!(RepeatedEstimator::new(RptConfig {
            rho_smoothing: 1.5,
            ..Default::default()
        })
        .is_err());
        assert!(RepeatedEstimator::new(RptConfig::default()).is_ok());
    }

    #[test]
    fn first_occasion_builds_panel() {
        let w = world(6, 20, 50.0, 8.0, 1);
        let mut est = RepeatedEstimator::new(RptConfig::default()).unwrap();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let precision = Precision::new(2.0, 2.0, 0.95).unwrap();
        let r = est
            .evaluate(
                &ctx(&w),
                &w.expr,
                &Predicate::True,
                &precision,
                &mut op,
                &mut rng,
            )
            .unwrap();
        assert!(r.fresh_samples > 0);
        assert_eq!(r.revisited_samples, 0);
        assert_eq!(est.panel_len() as u64, r.fresh_samples);
        assert!(est.rho_hat().is_none());
    }

    #[test]
    fn later_occasions_revisit_and_learn_rho() {
        let mut w = world(6, 30, 50.0, 8.0, 3);
        let mut est = RepeatedEstimator::new(RptConfig::default()).unwrap();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let precision = Precision::new(2.0, 1.5, 0.95).unwrap();

        est.evaluate(
            &ctx(&w),
            &w.expr,
            &Predicate::True,
            &precision,
            &mut op,
            &mut rng,
        )
        .unwrap();
        // Highly autocorrelated drift.
        drift(&mut w, 0.95, 0.5, &mut rng);
        let r2 = est
            .evaluate(
                &ctx(&w),
                &w.expr,
                &Predicate::True,
                &precision,
                &mut op,
                &mut rng,
            )
            .unwrap();
        assert!(
            r2.revisited_samples > 0,
            "second occasion must retain samples"
        );
        assert!(r2.rho_hat.is_some());
        drift(&mut w, 0.95, 0.5, &mut rng);
        let r3 = est
            .evaluate(
                &ctx(&w),
                &w.expr,
                &Predicate::True,
                &precision,
                &mut op,
                &mut rng,
            )
            .unwrap();
        // With high correlation the learned rho should be high.
        assert!(
            est.rho_hat().unwrap() > 0.6,
            "learned ρ̂ = {:?} too low",
            est.rho_hat()
        );
        // And the retained portion should dominate (g_opt > n/2).
        assert!(
            r3.revisited_samples >= r3.fresh_samples,
            "retained {} < fresh {}",
            r3.revisited_samples,
            r3.fresh_samples
        );
    }

    #[test]
    fn rpt_uses_fewer_total_samples_than_indep_under_high_correlation() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let precision = Precision::new(2.0, 1.0, 0.95).unwrap();
        let occasions = 8;

        // RPT run.
        let mut w = world(6, 60, 50.0, 8.0, 6);
        let mut rpt = RepeatedEstimator::new(RptConfig::default()).unwrap();
        let mut op_rpt = operator();
        let mut rpt_total = 0u64;
        let mut rpt_first = 0u64;
        for k in 0..occasions {
            let r = rpt
                .evaluate(
                    &ctx(&w),
                    &w.expr,
                    &Predicate::True,
                    &precision,
                    &mut op_rpt,
                    &mut rng,
                )
                .unwrap();
            if k == 0 {
                rpt_first = r.total_samples();
            } else {
                rpt_total += r.total_samples();
            }
            drift(&mut w, 0.97, 0.4, &mut rng);
        }

        // INDEP run on an identically re-seeded world.
        let mut w2 = world(6, 60, 50.0, 8.0, 6);
        let indep = IndependentEstimator::default();
        let mut op_ind = operator();
        let mut ind_total = 0u64;
        let mut ind_first = 0u64;
        for k in 0..occasions {
            let r = indep
                .evaluate(
                    &ctx(&w2),
                    &w2.expr,
                    &Predicate::True,
                    &precision,
                    &mut op_ind,
                    &mut rng,
                )
                .unwrap();
            if k == 0 {
                ind_first = r.fresh_samples;
            } else {
                ind_total += r.fresh_samples;
            }
            drift(&mut w2, 0.97, 0.4, &mut rng);
        }

        // First occasions are equivalent by construction.
        let _ = (rpt_first, ind_first);
        assert!(
            (rpt_total as f64) < 0.9 * ind_total as f64,
            "RPT {rpt_total} should use notably fewer samples than INDEP {ind_total}"
        );
    }

    #[test]
    fn deleted_panel_tuples_are_replaced() {
        let mut w = world(6, 10, 50.0, 4.0, 7);
        let mut est = RepeatedEstimator::new(RptConfig::default()).unwrap();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let precision = Precision::new(2.0, 2.0, 0.95).unwrap();

        est.evaluate(
            &ctx(&w),
            &w.expr,
            &Predicate::True,
            &precision,
            &mut op,
            &mut rng,
        )
        .unwrap();
        // Nuke one node's fragment entirely (node leaves).
        w.db.remove_node(NodeId(3)).unwrap();
        let r2 = est
            .evaluate(
                &ctx(&w),
                &w.expr,
                &Predicate::True,
                &precision,
                &mut op,
                &mut rng,
            )
            .unwrap();
        // No stale handle may survive into the new panel.
        assert!(r2.estimate.is_finite());
        for e in est.panel.entries() {
            assert!(w.db.read(e.handle).is_ok(), "stale handle in panel");
        }
    }

    #[test]
    fn estimates_track_the_truth() {
        let mut w = world(8, 40, 50.0, 6.0, 9);
        let mut est = RepeatedEstimator::new(RptConfig::default()).unwrap();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let precision = Precision::new(2.0, 1.0, 0.95).unwrap();

        let mut hits = 0;
        let occasions = 12;
        for _ in 0..occasions {
            let r = est
                .evaluate(
                    &ctx(&w),
                    &w.expr,
                    &Predicate::True,
                    &precision,
                    &mut op,
                    &mut rng,
                )
                .unwrap();
            let truth = w.db.exact_avg(&w.expr).unwrap();
            if (r.estimate - truth).abs() <= precision.epsilon {
                hits += 1;
            }
            drift(&mut w, 0.9, 1.0, &mut rng);
        }
        assert!(hits >= occasions - 2, "only {hits}/{occasions} within ±ε");
    }

    #[test]
    fn reset_recovers_first_occasion_behaviour() {
        let w = world(5, 10, 20.0, 2.0, 11);
        let mut est = RepeatedEstimator::new(RptConfig::default()).unwrap();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let precision = Precision::new(1.0, 1.0, 0.95).unwrap();
        est.evaluate(
            &ctx(&w),
            &w.expr,
            &Predicate::True,
            &precision,
            &mut op,
            &mut rng,
        )
        .unwrap();
        est.reset();
        assert_eq!(est.panel_len(), 0);
        let r = est
            .evaluate(
                &ctx(&w),
                &w.expr,
                &Predicate::True,
                &precision,
                &mut op,
                &mut rng,
            )
            .unwrap();
        assert_eq!(r.revisited_samples, 0, "post-reset occasion is independent");
    }

    #[test]
    fn forward_correction_improves_previous_estimates() {
        // Run many occasions with forward correction on; the corrected
        // retro-estimates must, on average, be at least as close to the
        // oracle truth as the originally reported ones.
        let mut w = world(6, 40, 50.0, 8.0, 21);
        let mut est = RepeatedEstimator::new(RptConfig {
            forward_correction: true,
            ..RptConfig::default()
        })
        .unwrap();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let precision = Precision::new(2.0, 1.5, 0.95).unwrap();

        let mut prev_truth = 0.0;
        let mut err_original = 0.0;
        let mut err_corrected = 0.0;
        let mut corrections = 0u32;
        for k in 0..25 {
            let truth = w.db.exact_avg(&w.expr).unwrap();
            est.evaluate(
                &ctx(&w),
                &w.expr,
                &Predicate::True,
                &precision,
                &mut op,
                &mut rng,
            )
            .unwrap();
            if k > 0 {
                if let Some(c) = est.last_forward_correction() {
                    err_original += (c.original - prev_truth).abs();
                    err_corrected += (c.corrected - prev_truth).abs();
                    corrections += 1;
                }
            }
            prev_truth = truth;
            drift(&mut w, 0.95, 0.5, &mut rng);
        }
        assert!(corrections >= 20, "corrections produced: {corrections}");
        assert!(
            err_corrected <= err_original * 1.05,
            "forward correction should not hurt: corrected {err_corrected} vs original {err_original}"
        );
    }

    #[test]
    fn forward_correction_is_off_by_default() {
        let w = world(5, 10, 20.0, 2.0, 23);
        let mut est = RepeatedEstimator::new(RptConfig::default()).unwrap();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let precision = Precision::new(1.0, 1.0, 0.95).unwrap();
        for _ in 0..3 {
            est.evaluate(
                &ctx(&w),
                &w.expr,
                &Predicate::True,
                &precision,
                &mut op,
                &mut rng,
            )
            .unwrap();
        }
        assert!(est.last_forward_correction().is_none());
    }

    #[test]
    fn revisit_messages_are_cheap() {
        let mut w = world(6, 40, 50.0, 8.0, 13);
        let mut est = RepeatedEstimator::new(RptConfig::default()).unwrap();
        let mut op = operator();
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let precision = Precision::new(2.0, 1.5, 0.95).unwrap();
        est.evaluate(
            &ctx(&w),
            &w.expr,
            &Predicate::True,
            &precision,
            &mut op,
            &mut rng,
        )
        .unwrap();
        drift(&mut w, 0.95, 0.5, &mut rng);
        drift(&mut w, 0.95, 0.5, &mut rng);
        let r = est
            .evaluate(
                &ctx(&w),
                &w.expr,
                &Predicate::True,
                &precision,
                &mut op,
                &mut rng,
            )
            .unwrap();
        // Messages must be far below what fresh-walking every sample costs
        // (walk_length = 40 ⇒ ≈ 20+ messages per fresh sample).
        let all_fresh_cost = r.total_samples() * 21;
        assert!(
            r.messages < all_fresh_cost,
            "messages {} not cheaper than all-fresh {}",
            r.messages,
            all_fresh_cost
        );
    }
}
