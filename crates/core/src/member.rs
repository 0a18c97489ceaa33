//! The serving lifecycle every continuous query shares.
//!
//! Paper §III, Figure 2: one engine per query holds its result until the
//! scheduler fires, runs a snapshot, reports under δ-semantics and asks
//! the scheduler for the next occasion. [`Member`] is that lifecycle —
//! the contract state and the report / hold / reschedule /
//! `engine.snapshot` steps — and both [`crate::DigestEngine`] and the
//! shared [`crate::QueryMux`] members run on it, so the two serving paths
//! cannot drift apart.
//!
//! [`SizeTracker`] is the relation-size half (§V-B): a uniform-weight
//! sampling operator with a 4× walk budget and the periodic
//! capture–recapture refresh of `N̂` that `SUM`/`COUNT` scale by.

use crate::engine::SchedulerKind;
use crate::mux::MuxQueryTotals;
use crate::query::{AggregateOp, ContinuousQuery};
use crate::scheduler::{AllScheduler, PredScheduler, SnapshotScheduler};
use crate::sketch_est::{SketchSweepEstimator, SweepSnapshot};
use crate::system::{TickContext, TickOutcome};
use crate::Result;
use digest_sampling::{uniform_weight, SamplingConfig, SamplingOperator, SizeEstimator};
use digest_telemetry::{registry as telemetry, Field, Stage};
use rand::RngCore;

/// Smoothing factor of the decayed selectivity tally: one occasion's few
/// fresh draws are far too noisy to scale `COUNT`/`SUM` by (§IV-B).
const SELECTIVITY_DECAY: f64 = 0.75;

/// One served query's contract state (§II): its scheduler, δ-semantics
/// bookkeeping, decayed selectivity and lifetime totals.
pub(crate) struct Member {
    query: ContinuousQuery,
    scheduler: Box<dyn SnapshotScheduler + Send>,
    /// Whether the first report has been made; before it every tick is
    /// due.
    started: bool,
    /// The next occasion's tick.
    due: u64,
    /// Causal trace id of the current reporting occasion (0 before the
    /// first). Allocated from the deterministic global counter at each
    /// occasion start, so every event downstream of the scheduler
    /// decision carries the same id whatever the telemetry settings.
    trace: u64,
    current_estimate: f64,
    last_reported: f64,
    /// Exponentially decayed (qualifying, drawn) fresh-sample counts.
    selectivity_counts: (f64, f64),
    totals: MuxQueryTotals,
}

impl Member {
    /// A member for `query` under the given continual-querying policy.
    pub(crate) fn new(query: ContinuousQuery, scheduler: SchedulerKind) -> Result<Self> {
        let scheduler: Box<dyn SnapshotScheduler + Send> = match scheduler {
            SchedulerKind::All => Box::new(AllScheduler::new()),
            SchedulerKind::Pred(k) => Box::new(PredScheduler::new(k)?),
        };
        Ok(Self {
            query,
            scheduler,
            started: false,
            due: 0,
            trace: 0,
            current_estimate: 0.0,
            last_reported: f64::NAN,
            selectivity_counts: (0.0, 0.0),
            totals: MuxQueryTotals::default(),
        })
    }

    pub(crate) fn query(&self) -> &ContinuousQuery {
        &self.query
    }

    pub(crate) fn scheduler_name(&self) -> &str {
        self.scheduler.name()
    }

    pub(crate) fn trace(&self) -> u64 {
        self.trace
    }

    pub(crate) fn due(&self) -> u64 {
        self.due
    }

    pub(crate) fn totals(&self) -> MuxQueryTotals {
        self.totals
    }

    /// Whether `tick` falls before the next occasion: a pure hold.
    pub(crate) fn is_idle_at(&self, tick: u64) -> bool {
        self.started && tick < self.due
    }

    /// The next occasion after `now`, once one is scheduled.
    pub(crate) fn next_due(&self, now: u64) -> Option<u64> {
        (self.started && self.due > now).then_some(self.due)
    }

    /// An idle tick: hold the estimate, spend nothing.
    pub(crate) fn idle(&self) -> TickOutcome {
        TickOutcome::idle(self.current_estimate)
    }

    /// Starts a reporting occasion: allocates its causal trace id.
    pub(crate) fn begin_occasion(&mut self) {
        self.trace = digest_telemetry::begin_trace();
    }

    /// Reports `value` at `tick` under δ-semantics — the visible result
    /// updates only when it moved at least δ since the last update — and
    /// schedules the next occasion. Returns whether the result updated.
    pub(crate) fn report(&mut self, tick: u64, value: f64) -> Result<bool> {
        self.current_estimate = value;
        self.started = true;
        let updated = self.last_reported.is_nan()
            || (value - self.last_reported).abs() >= self.query.precision.delta;
        if updated {
            self.last_reported = value;
        }
        self.scheduler.observe(tick as f64, value);
        let delay = {
            let _span = digest_telemetry::span(Stage::SchedulerDecide);
            self.scheduler.next_delay(self.query.precision.delta)?
        };
        self.due = tick + delay;
        Ok(updated)
    }

    /// Reports a sampled qualifying mean: folds the occasion's fresh
    /// draws into the selectivity tally and scales the mean into the
    /// query's aggregate by selectivity and `size` (`N̂`).
    pub(crate) fn report_mean(
        &mut self,
        tick: u64,
        mean: f64,
        (qualifying, drawn): (f64, f64),
        size: Option<f64>,
    ) -> Result<bool> {
        let selectivity = if self.query.predicate.is_trivial() {
            1.0
        } else {
            let (q, d) = self.selectivity_counts;
            self.selectivity_counts = (
                q * SELECTIVITY_DECAY + qualifying,
                d * SELECTIVITY_DECAY + drawn,
            );
            self.selectivity()
        };
        self.report(tick, self.scale(mean, selectivity, size))
    }

    /// The smoothed selectivity (1 for the trivial predicate or before
    /// any draw).
    pub(crate) fn selectivity(&self) -> f64 {
        let (q, d) = self.selectivity_counts;
        if self.query.predicate.is_trivial() || d <= 0.0 {
            1.0
        } else {
            q / d
        }
    }

    /// Scales a qualifying AVG into the query's aggregate: with a `WHERE`
    /// predicate the qualifying population is `N̂ · selectivity`.
    fn scale(&self, avg: f64, selectivity: f64, size: Option<f64>) -> f64 {
        match self.query.op {
            // Sketch kinds finalize to their scalar directly — no scaling
            // by N̂ (DESIGN.md §17).
            AggregateOp::Avg
            | AggregateOp::Median
            | AggregateOp::Percentile { .. }
            | AggregateOp::Distinct
            | AggregateOp::TopK { .. } => avg,
            AggregateOp::Sum => avg * selectivity * size.unwrap_or(0.0),
            AggregateOp::Count => selectivity * size.unwrap_or(0.0),
        }
    }

    /// Whether a started `AVG` whose predicate matched no sample this
    /// occasion must hold its previous result rather than report a
    /// meaningless mean (`COUNT`/`SUM` legitimately report 0).
    pub(crate) fn holds_empty(&self, qualifying: u64) -> bool {
        qualifying == 0
            && !self.query.predicate.is_trivial()
            && matches!(self.query.op, AggregateOp::Avg)
            && self.started
    }

    /// Holds the current result through an occasion and reschedules from
    /// it, as if the aggregate had not moved.
    pub(crate) fn hold(&mut self, tick: u64) -> Result<()> {
        self.scheduler.observe(tick as f64, self.current_estimate);
        self.due = tick + self.scheduler.next_delay(self.query.precision.delta)?;
        Ok(())
    }

    /// Holds the current result and retries on the next tick (nothing to
    /// report: an empty relation or an empty order statistic).
    pub(crate) fn retry(&mut self, tick: u64) {
        self.due = tick + 1;
    }

    /// Books one occasion's cost into the lifetime totals.
    pub(crate) fn account(&mut self, messages: u64, samples: u64) {
        self.totals.messages += messages;
        self.totals.samples += samples;
        self.totals.snapshots += 1;
    }

    /// Books one occasion and returns its outcome at the current
    /// estimate.
    pub(crate) fn close(
        &mut self,
        updated: bool,
        samples: u64,
        fresh: u64,
        messages: u64,
    ) -> TickOutcome {
        self.account(messages, samples);
        self.occasion(updated, samples, fresh, messages)
    }

    /// An executed occasion's outcome at the current estimate.
    pub(crate) fn occasion(
        &self,
        updated: bool,
        samples: u64,
        fresh: u64,
        messages: u64,
    ) -> TickOutcome {
        TickOutcome {
            estimate: self.current_estimate,
            updated,
            snapshot_executed: true,
            samples_this_tick: samples,
            fresh_samples_this_tick: fresh,
            messages_this_tick: messages,
        }
    }

    /// Emits the `engine.snapshot` event for an occasion's outcome.
    pub(crate) fn emit(system: &str, outcome: &TickOutcome) {
        if digest_telemetry::events_enabled() {
            digest_telemetry::emit(
                "engine.snapshot",
                &[
                    ("system", Field::Str(system)),
                    ("estimate", Field::F64(outcome.estimate)),
                    ("messages", Field::U64(outcome.messages_this_tick)),
                    ("samples", Field::U64(outcome.samples_this_tick)),
                ],
            );
        }
    }

    /// Runs one node sweep for this member's query (DESIGN.md §17) under
    /// the estimator span.
    pub(crate) fn sweep(
        &self,
        sketch: &mut SketchSweepEstimator,
        ctx: &TickContext<'_>,
    ) -> Result<SweepSnapshot> {
        let _span = digest_telemetry::span(Stage::EstimatorEval);
        sketch.sweep(ctx.db, &self.query.expr, &self.query.predicate)
    }
}

/// The relation-size estimate `N̂` behind `SUM`/`COUNT` (§V-B): uniform
/// node samples through a dedicated operator, so the content-weighted
/// operator's persistent walks are not disturbed, folded by
/// capture–recapture and refreshed every `refresh_interval` uses.
pub(crate) struct SizeTracker {
    operator: SamplingOperator,
    estimate: Option<f64>,
    since_refresh: u64,
    refresh_interval: u64,
    sample_target: usize,
}

impl SizeTracker {
    /// A tracker whose walks get 4× the content walks' budget: size
    /// estimation targets the *uniform* node distribution, which the
    /// Metropolis walk reaches more slowly than the content-biased one on
    /// skewed topologies, and capture–recapture under-estimates `N̂`
    /// (it over-counts collisions) when the walks are under-mixed.
    pub(crate) fn new(
        sampling: SamplingConfig,
        refresh_interval: u64,
        sample_target: usize,
    ) -> Result<Self> {
        let operator = SamplingOperator::new(SamplingConfig {
            walk_length: sampling.walk_length.saturating_mul(4),
            reset_length: sampling.reset_length.saturating_mul(2),
            ..sampling
        })?;
        Ok(Self {
            operator,
            estimate: None,
            since_refresh: 0,
            refresh_interval,
            sample_target,
        })
    }

    /// The latest `N̂`, once one was measured.
    pub(crate) fn estimate(&self) -> Option<f64> {
        self.estimate
    }

    /// Counts one use of the current estimate towards the refresh
    /// cadence.
    pub(crate) fn note_use(&mut self) {
        self.since_refresh += 1;
    }

    pub(crate) fn set_workers(&mut self, workers: usize) {
        self.operator.set_workers(workers);
    }

    /// Refreshes `N̂` when none exists yet or the cadence is due; returns
    /// the messages spent (0 when no refresh ran).
    pub(crate) fn refresh_if_due(
        &mut self,
        ctx: &TickContext<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<u64> {
        if self.estimate.is_some() && self.since_refresh < self.refresh_interval {
            return Ok(0);
        }
        self.refresh_size_estimate(ctx, rng)
    }

    /// Runs one size-estimation round: uniform node samples until the
    /// capture–recapture estimator stabilises or the sample budget is
    /// spent. Returns messages used.
    fn refresh_size_estimate(
        &mut self,
        ctx: &TickContext<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<u64> {
        let _span = digest_telemetry::span(Stage::SizeEstimate);
        telemetry::CORE_SIZE_REFRESHES.inc();
        let mut est = SizeEstimator::new();
        let mut messages = 0u64;
        let w = uniform_weight();
        self.operator.begin_occasion();
        for _ in 0..self.sample_target {
            let (node, cost) = self.operator.sample_node(ctx.graph, &w, ctx.origin, rng)?;
            messages += cost.total();
            est.add_sample(node, ctx.db.content_size(node));
            // Enough collisions for a stable estimate → stop early.
            // (var(r̂)/r̂² ≈ 1/C, so C = 32 gives ~18 % relative error.)
            if est.collisions() >= 32 {
                break;
            }
        }
        if let Ok(n_hat) = est.estimate_tuple_count() {
            // Blend with the previous estimate: capture–recapture rounds
            // are noisy (relative error ~1/√C) but the relation size moves
            // slowly, so averaging across refreshes pays off.
            self.estimate = Some(match self.estimate {
                Some(old) => old + 0.5 * (n_hat - old),
                None => n_hat,
            });
        } else if self.estimate.is_none() {
            // Too few collisions (network larger than the budget can
            // resolve): fall back to the distinct count as a floor.
            let floor = if est.samples() > 0 {
                est.distinct() as f64
            } else {
                0.0
            };
            self.estimate = Some(floor.max(1.0));
        }
        self.since_refresh = 0;
        Ok(messages)
    }
}
