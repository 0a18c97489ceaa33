//! Driving query systems over one workload.
//!
//! Every run goes through one loop (the private `drive`): a calendar
//! [`EventQueue`] pops due ticks, and after each executed tick the
//! workload's [`Workload::next_activity`] and the system's
//! `QuerySystem::next_due` hints pick the next one. Either side saying
//! "no schedule" (`None`) keeps the run dense from there, so the paper's
//! worlds, whose workloads change every tick, execute every tick. Spans
//! both sides promised are pure idle holds are skipped outright and leave
//! no [`TraceRecord`]; every executed tick records exactly what a dense
//! run records for it.
//!
//! [`run`] / [`run_observed`] serve one [`QuerySystem`]; [`run_mux`] serves
//! every member of a [`QueryMux`] with its own oracle, observer callback
//! and trace.

use crate::events::EventQueue;
use crate::trace::{RunReport, TraceRecord};
use digest_core::{
    CoreError, MuxObserver, NoopObserver, QueryMux, QuerySystem, Result, TickContext, TickObserver,
    TickOutcome, TruthTable,
};
use digest_net::NodeId;
use digest_telemetry::{registry as telemetry, Field, Stage};
use digest_workload::Workload;
use rand::RngCore;
use std::collections::BTreeMap;

/// Run parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Ticks to simulate (capped by the workload's duration when
    /// `respect_duration` is set).
    pub ticks: u64,
    /// Stop at the workload's own duration even if `ticks` is larger.
    pub respect_duration: bool,
    /// Worker threads for sampling-walk batches (`None` keeps the
    /// system's own setting). Results are byte-identical for every
    /// value; only wall-clock time changes.
    pub sampling_workers: Option<usize>,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            ticks: u64::MAX,
            respect_duration: true,
            sampling_workers: None,
        }
    }
}

impl RunConfig {
    /// Run for exactly `ticks` ticks (still capped by workload duration).
    #[must_use]
    pub fn for_ticks(ticks: u64) -> Self {
        Self {
            ticks,
            respect_duration: true,
            sampling_workers: None,
        }
    }

    /// The last tick (exclusive) this run may execute on `workload`.
    fn horizon(&self, workload: &impl Workload) -> u64 {
        if self.respect_duration {
            self.ticks.min(workload.duration())
        } else {
            self.ticks
        }
    }
}

/// Runs `system` against `workload`, recording a per-tick trace.
///
/// The querying node is picked as the workload's first live node and
/// re-elected if churn removes it (the paper issues queries from random
/// nodes; any live node is equivalent for counting purposes).
///
/// Per executed tick, the order is: advance the workload (apply this
/// tick's updates/churn), let the system react, then record the oracle
/// truth next to the system's estimate.
///
/// # Errors
///
/// * [`CoreError::EmptyWorkload`] if the workload's graph has no live
///   nodes (at start, or after churn drained it mid-run).
/// * Propagates any engine error.
pub fn run<W: Workload, S: QuerySystem + ?Sized>(
    workload: &mut W,
    system: &mut S,
    config: RunConfig,
    delta: f64,
    epsilon: f64,
    rng: &mut dyn RngCore,
) -> Result<RunReport> {
    run_observed(
        workload,
        system,
        config,
        delta,
        epsilon,
        rng,
        &mut NoopObserver,
    )
}

/// [`run`] with a [`TickObserver`] attached: the observer sees every
/// executed tick (after the system reacted, with the oracle truth)
/// without perturbing the run — it consumes no randomness and the
/// trace/report are byte-identical to an unobserved run.
///
/// # Errors
///
/// As for [`run`].
#[allow(clippy::too_many_arguments)]
pub fn run_observed<W: Workload, S: QuerySystem + ?Sized>(
    workload: &mut W,
    system: &mut S,
    config: RunConfig,
    delta: f64,
    epsilon: f64,
    rng: &mut dyn RngCore,
    observer: &mut dyn TickObserver,
) -> Result<RunReport> {
    if let Some(workers) = config.sampling_workers {
        system.set_sampling_workers(workers);
    }
    let mut solo = Solo {
        system,
        observer,
        // Capacity is only a hint; a clamped value is fine on 32-bit
        // targets.
        records: Vec::with_capacity(usize::try_from(config.horizon(workload)).unwrap_or(0)),
    };
    drive(workload, &mut solo, config, rng)?;
    Ok(RunReport {
        system: solo.system.name().to_owned(),
        workload: workload.name().to_owned(),
        records: solo.records,
        delta,
        epsilon,
    })
}

/// Runs a [`QueryMux`] against `workload`, recording one per-tick trace
/// *per member query* (ascending query id). Mirrors [`run_observed`], but
/// each member gets its own oracle truth (its query's exact aggregate),
/// its own `tick` event (disambiguated by a `query` field), and its own
/// observer callback — with the coalesced round's trace id attached when
/// the member's occasion was served from a shared sampling round.
///
/// The truths come from one [`TruthTable`] built before the first tick:
/// each executed tick, after the mux has served the members, it makes one
/// oracle pass per distinct `(family, expr, predicate)` key, so members
/// reading the same scan share it. Every member's truth is bit-identical
/// to its query's
/// [`ContinuousQuery::oracle`](digest_core::ContinuousQuery::oracle).
///
/// The member set must stay fixed for the duration of the run (register
/// before calling; dynamic arrival/departure workloads drive the mux
/// directly).
///
/// # Errors
///
/// As for [`run`]; additionally [`CoreError::EmptyWorkload`] if the mux
/// has no registered queries.
pub fn run_mux<W: Workload>(
    workload: &mut W,
    mux: &mut QueryMux,
    config: RunConfig,
    rng: &mut dyn RngCore,
    observer: &mut dyn MuxObserver,
) -> Result<Vec<RunReport>> {
    if mux.is_empty() {
        return Err(CoreError::EmptyWorkload);
    }
    if let Some(workers) = config.sampling_workers {
        mux.set_sampling_workers(workers);
    }
    let ids = mux.query_ids();
    let horizon = config.horizon(workload);
    let mut muxed = Muxed {
        truths: TruthTable::new(ids.iter().filter_map(|&id| mux.query(id))),
        records: ids
            .iter()
            .map(|&id| {
                (
                    id,
                    Vec::with_capacity(usize::try_from(horizon).unwrap_or(0)),
                )
            })
            .collect(),
        ids,
        mux,
        observer,
    };
    drive(workload, &mut muxed, config, rng)?;

    let Muxed {
        mux,
        ids,
        mut records,
        ..
    } = muxed;
    let workload_name = workload.name().to_owned();
    Ok(ids
        .iter()
        .filter_map(|&id| {
            let query = mux.query(id)?;
            Some(RunReport {
                system: format!("{}[q{id}]", mux.name()),
                workload: workload_name.clone(),
                records: records.remove(&id).unwrap_or_default(),
                delta: query.precision.delta,
                epsilon: query.precision.epsilon,
            })
        })
        .collect())
}

/// What the loop serves on each executed tick.
trait Served<W> {
    /// The system's own next due tick (`QuerySystem::next_due`).
    fn next_due(&mut self, now: u64) -> Option<u64>;

    /// Lets the system react to the advanced world, then scores, observes
    /// and records its outcome(s).
    fn serve(&mut self, workload: &W, ctx: &TickContext<'_>, rng: &mut dyn RngCore) -> Result<()>;
}

/// The one tick loop: pop the next due tick, advance the workload
/// through it, re-elect the origin if churn took it, serve, then
/// subscribe the next due tick — the earliest of the workload's and the
/// system's own schedules, or the next tick when either has none.
fn drive<W: Workload, S: Served<W>>(
    workload: &mut W,
    served: &mut S,
    config: RunConfig,
    rng: &mut dyn RngCore,
) -> Result<()> {
    let mut origin = workload
        .graph()
        .nodes()
        .next()
        .ok_or(CoreError::EmptyWorkload)?;
    let horizon = config.horizon(workload);
    let mut queue = EventQueue::new();
    if horizon > 0 {
        queue.schedule(0);
    }
    while let Some(tick) = queue.pop_next() {
        if tick >= horizon {
            break;
        }
        digest_telemetry::set_tick(tick);
        telemetry::SIM_TICKS.inc();
        {
            let _span = digest_telemetry::span(Stage::WorkloadAdvance);
            // On consecutive ticks this is exactly one `advance` call (the
            // workload sits at `current_tick == tick` here); after a
            // skipped span it catches the workload up per its
            // `next_activity` contract.
            workload.advance_to(tick, rng);
        }
        if !workload.graph().contains(origin) {
            origin = elect_origin(workload, rng)?;
        }
        let ctx = TickContext {
            tick,
            graph: workload.graph(),
            db: workload.db(),
            origin,
        };
        served.serve(workload, &ctx, rng)?;
        let next = match (workload.next_activity(), served.next_due(tick)) {
            (None, _) | (_, None) => tick + 1,
            (Some(w), Some(s)) => w.min(s).max(tick + 1),
        };
        if next < horizon {
            queue.schedule(next);
        }
    }
    Ok(())
}

/// One [`QuerySystem`], scored by its own oracle (or the workload's
/// plain-AVG one) and watched by one [`TickObserver`].
struct Solo<'a, S: ?Sized> {
    system: &'a mut S,
    observer: &'a mut dyn TickObserver,
    records: Vec<TraceRecord>,
}

impl<W: Workload, S: QuerySystem + ?Sized> Served<W> for Solo<'_, S> {
    fn next_due(&mut self, now: u64) -> Option<u64> {
        self.system.next_due(now)
    }

    fn serve(&mut self, workload: &W, ctx: &TickContext<'_>, rng: &mut dyn RngCore) -> Result<()> {
        let outcome = self.system.on_tick(ctx, rng)?;
        // Ground truth for the *system's* query when it can provide one
        // (COUNT/SUM/MEDIAN/WHERE); plain-AVG oracle otherwise.
        let exact = {
            let _span = digest_telemetry::span(Stage::Oracle);
            telemetry::SIM_ORACLE_PASSES.inc();
            self.system
                .oracle_truth(ctx)
                .unwrap_or_else(|| workload.exact_aggregate())
        };
        // Stamp this tick's remaining events (and the observer's audit
        // events) with the occasion that produced the current estimate.
        digest_telemetry::set_trace(self.system.trace_id());
        self.observer.observe(ctx, &outcome, exact);
        emit_tick(&outcome, exact, None);
        self.records.push(record(ctx.tick, &outcome, exact));
        Ok(())
    }
}

/// Every member of a [`QueryMux`], scored from one [`TruthTable`] and
/// watched by one [`MuxObserver`].
struct Muxed<'a> {
    mux: &'a mut QueryMux,
    observer: &'a mut dyn MuxObserver,
    /// Registered member ids, ascending (the truth table's member order).
    ids: Vec<u64>,
    truths: TruthTable,
    records: BTreeMap<u64, Vec<TraceRecord>>,
}

impl<W: Workload> Served<W> for Muxed<'_> {
    fn next_due(&mut self, now: u64) -> Option<u64> {
        self.mux.next_due(now)
    }

    fn serve(&mut self, workload: &W, ctx: &TickContext<'_>, rng: &mut dyn RngCore) -> Result<()> {
        let outcomes = self.mux.on_tick_mux(ctx, rng)?;
        {
            let _span = digest_telemetry::span(Stage::Oracle);
            self.truths.evaluate(ctx.db);
            telemetry::SIM_ORACLE_PASSES.add(self.truths.passes() as u64);
        }
        for o in &outcomes {
            // Each member's ground truth is its own query's oracle, read
            // from this tick's shared passes.
            let exact = self
                .ids
                .binary_search(&o.query)
                .ok()
                .and_then(|member| self.truths.truth(member))
                .unwrap_or_else(|| workload.exact_aggregate());
            // Attribute the member's tick/audit events to the occasion
            // that produced its current estimate.
            digest_telemetry::set_trace(o.trace);
            self.observer
                .observe_query(o.query, ctx, &o.outcome, exact, o.round);
            emit_tick(&o.outcome, exact, Some(o.query));
            if let Some(trace) = self.records.get_mut(&o.query) {
                trace.push(record(ctx.tick, &o.outcome, exact));
            }
        }
        Ok(())
    }
}

/// Emits one `tick` event (with a `query` field for mux members).
fn emit_tick(outcome: &TickOutcome, exact: f64, query: Option<u64>) {
    if !digest_telemetry::events_enabled() {
        return;
    }
    let fields = [
        ("estimate", Field::F64(outcome.estimate)),
        ("exact", Field::F64(exact)),
        ("snapshot", Field::Bool(outcome.snapshot_executed)),
        ("samples", Field::U64(outcome.samples_this_tick)),
        ("fresh", Field::U64(outcome.fresh_samples_this_tick)),
        ("messages", Field::U64(outcome.messages_this_tick)),
        ("updated", Field::U64(u64::from(outcome.updated))),
        ("query", Field::U64(query.unwrap_or(0))),
    ];
    let len = if query.is_some() { 8 } else { 7 };
    digest_telemetry::emit("tick", &fields[..len]);
}

fn record(tick: u64, outcome: &TickOutcome, exact: f64) -> TraceRecord {
    TraceRecord {
        tick,
        exact,
        estimate: outcome.estimate,
        updated: outcome.updated,
        snapshot: outcome.snapshot_executed,
        samples: outcome.samples_this_tick,
        fresh_samples: outcome.fresh_samples_this_tick,
        messages: outcome.messages_this_tick,
    }
}

fn elect_origin<W: Workload>(workload: &W, rng: &mut dyn RngCore) -> Result<NodeId> {
    workload
        .graph()
        .random_node(rng)
        .map_err(|_| CoreError::EmptyWorkload)
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
    use digest_core::{
        ContinuousQuery, DigestEngine, EngineConfig, EstimatorKind, Precision, SchedulerKind,
    };
    use digest_db::Expr;
    use digest_workload::{MemoryConfig, MemoryWorkload, TemperatureConfig, TemperatureWorkload};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn temp_workload() -> TemperatureWorkload {
        TemperatureWorkload::new(TemperatureConfig::reduced(400, 5, 8, 60))
    }

    fn avg_query(w: &impl Workload, delta: f64, epsilon: f64) -> ContinuousQuery {
        ContinuousQuery::avg(
            Expr::first_attr(w.db().schema()),
            Precision::new(delta, epsilon, 0.95).unwrap(),
        )
    }

    #[test]
    fn digest_run_produces_full_trace_and_respects_precision() {
        let mut w = temp_workload();
        let q = avg_query(&w, 8.0, 2.0);
        let mut engine = DigestEngine::new(
            q,
            EngineConfig {
                scheduler: SchedulerKind::Pred(3),
                estimator: EstimatorKind::Repeated,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let report = run(
            &mut w,
            &mut engine,
            RunConfig::for_ticks(60),
            8.0,
            2.0,
            &mut rng,
        )
        .unwrap();

        assert_eq!(report.ticks(), 60);
        assert_eq!(report.system, "PRED3+RPT");
        assert_eq!(report.workload, "TEMPERATURE");
        assert!(
            report.total_snapshots() >= 4,
            "bootstrap alone gives several"
        );
        assert!(report.total_snapshots() < 60, "PRED must skip some ticks");
        // Precision: ε-violations ≤ ~3× the nominal 5% (finite-sample
        // slack), and resolution violations rare.
        assert!(
            report.confidence_violation_rate() < 0.15,
            "ε-violations = {}",
            report.confidence_violation_rate()
        );
        assert!(
            report.resolution_violation_rate() < 0.10,
            "δ-violations = {}",
            report.resolution_violation_rate()
        );
    }

    #[test]
    fn run_caps_at_workload_duration() {
        let mut w = temp_workload(); // duration 60
        let q = avg_query(&w, 8.0, 2.0);
        let mut engine = DigestEngine::new(
            q,
            EngineConfig {
                scheduler: SchedulerKind::All,
                estimator: EstimatorKind::Independent,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let report = run(
            &mut w,
            &mut engine,
            RunConfig::default(),
            8.0,
            2.0,
            &mut rng,
        )
        .unwrap();
        assert_eq!(report.ticks(), 60);
    }

    #[test]
    fn run_survives_churn_taking_the_origin() {
        let mut w = MemoryWorkload::new(MemoryConfig {
            leave_prob: 0.05,
            join_rate: 2.0,
            ..MemoryConfig::reduced(80, 40, 2_000)
        });
        let q = avg_query(&w, 10.0, 3.0);
        let mut engine = DigestEngine::new(
            q,
            EngineConfig {
                scheduler: SchedulerKind::All,
                estimator: EstimatorKind::Repeated,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let report = run(
            &mut w,
            &mut engine,
            RunConfig::for_ticks(50),
            10.0,
            3.0,
            &mut rng,
        )
        .expect("run must survive origin churn");
        assert_eq!(report.ticks(), 50);
    }

    /// A workload forced dense: forwards everything to `W` but promises
    /// no idle span, so the loop executes every tick — the reference the
    /// hint-driven runs are checked against.
    struct Dense<W>(W);

    impl<W: Workload> Workload for Dense<W> {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn graph(&self) -> &digest_net::Graph {
            self.0.graph()
        }
        fn db(&self) -> &digest_db::P2PDatabase {
            self.0.db()
        }
        fn expr(&self) -> &Expr {
            self.0.expr()
        }
        fn current_tick(&self) -> u64 {
            self.0.current_tick()
        }
        fn duration(&self) -> u64 {
            self.0.duration()
        }
        fn advance(&mut self, rng: &mut dyn rand::RngCore) {
            self.0.advance(rng);
        }
        fn next_activity(&self) -> Option<u64> {
            None
        }
        fn exact_aggregate(&self) -> f64 {
            self.0.exact_aggregate()
        }
        fn sigma_ref(&self) -> f64 {
            self.0.sigma_ref()
        }
        fn rho_ref(&self) -> f64 {
            self.0.rho_ref()
        }
    }

    /// The hint-driven loop must replay the dense run's byte stream
    /// exactly on existing scenarios (default hints = every tick due),
    /// including under churn that re-elects the origin.
    #[test]
    fn event_driven_run_is_byte_identical_to_dense_run() {
        let make_engine = || {
            DigestEngine::new(
                ContinuousQuery::avg(
                    Expr::first_attr(temp_workload().db().schema()),
                    Precision::new(8.0, 2.0, 0.95).unwrap(),
                ),
                EngineConfig {
                    scheduler: SchedulerKind::Pred(3),
                    estimator: EstimatorKind::Repeated,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let dense = {
            let mut w = Dense(temp_workload());
            let mut engine = make_engine();
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            run(
                &mut w,
                &mut engine,
                RunConfig::for_ticks(60),
                8.0,
                2.0,
                &mut rng,
            )
            .unwrap()
        };
        let evented = {
            let mut w = temp_workload();
            let mut engine = make_engine();
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            run(
                &mut w,
                &mut engine,
                RunConfig::for_ticks(60),
                8.0,
                2.0,
                &mut rng,
            )
            .unwrap()
        };
        assert_eq!(dense.records.len(), evented.records.len());
        for (a, b) in dense.records.iter().zip(evented.records.iter()) {
            assert_eq!(a.tick, b.tick);
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
            assert_eq!(a.exact.to_bits(), b.exact.to_bits());
            assert_eq!(a.samples, b.samples);
            assert_eq!(a.messages, b.messages);
            assert_eq!(a.snapshot, b.snapshot);
        }
    }

    /// A frozen scenario whose `next_activity` hint declares it idle
    /// forever — the sparse side of the event-driven contract.
    struct FrozenWorkload {
        graph: digest_net::Graph,
        db: digest_db::P2PDatabase,
        expr: Expr,
        tick: u64,
    }

    impl FrozenWorkload {
        fn new() -> Self {
            let graph = digest_net::topology::complete(8).unwrap();
            let mut db = digest_db::P2PDatabase::new(digest_db::Schema::single("a"));
            let mut rng = ChaCha8Rng::seed_from_u64(21);
            for v in 0..8u32 {
                db.register_node(NodeId(v));
                for _ in 0..20 {
                    use rand::Rng;
                    let value: f64 = 40.0 + rng.gen_range(-5.0..5.0);
                    db.insert(NodeId(v), digest_db::Tuple::single(value))
                        .unwrap();
                }
            }
            let expr = Expr::first_attr(db.schema());
            Self {
                graph,
                db,
                expr,
                tick: 0,
            }
        }
    }

    impl Workload for FrozenWorkload {
        fn name(&self) -> &str {
            "FROZEN"
        }
        fn graph(&self) -> &digest_net::Graph {
            &self.graph
        }
        fn db(&self) -> &digest_db::P2PDatabase {
            &self.db
        }
        fn expr(&self) -> &Expr {
            &self.expr
        }
        fn current_tick(&self) -> u64 {
            self.tick
        }
        fn duration(&self) -> u64 {
            u64::MAX
        }
        fn advance(&mut self, _rng: &mut dyn rand::RngCore) {
            self.tick += 1;
        }
        fn next_activity(&self) -> Option<u64> {
            Some(u64::MAX) // never active again
        }
        fn exact_aggregate(&self) -> f64 {
            self.db.exact_avg(&self.expr).unwrap()
        }
        fn sigma_ref(&self) -> f64 {
            3.0
        }
        fn rho_ref(&self) -> f64 {
            1.0
        }
    }

    /// With a sparse workload and a PRED engine, the loop must actually
    /// skip idle spans — fewer executed ticks than the horizon — while
    /// every executed tick matches the dense run bit-for-bit.
    #[test]
    fn event_driven_run_skips_idle_spans_on_sparse_workloads() {
        let make_engine = || {
            DigestEngine::new(
                ContinuousQuery::avg(
                    Expr::first_attr(&digest_db::Schema::single("a")),
                    Precision::new(16.0, 4.0, 0.9).unwrap(),
                ),
                EngineConfig {
                    scheduler: SchedulerKind::Pred(3),
                    estimator: EstimatorKind::Repeated,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        const TICKS: u64 = 200;
        let dense = {
            let mut w = Dense(FrozenWorkload::new());
            let mut engine = make_engine();
            let mut rng = ChaCha8Rng::seed_from_u64(22);
            run(
                &mut w,
                &mut engine,
                RunConfig::for_ticks(TICKS),
                16.0,
                4.0,
                &mut rng,
            )
            .unwrap()
        };
        let evented = {
            let mut w = FrozenWorkload::new();
            let mut engine = make_engine();
            let mut rng = ChaCha8Rng::seed_from_u64(22);
            run(
                &mut w,
                &mut engine,
                RunConfig::for_ticks(TICKS),
                16.0,
                4.0,
                &mut rng,
            )
            .unwrap()
        };
        assert_eq!(dense.records.len() as u64, TICKS);
        assert!(
            (evented.records.len() as u64) < TICKS / 2,
            "PRED on a frozen signal must skip most ticks; executed {}",
            evented.records.len()
        );
        // Every executed tick matches the dense run's record exactly.
        let dense_by_tick: BTreeMap<u64, &TraceRecord> =
            dense.records.iter().map(|r| (r.tick, r)).collect();
        for r in &evented.records {
            let d = dense_by_tick[&r.tick];
            assert_eq!(r.estimate.to_bits(), d.estimate.to_bits());
            assert_eq!(r.samples, d.samples);
            assert_eq!(r.messages, d.messages);
            assert_eq!(r.snapshot, d.snapshot);
            assert!(r.snapshot, "only occasion ticks should execute");
        }
        // And the skipped ticks were pure idle holds in the dense run.
        for r in &dense.records {
            if !evented.records.iter().any(|e| e.tick == r.tick) {
                assert!(!r.snapshot);
                assert_eq!(r.messages, 0);
            }
        }
    }

    /// Same equivalence on a churning workload (origin re-election
    /// consumes randomness mid-run — both runs must do it at the same
    /// stream positions).
    #[test]
    fn event_driven_run_matches_dense_under_churn() {
        let make_workload = || {
            MemoryWorkload::new(MemoryConfig {
                leave_prob: 0.05,
                join_rate: 2.0,
                ..MemoryConfig::reduced(80, 40, 2_000)
            })
        };
        let make_engine = |w: &MemoryWorkload| {
            DigestEngine::new(
                ContinuousQuery::avg(
                    Expr::first_attr(w.db().schema()),
                    Precision::new(10.0, 3.0, 0.95).unwrap(),
                ),
                EngineConfig {
                    scheduler: SchedulerKind::All,
                    estimator: EstimatorKind::Repeated,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let dense = {
            let mut w = Dense(make_workload());
            let mut engine = make_engine(&w.0);
            let mut rng = ChaCha8Rng::seed_from_u64(13);
            run(
                &mut w,
                &mut engine,
                RunConfig::for_ticks(50),
                10.0,
                3.0,
                &mut rng,
            )
            .unwrap()
        };
        let evented = {
            let mut w = make_workload();
            let mut engine = make_engine(&w);
            let mut rng = ChaCha8Rng::seed_from_u64(13);
            run(
                &mut w,
                &mut engine,
                RunConfig::for_ticks(50),
                10.0,
                3.0,
                &mut rng,
            )
            .unwrap()
        };
        assert_eq!(dense.records.len(), evented.records.len());
        for (a, b) in dense.records.iter().zip(evented.records.iter()) {
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
            assert_eq!(a.exact.to_bits(), b.exact.to_bits());
            assert_eq!(a.messages, b.messages);
        }
    }

    /// `run_mux` goes through the same loop: on a frozen world a PRED mux
    /// skips its idle spans too, every executed tick matches the dense
    /// run's record for every member, and the skipped ticks were pure
    /// idle holds.
    #[test]
    fn mux_run_skips_idle_spans_on_sparse_workloads() {
        use digest_core::{MuxConfig, NoopMuxObserver};
        let run_with = |w: &mut dyn FnMut(&mut QueryMux, &mut ChaCha8Rng) -> Vec<RunReport>| {
            let mut mux = QueryMux::new(MuxConfig::default()).unwrap();
            for (delta, epsilon) in [(16.0, 4.0), (12.0, 4.0)] {
                mux.register(ContinuousQuery::avg(
                    Expr::first_attr(&digest_db::Schema::single("a")),
                    Precision::new(delta, epsilon, 0.9).unwrap(),
                ))
                .unwrap();
            }
            let mut rng = ChaCha8Rng::seed_from_u64(23);
            w(&mut mux, &mut rng)
        };
        const TICKS: u64 = 200;
        let dense = run_with(&mut |mux, rng| {
            let mut w = Dense(FrozenWorkload::new());
            run_mux(
                &mut w,
                mux,
                RunConfig::for_ticks(TICKS),
                rng,
                &mut NoopMuxObserver,
            )
            .unwrap()
        });
        let evented = run_with(&mut |mux, rng| {
            let mut w = FrozenWorkload::new();
            run_mux(
                &mut w,
                mux,
                RunConfig::for_ticks(TICKS),
                rng,
                &mut NoopMuxObserver,
            )
            .unwrap()
        });
        assert_eq!(dense.len(), 2);
        assert_eq!(evented.len(), 2);
        for (d, e) in dense.iter().zip(&evented) {
            assert_eq!(d.records.len() as u64, TICKS);
            assert!(
                (e.records.len() as u64) < TICKS / 2,
                "PRED mux on a frozen signal must skip most ticks; executed {}",
                e.records.len()
            );
            let dense_by_tick: BTreeMap<u64, &TraceRecord> =
                d.records.iter().map(|r| (r.tick, r)).collect();
            for r in &e.records {
                let dr = dense_by_tick[&r.tick];
                assert_eq!(r.estimate.to_bits(), dr.estimate.to_bits());
                assert_eq!(r.exact.to_bits(), dr.exact.to_bits());
                assert_eq!(r.samples, dr.samples);
                assert_eq!(r.messages, dr.messages);
                assert_eq!(r.snapshot, dr.snapshot);
            }
            for r in &d.records {
                if !e.records.iter().any(|x| x.tick == r.tick) {
                    assert!(!r.snapshot);
                    assert_eq!(r.messages, 0);
                }
            }
        }
    }

    #[test]
    fn pred_uses_fewer_snapshots_than_all() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mk = || temp_workload();
        let run_with = |scheduler, rng: &mut ChaCha8Rng| {
            let mut w = mk();
            let q = avg_query(&w, 16.0, 2.0); // generous δ = 2σ
            let mut engine = DigestEngine::new(
                q,
                EngineConfig {
                    scheduler,
                    estimator: EstimatorKind::Repeated,
                    ..Default::default()
                },
            )
            .unwrap();
            run(
                &mut w,
                &mut engine,
                RunConfig::for_ticks(60),
                16.0,
                2.0,
                rng,
            )
            .unwrap()
            .total_snapshots()
        };
        let all = run_with(SchedulerKind::All, &mut rng);
        let pred = run_with(SchedulerKind::Pred(3), &mut rng);
        assert_eq!(all, 60);
        assert!(
            pred < all / 2,
            "PRED3 {pred} should be well under ALL {all}"
        );
    }
}
