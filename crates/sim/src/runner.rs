//! Driving one query system over one workload.
//!
//! Two drivers share one per-tick body (the private `step_tick`): the classic
//! dense loop ([`run`] / [`run_observed`]) executes every tick, and the
//! event-driven loop ([`run_events`]) pops due ticks from a calendar
//! [`EventQueue`], skipping spans where both the workload and the
//! system declare themselves idle. On dense scenarios (the default
//! [`Workload::next_activity`] / `QuerySystem::next_due` hints) every
//! tick is due, so the two drivers are byte-identical by construction.

use crate::events::EventQueue;
use crate::trace::{RunReport, TraceRecord};
use digest_core::{
    CoreError, MuxObserver, NoopObserver, QueryMux, QuerySystem, Result, TickContext, TickObserver,
    TruthTable,
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
}

/// Runs `system` against `workload`, recording a per-tick trace.
///
/// The querying node is picked as the workload's first live node and
/// re-elected if churn removes it (the paper issues queries from random
/// nodes; any live node is equivalent for counting purposes).
///
/// Per tick, the order is: advance the workload (apply this tick's
/// updates/churn), let the system react, then record the oracle truth
/// next to the system's estimate.
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

/// [`run`] with a [`TickObserver`] attached: the observer sees every tick
/// (after the system reacted, with the oracle truth) without perturbing
/// the run — it consumes no randomness and the trace/report are
/// byte-identical to an unobserved run.
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

    let mut origin = workload
        .graph()
        .nodes()
        .next()
        .ok_or(CoreError::EmptyWorkload)?;

    let horizon = if config.respect_duration {
        config.ticks.min(workload.duration())
    } else {
        config.ticks
    };

    // Capacity is only a hint; a clamped value is fine on 32-bit targets.
    let mut records = Vec::with_capacity(usize::try_from(horizon).unwrap_or(0));
    for tick in 0..horizon {
        step_tick(
            workload,
            system,
            tick,
            &mut origin,
            rng,
            observer,
            &mut records,
        )?;
    }

    Ok(RunReport {
        system: system.name().to_owned(),
        workload: workload.name().to_owned(),
        records,
        delta,
        epsilon,
    })
}

/// [`run_observed`], but driven by a calendar [`EventQueue`] instead of
/// a dense `0..horizon` loop: after each executed tick the workload's
/// [`Workload::next_activity`] and the system's `next_due` hints decide
/// the next due tick, and the spans in between are skipped outright —
/// per-run cost is proportional to due ticks, not to the horizon.
///
/// With the default (dense) hints every tick is due and this is
/// byte-identical to [`run_observed`] — same RNG stream, same trace —
/// which the test suite and `cargo xtask determinism` pin down. Sparse
/// hints only skip ticks both sides promised were pure idle holds, so
/// the recorded trace still matches the dense run on every executed
/// tick; skipped ticks simply produce no [`TraceRecord`].
///
/// # Errors
///
/// As for [`run`].
#[allow(clippy::too_many_arguments)]
pub fn run_events<W: Workload, S: QuerySystem + ?Sized>(
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

    let mut origin = workload
        .graph()
        .nodes()
        .next()
        .ok_or(CoreError::EmptyWorkload)?;

    let horizon = if config.respect_duration {
        config.ticks.min(workload.duration())
    } else {
        config.ticks
    };

    let mut records = Vec::new();
    let mut queue = EventQueue::new();
    if horizon > 0 {
        queue.schedule(0);
    }
    while let Some(tick) = queue.pop_next() {
        if tick >= horizon {
            break;
        }
        step_tick(
            workload,
            system,
            tick,
            &mut origin,
            rng,
            observer,
            &mut records,
        )?;
        // Subscribe the next due tick: the earliest of the workload's
        // and the system's own schedules; either side saying "no
        // schedule" (None) keeps the run dense from here.
        let next = match (workload.next_activity(), system.next_due(tick)) {
            (None, _) | (_, None) => tick + 1,
            (Some(w), Some(s)) => w.min(s).max(tick + 1),
        };
        if next < horizon {
            queue.schedule(next);
        }
    }

    Ok(RunReport {
        system: system.name().to_owned(),
        workload: workload.name().to_owned(),
        records,
        delta,
        epsilon,
    })
}

/// One full simulation tick — the body both drivers share, so the
/// event-driven and dense loops cannot drift apart: advance the
/// workload through `tick`, re-elect the origin if churn took it, let
/// the system react, observe, emit, record.
fn step_tick<W: Workload, S: QuerySystem + ?Sized>(
    workload: &mut W,
    system: &mut S,
    tick: u64,
    origin: &mut NodeId,
    rng: &mut dyn RngCore,
    observer: &mut dyn TickObserver,
    records: &mut Vec<TraceRecord>,
) -> Result<()> {
    digest_telemetry::set_tick(tick);
    telemetry::SIM_TICKS.inc();
    {
        let _span = digest_telemetry::span(Stage::WorkloadAdvance);
        // On consecutive ticks this is exactly one `advance` call (the
        // workload sits at `current_tick == tick` here), so the dense
        // driver's byte stream is unchanged; after a skipped span it
        // catches the workload up per its `next_activity` contract.
        workload.advance_to(tick, rng);
    }

    // Re-elect the querying node if churn removed it.
    if !workload.graph().contains(*origin) {
        *origin = elect_origin(workload, rng)?;
    }

    let (outcome, exact) = {
        let ctx = TickContext {
            tick,
            graph: workload.graph(),
            db: workload.db(),
            origin: *origin,
        };
        let outcome = system.on_tick(&ctx, rng)?;
        // Ground truth for the *system's* query when it can provide
        // one (COUNT/SUM/MEDIAN/WHERE); plain-AVG oracle otherwise.
        let exact = {
            let _span = digest_telemetry::span(Stage::Oracle);
            telemetry::SIM_ORACLE_PASSES.inc();
            system
                .oracle_truth(&ctx)
                .unwrap_or_else(|| workload.exact_aggregate())
        };
        // Stamp this tick's remaining events (and the observer's
        // audit events) with the occasion that produced the current
        // estimate.
        digest_telemetry::set_trace(system.trace_id());
        observer.observe(&ctx, &outcome, exact);
        (outcome, exact)
    };

    if digest_telemetry::events_enabled() {
        digest_telemetry::emit(
            "tick",
            &[
                ("estimate", Field::F64(outcome.estimate)),
                ("exact", Field::F64(exact)),
                ("snapshot", Field::Bool(outcome.snapshot_executed)),
                ("samples", Field::U64(outcome.samples_this_tick)),
                ("fresh", Field::U64(outcome.fresh_samples_this_tick)),
                ("messages", Field::U64(outcome.messages_this_tick)),
                ("updated", Field::U64(u64::from(outcome.updated))),
            ],
        );
    }

    records.push(TraceRecord {
        tick,
        exact,
        estimate: outcome.estimate,
        updated: outcome.updated,
        snapshot: outcome.snapshot_executed,
        samples: outcome.samples_this_tick,
        fresh_samples: outcome.fresh_samples_this_tick,
        messages: outcome.messages_this_tick,
    });
    Ok(())
}

/// Runs a [`QueryMux`] against `workload`, recording one per-tick trace
/// *per member query* (ascending query id). Mirrors [`run_observed`], but
/// each member gets its own oracle truth (its query's exact aggregate),
/// its own `tick` event (disambiguated by a `query` field), and its own
/// observer callback — with the coalesced round's trace id attached when
/// the member's occasion was served from a shared sampling round.
///
/// The truths come from one [`TruthTable`] built before the first tick:
/// each tick, after the mux has served the members, it makes one oracle
/// pass per distinct `(family, expr, predicate)` key, so members reading
/// the same scan share it. Every member's truth is bit-identical to its
/// query's [`ContinuousQuery::oracle`](digest_core::ContinuousQuery::oracle).
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

    let mut origin = workload
        .graph()
        .nodes()
        .next()
        .ok_or(CoreError::EmptyWorkload)?;

    let horizon = if config.respect_duration {
        config.ticks.min(workload.duration())
    } else {
        config.ticks
    };

    let ids = mux.query_ids();
    let mut truths = TruthTable::new(ids.iter().filter_map(|&id| mux.query(id)));
    let mut records: BTreeMap<u64, Vec<TraceRecord>> = ids
        .iter()
        .map(|&id| {
            (
                id,
                Vec::with_capacity(usize::try_from(horizon).unwrap_or(0)),
            )
        })
        .collect();

    for tick in 0..horizon {
        digest_telemetry::set_tick(tick);
        telemetry::SIM_TICKS.inc();
        {
            let _span = digest_telemetry::span(Stage::WorkloadAdvance);
            workload.advance(rng);
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
        let outcomes = mux.on_tick_mux(&ctx, rng)?;
        {
            let _span = digest_telemetry::span(Stage::Oracle);
            truths.evaluate(ctx.db);
            telemetry::SIM_ORACLE_PASSES.add(truths.passes() as u64);
        }
        for o in &outcomes {
            // Each member's ground truth is its own query's oracle, read
            // from this tick's shared passes (`ids` is ascending).
            let exact = ids
                .binary_search(&o.query)
                .ok()
                .and_then(|member| truths.truth(member))
                .unwrap_or_else(|| workload.exact_aggregate());
            // Attribute the member's tick/audit events to the occasion
            // that produced its current estimate.
            digest_telemetry::set_trace(o.trace);
            observer.observe_query(o.query, &ctx, &o.outcome, exact, o.round);
            if digest_telemetry::events_enabled() {
                digest_telemetry::emit(
                    "tick",
                    &[
                        ("estimate", Field::F64(o.outcome.estimate)),
                        ("exact", Field::F64(exact)),
                        ("snapshot", Field::Bool(o.outcome.snapshot_executed)),
                        ("samples", Field::U64(o.outcome.samples_this_tick)),
                        ("fresh", Field::U64(o.outcome.fresh_samples_this_tick)),
                        ("messages", Field::U64(o.outcome.messages_this_tick)),
                        ("updated", Field::U64(u64::from(o.outcome.updated))),
                        ("query", Field::U64(o.query)),
                    ],
                );
            }
            if let Some(trace) = records.get_mut(&o.query) {
                trace.push(TraceRecord {
                    tick,
                    exact,
                    estimate: o.outcome.estimate,
                    updated: o.outcome.updated,
                    snapshot: o.outcome.snapshot_executed,
                    samples: o.outcome.samples_this_tick,
                    fresh_samples: o.outcome.fresh_samples_this_tick,
                    messages: o.outcome.messages_this_tick,
                });
            }
        }
    }

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

    /// The event-driven driver must replay the dense driver's byte
    /// stream exactly on existing scenarios (default hints = every tick
    /// due), including under churn that re-elects the origin.
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
        let evented = {
            let mut w = temp_workload();
            let mut engine = make_engine();
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            run_events(
                &mut w,
                &mut engine,
                RunConfig::for_ticks(60),
                8.0,
                2.0,
                &mut rng,
                &mut NoopObserver,
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

    /// With a sparse workload and a PRED engine, the event loop must
    /// actually skip idle spans — fewer executed ticks than the horizon
    /// — while every executed tick matches the dense run bit-for-bit.
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
        let evented = {
            let mut w = FrozenWorkload::new();
            let mut engine = make_engine();
            let mut rng = ChaCha8Rng::seed_from_u64(22);
            run_events(
                &mut w,
                &mut engine,
                RunConfig::for_ticks(TICKS),
                16.0,
                4.0,
                &mut rng,
                &mut NoopObserver,
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
    /// consumes randomness mid-run — both drivers must do it at the
    /// same stream positions).
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
        let evented = {
            let mut w = make_workload();
            let mut engine = make_engine(&w);
            let mut rng = ChaCha8Rng::seed_from_u64(13);
            run_events(
                &mut w,
                &mut engine,
                RunConfig::for_ticks(50),
                10.0,
                3.0,
                &mut rng,
                &mut NoopObserver,
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
