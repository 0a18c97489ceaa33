//! Timing seams: wrappers around the program's public traits that time
//! each call into a layer from the benchmark's side, plus the traced
//! copy of `digest_sim::run_mux`'s loop.
//!
//! Every wrapper delegates each trait method unchanged, so a run through
//! the wrappers makes exactly the calls the bare run makes, in the same
//! order. The untraced run uses the same wrappers with tracing off: they
//! then only stamp one `Instant` per tick, at the `Workload::advance`
//! seam, which is where the tick boundaries are taken.

use digest_bench::metrics::AllocSnapshot;
use digest_core::{
    CoreError, MuxObserver, QueryMux, QuerySystem, Result, TickContext, TickObserver, TickOutcome,
};
use digest_db::{Expr, P2PDatabase};
use digest_net::Graph;
use digest_sim::{RunReport, TraceRecord};
use digest_telemetry::{registry as telemetry, Stage};
use digest_workload::Workload;
use rand::RngCore;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Busy time, heap bytes and call count of one seam.
#[derive(Debug, Default)]
pub struct Seam {
    pub ns: Cell<u64>,
    pub bytes: Cell<u64>,
    pub calls: Cell<u64>,
}

impl Seam {
    fn add(&self, ns: u64, bytes: u64) {
        self.ns.set(self.ns.get() + ns);
        self.bytes.set(self.bytes.get() + bytes);
        self.calls.set(self.calls.get() + 1);
    }
}

/// What one run records: tick boundaries always, seam costs when traced.
#[derive(Debug, Default)]
pub struct Probe {
    traced: bool,
    /// One mark per tick, taken as `Workload::advance` is entered.
    marks: RefCell<Vec<Instant>>,
    pub advance: Seam,
    pub on_tick: Seam,
    pub oracle: Seam,
    pub observe: Seam,
}

impl Probe {
    pub fn new(traced: bool, ticks: u64) -> Self {
        Self {
            traced,
            marks: RefCell::new(Vec::with_capacity(usize::try_from(ticks).unwrap_or(0))),
            ..Self::default()
        }
    }

    fn mark(&self) {
        self.marks.borrow_mut().push(Instant::now());
    }

    /// Runs `f`, charging its wall time and heap bytes to `seam` when
    /// tracing is on.
    fn time<R>(&self, seam: &Seam, f: impl FnOnce() -> R) -> R {
        if !self.traced {
            return f();
        }
        let alloc = AllocSnapshot::now();
        let start = Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        seam.add(ns, AllocSnapshot::now().delta_since(&alloc).bytes);
        out
    }

    /// Host time of each tick: from one mark to the next, the last one
    /// ending at `end`.
    pub fn tick_ns(&self, end: Instant) -> Vec<u64> {
        let marks = self.marks.borrow();
        let ends = marks.iter().skip(1).copied().chain(std::iter::once(end));
        marks
            .iter()
            .zip(ends)
            .map(|(a, b)| u64::try_from((b - *a).as_nanos()).unwrap_or(u64::MAX))
            .collect()
    }
}

/// A workload whose `advance` marks the tick boundary and is timed as the
/// workload layer, and whose `exact_aggregate` is timed as the oracle.
pub struct ProbedWorkload<'p, W> {
    pub inner: W,
    pub probe: &'p Probe,
}

impl<W: Workload> Workload for ProbedWorkload<'_, W> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn graph(&self) -> &Graph {
        self.inner.graph()
    }
    fn db(&self) -> &P2PDatabase {
        self.inner.db()
    }
    fn expr(&self) -> &Expr {
        self.inner.expr()
    }
    fn current_tick(&self) -> u64 {
        self.inner.current_tick()
    }
    fn duration(&self) -> u64 {
        self.inner.duration()
    }
    fn advance(&mut self, rng: &mut dyn RngCore) {
        self.probe.mark();
        let inner = &mut self.inner;
        self.probe.time(&self.probe.advance, || inner.advance(rng));
    }
    fn next_activity(&self) -> Option<u64> {
        self.inner.next_activity()
    }
    fn advance_to(&mut self, tick: u64, rng: &mut dyn RngCore) {
        self.probe.mark();
        let inner = &mut self.inner;
        self.probe
            .time(&self.probe.advance, || inner.advance_to(tick, rng));
    }
    fn exact_aggregate(&self) -> f64 {
        self.probe
            .time(&self.probe.oracle, || self.inner.exact_aggregate())
    }
    fn sigma_ref(&self) -> f64 {
        self.inner.sigma_ref()
    }
    fn rho_ref(&self) -> f64 {
        self.inner.rho_ref()
    }
}

/// A lone query system whose `on_tick` is timed as the core layer and
/// whose `oracle_truth` is timed as the oracle.
pub struct ProbedSystem<'p, S> {
    pub inner: S,
    pub probe: &'p Probe,
}

impl<S: QuerySystem> QuerySystem for ProbedSystem<'_, S> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_tick(&mut self, ctx: &TickContext<'_>, rng: &mut dyn RngCore) -> Result<TickOutcome> {
        let inner = &mut self.inner;
        self.probe
            .time(&self.probe.on_tick, || inner.on_tick(ctx, rng))
    }
    fn total_messages(&self) -> u64 {
        self.inner.total_messages()
    }
    fn total_samples(&self) -> u64 {
        self.inner.total_samples()
    }
    fn total_snapshots(&self) -> u64 {
        self.inner.total_snapshots()
    }
    fn oracle_truth(&self, ctx: &TickContext<'_>) -> Option<f64> {
        self.probe
            .time(&self.probe.oracle, || self.inner.oracle_truth(ctx))
    }
    fn next_due(&mut self, now: u64) -> Option<u64> {
        self.inner.next_due(now)
    }
    fn set_sampling_workers(&mut self, workers: usize) {
        self.inner.set_sampling_workers(workers);
    }
    fn trace_id(&self) -> u64 {
        self.inner.trace_id()
    }
}

/// A tick observer whose `observe` is timed as the audit layer.
pub struct ProbedObserver<'p, O> {
    pub inner: O,
    pub probe: &'p Probe,
}

impl<O: TickObserver> TickObserver for ProbedObserver<'_, O> {
    fn observe(&mut self, ctx: &TickContext<'_>, outcome: &TickOutcome, exact: f64) {
        let inner = &mut self.inner;
        self.probe
            .time(&self.probe.observe, || inner.observe(ctx, outcome, exact));
    }
}

/// `digest_sim::run_mux` with every layer call timed. `run_mux` makes the
/// mux tick and the member oracles inside one call, so this loop makes the
/// same public calls in the same order (same RNG draws, same records);
/// the caller checks that its reports equal `run_mux`'s byte for byte.
pub fn run_mux_traced<W: Workload>(
    workload: &mut ProbedWorkload<'_, W>,
    mux: &mut QueryMux,
    horizon: u64,
    rng: &mut dyn RngCore,
    observer: &mut dyn MuxObserver,
) -> Result<Vec<RunReport>> {
    let probe = workload.probe;
    if mux.is_empty() {
        return Err(CoreError::EmptyWorkload);
    }
    mux.set_sampling_workers(1);
    let mut origin = workload
        .graph()
        .nodes()
        .next()
        .ok_or(CoreError::EmptyWorkload)?;
    let ids = mux.query_ids();
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
            origin = workload
                .graph()
                .random_node(rng)
                .map_err(|_| CoreError::EmptyWorkload)?;
        }
        let ctx = TickContext {
            tick,
            graph: workload.graph(),
            db: workload.db(),
            origin,
        };
        let outcomes = probe.time(&probe.on_tick, || mux.on_tick_mux(&ctx, rng))?;
        for o in &outcomes {
            let exact = probe
                .time(&probe.oracle, || {
                    mux.query(o.query).and_then(|q| q.oracle(ctx.db))
                })
                .unwrap_or_else(|| workload.exact_aggregate());
            digest_telemetry::set_trace(o.trace);
            probe.time(&probe.observe, || {
                observer.observe_query(o.query, &ctx, &o.outcome, exact, o.round);
            });
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

/// The canonical bytes of a run's reports: every field of every record,
/// floats by their bit patterns. Two runs are the same program run when
/// these bytes are equal.
pub fn report_bytes(reports: &[RunReport]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in reports {
        for text in [&r.system, &r.workload] {
            out.extend_from_slice(&(text.len() as u64).to_le_bytes());
            out.extend_from_slice(text.as_bytes());
        }
        out.extend_from_slice(&r.delta.to_bits().to_le_bytes());
        out.extend_from_slice(&r.epsilon.to_bits().to_le_bytes());
        out.extend_from_slice(&(r.records.len() as u64).to_le_bytes());
        for t in &r.records {
            for word in [
                t.tick,
                t.exact.to_bits(),
                t.estimate.to_bits(),
                u64::from(t.updated),
                u64::from(t.snapshot),
                t.samples,
                t.fresh_samples,
                t.messages,
            ] {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
    }
    out
}
