//! Stage profiling: lightweight spans with RAII guards.
//!
//! A [`Stage`] names one of the fixed pipeline phases of a Digest run
//! (workload advance, engine tick, estimator evaluation, sampling walk,
//! …). [`span()`] returns a guard that, on drop, folds the stage's
//! duration into a process-wide accumulator. Two clock modes:
//!
//! * [`ClockMode::Wall`] — durations are measured with
//!   [`std::time::Instant`] and accumulated in nanoseconds. This is the
//!   mode the `bench_telemetry` profiler runs in.
//! * [`ClockMode::Deterministic`] (the default) — no wall clock is ever
//!   read; durations are measured in *simulation ticks* (the global tick
//!   set by the driver via [`crate::set_tick`]). Every accumulated value
//!   is then a pure function of the seeded simulation, so same-seed runs
//!   report byte-identical stage tables and `cargo xtask determinism`
//!   holds with telemetry enabled.
//!
//! Span accounting is two relaxed atomic adds per span (plus two
//! `Instant` reads in wall mode); spans are cheap enough for per-sample
//! instrumentation.

use crate::metric::Counter;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

/// The clock a span measures against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Logical time: durations in simulation ticks (default; replay-safe).
    Deterministic,
    /// Physical time: durations in nanoseconds (for profiling runs).
    Wall,
}

static MODE: AtomicU8 = AtomicU8::new(0);

/// Selects the process-wide clock mode (call once, before the run).
pub fn set_clock_mode(mode: ClockMode) {
    let encoded = match mode {
        ClockMode::Deterministic => 0,
        ClockMode::Wall => 1,
    };
    // relaxed-ok: mode is set once before the run, never concurrently
    // with spans; readers need no ordering.
    MODE.store(encoded, Ordering::Relaxed);
}

/// The current clock mode.
#[must_use]
pub fn clock_mode() -> ClockMode {
    // relaxed-ok: read-mostly mode flag set before the run starts.
    if MODE.load(Ordering::Relaxed) == 0 {
        ClockMode::Deterministic
    } else {
        ClockMode::Wall
    }
}

/// One profiled pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Workload mutation for one tick (updates + churn).
    WorkloadAdvance,
    /// One engine `on_tick` that executed a snapshot.
    EngineTick,
    /// Capture–recapture relation-size estimation round.
    SizeEstimate,
    /// One estimator snapshot evaluation (INDEP / RPT / quantile).
    EstimatorEval,
    /// One scheduler `next_delay` decision.
    SchedulerDecide,
    /// One sampling-operator walk (burn-in or reset continuation).
    SamplingWalk,
    /// One occasion-snapshot refresh (weight capture, then reuse or
    /// rebuild of the M–H acceptance and proposal tables).
    SnapshotBuild,
    /// One occasion walk batch through the parallel executor (snapshot
    /// refresh + all slot walks + reassembly).
    SamplingBatch,
    /// One tick's ground truth: every oracle pass the runner makes to
    /// score the reported estimates (a harness cost, not the system's).
    Oracle,
    /// One full simulation replication (parallel harness).
    Replication,
}

/// All stages, in reporting order.
pub const STAGES: &[Stage] = &[
    Stage::WorkloadAdvance,
    Stage::EngineTick,
    Stage::SizeEstimate,
    Stage::EstimatorEval,
    Stage::SchedulerDecide,
    Stage::SamplingWalk,
    Stage::SnapshotBuild,
    Stage::SamplingBatch,
    Stage::Oracle,
    Stage::Replication,
];

impl Stage {
    /// Stable snake-case name (used in summaries and `BENCH_telemetry.json`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::WorkloadAdvance => "workload_advance",
            Stage::EngineTick => "engine_tick",
            Stage::SizeEstimate => "size_estimate",
            Stage::EstimatorEval => "estimator_eval",
            Stage::SchedulerDecide => "scheduler_decide",
            Stage::SamplingWalk => "sampling_walk",
            Stage::SnapshotBuild => "snapshot_build",
            Stage::SamplingBatch => "sampling_batch",
            Stage::Oracle => "oracle",
            Stage::Replication => "replication",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::WorkloadAdvance => 0,
            Stage::EngineTick => 1,
            Stage::SizeEstimate => 2,
            Stage::EstimatorEval => 3,
            Stage::SchedulerDecide => 4,
            Stage::SamplingWalk => 5,
            Stage::SnapshotBuild => 6,
            Stage::SamplingBatch => 7,
            Stage::Oracle => 8,
            Stage::Replication => 9,
        }
    }
}

struct StageStat {
    count: Counter,
    /// Nanoseconds in wall mode; simulation-tick units in deterministic
    /// mode (the two are never mixed within one run: `reset` between
    /// mode switches).
    total: AtomicU64,
}

impl StageStat {
    const fn new() -> Self {
        Self {
            count: Counter::new(),
            total: AtomicU64::new(0),
        }
    }
}

/// Array-repeat initialiser (atomics lack `Copy`); only used to seed the
/// `STATS` table below, never borrowed as a const.
#[allow(clippy::declare_interior_mutable_const)]
const STAGE_STAT: StageStat = StageStat::new();
static STATS: [StageStat; 10] = [STAGE_STAT; 10];

/// Accumulated totals for one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageReport {
    /// The stage.
    pub stage: Stage,
    /// Spans recorded.
    pub count: u64,
    /// Total duration: nanoseconds (wall mode) or ticks (deterministic).
    pub total: u64,
}

impl StageReport {
    /// Mean duration per span in the mode's unit (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }
}

/// Snapshot of every stage accumulator, in [`STAGES`] order.
#[must_use]
pub fn stage_reports() -> Vec<StageReport> {
    STAGES
        .iter()
        .map(|&stage| {
            let stat = &STATS[stage.index()];
            StageReport {
                stage,
                count: stat.count.get(),
                // relaxed-ok: read at quiescent points (post-join).
                total: stat.total.load(Ordering::Relaxed),
            }
        })
        .collect()
}

/// Clears every stage accumulator (between runs / mode switches).
pub fn reset_stages() {
    for stat in &STATS {
        stat.count.reset();
        stat.total.store(0, Ordering::Relaxed); // relaxed-ok: between runs
    }
}

/// RAII guard returned by [`span()`]; records the stage duration on drop.
#[derive(Debug)]
pub struct SpanGuard {
    stage: Stage,
    /// `Some` in wall mode only — deterministic mode never reads a clock.
    started_wall: Option<Instant>,
    started_tick: u64,
}

/// Opens a span over `stage`; the returned guard closes it when dropped.
#[must_use]
pub fn span(stage: Stage) -> SpanGuard {
    let started_wall = match clock_mode() {
        ClockMode::Wall => Some(Instant::now()),
        ClockMode::Deterministic => None,
    };
    SpanGuard {
        stage,
        started_wall,
        started_tick: crate::tick(),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = match self.started_wall {
            Some(start) => u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            None => crate::tick().saturating_sub(self.started_tick),
        };
        let stat = &STATS[self.stage.index()];
        stat.count.inc();
        stat.total.fetch_add(elapsed, Ordering::Relaxed); // relaxed-ok: monotone tally
                                                          // Deterministic-clock spans additionally surface as `span` events
                                                          // when trace export is on. Wall-mode durations never reach the
                                                          // event stream (they would break byte-level replay), and spans
                                                          // closed under suppression (worker threads) are skipped here and
                                                          // re-emitted post-join in slot order by the batch executor.
        if self.started_wall.is_none() {
            crate::emit_span_event(self.stage, elapsed);
        }
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

    #[test]
    fn deterministic_spans_measure_ticks_only() {
        // Default mode is deterministic; use a stage no other test (or
        // instrumented crate) touches within this test binary.
        reset_stages();
        crate::set_tick(10);
        {
            let _guard = span(Stage::Replication);
            crate::set_tick(13);
        }
        let report = stage_reports()
            .into_iter()
            .find(|r| r.stage == Stage::Replication)
            .unwrap();
        assert_eq!(report.count, 1);
        assert_eq!(report.total, 3);
        assert_eq!(report.mean(), 3.0);
    }

    #[test]
    fn stage_names_are_stable() {
        assert_eq!(STAGES.len(), 10);
        for (i, stage) in STAGES.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert!(!stage.name().is_empty());
        }
    }
}
