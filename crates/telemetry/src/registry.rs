//! The workspace metric registry.
//!
//! Every metric in the Digest workspace is declared here, in one place,
//! as a `static` handle with a dotted name (`<crate>.<subsystem>.<what>`).
//! Instrumented crates import the handles they touch; consumers (the CLI
//! summary table, the `bench_telemetry` profiler, tests) iterate
//! [`descriptors`] — declaration order is reporting order, so snapshots
//! are deterministic without any runtime registration machinery, and the
//! hot path stays a single static atomic access.
//!
//! Naming scheme (documented in DESIGN.md §10): lower-case dotted paths;
//! the first segment is the owning crate (`sampling`, `core`, `net`,
//! `db`, `stats`, `sim`); counters name events in the plural, gauges name
//! the measured quantity, histograms name the measured duration/size.

use crate::metric::{Counter, Gauge, Histogram};

// --- digest-sampling ---------------------------------------------------

/// Fresh walks launched (full mixing-length burn-in paid).
pub static SAMPLING_WALKS_FRESH: Counter = Counter::new();
/// Pooled walks continued (reset-length only).
pub static SAMPLING_WALKS_CONTINUED: Counter = Counter::new();
/// Metropolis–Hastings steps taken (including lazy and rejected steps).
pub static SAMPLING_WALK_STEPS: Counter = Counter::new();
/// Accepted M–H moves — each is one forwarding message (paper §V-A).
pub static SAMPLING_WALK_HOPS: Counter = Counter::new();
/// M–H proposals drawn (non-lazy steps with at least one neighbor).
pub static SAMPLING_MH_PROPOSALS: Counter = Counter::new();
/// M–H proposals accepted.
pub static SAMPLING_MH_ACCEPTS: Counter = Counter::new();
/// Lazy (stay-put) steps — the ½ self-loop of Eq. 12.
pub static SAMPLING_MH_LAZY: Counter = Counter::new();
/// Node samples delivered by the sampling operator.
pub static SAMPLING_SAMPLES: Counter = Counter::new();
/// Total sampling messages (walk hops + result reports).
pub static SAMPLING_MESSAGES: Counter = Counter::new();
/// Burn-in steps paid per sample (mixing length for fresh walks, reset
/// length for continued ones).
pub static SAMPLING_BURN_IN: Histogram = Histogram::new();
/// Occasion walk batches executed by the parallel executor.
pub static SAMPLING_WALK_BATCHES: Counter = Counter::new();
/// Walk slots per executed batch (the occasion panel size).
pub static SAMPLING_BATCH_SLOTS: Histogram = Histogram::new();
/// Occasion snapshots rebuilt (weight capture plus the M–H acceptance
/// and proposal tables over the graph's arena).
pub static SAMPLING_SNAPSHOT_BUILT: Counter = Counter::new();
/// Occasion snapshots served verbatim from the operator's cache (graph
/// epoch unchanged and weights equal).
pub static SAMPLING_SNAPSHOT_REUSED: Counter = Counter::new();
/// Retired: the snapshot has no patch path any more, so this always
/// reads 0. Kept registered because external benchmark harnesses still
/// read it.
pub static SAMPLING_SNAPSHOT_PATCHED: Counter = Counter::new();

// --- digest-core -------------------------------------------------------

/// Scheduler `next_delay` decisions taken.
pub static CORE_SCHEDULER_DECISIONS: Counter = Counter::new();
/// Distribution of scheduled inter-snapshot delays (ticks).
pub static CORE_SCHEDULER_DELAY: Histogram = Histogram::new();
/// Snapshot queries executed by engines.
pub static CORE_ENGINE_SNAPSHOTS: Counter = Counter::new();
/// Messages spent by engines (sampling + revisits + size estimation).
pub static CORE_ENGINE_MESSAGES: Counter = Counter::new();
/// Samples evaluated by engines (fresh + revisited).
pub static CORE_ENGINE_SAMPLES: Counter = Counter::new();
/// Retained panel members revisited by the RPT estimator.
pub static CORE_RPT_RETAINED: Counter = Counter::new();
/// Fresh draws made by the RPT estimator.
pub static CORE_RPT_FRESH: Counter = Counter::new();
/// Last observed RPT retained fraction `g` (Eq. 9's optimal split).
pub static CORE_RPT_RETAINED_FRACTION: Gauge = Gauge::new();
/// Capture–recapture relation-size refresh rounds.
pub static CORE_SIZE_REFRESHES: Counter = Counter::new();

// --- digest-net --------------------------------------------------------

/// Nodes that joined the overlay through churn.
pub static NET_CHURN_JOINS: Counter = Counter::new();
/// Nodes that left the overlay through churn.
pub static NET_CHURN_LEAVES: Counter = Counter::new();
/// BFS sweeps run by the path-length diagnostic.
pub static NET_PATH_BFS_RUNS: Counter = Counter::new();

// --- digest-db ---------------------------------------------------------

/// Local uniform tuple draws served by nodes.
pub static DB_LOCAL_SAMPLES: Counter = Counter::new();
/// In-place tuple updates applied.
pub static DB_UPDATES: Counter = Counter::new();

// --- digest-stats ------------------------------------------------------

/// PRED-k Taylor extrapolations computed.
pub static STATS_PRED_PREDICTIONS: Counter = Counter::new();
/// Extrapolations answered while still bootstrapping (forced delay 1).
pub static STATS_PRED_BOOTSTRAPS: Counter = Counter::new();

// --- digest-sim --------------------------------------------------------

/// Simulation ticks driven by the runner.
pub static SIM_TICKS: Counter = Counter::new();
/// Replications completed by the parallel harness.
pub static SIM_REPLICATIONS: Counter = Counter::new();
/// Ground-truth oracle passes over the database (one per distinct truth
/// key per tick in a mux run; one per tick in a solo run).
pub static SIM_ORACLE_PASSES: Counter = Counter::new();

/// A reference to one registered metric.
#[derive(Debug, Clone, Copy)]
pub enum MetricHandle {
    /// A counter.
    Counter(&'static Counter),
    /// A gauge.
    Gauge(&'static Gauge),
    /// A histogram.
    Histogram(&'static Histogram),
}

/// Name + handle of one registered metric.
#[derive(Debug, Clone, Copy)]
pub struct Descriptor {
    /// Dotted metric name (see the module docs for the scheme).
    pub name: &'static str,
    /// The metric itself.
    pub handle: MetricHandle,
}

/// Every registered metric, in declaration (= reporting) order.
#[must_use]
pub fn descriptors() -> &'static [Descriptor] {
    DESCRIPTORS
}

use MetricHandle as H;

static DESCRIPTORS: &[Descriptor] = &[
    Descriptor {
        name: "sampling.walks.fresh",
        handle: H::Counter(&SAMPLING_WALKS_FRESH),
    },
    Descriptor {
        name: "sampling.walks.continued",
        handle: H::Counter(&SAMPLING_WALKS_CONTINUED),
    },
    Descriptor {
        name: "sampling.walk.steps",
        handle: H::Counter(&SAMPLING_WALK_STEPS),
    },
    Descriptor {
        name: "sampling.walk.hops",
        handle: H::Counter(&SAMPLING_WALK_HOPS),
    },
    Descriptor {
        name: "sampling.mh.proposals",
        handle: H::Counter(&SAMPLING_MH_PROPOSALS),
    },
    Descriptor {
        name: "sampling.mh.accepts",
        handle: H::Counter(&SAMPLING_MH_ACCEPTS),
    },
    Descriptor {
        name: "sampling.mh.lazy",
        handle: H::Counter(&SAMPLING_MH_LAZY),
    },
    Descriptor {
        name: "sampling.samples",
        handle: H::Counter(&SAMPLING_SAMPLES),
    },
    Descriptor {
        name: "sampling.messages",
        handle: H::Counter(&SAMPLING_MESSAGES),
    },
    Descriptor {
        name: "sampling.burn_in",
        handle: H::Histogram(&SAMPLING_BURN_IN),
    },
    Descriptor {
        name: "sampling.walk_batches",
        handle: H::Counter(&SAMPLING_WALK_BATCHES),
    },
    Descriptor {
        name: "sampling.batch.slots",
        handle: H::Histogram(&SAMPLING_BATCH_SLOTS),
    },
    Descriptor {
        name: "sampling.snapshot.built",
        handle: H::Counter(&SAMPLING_SNAPSHOT_BUILT),
    },
    Descriptor {
        name: "sampling.snapshot.reused",
        handle: H::Counter(&SAMPLING_SNAPSHOT_REUSED),
    },
    Descriptor {
        name: "sampling.snapshot.patched",
        handle: H::Counter(&SAMPLING_SNAPSHOT_PATCHED),
    },
    Descriptor {
        name: "core.scheduler.decisions",
        handle: H::Counter(&CORE_SCHEDULER_DECISIONS),
    },
    Descriptor {
        name: "core.scheduler.delay",
        handle: H::Histogram(&CORE_SCHEDULER_DELAY),
    },
    Descriptor {
        name: "core.engine.snapshots",
        handle: H::Counter(&CORE_ENGINE_SNAPSHOTS),
    },
    Descriptor {
        name: "core.engine.messages",
        handle: H::Counter(&CORE_ENGINE_MESSAGES),
    },
    Descriptor {
        name: "core.engine.samples",
        handle: H::Counter(&CORE_ENGINE_SAMPLES),
    },
    Descriptor {
        name: "core.rpt.retained",
        handle: H::Counter(&CORE_RPT_RETAINED),
    },
    Descriptor {
        name: "core.rpt.fresh",
        handle: H::Counter(&CORE_RPT_FRESH),
    },
    Descriptor {
        name: "core.rpt.retained_fraction",
        handle: H::Gauge(&CORE_RPT_RETAINED_FRACTION),
    },
    Descriptor {
        name: "core.size.refreshes",
        handle: H::Counter(&CORE_SIZE_REFRESHES),
    },
    Descriptor {
        name: "net.churn.joins",
        handle: H::Counter(&NET_CHURN_JOINS),
    },
    Descriptor {
        name: "net.churn.leaves",
        handle: H::Counter(&NET_CHURN_LEAVES),
    },
    Descriptor {
        name: "net.path.bfs_runs",
        handle: H::Counter(&NET_PATH_BFS_RUNS),
    },
    Descriptor {
        name: "db.local_samples",
        handle: H::Counter(&DB_LOCAL_SAMPLES),
    },
    Descriptor {
        name: "db.updates",
        handle: H::Counter(&DB_UPDATES),
    },
    Descriptor {
        name: "stats.pred.predictions",
        handle: H::Counter(&STATS_PRED_PREDICTIONS),
    },
    Descriptor {
        name: "stats.pred.bootstraps",
        handle: H::Counter(&STATS_PRED_BOOTSTRAPS),
    },
    Descriptor {
        name: "sim.ticks",
        handle: H::Counter(&SIM_TICKS),
    },
    Descriptor {
        name: "sim.replications",
        handle: H::Counter(&SIM_REPLICATIONS),
    },
    Descriptor {
        name: "sim.oracle.passes",
        handle: H::Counter(&SIM_ORACLE_PASSES),
    },
];

/// Resets every registered metric (between runs; stage accumulators are
/// reset separately via [`crate::reset_stages`]).
pub fn reset_metrics() {
    for descriptor in descriptors() {
        match descriptor.handle {
            MetricHandle::Counter(c) => c.reset(),
            MetricHandle::Gauge(g) => g.reset(),
            MetricHandle::Histogram(h) => h.reset(),
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
    fn names_are_unique_dotted_and_ordered() {
        let descriptors = descriptors();
        assert!(descriptors.len() >= 25);
        let mut seen = std::collections::BTreeSet::new();
        for d in descriptors {
            assert!(d.name.contains('.'), "{} should be dotted", d.name);
            assert_eq!(d.name, d.name.to_lowercase(), "{} lower-case", d.name);
            assert!(seen.insert(d.name), "{} duplicated", d.name);
        }
    }

    #[test]
    fn handles_resolve_to_live_metrics() {
        // Bump one of each kind through the static, observe through the
        // descriptor (>= comparisons: other tests may bump them too).
        SAMPLING_WALK_HOPS.add(3);
        CORE_RPT_RETAINED_FRACTION.set(0.5);
        SAMPLING_BURN_IN.record(7);
        let by_name = |name: &str| {
            descriptors()
                .iter()
                .find(|d| d.name == name)
                .copied()
                .unwrap()
        };
        match by_name("sampling.walk.hops").handle {
            MetricHandle::Counter(c) => assert!(c.get() >= 3),
            _ => panic!("wrong kind"),
        }
        match by_name("core.rpt.retained_fraction").handle {
            MetricHandle::Gauge(g) => assert_eq!(g.get(), 0.5),
            _ => panic!("wrong kind"),
        }
        match by_name("sampling.burn_in").handle {
            MetricHandle::Histogram(h) => assert!(h.count() >= 1),
            _ => panic!("wrong kind"),
        }
    }
}
