//! Golden-trace regression test for the mux scheduler.
//!
//! Two sections, byte-compared against a checked-in fixture:
//!
//! * **planner** — replays the pure [`RoundPlanner`] over scripted
//!   per-member deadline periods, logging every round's due/pulled split.
//!   Any change to the coalescing rule (fire at earliest member deadline,
//!   pull within the horizon, never pull without a due member) shows up
//!   as a readable line diff.
//! * **mux** — drives a seeded shared [`QueryMux`] over a fixed world and
//!   logs each member's per-tick decision (snapshot or hold, shared round
//!   id, samples, messages, estimate). This pins the end-to-end scheduler
//!   × sizing × panel-sharing pipeline bit-for-bit.
//! * **mux mix** — the same over a drifting world with every member kind
//!   the mux serves: `AVG`, `SUM`, `COUNT(*) WHERE`, `MEDIAN`, `p90`, and
//!   an `AVG WHERE` whose predicate matches nothing on part of the run,
//!   so the hold path is pinned alongside the report path.
//! * **engine** — drives standalone [`DigestEngine`]s (PRED3+RPT,
//!   ALL+INDEP, MEDIAN's QUANTILE estimator, a sketch sweep, and SUM /
//!   COUNT across several relation-size refreshes) over the drifting
//!   world, logging each tick's outcome and the engine's `N̂`.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```bash
//! UPDATE_MUX_GOLDEN=1 cargo test -p digest-core --test mux_golden
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation
)]

use digest_core::{
    ContinuousQuery, DigestEngine, EngineConfig, EstimatorKind, MuxConfig, Precision, QueryMux,
    QuerySystem, RoundPlanner, SchedulerKind, TickContext, TickOutcome,
};
use digest_db::{Expr, P2PDatabase, Schema, Tuple, TupleHandle};
use digest_net::{topology, Graph, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/mux_decisions.txt"
);

/// Replays the planner over members with fixed re-arm periods: each
/// served member's next deadline is `tick + period`. Deterministic, no
/// randomness — the log is exactly the coalescing rule's output.
fn replay_planner(horizon: u64, periods: &[u64], ticks: u64, out: &mut String) {
    writeln!(out, "planner horizon={horizon} periods={periods:?}").unwrap();
    let mut planner = RoundPlanner::new(horizon);
    for id in 0..periods.len() as u64 {
        planner.register(id);
    }
    for tick in 0..ticks {
        let plan = planner.plan(tick);
        if plan.is_empty() {
            continue;
        }
        writeln!(
            out,
            "  t={tick:>3} due={:?} pulled={:?}",
            plan.due, plan.pulled
        )
        .unwrap();
        for &id in &plan.members() {
            planner.set_deadline(id, tick + periods[id as usize]);
        }
    }
    writeln!(out, "end planner").unwrap();
}

/// The fixed world the mux section runs on: a complete 8-node overlay,
/// 25 tuples per node around 50. Same construction as the mux unit
/// tests; pure seeded arithmetic, so the trace is bit-stable.
fn world(seed: u64) -> (Graph, P2PDatabase) {
    let graph = topology::complete(8).unwrap();
    let mut db = P2PDatabase::new(Schema::single("a"));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for v in 0..8 {
        db.register_node(NodeId(v));
        for _ in 0..25 {
            let value = 50.0 + rng.gen_range(-8.0..8.0);
            db.insert(NodeId(v), Tuple::single(value)).unwrap();
        }
    }
    (graph, db)
}

/// Drives a shared mux over the fixed world and logs every member's
/// per-tick decision. Round ids are renumbered from the first observed
/// one so the fixture does not depend on the process-global trace
/// counter.
fn replay_mux(out: &mut String) {
    writeln!(out, "mux sharing=on horizon=2 piggyback=on").unwrap();
    let (graph, db) = world(42);
    let mut mux = QueryMux::new(MuxConfig::default()).unwrap();
    let schema = Schema::single("a");
    for &(delta, eps, p) in &[(2.0, 1.0, 0.95), (4.0, 2.0, 0.90), (8.0, 4.0, 0.90)] {
        mux.register(ContinuousQuery::avg(
            Expr::first_attr(&schema),
            Precision::new(delta, eps, p).unwrap(),
        ))
        .unwrap();
    }
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut round_base: Option<u64> = None;
    for tick in 0..40 {
        let ctx = TickContext {
            tick,
            graph: &graph,
            db: &db,
            origin: NodeId(0),
        };
        let outcomes = mux.on_tick_mux(&ctx, &mut rng).unwrap();
        for o in &outcomes {
            let round = o.round.map(|r| {
                let base = *round_base.get_or_insert(r);
                r - base
            });
            writeln!(
                out,
                "  t={tick:>3} q={} snap={} round={} samples={} messages={} est={:.6}",
                o.query,
                u8::from(o.outcome.snapshot_executed),
                round.map_or_else(|| "-".to_owned(), |r| r.to_string()),
                o.outcome.samples_this_tick,
                o.outcome.messages_this_tick,
                o.outcome.estimate,
            )
            .unwrap();
        }
    }
    writeln!(out, "end mux").unwrap();
}

/// The fixed world of [`world`], plus the handles and base values that
/// let [`DriftingWorld::drift_to`] move every tuple by a common offset.
struct DriftingWorld {
    graph: Graph,
    db: P2PDatabase,
    tuples: Vec<(TupleHandle, f64)>,
}

impl DriftingWorld {
    fn new(seed: u64) -> Self {
        let graph = topology::complete(8).unwrap();
        let mut db = P2PDatabase::new(Schema::single("a"));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut tuples = Vec::new();
        for v in 0..8 {
            db.register_node(NodeId(v));
            for _ in 0..25 {
                let value = 50.0 + rng.gen_range(-8.0..8.0);
                tuples.push((db.insert(NodeId(v), Tuple::single(value)).unwrap(), value));
            }
        }
        Self { graph, db, tuples }
    }

    /// Sets every tuple to its base value plus a slow triangle-wave
    /// offset in `[-6, 12]`, starting at the crest: tuples above 62 exist
    /// only near it, so `a > 62` matches on the first ticks, then nothing
    /// for a stretch, then matches again.
    fn drift_to(&mut self, tick: u64) {
        let phase = ((tick + 12) % 24) as f64;
        let offset = if phase < 12.0 {
            -6.0 + 1.5 * phase
        } else {
            12.0 - 1.5 * (phase - 12.0)
        };
        for &(h, base) in &self.tuples {
            self.db.update(h, &[base + offset]).unwrap();
        }
    }

    fn ctx(&self, tick: u64) -> TickContext<'_> {
        TickContext {
            tick,
            graph: &self.graph,
            db: &self.db,
            origin: NodeId(0),
        }
    }
}

fn statement(text: &str) -> ContinuousQuery {
    ContinuousQuery::parse(text, &Schema::single("a")).unwrap()
}

fn log_outcome(out: &mut String, prefix: &str, o: &TickOutcome) {
    writeln!(
        out,
        "{prefix} snap={} upd={} samples={} fresh={} messages={} est={:.6}",
        u8::from(o.snapshot_executed),
        u8::from(o.updated),
        o.samples_this_tick,
        o.fresh_samples_this_tick,
        o.messages_this_tick,
        o.estimate,
    )
    .unwrap();
}

/// Every shared-mode member kind over the drifting world: panel members
/// (`AVG`, `SUM`, `COUNT(*) WHERE`, a transiently empty `AVG WHERE`) and
/// sweep members (`MEDIAN`, `p90`, a transiently empty `p90 WHERE`) in
/// one mux.
fn replay_mux_mix(out: &mut String) {
    writeln!(out, "mux mix sharing=on horizon=2 piggyback=on").unwrap();
    let mut world = DriftingWorld::new(43);
    let mut mux = QueryMux::new(MuxConfig::default()).unwrap();
    for text in [
        "SELECT AVG(a) FROM R WITH delta=2, epsilon=1, p=0.95",
        "SELECT SUM(a) FROM R WITH delta=800, epsilon=400, p=0.9",
        "SELECT COUNT(*) FROM R WHERE a > 52 WITH delta=40, epsilon=20, p=0.9",
        "SELECT MEDIAN(a) FROM R WITH delta=2, epsilon=1, p=0.95",
        "SELECT PERCENTILE(a, 0.9) FROM R WITH delta=2, epsilon=1, p=0.95",
        "SELECT AVG(a) FROM R WHERE a > 62 WITH delta=2, epsilon=1, p=0.9",
        "SELECT PERCENTILE(a, 0.9) FROM R WHERE a > 62 WITH delta=2, epsilon=1, p=0.95",
    ] {
        mux.register(statement(text)).unwrap();
    }
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let mut round_base: Option<u64> = None;
    for tick in 0..48 {
        world.drift_to(tick);
        let outcomes = mux.on_tick_mux(&world.ctx(tick), &mut rng).unwrap();
        for o in &outcomes {
            let round = o.round.map(|r| {
                let base = *round_base.get_or_insert(r);
                r - base
            });
            let prefix = format!(
                "  t={tick:>3} q={} round={}",
                o.query,
                round.map_or_else(|| "-".to_owned(), |r| r.to_string()),
            );
            log_outcome(out, &prefix, &o.outcome);
        }
    }
    for id in mux.query_ids() {
        let t = mux.query_totals(id).unwrap();
        writeln!(
            out,
            "  totals q={id} snapshots={} samples={} messages={}",
            t.snapshots, t.samples, t.messages
        )
        .unwrap();
    }
    writeln!(out, "end mux mix").unwrap();
}

/// Standalone engines over the drifting world, one per configuration
/// the engine serves differently.
fn replay_engines(out: &mut String) {
    let runs: [(&str, SchedulerKind, EstimatorKind); 7] = [
        (
            "SELECT AVG(a) FROM R WITH delta=2, epsilon=1, p=0.95",
            SchedulerKind::Pred(3),
            EstimatorKind::Repeated,
        ),
        (
            "SELECT AVG(a) FROM R WHERE a > 62 WITH delta=2, epsilon=1, p=0.9",
            SchedulerKind::All,
            EstimatorKind::Independent,
        ),
        (
            "SELECT MEDIAN(a) FROM R WITH delta=2, epsilon=1, p=0.95",
            SchedulerKind::Pred(3),
            EstimatorKind::Repeated,
        ),
        (
            "SELECT PERCENTILE(a, 0.9) FROM R WHERE a > 62 WITH delta=2, epsilon=1, p=0.95",
            SchedulerKind::Pred(2),
            EstimatorKind::Repeated,
        ),
        (
            "SELECT SUM(a) FROM R WITH delta=800, epsilon=400, p=0.9",
            SchedulerKind::All,
            EstimatorKind::Independent,
        ),
        (
            "SELECT COUNT(*) FROM R WHERE a > 46 WITH delta=40, epsilon=20, p=0.9",
            SchedulerKind::All,
            EstimatorKind::Repeated,
        ),
        (
            "SELECT SUM(a) FROM R WHERE a > 46 WITH delta=400, epsilon=200, p=0.9",
            SchedulerKind::Pred(3),
            EstimatorKind::Repeated,
        ),
    ];
    for (i, (text, scheduler, estimator)) in runs.into_iter().enumerate() {
        let mut world = DriftingWorld::new(44);
        let mut engine = DigestEngine::new(
            statement(text),
            EngineConfig {
                scheduler,
                estimator,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        writeln!(out, "engine {} {}", engine.name(), engine.query()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9 + i as u64);
        for tick in 0..36 {
            world.drift_to(tick);
            let o = engine.on_tick(&world.ctx(tick), &mut rng).unwrap();
            let size = engine
                .size_estimate()
                .map_or_else(|| "-".to_owned(), |n| format!("{n:.3}"));
            log_outcome(out, &format!("  t={tick:>3} n={size}"), &o);
        }
        writeln!(
            out,
            "  totals snapshots={} samples={} messages={} next_due={:?}",
            engine.total_snapshots(),
            engine.total_samples(),
            engine.total_messages(),
            engine.next_due(36),
        )
        .unwrap();
    }
    writeln!(out, "end engine").unwrap();
}

fn decision_trace() -> String {
    let mut out = String::new();
    out.push_str("mux golden decision trace v1\n");
    // Immediate-due bootstrap, then staggered periods around one another:
    // exercises pull-forward (periods 5/6 within horizon 2) and isolated
    // fires (period 13).
    replay_planner(2, &[5, 6, 13], 60, &mut out);
    // Horizon 0 disables pulling entirely.
    replay_planner(0, &[5, 6, 13], 60, &mut out);
    // A tight member (period 1) drags a loose one (period 9) along only
    // when deadlines actually land within the horizon.
    replay_planner(3, &[1, 9], 30, &mut out);
    replay_mux(&mut out);
    replay_mux_mix(&mut out);
    replay_engines(&mut out);
    out
}

#[test]
fn mux_scheduler_decisions_match_golden_trace() {
    let trace = decision_trace();
    if std::env::var("UPDATE_MUX_GOLDEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, &trace).unwrap();
        eprintln!("updated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden fixture missing — run with UPDATE_MUX_GOLDEN=1 to create it");
    if trace == golden {
        return;
    }
    for (i, (got, want)) in trace.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "mux golden trace diverged at line {} (see {})",
            i + 1,
            GOLDEN_PATH,
        );
    }
    panic!(
        "mux golden trace length changed: got {} lines, fixture has {} (see {})",
        trace.lines().count(),
        golden.lines().count(),
        GOLDEN_PATH,
    );
}
