//! Property-based tests of the query-engine building blocks.

// Tests may panic freely; the workspace deny-lints target library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]

use digest_core::{AggregateOp, ContinuousQuery, PanelKey, Precision, RoundPlanner, TruthTable};
use digest_core::{AllScheduler, PredScheduler, SnapshotScheduler};
use digest_db::expr::BinOp;
use digest_db::{CmpOp, Expr, P2PDatabase, Predicate, Schema, Tuple};
use digest_net::NodeId;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Float constants the truth keys are built from: signed zeros and NaN
/// are the ones `PartialEq` would conflate or never match.
const CONSTANTS: [f64; 5] = [0.0, -0.0, f64::NAN, 2.5, -7.0];

/// Attribute values: a coarse grid (so cells and order statistics tie)
/// plus signed zeros, NaN and infinities.
fn value(code: u32) -> f64 {
    match code {
        0 => -0.0,
        1 => f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        _ => f64::from(code) / 4.0 - 25.0,
    }
}

/// `a`, `a * c`, `a + b`, `1 / (a * c)` or `-(b - c)`.
fn expr(schema: &Schema, shape: usize, c: f64) -> Expr {
    let a = Expr::attr(schema, "a").unwrap();
    let b = Expr::attr(schema, "b").unwrap();
    match shape {
        0 => a,
        1 => Expr::binary(BinOp::Mul, a, Expr::Const(c)),
        2 => Expr::binary(BinOp::Add, a, b),
        3 => Expr::binary(
            BinOp::Div,
            Expr::Const(1.0),
            Expr::binary(BinOp::Mul, a, Expr::Const(c)),
        ),
        _ => -Expr::binary(BinOp::Sub, b, Expr::Const(c)),
    }
}

/// No `WHERE`, `a > c`, a predicate nothing satisfies, `b <= c or
/// not a = c`, or `a + c > 0`.
fn predicate(schema: &Schema, shape: usize, c: f64) -> Predicate {
    let a = || Expr::attr(schema, "a").unwrap();
    let b = || Expr::attr(schema, "b").unwrap();
    match shape {
        0 => Predicate::True,
        1 => Predicate::cmp(CmpOp::Gt, a(), Expr::Const(c)),
        2 => Predicate::cmp(CmpOp::Gt, a(), Expr::Const(1e300)),
        3 => Predicate::cmp(CmpOp::Le, b(), Expr::Const(c)).or(Predicate::cmp(
            CmpOp::Eq,
            a(),
            Expr::Const(c),
        )
        .not()),
        _ => Predicate::cmp(CmpOp::Gt, a() + Expr::Const(c), Expr::Const(0.0)),
    }
}

/// All seven aggregate kinds; `param` picks the rank or `k`.
fn op(kind: usize, param: u16) -> AggregateOp {
    match kind {
        0 => AggregateOp::Avg,
        1 => AggregateOp::Sum,
        2 => AggregateOp::Count,
        3 => AggregateOp::Median,
        4 => AggregateOp::Percentile {
            q_permille: 1 + param % 999,
        },
        5 => AggregateOp::Distinct,
        _ => AggregateOp::TopK { k: 1 + param % 6 },
    }
}

/// A database over `nodes` nodes holding `rows` round-robin, with the
/// nodes whose bit is set in `departed` removed again (tuples and all).
fn database(schema: &Schema, nodes: u32, rows: &[(u32, u32)], departed: u32) -> P2PDatabase {
    let mut db = P2PDatabase::new(schema.clone());
    for node in 0..nodes {
        // Sparse ids: departed and never-registered slots interleave.
        db.register_node(NodeId(2 * node));
    }
    for (i, &(a, b)) in rows.iter().enumerate() {
        let node = NodeId(2 * (i as u32 % nodes));
        db.insert(node, Tuple::new(vec![value(a), value(b)]))
            .unwrap();
    }
    for node in 0..nodes {
        if departed & (1 << node) != 0 {
            db.remove_node(NodeId(2 * node)).unwrap();
        }
    }
    db
}

/// The per-op oracle as first written, one scan per query: the `exact_*`
/// database oracles for the moments, and the original collecting loops
/// for the order statistics and value cells.
fn reference_oracle(q: &ContinuousQuery, db: &P2PDatabase) -> Option<f64> {
    match q.op {
        AggregateOp::Avg => db.exact_avg_where(&q.expr, &q.predicate).ok(),
        AggregateOp::Sum => db.exact_sum_where(&q.expr, &q.predicate).ok(),
        AggregateOp::Count => db.exact_count_where(&q.predicate).ok().map(|c| c as f64),
        AggregateOp::Median | AggregateOp::Percentile { .. } => {
            let rank = q.op.quantile_rank()?;
            let mut values = Vec::new();
            for (_, tuple) in db.iter() {
                if q.predicate.eval(tuple).ok()? {
                    values.push(q.expr.eval(tuple).ok()?);
                }
            }
            if values.is_empty() {
                return None;
            }
            values.sort_by(f64::total_cmp);
            digest_stats::sample_quantile(&values, rank).ok()
        }
        AggregateOp::Distinct => {
            let mut cells = BTreeSet::new();
            for (_, tuple) in db.iter() {
                if q.predicate.eval(tuple).ok()? {
                    cells.insert(digest_sketch::value_cell(q.expr.eval(tuple).ok()?));
                }
            }
            Some(cells.len() as f64)
        }
        AggregateOp::TopK { k } => {
            let mut counts: BTreeMap<i64, u64> = BTreeMap::new();
            let mut total: u64 = 0;
            for (_, tuple) in db.iter() {
                if q.predicate.eval(tuple).ok()? {
                    let cell = digest_sketch::value_cell(q.expr.eval(tuple).ok()?);
                    *counts.entry(cell).or_insert(0) += 1;
                    total += 1;
                }
            }
            if total == 0 {
                return None;
            }
            let mut entries: Vec<(i64, u64)> = counts.into_iter().collect();
            entries.sort_by(|(ka, ca), (kb, cb)| cb.cmp(ca).then(ka.cmp(kb)));
            let top: u64 = entries.iter().take(usize::from(k)).map(|(_, c)| *c).sum();
            Some((top as f64 / total as f64).clamp(0.0, 1.0))
        }
    }
}

proptest! {
    #[test]
    fn precision_accepts_exactly_the_legal_domain(
        delta in -10.0f64..10.0,
        epsilon in -10.0f64..10.0,
        confidence in -0.5f64..1.5,
    ) {
        let legal = delta > 0.0 && epsilon > 0.0 && confidence > 0.0 && confidence < 1.0;
        prop_assert_eq!(Precision::new(delta, epsilon, confidence).is_ok(), legal);
    }

    #[test]
    fn target_variance_is_positive_and_monotone(
        epsilon in 0.01f64..10.0,
        confidence in 0.5f64..0.99,
    ) {
        let p = Precision::new(1.0, epsilon, confidence).unwrap();
        let v = p.target_variance().unwrap();
        prop_assert!(v > 0.0);
        let tighter = Precision::new(1.0, epsilon / 2.0, confidence).unwrap();
        prop_assert!(tighter.target_variance().unwrap() < v);
    }

    #[test]
    fn all_scheduler_always_says_one(delta in 0.001f64..100.0, obs in 0u64..50) {
        let mut s = AllScheduler::new();
        for t in 0..obs {
            s.observe(t as f64, t as f64);
        }
        prop_assert_eq!(s.next_delay(delta).unwrap(), 1);
    }

    #[test]
    fn pred_scheduler_delay_is_bounded_and_monotone_in_delta(
        k in 1usize..5,
        slope in -5.0f64..5.0,
        delta in 0.1f64..50.0,
    ) {
        let mut s = PredScheduler::new(k).unwrap();
        for t in 0..(k as u64 + 4) {
            s.observe(t as f64, slope * t as f64);
        }
        let d1 = s.next_delay(delta).unwrap();
        let d2 = s.next_delay(delta * 2.0).unwrap();
        prop_assert!(d1 >= 1);
        prop_assert!(d2 >= d1, "looser δ must not schedule sooner: {d1} vs {d2}");
    }

    #[test]
    fn query_display_round_trips_predicate_and_expression(
        threshold in -100.0f64..100.0,
        delta in 0.1f64..10.0,
    ) {
        let schema = Schema::new(["a", "b"]);
        let q = ContinuousQuery::new(
            AggregateOp::Sum,
            Expr::parse("a + b * 2", &schema).unwrap(),
            Precision::new(delta, 1.0, 0.9).unwrap(),
        )
        .with_predicate(
            Predicate::parse(&format!("a > {threshold}"), &schema).unwrap(),
        );
        let shown = q.to_string();
        prop_assert!(shown.contains("SUM"));
        prop_assert!(shown.contains("WHERE"));
        // The displayed predicate reparses to an equivalent one.
        let inner = shown.split("WHERE ").nth(1).unwrap().split(" [").next().unwrap();
        let reparsed = Predicate::parse(inner, &schema).unwrap();
        for a in [-200.0, threshold - 0.5, threshold + 0.5, 200.0] {
            let t = digest_db::Tuple::new(vec![a, 0.0]);
            prop_assert_eq!(reparsed.eval(&t).unwrap(), q.predicate.eval(&t).unwrap());
        }
    }

    /// A coalesced round never serves a member *later* than its own
    /// PRED-k deadline: for every tick and every registered query, if the
    /// deadline is `≤ tick` the query appears in `due`; and nothing is
    /// pulled past the horizon.
    #[test]
    fn planner_never_serves_a_member_late(
        horizon in 0u64..6,
        // 0..40 = a concrete deadline; ≥ 40 = never scheduled (the
        // vendored proptest has no Option strategy).
        deadlines in proptest::collection::vec(
            (0u64..48).prop_map(|v| if v >= 40 { None } else { Some(v) }),
            1..12,
        ),
        tick in 0u64..45,
    ) {
        let mut planner = RoundPlanner::new(horizon);
        for (id, deadline) in deadlines.iter().enumerate() {
            let id = id as u64;
            planner.register(id);
            if let Some(d) = deadline {
                planner.set_deadline(id, *d);
            }
        }
        let plan = planner.plan(tick);
        for (id, deadline) in deadlines.iter().enumerate() {
            let id = id as u64;
            let overdue = deadline.is_none_or(|d| d <= tick);
            prop_assert_eq!(
                plan.due.contains(&id),
                overdue,
                "query {} with deadline {:?} at tick {}: due must equal overdue",
                id, deadline, tick
            );
        }
        for &id in &plan.pulled {
            let d = deadlines[id as usize].unwrap();
            prop_assert!(
                d > tick && d <= tick + horizon,
                "pulled query {id} has deadline {d} outside ({tick}, {}]",
                tick + horizon
            );
        }
        // Pulling without a due member would waste an occasion.
        if plan.due.is_empty() {
            prop_assert!(plan.pulled.is_empty());
        }
        // Members are each listed exactly once, ascending.
        let members = plan.members();
        let mut deduped = members.clone();
        deduped.dedup();
        prop_assert_eq!(&members, &deduped);
    }

    /// Panel-sharing keys form an equivalence relation over queries:
    /// reflexive and symmetric for arbitrary (op, predicate, precision)
    /// combinations, and never compatible with size-estimation panels.
    #[test]
    fn panel_keys_are_reflexive_and_symmetric(
        op_a in 0usize..3,
        op_b in 0usize..3,
        // Thresholds above 50 mean "no predicate".
        pred_a in (-50.0f64..70.0).prop_map(|v| (v <= 50.0).then_some(v)),
        pred_b in (-50.0f64..70.0).prop_map(|v| (v <= 50.0).then_some(v)),
        delta in 0.1f64..10.0,
    ) {
        let schema = Schema::new(["a", "b"]);
        let ops = [AggregateOp::Avg, AggregateOp::Sum, AggregateOp::Count];
        let build = |op: usize, pred: Option<f64>| {
            let mut q = ContinuousQuery::new(
                ops[op],
                Expr::parse("a + b", &schema).unwrap(),
                Precision::new(delta, 1.0, 0.9).unwrap(),
            );
            if let Some(threshold) = pred {
                q = q.with_predicate(
                    Predicate::parse(&format!("a > {threshold}"), &schema).unwrap(),
                );
            }
            q
        };
        let qa = build(op_a, pred_a);
        let qb = build(op_b, pred_b);
        let ka = PanelKey::for_query(&qa);
        let kb = PanelKey::for_query(&qb);
        prop_assert!(ka.shares_panel(&ka), "reflexive");
        prop_assert_eq!(ka.shares_panel(&kb), kb.shares_panel(&ka), "symmetric");
        // All tuple-expression aggregates share the uniform-over-tuples
        // panel (§V), while size-estimation panels never mix in.
        prop_assert!(ka.shares_panel(&kb));
        prop_assert!(!ka.shares_panel(&PanelKey::size_estimation()));
        prop_assert!(!PanelKey::size_estimation().shares_panel(&kb));
    }

    /// The shared truth table hands every member exactly the bits of its
    /// own per-op reference oracle — across duplicate and distinct keys,
    /// signed-zero and NaN constants, empty `WHERE` sets and departed
    /// nodes — and keeps doing so when its scratch is reused on a second
    /// database. A member may bring a twin whose expression constant has
    /// the opposite sign bit (`0.0` against `-0.0`), which must get a
    /// pass of its own.
    #[test]
    fn truth_table_matches_per_query_oracles_bit_for_bit(
        members in proptest::collection::vec(
            (
                0usize..7,
                (0usize..5, 0usize..5, 0usize..2),
                (0usize..5, 0usize..5),
                0u16..1000,
            ),
            1..12,
        ),
        nodes in 1u32..6,
        rows in proptest::collection::vec((0u32..200, 0u32..200), 0..60),
        departed in (0u32..64, 0u32..64),
        split in 0usize..60,
    ) {
        let schema = Schema::new(["a", "b"]);
        let queries: Vec<ContinuousQuery> = members
            .iter()
            .flat_map(|&(kind, (shape, ce, twin), (pshape, cp), param)| {
                let c = CONSTANTS[ce];
                let constants = if twin == 1 { vec![c, -c] } else { vec![c] };
                let schema = &schema;
                constants.into_iter().map(move |c| {
                    ContinuousQuery::new(
                        op(kind, param),
                        expr(schema, shape, c),
                        Precision::new(1.0, 1.0, 0.9).unwrap(),
                    )
                    .with_predicate(predicate(schema, pshape, CONSTANTS[cp]))
                })
            })
            .collect();
        let mut table = TruthTable::new(&queries);
        prop_assert!(table.passes() >= 1 && table.passes() <= queries.len());

        // Evaluate twice on different databases: the second pass reuses
        // (and must fully overwrite) the first one's scratch.
        let split = split.min(rows.len());
        for (db_rows, gone) in [(&rows[..], departed.0), (&rows[split..], departed.1)] {
            let db = database(&schema, nodes, db_rows, gone);
            table.evaluate(&db);
            for (i, q) in queries.iter().enumerate() {
                let expected = reference_oracle(q, &db).map(f64::to_bits);
                prop_assert_eq!(table.truth(i).map(f64::to_bits), expected, "table, {}", q);
                prop_assert_eq!(q.oracle(&db).map(f64::to_bits), expected, "oracle, {}", q);
            }
        }
    }
}
