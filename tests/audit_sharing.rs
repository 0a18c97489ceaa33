//! Ledger sharing in `MuxAudit` is invisible in the reports: members with
//! one `(expression, predicate, ε)` key read a single message ledger, yet
//! every member's end-of-run report must be byte-identical to a
//! standalone `QueryAudit` fed the same ticks — including a member that
//! arrives after the first observed tick (it must not inherit the shared
//! ledger's history) and one that departs mid-run (its totals freeze at
//! its last observe while the ledger it shared keeps counting).

use digest::audit::{MuxAudit, QueryAudit};
use digest::core::{
    AggregateOp, ContinuousQuery, MuxConfig, MuxObserver, Precision, QueryMux, TickContext,
};
use digest::db::{Expr, Predicate};
use digest::workload::{
    MemoryConfig, MemoryWorkload, TemperatureConfig, TemperatureWorkload, Workload,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

const TICKS: u64 = 40;
const LATE_TICK: u64 = 10;
const LEAVE_TICK: u64 = 25;

/// Members differing in ε, predicate and expression, plus one pair that
/// shares a key under different (δ, p).
fn initial_queries(w: &dyn Workload, attr: &str, cut: f64) -> Vec<ContinuousQuery> {
    let schema = w.db().schema();
    let first = Expr::first_attr(schema);
    let precision = |d, e, p| Precision::new(d, e, p).unwrap();
    vec![
        ContinuousQuery::avg(first.clone(), precision(4.0, 2.0, 0.95)),
        ContinuousQuery::avg(first.clone(), precision(8.0, 2.0, 0.90)),
        ContinuousQuery::avg(first.clone(), precision(8.0, 4.0, 0.90)),
        ContinuousQuery::avg(first.clone(), precision(4.0, 2.0, 0.95))
            .with_predicate(Predicate::parse(&format!("{attr} > {cut}"), schema).unwrap()),
        ContinuousQuery::new(
            AggregateOp::Sum,
            Expr::parse(&format!("{attr} * 0.5"), schema).unwrap(),
            precision(400.0, 200.0, 0.95),
        ),
    ]
}

/// Registers `q` with the mux, the shared audit and a standalone audit.
fn register(
    mux: &mut QueryMux,
    shared: &mut MuxAudit,
    solo: &mut BTreeMap<u64, QueryAudit>,
    q: ContinuousQuery,
) -> u64 {
    let id = mux.register(q).unwrap();
    let q = mux.query(id).unwrap();
    shared.register(id, q).unwrap();
    solo.insert(id, QueryAudit::new(q, id).unwrap());
    id
}

/// Drives a shared mux directly for `TICKS` ticks, feeding one `MuxAudit`
/// and one standalone `QueryAudit` per member, and checks the reports.
fn check_sharing(mut world: Box<dyn Workload>, attr: &str, cut: f64) {
    let queries = initial_queries(world.as_ref(), attr, cut);
    let late_query = queries[0].clone();
    let mut mux = QueryMux::new(MuxConfig {
        sharing: true,
        ..MuxConfig::default()
    })
    .unwrap();
    let mut shared = MuxAudit::new();
    let mut solo: BTreeMap<u64, QueryAudit> = BTreeMap::new();
    let ids: Vec<u64> = queries
        .into_iter()
        .map(|q| register(&mut mux, &mut shared, &mut solo, q))
        .collect();
    // Members 0 and 1 share a key; 2 (ε), 3 (predicate), 4 (expression)
    // each need their own ledger.
    assert_eq!(shared.ledgers(), 4);

    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    let mut origin = world.graph().nodes().next().unwrap();
    let mut late_id = None;
    for tick in 0..TICKS {
        if tick == LATE_TICK {
            late_id = Some(register(
                &mut mux,
                &mut shared,
                &mut solo,
                late_query.clone(),
            ));
            // Same key as member 0, but that ledger has history: a fresh
            // one is opened.
            assert_eq!(shared.ledgers(), 5);
        }
        if tick == LEAVE_TICK {
            mux.deregister(ids[1]);
        }
        world.advance(&mut rng);
        if !world.graph().contains(origin) {
            origin = world.graph().random_node(&mut rng).unwrap();
        }
        let ctx = TickContext {
            tick,
            graph: world.graph(),
            db: world.db(),
            origin,
        };
        let outcomes = mux.on_tick_mux(&ctx, &mut rng).unwrap();
        for o in &outcomes {
            let exact = mux
                .query(o.query)
                .and_then(|q| q.oracle(ctx.db))
                .unwrap_or(f64::NAN);
            shared.observe_query(o.query, &ctx, &o.outcome, exact, o.round);
            solo.get_mut(&o.query)
                .unwrap()
                .observe_with_round(&ctx, &o.outcome, exact, o.round);
        }
    }

    assert_eq!(shared.ids(), solo.keys().copied().collect::<Vec<_>>());
    for (id, audit) in &solo {
        let want = audit.report();
        let got = shared.report(*id).unwrap();
        assert_eq!(
            got.to_json_value().to_string(),
            want.to_json_value().to_string(),
            "member {id}: shared-ledger report differs from a standalone audit"
        );
    }
    let departed = shared.report(ids[1]).unwrap();
    assert_eq!(departed.ticks, LEAVE_TICK);
    let late = shared.report(late_id.unwrap()).unwrap();
    assert_eq!(late.ticks, TICKS - LATE_TICK);
    // The late member's ledger starts from scratch: its first observe
    // ships every qualifying tuple again, so it never matches the
    // long-running member's count of the same key.
    assert_ne!(
        late.all_messages,
        shared.report(ids[0]).unwrap().all_messages
    );
}

#[test]
fn shared_ledgers_report_like_standalone_audits_on_temperature() {
    let world = TemperatureWorkload::new(TemperatureConfig {
        seed: 3,
        ..TemperatureConfig::reduced(400, 5, 8, TICKS)
    });
    check_sharing(Box::new(world), "temperature", 60.0);
}

#[test]
fn shared_ledgers_report_like_standalone_audits_under_churn() {
    let world = MemoryWorkload::new(MemoryConfig {
        seed: 3,
        ..MemoryConfig::reduced(300, 120, TICKS)
    });
    check_sharing(Box::new(world), "memory", 512.0);
}
