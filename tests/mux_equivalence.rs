//! Multi-query serving equivalence: the `QueryMux` must be a pure
//! refactor of N independent engines when panel sharing is off, and must
//! keep every member's `(ε, p)` contract (audited against the oracle)
//! when sharing is on — at every worker count, with a byte-identical
//! telemetry trace across worker counts. The mux runner's shared
//! ground truth must equal each member's own oracle, bit for bit.
//!
//! Everything lives in one `#[test]` because the telemetry sink is
//! process-global: integration-test binaries are separate processes, but
//! tests inside one binary share the registry, and the byte-diff section
//! must own the sink exclusively.

use digest::audit::MuxAudit;
use digest::core::{
    AggregateOp, ContinuousQuery, DigestEngine, EngineConfig, MuxConfig, NoopMuxObserver,
    Precision, QueryMux, QuerySystem, TickContext,
};
use digest::db::{Expr, Predicate};
use digest::sim::{run_mux, RunConfig, TraceRecord};
use digest::workload::{
    MemoryConfig, MemoryWorkload, TemperatureConfig, TemperatureWorkload, Workload,
};
use digest_telemetry::{registry, MemorySink};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

const SEEDS: [u64; 12] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233];
const WORKERS: [usize; 2] = [1, 4];
const TICKS: u64 = 40;

fn workload(seed: u64) -> TemperatureWorkload {
    TemperatureWorkload::new(TemperatureConfig {
        seed,
        ..TemperatureConfig::reduced(400, 5, 8, TICKS)
    })
}

/// Heterogeneous member contracts: two plain AVGs at different (δ, ε, p),
/// one predicate AVG, a SUM (scaled by `N̂`) and a `COUNT(*) WHERE`
/// (scaled by `N̂` and the decayed selectivity) — all consuming the same
/// shared panel.
fn queries(w: &TemperatureWorkload) -> Vec<ContinuousQuery> {
    let schema = w.db().schema();
    let statement = |text: &str| ContinuousQuery::parse(text, schema).unwrap();
    vec![
        ContinuousQuery::avg(
            Expr::first_attr(schema),
            Precision::new(4.0, 2.0, 0.95).unwrap(),
        ),
        ContinuousQuery::avg(
            Expr::first_attr(schema),
            Precision::new(8.0, 4.0, 0.90).unwrap(),
        ),
        ContinuousQuery::avg(
            Expr::first_attr(schema),
            Precision::new(4.0, 3.0, 0.90).unwrap(),
        )
        .with_predicate(Predicate::parse("temperature > 60", schema).unwrap()),
        statement("SELECT SUM(temperature) FROM R WITH delta=2000, epsilon=1000, p=0.9"),
        statement(
            "SELECT COUNT(*) FROM R WHERE temperature > 60 WITH delta=100, epsilon=50, p=0.9",
        ),
    ]
}

fn mux_config(sharing: bool) -> MuxConfig {
    MuxConfig {
        sharing,
        ..MuxConfig::default()
    }
}

/// Per-query record streams of a mux run, every field as bits.
fn mux_streams(seed: u64, workers: usize, sharing: bool) -> Vec<Vec<[u64; 8]>> {
    let mut w = workload(seed);
    let mut mux = QueryMux::new(mux_config(sharing)).unwrap();
    for q in queries(&w) {
        mux.register(q).unwrap();
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD16E57);
    let reports = run_mux(
        &mut w,
        &mut mux,
        RunConfig {
            sampling_workers: Some(workers),
            ..RunConfig::for_ticks(TICKS)
        },
        &mut rng,
        &mut NoopMuxObserver,
    )
    .unwrap();
    reports
        .iter()
        .map(|r| r.records.iter().map(record_bits).collect())
        .collect()
}

/// The same run shape, but N standalone engines driven in query order,
/// each scored by its own oracle — exactly what a driver without a mux
/// would do.
fn independent_streams(seed: u64, workers: usize) -> Vec<Vec<[u64; 8]>> {
    let mut w = workload(seed);
    let mut engines: Vec<DigestEngine> = queries(&w)
        .into_iter()
        .map(|q| {
            let config = mux_config(false);
            let mut e = DigestEngine::new(
                q,
                EngineConfig {
                    scheduler: config.scheduler,
                    estimator: config.estimator,
                    sampling: config.sampling,
                    rpt: config.rpt,
                    size_refresh_interval: config.size_refresh_rounds,
                    size_sample_target: config.size_sample_target,
                },
            )
            .unwrap();
            e.set_sampling_workers(workers);
            e
        })
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD16E57);
    let mut origin = w.graph().nodes().next().unwrap();
    let mut streams = vec![Vec::new(); engines.len()];
    for tick in 0..TICKS {
        w.advance(&mut rng);
        if !w.graph().contains(origin) {
            origin = w.graph().random_node(&mut rng).unwrap();
        }
        let ctx = TickContext {
            tick,
            graph: w.graph(),
            db: w.db(),
            origin,
        };
        for (engine, stream) in engines.iter_mut().zip(streams.iter_mut()) {
            let o = engine.on_tick(&ctx, &mut rng).unwrap();
            let exact = engine
                .oracle_truth(&ctx)
                .unwrap_or_else(|| w.exact_aggregate());
            stream.push(record_bits(&TraceRecord {
                tick,
                exact,
                estimate: o.estimate,
                updated: o.updated,
                snapshot: o.snapshot_executed,
                samples: o.samples_this_tick,
                fresh_samples: o.fresh_samples_this_tick,
                messages: o.messages_this_tick,
            }));
        }
    }
    streams
}

/// Sharing off ⇒ `run_mux` over the mux — the CLI's path without `--mux`
/// — is byte-for-byte the N-independent-engines driver, every record
/// field included (so SUM/COUNT pin `N̂` and the selectivity too), for
/// every seed and worker count.
fn check_unshared_identity() {
    for &seed in &SEEDS {
        for &workers in &WORKERS {
            let mux = mux_streams(seed, workers, false);
            let solo = independent_streams(seed, workers);
            assert_eq!(
                mux, solo,
                "unshared mux diverged from independent engines (seed {seed}, workers {workers})"
            );
        }
    }
}

/// Sharing on ⇒ every AVG member's audited ε-violation rate stays within
/// its own binomial bound (aggregated across seeds for statistical
/// power), and every member's stream is worker-count independent. The
/// SUM and COUNT members ride along ungated: their panels are sized for ε
/// on the AVG scale and `N̂` is never sized for ε at all, so they miss
/// their contracts today (ROADMAP item 1 fixes that sizing and gates
/// them).
fn check_shared_contract() {
    let n_queries = 3;
    let mut violations = vec![0u64; n_queries];
    let mut occasions = vec![0u64; n_queries];
    let mut confidences = vec![0.0f64; n_queries];
    for &seed in &SEEDS {
        let mut per_worker = Vec::new();
        for &workers in &WORKERS {
            let mut w = workload(seed);
            let qs = queries(&w);
            let mut mux = QueryMux::new(mux_config(true)).unwrap();
            let mut audit = MuxAudit::new();
            for q in qs {
                let id = mux.register(q).unwrap();
                audit.register(id, mux.query(id).unwrap()).unwrap();
            }
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5A4ED);
            let reports = run_mux(
                &mut w,
                &mut mux,
                RunConfig {
                    sampling_workers: Some(workers),
                    ..RunConfig::for_ticks(TICKS)
                },
                &mut rng,
                &mut audit,
            )
            .unwrap();
            per_worker.push(
                reports
                    .iter()
                    .map(|r| {
                        r.records
                            .iter()
                            .map(|t| t.estimate.to_bits())
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>(),
            );
            if workers == WORKERS[0] {
                for (i, (_, report)) in audit.reports().into_iter().take(n_queries).enumerate() {
                    violations[i] += report.violations;
                    occasions[i] += report.occasions;
                    confidences[i] = report.confidence;
                }
            }
        }
        assert_eq!(
            per_worker[0], per_worker[1],
            "shared mux estimates diverged across worker counts (seed {seed})"
        );
    }
    for i in 0..n_queries {
        assert!(
            occasions[i] >= 40,
            "query {i}: too few audited occasions ({})",
            occasions[i]
        );
        let n = occasions[i] as f64;
        let p = confidences[i];
        let rate = violations[i] as f64 / n;
        let bound = (1.0 - p) + 3.0 * (p * (1.0 - p) / n).sqrt();
        assert!(
            rate <= bound,
            "query {i}: audited violation rate {rate:.4} exceeds (1-p) + 3σ = {bound:.4} \
             over {n} occasions"
        );
    }
}

/// One audited, sink-captured shared run; returns the JSONL lines.
fn traced_lines(workers: usize) -> Vec<String> {
    digest_telemetry::reset_run_state();
    let buffer = MemorySink::new();
    digest_telemetry::install_sink(Box::new(buffer.clone()));

    let mut w = workload(7);
    let qs = queries(&w);
    let mut mux = QueryMux::new(mux_config(true)).unwrap();
    let mut audit = MuxAudit::new();
    for q in qs {
        let id = mux.register(q).unwrap();
        audit.register(id, mux.query(id).unwrap()).unwrap();
    }
    let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF);
    run_mux(
        &mut w,
        &mut mux,
        RunConfig {
            sampling_workers: Some(workers),
            ..RunConfig::for_ticks(TICKS)
        },
        &mut rng,
        &mut audit,
    )
    .unwrap();

    digest_telemetry::flush();
    digest_telemetry::take_sink();
    buffer.lines()
}

/// The audited mux trace must be byte-identical across worker counts and
/// must carry the mux-specific causality: `mux.round` events whose trace
/// ids member `audit.occasion` events reference via `round`.
fn check_trace_byte_identity() {
    let one = traced_lines(1);
    let four = traced_lines(4);
    assert_eq!(
        one.len(),
        four.len(),
        "trace length differs across worker counts"
    );
    for (a, b) in one.iter().zip(four.iter()) {
        assert_eq!(a, b, "mux trace diverged across worker counts");
    }
    let rounds = one
        .iter()
        .filter(|l| l.contains("\"kind\":\"mux.round\""))
        .count();
    assert!(rounds > 0, "no mux.round events in the trace");
    let parented = one
        .iter()
        .filter(|l| l.contains("\"kind\":\"audit.occasion\"") && l.contains("\"round\":"))
        .count();
    assert!(
        parented >= 3 * rounds,
        "each round must parent one audit.occasion per member: {parented} occasions for {rounds} rounds"
    );
    for line in &one {
        digest_telemetry::schema::validate_line(line)
            .unwrap_or_else(|e| panic!("schema violation in mux trace: {e}"));
    }
}

/// Churning MEMORY serving all seven aggregate kinds, with duplicated
/// members and one `WHERE` member: 10 members over 4 truth keys.
fn churn_mix() -> (MemoryWorkload, Vec<ContinuousQuery>) {
    let w = MemoryWorkload::new(MemoryConfig {
        seed: 11,
        leave_prob: 0.01,
        join_rate: 1.0,
        // MEMORY's `ticks` counts seconds; one tick is 40 s.
        ..MemoryConfig::reduced(300, 120, TICKS * 40)
    });
    let schema = w.db().schema();
    let memory = Expr::first_attr(schema);
    let p = |delta, epsilon| Precision::new(delta, epsilon, 0.95).unwrap();
    let members = [
        (AggregateOp::Avg, p(4.0, 2.0)),
        (AggregateOp::Avg, p(8.0, 4.0)),
        (AggregateOp::Sum, p(30_000.0, 15_000.0)),
        (AggregateOp::Count, p(60.0, 30.0)),
        (AggregateOp::Median, p(4.0, 2.0)),
        (AggregateOp::Median, p(8.0, 3.0)),
        (AggregateOp::Percentile { q_permille: 900 }, p(4.0, 2.0)),
        (AggregateOp::Distinct, p(8.0, 0.15)),
        (AggregateOp::TopK { k: 4 }, p(0.05, 0.1)),
    ];
    let mut queries: Vec<ContinuousQuery> = members
        .into_iter()
        .map(|(op, precision)| ContinuousQuery::new(op, memory.clone(), precision))
        .collect();
    queries.push(
        ContinuousQuery::avg(memory, p(4.0, 3.0))
            .with_predicate(Predicate::parse("memory > 515", schema).unwrap()),
    );
    (w, queries)
}

/// Every field of a trace record, floats by bit pattern.
fn record_bits(r: &TraceRecord) -> [u64; 8] {
    [
        r.tick,
        r.exact.to_bits(),
        r.estimate.to_bits(),
        u64::from(r.updated),
        u64::from(r.snapshot),
        r.samples,
        r.fresh_samples,
        r.messages,
    ]
}

/// `run_mux`'s shared truth table hands every member exactly what a hand
/// loop calling each member's own [`ContinuousQuery::oracle`] computes —
/// with one oracle pass per distinct truth key per tick.
fn check_shared_truths_equal_per_member_oracles() {
    let seed = 5;
    let (mut w, queries) = churn_mix();
    let mut mux = QueryMux::new(MuxConfig::default()).unwrap();
    for q in queries {
        mux.register(q).unwrap();
    }
    let passes_before = registry::SIM_ORACLE_PASSES.get();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let reports = run_mux(
        &mut w,
        &mut mux,
        RunConfig::for_ticks(TICKS),
        &mut rng,
        &mut NoopMuxObserver,
    )
    .unwrap();
    assert_eq!(
        registry::SIM_ORACLE_PASSES.get() - passes_before,
        4 * TICKS,
        "10 members over 4 truth keys must make 4 passes a tick"
    );

    let (mut w, queries) = churn_mix();
    let mut mux = QueryMux::new(MuxConfig::default()).unwrap();
    for q in queries {
        mux.register(q).unwrap();
    }
    let ids = mux.query_ids();
    let mut expected: Vec<Vec<[u64; 8]>> = vec![Vec::new(); ids.len()];
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut origin = w.graph().nodes().next().unwrap();
    let (mut joins, mut leaves) = (0, 0);
    for tick in 0..TICKS {
        let nodes = w.graph().node_count();
        w.advance(&mut rng);
        joins += w.graph().node_count().saturating_sub(nodes);
        leaves += nodes.saturating_sub(w.graph().node_count());
        if !w.graph().contains(origin) {
            origin = w.graph().random_node(&mut rng).unwrap();
        }
        let ctx = TickContext {
            tick,
            graph: w.graph(),
            db: w.db(),
            origin,
        };
        for o in mux.on_tick_mux(&ctx, &mut rng).unwrap() {
            let exact = mux
                .query(o.query)
                .and_then(|q| q.oracle(ctx.db))
                .unwrap_or_else(|| w.exact_aggregate());
            let member = ids.binary_search(&o.query).unwrap();
            expected[member].push(record_bits(&TraceRecord {
                tick,
                exact,
                estimate: o.outcome.estimate,
                updated: o.outcome.updated,
                snapshot: o.outcome.snapshot_executed,
                samples: o.outcome.samples_this_tick,
                fresh_samples: o.outcome.fresh_samples_this_tick,
                messages: o.outcome.messages_this_tick,
            }));
        }
    }
    assert!(joins + leaves > 0, "the MEMORY world must churn");
    // Each kind and the WHERE member read a truth of their own; only the
    // duplicated AVG and MEDIAN members repeat one.
    let truths: BTreeSet<Vec<u64>> = expected
        .iter()
        .map(|records| records.iter().map(|r| r[1]).collect())
        .collect();
    assert_eq!(truths.len(), 8, "distinct member truth streams");

    assert_eq!(reports.len(), ids.len());
    for (member, (report, expected)) in reports.iter().zip(&expected).enumerate() {
        let got: Vec<[u64; 8]> = report.records.iter().map(record_bits).collect();
        assert_eq!(
            &got, expected,
            "member {member} ({}) diverged from its own oracle",
            report.system
        );
    }
}

#[test]
fn mux_equivalence_and_contract_across_seeds_and_workers() {
    check_unshared_identity();
    check_shared_contract();
    check_trace_byte_identity();
    check_shared_truths_equal_per_member_oracles();
}
