//! Sketch-aggregate benchmark: merge throughput of the mergeable
//! sketches and per-occasion sweep cost of the continuous estimators
//! (DESIGN.md §17).
//!
//! Two sections:
//!
//! * **merge** — a deterministic value stream is split across 64 shard
//!   sketches (one per simulated panel fragment), each shard is folded
//!   with `accumulate`, and the shards are merged into one summary the
//!   way the sweep estimator combines per-node states at finalisation.
//!   Reports accumulate throughput and merge wall time per kind, and
//!   gates the merged estimate against each sketch's documented error
//!   bound (UDDSketch relative-α quantile bound, HLL++ `3σ` with
//!   `σ = 1.04/√m`, space-saving exact heavy-hitter recovery at
//!   capacity `⌈2k/ε⌉`).
//! * **sweep** — the canonical TEMPERATURE workload drives one
//!   [`SketchSweepEstimator`] per kind (`p90`, `COUNT DISTINCT`,
//!   `top-4` under the per-kind default contracts) through a full run,
//!   reporting mean per-occasion sweep cost and the fresh/retained node
//!   split of the fingerprint cache (§IV-B2 retain/replace analogue),
//!   and gating the final estimate against the exact oracle within each
//!   kind's ε (relative ε for `COUNT DISTINCT`).
//!
//! Timings are wall-clock and machine-dependent; estimates, exact
//! values, and node splits are deterministic for a given seed and scale
//! (the sketches draw no randomness at all).

use digest_bench::metrics::{memory_json, AllocSnapshot, CountingAlloc};
use digest_bench::{banner, temperature, Scale};
use digest_core::{AggregateOp, ContinuousQuery, Precision, SketchSweepEstimator};
use digest_db::Expr;
use digest_sketch::{HllSketch, SpaceSavingSketch, UddSketch};
use digest_stats::splitmix64;
use digest_workload::Workload;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::json;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SEED: u64 = 20080402;
const SHARDS: usize = 64;

/// Deterministic value stream shared by every merge leg: uniform-ish in
/// `[0, 1000)` via the SplitMix64 finalizer (R5: no RNG state).
fn stream_value(i: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let unit = (splitmix64(SEED ^ i) >> 11) as f64 / (1u64 << 53) as f64;
    unit * 1000.0
}

/// Heavy-hitter cell stream: four hot cells carry 60% of the mass, the
/// rest spreads over ~990 cold cells — well inside the space-saving
/// `ε`-deficient-count regime (Metwally et al.; DESIGN.md §17).
fn stream_cell(i: u64) -> i64 {
    let r = splitmix64(SEED.wrapping_add(1) ^ i);
    if r % 10 < 6 {
        i64::try_from(r % 4).unwrap_or(0)
    } else {
        i64::try_from(r % 990).unwrap_or(0) + 10
    }
}

struct MergeLeg {
    accumulate_ns: f64,
    merge_ns: f64,
    estimate: f64,
    exact: f64,
    error: f64,
    bound: f64,
    ok: bool,
}

/// UDDSketch leg: shard, merge, and check the merged p50 against the
/// exact sample median within the sketch's relative-α bound.
fn merge_udd(values_per_shard: u64) -> MergeLeg {
    let total = values_per_shard * SHARDS as u64;
    let mut shards: Vec<UddSketch> = (0..SHARDS)
        .map(|_| UddSketch::new(1e-3, 4096).expect("valid UDD parameters"))
        .collect();
    let start = Instant::now();
    for (s, shard) in shards.iter_mut().enumerate() {
        let base = s as u64 * values_per_shard;
        for i in 0..values_per_shard {
            shard.accumulate(stream_value(base + i));
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let accumulate_ns = start.elapsed().as_secs_f64() * 1e9 / total as f64;

    let start = Instant::now();
    let mut merged = shards.swap_remove(0);
    for shard in &shards {
        merged.merge(shard).expect("compatible UDD shards");
    }
    let merge_ns = start.elapsed().as_secs_f64() * 1e9;

    let mut exact_values: Vec<f64> = (0..total).map(stream_value).collect();
    exact_values.sort_by(f64::total_cmp);
    let exact = exact_values[exact_values.len() / 2];
    let estimate = merged.quantile(0.5).expect("non-empty sketch");
    let error = (estimate - exact).abs() / exact.abs().max(1.0);
    // Relative bound 2α/(1−α) on the value axis, with slack for the
    // collapsed α after merging; α0 = 1e-3 keeps this well under 5%.
    let bound = 0.05;
    MergeLeg {
        accumulate_ns,
        merge_ns,
        estimate,
        exact,
        error,
        bound,
        ok: error <= bound,
    }
}

/// HLL++ leg: shard, merge, and check the merged cardinality against
/// the exact distinct-key count within 3σ, σ = 1.04/√m.
fn merge_hll(values_per_shard: u64, distinct: u64) -> MergeLeg {
    let total = values_per_shard * SHARDS as u64;
    let mut shards: Vec<HllSketch> = (0..SHARDS)
        .map(|_| HllSketch::new(12).expect("valid precision"))
        .collect();
    let start = Instant::now();
    for (s, shard) in shards.iter_mut().enumerate() {
        let base = s as u64 * values_per_shard;
        for i in 0..values_per_shard {
            shard.accumulate_key((base + i) % distinct);
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let accumulate_ns = start.elapsed().as_secs_f64() * 1e9 / total as f64;

    let start = Instant::now();
    let mut merged = shards.swap_remove(0);
    for shard in &shards {
        merged.merge(shard).expect("compatible HLL shards");
    }
    let merge_ns = start.elapsed().as_secs_f64() * 1e9;

    #[allow(clippy::cast_precision_loss)]
    let exact = distinct.min(total) as f64;
    let estimate = merged.estimate();
    let error = (estimate - exact).abs() / exact;
    let bound = 3.0 * merged.standard_error();
    MergeLeg {
        accumulate_ns,
        merge_ns,
        estimate,
        exact,
        error,
        bound,
        ok: error <= bound,
    }
}

/// Space-saving leg: shard, merge, and require the merged summary to
/// recover exactly the four planted heavy hitters.
fn merge_space_saving(values_per_shard: u64) -> MergeLeg {
    let total = values_per_shard * SHARDS as u64;
    let mut shards: Vec<SpaceSavingSketch> = (0..SHARDS)
        .map(|_| SpaceSavingSketch::for_mass_error(4, 0.1).expect("valid sizing"))
        .collect();
    let start = Instant::now();
    for (s, shard) in shards.iter_mut().enumerate() {
        let base = s as u64 * values_per_shard;
        for i in 0..values_per_shard {
            shard.accumulate_cell(stream_cell(base + i));
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let accumulate_ns = start.elapsed().as_secs_f64() * 1e9 / total as f64;

    let start = Instant::now();
    let mut merged = shards.swap_remove(0);
    for shard in &shards {
        merged.merge(shard).expect("compatible summaries");
    }
    let merge_ns = start.elapsed().as_secs_f64() * 1e9;

    let top: Vec<i64> = merged.top_k(4).into_iter().map(|(cell, _)| cell).collect();
    let mut recovered = top.clone();
    recovered.sort_unstable();
    let ok = recovered == vec![0, 1, 2, 3];
    let estimate = merged.top_k_mass(4).unwrap_or(f64::NAN);
    // The planted stream puts 60% of its mass on the four hot cells.
    let exact = 0.6;
    let error = (estimate - exact).abs();
    MergeLeg {
        accumulate_ns,
        merge_ns,
        estimate,
        exact,
        error,
        bound: 0.1,
        ok: ok && error <= 0.1,
    }
}

struct SweepLeg {
    kind: &'static str,
    occasions: u64,
    mean_sweep_ns: f64,
    fresh_nodes: u64,
    retained_nodes: u64,
    final_estimate: f64,
    final_exact: f64,
    tolerance: f64,
    ok: bool,
}

/// Runs one sweep estimator over the live TEMPERATURE overlay for
/// `ticks` ticks and gates the final estimate against the exact oracle.
fn run_sweep(kind: &'static str, query: &ContinuousQuery, scale: Scale, ticks: u64) -> SweepLeg {
    let mut workload = temperature(scale, 2);
    let mut est = SketchSweepEstimator::for_query(query).expect("sketch-served kind");
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 0x5CE7);
    let mut occasions = 0u64;
    let mut fresh_nodes = 0u64;
    let mut retained_nodes = 0u64;
    let mut wall_ns = 0.0f64;
    let mut final_estimate = f64::NAN;
    for _ in 0..ticks {
        workload.advance(&mut rng);
        let start = Instant::now();
        let snap = est
            .sweep(workload.db(), &query.expr, &query.predicate)
            .expect("sweep over live overlay");
        wall_ns += start.elapsed().as_secs_f64() * 1e9;
        occasions += 1;
        fresh_nodes += snap.fresh_nodes;
        retained_nodes += snap.retained_nodes;
        if let Some(value) = snap.estimate {
            final_estimate = value;
        }
    }
    let final_exact = query.oracle(workload.db()).unwrap_or(f64::NAN);
    // COUNT DISTINCT promises a relative half-width (DESIGN.md §17).
    let tolerance = if query.op.uses_relative_epsilon() {
        query.precision.epsilon * final_exact.abs().max(1.0)
    } else {
        query.precision.epsilon
    };
    #[allow(clippy::cast_precision_loss)]
    SweepLeg {
        kind,
        occasions,
        mean_sweep_ns: wall_ns / occasions.max(1) as f64,
        fresh_nodes,
        retained_nodes,
        final_estimate,
        final_exact,
        tolerance,
        ok: (final_estimate - final_exact).abs() <= tolerance,
    }
}

fn merge_json(label: &str, leg: &MergeLeg) -> serde_json::Value {
    json!({
        "sketch": label,
        "accumulate_ns_per_value": leg.accumulate_ns,
        "merge_wall_ns": leg.merge_ns,
        "estimate": leg.estimate,
        "exact": leg.exact,
        "error": leg.error,
        "bound": leg.bound,
        "within_bound": leg.ok,
    })
}

fn sweep_json(leg: &SweepLeg) -> serde_json::Value {
    json!({
        "kind": leg.kind,
        "occasions": leg.occasions,
        "mean_sweep_ns": leg.mean_sweep_ns,
        "fresh_nodes": leg.fresh_nodes,
        "retained_nodes": leg.retained_nodes,
        "final_estimate": leg.final_estimate,
        "final_exact": leg.final_exact,
        "tolerance": leg.tolerance,
        "within_tolerance": leg.ok,
    })
}

fn main() -> ExitCode {
    let scale = Scale::from_args();
    banner(
        "BENCH_sketch",
        "mergeable sketches: merge throughput + sweep cost",
        scale,
    );
    let (values_per_shard, ticks) = match scale {
        Scale::Full => (50_000u64, 240u64),
        Scale::Quick => (10_000u64, 60u64),
    };

    let alloc_start = AllocSnapshot::now();
    let udd = merge_udd(values_per_shard);
    let hll = merge_hll(values_per_shard, 100_000);
    let ss = merge_space_saving(values_per_shard);
    let merge_alloc = AllocSnapshot::now().delta_since(&alloc_start);

    println!(
        "{:<14} {:>14} {:>12} {:>12} {:>12} {:>10}",
        "sketch", "acc ns/value", "merge µs", "estimate", "exact", "bound"
    );
    for (label, leg) in [("uddsketch", &udd), ("hll++", &hll), ("space-saving", &ss)] {
        println!(
            "{label:<14} {:>14.1} {:>12.1} {:>12.3} {:>12.3} {:>10}",
            leg.accumulate_ns,
            leg.merge_ns / 1e3,
            leg.estimate,
            leg.exact,
            if leg.ok { "ok" } else { "EXCEEDED" },
        );
    }

    let schema_expr = {
        let workload = temperature(scale, 2);
        Expr::first_attr(workload.db().schema())
    };
    let contracts = [
        (
            "p90",
            ContinuousQuery::new(
                AggregateOp::Percentile { q_permille: 900 },
                schema_expr.clone(),
                Precision::new(4.0, 2.0, 0.95).expect("valid contract"),
            ),
        ),
        (
            "distinct",
            ContinuousQuery::new(
                AggregateOp::Distinct,
                schema_expr.clone(),
                Precision::new(8.0, 0.15, 0.95).expect("valid contract"),
            ),
        ),
        (
            "top4",
            ContinuousQuery::new(
                AggregateOp::TopK { k: 4 },
                schema_expr,
                Precision::new(0.05, 0.1, 0.95).expect("valid contract"),
            ),
        ),
    ];
    let alloc_before_sweep = AllocSnapshot::now();
    let sweeps: Vec<SweepLeg> = contracts
        .iter()
        .map(|(kind, query)| run_sweep(kind, query, scale, ticks))
        .collect();
    let sweep_alloc = AllocSnapshot::now().delta_since(&alloc_before_sweep);

    println!();
    println!(
        "{:<10} {:>10} {:>14} {:>10} {:>10} {:>12} {:>12}",
        "kind", "occasions", "sweep µs", "fresh", "retained", "estimate", "exact"
    );
    for leg in &sweeps {
        println!(
            "{:<10} {:>10} {:>14.1} {:>10} {:>10} {:>12.3} {:>12.3}",
            leg.kind,
            leg.occasions,
            leg.mean_sweep_ns / 1e3,
            leg.fresh_nodes,
            leg.retained_nodes,
            leg.final_estimate,
            leg.final_exact,
        );
    }

    let merge_ok = udd.ok && hll.ok && ss.ok;
    let sweep_ok = sweeps.iter().all(|leg| leg.ok);
    let out = json!({
        "benchmark": "BENCH_sketch",
        "scale": scale.label(),
        "shards": SHARDS,
        "values_per_shard": values_per_shard,
        "merge": {
            "legs": [
                merge_json("uddsketch", &udd),
                merge_json("hll++", &hll),
                merge_json("space-saving", &ss),
            ],
            "alloc": merge_alloc.to_json(),
        },
        "sweep": {
            "ticks": ticks,
            "legs": sweeps.iter().map(sweep_json).collect::<Vec<_>>(),
            "alloc": sweep_alloc.to_json(),
        },
        "merge_bounds_hold": merge_ok,
        "sweep_bounds_hold": sweep_ok,
        "memory": memory_json(),
    });
    let path = std::path::Path::new("BENCH_sketch.json");
    match std::fs::File::create(path) {
        Ok(mut f) => {
            if let Err(e) = writeln!(
                f,
                "{}",
                serde_json::to_string_pretty(&out).expect("valid json")
            ) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!();
                println!("[profile written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot create {}: {e}", path.display()),
    }

    if merge_ok && sweep_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: merge bounds {merge_ok}, sweep bounds {sweep_ok}");
        ExitCode::FAILURE
    }
}
