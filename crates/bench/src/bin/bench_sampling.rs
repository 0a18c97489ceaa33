//! Parallel sampling-executor benchmark: occasion latency vs worker count.
//!
//! Builds a Barabási–Albert overlay (≥1000 nodes), fills every node with
//! tuples, then draws the same batch panels through the sampling operator
//! at 1, 2, 4, and 8 workers, in two modes:
//!
//! * **steady** (headline) — the operator's recommended configuration:
//!   walks continue across occasions and the occasion snapshot is cached,
//!   so after one untimed warm-up occasion every timed occasion pays only
//!   reset-length walk segments plus a cache probe. This is the paper's
//!   continuous-query steady state (§VI) and the scenario the PR 4
//!   occasion-latency target is measured on.
//! * **cold** — fresh walks every occasion (`continue_walks: false`),
//!   matching what the PR 3 benchmark measured; each occasion pays full
//!   mixing-length walks. Snapshot caching still applies.
//!
//! For each mode × worker count it measures wall-clock latency per
//! occasion (best of several repetitions) and verifies the panels are
//! **byte-identical** to the single-worker run — the executor's
//! determinism contract — before reporting speedups. A separate
//! wall-clock profiling pass (untimed) captures the per-phase breakdown
//! (snapshot build vs walk vs dispatch/reassembly) and the snapshot
//! cache statistics, all written to `BENCH_sampling.json`.
//!
//! The process exits non-zero if panels diverge in either mode **or** if
//! the steady-state run shows no snapshot reuse — CI's bench smoke rides
//! on both checks.
//!
//! `--scale quick` (default) is the CI smoke configuration; `--scale
//! full` runs a larger world with more repetitions. Timings are
//! wall-clock and machine-dependent; only the equality and reuse checks
//! are a correctness surface.

use digest_bench::metrics::{memory_json, AllocSnapshot, CountingAlloc};
use digest_bench::{banner, Scale};
use digest_db::{P2PDatabase, Schema, Tuple};
use digest_net::{topology, NodeId};
use digest_sampling::{SamplingConfig, SamplingOperator, SnapshotStats};
use digest_telemetry::{ClockMode, Stage};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde_json::json;
use std::io::Write as _;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// PR 3's committed quick-scale baseline (occasion_ns at workers = 1,
/// rebuild-per-occasion, fresh walks) — the reference the ≥2× occasion
/// latency target of PR 4 is measured against.
const PR3_BASELINE_OCCASION_NS: u64 = 629_161;

struct BenchParams {
    nodes: usize,
    panel: usize,
    occasions: usize,
    reps: usize,
}

impl BenchParams {
    fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Self {
                nodes: 1_500,
                panel: 128,
                occasions: 4,
                reps: 3,
            },
            Scale::Full => Self {
                nodes: 10_000,
                panel: 256,
                occasions: 8,
                reps: 5,
            },
        }
    }
}

/// Which occasion regime a measurement runs under.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Recommended config: continued walks + cached snapshots, one
    /// untimed warm-up occasion.
    Steady,
    /// Fresh mixing-length walks every occasion (the PR 3 measurement
    /// regime).
    Cold,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Steady => "steady",
            Mode::Cold => "cold",
        }
    }
}

/// One worker-count measurement: best-of-reps latency plus the exact
/// bytes of every panel drawn (for the cross-worker equality check).
struct Measurement {
    workers: usize,
    best_ns: u128,
    fingerprint: Vec<u8>,
    total_messages: u64,
    snapshot: SnapshotStats,
}

fn operator_for(nodes: usize, workers: usize, mode: Mode) -> SamplingOperator {
    let config = match mode {
        Mode::Steady => SamplingConfig {
            workers,
            ..SamplingConfig::recommended(nodes)
        },
        // Fresh walks each occasion (no pooling) keep per-occasion work
        // constant, matching the PR 3 measurement regime.
        Mode::Cold => SamplingConfig {
            workers,
            continue_walks: false,
            ..SamplingConfig::recommended(nodes)
        },
    };
    SamplingOperator::new(config).expect("valid sampling config")
}

fn fingerprint_batch(
    fingerprint: &mut Vec<u8>,
    batch: &[(digest_db::TupleHandle, Tuple, digest_sampling::SampleCost)],
) {
    for (handle, tuple, cost) in batch {
        fingerprint.extend_from_slice(handle.to_string().as_bytes());
        for v in tuple.values() {
            fingerprint.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        fingerprint.extend_from_slice(&cost.walk_messages.to_le_bytes());
        fingerprint.extend_from_slice(&cost.report_messages.to_le_bytes());
    }
}

/// Draws `occasions` panels of `panel` tuples and returns the elapsed
/// time (excluding the steady-mode warm-up occasion), a byte
/// fingerprint of everything the operator returned (including warm-up),
/// the message total, and the operator's snapshot-cache statistics.
fn run_once(
    g: &digest_net::Graph,
    db: &P2PDatabase,
    origin: NodeId,
    params: &BenchParams,
    workers: usize,
    mode: Mode,
) -> (u128, Vec<u8>, u64, SnapshotStats) {
    let mut op = operator_for(params.nodes, workers, mode);
    let mut rng = ChaCha8Rng::seed_from_u64(0x00D1_6E57);
    let mut fingerprint = Vec::new();
    if mode == Mode::Steady {
        // Warm-up: fills the walk pool and the snapshot cache; the
        // steady-state number measures occasions, not cold start.
        let batch = op
            .sample_tuples(g, db, origin, params.panel, &mut rng)
            .expect("warm-up batch");
        fingerprint_batch(&mut fingerprint, &batch);
    }
    let start = Instant::now();
    for _ in 0..params.occasions {
        if mode == Mode::Steady {
            // Occasion boundary: rewind the pool cursor so each timed
            // occasion continues the warmed walks at reset length.
            op.begin_occasion();
        }
        let batch = op
            .sample_tuples(g, db, origin, params.panel, &mut rng)
            .expect("benchmark batch");
        fingerprint_batch(&mut fingerprint, &batch);
    }
    let elapsed = start.elapsed().as_nanos();
    (
        elapsed,
        fingerprint,
        op.total_messages(),
        op.snapshot_stats(),
    )
}

/// Best-of-reps measurements for one mode across all worker counts.
fn measure_mode(
    g: &digest_net::Graph,
    db: &P2PDatabase,
    origin: NodeId,
    params: &BenchParams,
    mode: Mode,
) -> Vec<Measurement> {
    let mut measurements = Vec::new();
    for &workers in &WORKER_COUNTS {
        let mut best_ns = u128::MAX;
        let mut fingerprint = Vec::new();
        let mut total_messages = 0;
        let mut snapshot = SnapshotStats::default();
        for _ in 0..params.reps {
            let (ns, fp, messages, stats) = run_once(g, db, origin, params, workers, mode);
            best_ns = best_ns.min(ns);
            fingerprint = fp;
            total_messages = messages;
            snapshot = stats;
        }
        measurements.push(Measurement {
            workers,
            best_ns,
            fingerprint,
            total_messages,
            snapshot,
        });
    }
    measurements
}

/// Prints one mode's table and returns `(json runs, panels identical)`.
fn report_mode(
    params: &BenchParams,
    mode: Mode,
    measurements: &[Measurement],
) -> (Vec<serde_json::Value>, bool) {
    let baseline = &measurements[0];
    let identical = measurements.iter().all(|m| {
        m.fingerprint == baseline.fingerprint && m.total_messages == baseline.total_messages
    });
    println!("mode: {}", mode.label());
    println!(
        "{:>8} {:>14} {:>14} {:>9} {:>10}",
        "workers", "total_ns", "occasion_ns", "speedup", "panels"
    );
    let mut runs = Vec::new();
    for m in measurements {
        let speedup = if m.best_ns > 0 {
            (baseline.best_ns as f64) / (m.best_ns as f64)
        } else {
            f64::INFINITY
        };
        let occasion_ns = m.best_ns / (params.occasions as u128);
        println!(
            "{:>8} {:>14} {:>14} {:>8.2}x {:>10}",
            m.workers,
            m.best_ns,
            occasion_ns,
            speedup,
            if m.fingerprint == baseline.fingerprint {
                "identical"
            } else {
                "DIVERGED"
            },
        );
        runs.push(json!({
            "workers": m.workers,
            "total_ns": m.best_ns as u64,
            "occasion_ns": occasion_ns as u64,
            "speedup": speedup,
            "total_messages": m.total_messages,
            "panel_identical": m.fingerprint == baseline.fingerprint,
            "snapshot": {
                "built": m.snapshot.built,
                "reused": m.snapshot.reused,
            },
        }));
    }
    println!();
    (runs, identical)
}

/// Wall-clock profiling pass (untimed, workers = 1, steady mode):
/// captures the per-phase nanosecond breakdown and the snapshot cache
/// statistics of one steady run.
fn profile_phases(
    g: &digest_net::Graph,
    db: &P2PDatabase,
    origin: NodeId,
    params: &BenchParams,
) -> (serde_json::Value, SnapshotStats) {
    digest_telemetry::set_clock_mode(ClockMode::Wall);
    digest_telemetry::reset_stages();
    digest_telemetry::reset_metrics();
    let (_, _, _, snapshot) = run_once(g, db, origin, params, 1, Mode::Steady);
    let mut snapshot_build_ns = 0u64;
    let mut walk_ns = 0u64;
    let mut batch_ns = 0u64;
    for report in digest_telemetry::stage_reports() {
        match report.stage {
            Stage::SnapshotBuild => snapshot_build_ns = report.total,
            Stage::SamplingWalk => walk_ns = report.total,
            Stage::SamplingBatch => batch_ns = report.total,
            _ => {}
        }
    }
    digest_telemetry::set_clock_mode(ClockMode::Deterministic);
    // The batch span covers dispatch, every walk, and slot-order
    // reassembly; the snapshot refresh runs outside it, in the operator.
    let reassembly_ns = batch_ns.saturating_sub(walk_ns);
    let occasions = (params.occasions + 1) as u64; // + warm-up
    let phases = json!({
        "clock": "wall",
        "workers": 1,
        "mode": "steady",
        "occasions_profiled": occasions,
        "snapshot_build_ns": snapshot_build_ns,
        "walk_ns": walk_ns,
        "batch_ns": batch_ns,
        "reassembly_ns": reassembly_ns,
        "per_occasion": {
            "snapshot_build_ns": snapshot_build_ns / occasions,
            "walk_ns": walk_ns / occasions,
            "reassembly_ns": reassembly_ns / occasions,
        },
    });
    println!(
        "phase breakdown (wall, steady, workers=1, {} occasions incl. warm-up):",
        occasions
    );
    println!("  snapshot build : {snapshot_build_ns:>12} ns");
    println!("  walks          : {walk_ns:>12} ns");
    println!("  dispatch+reasm : {reassembly_ns:>12} ns");
    println!(
        "  snapshot cache : {} built, {} reused",
        snapshot.built, snapshot.reused
    );
    println!();
    (phases, snapshot)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let scale = Scale::from_args();
    let params = BenchParams::for_scale(scale);
    banner("BENCH_sampling", "sampling occasion latency", scale);

    let mut world_rng = ChaCha8Rng::seed_from_u64(20080402);
    let g = topology::barabasi_albert(params.nodes, 3, &mut world_rng).expect("topology");
    let mut db = P2PDatabase::new(Schema::single("a"));
    for node in g.nodes() {
        db.register_node(node);
        let tuples = world_rng.gen_range(1..5_u32);
        for _ in 0..tuples {
            let value = world_rng.gen_range(0.0..100.0_f64);
            db.insert(node, Tuple::single(value)).expect("insert");
        }
    }
    let origin = g.nodes().next().expect("non-empty graph");
    let hardware_threads =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "world: BA graph, {} nodes, {} tuples; panel {} × {} occasions, best of {} reps",
        g.node_count(),
        db.total_tuples(),
        params.panel,
        params.occasions,
        params.reps,
    );
    println!("hardware threads: {hardware_threads}");
    let single_core_warning = (hardware_threads < 2).then(|| {
        "WARNING: hardware_threads == 1 — worker counts > 1 cannot speed up and sub-1x \
         speedups are scheduler overhead, not a regression; only the single-worker \
         latency and the panel-equality check are meaningful on this host"
            .to_string()
    });
    if let Some(warning) = &single_core_warning {
        println!("{warning}");
    }
    println!();

    let alloc_start = AllocSnapshot::now();
    let steady = measure_mode(&g, &db, origin, &params, Mode::Steady);
    let alloc_after_steady = AllocSnapshot::now();
    let cold = measure_mode(&g, &db, origin, &params, Mode::Cold);
    let steady_alloc = alloc_after_steady.delta_since(&alloc_start);
    let cold_alloc = AllocSnapshot::now().delta_since(&alloc_after_steady);
    let (steady_runs, steady_identical) = report_mode(&params, Mode::Steady, &steady);
    let (cold_runs, cold_identical) = report_mode(&params, Mode::Cold, &cold);
    let identical = steady_identical && cold_identical;

    let (phases, snapshot) = profile_phases(&g, &db, origin, &params);
    let reuse_visible = snapshot.reused > 0;

    let steady_occasion_ns = (steady[0].best_ns / (params.occasions as u128)) as u64;
    let cold_occasion_ns = (cold[0].best_ns / (params.occasions as u128)) as u64;
    // The PR 3 baseline is the quick-scale BA-1500/128-panel scenario;
    // improvement factors are meaningless for other worlds.
    let improvement = (scale == Scale::Quick && steady_occasion_ns > 0)
        .then(|| PR3_BASELINE_OCCASION_NS as f64 / steady_occasion_ns as f64);
    let cold_improvement = (scale == Scale::Quick && cold_occasion_ns > 0)
        .then(|| PR3_BASELINE_OCCASION_NS as f64 / cold_occasion_ns as f64);

    if identical {
        println!("panels byte-identical across all worker counts (both modes)");
    } else {
        println!("ERROR: panels diverged across worker counts");
    }
    if !reuse_visible {
        println!("ERROR: steady-state run shows no snapshot reuse");
    }
    if let Some(x) = improvement {
        println!(
            "steady occasion latency {steady_occasion_ns} ns vs PR 3 baseline \
             {PR3_BASELINE_OCCASION_NS} ns → {x:.2}x (cold mode: {cold_occasion_ns} ns → {:.2}x)",
            cold_improvement.unwrap_or(0.0),
        );
    }

    // The vendored serde_json has no `Option` support in `json!`.
    let null_or = |v: Option<f64>| v.map_or(serde_json::Value::Null, |x| json!(x));
    let warning_json = single_core_warning
        .clone()
        .map_or(serde_json::Value::Null, serde_json::Value::String);
    let out = json!({
        "benchmark": "BENCH_sampling",
        "scale": scale.label(),
        "nodes": params.nodes,
        "panel": params.panel,
        "occasions": params.occasions,
        "reps": params.reps,
        "hardware_threads": hardware_threads,
        "single_core_warning": warning_json,
        "baseline": {
            "source": "PR 3 bench_sampling (rebuild-per-occasion, fresh walks), quick scale",
            "occasion_ns": PR3_BASELINE_OCCASION_NS,
        },
        "occasion_ns": steady_occasion_ns,
        "improvement_vs_pr3": null_or(improvement),
        "modes": {
            "steady": {
                "description": "continued walks + cached snapshots (recommended config); warm-up occasion untimed",
                "runs": steady_runs.clone(),
                "panels_identical": steady_identical,
                "occasion_ns": steady_occasion_ns,
                "improvement_vs_pr3": null_or(improvement),
                "alloc": steady_alloc.to_json(),
            },
            "cold": {
                "description": "fresh mixing-length walks every occasion (PR 3 measurement regime)",
                "runs": cold_runs,
                "panels_identical": cold_identical,
                "occasion_ns": cold_occasion_ns,
                "improvement_vs_pr3": null_or(cold_improvement),
                "alloc": cold_alloc.to_json(),
            },
        },
        "memory": memory_json(),
        "phases": phases,
        "snapshot": {
            "built": snapshot.built,
            "reused": snapshot.reused,
        },
        "snapshot_reuses": snapshot.reused,
        "runs": steady_runs,
        "panels_identical": identical,
    });
    let path = std::path::Path::new("BENCH_sampling.json");
    match std::fs::File::create(path) {
        Ok(mut f) => {
            if let Err(e) = writeln!(
                f,
                "{}",
                serde_json::to_string_pretty(&out).expect("valid json")
            ) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("[results written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot create {}: {e}", path.display()),
    }

    if !identical || !reuse_visible {
        std::process::exit(1);
    }
}
