//! Auditor-overhead benchmark: what guarantee auditing costs per tick.
//!
//! Runs the canonical TEMPERATURE scenario (PRED-3 + RPT, fixed seed)
//! twice — once plain, once with a [`digest_audit::QueryAudit`] observer
//! attached (ground-truth oracle, confidence calibration, message-cost
//! ledger) — and reports the wall-clock delta next to the audit findings.
//! The per-tick traces of both legs must be bit-identical (the observer
//! is passive by contract), and the audited leg may allocate at most
//! [`MAX_ALLOC_RATIO`] times the plain leg's bytes; the bench exits
//! non-zero if either fails, so the CI smoke run doubles as an
//! enforcement point.
//!
//! Timings are wall-clock and therefore machine-dependent; the JSON is a
//! profiling artefact, not a determinism surface.

use digest_audit::QueryAudit;
use digest_bench::metrics::{memory_json, AllocSnapshot, CountingAlloc};
use digest_bench::{banner, temperature, Scale};
use digest_core::{EstimatorKind, NoopObserver, SchedulerKind};
use digest_sim::{run_observed, RunConfig, RunReport};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::json;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const TICKS: u64 = 120;
const SEED: u64 = 20080402;
/// Ceiling on audited-leg bytes allocated over plain-leg bytes: the
/// ledger's filter table grows once and is reused, so auditing must not
/// multiply the run's allocation.
const MAX_ALLOC_RATIO: f64 = 2.0;

fn run_leg(scale: Scale, audit: Option<&mut QueryAudit>) -> (RunReport, f64) {
    let mut workload = temperature(scale, 0);
    let mut engine = digest_bench::engine_for(
        &workload,
        SchedulerKind::Pred(3),
        EstimatorKind::Repeated,
        8.0,
        2.0,
        0.95,
    )
    .expect("valid engine config");
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let mut noop = NoopObserver;
    let observer: &mut dyn digest_core::TickObserver = match audit {
        Some(audit) => audit,
        None => &mut noop,
    };
    let start = Instant::now();
    let report = run_observed(
        &mut workload,
        &mut engine,
        RunConfig::for_ticks(TICKS),
        8.0,
        2.0,
        &mut rng,
        observer,
    )
    .expect("benchmark run");
    (report, start.elapsed().as_secs_f64() * 1e9)
}

fn main() -> ExitCode {
    let scale = Scale::from_args();
    banner("BENCH_audit", "guarantee-auditor overhead", scale);

    let alloc_start = AllocSnapshot::now();
    let (plain_report, plain_ns) = run_leg(scale, None);
    let alloc_after_plain = AllocSnapshot::now();
    let plain_alloc = alloc_after_plain.delta_since(&alloc_start);
    let mut audit = {
        let workload = temperature(scale, 0);
        let engine = digest_bench::engine_for(
            &workload,
            SchedulerKind::Pred(3),
            EstimatorKind::Repeated,
            8.0,
            2.0,
            0.95,
        )
        .expect("valid engine config");
        QueryAudit::new(engine.query(), 0).expect("valid audit config")
    };
    let alloc_before_audited = AllocSnapshot::now();
    let (audited_report, audited_ns) = run_leg(scale, Some(&mut audit));
    let audited_alloc = AllocSnapshot::now().delta_since(&alloc_before_audited);

    // Observer passivity: both legs must replay the same trace bit for
    // bit (same estimates, same message counts, same occasions).
    let identical = plain_report.records.len() == audited_report.records.len()
        && plain_report
            .records
            .iter()
            .zip(&audited_report.records)
            .all(|(a, b)| {
                a.tick == b.tick
                    && a.estimate.to_bits() == b.estimate.to_bits()
                    && a.messages == b.messages
                    && a.snapshot == b.snapshot
            });

    #[allow(clippy::cast_precision_loss)]
    let alloc_ratio = audited_alloc.bytes as f64 / plain_alloc.bytes.max(1) as f64;
    let alloc_ratio_ok = alloc_ratio <= MAX_ALLOC_RATIO;

    let report = audit.report();
    let ticks = plain_report.ticks().max(1);
    #[allow(clippy::cast_precision_loss)]
    let overhead_ns_per_tick = (audited_ns - plain_ns) / ticks as f64;
    let overhead_pct = if plain_ns > 0.0 {
        (audited_ns - plain_ns) / plain_ns * 100.0
    } else {
        0.0
    };

    println!("{:<28} {:>14} {:>14}", "leg", "total_ns", "ns_per_tick");
    #[allow(clippy::cast_precision_loss)]
    {
        println!(
            "{:<28} {:>14.0} {:>14.0}",
            "plain (NoopObserver)",
            plain_ns,
            plain_ns / ticks as f64
        );
        println!(
            "{:<28} {:>14.0} {:>14.0}",
            "audited (QueryAudit)",
            audited_ns,
            audited_ns / ticks as f64
        );
    }
    println!("auditor overhead: {overhead_ns_per_tick:.0} ns/tick ({overhead_pct:.1}% of plain)");
    println!(
        "audit: {} occasions, violation rate {:.4} (gate ≤ {:.4}), \
         messages digest {} / ALL {} / ALL+FILTER {}",
        report.occasions,
        report.violation_rate,
        report.violation_bound(),
        report.digest_messages,
        report.all_messages,
        report.filter_messages,
    );
    println!("traces identical across legs: {identical}");
    println!(
        "allocated bytes audited/plain: {alloc_ratio:.2}x (gate <= {MAX_ALLOC_RATIO:.1}x): {alloc_ratio_ok}"
    );

    let out = json!({
        "benchmark": "BENCH_audit",
        "scale": scale.label(),
        "ticks": plain_report.ticks(),
        "plain_ns": plain_ns,
        "audited_ns": audited_ns,
        "overhead_ns_per_tick": overhead_ns_per_tick,
        "overhead_pct": overhead_pct,
        "traces_identical": identical,
        "plain_alloc": plain_alloc.to_json(),
        "audited_alloc": audited_alloc.to_json(),
        "alloc_ratio": alloc_ratio,
        "alloc_ratio_ok": alloc_ratio_ok,
        "report": report.to_json_value(),
        "memory": memory_json(),
    });
    let path = std::path::Path::new("BENCH_audit.json");
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

    if !identical {
        eprintln!("FAILED: the audit observer perturbed the run");
        return ExitCode::FAILURE;
    }
    if !alloc_ratio_ok {
        eprintln!(
            "FAILED: the audited leg allocated {alloc_ratio:.2}x the plain leg's bytes \
             (gate <= {MAX_ALLOC_RATIO:.1}x)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
