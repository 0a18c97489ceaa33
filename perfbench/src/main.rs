//! Layer-attributed end-to-end benchmark of Digest.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload, closed loop: a single driver advances
//! simulated ticks back to back, sampling pinned to one worker. A
//! measured cycle is a fixed number of repetitions, each a fresh world,
//! system and query set whose run randomness is drawn from `--seed`.
//! Cycles repeat until `--seconds` have passed, and every repeated
//! repetition must reproduce its first run byte for byte. Deterministic
//! counts come from the first cycle, host timings from every repetition.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs each
//! repetition untraced and then traced (wall-clock telemetry spans, timed
//! seams, per-seam allocation deltas), fails unless both produced
//! identical reports, and prints the per-layer metrics. The last line of
//! standard output is one JSON object; see `perfbench/README.md`.

mod seams;
mod workloads;

use digest_audit::{Auditor, AuditorConfig};
use digest_bench::metrics::{peak_rss_bytes, CountingAlloc};
use digest_sim::RunReport;
use digest_telemetry::{registry as t, ClockMode, Stage};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Kind, Rep};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!(
                        "unknown workload `{value}` (want one of {})",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("bad --seconds".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Per-layer totals of a traced pass, summed over repetitions.
#[derive(Debug, Default)]
struct Layers {
    advance_ns: u64,
    advance_bytes: u64,
    on_tick_ns: u64,
    on_tick_bytes: u64,
    oracle_ns: u64,
    oracle_calls: u64,
    observe_ns: u64,
    observe_bytes: u64,
    size_ns: u64,
    eval_ns: u64,
    decide_ns: u64,
    batch_ns: u64,
    walk_ns: u64,
    snapshot_ns: u64,
    db_updates: u64,
    joins: u64,
    leaves: u64,
    snapshots: u64,
    samples: u64,
    messages: u64,
    decisions: u64,
    delay_sum: u64,
    delay_count: u64,
    rpt_retained: u64,
    rpt_fresh: u64,
    size_refreshes: u64,
    walk_steps: u64,
    walks_fresh: u64,
    walks_continued: u64,
    mh_proposals: u64,
    mh_accepts: u64,
    snap_built: u64,
    snap_reused: u64,
    snap_patched: u64,
    rounds: u64,
    member_occasions: u64,
}

impl Layers {
    /// `on_tick` time outside the size, estimator and scheduler spans:
    /// sketch sweeps and mux planning.
    fn core_self_ns(&self) -> u64 {
        self.on_tick_ns
            .saturating_sub(self.size_ns + self.eval_ns + self.decide_ns)
    }

    /// Folds in one traced repetition: its seam totals and the telemetry
    /// registry, which was reset right before the repetition's run.
    /// Folds in one traced repetition: its seam totals and the telemetry
    /// registry, which was reset right before the repetition's run. Busy
    /// times add up over every repetition; counts and bytes only over the
    /// first cycle (`first`), so that they repeat exactly.
    fn add(&mut self, rep: &Rep, first: bool) {
        let p = &rep.probe;
        self.advance_ns += p.advance.ns.get();
        self.on_tick_ns += p.on_tick.ns.get();
        self.oracle_ns += p.oracle.ns.get();
        self.observe_ns += p.observe.ns.get();
        for s in digest_telemetry::stage_reports() {
            let slot = match s.stage {
                Stage::SizeEstimate => &mut self.size_ns,
                Stage::EstimatorEval => &mut self.eval_ns,
                Stage::SchedulerDecide => &mut self.decide_ns,
                Stage::SamplingBatch => &mut self.batch_ns,
                Stage::SamplingWalk => &mut self.walk_ns,
                Stage::SnapshotBuild => &mut self.snapshot_ns,
                _ => continue,
            };
            *slot += s.total;
        }
        if !first {
            return;
        }
        self.advance_bytes += p.advance.bytes.get();
        self.on_tick_bytes += p.on_tick.bytes.get();
        self.oracle_calls += p.oracle.calls.get();
        self.observe_bytes += p.observe.bytes.get();
        self.db_updates += t::DB_UPDATES.get();
        self.joins += t::NET_CHURN_JOINS.get();
        self.leaves += t::NET_CHURN_LEAVES.get();
        self.snapshots += rep.totals.0;
        self.samples += rep.totals.1;
        self.messages += rep.totals.2;
        self.decisions += t::CORE_SCHEDULER_DECISIONS.get();
        self.delay_sum += t::CORE_SCHEDULER_DELAY.sum();
        self.delay_count += t::CORE_SCHEDULER_DELAY.count();
        self.rpt_retained += t::CORE_RPT_RETAINED.get();
        self.rpt_fresh += t::CORE_RPT_FRESH.get();
        self.size_refreshes += t::CORE_SIZE_REFRESHES.get();
        self.walk_steps += t::SAMPLING_WALK_STEPS.get();
        self.walks_fresh += t::SAMPLING_WALKS_FRESH.get();
        self.walks_continued += t::SAMPLING_WALKS_CONTINUED.get();
        self.mh_proposals += t::SAMPLING_MH_PROPOSALS.get();
        self.mh_accepts += t::SAMPLING_MH_ACCEPTS.get();
        self.snap_built += t::SAMPLING_SNAPSHOT_BUILT.get();
        self.snap_reused += t::SAMPLING_SNAPSHOT_REUSED.get();
        self.snap_patched += t::SAMPLING_SNAPSHOT_PATCHED.get();
        self.rounds += rep.rounds;
        self.member_occasions += rep
            .reports
            .iter()
            .flat_map(|r| &r.records)
            .filter(|r| r.snapshot)
            .count() as u64;
    }
}

/// One member query's ε-violation tally over the first cycle.
struct Member {
    label: String,
    occasions: u64,
    violations: u64,
    bound: f64,
}

/// What one pass (untraced or traced) measured.
#[derive(Default)]
struct Pass {
    /// Canonical report bytes of each repetition of the first cycle.
    fingerprints: Vec<Vec<u8>>,
    setup_ns: Vec<u64>,
    tick_ns: Vec<u64>,
    run_ns: u64,
    /// Deterministic figures of the first cycle.
    ticks: u64,
    messages: u64,
    alloc_bytes: u64,
    members: Vec<Member>,
    /// Scored member-occasions and, of those, non-finite estimates.
    attempted: u64,
    failed: u64,
    layers: Layers,
}

impl Pass {
    fn ticks_per_s(&self) -> f64 {
        self.tick_ns.len() as f64 / (self.run_ns as f64 / 1e9)
    }

    /// Tick time that no timed seam covers.
    fn residual_ns(&self) -> u64 {
        let l = &self.layers;
        let seams = l.advance_ns + l.on_tick_ns + l.oracle_ns + l.observe_ns;
        self.tick_ns.iter().sum::<u64>().saturating_sub(seams)
    }

    fn violations(&self) -> u64 {
        self.members.iter().map(|m| m.violations).sum()
    }

    /// Scores one first-cycle repetition: every reporting occasion of
    /// every member, against that member's own contract.
    fn score(
        &mut self,
        reports: &[RunReport],
        queries: &[digest_core::ContinuousQuery],
    ) -> Result<(), String> {
        if self.members.is_empty() {
            self.members = queries
                .iter()
                .map(|q| Member {
                    label: q.to_string(),
                    occasions: 0,
                    violations: 0,
                    bound: f64::NAN,
                })
                .collect();
        }
        for (i, (report, query)) in reports.iter().zip(queries).enumerate() {
            let config = AuditorConfig {
                delta: query.precision.delta,
                epsilon: query.precision.epsilon,
                confidence: query.precision.confidence,
                query_index: i as u64,
                relative_epsilon: query.op.uses_relative_epsilon(),
            };
            let mut auditor = Auditor::new(config).map_err(|e| e.to_string())?;
            for r in report.records.iter().filter(|r| r.snapshot) {
                self.attempted += 1;
                if !(r.estimate.is_finite() && r.exact.is_finite()) {
                    self.failed += 1;
                    continue;
                }
                auditor.observe_occasion(r.tick, r.estimate, r.exact, r.samples, r.messages);
            }
            let member = &mut self.members[i];
            member.occasions += auditor.occasions();
            member.violations += auditor.violations();
            // The auditor's own binomial bound, over the pooled occasions.
            let mut pooled = auditor.report(String::new(), 0, 0, 0, 0, 0);
            pooled.occasions = member.occasions;
            member.bound = pooled.violation_bound();
            self.messages += report.records.iter().map(|r| r.messages).sum::<u64>();
        }
        Ok(())
    }

    /// Folds in repetition `r` of cycle `cycle`. Every later cycle must
    /// reproduce the first one's reports byte for byte.
    fn add(&mut self, cycle: u64, r: usize, rep: &Rep, traced: bool) -> Result<(), String> {
        let bytes = seams::report_bytes(&rep.reports);
        if traced {
            self.layers.add(rep, cycle == 0);
        }
        if cycle == 0 {
            self.fingerprints.push(bytes);
            self.ticks += rep.tick_ns.len() as u64;
            self.alloc_bytes += rep.alloc_bytes;
            self.score(&rep.reports, &rep.members)?;
        } else if self.fingerprints[r] != bytes {
            return Err(format!(
                "cycle {cycle}, repetition {r}: reports differ from the first cycle"
            ));
        }
        self.setup_ns.extend_from_slice(&rep.setup_ns);
        self.tick_ns.extend_from_slice(&rep.tick_ns);
        self.run_ns += rep.run_ns;
        Ok(())
    }
}

fn run_rep(args: &Args, r: u64, traced: bool) -> Result<Rep, String> {
    digest_telemetry::set_clock_mode(if traced {
        ClockMode::Wall
    } else {
        ClockMode::Deterministic
    });
    workloads::run_rep(args.kind, args.seed, r, traced)
}

/// Runs the workload's repetitions in cycles until `--seconds` have
/// passed, stopping between repetitions once the first cycle is
/// complete. With `--trace 1` each repetition runs untraced and then
/// traced, so both passes see the same host conditions.
fn run_passes(args: &Args) -> Result<(Pass, Option<Pass>), String> {
    let mut plain = Pass::default();
    let mut traced = args.trace.then(Pass::default);
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut cycle = 0;
    loop {
        for r in 0..args.kind.reps() {
            if cycle > 0 && started.elapsed() >= budget {
                return Ok((plain, traced));
            }
            let i = r as usize;
            plain.add(cycle, i, &run_rep(args, r, false)?, false)?;
            if let Some(traced) = &mut traced {
                traced.add(cycle, i, &run_rep(args, r, true)?, true)?;
            }
        }
        cycle += 1;
    }
}

/// Nearest-rank quantile of unsorted samples.
fn quantile(values: &[u64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn end_to_end(pass: &Pass) -> Vec<Metric> {
    vec![
        metric("setup_s", quantile(&pass.setup_ns, 0.5) / 1e9, "s"),
        metric("tick_ms_p90", quantile(&pass.tick_ns, 0.9) / 1e6, "ms"),
        metric(
            "messages_per_occasion",
            ratio(pass.messages, pass.attempted),
            "1/occasion",
        ),
        metric(
            "alloc_mb_per_tick",
            pass.alloc_bytes as f64 / 1e6 / pass.ticks as f64,
            "MB/tick",
        ),
        metric(
            "peak_rss_mb",
            peak_rss_bytes().unwrap_or(0) as f64 / 1e6,
            "MB",
        ),
    ]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_layer(plain: &Pass, traced: &Pass) -> Vec<Metric> {
    let l = &traced.layers;
    // Busy times cover every traced tick; counts the first cycle's.
    let ms = |ns: u64| ns as f64 / 1e6 / traced.tick_ns.len() as f64;
    let mb = |bytes: u64| bytes as f64 / 1e6 / traced.ticks as f64;
    let per_tick = |n: u64| ratio(n, traced.ticks);
    vec![
        metric(
            "violation_rate",
            ratio(plain.violations(), plain.attempted),
            "ratio",
        ),
        metric(
            "messages_per_tick",
            ratio(plain.messages, plain.ticks),
            "1/tick",
        ),
        metric("ticks_per_s", plain.ticks_per_s(), "1/s"),
        metric("sim.tick_ms_p50", quantile(&plain.tick_ns, 0.5) / 1e6, "ms"),
        metric("workload.advance_ms", ms(l.advance_ns), "ms/tick"),
        metric("workload.alloc_mb", mb(l.advance_bytes), "MB/tick"),
        metric("db.updates", per_tick(l.db_updates), "1/tick"),
        metric("net.churn.joins", per_tick(l.joins), "1/tick"),
        metric("net.churn.leaves", per_tick(l.leaves), "1/tick"),
        metric("core.on_tick_ms", ms(l.on_tick_ns), "ms/tick"),
        metric("core.self_ms", ms(l.core_self_ns()), "ms/tick"),
        metric("core.alloc_mb", mb(l.on_tick_bytes), "MB/tick"),
        metric("core.engine.snapshots", per_tick(l.snapshots), "1/tick"),
        metric("core.engine.samples", per_tick(l.samples), "1/tick"),
        metric("core.engine.messages", per_tick(l.messages), "1/tick"),
        metric("core.scheduler.decide_ms", ms(l.decide_ns), "ms/tick"),
        metric("core.scheduler.decisions", per_tick(l.decisions), "1/tick"),
        metric(
            "core.scheduler.delay_mean",
            ratio(l.delay_sum, l.delay_count),
            "ticks",
        ),
        metric("core.estimator.eval_ms", ms(l.eval_ns), "ms/tick"),
        metric(
            "core.rpt.retained_fraction",
            ratio(l.rpt_retained, l.rpt_retained + l.rpt_fresh),
            "ratio",
        ),
        metric("core.mux.rounds", per_tick(l.rounds), "1/tick"),
        metric(
            "core.mux.occasions_per_round",
            ratio(l.member_occasions, l.rounds),
            "ratio",
        ),
        metric("core.size.estimate_ms", ms(l.size_ns), "ms/tick"),
        metric("core.size.refreshes", per_tick(l.size_refreshes), "1/tick"),
        metric("core.oracle.ms", ms(l.oracle_ns), "ms/tick"),
        metric("core.oracle.calls", per_tick(l.oracle_calls), "1/tick"),
        metric("sampling.batch_ms", ms(l.batch_ns), "ms/tick"),
        metric("sampling.walk_ms", ms(l.walk_ns), "ms/tick"),
        metric("sampling.snapshot_ms", ms(l.snapshot_ns), "ms/tick"),
        metric("sampling.walk.steps", per_tick(l.walk_steps), "1/tick"),
        metric("sampling.walks.fresh", per_tick(l.walks_fresh), "1/tick"),
        metric(
            "sampling.walks.continued",
            per_tick(l.walks_continued),
            "1/tick",
        ),
        metric(
            "sampling.mh.accept_ratio",
            ratio(l.mh_accepts, l.mh_proposals),
            "ratio",
        ),
        metric(
            "sampling.snapshot.reuse_ratio",
            ratio(l.snap_reused, l.snap_built + l.snap_reused + l.snap_patched),
            "ratio",
        ),
        metric("audit.observe_ms", ms(l.observe_ns), "ms/tick"),
        metric("audit.alloc_mb", mb(l.observe_bytes), "MB/tick"),
        metric("sim.tick_ms", ms(traced.tick_ns.iter().sum()), "ms/tick"),
        metric("sim.residual_ms", ms(traced.residual_ns()), "ms/tick"),
        metric(
            "telemetry.overhead_pct",
            (plain.ticks_per_s() / traced.ticks_per_s() - 1.0) * 100.0,
            "%",
        ),
    ]
}

/// Disjoint shares of traced tick time: each nanosecond of a tick is in
/// exactly one of these layers.
fn shares(traced: &Pass) -> Vec<(&'static str, f64)> {
    let l = &traced.layers;
    let parts = [
        ("workload", l.advance_ns),
        ("core.self", l.core_self_ns()),
        ("core.size", l.size_ns),
        ("core.estimator", l.eval_ns.saturating_sub(l.batch_ns)),
        ("sampling", l.batch_ns),
        ("core.scheduler", l.decide_ns),
        ("core.oracle", l.oracle_ns),
        ("audit", l.observe_ns),
        ("sim.residual", traced.residual_ns()),
    ];
    let tick_ns = traced.tick_ns.iter().sum();
    parts
        .into_iter()
        .map(|(name, ns)| (name, ratio(ns, tick_ns)))
        .collect()
}

fn print_members(pass: &Pass) {
    println!(
        "{:<64} {:>12} {:>8} {:>8}",
        "member", "violations", "rate", "bound"
    );
    for m in &pass.members {
        let rate = ratio(m.violations, m.occasions);
        println!(
            "{:<64} {:>12} {:>8.4} {:>8.4}{}",
            m.label,
            format!("{}/{}", m.violations, m.occasions),
            rate,
            m.bound,
            if rate > m.bound { "  BREACH" } else { "" }
        );
    }
}

fn result_line(correct: bool, pass: &Pass, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        pass.attempted, pass.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (plain, traced) = match run_passes(&args) {
        Ok(passes) => passes,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut correct = plain.failed == 0;
    println!(
        "{} seed {}: {} ticks per cycle, {} timed ticks, {} set-ups",
        args.kind.name(),
        args.seed,
        plain.ticks,
        plain.tick_ns.len(),
        plain.setup_ns.len(),
    );
    print_members(&plain);
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.3}", quantile(&plain.tick_ns, f64::from(d) / 10.0) / 1e6))
        .collect();
    println!("tick ms deciles p10..p90: {}", deciles.join(" "));

    let metrics = if let Some(traced) = traced {
        if traced.fingerprints != plain.fingerprints {
            eprintln!("perfbench: the traced run's reports differ from the untraced run's");
            correct = false;
        }
        println!(
            "traced pass: reports identical to the untraced pass: {}; heap bytes {} (untraced {})",
            traced.fingerprints == plain.fingerprints,
            traced.alloc_bytes,
            plain.alloc_bytes
        );
        println!(
            "share of traced tick time ({} ticks):",
            traced.tick_ns.len()
        );
        let shares = shares(&traced);
        for (name, share) in &shares {
            println!("  {name:<16} {:>6.1}%", share * 100.0);
        }
        if let Some((name, _)) = shares.iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
            println!("dominant layer: {name}");
        }
        per_layer(&plain, &traced)
    } else {
        end_to_end(&plain)
    };
    for m in &metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(correct, &plain, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
