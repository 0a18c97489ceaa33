//! `cargo xtask` — workspace automation for Digest.
//!
//! Subcommands:
//!
//! * `lint` — run the custom static-analysis pass (rules R1–R7; see the
//!   library crate docs). Exits non-zero on any finding. `--json` emits a
//!   machine-readable findings document on stdout; `--github` emits
//!   GitHub Actions `::error` workflow annotations alongside the human
//!   output so findings surface inline on pull-request diffs.
//! * `determinism` — build the CLI, run a fixed-seed scenario twice —
//!   both with and without `--telemetry` — and byte-diff the stdout
//!   traces and the JSONL event streams. Also replays each scenario
//!   with `--sampling-workers 4` and requires the trace to match the
//!   inline run byte-for-byte (worker-count independence), and with
//!   `--event-loop` to prove the hint-driven event scheduler replays
//!   the dense tick sweep exactly. A sketch-aggregate leg replays the
//!   `p90+distinct+top4` mux mix the same way (replay + workers=4
//!   byte-identity) since sweep estimators must be RNG-free. Exits
//!   non-zero on any divergence (including telemetry perturbing the
//!   plain trace).
//! * `telemetry-schema` — run a fixed-seed scenario with `--telemetry`
//!   and validate every emitted JSONL line against the event schema,
//!   requiring coverage of the core event kinds.
//! * `audit` — replay the fixed-seed temperature scenario under
//!   `--audit --audit-json --trace-out`, require the audit report,
//!   Chrome trace, and stdout to be byte-identical across replays and
//!   worker counts, require the audited stdout to extend the plain
//!   stdout, and gate on the report itself: the observed ε-violation
//!   rate must stay within `(1 − p)` plus three-σ binomial slack and
//!   the confidence-calibration drift within a pinned tolerance.
//!
//! All are wired into CI; `cargo xtask lint` is also the local
//! pre-commit gate.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask <command>\n\
         \n\
         commands:\n\
           lint              run the R1–R7 static-analysis pass over the workspace\n\
                             (--json: machine-readable output; --github: emit\n\
                             GitHub Actions ::error annotations)\n\
           determinism       run fixed-seed scenarios twice (with and without\n\
                             --telemetry) and byte-diff traces and event streams\n\
           telemetry-schema  validate a --telemetry JSONL stream against the schema\n\
           audit             replay a fixed-seed run under --audit/--trace-out and\n\
                             gate on the guarantee report (violation rate within\n\
                             binomial slack, calibration drift within tolerance)\n\
           help              show this message"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        return usage();
    };
    let root = workspace_root();
    match command.as_str() {
        "lint" => {
            let mut json = false;
            let mut github = false;
            for flag in args {
                match flag.as_str() {
                    "--json" => json = true,
                    "--github" => github = true,
                    other => {
                        eprintln!("unknown lint flag `{other}`");
                        return usage();
                    }
                }
            }
            run_lint(&root, json, github)
        }
        "determinism" => run_determinism(&root),
        "telemetry-schema" => run_telemetry_schema(&root),
        "audit" => run_audit(&root),
        "help" | "--help" | "-h" => {
            usage();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown xtask command `{other}`");
            usage()
        }
    }
}

/// The workspace root: two levels up from this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or(manifest.clone(), Path::to_path_buf)
}

fn run_lint(root: &Path, json: bool, github: bool) -> ExitCode {
    if !json {
        println!("xtask lint: scanning workspace at {}", root.display());
    }
    match xtask::lint_workspace(root) {
        Ok(findings) => {
            if json {
                println!("{}", findings_json(&findings));
            } else if findings.is_empty() {
                println!(
                    "xtask lint: OK — rules {} all clean",
                    xtask::RULES
                        .iter()
                        .filter(|info| info.code != "ALLOW")
                        .map(|info| format!("{} ({})", info.code, info.name))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            } else {
                for finding in &findings {
                    eprintln!("{finding}");
                }
                eprintln!("xtask lint: {} violation(s)", findings.len());
            }
            if github {
                for finding in &findings {
                    println!("{}", github_annotation(finding));
                }
            }
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("xtask lint: {message}");
            if github {
                println!(
                    "::error title=xtask lint::{}",
                    github_escape_message(&message)
                );
            }
            ExitCode::FAILURE
        }
    }
}

/// Renders findings as a stable machine-readable JSON document (used by
/// CI tooling; hand-rolled so the gate stays std-only).
fn findings_json(findings: &[xtask::Finding]) -> String {
    let mut out = String::from("{\"version\":1,\"findings\":[");
    for (idx, finding) in findings.iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        let info = finding.rule.info();
        out.push_str(&format!(
            "{{\"rule\":{},\"name\":{},\"file\":{},\"line\":{},\"message\":{},\
             \"remedy\":{},\"allow_token\":{}}}",
            json_string(info.code),
            json_string(info.name),
            json_string(&finding.file),
            finding.line,
            json_string(&finding.message),
            json_string(finding.remedy.label()),
            finding
                .allow_token
                .map_or_else(|| "null".to_string(), json_string),
        ));
    }
    out.push_str(&format!("],\"count\":{}}}", findings.len()));
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One GitHub Actions workflow-command annotation per finding; the runner
/// attaches these inline to the pull-request diff.
fn github_annotation(finding: &xtask::Finding) -> String {
    let info = finding.rule.info();
    format!(
        "::error file={},line={},title={}({})::{}",
        github_escape_property(&finding.file),
        finding.line.max(1),
        info.code,
        info.name,
        github_escape_message(&finding.message),
    )
}

/// Workflow-command data escaping (`%`, CR, LF).
fn github_escape_message(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Workflow-command property escaping (data escapes plus `:` and `,`).
fn github_escape_property(s: &str) -> String {
    github_escape_message(s)
        .replace(':', "%3A")
        .replace(',', "%2C")
}

/// The fixed-seed scenario replayed twice by `cargo xtask determinism`.
///
/// Exercises both worlds, both estimator kinds, and the PRED scheduler so
/// the diff covers the whole sim → sampling → estimator → scheduler stack.
const DETERMINISM_RUNS: &[(&str, &[&str])] = &[
    (
        "temperature/rpt",
        &[
            "--world",
            "temperature",
            "--ticks",
            "60",
            "--seed",
            "20080402",
            "--scheduler",
            "pred3",
            "--estimator",
            "rpt",
            "SELECT AVG(temperature) FROM R WITH delta=8, epsilon=2, p=0.95",
        ],
    ),
    (
        "memory/indep",
        &[
            "--world",
            "memory",
            "--ticks",
            "40",
            "--seed",
            "8675309",
            "--scheduler",
            "all",
            "--estimator",
            "indep",
            "SELECT AVG(memory) FROM R WITH delta=200, epsilon=50, p=0.9",
        ],
    ),
];

/// The sketch-aggregate mux scenario (DESIGN.md §17): a percentile, a
/// `COUNT DISTINCT`, and a top-k heavy-hitter query served through one
/// shared `QueryMux` with per-kind default contracts. The sweep
/// estimators behind these kinds draw no randomness at all, so the
/// determinism leg demands byte-identical replays and worker-count
/// independence, and the audit leg gates each member's ε-violation rate
/// against its own `1 − p` binomial bound.
const SKETCH_ARGS: &[&str] = &[
    "--world",
    "temperature",
    "--ticks",
    "120",
    "--seed",
    "20080402",
    "--queries",
    "p90+distinct+top4",
];

fn build_cli(root: &Path, gate: &str) -> Result<PathBuf, ExitCode> {
    println!("xtask {gate}: building digest-cli (release)");
    let build = Command::new("cargo")
        .args(["build", "--release", "--bin", "digest-cli"])
        .current_dir(root)
        .status();
    match build {
        Ok(status) if status.success() => Ok(root.join("target/release/digest-cli")),
        Ok(status) => {
            eprintln!("xtask {gate}: cargo build failed with {status}");
            Err(ExitCode::FAILURE)
        }
        Err(e) => {
            eprintln!("xtask {gate}: failed to spawn cargo: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// A scenario's scratch JSONL path under `target/` (labels contain `/`).
fn telemetry_scratch(root: &Path, label: &str, run: usize) -> PathBuf {
    root.join("target").join(format!(
        "xtask-telemetry-{}-{run}.jsonl",
        label.replace('/', "-")
    ))
}

fn run_determinism(root: &Path) -> ExitCode {
    let cli = match build_cli(root, "determinism") {
        Ok(cli) => cli,
        Err(code) => return code,
    };

    let mut all_identical = true;
    for (label, args) in DETERMINISM_RUNS {
        print!("xtask determinism: scenario {label} ... ");
        let first = capture(&cli, args, root);
        let second = capture(&cli, args, root);
        let plain = match (first, second) {
            (Ok(a), Ok(b)) if a == b => {
                println!("identical ({} trace bytes)", a.len());
                Some(a)
            }
            (Ok(a), Ok(b)) => {
                println!("DIVERGED");
                report_divergence(&a, &b);
                all_identical = false;
                None
            }
            (Err(e), _) | (_, Err(e)) => {
                println!("ERROR");
                eprintln!("xtask determinism: scenario {label}: {e}");
                all_identical = false;
                None
            }
        };

        // Re-run with a parallel sampling executor: worker count must
        // never leak into results, so the trace must be byte-identical
        // to the plain (inline) run.
        print!("xtask determinism: scenario {label} (workers=4) ... ");
        let mut workers_args: Vec<&str> = vec!["--sampling-workers", "4"];
        workers_args.extend_from_slice(args);
        match capture(&cli, &workers_args, root) {
            Ok(parallel) => match &plain {
                Some(plain) if *plain == parallel => {
                    println!("identical ({} trace bytes)", parallel.len());
                }
                Some(plain) => {
                    println!("DIVERGED (worker count leaked into the trace)");
                    report_divergence(plain, &parallel);
                    all_identical = false;
                }
                None => println!("skipped (no plain trace to compare against)"),
            },
            Err(e) => {
                println!("ERROR");
                eprintln!("xtask determinism: scenario {label} (workers=4): {e}");
                all_identical = false;
            }
        }

        // Re-run with the event-driven scheduler loop: due-time hints
        // may only ever name provably idle spans, so replacing the dense
        // tick sweep with hint-driven skipping must not move a byte of
        // the trace.
        print!("xtask determinism: scenario {label} (--event-loop) ... ");
        let mut event_args: Vec<&str> = vec!["--event-loop"];
        event_args.extend_from_slice(args);
        match capture(&cli, &event_args, root) {
            Ok(evented) => match &plain {
                Some(plain) if *plain == evented => {
                    println!("identical ({} trace bytes)", evented.len());
                }
                Some(plain) => {
                    println!("DIVERGED (event loop leaked into the trace)");
                    report_divergence(plain, &evented);
                    all_identical = false;
                }
                None => println!("skipped (no plain trace to compare against)"),
            },
            Err(e) => {
                println!("ERROR");
                eprintln!("xtask determinism: scenario {label} (--event-loop): {e}");
                all_identical = false;
            }
        }

        // Re-run with --telemetry: the JSONL streams must be
        // byte-identical across same-seed runs, and telemetry must not
        // perturb the plain trace (its stdout extends the plain stdout).
        print!("xtask determinism: scenario {label} (+telemetry) ... ");
        match capture_with_telemetry(&cli, label, args, root) {
            Ok((stdout_a, events_a)) => match capture_with_telemetry(&cli, label, args, root) {
                Ok((stdout_b, events_b)) => {
                    if stdout_a != stdout_b {
                        println!("DIVERGED (stdout)");
                        report_divergence(&stdout_a, &stdout_b);
                        all_identical = false;
                    } else if events_a != events_b {
                        println!("DIVERGED (event stream)");
                        report_divergence(&events_a, &events_b);
                        all_identical = false;
                    } else if plain
                        .as_ref()
                        .is_some_and(|plain| !stdout_a.starts_with(plain))
                    {
                        println!("PERTURBED");
                        eprintln!(
                            "  --telemetry changed the trace itself: telemetry stdout is \
                             not an extension of the plain stdout"
                        );
                        all_identical = false;
                    } else {
                        println!(
                            "identical ({} trace bytes, {} event bytes)",
                            stdout_a.len(),
                            events_a.len()
                        );
                    }
                }
                Err(e) => {
                    println!("ERROR");
                    eprintln!("xtask determinism: scenario {label} (+telemetry): {e}");
                    all_identical = false;
                }
            },
            Err(e) => {
                println!("ERROR");
                eprintln!("xtask determinism: scenario {label} (+telemetry): {e}");
                all_identical = false;
            }
        }
    }
    // Sketch-aggregate mux leg: percentile + distinct + top-k share
    // rounds through the mux's deterministic node sweep. Sweep
    // estimators use no RNG (DESIGN.md §17), so the trace must replay
    // byte-identically and stay invariant under the parallel sampling
    // executor even though the AVG-serving machinery runs alongside.
    print!("xtask determinism: scenario temperature/sketch ... ");
    let sketch_plain = match (
        capture(&cli, SKETCH_ARGS, root),
        capture(&cli, SKETCH_ARGS, root),
    ) {
        (Ok(a), Ok(b)) if a == b => {
            println!("identical ({} trace bytes)", a.len());
            Some(a)
        }
        (Ok(a), Ok(b)) => {
            println!("DIVERGED");
            report_divergence(&a, &b);
            all_identical = false;
            None
        }
        (Err(e), _) | (_, Err(e)) => {
            println!("ERROR");
            eprintln!("xtask determinism: scenario temperature/sketch: {e}");
            all_identical = false;
            None
        }
    };
    print!("xtask determinism: scenario temperature/sketch (workers=4) ... ");
    let mut sketch_workers_args: Vec<&str> = vec!["--sampling-workers", "4"];
    sketch_workers_args.extend_from_slice(SKETCH_ARGS);
    match capture(&cli, &sketch_workers_args, root) {
        Ok(parallel) => match &sketch_plain {
            Some(plain) if *plain == parallel => {
                println!("identical ({} trace bytes)", parallel.len());
            }
            Some(plain) => {
                println!("DIVERGED (worker count leaked into the trace)");
                report_divergence(plain, &parallel);
                all_identical = false;
            }
            None => println!("skipped (no plain trace to compare against)"),
        },
        Err(e) => {
            println!("ERROR");
            eprintln!("xtask determinism: scenario temperature/sketch (workers=4): {e}");
            all_identical = false;
        }
    }

    if all_identical {
        println!(
            "xtask determinism: OK — all same-seed traces and telemetry streams byte-identical"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask determinism: FAILED — same-seed replay diverged");
        ExitCode::FAILURE
    }
}

/// Runs the CLI with `--telemetry` and returns `(stdout, jsonl bytes)`.
fn capture_with_telemetry(
    cli: &Path,
    label: &str,
    args: &[&str],
    root: &Path,
) -> Result<(Vec<u8>, Vec<u8>), String> {
    // Alternate between two scratch paths so consecutive runs cannot
    // accidentally compare a file against itself.
    static RUN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let run = RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed) % 2;
    let path = telemetry_scratch(root, label, run);
    let path_str = path.to_string_lossy().into_owned();
    let mut full_args: Vec<&str> = vec!["--telemetry", &path_str];
    full_args.extend_from_slice(args);
    let stdout = capture(cli, &full_args, root)?;
    let events = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok((stdout, events))
}

/// The scenario used by `cargo xtask telemetry-schema` (the first
/// determinism scenario: temperature world, PRED-3 + RPT, run with the
/// auditor and span tracing switched on so the audit/trace kinds are
/// exercised too).
const SCHEMA_REQUIRED_KINDS: &[&str] = &[
    "audit.occasion",
    "sampling.batch",
    "sampling.snapshot",
    "sampling.walk",
    "scheduler.decision",
    "span",
    "tick",
];

/// Pipeline stages whose `span` events the traced solo scenario must
/// show: the per-tick ground-truth oracle, so its time is attributed.
const SCHEMA_REQUIRED_STAGES: &[&str] = &["oracle"];

/// Event kinds the mux telemetry-schema leg must additionally cover: the
/// shared-round envelope plus the member occasions parented to it.
const MUX_SCHEMA_REQUIRED_KINDS: &[&str] = &["audit.occasion", "mux.round", "tick"];

/// Validates one captured JSONL stream line-by-line against the event
/// schema and checks the required kinds appear. Returns false (after
/// printing diagnostics) on any invalid line or missing kind.
fn validate_event_stream(events: &[u8], required: &[&str]) -> bool {
    let text = String::from_utf8_lossy(events);
    let mut kind_counts: Vec<(String, usize)> = Vec::new();
    let mut violations = 0usize;
    let mut lines = 0usize;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        if let Err(message) = digest_telemetry::schema::validate_line(line) {
            violations += 1;
            if violations <= 10 {
                eprintln!("  line {}: {message}", idx + 1);
            }
            continue;
        }
        // validate_line guarantees a `"kind":"..."` member exists.
        let kind = line
            .split("\"kind\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or("?");
        match kind_counts.iter_mut().find(|(k, _)| k == kind) {
            Some(entry) => entry.1 += 1,
            None => kind_counts.push((kind.to_owned(), 1)),
        }
    }
    kind_counts.sort();
    for (kind, count) in &kind_counts {
        println!("  {kind:<24} {count:>8} event(s)");
    }
    let mut missing = Vec::new();
    for required in required {
        if !kind_counts.iter().any(|(k, _)| k == required) {
            missing.push(*required);
        }
    }
    if violations > 0 {
        eprintln!("xtask telemetry-schema: FAILED — {violations} invalid line(s) out of {lines}");
        false
    } else if !missing.is_empty() {
        eprintln!(
            "xtask telemetry-schema: FAILED — required event kind(s) missing: {}",
            missing.join(", ")
        );
        false
    } else {
        println!("  {lines} line(s) schema-valid, all required kinds present");
        true
    }
}

/// Checks that `span` events name every stage in `required` (lines are
/// canonical sorted-key JSON, already schema-validated). Returns false
/// after printing the missing stages.
fn require_span_stages(events: &[u8], required: &[&str]) -> bool {
    let text = String::from_utf8_lossy(events);
    let missing: Vec<&str> = required
        .iter()
        .copied()
        .filter(|stage| {
            let needle = format!("\"stage\":\"{stage}\"");
            !text
                .lines()
                .any(|line| line.contains("\"kind\":\"span\"") && line.contains(&needle))
        })
        .collect();
    if missing.is_empty() {
        println!("  span stages present: {}", required.join(", "));
        true
    } else {
        eprintln!(
            "xtask telemetry-schema: FAILED — no span event for stage(s): {}",
            missing.join(", ")
        );
        false
    }
}

fn run_telemetry_schema(root: &Path) -> ExitCode {
    let cli = match build_cli(root, "telemetry-schema") {
        Ok(cli) => cli,
        Err(code) => return code,
    };
    let (label, args) = DETERMINISM_RUNS[0];
    println!("xtask telemetry-schema: scenario {label} (+audit, +trace)");
    // Route the audit report and Chrome trace to scratch files purely so
    // their event kinds ("audit.occasion", "span") appear in the JSONL
    // stream under validation.
    let report_path = root.join("target/xtask-schema-report.json");
    let trace_path = root.join("target/xtask-schema-trace.json");
    let report_str = report_path.to_string_lossy().into_owned();
    let trace_str = trace_path.to_string_lossy().into_owned();
    let mut full_args: Vec<&str> = vec!["--audit-json", &report_str, "--trace-out", &trace_str];
    full_args.extend_from_slice(args);
    let (_, events) = match capture_with_telemetry(&cli, label, &full_args, root) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("xtask telemetry-schema: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = validate_event_stream(&events, SCHEMA_REQUIRED_KINDS)
        && require_span_stages(&events, SCHEMA_REQUIRED_STAGES);

    // Mux leg: the shared-round scenario must emit schema-valid
    // `mux.round` envelopes with member `audit.occasion` events.
    println!("xtask telemetry-schema: scenario temperature/mux (+audit)");
    let mux_report_path = root.join("target/xtask-schema-mux-report.json");
    let mux_report_str = mux_report_path.to_string_lossy().into_owned();
    let mut mux_args: Vec<&str> = vec!["--audit-json", &mux_report_str];
    mux_args.extend_from_slice(MUX_AUDIT_ARGS);
    match capture_with_telemetry(&cli, "mux", &mux_args, root) {
        Ok((_, mux_events)) => {
            ok &= validate_event_stream(&mux_events, MUX_SCHEMA_REQUIRED_KINDS);
        }
        Err(e) => {
            eprintln!("xtask telemetry-schema: mux leg: {e}");
            ok = false;
        }
    }

    if ok {
        println!("xtask telemetry-schema: OK — both scenarios schema-valid");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask telemetry-schema: FAILED");
        ExitCode::FAILURE
    }
}

/// Pinned tolerance for the worst absolute confidence-calibration miss,
/// `max_q |coverage(q) − q|`, in `cargo xtask audit`. The fixed-seed
/// temperature scenario lands around 0.10 with ~30 reporting occasions;
/// 0.35 leaves room for finite-sample noise while still catching a
/// mis-scaled CI half-width (which drifts toward 0.5 at the tails).
const AUDIT_DRIFT_TOLERANCE: f64 = 0.35;

/// Minimum reporting occasions for the audit gate to be meaningful.
const AUDIT_MIN_OCCASIONS: u64 = 10;

/// The three artefacts of one audited CLI run.
struct AuditedRun {
    stdout: Vec<u8>,
    report: Vec<u8>,
    trace: Vec<u8>,
}

/// One audited CLI run: captures stdout plus the audit-report and
/// Chrome-trace JSON files. `run` selects the scratch paths so
/// consecutive invocations never compare a file against itself.
fn capture_audited(
    cli: &Path,
    run: usize,
    args: &[&str],
    root: &Path,
) -> Result<AuditedRun, String> {
    let report_path = root.join(format!("target/xtask-audit-report-{run}.json"));
    let trace_path = root.join(format!("target/xtask-audit-trace-{run}.json"));
    let report_str = report_path.to_string_lossy().into_owned();
    let trace_str = trace_path.to_string_lossy().into_owned();
    let mut full_args: Vec<&str> = vec![
        "--audit",
        "--audit-json",
        &report_str,
        "--trace-out",
        &trace_str,
    ];
    full_args.extend_from_slice(args);
    let stdout = capture(cli, &full_args, root)?;
    let report =
        std::fs::read(&report_path).map_err(|e| format!("read {}: {e}", report_path.display()))?;
    let trace =
        std::fs::read(&trace_path).map_err(|e| format!("read {}: {e}", trace_path.display()))?;
    Ok(AuditedRun {
        stdout,
        report,
        trace,
    })
}

/// Pulls a required numeric field out of the audit-report JSON.
fn report_number(report: &serde_json::Value, key: &str) -> Result<f64, String> {
    report
        .get(key)
        .and_then(serde_json::Value::as_f64)
        .ok_or_else(|| format!("audit report is missing numeric field `{key}`"))
}

/// The 5-query mux scenario for `cargo xtask audit`: four generated AVG
/// contracts (the `--queries` tier mix) plus one predicate query, all
/// served through one shared `QueryMux` — so the gate checks every
/// member's empirical ε-violation rate against its *own* `1 − p`
/// binomial bound even when its occasions came from coalesced rounds.
const MUX_AUDIT_ARGS: &[&str] = &[
    "--world",
    "temperature",
    "--ticks",
    "120",
    "--seed",
    "20080402",
    "--scheduler",
    "pred3",
    "--estimator",
    "rpt",
    "--queries",
    "4",
    "SELECT AVG(temperature) FROM R WHERE temperature > 60 WITH delta=4, epsilon=3, p=0.9",
];

/// How a scenario's calibration drift is gated.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DriftGate {
    /// `max_q |coverage(q) − q|` — the standalone-engine gate, where the
    /// CI half-width is sized exactly to the query's own contract.
    Absolute,
    /// `max_q max(q − coverage(q), 0)` — the shared-round gate. Members
    /// piggybacking on rounds sized by a *tighter* member receive more
    /// samples than their own CLT requirement, so their coverage
    /// overshoots nominal (over-delivery, contract-safe by construction);
    /// only *under*-coverage would signal a mis-scaled half-width.
    UnderCoverageOnly,
}

/// The worst under-coverage across the report's calibration table:
/// `max_q max(nominal(q) − coverage(q), 0)`.
fn under_coverage_drift(report: &serde_json::Value) -> Option<f64> {
    let rows = report.get("calibration")?.as_array()?;
    let mut worst = 0.0f64;
    for row in rows {
        let nominal = row.get("nominal").and_then(serde_json::Value::as_f64)?;
        let coverage = row.get("coverage").and_then(serde_json::Value::as_f64)?;
        worst = worst.max(nominal - coverage);
    }
    Some(worst)
}

/// Gates one audit-report array: per query, enough occasions, ε-violation
/// rate within the promised rate plus binomial slack, calibration drift
/// within the pinned tolerance. Flips `ok` on any miss.
fn gate_reports(reports: &[serde_json::Value], scenario: &str, gate: DriftGate, ok: &mut bool) {
    for report in reports {
        let query = report
            .get("query")
            .and_then(serde_json::Value::as_str)
            .unwrap_or("?");
        let fields = (
            report_number(report, "occasions"),
            report_number(report, "violation_rate"),
            report_number(report, "violation_bound"),
            report_number(report, "calibration_drift"),
        );
        let (occasions, rate, bound, mut drift) = match fields {
            (Ok(o), Ok(r), Ok(b), Ok(d)) => (o, r, b, d),
            (o, r, b, d) => {
                for err in [o.err(), r.err(), b.err(), d.err()].into_iter().flatten() {
                    eprintln!("xtask audit [{scenario}]: {query}: {err}");
                }
                *ok = false;
                continue;
            }
        };
        let drift_label = match gate {
            DriftGate::Absolute => "calibration drift",
            DriftGate::UnderCoverageOnly => {
                match under_coverage_drift(report) {
                    Some(d) => drift = d,
                    None => {
                        eprintln!(
                            "xtask audit [{scenario}]: {query}: report has no \
                             usable calibration table"
                        );
                        *ok = false;
                        continue;
                    }
                }
                "under-coverage drift"
            }
        };
        println!(
            "xtask audit [{scenario}]: {query}: occasions {occasions}, violation rate {rate:.4} \
             (gate ≤ {bound:.4}), {drift_label} {drift:.4} (gate ≤ {AUDIT_DRIFT_TOLERANCE})"
        );
        #[allow(clippy::cast_precision_loss)]
        if occasions < AUDIT_MIN_OCCASIONS as f64 {
            eprintln!(
                "xtask audit [{scenario}]: {query}: only {occasions} reporting occasions \
                 (need ≥ {AUDIT_MIN_OCCASIONS} for the gate to mean anything)"
            );
            *ok = false;
        }
        if rate > bound {
            eprintln!(
                "xtask audit [{scenario}]: {query}: ε-violation rate {rate:.4} exceeds the \
                 promised rate plus binomial slack ({bound:.4})"
            );
            *ok = false;
        }
        if drift > AUDIT_DRIFT_TOLERANCE {
            eprintln!(
                "xtask audit [{scenario}]: {query}: {drift_label} {drift:.4} exceeds the \
                 pinned tolerance {AUDIT_DRIFT_TOLERANCE}"
            );
            *ok = false;
        }
    }
}

fn run_audit(root: &Path) -> ExitCode {
    let cli = match build_cli(root, "audit") {
        Ok(cli) => cli,
        Err(code) => return code,
    };
    let (label, args) = DETERMINISM_RUNS[0];
    println!("xtask audit: scenario {label}");

    // Reference runs: one plain (for the stdout-prefix check) and two
    // audited replays that must agree byte-for-byte on stdout, report,
    // and trace.
    let plain = match capture(&cli, args, root) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("xtask audit: plain run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let AuditedRun {
        stdout: stdout_a,
        report: report_a,
        trace: trace_a,
    } = match capture_audited(&cli, 0, args, root) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("xtask audit: audited run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;

    print!("xtask audit: replay determinism ... ");
    match capture_audited(&cli, 1, args, root) {
        Ok(AuditedRun {
            stdout: stdout_b,
            report: report_b,
            trace: trace_b,
        }) => {
            if stdout_a != stdout_b {
                println!("DIVERGED (stdout)");
                report_divergence(&stdout_a, &stdout_b);
                ok = false;
            } else if report_a != report_b {
                println!("DIVERGED (audit report)");
                report_divergence(&report_a, &report_b);
                ok = false;
            } else if trace_a != trace_b {
                println!("DIVERGED (chrome trace)");
                report_divergence(&trace_a, &trace_b);
                ok = false;
            } else {
                println!(
                    "identical ({} report bytes, {} trace bytes)",
                    report_a.len(),
                    trace_a.len()
                );
            }
        }
        Err(e) => {
            println!("ERROR");
            eprintln!("xtask audit: second audited run: {e}");
            ok = false;
        }
    }

    // Worker-count independence: the auditor observes the engine after
    // the deterministic join, so report, trace, and stdout must not move
    // a byte when the sampling executor runs on four workers.
    print!("xtask audit: workers=4 independence ... ");
    let mut workers_args: Vec<&str> = vec!["--sampling-workers", "4"];
    workers_args.extend_from_slice(args);
    match capture_audited(&cli, 2, &workers_args, root) {
        Ok(AuditedRun {
            stdout: stdout_w,
            report: report_w,
            trace: trace_w,
        }) => {
            if stdout_a != stdout_w {
                println!("DIVERGED (stdout)");
                report_divergence(&stdout_a, &stdout_w);
                ok = false;
            } else if report_w != report_a {
                println!("DIVERGED (audit report)");
                report_divergence(&report_a, &report_w);
                ok = false;
            } else if trace_w != trace_a {
                println!("DIVERGED (chrome trace)");
                report_divergence(&trace_a, &trace_w);
                ok = false;
            } else {
                println!("identical");
            }
        }
        Err(e) => {
            println!("ERROR");
            eprintln!("xtask audit: workers=4 run: {e}");
            ok = false;
        }
    }

    // Auditing must be an observer: the audited stdout extends the plain
    // stdout (same per-tick trace, report appended at the end).
    print!("xtask audit: stdout-prefix (auditing perturbs nothing) ... ");
    if stdout_a.starts_with(&plain) {
        println!("ok");
    } else {
        println!("PERTURBED");
        eprintln!("  --audit changed the per-tick trace itself");
        report_divergence(&plain, &stdout_a);
        ok = false;
    }

    // Gate on the report contents.
    let text = String::from_utf8_lossy(&report_a);
    let parsed: serde_json::Value = match serde_json::from_str(&text) {
        Ok(value) => value,
        Err(e) => {
            eprintln!("xtask audit: report is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reports = parsed.as_array().cloned().unwrap_or_default();
    if reports.is_empty() {
        eprintln!("xtask audit: FAILED — report contains no query audits");
        return ExitCode::FAILURE;
    }
    gate_reports(&reports, label, DriftGate::Absolute, &mut ok);

    // 5-query mux scenario: heterogeneous contracts served through one
    // shared QueryMux (coalesced rounds, shared panels). The audited
    // replay must stay byte-identical across replays and worker counts,
    // and *each* member must hold its own contract. The run-3 artefacts
    // (target/xtask-audit-report-3.json / -trace-3.json) are uploaded by
    // CI as the mux audit report.
    println!("xtask audit: scenario temperature/mux (5 queries, shared rounds)");
    let AuditedRun {
        stdout: mux_stdout_a,
        report: mux_report_a,
        trace: mux_trace_a,
    } = match capture_audited(&cli, 3, MUX_AUDIT_ARGS, root) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("xtask audit: mux audited run: {e}");
            return ExitCode::FAILURE;
        }
    };

    print!("xtask audit: mux replay determinism ... ");
    match capture_audited(&cli, 4, MUX_AUDIT_ARGS, root) {
        Ok(AuditedRun {
            stdout: stdout_b,
            report: report_b,
            trace: trace_b,
        }) => {
            if mux_stdout_a != stdout_b {
                println!("DIVERGED (stdout)");
                report_divergence(&mux_stdout_a, &stdout_b);
                ok = false;
            } else if mux_report_a != report_b {
                println!("DIVERGED (audit report)");
                report_divergence(&mux_report_a, &report_b);
                ok = false;
            } else if mux_trace_a != trace_b {
                println!("DIVERGED (chrome trace)");
                report_divergence(&mux_trace_a, &trace_b);
                ok = false;
            } else {
                println!(
                    "identical ({} report bytes, {} trace bytes)",
                    mux_report_a.len(),
                    mux_trace_a.len()
                );
            }
        }
        Err(e) => {
            println!("ERROR");
            eprintln!("xtask audit: second mux run: {e}");
            ok = false;
        }
    }

    print!("xtask audit: mux workers=4 independence ... ");
    let mut mux_workers_args: Vec<&str> = vec!["--sampling-workers", "4"];
    mux_workers_args.extend_from_slice(MUX_AUDIT_ARGS);
    match capture_audited(&cli, 5, &mux_workers_args, root) {
        Ok(AuditedRun {
            stdout: stdout_w,
            report: report_w,
            trace: trace_w,
        }) => {
            if mux_stdout_a != stdout_w {
                println!("DIVERGED (stdout)");
                report_divergence(&mux_stdout_a, &stdout_w);
                ok = false;
            } else if mux_report_a != report_w {
                println!("DIVERGED (audit report)");
                report_divergence(&mux_report_a, &report_w);
                ok = false;
            } else if mux_trace_a != trace_w {
                println!("DIVERGED (chrome trace)");
                report_divergence(&mux_trace_a, &trace_w);
                ok = false;
            } else {
                println!("identical");
            }
        }
        Err(e) => {
            println!("ERROR");
            eprintln!("xtask audit: mux workers=4 run: {e}");
            ok = false;
        }
    }

    let mux_text = String::from_utf8_lossy(&mux_report_a);
    let mux_parsed: serde_json::Value = match serde_json::from_str(&mux_text) {
        Ok(value) => value,
        Err(e) => {
            eprintln!("xtask audit: mux report is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mux_reports = mux_parsed.as_array().cloned().unwrap_or_default();
    if mux_reports.len() != 5 {
        eprintln!(
            "xtask audit: FAILED — mux scenario must audit 5 queries, got {}",
            mux_reports.len()
        );
        return ExitCode::FAILURE;
    }
    gate_reports(
        &mux_reports,
        "temperature/mux",
        DriftGate::UnderCoverageOnly,
        &mut ok,
    );

    // Sketch-aggregate scenario: percentile + COUNT DISTINCT + top-k
    // through one shared mux (DESIGN.md §17). Sweep estimators land far
    // inside their ε budgets, so nominal coverage saturates at 1.0 and
    // only *under*-coverage would flag a mis-scaled band — hence the
    // shared-round drift gate. The run-6 artefacts
    // (target/xtask-audit-report-6.json / -trace-6.json) are uploaded by
    // CI as the sketch audit report.
    println!("xtask audit: scenario temperature/sketch (p90+distinct+top4, shared rounds)");
    let AuditedRun {
        stdout: sketch_stdout_a,
        report: sketch_report_a,
        trace: sketch_trace_a,
    } = match capture_audited(&cli, 6, SKETCH_ARGS, root) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("xtask audit: sketch audited run: {e}");
            return ExitCode::FAILURE;
        }
    };

    print!("xtask audit: sketch replay determinism ... ");
    match capture_audited(&cli, 7, SKETCH_ARGS, root) {
        Ok(AuditedRun {
            stdout: stdout_b,
            report: report_b,
            trace: trace_b,
        }) => {
            if sketch_stdout_a != stdout_b {
                println!("DIVERGED (stdout)");
                report_divergence(&sketch_stdout_a, &stdout_b);
                ok = false;
            } else if sketch_report_a != report_b {
                println!("DIVERGED (audit report)");
                report_divergence(&sketch_report_a, &report_b);
                ok = false;
            } else if sketch_trace_a != trace_b {
                println!("DIVERGED (chrome trace)");
                report_divergence(&sketch_trace_a, &trace_b);
                ok = false;
            } else {
                println!(
                    "identical ({} report bytes, {} trace bytes)",
                    sketch_report_a.len(),
                    sketch_trace_a.len()
                );
            }
        }
        Err(e) => {
            println!("ERROR");
            eprintln!("xtask audit: second sketch run: {e}");
            ok = false;
        }
    }

    print!("xtask audit: sketch workers=4 independence ... ");
    let mut sketch_workers_args: Vec<&str> = vec!["--sampling-workers", "4"];
    sketch_workers_args.extend_from_slice(SKETCH_ARGS);
    match capture_audited(&cli, 8, &sketch_workers_args, root) {
        Ok(AuditedRun {
            stdout: stdout_w,
            report: report_w,
            trace: trace_w,
        }) => {
            if sketch_stdout_a != stdout_w {
                println!("DIVERGED (stdout)");
                report_divergence(&sketch_stdout_a, &stdout_w);
                ok = false;
            } else if sketch_report_a != report_w {
                println!("DIVERGED (audit report)");
                report_divergence(&sketch_report_a, &report_w);
                ok = false;
            } else if sketch_trace_a != trace_w {
                println!("DIVERGED (chrome trace)");
                report_divergence(&sketch_trace_a, &trace_w);
                ok = false;
            } else {
                println!("identical");
            }
        }
        Err(e) => {
            println!("ERROR");
            eprintln!("xtask audit: sketch workers=4 run: {e}");
            ok = false;
        }
    }

    let sketch_text = String::from_utf8_lossy(&sketch_report_a);
    let sketch_parsed: serde_json::Value = match serde_json::from_str(&sketch_text) {
        Ok(value) => value,
        Err(e) => {
            eprintln!("xtask audit: sketch report is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sketch_reports = sketch_parsed.as_array().cloned().unwrap_or_default();
    if sketch_reports.len() != 3 {
        eprintln!(
            "xtask audit: FAILED — sketch scenario must audit 3 queries, got {}",
            sketch_reports.len()
        );
        return ExitCode::FAILURE;
    }
    gate_reports(
        &sketch_reports,
        "temperature/sketch",
        DriftGate::UnderCoverageOnly,
        &mut ok,
    );

    if ok {
        println!("xtask audit: OK — guarantee report within bounds, replays byte-identical");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask audit: FAILED");
        ExitCode::FAILURE
    }
}

/// Runs the CLI once and returns its stdout bytes (the trace).
fn capture(cli: &Path, args: &[&str], root: &Path) -> Result<Vec<u8>, String> {
    let output = Command::new(cli)
        .args(args)
        .current_dir(root)
        .output()
        .map_err(|e| format!("failed to run {}: {e}", cli.display()))?;
    if !output.status.success() {
        return Err(format!(
            "digest-cli exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(output.stdout)
}

fn report_divergence(a: &[u8], b: &[u8]) {
    if a.len() != b.len() {
        eprintln!("  trace lengths differ: {} vs {} bytes", a.len(), b.len());
    }
    let text_a = String::from_utf8_lossy(a);
    let text_b = String::from_utf8_lossy(b);
    for (idx, (la, lb)) in text_a.lines().zip(text_b.lines()).enumerate() {
        if la != lb {
            eprintln!("  first divergence at line {}:", idx + 1);
            eprintln!("    run 1: {la}");
            eprintln!("    run 2: {lb}");
            return;
        }
    }
    eprintln!("  one trace is a strict prefix of the other");
}
