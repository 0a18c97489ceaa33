//! The three workloads and one repetition of each: build the world,
//! construct the system, register the queries (set-up), then drive the
//! run through the real runner or, when traced, through the timed seams.

use crate::seams::{run_mux_traced, Probe, ProbedObserver, ProbedSystem, ProbedWorkload};
use digest_audit::MuxAudit;
use digest_bench::metrics::AllocSnapshot;
use digest_bench::{engine_for, memory, temperature, Scale};
use digest_core::{
    AggregateOp, ContinuousQuery, EstimatorKind, MuxConfig, MuxObserver, NoopMuxObserver,
    NoopObserver, Precision, QueryMux, QuerySystem, SchedulerKind,
};
use digest_db::Expr;
use digest_sim::{run_mux, run_observed, RunConfig, RunReport};
use digest_workload::Workload;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Paper-scale TEMPERATURE, one AVG under PRED-3+RPT at δ=2, ε=0.5,
    /// p=0.95: an occasion every tick, so sampling does real work.
    SoloTight,
    /// Quick-scale TEMPERATURE, 32 AVG queries in four contract tiers on
    /// one audited `QueryMux`: the per-query ledger and oracles dominate.
    Fleet32Audited,
    /// Paper-scale MEMORY with churn, run past its recording: seven
    /// members of every kind on one mux, so sketch sweeps, snapshot
    /// rebuilds and capture–recapture sizing all run.
    ChurnMix,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::SoloTight, Kind::Fleet32Audited, Kind::ChurnMix];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SoloTight => "temperature-solo-tight",
            Kind::Fleet32Audited => "temperature-fleet32-audited",
            Kind::ChurnMix => "memory-churn-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Repetitions in one measured cycle, each over its own world. Enough
    /// simulated ticks that the per-tick message cost is steady across
    /// run seeds; the audited fleet's PRED-k rounds vary the most.
    pub fn reps(self) -> u64 {
        match self {
            Kind::SoloTight => 6,
            Kind::Fleet32Audited => 4,
            Kind::ChurnMix => 3,
        }
    }

    /// Simulated ticks per repetition.
    pub fn ticks(self) -> u64 {
        match self {
            Kind::SoloTight => 1_080,
            Kind::Fleet32Audited => 240,
            Kind::ChurnMix => 900,
        }
    }
}

/// Set-ups timed per repetition; the last one is the one that runs.
const SETUPS: usize = 10;

/// Everything one repetition produced.
pub struct Rep {
    pub setup_ns: Vec<u64>,
    pub run_ns: u64,
    pub tick_ns: Vec<u64>,
    pub alloc_bytes: u64,
    pub reports: Vec<RunReport>,
    /// The member queries, in the order of `reports`.
    pub members: Vec<ContinuousQuery>,
    /// Coalesced sampling rounds the mux paid for (0 for a lone engine).
    pub rounds: u64,
    /// The system's own `(snapshots, samples, messages)` totals.
    pub totals: (u64, u64, u64),
    pub probe: Probe,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Builds a repetition's set-up `SETUPS` times, timing each, and keeps
/// the last build.
fn timed_setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<u64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    loop {
        let started = Instant::now();
        let built = build()?;
        times.push(nanos(started));
        if times.len() == SETUPS {
            return Ok((built, times));
        }
    }
}

fn precision(delta: f64, epsilon: f64, p: f64) -> Result<Precision, String> {
    Precision::new(delta, epsilon, p).map_err(|e| e.to_string())
}

/// Runs repetition `rep` of `kind` under `seed`. The world of repetition
/// `rep` is `digest_bench`'s world number `rep`, the same for every seed;
/// `seed` seeds the run's own randomness: walks, panel draws and origin
/// election.
pub fn run_rep(kind: Kind, seed: u64, rep: u64, traced: bool) -> Result<Rep, String> {
    let world_seed = rep;
    let run_seed = splitmix64(seed.wrapping_mul(0x100).wrapping_add(rep));
    match kind {
        Kind::SoloTight => solo(world_seed, run_seed, traced),
        Kind::Fleet32Audited => run_mux_rep(
            &|| {
                let world = temperature(Scale::Quick, world_seed);
                let tiers = [
                    (8.0, 4.0, 0.90),
                    (8.0, 2.0, 0.95),
                    (4.0, 4.0, 0.90),
                    (4.0, 2.0, 0.95),
                ];
                let expr = Expr::first_attr(world.db().schema());
                let queries = (0..32)
                    .map(|i| {
                        let (d, e, p) = tiers[i % tiers.len()];
                        Ok(ContinuousQuery::avg(expr.clone(), precision(d, e, p)?))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok((world, queries))
            },
            true,
            kind.ticks(),
            run_seed,
            traced,
        ),
        Kind::ChurnMix => run_mux_rep(
            &|| {
                let world = memory(Scale::Full, world_seed);
                let db = world.db();
                let expr = Expr::first_attr(db.schema());
                #[allow(clippy::cast_precision_loss)]
                let count = db.total_tuples() as f64;
                let sum = db.exact_sum(&expr).map_err(|e| e.to_string())?;
                // COUNT(*) and SUM at their natural 10% contracts (δ = 2ε)
                // of the relation at set-up; the other kinds at the CLI's
                // per-kind defaults.
                let members = [
                    (AggregateOp::Avg, precision(4.0, 2.0, 0.95)?),
                    (AggregateOp::Median, precision(4.0, 2.0, 0.95)?),
                    (
                        AggregateOp::Percentile { q_permille: 900 },
                        precision(4.0, 2.0, 0.95)?,
                    ),
                    (AggregateOp::Distinct, precision(8.0, 0.15, 0.95)?),
                    (AggregateOp::TopK { k: 4 }, precision(0.05, 0.1, 0.95)?),
                    (
                        AggregateOp::Count,
                        precision(0.2 * count, 0.1 * count, 0.95)?,
                    ),
                    (AggregateOp::Sum, precision(0.2 * sum, 0.1 * sum, 0.95)?),
                ];
                let queries = members
                    .into_iter()
                    .map(|(op, p)| ContinuousQuery::new(op, expr.clone(), p))
                    .collect();
                Ok((world, queries))
            },
            false,
            kind.ticks(),
            run_seed,
            traced,
        ),
    }
}

fn solo(world_seed: u64, run_seed: u64, traced: bool) -> Result<Rep, String> {
    let (delta, epsilon) = (2.0, 0.5);
    let ((world, engine), setup_ns) = timed_setup(|| {
        let world = temperature(Scale::Full, world_seed);
        let engine = engine_for(
            &world,
            SchedulerKind::Pred(3),
            EstimatorKind::Repeated,
            delta,
            epsilon,
            0.95,
        )
        .map_err(|e| e.to_string())?;
        Ok((world, engine))
    })?;
    let query = engine.query().clone();

    let ticks = Kind::SoloTight.ticks();
    let probe = Probe::new(traced, ticks);
    let mut workload = ProbedWorkload {
        inner: world,
        probe: &probe,
    };
    let mut system = ProbedSystem {
        inner: engine,
        probe: &probe,
    };
    let mut observer = ProbedObserver {
        inner: NoopObserver,
        probe: &probe,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(run_seed);
    let config = RunConfig {
        ticks,
        respect_duration: true,
        sampling_workers: Some(1),
    };
    digest_telemetry::reset_run_state();
    let alloc = AllocSnapshot::now();
    let start = Instant::now();
    let report = run_observed(
        &mut workload,
        &mut system,
        config,
        delta,
        epsilon,
        &mut rng,
        &mut observer,
    )
    .map_err(|e| format!("runner error: {e}"))?;
    let end = Instant::now();
    let alloc_bytes = AllocSnapshot::now().delta_since(&alloc).bytes;
    let tick_ns = probe.tick_ns(end);
    let engine = system.inner;
    let totals = (
        engine.total_snapshots(),
        engine.total_samples(),
        engine.total_messages(),
    );
    drop((workload, observer));
    Ok(Rep {
        setup_ns,
        run_ns: u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX),
        tick_ns,
        alloc_bytes,
        reports: vec![report],
        members: vec![query],
        rounds: 0,
        totals,
        probe,
    })
}

fn run_mux_rep<W: Workload>(
    build: &dyn Fn() -> Result<(W, Vec<ContinuousQuery>), String>,
    audited: bool,
    ticks: u64,
    run_seed: u64,
    traced: bool,
) -> Result<Rep, String> {
    let ((world, queries, mut mux, mut audit), setup_ns) = timed_setup(|| {
        let (world, queries) = build()?;
        let mut mux = QueryMux::new(MuxConfig::default()).map_err(|e| e.to_string())?;
        let mut audit = MuxAudit::new();
        for q in &queries {
            let id = mux.register(q.clone()).map_err(|e| e.to_string())?;
            if audited {
                audit.register(id, q).map_err(|e| e.to_string())?;
            }
        }
        Ok((world, queries, mux, audit))
    })?;

    let probe = Probe::new(traced, ticks);
    let mut workload = ProbedWorkload {
        inner: world,
        probe: &probe,
    };
    let mut noop = NoopMuxObserver;
    let observer: &mut dyn MuxObserver = if audited { &mut audit } else { &mut noop };
    let mut rng = ChaCha8Rng::seed_from_u64(run_seed);
    digest_telemetry::reset_run_state();
    let alloc = AllocSnapshot::now();
    let start = Instant::now();
    let reports = if traced {
        run_mux_traced(&mut workload, &mut mux, ticks, &mut rng, observer)
    } else {
        let config = RunConfig {
            ticks,
            respect_duration: false,
            sampling_workers: Some(1),
        };
        run_mux(&mut workload, &mut mux, config, &mut rng, observer)
    }
    .map_err(|e| format!("runner error: {e}"))?;
    let end = Instant::now();
    let alloc_bytes = AllocSnapshot::now().delta_since(&alloc).bytes;
    let tick_ns = probe.tick_ns(end);
    drop(workload);
    Ok(Rep {
        setup_ns,
        run_ns: u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX),
        tick_ns,
        alloc_bytes,
        reports,
        members: queries,
        rounds: mux.rounds(),
        totals: (
            mux.total_snapshots(),
            mux.total_samples(),
            mux.total_messages(),
        ),
        probe,
    })
}
