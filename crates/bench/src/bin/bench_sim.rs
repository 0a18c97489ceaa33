//! Million-node overlay benchmark: the overlay store end to end.
//!
//! Three phases, each with its own allocation-pressure delta from the
//! counting global allocator:
//!
//! * **build** — bulk-loads the Barabási–Albert overlay into a `Graph`
//!   (u32 CSR neighbor arena) and reports nodes/sec plus resident
//!   bytes/node of the cold graph (`Graph::heap_bytes`).
//! * **run (workers = 1)** — the event-driven flat simulation
//!   (`digest_sim::run_flat`): churn batches + periodic continuous-query
//!   occasions answered by the sampling operator's M–H walk over the
//!   same overlay, reporting events/sec. The event
//!   queue only charges for due ticks, so the quiet spans between churn
//!   and query occasions cost nothing — `ticks_executed` ≪ `ticks` is
//!   the point.
//! * **run (workers = 4)** — the same simulation with the sharded
//!   walk executor running on four OS threads; the report must be
//!   **byte-identical** to the single-worker run (per-shard counter-split
//!   RNG streams + fixed-order merge), or the process exits non-zero.
//!
//! `--scale quick` (default, 10⁵ nodes) is the CI smoke configuration;
//! `--scale full` runs the paper-scale 10⁶-node overlay. Regression
//! gates: resident bytes/node ≤ 64 (every graph column's capacity plus
//! the value column), workers {1,4} byte-identical, and an
//! events/sec floor generous enough to only catch order-of-magnitude
//! regressions (wall-clock is machine-dependent).
//!
//! Results are written to `BENCH_sim.json`.

use digest_bench::metrics::{memory_json, AllocSnapshot, CountingAlloc};
use digest_bench::{banner, Scale};
use digest_net::topology;
use digest_sim::{run_flat, FlatSimConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::json;
use std::io::Write as _;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SEED: u64 = 20080402;

/// Gate: the overlay (every graph column plus the value column) must
/// stay within this resident-footprint budget at every scale.
const MAX_BYTES_PER_NODE: f64 = 64.0;

/// Gate: events/sec floor (simulation phase, workers = 1). Set two
/// orders of magnitude below what a modest host measures so only
/// catastrophic regressions (e.g. the event loop degenerating to
/// per-tick scans) trip it.
const MIN_EVENTS_PER_SEC: f64 = 50.0;

fn config_for(scale: Scale, workers: usize) -> FlatSimConfig {
    match scale {
        Scale::Quick => FlatSimConfig {
            nodes: 100_000,
            attach: 3,
            ticks: 2_000,
            churn_interval: 100,
            churn_leaves: 100,
            churn_joins: 100,
            query_interval: 50,
            walks: 128,
            walk_length: 25,
            shards: 64,
            workers,
            seed: SEED,
        },
        Scale::Full => FlatSimConfig {
            nodes: 1_000_000,
            attach: 3,
            ticks: 10_000,
            churn_interval: 100,
            churn_leaves: 500,
            churn_joins: 500,
            query_interval: 50,
            walks: 256,
            walk_length: 30,
            shards: 64,
            workers,
            seed: SEED,
        },
    }
}

#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
fn main() {
    let scale = Scale::from_args();
    banner("BENCH_sim", "million-node flat overlay simulation", scale);
    let config = config_for(scale, 1);
    println!(
        "world: BA overlay, {} nodes (attach {}), {} ticks, churn every {} ticks \
         ({} leave / {} join), query every {} ticks ({} walks × {} hops), {} shards",
        config.nodes,
        config.attach,
        config.ticks,
        config.churn_interval,
        config.churn_leaves,
        config.churn_joins,
        config.query_interval,
        config.walks,
        config.walk_length,
        config.shards,
    );
    println!();

    // Phase 1: overlay construction.
    let alloc_before_build = AllocSnapshot::now();
    let mut build_rng = ChaCha8Rng::seed_from_u64(SEED);
    let build_start = Instant::now();
    let graph = topology::barabasi_albert(config.nodes, config.attach, &mut build_rng)
        .expect("overlay build");
    let build_ns = build_start.elapsed().as_nanos() as u64;
    let build_alloc = AllocSnapshot::now().delta_since(&alloc_before_build);
    let build_nodes_per_sec = config.nodes as f64 / (build_ns.max(1) as f64 / 1e9);
    let cold_bytes_per_node = graph.heap_bytes() as f64 / graph.node_count() as f64;
    println!(
        "build: {} nodes in {:.1} ms → {:.0} nodes/sec, {:.1} bytes/node cold \
         ({} allocations, {} bytes allocated)",
        config.nodes,
        build_ns as f64 / 1e6,
        build_nodes_per_sec,
        cold_bytes_per_node,
        build_alloc.allocations,
        build_alloc.bytes,
    );
    drop(graph);

    // Phase 2: the event-driven simulation, single-threaded reference.
    let alloc_before_w1 = AllocSnapshot::now();
    let w1_start = Instant::now();
    let report_w1 = run_flat(&config).expect("flat run (workers=1)");
    let w1_ns = w1_start.elapsed().as_nanos() as u64;
    let w1_alloc = AllocSnapshot::now().delta_since(&alloc_before_w1);
    // run_flat rebuilds the overlay internally; charge the sim phase the
    // run wall minus the separately measured build wall (clamped: the
    // estimate is from an identical-cost build with a different seed).
    let sim_ns = w1_ns.saturating_sub(build_ns).max(1);
    let events_per_sec = report_w1.events_executed as f64 / (sim_ns as f64 / 1e9);
    println!(
        "run(w=1): {} / {} ticks executed ({} events: {} occasions, {} churn batches), \
         {} walks, {} messages in {:.1} ms → {:.0} events/sec",
        report_w1.ticks_executed,
        report_w1.ticks,
        report_w1.events_executed,
        report_w1.occasions,
        report_w1.churn_batches,
        report_w1.walks,
        report_w1.messages,
        w1_ns as f64 / 1e6,
        events_per_sec,
    );
    println!(
        "         {} live nodes, {} graph + value bytes → {:.1} bytes/node \
         ({} allocations, {} bytes allocated)",
        report_w1.live_nodes,
        report_w1.store_bytes,
        report_w1.bytes_per_node,
        w1_alloc.allocations,
        w1_alloc.bytes,
    );

    // Phase 3: the same simulation on four worker threads.
    let config_w4 = config_for(scale, 4);
    let alloc_before_w4 = AllocSnapshot::now();
    let w4_start = Instant::now();
    let report_w4 = run_flat(&config_w4).expect("flat run (workers=4)");
    let w4_ns = w4_start.elapsed().as_nanos() as u64;
    let w4_alloc = AllocSnapshot::now().delta_since(&alloc_before_w4);
    let identical = report_w1 == report_w4;
    println!(
        "run(w=4): {:.1} ms, reports {}",
        w4_ns as f64 / 1e6,
        if identical {
            "byte-identical to w=1"
        } else {
            "DIVERGED from w=1"
        },
    );
    println!();

    let bytes_ok = report_w1.bytes_per_node <= MAX_BYTES_PER_NODE;
    let events_ok = events_per_sec >= MIN_EVENTS_PER_SEC;
    println!(
        "gates: bytes/node {:.1} ≤ {MAX_BYTES_PER_NODE} [{}], events/sec {:.0} ≥ \
         {MIN_EVENTS_PER_SEC} [{}], workers {{1,4}} identical [{}]",
        report_w1.bytes_per_node,
        if bytes_ok { "ok" } else { "FAIL" },
        events_per_sec,
        if events_ok { "ok" } else { "FAIL" },
        if identical { "ok" } else { "FAIL" },
    );

    let estimates_tail: Vec<_> = report_w1
        .estimates
        .iter()
        .rev()
        .take(4)
        .rev()
        .map(|&(tick, est)| json!({"tick": tick, "estimate": est}))
        .collect();
    let out = json!({
        "benchmark": "BENCH_sim",
        "scale": scale.label(),
        "config": {
            "nodes": config.nodes,
            "attach": config.attach,
            "ticks": config.ticks,
            "churn_interval": config.churn_interval,
            "churn_leaves": config.churn_leaves,
            "churn_joins": config.churn_joins,
            "query_interval": config.query_interval,
            "walks": config.walks,
            "walk_length": config.walk_length,
            "shards": config.shards,
            "seed": SEED,
        },
        "build": {
            "wall_ns": build_ns,
            "nodes_per_sec": build_nodes_per_sec,
            "cold_bytes_per_node": cold_bytes_per_node,
            "alloc": build_alloc.to_json(),
        },
        "run": {
            "ticks": report_w1.ticks,
            "ticks_executed": report_w1.ticks_executed,
            "events_executed": report_w1.events_executed,
            "occasions": report_w1.occasions,
            "churn_batches": report_w1.churn_batches,
            "joins": report_w1.joins,
            "leaves": report_w1.leaves,
            "walks": report_w1.walks,
            "messages": report_w1.messages,
            "live_nodes": report_w1.live_nodes,
            "store_bytes": report_w1.store_bytes,
            "bytes_per_node": report_w1.bytes_per_node,
            "wall_ns_w1": w1_ns,
            "wall_ns_w4": w4_ns,
            "sim_ns_w1": sim_ns,
            "events_per_sec": events_per_sec,
            "alloc_w1": w1_alloc.to_json(),
            "alloc_w4": w4_alloc.to_json(),
            "estimates_tail": estimates_tail,
        },
        "gates": {
            "max_bytes_per_node": MAX_BYTES_PER_NODE,
            "bytes_per_node_ok": bytes_ok,
            "min_events_per_sec": MIN_EVENTS_PER_SEC,
            "events_per_sec_ok": events_ok,
            "workers_identical": identical,
        },
        "memory": memory_json(),
    });
    let path = std::path::Path::new("BENCH_sim.json");
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

    if !bytes_ok || !events_ok || !identical {
        std::process::exit(1);
    }
}
