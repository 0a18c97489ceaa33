//! Integration: the deterministic parallel walk executor.
//!
//! Three pins on the sampling operator's batch mode:
//!
//! 1. **Worker-count independence** — the sampled panel (handles, tuple
//!    values, per-sample costs, caller-RNG advance) is byte-identical at
//!    1, 2, 4, and 8 workers across a matrix of seeds and topologies.
//! 2. **Statistical correctness** — panels drawn through the parallel
//!    executor stay uniform over tuples (the §V guarantee), measured by
//!    total-variation distance exactly like the sequential suite.
//! 3. **Table-reuse invisibility** — overlay churn between occasions
//!    (joins, departures, rewired edges) must leave the reused-or-rebuilt
//!    M–H tables byte-identical to rebuilding them every occasion, for
//!    every worker count and seed.

use digest::db::{P2PDatabase, Schema, Tuple};
use digest::net::{topology, Graph, NodeId};
use digest::sampling::{SamplingConfig, SamplingOperator};
use digest::stats::{total_variation_distance, DiscreteDistribution};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A database with skewed content sizes: node `i` holds `(i mod 7)² + 1`
/// tuples (same shape as the sequential correctness suite).
fn skewed_db(g: &Graph) -> P2PDatabase {
    let mut db = P2PDatabase::new(Schema::single("a"));
    for (i, v) in g.nodes().enumerate() {
        db.register_node(v);
        let m = (i % 7) * (i % 7) + 1;
        for j in 0..m {
            db.insert(v, Tuple::single((i * 1_000 + j) as f64)).unwrap();
        }
    }
    db
}

/// Draws `occasions` panels of `panel` tuples with the given worker
/// count and returns every observable byte: handles, value bits, costs,
/// pool evolution, and the caller RNG's post-run position.
fn panel_fingerprint(
    g: &Graph,
    db: &P2PDatabase,
    seed: u64,
    workers: usize,
    occasions: usize,
    panel: usize,
) -> Vec<u64> {
    let mut op = SamplingOperator::new(SamplingConfig {
        workers,
        ..SamplingConfig::recommended(g.node_count())
    })
    .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let origin = g.nodes().next().unwrap();
    let mut fp = Vec::new();
    for _ in 0..occasions {
        op.begin_occasion();
        let batch = op.sample_tuples(g, db, origin, panel, &mut rng).unwrap();
        assert_eq!(batch.len(), panel);
        for (handle, tuple, cost) in batch {
            fp.push(u64::from(handle.node.0));
            fp.push(u64::from(handle.slot));
            fp.push(u64::from(handle.generation));
            for v in tuple.values() {
                fp.push(v.to_bits());
            }
            fp.push(cost.walk_messages);
            fp.push(cost.report_messages);
        }
        fp.push(op.pool_size() as u64);
        fp.push(op.total_messages());
    }
    // The caller's RNG must land in the same state regardless of workers.
    fp.push(rng.next_u64());
    fp
}

#[test]
fn parallel_panels_are_byte_identical_across_seeds_and_worker_counts() {
    let mut topo_rng = ChaCha8Rng::seed_from_u64(99);
    let g = topology::barabasi_albert(150, 2, &mut topo_rng).unwrap();
    let db = skewed_db(&g);

    for seed in [1, 2, 3, 5, 8, 13, 21, 34, 55, 89] {
        let reference = panel_fingerprint(&g, &db, seed, 1, 3, 24);
        for workers in [2, 4, 8] {
            let parallel = panel_fingerprint(&g, &db, seed, workers, 3, 24);
            assert_eq!(
                reference, parallel,
                "seed {seed}: panel at {workers} workers diverged from sequential"
            );
        }
    }
}

#[test]
fn parallel_panels_are_byte_identical_on_a_mesh_overlay() {
    // A second topology family so the pin is not BA-specific.
    let g = topology::mesh(8, 8, false).unwrap();
    let db = skewed_db(&g);
    for seed in [7, 11, 19, 23, 31, 43, 47, 61] {
        let reference = panel_fingerprint(&g, &db, seed, 1, 2, 16);
        for workers in [2, 4, 8] {
            let parallel = panel_fingerprint(&g, &db, seed, workers, 2, 16);
            assert_eq!(
                reference, parallel,
                "seed {seed}: mesh panel at {workers} workers diverged"
            );
        }
    }
}

/// Appends one occasion's observable bytes to `fp`.
fn draw_occasion(
    g: &Graph,
    db: &P2PDatabase,
    op: &mut SamplingOperator,
    origin: NodeId,
    panel: usize,
    rng: &mut ChaCha8Rng,
    fp: &mut Vec<u64>,
) {
    op.begin_occasion();
    let batch = op.sample_tuples(g, db, origin, panel, rng).unwrap();
    assert_eq!(batch.len(), panel);
    for (handle, tuple, cost) in batch {
        fp.push(u64::from(handle.node.0));
        fp.push(u64::from(handle.slot));
        fp.push(u64::from(handle.generation));
        for v in tuple.values() {
            fp.push(v.to_bits());
        }
        fp.push(cost.walk_messages);
        fp.push(cost.report_messages);
    }
    fp.push(op.pool_size() as u64);
    fp.push(op.total_messages());
}

/// Bumps `g`'s mutation epoch without changing what a walk can see:
/// adds an edge between `origin` and a non-neighbor, then removes it.
/// The edge is appended to both rows and swap-removed from their ends,
/// so every neighbor list keeps its content and order; only arena slots
/// may move (row relocation), which the rebuilt tables must follow.
fn force_rebuild(g: &mut Graph, origin: NodeId) {
    let other = g
        .nodes()
        .find(|&u| u != origin && !g.has_edge(origin, u))
        .unwrap();
    assert!(g.add_edge(origin, other).unwrap());
    assert!(g.remove_edge(origin, other).unwrap());
}

/// Replays a fixed churn script — two quiet occasions, then a join
/// (node + two edges), a departure, and an edge rewire, each followed by
/// an occasion — and fingerprints everything the operator returned plus
/// the caller RNG's final position. The graph, database, and mutation
/// sequence are reconstructed identically on every call. With `cold`
/// set, [`force_rebuild`] runs before every occasion, so the operator
/// rebuilds its tables each time: the reference the reusing run must
/// match byte for byte.
fn churned_fingerprint(seed: u64, workers: usize, cold: bool) -> Vec<u64> {
    let mut topo_rng = ChaCha8Rng::seed_from_u64(0xC0FF_EE00 ^ seed);
    let mut g = topology::barabasi_albert(100, 2, &mut topo_rng).unwrap();
    let mut db = skewed_db(&g);
    let mut op = SamplingOperator::new(SamplingConfig {
        workers,
        ..SamplingConfig::recommended(g.node_count())
    })
    .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let origin = g.nodes().next().unwrap();
    let mut fp = Vec::new();
    let mut occasion = |g: &mut Graph, db: &P2PDatabase, fp: &mut Vec<u64>| {
        if cold {
            force_rebuild(g, origin);
        }
        draw_occasion(g, db, &mut op, origin, 20, &mut rng, fp);
    };

    // Two quiet occasions: the second is the reuse case.
    occasion(&mut g, &db, &mut fp);
    occasion(&mut g, &db, &mut fp);

    // Join: a new node with content and two edges.
    let joined = g.add_node();
    db.register_node(joined);
    db.insert(joined, Tuple::single(9_999.0)).unwrap();
    g.add_edge(joined, origin).unwrap();
    let anchor = g.nodes().find(|&u| u != joined && u != origin).unwrap();
    g.add_edge(joined, anchor).unwrap();
    occasion(&mut g, &db, &mut fp);

    // Departure: remove a node (its tuples become unreachable).
    let victim = g
        .nodes()
        .find(|&u| u != origin && u != joined && u != anchor)
        .unwrap();
    g.remove_node(victim).unwrap();
    occasion(&mut g, &db, &mut fp);

    // Rewire: detach one edge and attach its endpoint elsewhere.
    let a = g
        .nodes()
        .find(|&u| u != origin && g.degree(u) >= 2)
        .unwrap();
    let b = g.neighbors(a)[0];
    let c = g
        .nodes()
        .find(|&u| u != a && u != b && !g.has_edge(a, u))
        .unwrap();
    g.remove_edge(a, b).unwrap();
    g.add_edge(a, c).unwrap();
    occasion(&mut g, &db, &mut fp);

    let stats = op.snapshot_stats();
    if cold {
        assert_eq!(stats.built, 5, "seed {seed}: every occasion rebuilds");
        assert_eq!(stats.reused, 0, "seed {seed}: cold run never reuses");
    } else {
        assert_eq!(
            stats.built, 4,
            "seed {seed}: first and churn occasions build"
        );
        assert_eq!(stats.reused, 1, "seed {seed}: quiet occasion reuses");
    }
    fp.push(rng.next_u64());
    fp
}

/// Churn-invalidation suite: reused tables must be invisible —
/// byte-identical panels versus a run that rebuilds every occasion —
/// across {1,2,4,8} workers and 8 seeds, with joins, departures, and
/// rewires between occasions.
#[test]
fn churned_overlay_panels_match_cold_builds_across_workers_and_seeds() {
    for seed in [2, 3, 5, 7, 11, 13, 17, 19] {
        let cold = churned_fingerprint(seed, 1, true);
        for workers in [1, 2, 4, 8] {
            let reused = churned_fingerprint(seed, workers, false);
            assert_eq!(
                cold, reused,
                "seed {seed}, {workers} workers: reused tables diverged from cold builds"
            );
        }
    }
}

#[test]
fn parallel_batch_sampling_stays_uniform_over_tuples() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let g = topology::barabasi_albert(120, 2, &mut rng).unwrap();
    let db = skewed_db(&g);
    let total = db.total_tuples();
    let mut op = SamplingOperator::new(SamplingConfig {
        workers: 4,
        ..SamplingConfig::recommended(120)
    })
    .unwrap();
    let origin = g.nodes().next().unwrap();

    // Same draw budget and tolerance as the sequential uniformity test,
    // but routed through the parallel batch executor.
    let draws = 40 * total;
    let panel = 64;
    let mut counts = std::collections::HashMap::new();
    let mut drawn = 0;
    while drawn < draws {
        op.begin_occasion();
        let n = panel.min(draws - drawn);
        let batch = op.sample_tuples(&g, &db, origin, n, &mut rng).unwrap();
        drawn += batch.len();
        for (_, t, _) in batch {
            *counts.entry(t.value(0).unwrap() as u64).or_insert(0u64) += 1;
        }
    }
    assert_eq!(counts.len(), total, "every tuple reachable");

    let mut cs: Vec<u64> = counts.values().copied().collect();
    cs.sort_unstable();
    let emp = DiscreteDistribution::from_counts(&cs).unwrap();
    let uni = DiscreteDistribution::uniform(total).unwrap();
    let tvd = total_variation_distance(&emp, &uni).unwrap();
    assert!(tvd < 0.08, "parallel batch tuple sampling TVD {tvd}");
}
