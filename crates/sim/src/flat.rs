//! Sharded deterministic simulation of a million-node overlay.
//!
//! The paper's experiments stop at thousands of peers; this module runs
//! the same overlay store, [`Graph`], at 10⁶ nodes. It deliberately
//! bypasses the `Workload`/`QuerySystem` object graph: a
//! Barabási–Albert overlay is built once through the bulk CSR loader,
//! node values live in one `Vec<f64>` indexed by node id, churn is
//! applied as O(batch) events ([`ChurnProcess::step_batch`]), and
//! continuous-query occasions are answered by the sampling operator's
//! own Metropolis–Hastings walk ([`MetropolisWalk`] under
//! [`uniform_weight`]: lazy, counting accepted moves as messages). Time
//! is driven by the calendar [`EventQueue`], so a horizon of a million
//! ticks with sparse churn/query schedules costs only the due ticks.
//!
//! Determinism follows the executor discipline of
//! `digest-sampling::executor`:
//!
//! * **Counter-split RNG streams.** The control stream draws one `u64`
//!   occasion seed per occasion; each logical *shard* then owns an
//!   independent `ChaCha8Rng` seeded by a SplitMix64 mix of
//!   `(occasion_seed, shard)`. The shard count is part of the
//!   configuration — not derived from the machine — so the sampled
//!   panel is a pure function of the config and seed.
//! * **Lock-free claim/publish.** Shards run through the workspace's
//!   one claim/publish protocol ([`fill_table`]) and are merged in shard
//!   order, so worker counts {1, k} produce **byte-identical** reports
//!   (floating-point merge order is fixed by shard index).
//! * **Single-threaded mutation.** Churn and value updates run on the
//!   control thread between occasions; workers only ever read the
//!   graph and the value column.

use crate::events::EventQueue;
use digest_core::{CoreError, Result};
use digest_net::{topology, ChurnConfig, ChurnEvent, ChurnProcess, Graph, NodeId};
use digest_sampling::claim::{fill_table, OnceLock};
use digest_sampling::{uniform_weight, MetropolisWalk};
use digest_stats::splitmix64;
use digest_telemetry::registry as telemetry;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The seed of shard `shard`'s private RNG stream for one occasion.
fn shard_stream_seed(occasion_seed: u64, shard: usize) -> u64 {
    splitmix64(occasion_seed.wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Configuration of a flat simulation run.
#[derive(Debug, Clone, Copy)]
pub struct FlatSimConfig {
    /// Overlay size (Barabási–Albert node count).
    pub nodes: usize,
    /// Attachment links per arriving node (BA `m`; also used for churn
    /// re-attachment).
    pub attach: usize,
    /// Horizon in ticks.
    pub ticks: u64,
    /// Ticks between churn batches (`0` disables churn).
    pub churn_interval: u64,
    /// Node departures per churn batch.
    pub churn_leaves: usize,
    /// Node arrivals per churn batch.
    pub churn_joins: usize,
    /// Ticks between continuous-query occasions (first occasion at this
    /// tick).
    pub query_interval: u64,
    /// Sampling walks per occasion.
    pub walks: usize,
    /// Steps per Metropolis–Hastings walk (the mixing budget).
    pub walk_length: usize,
    /// Fixed logical shard count — the determinism unit. Results depend
    /// on this value but **not** on `workers`.
    pub shards: usize,
    /// Worker threads executing shards (any value ≥ 1 yields the same
    /// bytes; capped at `shards`).
    pub workers: usize,
    /// Root seed for topology, values, churn, and occasions.
    pub seed: u64,
}

impl Default for FlatSimConfig {
    fn default() -> Self {
        Self {
            nodes: 10_000,
            attach: 2,
            ticks: 10_000,
            churn_interval: 100,
            churn_leaves: 10,
            churn_joins: 10,
            query_interval: 500,
            walks: 256,
            walk_length: 30,
            shards: 32,
            workers: 1,
            seed: 0,
        }
    }
}

impl FlatSimConfig {
    fn validate(&self) -> Result<()> {
        if self.attach == 0 || self.nodes <= self.attach {
            return Err(CoreError::InvalidConfig {
                reason: "flat sim needs nodes > attach >= 1",
            });
        }
        if self.query_interval == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "flat sim query_interval must be >= 1",
            });
        }
        if self.shards == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "flat sim needs at least one shard",
            });
        }
        Ok(())
    }
}

/// What a flat run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatReport {
    /// Configured horizon.
    pub ticks: u64,
    /// Due ticks actually executed (the event loop skipped the rest).
    pub ticks_executed: u64,
    /// Events executed (churn batches + query occasions).
    pub events_executed: u64,
    /// Query occasions answered.
    pub occasions: u64,
    /// Churn batches applied.
    pub churn_batches: u64,
    /// Nodes that joined across all churn batches.
    pub joins: u64,
    /// Nodes that left across all churn batches.
    pub leaves: u64,
    /// Sampling walks executed.
    pub walks: u64,
    /// Node-to-node messages spent (accepted walk moves).
    pub messages: u64,
    /// Per-occasion `(tick, AVG estimate)` pairs, in tick order.
    pub estimates: Vec<(u64, f64)>,
    /// Live overlay size at the end of the run.
    pub live_nodes: usize,
    /// Resident bytes of the compacted graph ([`Graph::heap_bytes`]) plus
    /// the value column at the end.
    pub store_bytes: usize,
    /// `store_bytes / live_nodes`.
    pub bytes_per_node: f64,
}

/// One shard's contribution to an occasion, merged in shard order.
#[derive(Debug, Clone, Copy, Default)]
struct ShardOut {
    sum: f64,
    walks: u64,
    hops: u64,
}

/// Answers one occasion: `walks` M–H walks from `origin`, sharded over
/// `shards` fixed RNG streams and executed by up to `workers` threads,
/// merged in shard order.
fn run_occasion(
    g: &Graph,
    values: &[f64],
    origin: NodeId,
    occasion_seed: u64,
    config: &FlatSimConfig,
) -> Result<ShardOut> {
    let shards = config.shards;
    let mut cells: Vec<OnceLock<digest_sampling::Result<ShardOut>>> =
        (0..shards).map(|_| OnceLock::new()).collect();
    fill_table(&cells, config.workers, |shard| {
        let mut rng = ChaCha8Rng::seed_from_u64(shard_stream_seed(occasion_seed, shard));
        let weight = uniform_weight();
        let mut out = ShardOut::default();
        for _ in shard * config.walks / shards..(shard + 1) * config.walks / shards {
            let mut walk = MetropolisWalk::new(g, origin)?;
            walk.run(g, &weight, config.walk_length as u64, &mut rng)?;
            out.sum += values[walk.current().0 as usize];
            out.walks += 1;
            out.hops += walk.messages();
        }
        Ok(out)
    });

    // Merge in shard order: the floating-point sum order is fixed by
    // shard index, independent of which worker ran which shard.
    let mut merged = ShardOut::default();
    for cell in cells.iter_mut() {
        let out = cell.take().ok_or(CoreError::InvalidConfig {
            reason: "flat shard worker exited without publishing a result",
        })??;
        merged.sum += out.sum;
        merged.walks += out.walks;
        merged.hops += out.hops;
    }
    Ok(merged)
}

/// Runs a flat simulation: build the BA overlay once, then drive
/// churn batches and query occasions through the calendar event queue.
///
/// Byte-identical for any `workers >= 1` (the test suite pins workers
/// {1, 2, 4}); per-run cost is proportional to due events, not to
/// `ticks` or `nodes · ticks`.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] on invalid parameters, or if the
/// claim/publish protocol is ever broken (unreachable by construction);
/// [`CoreError::EmptyWorkload`] if churn drains the overlay;
/// [`CoreError::Sampling`] if a walk fails (unreachable: walks start at
/// a live origin under uniform weights).
pub fn run_flat(config: &FlatSimConfig) -> Result<FlatReport> {
    config.validate()?;

    // Independent control streams, all derived from the root seed:
    // topology, initial values, churn, and occasion control (origin
    // election + occasion seeds). Keeping them separate means the churn
    // trajectory does not shift when the query schedule changes.
    let mut topo_rng = ChaCha8Rng::seed_from_u64(splitmix64(config.seed.wrapping_add(1)));
    let mut value_rng = ChaCha8Rng::seed_from_u64(splitmix64(config.seed.wrapping_add(2)));
    let mut churn_rng = ChaCha8Rng::seed_from_u64(splitmix64(config.seed.wrapping_add(3)));
    let mut control_rng = ChaCha8Rng::seed_from_u64(splitmix64(config.seed.wrapping_add(4)));

    let mut g =
        topology::barabasi_albert(config.nodes, config.attach, &mut topo_rng).map_err(|_| {
            CoreError::InvalidConfig {
                reason: "flat sim overlay parameters rejected by the BA generator",
            }
        })?;
    let mut values: Vec<f64> = (0..g.id_upper_bound())
        .map(|_| value_rng.gen_range(0.0..100.0))
        .collect();

    let churn = ChurnProcess::new(ChurnConfig {
        attach_links: config.attach,
        min_nodes: config.attach + 1,
        ..ChurnConfig::default()
    })
    .map_err(|_| CoreError::InvalidConfig {
        reason: "flat sim churn parameters rejected",
    })?;

    let mut queue = EventQueue::new();
    let mut next_churn = if config.churn_interval > 0 {
        queue.schedule(config.churn_interval);
        Some(config.churn_interval)
    } else {
        None
    };
    let mut next_occasion = config.query_interval;
    if next_occasion < config.ticks {
        queue.schedule(next_occasion);
    }

    let mut report = FlatReport {
        ticks: config.ticks,
        ticks_executed: 0,
        events_executed: 0,
        occasions: 0,
        churn_batches: 0,
        joins: 0,
        leaves: 0,
        walks: 0,
        messages: 0,
        estimates: Vec::new(),
        live_nodes: 0,
        store_bytes: 0,
        bytes_per_node: 0.0,
    };

    while let Some(tick) = queue.pop_next() {
        if tick >= config.ticks {
            break;
        }
        digest_telemetry::set_tick(tick);
        telemetry::SIM_TICKS.inc();
        report.ticks_executed += 1;

        // Churn first, then measure — an occasion due the same tick
        // sees the post-churn overlay, matching the dense runner's
        // advance-then-react order.
        if next_churn == Some(tick) {
            let events = churn.step_batch(
                &mut g,
                config.churn_leaves,
                config.churn_joins,
                &mut churn_rng,
            );
            // Ids are never reused: joiners extend the value column.
            values.resize(g.id_upper_bound(), 0.0);
            for event in events {
                match event {
                    ChurnEvent::Joined(id) => {
                        values[id.0 as usize] = churn_rng.gen_range(0.0..100.0);
                        report.joins += 1;
                    }
                    ChurnEvent::Left(_) => report.leaves += 1,
                }
            }
            report.churn_batches += 1;
            report.events_executed += 1;
            let due = tick + config.churn_interval;
            next_churn = Some(due);
            if due < config.ticks {
                queue.schedule(due);
            }
        }

        if tick == next_occasion {
            let origin = g
                .random_node(&mut control_rng)
                .map_err(|_| CoreError::EmptyWorkload)?;
            let occasion_seed = control_rng.next_u64();
            let merged = run_occasion(&g, &values, origin, occasion_seed, config)?;
            let estimate = if merged.walks > 0 {
                merged.sum / merged.walks as f64
            } else {
                0.0
            };
            report.estimates.push((tick, estimate));
            report.walks += merged.walks;
            report.messages += merged.hops;
            report.occasions += 1;
            report.events_executed += 1;
            next_occasion = tick + config.query_interval;
            if next_occasion < config.ticks {
                queue.schedule(next_occasion);
            }
        }
    }

    // Steady-state footprint: reclaim churn garbage and slack capacity
    // before measuring, so the bytes/node gate reflects the compacted
    // layout a long-running overlay maintains, not transient build slack.
    g.compact();
    values.shrink_to_fit();
    report.live_nodes = g.node_count();
    report.store_bytes = g.heap_bytes() + values.capacity() * std::mem::size_of::<f64>();
    report.bytes_per_node = report.store_bytes as f64 / report.live_nodes.max(1) as f64;
    Ok(report)
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]
mod tests {
    use super::*;

    fn small(workers: usize) -> FlatSimConfig {
        FlatSimConfig {
            nodes: 400,
            attach: 2,
            ticks: 1_000,
            churn_interval: 50,
            churn_leaves: 4,
            churn_joins: 4,
            query_interval: 125,
            walks: 64,
            walk_length: 25,
            shards: 8,
            workers,
            seed: 7,
        }
    }

    #[test]
    fn worker_counts_are_byte_identical() {
        let serial = run_flat(&small(1)).unwrap();
        for workers in [2usize, 4] {
            let parallel = run_flat(&small(workers)).unwrap();
            assert_eq!(serial.estimates.len(), parallel.estimates.len());
            for (a, b) in serial.estimates.iter().zip(parallel.estimates.iter()) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "{workers} workers");
            }
            assert_eq!(serial.messages, parallel.messages, "{workers} workers");
            assert_eq!(serial.joins, parallel.joins);
            assert_eq!(serial.leaves, parallel.leaves);
            assert_eq!(serial.live_nodes, parallel.live_nodes);
            assert_eq!(serial.store_bytes, parallel.store_bytes);
        }
    }

    #[test]
    fn event_loop_executes_only_due_ticks() {
        let config = small(1);
        let report = run_flat(&config).unwrap();
        // Due ticks: churn at 50,100,...,950 and occasions at
        // 125,250,...,875; the union (shared multiples of 250 coalesce)
        // is what the loop executes.
        let mut due: std::collections::BTreeSet<u64> = (1..20).map(|i| i * 50).collect();
        due.extend((1..8).map(|i| i * 125));
        assert_eq!(report.ticks_executed, due.len() as u64);
        assert_eq!(report.churn_batches, 19);
        assert_eq!(report.occasions, 7);
        assert_eq!(
            report.events_executed,
            report.churn_batches + report.occasions
        );
        assert!(report.ticks_executed < config.ticks / 10);
    }

    #[test]
    fn same_seed_replays_identically() {
        let a = run_flat(&small(2)).unwrap();
        let b = run_flat(&small(2)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn estimates_track_the_exact_average_without_churn() {
        let config = FlatSimConfig {
            churn_interval: 0,
            walks: 256,
            // The M–H walk is lazy: 80 steps make ~40 proposals.
            walk_length: 80,
            ..small(2)
        };
        let report = run_flat(&config).unwrap();
        assert_eq!(report.churn_batches, 0);
        assert!(report.occasions > 0);
        // Static overlay, values uniform on [0, 100): every occasion's
        // estimate should sit near the true mean (σ/√walks ≈ 1.8, allow
        // generous mixing slack).
        for &(tick, estimate) in &report.estimates {
            assert!(
                (estimate - 50.0).abs() < 15.0,
                "tick {tick}: estimate {estimate} far from uniform mean"
            );
        }
    }

    #[test]
    fn rejects_invalid_configs() {
        assert!(run_flat(&FlatSimConfig {
            nodes: 2,
            attach: 2,
            ..FlatSimConfig::default()
        })
        .is_err());
        assert!(run_flat(&FlatSimConfig {
            query_interval: 0,
            ..FlatSimConfig::default()
        })
        .is_err());
        assert!(run_flat(&FlatSimConfig {
            shards: 0,
            ..FlatSimConfig::default()
        })
        .is_err());
    }
}
