//! Sharded deterministic simulation over the flat [`NodeStore`].
//!
//! The paper's experiments stop at thousands of peers; this module is
//! the substrate for *million-node* overlays. It deliberately bypasses
//! the `Workload`/`QuerySystem` object graph and runs directly on the
//! structure-of-arrays [`NodeStore`]: a Barabási–Albert overlay built
//! once via the bulk CSR loader, churn applied as O(batch) events, and
//! continuous-query occasions answered by Metropolis–Hastings sampling
//! walks. Time is driven by the calendar [`EventQueue`], so a horizon
//! of a million ticks with sparse churn/query schedules costs only the
//! due ticks.
//!
//! Determinism follows the executor discipline of
//! `digest-sampling::executor` and [`crate::parallel`]:
//!
//! * **Counter-split RNG streams.** The control stream draws one `u64`
//!   occasion seed per occasion; each logical *shard* then owns an
//!   independent `ChaCha8Rng` seeded by a SplitMix64 mix of
//!   `(occasion_seed, shard)`. The shard count is part of the
//!   configuration — not derived from the machine — so the sampled
//!   panel is a pure function of the config and seed.
//! * **Lock-free claim/publish.** Workers claim shard indices from an
//!   atomic cursor and publish partial sums into a shard-indexed table
//!   of `OnceLock` cells, drained in shard order after the scope
//!   joins. Worker counts {1, k} therefore produce **byte-identical**
//!   reports (floating-point merge order is fixed by shard index).
//! * **Single-threaded mutation.** Churn and value updates run on the
//!   control thread between occasions; workers only ever read the
//!   store.

use crate::events::EventQueue;
use crate::sync::{AtomicU64, OnceLock, Ordering};
use digest_core::{CoreError, Result};
use digest_net::{topology, ChurnConfig, ChurnProcess, NodeStore};
use digest_stats::splitmix64;
use digest_telemetry::registry as telemetry;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The seed of shard `shard`'s private RNG stream for one occasion.
fn shard_stream_seed(occasion_seed: u64, shard: usize) -> u64 {
    splitmix64(occasion_seed.wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Configuration of a flat-store simulation run.
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

/// What a flat-store run measured.
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
    /// Node-to-node messages spent (walk hops).
    pub messages: u64,
    /// Per-occasion `(tick, AVG estimate)` pairs, in tick order.
    pub estimates: Vec<(u64, f64)>,
    /// Live overlay size at the end of the run.
    pub live_nodes: usize,
    /// Resident bytes of the node store + adjacency at the end.
    pub store_bytes: usize,
    /// `store_bytes / live_nodes`.
    pub bytes_per_node: f64,
}

/// One shard's contribution to an occasion, merged in shard order.
#[derive(Debug, Clone, Copy)]
struct ShardOut {
    sum: f64,
    walks: u64,
    hops: u64,
}

/// One Metropolis–Hastings walk over the store: uniform proposal over
/// the current node's neighbors, accepted with probability
/// `min(1, deg(cur)/deg(cand))`, giving a uniform stationary
/// distribution over live nodes. Returns the end node's value and the
/// hop (message) count.
fn mh_walk(store: &NodeStore, start: u32, len: usize, rng: &mut ChaCha8Rng) -> (f64, u64) {
    let mut cur = start;
    let mut hops = 0u64;
    for _ in 0..len {
        let nbs = store.neighbors(cur);
        if nbs.is_empty() {
            break;
        }
        let cand = nbs[rng.gen_range(0..nbs.len())];
        hops += 1;
        let d_cur = nbs.len();
        let d_cand = store.degree(cand);
        // Accept with prob deg(cur)/deg(cand); the uniform draw is only
        // consumed when the ratio is < 1, which is deterministic given
        // the stream position.
        if d_cand <= d_cur || rng.gen_range(0.0f64..1.0) * (d_cand as f64) < d_cur as f64 {
            cur = cand;
        }
    }
    (store.value(cur).unwrap_or(0.0), hops)
}

/// Claims the next unprocessed shard index, or `None` once the occasion
/// is drained. Same lock-free index stealing as the replication runner.
fn claim_shard(cursor: &AtomicU64, shards: usize) -> Option<usize> {
    // relaxed-ok: claim uniqueness needs only the atomicity of fetch_add;
    // shard results are published through `OnceLock::set` and the scope
    // join, so no ordering rides on this counter.
    let shard = cursor.fetch_add(1, Ordering::Relaxed);
    usize::try_from(shard).ok().filter(|&s| s < shards)
}

/// Answers one occasion: `walks` MH walks from `origin`, sharded over
/// `shards` fixed RNG streams and executed by up to `workers` threads,
/// merged in shard order.
fn run_occasion(
    store: &NodeStore,
    origin: u32,
    occasion_seed: u64,
    config: &FlatSimConfig,
) -> Result<ShardOut> {
    let shards = config.shards;
    let workers = config.workers.max(1).min(shards);
    let cursor = AtomicU64::new(0);
    let mut cells: Vec<OnceLock<ShardOut>> = (0..shards).map(|_| OnceLock::new()).collect();
    let table = &cells;

    let run_shard = |shard: usize| -> ShardOut {
        let mut rng = ChaCha8Rng::seed_from_u64(shard_stream_seed(occasion_seed, shard));
        let lo = shard * config.walks / shards;
        let hi = (shard + 1) * config.walks / shards;
        let mut out = ShardOut {
            sum: 0.0,
            walks: 0,
            hops: 0,
        };
        for _ in lo..hi {
            let (value, hops) = mh_walk(store, origin, config.walk_length, &mut rng);
            out.sum += value;
            out.walks += 1;
            out.hops += hops;
        }
        out
    };

    if workers == 1 {
        // The sequential case is the same drain loop run inline.
        while let Some(shard) = claim_shard(&cursor, shards) {
            let _ = table[shard].set(run_shard(shard));
        }
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while let Some(shard) = claim_shard(&cursor, shards) {
                        // Each shard is claimed exactly once, so the
                        // cell is always empty (model-checked protocol,
                        // see `crate::parallel`).
                        let _ = table[shard].set(run_shard(shard));
                    }
                });
            }
        });
    }

    // Merge in shard order: the floating-point sum order is fixed by
    // shard index, independent of which worker ran which shard.
    let mut merged = ShardOut {
        sum: 0.0,
        walks: 0,
        hops: 0,
    };
    for cell in cells.iter_mut() {
        match cell.take() {
            Some(out) => {
                merged.sum += out.sum;
                merged.walks += out.walks;
                merged.hops += out.hops;
            }
            None => {
                return Err(CoreError::InvalidConfig {
                    reason: "flat shard worker exited without publishing a result",
                })
            }
        }
    }
    Ok(merged)
}

/// Runs a flat-store simulation: build the BA overlay once, then drive
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
/// [`CoreError::EmptyWorkload`] if churn drains the overlay.
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

    let mut store = topology::barabasi_albert_store(config.nodes, config.attach, &mut topo_rng)
        .map_err(|_| CoreError::InvalidConfig {
            reason: "flat sim overlay parameters rejected by the BA generator",
        })?;
    let ids: Vec<u32> = store.live_ids().collect();
    for id in ids {
        store.set_value(id, value_rng.gen_range(0.0..100.0));
    }

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
            let (left, joined) = churn.step_store(
                &mut store,
                config.churn_leaves,
                config.churn_joins,
                |r| r.gen_range(0.0..100.0),
                &mut churn_rng,
            );
            report.leaves += left as u64;
            report.joins += joined as u64;
            report.churn_batches += 1;
            report.events_executed += 1;
            let due = tick + config.churn_interval;
            next_churn = Some(due);
            if due < config.ticks {
                queue.schedule(due);
            }
        }

        if tick == next_occasion {
            let origin = store
                .random_live(&mut control_rng)
                .ok_or(CoreError::EmptyWorkload)?;
            let occasion_seed = control_rng.next_u64();
            let merged = run_occasion(&store, origin, occasion_seed, config)?;
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
    store.compact();
    report.live_nodes = store.live_count();
    report.store_bytes = store.bytes();
    report.bytes_per_node = store.bytes_per_node();
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
            walk_length: 40,
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
