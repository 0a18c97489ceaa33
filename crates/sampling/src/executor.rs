//! Deterministic parallel execution of one occasion's walk batch.
//!
//! The paper's batch mode invokes `S` n times *simultaneously* (§VI-A);
//! this module is that simultaneity made real on threads without giving
//! up replayability:
//!
//! * **Counter-derived RNG streams.** The caller draws exactly one
//!   `u64` occasion seed from its own RNG; every walk slot then owns an
//!   independent `ChaCha8Rng` seeded by a SplitMix64 mix of
//!   `(occasion_seed, slot)`. No walk ever reads another walk's stream,
//!   so the sampled panel is a pure function of `(occasion_seed, slot)`
//!   — **byte-identical for any worker count, including 1**. The
//!   sequential case is literally `workers == 1` running the same drain
//!   loop inline, not a separate code path.
//! * **Index stealing + slot-order reassembly, lock-free.** Slots run
//!   through the workspace's one claim/publish protocol
//!   ([`crate::claim::fill_table`]), publishing into the arena's
//!   slot-indexed table of `OnceLock` cells; after it returns, cells are
//!   drained in slot order, so thread scheduling can influence neither
//!   the output order nor which error surfaces first.
//! * **M–H tables over the graph's own arena.** The operator refreshes
//!   an [`OccasionSnapshot`] through its
//!   [`crate::snapshot::SnapshotCache`] (reuse or rebuild, see that
//!   module) and lends it here together with the [`Graph`] it was built
//!   from. Walks read rows, neighbors and liveness straight from the
//!   graph ([`Graph::arena_row`]) and the precomputed acceptance and
//!   rejection thresholds from the snapshot, instead of re-evaluating
//!   weights per step. Weights were validated at capture, which is why
//!   the per-step walk below is infallible.
//! * **Arena-recycled buffers.** Task, result, and outcome vectors live
//!   in the operator's [`WalkArena`] and are reused across batches —
//!   the steady-state dispatch path allocates nothing.
//! * **Deferred telemetry.** Workers run with events suppressed and
//!   accumulate per-slot tallies locally; counters and the per-slot
//!   `sampling.walk` / per-batch `sampling.batch` events are flushed
//!   post-join in slot order, keeping traces deterministic.
//!
//! The batch is atomic: any slot error (or exhausted content-retry
//! budget) fails the whole occasion batch, `arena.outcomes` is left
//! empty, and the operator's pool and accounting are untouched.

use crate::arena::WalkArena;
use crate::claim::{fill_table, OnceLock};
use crate::error::SamplingError;
use crate::metropolis::MetropolisWalk;
use crate::operator::{SampleCost, SamplingConfig};
use crate::snapshot::{OccasionSnapshot, ACCEPT_ALWAYS};
use crate::Result;
use digest_db::{P2PDatabase, Tuple, TupleHandle};
use digest_net::{Graph, NodeId};
use digest_stats::splitmix64;
use digest_telemetry::{registry as telemetry, Field, Stage};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Retry budget for landing on a content-bearing node, matching the
/// bounded loop in `SamplingOperator::sample_tuple`.
const TUPLE_RETRY_LIMIT: usize = 64;

/// The seed of walk slot `slot`'s private RNG stream for this occasion.
/// xtask: no-alloc
pub(crate) fn walk_stream_seed(occasion_seed: u64, slot: usize) -> u64 {
    splitmix64(occasion_seed.wrapping_add((slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Local (lock-free) telemetry tallies of one walk slot, flushed into
/// the global counters post-join.
#[derive(Debug, Default, Clone, Copy)]
struct SlotTally {
    steps: u64,
    hops: u64,
    lazy: u64,
    proposals: u64,
    accepts: u64,
}

/// Integer threshold reproducing the laziness draw. The vendored
/// `gen_bool(0.5)` computes `unit_f64(v) < 0.5` where `unit_f64(v) =
/// ((v >> 11) as f64)·2⁻⁵³` is the exact rational `(v >> 11)/2⁵³`; the
/// comparison holds iff `v >> 11 < 2⁵²`, i.e. iff `v < 2⁶³`. Unrolling
/// it removes the per-step float conversion without touching the
/// stream.
const LAZY_THRESHOLD: u64 = 1 << 63;

/// One cached walk position: the current node's neighbor row in the
/// graph's arena, the arena slot of its first entry, and its
/// precomputed Lemire rejection threshold for the uniform proposal draw.
/// Refreshed only when the walk actually moves, so lazy steps touch no
/// graph or table memory at all.
#[derive(Clone, Copy)]
struct CachedRow<'g> {
    /// Arena slot of `neighbors[0]`: the acceptance table's index base.
    start: usize,
    neighbors: &'g [NodeId],
    /// Degree as the `span` of the vendored `uniform_u64_below`.
    span: u64,
    /// `span.wrapping_neg() % span` — the modulo the vendored
    /// `gen_range` recomputes per draw, precomputed per node by the
    /// snapshot.
    reject: u64,
}

/// Draws a uniform offset in `0..span` (`span ≥ 1`), consuming the
/// stream exactly like the vendored `rng.gen_range(0..span)`
/// (`uniform_u64_below`: Lemire widening-multiply rejection, one `u64`
/// draw per attempt) but with the per-attempt modulo replaced by the
/// snapshot's precomputed `reject` threshold. Equivalence is pinned by
/// `reject_table_matches_vendored_gen_range` in the snapshot module and
/// by `snapshot_walk_is_byte_equivalent_to_metropolis_walk` below,
/// which drains both streams.
/// xtask: no-alloc
#[inline]
fn sample_uniform_offset<R: RngCore + ?Sized>(rng: &mut R, span: u64, reject: u64) -> usize {
    loop {
        let x = rng.next_u64();
        if x.wrapping_mul(span) >= reject {
            let hi = (u128::from(x) * u128::from(span)) >> 64;
            // `hi < span` = a node degree, so this cannot actually fail.
            return usize::try_from(hi).unwrap_or(usize::MAX);
        }
    }
}

/// A Metropolis walk advancing over a [`Graph`] and its occasion
/// [`OccasionSnapshot`]. Must mirror [`MetropolisWalk::step`]'s RNG
/// consumption order *exactly* — one laziness draw, then (non-lazy, with
/// neighbors) one proposal draw and at most one acceptance draw — so the
/// table-driven walk and the live walk are interchangeable given the
/// same stream (pinned by unit tests below). Every distribution call of
/// the live step is unrolled to its integer core: laziness is a raw
/// compare against [`LAZY_THRESHOLD`], the proposal is
/// [`sample_uniform_offset`] over the cached row, and acceptance
/// compares the 53 mantissa bits of one draw against the snapshot's
/// precomputed per-edge threshold (which the snapshot module pins
/// bit-identical to the live `gen_bool(ratio)`).
struct SnapshotWalk<'g> {
    current: NodeId,
    row: CachedRow<'g>,
    tally: SlotTally,
}

impl<'g> SnapshotWalk<'g> {
    /// xtask: no-alloc
    fn cached_row(g: &'g Graph, snap: &OccasionSnapshot, v: NodeId) -> CachedRow<'g> {
        let (start, neighbors) = g.arena_row(v);
        CachedRow {
            start,
            neighbors,
            span: u64::try_from(neighbors.len()).unwrap_or(u64::MAX),
            reject: snap.reject_threshold_of(v),
        }
    }

    /// xtask: no-alloc
    fn new(start: NodeId, g: &'g Graph, snap: &OccasionSnapshot) -> Self {
        Self {
            current: start,
            row: Self::cached_row(g, snap, start),
            tally: SlotTally::default(),
        }
    }

    /// One M–H step. Infallible: the graph cannot change under the walk
    /// (it is borrowed for the whole occasion) and the weights behind the
    /// tables were validated at capture.
    /// xtask: no-alloc
    #[inline]
    fn step<R: RngCore + ?Sized>(&mut self, g: &'g Graph, snap: &OccasionSnapshot, rng: &mut R) {
        self.tally.steps += 1;

        // Laziness ½.
        if rng.next_u64() < LAZY_THRESHOLD {
            self.tally.lazy += 1;
            return;
        }
        let CachedRow {
            start,
            neighbors,
            span,
            reject,
        } = self.row;
        if span == 0 {
            return;
        }
        let pick = sample_uniform_offset(rng, span, reject);
        self.tally.proposals += 1;

        let threshold = snap.accept_threshold_at(start + pick);
        if threshold == ACCEPT_ALWAYS || (rng.next_u64() >> 11) < threshold {
            self.current = neighbors.get(pick).copied().unwrap_or(self.current);
            self.row = Self::cached_row(g, snap, self.current);
            self.tally.accepts += 1;
            self.tally.hops += 1;
        }
    }

    /// xtask: no-alloc
    fn run<R: RngCore + ?Sized>(
        &mut self,
        g: &'g Graph,
        snap: &OccasionSnapshot,
        steps: u64,
        rng: &mut R,
    ) {
        for _ in 0..steps {
            self.step(g, snap, rng);
        }
    }
}

/// Work order for one walk slot, fully determined on the dispatching
/// thread before any worker runs.
#[derive(Debug, Clone)]
pub(crate) struct SlotTask {
    start: NodeId,
    fresh: bool,
    burn_in: u64,
    seed: u64,
}

/// Everything one slot produced: the sampled tuple, the walk's final
/// position for pool writeback, and the deferred telemetry tallies.
#[derive(Debug, Clone)]
pub(crate) struct SlotOutcome {
    /// Whether the slot launched a fresh walk (vs continuing a pooled
    /// one).
    pub(crate) fresh: bool,
    /// Where the walk ended (the pool writeback position).
    pub(crate) end: NodeId,
    /// Planned burn-in of the first segment (mixing or reset length).
    pub(crate) burn_in: u64,
    /// Extra reset-length segments walked to find a content-bearing
    /// node.
    pub(crate) retries: u64,
    /// Total M–H steps taken across all segments.
    pub(crate) steps: u64,
    /// Accepted moves (= forwarding messages).
    pub(crate) hops: u64,
    lazy: u64,
    proposals: u64,
    accepts: u64,
    /// Handle of the sampled tuple.
    pub(crate) handle: TupleHandle,
    /// Snapshot copy of the sampled tuple.
    pub(crate) tuple: Tuple,
    /// §VI-A message cost of this sample.
    pub(crate) cost: SampleCost,
}

/// One occasion batch: which pool state to continue from and how many
/// samples to draw.
pub(crate) struct BatchRequest<'a> {
    /// Operator configuration (lengths, continuation, worker count).
    pub(crate) config: &'a SamplingConfig,
    /// The operator's persistent walk pool.
    pub(crate) pool: &'a [MetropolisWalk],
    /// First pool slot this batch occupies.
    pub(crate) cursor: usize,
    /// Fallback start node for fresh walks.
    pub(crate) origin: NodeId,
    /// Samples to draw.
    pub(crate) n: usize,
    /// The single `u64` the caller's RNG contributed for this occasion.
    pub(crate) occasion_seed: u64,
}

fn run_slot(
    task: &SlotTask,
    g: &Graph,
    snap: &OccasionSnapshot,
    db: &P2PDatabase,
    reset_length: u64,
) -> Result<SlotOutcome> {
    let mut rng = ChaCha8Rng::seed_from_u64(task.seed);
    let mut walk = SnapshotWalk::new(task.start, g, snap);
    let _span = digest_telemetry::span(Stage::SamplingWalk);
    walk.run(g, snap, task.burn_in, &mut rng);
    // Before convergence a walk can sit on an empty node; walk reset
    // lengths until it lands on a content-bearing one (bounded, as in
    // the sequential `sample_tuple`).
    for retry in 0..TUPLE_RETRY_LIMIT {
        if let Some((handle, tuple)) = db.sample_local(walk.current, &mut rng) {
            return Ok(SlotOutcome {
                fresh: task.fresh,
                end: walk.current,
                burn_in: task.burn_in,
                retries: retry as u64,
                steps: walk.tally.steps,
                hops: walk.tally.hops,
                lazy: walk.tally.lazy,
                proposals: walk.tally.proposals,
                accepts: walk.tally.accepts,
                handle,
                tuple: tuple.clone(),
                cost: SampleCost {
                    walk_messages: walk.tally.hops,
                    report_messages: 1,
                },
            });
        }
        walk.run(g, snap, reset_length, &mut rng);
    }
    Err(SamplingError::ZeroTotalWeight)
}

/// Flushes one slot's deferred tallies into the global registry and
/// emits its `sampling.walk` event. Called post-join, in slot order.
fn flush_slot_telemetry(config: &SamplingConfig, outcome: &SlotOutcome) {
    if outcome.fresh {
        telemetry::SAMPLING_WALKS_FRESH.inc();
    } else {
        telemetry::SAMPLING_WALKS_CONTINUED.inc();
    }
    telemetry::SAMPLING_BURN_IN.record(outcome.burn_in);
    for _ in 0..outcome.retries {
        telemetry::SAMPLING_BURN_IN.record(config.reset_length);
    }
    telemetry::SAMPLING_WALK_STEPS.add(outcome.steps);
    telemetry::SAMPLING_MH_LAZY.add(outcome.lazy);
    telemetry::SAMPLING_MH_PROPOSALS.add(outcome.proposals);
    telemetry::SAMPLING_MH_ACCEPTS.add(outcome.accepts);
    telemetry::SAMPLING_WALK_HOPS.add(outcome.hops);
    telemetry::SAMPLING_SAMPLES.inc();
    telemetry::SAMPLING_MESSAGES.add(outcome.cost.total());
    if digest_telemetry::events_enabled() {
        digest_telemetry::emit(
            "sampling.walk",
            &[
                ("fresh", Field::Bool(outcome.fresh)),
                ("steps", Field::U64(outcome.steps)),
                ("hops", Field::U64(outcome.hops)),
            ],
        );
    }
    // Re-emit the worker-side walk span that was suppressed inside the
    // batch. The deterministic clock cannot advance mid-batch (the tick
    // is driver-stamped), so the re-emitted duration is always 0 ticks —
    // what matters is that the span stream is identical for every worker
    // count and stays monotone in tick order.
    digest_telemetry::emit_span_event(Stage::SamplingWalk, 0);
}

/// Runs one occasion's walk batch over `g` and the tables `snapshot`
/// was refreshed to for it, leaving the slot outcomes in
/// `arena.outcomes` in slot order. See the module docs for the
/// determinism model.
///
/// # Errors
///
/// * [`SamplingError::UnknownNode`] if `origin` is not live in `g`.
/// * [`SamplingError::ZeroTotalWeight`] if a slot exhausts its
///   content-retry budget.
/// * The lowest-slot error wins when several slots fail; on any error
///   `arena.outcomes` is empty.
pub(crate) fn run_tuple_batch(
    g: &Graph,
    db: &P2PDatabase,
    request: &BatchRequest<'_>,
    snapshot: &OccasionSnapshot,
    arena: &mut WalkArena,
) -> Result<()> {
    let _batch_span = digest_telemetry::span(Stage::SamplingBatch);
    arena.outcomes.clear();
    if !g.contains(request.origin) {
        return Err(SamplingError::UnknownNode(request.origin));
    }

    let config = request.config;
    arena.tasks.clear();
    arena.tasks.extend((0..request.n).map(|i| {
        let slot = request.cursor + i;
        let pooled = config
            .continue_walks
            .then(|| request.pool.get(slot))
            .flatten()
            .filter(|walk| g.contains(walk.current()));
        let (start, fresh) = match pooled {
            Some(walk) => (walk.current(), false),
            None => (request.origin, true),
        };
        SlotTask {
            start,
            fresh,
            burn_in: if fresh {
                config.walk_length
            } else {
                config.reset_length
            },
            seed: walk_stream_seed(request.occasion_seed, slot),
        }
    }));

    let mut results = std::mem::take(&mut arena.results);
    results.clear();
    results.resize_with(request.n, OnceLock::new);
    {
        // Workers could interleave events nondeterministically; run them
        // suppressed and emit deterministic rollups post-join. The guard
        // also covers the inline (single-worker) path so the emitted
        // stream is identical for every worker count.
        let _quiet = digest_telemetry::suppress_events();
        let tasks = &arena.tasks;
        fill_table(&results, config.workers, |slot| {
            run_slot(&tasks[slot], g, snapshot, db, config.reset_length)
        });
    }

    // Lowest-slot problem wins; the table returns to the arena all-empty
    // with its capacity intact either way.
    let mut failure: Option<SamplingError> = None;
    for slot in results.iter_mut() {
        match slot.take() {
            Some(Ok(outcome)) => {
                if failure.is_none() {
                    arena.outcomes.push(outcome);
                }
            }
            Some(Err(err)) => {
                failure.get_or_insert(err);
            }
            // Unreachable by construction (the scope joins all workers
            // and every index below `n` is claimed exactly once), but
            // surfaced as an error per the panic policy.
            None => {
                failure.get_or_insert(SamplingError::InvalidConfig {
                    reason: "parallel walk worker exited without reporting a result",
                });
            }
        }
    }
    arena.results = results;
    if let Some(err) = failure {
        arena.outcomes.clear();
        return Err(err);
    }

    let mut fresh = 0u64;
    let mut continued = 0u64;
    let mut messages = 0u64;
    for outcome in &arena.outcomes {
        flush_slot_telemetry(config, outcome);
        if outcome.fresh {
            fresh += 1;
        } else {
            continued += 1;
        }
        messages = messages.saturating_add(outcome.cost.total());
    }
    telemetry::SAMPLING_WALK_BATCHES.inc();
    telemetry::SAMPLING_BATCH_SLOTS.record(request.n as u64);
    if digest_telemetry::events_enabled() {
        digest_telemetry::emit(
            "sampling.batch",
            &[
                ("slots", Field::U64(request.n as u64)),
                ("fresh", Field::U64(fresh)),
                ("continued", Field::U64(continued)),
                ("messages", Field::U64(messages)),
            ],
        );
    }
    Ok(())
}

#[cfg(all(test, not(loom)))]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]
mod tests {
    use super::*;
    use crate::snapshot::{SnapshotCache, SnapshotRefresh};
    use crate::weight::uniform_weight;
    use digest_net::topology;
    use proptest::prelude::*;
    use rand::{Rng, RngCore};

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// The snapshot walk must consume its RNG stream exactly like the
    /// live-graph walk: same stream in, same trajectory out. With the
    /// acceptance table this also pins that table lookups decide
    /// identically to the live ratio computation.
    #[test]
    fn snapshot_walk_is_byte_equivalent_to_metropolis_walk() {
        let g = topology::barabasi_albert(60, 3, &mut rng(11)).unwrap();
        let w = |v: NodeId| f64::from(v.0 % 5) + 1.0;
        let snap = OccasionSnapshot::build(&g, &w).unwrap();
        for seed in 0..20 {
            let start = NodeId(seed % 60);
            let mut live = MetropolisWalk::new(&g, start).unwrap();
            let mut live_rng = rng(u64::from(seed));
            live.run(&g, &w, 300, &mut live_rng).unwrap();

            let mut snapped = SnapshotWalk::new(start, &g, &snap);
            let mut snap_rng = rng(u64::from(seed));
            snapped.run(&g, &snap, 300, &mut snap_rng);

            assert_eq!(snapped.current, live.current(), "seed {seed}");
            assert_eq!(snapped.tally.steps, live.steps(), "seed {seed}");
            assert_eq!(snapped.tally.hops, live.messages(), "seed {seed}");
            // Both walks must have drained the same amount of stream.
            assert_eq!(live_rng.next_u64(), snap_rng.next_u64());
        }
    }

    /// A random live node of `g`.
    fn any_node(g: &Graph, rng: &mut ChaCha8Rng) -> NodeId {
        g.random_node(rng).unwrap()
    }

    /// Applies one scripted change between occasions. Returns whether the
    /// arena was compacted along the way: pool capacity only ever grows,
    /// except in compaction, which reallocates it to the live entries.
    fn apply(g: &mut Graph, weights: &mut Vec<f64>, op: u8, rng: &mut ChaCha8Rng) -> bool {
        let mut compacted = false;
        let mut bytes = g.heap_bytes();
        let mut track = |g: &Graph| {
            compacted |= g.heap_bytes() < bytes;
            bytes = g.heap_bytes();
        };
        match op {
            // Join: a new node wired to a few live ones.
            0 => {
                let v = g.add_node();
                weights.push(f64::from(rng.gen_range(0u32..8)));
                for _ in 0..rng.gen_range(1..4) {
                    let u = any_node(g, rng);
                    if u != v {
                        g.add_edge(v, u).unwrap();
                        track(g);
                    }
                }
            }
            // Departure.
            1 if g.node_count() > 12 => {
                g.remove_node(any_node(g, rng)).unwrap();
                track(g);
            }
            // Rewire: drop one edge, attach the endpoint elsewhere.
            2 => {
                let a = any_node(g, rng);
                if let Some(&b) = g.neighbors(a).first() {
                    g.remove_edge(a, b).unwrap();
                    let c = any_node(g, rng);
                    if c != a {
                        g.add_edge(a, c).unwrap();
                        track(g);
                    }
                }
            }
            // Weight-only change (zero weights included).
            3 => {
                for _ in 0..3 {
                    let v = any_node(g, rng);
                    weights[v.0 as usize] = f64::from(rng.gen_range(0u32..8)) * 0.5;
                }
            }
            // Flash crowd: 300 joiners attach to one hub and to one
            // random earlier node, then the hub and every other joiner
            // leave. The hub's row relocates through doubling capacities
            // and the departed spans become garbage, pushing the pool past
            // the compaction threshold (> 1,024 slots, over half garbage).
            4 => {
                let hub = any_node(g, rng);
                let mut crowd = Vec::new();
                for _ in 0..300 {
                    let other = any_node(g, rng);
                    let v = g.add_node();
                    weights.push(1.0);
                    g.add_edge(v, hub).unwrap();
                    track(g);
                    if other != hub {
                        g.add_edge(v, other).unwrap();
                        track(g);
                    }
                    crowd.push(v);
                }
                g.remove_node(hub).unwrap();
                track(g);
                for v in crowd.into_iter().step_by(2) {
                    g.remove_node(v).unwrap();
                    track(g);
                }
            }
            // Idle: nothing changes, so the tables must be reused.
            _ => {}
        }
        compacted
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// After every refresh through a random script of joins,
        /// departures, rewires, weight-only changes and arena compactions,
        /// the tables equal a cold build on the same graph, reuse happens
        /// exactly when neither the epoch nor the weights moved, and a walk
        /// over the tables byte-equals the live `MetropolisWalk` on the
        /// same RNG stream.
        #[test]
        fn refreshed_tables_track_churn_and_compaction(
            seed in 0u64..1_000_000,
            ops in prop::collection::vec(0u8..6, 12..24),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut g = topology::barabasi_albert(60, 2, &mut rng).unwrap();
            let mut weights: Vec<f64> = (0..g.id_upper_bound())
                .map(|i| f64::from(u32::try_from(i % 5).unwrap()))
                .collect();
            let mut cache = SnapshotCache::new();
            let mut last: Option<(u64, Vec<f64>)> = None;
            let mut compactions = 0usize;
            // Every script ends with a flash crowd.
            for &op in ops.iter().chain([4u8].iter()) {
                if apply(&mut g, &mut weights, op, &mut rng) {
                    compactions += 1;
                }
                let w = |v: NodeId| weights.get(v.0 as usize).copied().unwrap_or(0.0);
                let unchanged = last.as_ref().is_some_and(|(epoch, prev)| {
                    *epoch == g.epoch()
                        && g.nodes().all(|v| prev.get(v.0 as usize) == Some(&w(v)))
                });
                let (snap, kind) = cache.refresh(&g, &w).unwrap();
                let want = if unchanged { SnapshotRefresh::Reused } else { SnapshotRefresh::Built };
                prop_assert_eq!(kind, want);
                let cold = OccasionSnapshot::build(&g, &w).unwrap();
                prop_assert!(snap == &cold, "op {op}: refreshed tables differ from a cold build");
                for k in 0..3u64 {
                    let start = any_node(&g, &mut rng);
                    let stream = seed ^ (k << 40) ^ g.epoch();
                    let mut live = MetropolisWalk::new(&g, start).unwrap();
                    let mut live_rng = ChaCha8Rng::seed_from_u64(stream);
                    live.run(&g, &w, 200, &mut live_rng).unwrap();
                    let mut walk = SnapshotWalk::new(start, &g, snap);
                    let mut walk_rng = ChaCha8Rng::seed_from_u64(stream);
                    walk.run(&g, snap, 200, &mut walk_rng);
                    prop_assert_eq!(walk.current, live.current());
                    prop_assert_eq!(walk.tally.hops, live.messages());
                    prop_assert_eq!(live_rng.next_u64(), walk_rng.next_u64());
                }
                last = Some((g.epoch(), weights.clone()));
            }
            prop_assert!(compactions > 0, "script never compacted the arena");
        }
    }

    #[test]
    fn walk_stream_seeds_are_distinct_across_slots_and_occasions() {
        let mut seen = std::collections::BTreeSet::new();
        for occasion in 0..8u64 {
            for slot in 0..64usize {
                assert!(seen.insert(walk_stream_seed(occasion, slot)));
            }
        }
    }

    #[test]
    fn isolated_node_walk_stays_put_on_snapshot() {
        let mut g = digest_net::Graph::new();
        let a = g.add_node();
        let w = uniform_weight();
        let snap = OccasionSnapshot::build(&g, &w).unwrap();
        let mut walk = SnapshotWalk::new(a, &g, &snap);
        walk.run(&g, &snap, 50, &mut rng(3));
        assert_eq!(walk.current, a);
        assert_eq!(walk.tally.hops, 0);
        assert_eq!(walk.tally.steps, 50);
    }

    /// The arena's result table and task list must be recycled: after a
    /// successful batch every cell is empty with capacity `n`, and a
    /// second batch of the same size performs no buffer growth.
    #[test]
    fn arena_buffers_are_recycled_across_batches() {
        let g = topology::barabasi_albert(30, 2, &mut rng(4)).unwrap();
        let mut db = P2PDatabase::new(digest_db::Schema::single("a"));
        for v in g.nodes() {
            db.register_node(v);
            db.insert(v, Tuple::single(f64::from(v.0))).unwrap();
        }
        let w = uniform_weight();
        let snap = OccasionSnapshot::build(&g, &w).unwrap();
        let config = SamplingConfig {
            walk_length: 10,
            reset_length: 4,
            continue_walks: false,
            workers: 1,
        };
        let mut arena = WalkArena::new();
        let request = BatchRequest {
            config: &config,
            pool: &[],
            cursor: 0,
            origin: NodeId(0),
            n: 8,
            occasion_seed: 99,
        };
        run_tuple_batch(&g, &db, &request, &snap, &mut arena).unwrap();
        assert_eq!(arena.outcomes.len(), 8);
        assert_eq!(arena.results.len(), 8);
        assert!(arena.results.iter().all(|cell| cell.get().is_none()));
        let results_cap = arena.results.capacity();
        let tasks_cap = arena.tasks.capacity();
        let outcomes_cap = arena.outcomes.capacity();
        run_tuple_batch(&g, &db, &request, &snap, &mut arena).unwrap();
        assert_eq!(arena.outcomes.len(), 8);
        assert_eq!(arena.results.capacity(), results_cap);
        assert_eq!(arena.tasks.capacity(), tasks_cap);
        assert_eq!(arena.outcomes.capacity(), outcomes_cap);
    }
}
