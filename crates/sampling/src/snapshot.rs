//! Per-occasion Metropolis–Hastings tables over the overlay's own arena.
//!
//! The walk of PAPER.md §V-A needs the overlay's adjacency plus one
//! acceptance ratio per directed edge (Eq. 12). The adjacency is read
//! straight from [`Graph`]'s neighbor arena ([`Graph::arena_row`]); this
//! module keeps only what the walk cannot read from the graph:
//!
//! * **the per-edge acceptance table**, indexed by the edge's slot in
//!   the graph's arena. Each entry is the ratio
//!   `(w_j·d_i) / (max(w_i, ε)·d_j)`, computed with *bit-for-bit the
//!   same `f64` expression* as the live walk and folded down to the
//!   integer Bernoulli threshold `rand`'s `gen_bool(ratio)` would compare
//!   against. IEEE-754 arithmetic is deterministic, so the table entry
//!   decides *and consumes the RNG stream* exactly like recomputing the
//!   ratio and calling `gen_bool` per step: ratio ≥ 1 maps to
//!   [`ACCEPT_ALWAYS`] (accept, no draw), anything else to `⌈ratio·2⁵³⌉`
//!   compared against the 53 mantissa bits of one raw `next_u64` draw;
//! * **the per-node Lemire rejection table** of the uniform proposal
//!   draw (a 64-bit modulo in the vendored `gen_range`), precomputed the
//!   same way;
//! * **the captured weights**, which decide whether the tables can be
//!   reused.
//!
//! The inner walk step becomes a few array reads and integer compares —
//! no float ops, no modulo, no weight-closure calls.
//!
//! [`SnapshotCache::refresh`] has two outcomes. It *reuses* the tables
//! when the graph's mutation epoch is unchanged and the freshly captured
//! weights compare equal element by element; otherwise it *rebuilds*
//! them, O(n + m). Arena slots move only inside epoch-bumping mutations
//! (row relocation on growth, compaction), so slot-indexed tables are
//! valid exactly while the epoch holds. Each outcome is counted
//! (`sampling.snapshot.built/reused`) and timed under
//! [`Stage::SnapshotBuild`]. The cache is bound to one [`Graph`]
//! *instance*: epochs from different graphs are incomparable, so
//! `SamplingOperator::reset` must (and does) drop the cache before an
//! operator may be pointed at another graph.

use crate::error::SamplingError;
use crate::metropolis::ZERO_WEIGHT_FLOOR;
use crate::weight::NodeWeight;
use crate::Result;
use digest_net::{Graph, NodeId};
use digest_telemetry::{registry as telemetry, Stage};

/// The M–H tables of one occasion, valid for the [`Graph`] epoch they
/// were built at. Built once per occasion on the dispatching thread;
/// shared read-only by every walk slot, which reads the adjacency itself
/// from the graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct OccasionSnapshot {
    /// Integer acceptance threshold per arena slot: the slot of directed
    /// edge `(i, j)` holds [`accept_threshold`] of the ratio
    /// `(w_j·d_i) / (max(w_i, ε)·d_j)` that `MetropolisWalk::step`
    /// evaluates live (Eq. 12). Slots outside live rows hold 0.
    accept: Vec<u64>,
    /// Per-node Lemire rejection threshold for the uniform proposal
    /// draw, [`lemire_reject_threshold`] of the node's degree
    /// (`id_upper_bound` entries, 0 for dead or isolated ids).
    reject: Vec<u64>,
    /// Weight per id slot (0.0 for dead ids); every entry finite, ≥ 0.
    weights: Vec<f64>,
}

impl OccasionSnapshot {
    /// Builds the tables cold (no cache); test-only reference path —
    /// the operator goes through [`SnapshotCache`].
    ///
    /// # Errors
    ///
    /// [`SamplingError::InvalidWeight`] if `w` yields a negative or
    /// non-finite weight for any live node (the same check the
    /// sequential walk applies lazily per step, applied eagerly here).
    #[cfg(test)]
    pub(crate) fn build<W: NodeWeight>(g: &Graph, w: &W) -> Result<Self> {
        let mut cache = SnapshotCache::new();
        cache.refresh(g, w)?;
        Ok(cache.snapshot)
    }

    /// The precomputed integer acceptance threshold at arena slot
    /// `slot`: [`ACCEPT_ALWAYS`] iff the live ratio is ≥ 1 (accept
    /// without consuming randomness), otherwise [`accept_threshold`]'s
    /// `⌈ratio·2⁵³⌉` so that `(next_u64() >> 11) < threshold`
    /// reproduces `gen_bool(ratio)` bit-for-bit.
    /// xtask: no-alloc
    #[inline]
    pub(crate) fn accept_threshold_at(&self, slot: usize) -> u64 {
        self.accept.get(slot).copied().unwrap_or(0)
    }

    /// The precomputed per-node Lemire rejection threshold for `v`'s
    /// uniform proposal draw (see [`lemire_reject_threshold`]).
    /// xtask: no-alloc
    #[inline]
    pub(crate) fn reject_threshold_of(&self, v: NodeId) -> u64 {
        self.reject.get(v.0 as usize).copied().unwrap_or(0)
    }

    /// Recomputes both tables from `g`'s arena and the captured weights.
    /// O(n + arena); the buffers keep their capacity, so a rebuild at a
    /// steady overlay size allocates nothing.
    fn rebuild_tables(&mut self, g: &Graph) {
        self.accept.clear();
        self.reject.clear();
        self.reject.resize(g.id_upper_bound(), 0);
        for v in g.nodes() {
            let (start, row) = g.arena_row(v);
            if let Some(reject) = self.reject.get_mut(v.0 as usize) {
                *reject = lemire_reject_threshold(u64::try_from(row.len()).unwrap_or(u64::MAX));
            }
            let end = start + row.len();
            if self.accept.len() < end {
                self.accept.resize(end, 0);
            }
            let d_i = row.len() as f64;
            let w_i = self
                .weights
                .get(v.0 as usize)
                .copied()
                .unwrap_or(0.0)
                .max(ZERO_WEIGHT_FLOOR);
            let slots = self.accept.get_mut(start..end).unwrap_or_default();
            for (slot, &j) in slots.iter_mut().zip(row) {
                let w_j = self.weights.get(j.0 as usize).copied().unwrap_or(0.0);
                let d_j = g.degree(j) as f64;
                *slot = accept_threshold((w_j * d_i) / (w_i * d_j));
            }
        }
    }
}

/// Sentinel threshold for "ratio ≥ 1": the walk accepts the proposal
/// *without drawing* from the RNG, mirroring the live step's
/// `accept >= 1.0 ||` short-circuit. Unambiguous: for any ratio < 1 the
/// stored threshold is at most `2⁵³ − 1 < u64::MAX`.
pub(crate) const ACCEPT_ALWAYS: u64 = u64::MAX;

/// Folds an M–H acceptance ratio down to the integer threshold whose
/// `(next_u64() >> 11) < threshold` compare reproduces the live step's
/// `accept >= 1.0 || rng.gen_bool(accept.max(0.0))` decision *and* RNG
/// consumption bit-for-bit. The vendored `rand::Rng::gen_bool(p)` is
/// `unit_f64(next_u64()) < p` where `unit_f64(v) = ((v >> 11) as f64)
/// · 2⁻⁵³` — an *exact* rational `m / 2⁵³` with integer `m < 2⁵³`.
/// Scaling `p` by the power of two 2⁵³ is itself exact in IEEE-754, so
/// `m / 2⁵³ < p  ⇔  m < ⌈p·2⁵³⌉`, making the per-draw comparison pure
/// integer (pinned against the real `gen_bool` by a unit test below).
/// A NaN ratio follows the live path's `NaN.max(0.0) == 0.0` to a
/// never-accept threshold of 0.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn accept_threshold(ratio: f64) -> u64 {
    if ratio >= 1.0 {
        return ACCEPT_ALWAYS;
    }
    // 2⁵³ — the mantissa scale inside the vendored `unit_f64`.
    const SCALE: f64 = 9_007_199_254_740_992.0;
    (ratio.max(0.0) * SCALE).ceil() as u64
}

/// The Lemire rejection threshold the vendored
/// `rand::uniform_u64_below(rng, span)` recomputes on every proposal
/// draw (`span.wrapping_neg() % span`, a 64-bit modulo). Precomputed
/// here per node because it depends only on the node's degree.
fn lemire_reject_threshold(span: u64) -> u64 {
    if span == 0 {
        0
    } else {
        span.wrapping_neg() % span
    }
}

/// How a [`SnapshotCache::refresh`] satisfied the occasion's request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SnapshotRefresh {
    /// The weight capture and both tables were rebuilt from the graph.
    Built,
    /// Same graph epoch, equal weights: the cached tables were returned
    /// with zero writes.
    Reused,
}

/// The last [`OccasionSnapshot`] plus the epoch it is valid at, owned by
/// a `SamplingOperator`. The weight scratch buffer is retained across
/// occasions, so the steady state (unchanged overlay) allocates nothing
/// and writes nothing beyond the weight re-evaluation.
#[derive(Debug, Clone, Default)]
pub(crate) struct SnapshotCache {
    snapshot: OccasionSnapshot,
    /// Graph mutation epoch the tables were built at; `None` until the
    /// first refresh of *this* cache and after [`Self::invalidate`].
    epoch: Option<u64>,
    /// Per-occasion weight re-evaluation target.
    weights_scratch: Vec<f64>,
}

impl SnapshotCache {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Drops the cached tables and releases every retained buffer.
    /// Required whenever the operator may be re-pointed at a *different*
    /// graph: epochs are per-`Graph`-instance and two graphs can share
    /// an epoch value while disagreeing on topology.
    pub(crate) fn invalidate(&mut self) {
        *self = Self::new();
    }

    /// Produces the occasion tables for the graph's current state,
    /// reusing the cached ones when the epoch is unchanged and the
    /// captured weights compare equal, rebuilding them otherwise.
    ///
    /// # Errors
    ///
    /// [`SamplingError::InvalidWeight`] if `w` yields a negative or
    /// non-finite weight for any live node; the cache is invalidated so
    /// a later refresh cannot serve stale state.
    pub(crate) fn refresh<W: NodeWeight>(
        &mut self,
        g: &Graph,
        w: &W,
    ) -> Result<(&OccasionSnapshot, SnapshotRefresh)> {
        let _span = digest_telemetry::span(Stage::SnapshotBuild);
        if let Err(err) = capture_weights(g, w, &mut self.weights_scratch) {
            self.invalidate();
            return Err(err);
        }
        let epoch = g.epoch();
        if self.epoch == Some(epoch) && self.weights_scratch == self.snapshot.weights {
            telemetry::SAMPLING_SNAPSHOT_REUSED.inc();
            return Ok((&self.snapshot, SnapshotRefresh::Reused));
        }
        std::mem::swap(&mut self.snapshot.weights, &mut self.weights_scratch);
        self.snapshot.rebuild_tables(g);
        self.epoch = Some(epoch);
        telemetry::SAMPLING_SNAPSHOT_BUILT.inc();
        Ok((&self.snapshot, SnapshotRefresh::Built))
    }
}

/// Evaluates `w` over every live node into `scratch` (0.0 for dead id
/// slots), validating eagerly.
fn capture_weights<W: NodeWeight>(g: &Graph, w: &W, scratch: &mut Vec<f64>) -> Result<()> {
    let upper = g.id_upper_bound();
    scratch.clear();
    scratch.resize(upper, 0.0);
    for v in g.nodes() {
        let weight = w.weight(v);
        if !weight.is_finite() || weight < 0.0 {
            return Err(SamplingError::InvalidWeight { node: v, weight });
        }
        if let Some(slot) = scratch.get_mut(v.0 as usize) {
            *slot = weight;
        }
    }
    Ok(())
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
    use digest_net::topology;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn tables_cover_live_rows_and_zero_dead_ids() {
        let mut g = topology::barabasi_albert(40, 2, &mut rng(7)).unwrap();
        g.remove_node(NodeId(11)).unwrap();
        let w = |v: NodeId| f64::from(v.0) + 0.5;
        let snap = OccasionSnapshot::build(&g, &w).unwrap();
        assert_eq!(snap.reject.len(), g.id_upper_bound());
        assert_eq!(snap.weights.len(), g.id_upper_bound());
        for v in g.nodes() {
            assert_eq!(snap.weights[v.0 as usize], f64::from(v.0) + 0.5);
            let (start, row) = g.arena_row(v);
            assert!(start + row.len() <= snap.accept.len());
        }
        assert_eq!(snap.weights[11], 0.0);
        assert_eq!(snap.reject_threshold_of(NodeId(11)), 0);
        assert_eq!(snap.reject_threshold_of(NodeId(999)), 0);
    }

    #[test]
    fn snapshot_rejects_invalid_weights_eagerly() {
        let g = topology::ring(6).unwrap();
        let w = |v: NodeId| if v.0 == 3 { f64::NAN } else { 1.0 };
        assert!(matches!(
            OccasionSnapshot::build(&g, &w),
            Err(SamplingError::InvalidWeight {
                node: NodeId(3),
                ..
            })
        ));
        let w = |v: NodeId| if v.0 == 2 { -1.0 } else { 1.0 };
        assert!(OccasionSnapshot::build(&g, &w).is_err());
    }

    /// The acceptance table must hold exactly the threshold derived
    /// from the ratio the live walk computes per step (PAPER.md §V-A
    /// Eq. 12), folded through the same [`accept_threshold`].
    #[test]
    fn acceptance_table_is_bit_identical_to_live_expression() {
        let g = topology::barabasi_albert(80, 3, &mut rng(5)).unwrap();
        let w = |v: NodeId| f64::from(v.0 % 7) + 0.25;
        let snap = OccasionSnapshot::build(&g, &w).unwrap();
        let mut below_one = 0usize;
        for v in g.nodes() {
            let (start, row) = g.arena_row(v);
            let d_i = g.degree(v) as f64;
            let w_i = w(v).max(ZERO_WEIGHT_FLOOR);
            for (k, &j) in row.iter().enumerate() {
                let live = (w(j) * d_i) / (w_i * (g.degree(j) as f64));
                assert_eq!(snap.accept_threshold_at(start + k), accept_threshold(live));
                if live < 1.0 {
                    below_one += 1;
                }
            }
        }
        // The graph must actually exercise the sub-unity branch.
        assert!(below_one > 0);
    }

    /// [`accept_threshold`]'s `(next_u64() >> 11) < t` compare must
    /// agree with the vendored `gen_bool(p)` on both the decision and
    /// the amount of stream consumed, for every probability class the
    /// acceptance ratio can produce below 1.
    #[test]
    fn thresholds_reproduce_gen_bool_exactly() {
        use rand::{Rng, RngCore};
        let ps = [
            0.0,
            1e-300,
            0.25,
            0.5,
            0.618_033_988_7,
            0.999_999,
            1.0 - f64::EPSILON,
        ];
        for (i, &p) in ps.iter().enumerate() {
            let t = accept_threshold(p);
            let mut live = rng(100 + i as u64);
            let mut table = live.clone();
            for round in 0..128 {
                assert_eq!(
                    live.gen_bool(p),
                    (table.next_u64() >> 11) < t,
                    "p={p} round={round}"
                );
            }
            // Both sides drained the same amount of stream.
            assert_eq!(live.next_u64(), table.next_u64(), "p={p}");
        }
        assert_eq!(accept_threshold(1.0), ACCEPT_ALWAYS);
        assert_eq!(accept_threshold(37.5), ACCEPT_ALWAYS);
        assert_eq!(accept_threshold(f64::INFINITY), ACCEPT_ALWAYS);
        // NaN ratio: the live path's `NaN.max(0.0)` is 0.0 → never accept.
        assert_eq!(accept_threshold(f64::NAN), 0);
        // The sentinel can never collide with a sub-unity threshold.
        assert!(accept_threshold(1.0 - f64::EPSILON) < ACCEPT_ALWAYS);
    }

    /// The per-node rejection table must hold exactly the threshold the
    /// vendored `uniform_u64_below` recomputes per draw, and the
    /// precomputed-threshold draw must match `gen_range` decision- and
    /// consumption-wise.
    #[test]
    fn reject_table_matches_vendored_gen_range() {
        use rand::{Rng, RngCore};
        for span in 1u64..=40 {
            assert_eq!(lemire_reject_threshold(span), span.wrapping_neg() % span);
        }
        assert_eq!(lemire_reject_threshold(0), 0);
        let g = topology::barabasi_albert(40, 2, &mut rng(6)).unwrap();
        let snap = OccasionSnapshot::build(&g, &|_: NodeId| 1.0).unwrap();
        for v in g.nodes() {
            let span = u64::try_from(g.degree(v)).unwrap();
            assert_eq!(snap.reject_threshold_of(v), lemire_reject_threshold(span));
            let mut live = rng(u64::from(v.0) + 500);
            let mut table = live.clone();
            let reject = snap.reject_threshold_of(v);
            for _ in 0..64 {
                let want = live.gen_range(0..g.degree(v));
                let got = loop {
                    let x = table.next_u64();
                    let m = u128::from(x) * u128::from(span);
                    if x.wrapping_mul(span) >= reject {
                        break usize::try_from(m >> 64).unwrap();
                    }
                };
                assert_eq!(want, got, "node {v:?}");
            }
            assert_eq!(live.next_u64(), table.next_u64());
        }
    }

    #[test]
    fn cache_reuses_on_unchanged_graph_and_weights() {
        let g = topology::barabasi_albert(60, 2, &mut rng(3)).unwrap();
        let w = |_: NodeId| 1.0;
        let mut cache = SnapshotCache::new();
        let (_, first) = cache.refresh(&g, &w).unwrap();
        assert_eq!(first, SnapshotRefresh::Built);
        let (_, second) = cache.refresh(&g, &w).unwrap();
        assert_eq!(second, SnapshotRefresh::Reused);
        assert_eq!(cache.epoch, Some(g.epoch()));
    }

    /// Any structural change rebuilds, and the rebuilt tables equal a
    /// cold build of the mutated graph.
    #[test]
    fn churn_rebuilds_tables_equal_to_a_cold_build() {
        let mut g = topology::barabasi_albert(50, 3, &mut rng(9)).unwrap();
        let w = |v: NodeId| f64::from(v.0 % 4) + 1.0;
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, &w).unwrap();

        // Add a node with edges, remove a node, rewire an edge.
        let fresh = g.add_node();
        g.add_edge(fresh, NodeId(0)).unwrap();
        g.add_edge(fresh, NodeId(7)).unwrap();
        g.remove_node(NodeId(13)).unwrap();
        let a = NodeId(2);
        let b = g.neighbors(a)[0];
        g.remove_edge(a, b).unwrap();
        g.add_edge(a, NodeId(21)).unwrap();

        let (snap, kind) = cache.refresh(&g, &w).unwrap();
        assert_eq!(kind, SnapshotRefresh::Built);
        assert_eq!(snap, &OccasionSnapshot::build(&g, &w).unwrap());
    }

    /// A weight change alone (same epoch) must also rebuild.
    #[test]
    fn weight_change_alone_rebuilds() {
        let g = topology::ring(20).unwrap();
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, &|_: NodeId| 1.0).unwrap();
        let w2 = |v: NodeId| f64::from(v.0) + 2.0;
        let (snap, kind) = cache.refresh(&g, &w2).unwrap();
        assert_eq!(kind, SnapshotRefresh::Built);
        assert_eq!(snap, &OccasionSnapshot::build(&g, &w2).unwrap());
    }

    #[test]
    fn invalid_weight_invalidates_cache() {
        let g = topology::ring(8).unwrap();
        let mut cache = SnapshotCache::new();
        cache.refresh(&g, &|_: NodeId| 1.0).unwrap();
        assert!(cache.epoch.is_some());
        let bad = |v: NodeId| if v.0 == 1 { -3.0 } else { 1.0 };
        assert!(cache.refresh(&g, &bad).is_err());
        assert!(cache.epoch.is_none());
        // Next valid refresh is a cold build, not a stale reuse.
        let (_, kind) = cache.refresh(&g, &|_: NodeId| 1.0).unwrap();
        assert_eq!(kind, SnapshotRefresh::Built);
    }
}
