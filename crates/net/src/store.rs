//! Flat structure-of-arrays node store for million-node overlays.
//!
//! [`Graph`](crate::Graph) keeps the paper's "ids are never reused"
//! contract so engine-held tuple handles can detect departures (§IV-B2a)
//! — the right trade at 10³–10⁴ nodes, but at 10⁶ nodes under sustained
//! churn the ever-growing id space and per-node heap allocations dominate
//! memory. [`NodeStore`] is the scale-path alternative:
//!
//! * **u32 ids with free-list recycling** — a departed id returns to a
//!   free list and is handed out again, so the row tables stay dense
//!   under unbounded churn. Safety against aliasing comes from a
//!   per-row **generation counter**: a [`NodeRef`] captures `(id, gen)`
//!   at creation, and resolving a ref whose generation no longer matches
//!   yields "departed" — a recycled id can never impersonate the node a
//!   stale handle pointed at (the property the proptests pin).
//! * **SoA columns** — `value`, `weight`, and generation/liveness are
//!   parallel flat arrays indexed by id: one cache line pulls eight
//!   neighbors' values, and the whole store is a handful of allocations
//!   regardless of N.
//! * **CSR adjacency arena** — one shared neighbor pool plus per-row
//!   `(offset, len, cap)`, the same layout as [`Graph`](crate::Graph)'s
//!   arena. Bulk loads lay rows out back-to-back
//!   with `cap == len` (a textbook CSR); incremental edge-adds relocate
//!   a full row to the arena tail with doubled capacity, and compaction
//!   reclaims garbage spans once they dominate — bounding the arena at
//!   ≤ 2× the live edge entries.
//!
//! The accounting methods ([`NodeStore::bytes`],
//! [`NodeStore::bytes_per_node`]) measure actual heap footprint so the
//! `bench_sim` regression gate can assert ≤ 64 resident bytes/node for
//! store + adjacency at 10⁶ nodes.

use crate::error::NetError;
use crate::graph::NodeId;
use crate::Result;
use rand::Rng;

/// Pool size below which compaction is never attempted.
const COMPACT_MIN_POOL: usize = 1024;

/// Rejection-sampling attempts before [`NodeStore::random_live`] falls
/// back to a deterministic wrap-around scan.
const RANDOM_LIVE_ATTEMPTS: usize = 64;

/// Generation-tagged handle to a store row.
///
/// The id names a row; the generation names one *incarnation* of that
/// row. Row generations start at 1 (live), increment to even on
/// departure, and increment to odd again when the free list recycles the
/// id — so a `NodeRef` resolves only while its exact incarnation is
/// live, and a recycled id never aliases a stale handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeRef {
    id: u32,
    gen: u32,
}

impl NodeRef {
    /// The raw row id (only meaningful while the ref still resolves).
    #[must_use]
    pub fn id(self) -> u32 {
        self.id
    }

    /// The incarnation tag captured at creation.
    #[must_use]
    pub fn generation(self) -> u32 {
        self.gen
    }
}

/// Flat structure-of-arrays node store with CSR adjacency.
///
/// See the [module docs](self) for the design; see
/// [`Graph`](crate::Graph) for the pointer-stable small-scale sibling.
#[derive(Debug, Clone, Default)]
pub struct NodeStore {
    /// Per-row aggregate value column.
    value: Vec<f64>,
    /// Per-row sampling weight column.
    weight: Vec<f64>,
    /// Per-row generation: odd = live, even = departed.
    gen: Vec<u32>,
    /// Start of each row's neighbor span inside `pool`.
    adj_off: Vec<u32>,
    /// Live neighbor count of each row.
    adj_len: Vec<u32>,
    /// Allocated span of each row (`len ≤ cap`).
    adj_cap: Vec<u32>,
    /// Shared neighbor arena; live rows occupy disjoint spans.
    pool: Vec<u32>,
    /// Arena slots unreachable from any live row.
    pool_garbage: usize,
    /// Departed ids available for recycling (LIFO).
    free: Vec<u32>,
    /// Number of live rows.
    live_count: usize,
    /// Number of undirected edges.
    edge_count: usize,
}

impl NodeStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store with exact row capacity for `n` nodes and
    /// arena capacity for `edge_hint` undirected edges (2 entries each).
    /// Capacities are reserved exactly so the bytes/node accounting is
    /// not inflated by growth doubling.
    #[must_use]
    pub fn with_capacity(n: usize, edge_hint: usize) -> Self {
        let mut s = Self::default();
        s.value.reserve_exact(n);
        s.weight.reserve_exact(n);
        s.gen.reserve_exact(n);
        s.adj_off.reserve_exact(n);
        s.adj_len.reserve_exact(n);
        s.adj_cap.reserve_exact(n);
        s.pool.reserve_exact(edge_hint.saturating_mul(2));
        s
    }

    /// Number of live rows.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether the store holds no live rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// One past the largest row id ever allocated (dense table bound).
    #[must_use]
    pub fn id_upper_bound(&self) -> usize {
        self.gen.len()
    }

    /// Whether `id` names a currently live row.
    #[must_use]
    pub fn is_live(&self, id: u32) -> bool {
        self.gen.get(id as usize).is_some_and(|g| g % 2 == 1)
    }

    /// Resolves a handle to its row id, or `None` if that incarnation
    /// has departed (even if the id has since been recycled).
    #[must_use]
    pub fn resolve(&self, r: NodeRef) -> Option<u32> {
        (self.gen.get(r.id as usize) == Some(&r.gen)).then_some(r.id)
    }

    /// The current handle for a live row id.
    #[must_use]
    pub fn node_ref(&self, id: u32) -> Option<NodeRef> {
        self.is_live(id).then(|| NodeRef {
            id,
            gen: self.gen[id as usize],
        })
    }

    /// Adds a node (recycling a departed id when one is free) and
    /// returns its generation-tagged handle.
    ///
    /// # Errors
    ///
    /// [`NetError::CapacityExceeded`] if the u32 id space is exhausted.
    pub fn add_node(&mut self, value: f64, weight: f64) -> Result<NodeRef> {
        let id = match self.free.pop() {
            Some(id) => {
                let i = id as usize;
                // even (departed) → odd (live), new incarnation. Wrapping
                // preserves parity; a handle 2³² incarnations stale is the
                // only aliasing window and is unreachable in practice.
                self.gen[i] = self.gen[i].wrapping_add(1);
                self.value[i] = value;
                self.weight[i] = weight;
                self.adj_off[i] = 0;
                self.adj_len[i] = 0;
                self.adj_cap[i] = 0;
                id
            }
            None => {
                let id = u32::try_from(self.gen.len()).map_err(|_| NetError::CapacityExceeded)?;
                if id == u32::MAX {
                    return Err(NetError::CapacityExceeded);
                }
                self.value.push(value);
                self.weight.push(weight);
                self.gen.push(1);
                self.adj_off.push(0);
                self.adj_len.push(0);
                self.adj_cap.push(0);
                id
            }
        };
        self.live_count += 1;
        Ok(NodeRef {
            id,
            gen: self.gen[id as usize],
        })
    }

    /// Removes the row a handle points at, detaching every incident
    /// edge, and recycles its id via the free list. Returns `false`
    /// (without error) when the handle no longer resolves — the "node
    /// already left" case callers race against under churn.
    pub fn remove(&mut self, r: NodeRef) -> bool {
        let Some(id) = self.resolve(r) else {
            return false;
        };
        let i = id as usize;
        let off = self.adj_off[i] as usize;
        let len = self.adj_len[i] as usize;
        let neighbors: Vec<u32> = self.pool[off..off + len].to_vec();
        self.gen[i] = self.gen[i].wrapping_add(1); // odd → even: departed
        self.pool_garbage += self.adj_cap[i] as usize;
        self.adj_off[i] = 0;
        self.adj_len[i] = 0;
        self.adj_cap[i] = 0;
        self.edge_count -= len;
        self.live_count -= 1;
        for nb in neighbors {
            if self.is_live(nb) {
                self.remove_neighbor_entry(nb, id);
            }
        }
        self.free.push(id);
        self.maybe_compact();
        true
    }

    /// The neighbor row of a live id (empty for departed/unknown ids).
    #[must_use]
    pub fn neighbors(&self, id: u32) -> &[u32] {
        if self.is_live(id) {
            let i = id as usize;
            let off = self.adj_off[i] as usize;
            &self.pool[off..off + self.adj_len[i] as usize]
        } else {
            &[]
        }
    }

    /// Degree of a live id (0 for departed/unknown ids).
    #[must_use]
    pub fn degree(&self, id: u32) -> usize {
        if self.is_live(id) {
            self.adj_len[id as usize] as usize
        } else {
            0
        }
    }

    /// The value column entry of a live id (`None` otherwise).
    #[must_use]
    pub fn value(&self, id: u32) -> Option<f64> {
        self.is_live(id).then(|| self.value[id as usize])
    }

    /// Overwrites the value column entry of a live id.
    pub fn set_value(&mut self, id: u32, value: f64) -> bool {
        if self.is_live(id) {
            self.value[id as usize] = value;
            true
        } else {
            false
        }
    }

    /// The weight column entry of a live id (`None` otherwise).
    #[must_use]
    pub fn weight(&self, id: u32) -> Option<f64> {
        self.is_live(id).then(|| self.weight[id as usize])
    }

    /// Sum of the value column over live rows (the exact aggregate an
    /// oracle computes; O(rows)).
    #[must_use]
    pub fn value_sum(&self) -> f64 {
        self.gen
            .iter()
            .zip(&self.value)
            .filter(|(g, _)| **g % 2 == 1)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Adds the undirected edge `{a, b}`; `Ok(false)` if already present.
    ///
    /// # Errors
    ///
    /// * [`NetError::SelfLoop`] if `a == b`.
    /// * [`NetError::UnknownNode`] if either id is not live.
    /// * [`NetError::CapacityExceeded`] if the arena outgrows u32 offsets.
    pub fn add_edge(&mut self, a: u32, b: u32) -> Result<bool> {
        if a == b {
            return Err(NetError::SelfLoop(NodeId(a)));
        }
        if !self.is_live(a) {
            return Err(NetError::UnknownNode(NodeId(a)));
        }
        if !self.is_live(b) {
            return Err(NetError::UnknownNode(NodeId(b)));
        }
        if self.neighbors(a).contains(&b) {
            return Ok(false);
        }
        self.push_neighbor(a, b)?;
        self.push_neighbor(b, a)?;
        self.edge_count += 1;
        Ok(true)
    }

    /// Removes the undirected edge `{a, b}` if present.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if either id is not live.
    pub fn remove_edge(&mut self, a: u32, b: u32) -> Result<bool> {
        if !self.is_live(a) {
            return Err(NetError::UnknownNode(NodeId(a)));
        }
        if !self.is_live(b) {
            return Err(NetError::UnknownNode(NodeId(b)));
        }
        if !self.remove_neighbor_entry(a, b) {
            return Ok(false);
        }
        self.remove_neighbor_entry(b, a);
        self.edge_count -= 1;
        Ok(true)
    }

    /// Whether the edge `{a, b}` exists.
    #[must_use]
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        self.neighbors(a).contains(&b)
    }

    /// Lays out an exact CSR (`cap == len`, rows back-to-back in id
    /// order) from an edge list over the currently live rows. This is
    /// the bulk-build fast path for topology generators: O(V + E), zero
    /// arena slack, one allocation.
    ///
    /// # Errors
    ///
    /// * [`NetError::NotEmpty`] if the store already holds edges.
    /// * [`NetError::UnknownNode`] / [`NetError::SelfLoop`] on a bad edge.
    /// * [`NetError::CapacityExceeded`] if offsets outgrow u32.
    ///
    /// The caller must supply a *simple* edge list (no duplicates) —
    /// the generators' contract; duplicates are not re-checked here to
    /// keep the load O(V + E).
    pub fn bulk_load_edges(&mut self, edges: &[(u32, u32)]) -> Result<()> {
        if self.edge_count != 0 {
            return Err(NetError::NotEmpty);
        }
        for &(a, b) in edges {
            if a == b {
                return Err(NetError::SelfLoop(NodeId(a)));
            }
            if !self.is_live(a) {
                return Err(NetError::UnknownNode(NodeId(a)));
            }
            if !self.is_live(b) {
                return Err(NetError::UnknownNode(NodeId(b)));
            }
        }
        let entries = edges.len().saturating_mul(2);
        u32::try_from(entries).map_err(|_| NetError::CapacityExceeded)?;
        // Pass 1: degrees.
        let rows = self.gen.len();
        let mut deg = vec![0u32; rows];
        for &(a, b) in edges {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        // Pass 2: prefix-sum offsets, cap == len.
        let mut off = 0u32;
        for (i, &d) in deg.iter().enumerate() {
            self.adj_off[i] = off;
            self.adj_len[i] = 0;
            self.adj_cap[i] = d;
            off += d;
        }
        // Pass 3: fill (edge order preserved per row, matching the
        // append order an incremental build would produce).
        let mut pool = vec![0u32; entries];
        for &(a, b) in edges {
            let ia = a as usize;
            pool[(self.adj_off[ia] + self.adj_len[ia]) as usize] = b;
            self.adj_len[ia] += 1;
            let ib = b as usize;
            pool[(self.adj_off[ib] + self.adj_len[ib]) as usize] = a;
            self.adj_len[ib] += 1;
        }
        self.pool = pool;
        self.pool_garbage = 0;
        self.edge_count = edges.len();
        Ok(())
    }

    /// Uniformly random live row id, or `None` on an empty store.
    /// Rejection-samples the id space (live rows stay dense thanks to
    /// recycling, so a handful of draws suffice) and falls back to a
    /// deterministic wrap-around scan if unlucky — always terminating,
    /// always a function of the RNG stream alone.
    pub fn random_live<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<u32> {
        if self.live_count == 0 {
            return None;
        }
        let rows = self.gen.len();
        for _ in 0..RANDOM_LIVE_ATTEMPTS {
            let id = u32::try_from(rng.gen_range(0..rows)).ok()?;
            if self.is_live(id) {
                return Some(id);
            }
        }
        // Fallback: scan forward (wrapping) from one more uniform draw.
        let start = rng.gen_range(0..rows);
        for k in 0..rows {
            let id = u32::try_from((start + k) % rows).ok()?;
            if self.is_live(id) {
                return Some(id);
            }
        }
        None
    }

    /// Iterator over live row ids in ascending order (O(rows) scan; for
    /// setup and verification, not per-event hot paths).
    pub fn live_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.gen
            .iter()
            .enumerate()
            .filter(|(_, g)| *g % 2 == 1)
            .filter_map(|(i, _)| u32::try_from(i).ok())
    }

    /// Appends `nb` to `id`'s row, relocating to the arena tail with
    /// doubled capacity when full.
    fn push_neighbor(&mut self, id: u32, nb: u32) -> Result<()> {
        let i = id as usize;
        let len = self.adj_len[i] as usize;
        let cap = self.adj_cap[i] as usize;
        if len == cap {
            let new_cap = (cap * 2).max(4);
            let old_off = self.adj_off[i] as usize;
            let new_off = self.pool.len();
            u32::try_from(new_off + new_cap).map_err(|_| NetError::CapacityExceeded)?;
            self.pool.resize(new_off + new_cap, u32::MAX);
            self.pool.copy_within(old_off..old_off + len, new_off);
            self.pool_garbage += cap;
            self.adj_off[i] = u32::try_from(new_off).map_err(|_| NetError::CapacityExceeded)?;
            self.adj_cap[i] = u32::try_from(new_cap).map_err(|_| NetError::CapacityExceeded)?;
        }
        let off = self.adj_off[i] as usize;
        let len = self.adj_len[i] as usize;
        self.pool[off + len] = nb;
        self.adj_len[i] += 1;
        self.maybe_compact();
        Ok(())
    }

    /// Swap-removes `nb` from `id`'s row; returns whether it was present.
    fn remove_neighbor_entry(&mut self, id: u32, nb: u32) -> bool {
        let i = id as usize;
        let off = self.adj_off[i] as usize;
        let len = self.adj_len[i] as usize;
        let row = &mut self.pool[off..off + len];
        match row.iter().position(|&x| x == nb) {
            Some(pos) => {
                row.swap(pos, len - 1);
                self.adj_len[i] -= 1;
                true
            }
            None => false,
        }
    }

    fn maybe_compact(&mut self) {
        if self.pool.len() > COMPACT_MIN_POOL && self.pool_garbage > self.pool.len() / 2 {
            self.compact();
        }
    }

    /// Rewrites the arena with live rows only (id order, `cap == len`),
    /// reclaiming all garbage and releasing slack capacity. Also the
    /// hook benches call once after construction so the bytes/node gate
    /// measures the steady-state layout, not build-time churn.
    pub fn compact(&mut self) {
        let live_entries = self.pool.len() - self.pool_garbage.min(self.pool.len());
        let mut new_pool = Vec::with_capacity(live_entries);
        for i in 0..self.gen.len() {
            if self.gen[i].is_multiple_of(2) {
                self.adj_off[i] = 0;
                self.adj_len[i] = 0;
                self.adj_cap[i] = 0;
                continue;
            }
            let off = self.adj_off[i] as usize;
            let len = self.adj_len[i] as usize;
            // Offsets stay < current pool length, which already fit u32.
            self.adj_off[i] = u32::try_from(new_pool.len()).unwrap_or(u32::MAX);
            self.adj_cap[i] = self.adj_len[i];
            new_pool.extend_from_slice(&self.pool[off..off + len]);
        }
        self.pool = new_pool;
        self.pool_garbage = 0;
    }

    /// Total heap bytes held by the store: SoA columns, adjacency arena
    /// (including slack capacity — this is *resident* accounting), and
    /// free list.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.value.capacity() * std::mem::size_of::<f64>()
            + self.weight.capacity() * std::mem::size_of::<f64>()
            + self.gen.capacity() * std::mem::size_of::<u32>()
            + self.adj_off.capacity() * std::mem::size_of::<u32>()
            + self.adj_len.capacity() * std::mem::size_of::<u32>()
            + self.adj_cap.capacity() * std::mem::size_of::<u32>()
            + self.pool.capacity() * std::mem::size_of::<u32>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }

    /// Resident bytes per live node (the `bench_sim` gate metric).
    #[must_use]
    pub fn bytes_per_node(&self) -> f64 {
        if self.live_count == 0 {
            return 0.0;
        }
        // Precision loss above 2^52 bytes is irrelevant for a ratio.
        #[allow(clippy::cast_precision_loss)]
        {
            self.bytes() as f64 / self.live_count as f64
        }
    }
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
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn store_with(n: usize) -> (NodeStore, Vec<NodeRef>) {
        let mut s = NodeStore::new();
        let refs: Vec<NodeRef> = (0..n).map(|i| s.add_node(i as f64, 1.0).unwrap()).collect();
        (s, refs)
    }

    #[test]
    fn add_resolve_remove_roundtrip() {
        let (mut s, refs) = store_with(3);
        assert_eq!(s.live_count(), 3);
        assert_eq!(s.resolve(refs[1]), Some(refs[1].id()));
        assert_eq!(s.value(refs[1].id()), Some(1.0));
        assert!(s.remove(refs[1]));
        assert_eq!(s.live_count(), 2);
        assert_eq!(s.resolve(refs[1]), None);
        assert!(!s.remove(refs[1]), "double-remove is a detected no-op");
    }

    #[test]
    fn recycled_id_never_aliases_stale_ref() {
        let (mut s, refs) = store_with(2);
        let departed = refs[0];
        assert!(s.remove(departed));
        // The id is recycled…
        let fresh = s.add_node(42.0, 1.0).unwrap();
        assert_eq!(fresh.id(), departed.id());
        // …but the stale handle still reads as departed.
        assert_eq!(s.resolve(departed), None);
        assert_eq!(s.resolve(fresh), Some(fresh.id()));
        assert_ne!(fresh.generation(), departed.generation());
        assert_eq!(s.value(fresh.id()), Some(42.0));
    }

    #[test]
    fn id_space_stays_dense_under_churn() {
        let (mut s, mut refs) = store_with(8);
        for round in 0..100 {
            let r = refs.remove(round % refs.len());
            s.remove(r);
            refs.push(s.add_node(0.0, 1.0).unwrap());
        }
        assert_eq!(s.live_count(), 8);
        assert!(
            s.id_upper_bound() <= 9,
            "free-list recycling must keep rows dense, got {}",
            s.id_upper_bound()
        );
    }

    #[test]
    fn edges_and_degrees() {
        let (mut s, refs) = store_with(3);
        let (a, b, c) = (refs[0].id(), refs[1].id(), refs[2].id());
        assert!(s.add_edge(a, b).unwrap());
        assert!(!s.add_edge(b, a).unwrap(), "duplicate edge is a no-op");
        assert!(s.add_edge(b, c).unwrap());
        assert_eq!(s.edge_count(), 2);
        assert_eq!(s.degree(b), 2);
        assert_eq!(s.neighbors(b), &[a, c]);
        assert!(s.has_edge(c, b));
        assert!(s.remove_edge(a, b).unwrap());
        assert!(!s.remove_edge(a, b).unwrap());
        assert_eq!(s.degree(b), 1);
        assert!(matches!(
            s.add_edge(a, a).unwrap_err(),
            NetError::SelfLoop(_)
        ));
    }

    #[test]
    fn remove_detaches_both_sides() {
        let (mut s, refs) = store_with(3);
        let (a, b, c) = (refs[0].id(), refs[1].id(), refs[2].id());
        s.add_edge(a, b).unwrap();
        s.add_edge(b, c).unwrap();
        assert!(s.remove(refs[1]));
        assert_eq!(s.edge_count(), 0);
        assert_eq!(s.degree(a), 0);
        assert_eq!(s.degree(c), 0);
        assert_eq!(s.neighbors(a), &[] as &[u32]);
    }

    #[test]
    fn bulk_load_matches_incremental_build() {
        let edges = [(0u32, 1u32), (1, 2), (2, 0), (0, 3)];
        let (mut bulk, _) = store_with(4);
        bulk.bulk_load_edges(&edges).unwrap();
        let (mut inc, _) = store_with(4);
        for &(a, b) in &edges {
            inc.add_edge(a, b).unwrap();
        }
        for id in 0..4u32 {
            assert_eq!(bulk.neighbors(id), inc.neighbors(id), "row {id}");
        }
        assert_eq!(bulk.edge_count(), inc.edge_count());
        // Bulk load is exact CSR: zero slack.
        assert_eq!(bulk.pool.len(), 2 * edges.len());
        assert!(bulk.bulk_load_edges(&edges).is_err(), "store not empty");
    }

    #[test]
    fn compaction_bounds_arena_and_preserves_rows() {
        let (mut s, refs) = store_with(64);
        // Dense-ish edges to blow past COMPACT_MIN_POOL.
        for i in 0..64u32 {
            for j in (i + 1)..64u32 {
                if (i + j) % 3 == 0 {
                    s.add_edge(refs[i as usize].id(), refs[j as usize].id())
                        .unwrap();
                }
            }
        }
        let before: Vec<Vec<u32>> = (0..64u32).map(|i| s.neighbors(i).to_vec()).collect();
        s.compact();
        for (i, row) in before.iter().enumerate() {
            assert_eq!(s.neighbors(i as u32), &row[..], "row {i} after compact");
        }
        assert_eq!(s.pool.len(), 2 * s.edge_count());
        assert_eq!(s.pool_garbage, 0);
    }

    #[test]
    fn random_live_is_uniform_over_live_rows() {
        let (mut s, refs) = store_with(10);
        for r in refs.iter().take(5) {
            s.remove(*r);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..400 {
            let id = s.random_live(&mut rng).unwrap();
            assert!(s.is_live(id));
            seen.insert(id);
        }
        assert_eq!(seen.len(), 5, "all live rows drawn");
        let empty = NodeStore::new();
        assert_eq!(empty.random_live(&mut rng), None);
    }

    #[test]
    fn value_sum_tracks_live_rows_only() {
        let (mut s, refs) = store_with(4);
        assert_eq!(s.value_sum(), 0.0 + 1.0 + 2.0 + 3.0);
        s.remove(refs[2]);
        assert_eq!(s.value_sum(), 0.0 + 1.0 + 3.0);
        s.set_value(refs[0].id(), 10.0);
        assert_eq!(s.value_sum(), 10.0 + 1.0 + 3.0);
    }

    #[test]
    fn bytes_accounting_is_positive_and_bounded() {
        // Pre-sized like bench_sim sizes its overlay: exact column
        // reservations, compacted arena.
        let n = 20_000usize;
        let mut s = NodeStore::with_capacity(n, n);
        let refs: Vec<NodeRef> = (0..n).map(|i| s.add_node(i as f64, 1.0).unwrap()).collect();
        for w in refs.windows(2) {
            s.add_edge(w[0].id(), w[1].id()).unwrap();
        }
        s.compact();
        let per_node = s.bytes_per_node();
        assert!(per_node > 0.0);
        // Path graph: 2 entries/node ≈ 8 B adjacency + 32 B columns.
        assert!(per_node <= 64.0, "path graph must fit the gate: {per_node}");
    }
}
