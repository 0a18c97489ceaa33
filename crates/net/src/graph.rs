//! The unstructured overlay graph `G(V, E)`.
//!
//! Node identities are stable `u32` handles that survive unrelated
//! joins/leaves — a departed node's id is never reused, so tuple handles
//! held by the query engine's sample panel can detect departures reliably
//! (a dangling handle means "node left → replace the sample", exactly the
//! rule of paper §IV-B2a).
//!
//! The adjacency representation is a flat structure-of-arrays arena: one
//! shared neighbor pool plus per-node `u32` `(offset, len, cap)` rows.
//! The sampling operator walks this arena directly and keeps only its
//! M–H tables beside it, indexed by arena slot ([`Graph::arena_row`]).
//! The whole graph is a handful of allocations regardless of N, which is
//! what lets the same store carry both the paper-scale worlds and
//! 10⁶-node overlays. Topology generators lay rows out back-to-back with
//! `cap == len` through [`Graph::bulk_load_edges`]; incremental edge-adds
//! grow a row by relocating it to the arena tail with doubled capacity
//! (amortized O(1) push). Departed and relocated spans become garbage
//! that a compaction pass reclaims once it dominates the pool, or when
//! [`Graph::compact`] is called. Neighbor order is append order on
//! edge-add and swap-remove on edge-delete, whichever way a row was
//! built, so random-walk trajectories depend only on the edge sequence.
//!
//! The graph is simple (no self-loops, no parallel edges) and
//! undirected: O(1) id lookup, O(deg) neighbor iteration, O(deg) edge
//! removal.

use crate::error::NetError;
use crate::Result;
use rand::Rng;
use std::fmt;

/// Stable identifier of an overlay node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Pool size below which compaction is never attempted (compacting tiny
/// pools churns allocations for no measurable win).
const COMPACT_MIN_POOL: usize = 1024;

/// `live_pos` entry of a departed id.
const DEPARTED: u32 = u32::MAX;

/// Narrows an arena offset or length to the `u32` row columns.
fn narrow(x: usize) -> Result<u32> {
    u32::try_from(x).map_err(|_| NetError::CapacityExceeded)
}

/// An undirected simple graph over [`NodeId`]s.
///
/// Every structural mutation (node join/leave, edge add/remove) bumps a
/// monotonically increasing **mutation epoch**, so consumers that cache
/// tables derived from the topology (e.g. the sampling operator's
/// per-edge acceptance table, indexed by arena slot) can detect
/// staleness in O(1) via [`Graph::epoch`]. Arena slots move only inside
/// epoch-bumping mutations (row relocation, compaction), so a slot-indexed
/// side table stays valid exactly while the epoch holds.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// Start of each ever-allocated id's neighbor row inside `pool`.
    row_off: Vec<u32>,
    /// Live neighbor count of each row.
    row_len: Vec<u32>,
    /// Allocated span of each row (`len ≤ cap`); slots past `len` are
    /// headroom left by swap-removals or doubling growth.
    row_cap: Vec<u32>,
    /// Shared neighbor arena; live rows occupy disjoint spans.
    pool: Vec<NodeId>,
    /// Arena slots unreachable from any live row (relocated or departed
    /// spans); compaction reclaims them once they dominate the pool.
    pool_garbage: usize,
    /// Ids of live nodes, kept dense for O(1) uniform choice.
    live: Vec<NodeId>,
    /// Position of each ever-allocated id inside `live`, or
    /// [`DEPARTED`]; doubles as the liveness flag.
    live_pos: Vec<u32>,
    edge_count: usize,
    /// Monotonic mutation counter; bumped by every structural change.
    epoch: u64,
}

impl Graph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with exact room for `n` nodes' per-id
    /// columns (the neighbor arena grows with the edges).
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            row_off: Vec::with_capacity(n),
            row_len: Vec::with_capacity(n),
            row_cap: Vec::with_capacity(n),
            pool: Vec::new(),
            pool_garbage: 0,
            live: Vec::with_capacity(n),
            live_pos: Vec::with_capacity(n),
            edge_count: 0,
            epoch: 0,
        }
    }

    /// The current mutation epoch: 0 for a fresh graph, bumped by every
    /// structural change (node add/remove, edge add/remove). Two reads
    /// returning the same epoch guarantee the topology did not change in
    /// between, so derived views captured at one epoch stay valid while
    /// the epoch holds.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Bumps the mutation epoch (one structural change is being applied).
    fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The neighbor row of `i` as an arena span (valid for live rows).
    #[inline]
    fn row(&self, i: usize) -> &[NodeId] {
        let off = self.row_off[i] as usize;
        &self.pool[off..off + self.row_len[i] as usize]
    }

    /// Appends `nb` to `id`'s row, relocating the row to the arena tail
    /// with doubled capacity when full. Amortized O(1).
    fn push_neighbor(&mut self, id: NodeId, nb: NodeId) -> Result<()> {
        let i = id.0 as usize;
        let len = self.row_len[i] as usize;
        let cap = self.row_cap[i] as usize;
        if len == cap {
            let new_cap = (cap * 2).max(4);
            let old_off = self.row_off[i] as usize;
            let new_off = self.pool.len();
            narrow(new_off + new_cap)?;
            self.pool.resize(new_off + new_cap, NodeId(u32::MAX));
            self.pool.copy_within(old_off..old_off + len, new_off);
            self.pool_garbage += cap;
            self.row_off[i] = narrow(new_off)?;
            self.row_cap[i] = narrow(new_cap)?;
        }
        let off = self.row_off[i] as usize;
        self.pool[off + len] = nb;
        self.row_len[i] += 1;
        self.maybe_compact();
        Ok(())
    }

    /// Swap-removes `nb` from `id`'s row; returns whether it was present.
    fn remove_neighbor(&mut self, id: NodeId, nb: NodeId) -> bool {
        let i = id.0 as usize;
        let off = self.row_off[i] as usize;
        let len = self.row_len[i] as usize;
        let row = &mut self.pool[off..off + len];
        match row.iter().position(|&x| x == nb) {
            Some(pos) => {
                row.swap(pos, len - 1);
                self.row_len[i] -= 1;
                true
            }
            None => false,
        }
    }

    /// Compacts the arena when garbage spans dominate it.
    fn maybe_compact(&mut self) {
        if self.pool.len() > COMPACT_MIN_POOL && self.pool_garbage > self.pool.len() / 2 {
            self.compact_pool();
        }
    }

    /// Rewrites the arena with live rows only (in id order, `cap = len`),
    /// reclaiming every garbage span. O(pool). Neighbor order within
    /// each row is preserved, so derived views and walks are unaffected.
    fn compact_pool(&mut self) {
        let mut new_pool = Vec::with_capacity(2 * self.edge_count);
        for i in 0..self.row_off.len() {
            let off = self.row_off[i] as usize;
            let len = self.row_len[i] as usize;
            // Empty rows (departed ones included) read as `(0, 0, 0)`;
            // other offsets stay below the current pool length, which
            // already fits a u32.
            self.row_off[i] = if len == 0 {
                0
            } else {
                u32::try_from(new_pool.len()).unwrap_or(u32::MAX)
            };
            self.row_cap[i] = self.row_len[i];
            new_pool.extend_from_slice(&self.pool[off..off + len]);
        }
        self.pool = new_pool;
        self.pool_garbage = 0;
    }

    /// Reclaims every garbage span of the arena and releases the slack
    /// capacity of the per-id columns and the live list, so
    /// [`Graph::heap_bytes`] measures the steady-state layout rather than
    /// growth headroom. Ids, neighbor order and liveness are unchanged;
    /// arena slots move, so the epoch is bumped.
    pub fn compact(&mut self) {
        self.compact_pool();
        self.row_off.shrink_to_fit();
        self.row_len.shrink_to_fit();
        self.row_cap.shrink_to_fit();
        self.live_pos.shrink_to_fit();
        self.live.shrink_to_fit();
        self.bump_epoch();
    }

    /// Lays out an exact CSR (`cap == len`, rows back-to-back in id
    /// order) from an edge list over the live nodes of an edgeless
    /// graph: O(V + E), zero arena slack, one pool allocation. Each
    /// row lists its neighbors in edge-list order — exactly the rows an
    /// [`Graph::add_edge`] loop over the same list would produce — and
    /// the epoch is bumped once.
    ///
    /// The caller must supply a *simple* edge list (no duplicates); they
    /// are not re-checked, to keep the load O(V + E).
    ///
    /// # Errors
    ///
    /// * [`NetError::NotEmpty`] if the graph already holds edges.
    /// * [`NetError::SelfLoop`] / [`NetError::UnknownNode`] on a bad edge.
    /// * [`NetError::CapacityExceeded`] if the arena outgrows u32 offsets.
    pub fn bulk_load_edges(&mut self, edges: &[(NodeId, NodeId)]) -> Result<()> {
        if self.edge_count != 0 {
            return Err(NetError::NotEmpty);
        }
        for &(a, b) in edges {
            if a == b {
                return Err(NetError::SelfLoop(a));
            }
            if !self.contains(a) {
                return Err(NetError::UnknownNode(a));
            }
            if !self.contains(b) {
                return Err(NetError::UnknownNode(b));
            }
        }
        narrow(edges.len().saturating_mul(2))?;
        // Degrees, then prefix-sum offsets with cap == len.
        self.row_cap.iter_mut().for_each(|c| *c = 0);
        for &(a, b) in edges {
            self.row_cap[a.0 as usize] += 1;
            self.row_cap[b.0 as usize] += 1;
        }
        let mut off = 0u32;
        for (row_off, (row_len, &cap)) in self
            .row_off
            .iter_mut()
            .zip(self.row_len.iter_mut().zip(&self.row_cap))
        {
            *row_off = if cap == 0 { 0 } else { off };
            *row_len = 0;
            off += cap;
        }
        // Fill in edge order.
        let mut pool = vec![NodeId(u32::MAX); 2 * edges.len()];
        for &(a, b) in edges {
            for (v, nb) in [(a, b), (b, a)] {
                let i = v.0 as usize;
                pool[(self.row_off[i] + self.row_len[i]) as usize] = nb;
                self.row_len[i] += 1;
            }
        }
        self.pool = pool;
        self.pool_garbage = 0;
        self.edge_count = edges.len();
        self.bump_epoch();
        Ok(())
    }

    /// Adds a new node and returns its id. Ids are never reused.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(u32::try_from(self.row_off.len()).unwrap_or(u32::MAX));
        self.row_off.push(0);
        self.row_len.push(0);
        self.row_cap.push(0);
        self.live_pos
            .push(u32::try_from(self.live.len()).unwrap_or(DEPARTED));
        self.live.push(id);
        self.bump_epoch();
        id
    }

    /// Removes a node and all its incident edges.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if the node does not exist or already left.
    pub fn remove_node(&mut self, id: NodeId) -> Result<()> {
        if !self.contains(id) {
            return Err(NetError::UnknownNode(id));
        }
        let i = id.0 as usize;
        let neighbors: Vec<NodeId> = self.row(i).to_vec();
        // Remove from the dense live list by swap-remove. The list is
        // non-empty here (the node being removed is in it).
        let pos = self.live_pos[i];
        self.live_pos[i] = DEPARTED;
        if let Some(last) = self.live.pop() {
            if last != id {
                self.live[pos as usize] = last;
                self.live_pos[last.0 as usize] = pos;
            }
        }
        self.pool_garbage += self.row_cap[i] as usize;
        self.row_off[i] = 0;
        self.row_len[i] = 0;
        self.row_cap[i] = 0;
        self.edge_count -= neighbors.len();
        self.bump_epoch();
        for nb in neighbors {
            if self.contains(nb) {
                self.remove_neighbor(nb, id);
            }
        }
        self.maybe_compact();
        Ok(())
    }

    /// Whether `id` refers to a live node.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.live_pos
            .get(id.0 as usize)
            .is_some_and(|&pos| pos != DEPARTED)
    }

    /// Adds the undirected edge `{a, b}`. Adding an existing edge is a
    /// no-op returning `Ok(false)`; a new edge returns `Ok(true)`.
    ///
    /// # Errors
    ///
    /// * [`NetError::SelfLoop`] if `a == b`.
    /// * [`NetError::UnknownNode`] if either endpoint is not live.
    /// * [`NetError::CapacityExceeded`] if the arena outgrows u32 offsets.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool> {
        if a == b {
            return Err(NetError::SelfLoop(a));
        }
        if !self.contains(a) {
            return Err(NetError::UnknownNode(a));
        }
        if !self.contains(b) {
            return Err(NetError::UnknownNode(b));
        }
        if self.neighbors(a).contains(&b) {
            return Ok(false);
        }
        self.push_neighbor(a, b)?;
        self.push_neighbor(b, a)?;
        self.edge_count += 1;
        self.bump_epoch();
        Ok(true)
    }

    /// Removes the undirected edge `{a, b}` if present; returns whether an
    /// edge was removed.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if either endpoint is not live.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool> {
        if !self.contains(a) {
            return Err(NetError::UnknownNode(a));
        }
        if !self.contains(b) {
            return Err(NetError::UnknownNode(b));
        }
        if !self.remove_neighbor(a, b) {
            return Ok(false);
        }
        self.remove_neighbor(b, a);
        self.edge_count -= 1;
        self.bump_epoch();
        Ok(true)
    }

    /// Whether the edge `{a, b}` exists.
    #[must_use]
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.contains(a) && self.neighbors(a).contains(&b)
    }

    /// The neighbor list of `id` (empty slice for unknown nodes).
    #[must_use]
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        if self.contains(id) {
            self.row(id.0 as usize)
        } else {
            &[]
        }
    }

    /// The neighbor list of `id` together with the arena slot of its
    /// first entry, so `slot + k` names neighbor `k`'s slot in the shared
    /// neighbor arena — the index of tables kept beside the graph, valid
    /// while [`Graph::epoch`] holds. `(0, &[])` for unknown nodes.
    /// xtask: no-alloc
    #[must_use]
    #[inline]
    pub fn arena_row(&self, id: NodeId) -> (usize, &[NodeId]) {
        // Departed rows are zeroed on removal, so no liveness check is
        // needed: they read as `(0, &[])` like unknown ids.
        let i = id.0 as usize;
        match (self.row_off.get(i), self.row_len.get(i)) {
            (Some(&off), Some(&len)) => {
                let (off, len) = (off as usize, len as usize);
                (off, self.pool.get(off..off + len).unwrap_or(&[]))
            }
            _ => (0, &[]),
        }
    }

    /// Degree of `id` (0 for unknown nodes).
    #[must_use]
    pub fn degree(&self, id: NodeId) -> usize {
        if self.contains(id) {
            self.row_len[id.0 as usize] as usize
        } else {
            0
        }
    }

    /// Number of live nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.live.len()
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether the graph has no live nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Iterator over live node ids (arbitrary but deterministic order).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.live.iter().copied()
    }

    /// Uniformly random live node.
    ///
    /// # Errors
    ///
    /// [`NetError::EmptyGraph`] if there are no live nodes.
    pub fn random_node<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<NodeId> {
        if self.live.is_empty() {
            return Err(NetError::EmptyGraph);
        }
        Ok(self.live[rng.gen_range(0..self.live.len())])
    }

    /// BFS hop distances from `source` to every reachable node, as
    /// `(node, distance)` pairs (including `(source, 0)`).
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if `source` is not live.
    pub fn bfs_distances(&self, source: NodeId) -> Result<Vec<(NodeId, u32)>> {
        if !self.contains(source) {
            return Err(NetError::UnknownNode(source));
        }
        let mut dist: Vec<Option<u32>> = vec![None; self.row_off.len()];
        dist[source.0 as usize] = Some(0);
        let mut queue = std::collections::VecDeque::from([source]);
        let mut out = Vec::with_capacity(self.live.len());
        while let Some(v) = queue.pop_front() {
            // Enqueued nodes always carry a distance; skip defensively.
            let Some(d) = dist[v.0 as usize] else {
                continue;
            };
            out.push((v, d));
            for &nb in self.neighbors(v) {
                let slot = &mut dist[nb.0 as usize];
                if slot.is_none() {
                    *slot = Some(d + 1);
                    queue.push_back(nb);
                }
            }
        }
        Ok(out)
    }

    /// Whether every live node is reachable from every other (a connected
    /// graph; the empty graph counts as connected).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        match self.live.first() {
            None => true,
            Some(&start) => {
                let reached = self.bfs_distances(start).map(|d| d.len()).unwrap_or(0);
                reached == self.live.len()
            }
        }
    }

    /// The node set of the largest connected component.
    #[must_use]
    pub fn largest_component(&self) -> Vec<NodeId> {
        let mut seen = vec![false; self.row_off.len()];
        let mut best: Vec<NodeId> = Vec::new();
        for &start in &self.live {
            if seen[start.0 as usize] {
                continue;
            }
            let mut component = Vec::new();
            let mut queue = std::collections::VecDeque::from([start]);
            seen[start.0 as usize] = true;
            while let Some(v) = queue.pop_front() {
                component.push(v);
                for &nb in self.neighbors(v) {
                    if !seen[nb.0 as usize] {
                        seen[nb.0 as usize] = true;
                        queue.push_back(nb);
                    }
                }
            }
            if component.len() > best.len() {
                best = component;
            }
        }
        best
    }

    /// True if the graph is bipartite (2-colourable). A bipartite overlay
    /// would make the plain random walk periodic — the reason the
    /// Metropolis walk carries the laziness factor ½ (paper Theorem 2).
    #[must_use]
    pub fn is_bipartite(&self) -> bool {
        let mut color: Vec<Option<bool>> = vec![None; self.row_off.len()];
        for &start in &self.live {
            if color[start.0 as usize].is_some() {
                continue;
            }
            color[start.0 as usize] = Some(false);
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(v) = queue.pop_front() {
                // Enqueued nodes are always coloured; skip defensively.
                let Some(c) = color[v.0 as usize] else {
                    continue;
                };
                for &nb in self.neighbors(v) {
                    match color[nb.0 as usize] {
                        None => {
                            color[nb.0 as usize] = Some(!c);
                            queue.push_back(nb);
                        }
                        Some(nc) if nc == c => return false,
                        Some(_) => {}
                    }
                }
            }
        }
        true
    }

    /// Upper bound on node ids ever allocated (for building dense
    /// id-indexed side tables).
    #[must_use]
    pub fn id_upper_bound(&self) -> usize {
        self.row_off.len()
    }

    /// Heap bytes held by the graph: the capacity of every column (the
    /// neighbor arena, the per-id row and live-position columns, and the
    /// live list), slack included. Benchmarks divide it by the live node
    /// count for resident bytes/node.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.pool.capacity() * size_of::<NodeId>()
            + (self.row_off.capacity() + self.row_len.capacity() + self.row_cap.capacity())
                * size_of::<u32>()
            + self.live_pos.capacity() * size_of::<u32>()
            + self.live.capacity() * size_of::<NodeId>()
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

    fn triangle() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        g.add_edge(c, a).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn empty_graph_properties() {
        let g = Graph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_connected());
        assert!(g.is_bipartite());
        assert!(g.largest_component().is_empty());
    }

    #[test]
    fn add_nodes_and_edges() {
        let (g, a, b, c) = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(a), 2);
        assert!(g.has_edge(a, b));
        assert!(g.has_edge(b, a));
        assert!(!g.is_bipartite());
        assert!(g.is_connected());
        let _ = c;
    }

    #[test]
    fn duplicate_edge_is_noop() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert!(g.add_edge(a, b).unwrap());
        assert!(!g.add_edge(a, b).unwrap());
        assert!(!g.add_edge(b, a).unwrap());
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(a), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Graph::new();
        let a = g.add_node();
        assert_eq!(g.add_edge(a, a).unwrap_err(), NetError::SelfLoop(a));
    }

    #[test]
    fn edge_to_unknown_node_rejected() {
        let mut g = Graph::new();
        let a = g.add_node();
        let ghost = NodeId(99);
        assert_eq!(
            g.add_edge(a, ghost).unwrap_err(),
            NetError::UnknownNode(ghost)
        );
        assert_eq!(
            g.add_edge(ghost, a).unwrap_err(),
            NetError::UnknownNode(ghost)
        );
    }

    #[test]
    fn remove_edge() {
        let (mut g, a, b, _) = triangle();
        assert!(g.remove_edge(a, b).unwrap());
        assert!(!g.remove_edge(a, b).unwrap());
        assert_eq!(g.edge_count(), 2);
        assert!(!g.has_edge(a, b));
        assert_eq!(g.degree(a), 1);
    }

    #[test]
    fn remove_node_cleans_incident_edges() {
        let (mut g, a, b, c) = triangle();
        g.remove_node(a).unwrap();
        assert!(!g.contains(a));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(b), 1);
        assert_eq!(g.degree(c), 1);
        assert!(g.has_edge(b, c));
        // Removing again fails.
        assert_eq!(g.remove_node(a).unwrap_err(), NetError::UnknownNode(a));
    }

    #[test]
    fn node_ids_are_not_reused() {
        let mut g = Graph::new();
        let a = g.add_node();
        g.remove_node(a).unwrap();
        let b = g.add_node();
        assert_ne!(a, b);
        assert!(!g.contains(a));
        assert!(g.contains(b));
    }

    #[test]
    fn bfs_distances_on_path() {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..5).map(|_| g.add_node()).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        let mut d = g.bfs_distances(ids[0]).unwrap();
        d.sort_by_key(|&(id, _)| id);
        for (i, &(id, dist)) in d.iter().enumerate() {
            assert_eq!(id, ids[i]);
            assert_eq!(dist, i as u32);
        }
    }

    #[test]
    fn connectivity_and_components() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let d = g.add_node();
        g.add_edge(a, b).unwrap();
        g.add_edge(c, d).unwrap();
        assert!(!g.is_connected());
        assert_eq!(g.largest_component().len(), 2);
        g.add_edge(b, c).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.largest_component().len(), 4);
    }

    #[test]
    fn bipartite_detection() {
        // Path graphs are bipartite, odd cycles are not.
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..4).map(|_| g.add_node()).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        assert!(g.is_bipartite());
        // Close into an even cycle: still bipartite.
        g.add_edge(ids[3], ids[0]).unwrap();
        assert!(g.is_bipartite());
        // Add a chord making an odd cycle.
        g.add_edge(ids[0], ids[2]).unwrap();
        assert!(!g.is_bipartite());
    }

    #[test]
    fn random_node_is_live_and_covers_all() {
        let (mut g, a, _, _) = triangle();
        g.remove_node(a).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let v = g.random_node(&mut rng).unwrap();
            assert!(g.contains(v));
            assert_ne!(v, a);
            seen.insert(v);
        }
        assert_eq!(seen.len(), 2, "both live nodes should be drawn");
    }

    #[test]
    fn random_node_on_empty_graph_errors() {
        let g = Graph::new();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        assert_eq!(g.random_node(&mut rng).unwrap_err(), NetError::EmptyGraph);
    }

    #[test]
    fn epoch_advances_only_on_structural_change() {
        let mut g = Graph::new();
        assert_eq!(g.epoch(), 0);
        let a = g.add_node();
        let b = g.add_node();
        let e = g.epoch();
        assert_eq!(e, 2);
        g.add_edge(a, b).unwrap();
        assert_eq!(g.epoch(), e + 1);
        // Duplicate edge is a no-op: no bump.
        g.add_edge(a, b).unwrap();
        assert_eq!(g.epoch(), e + 1);
        // Removing an absent edge is a no-op: no bump.
        let c = g.add_node();
        let after_c = g.epoch();
        g.remove_edge(a, c).unwrap();
        assert_eq!(g.epoch(), after_c);
        g.remove_edge(a, b).unwrap();
        assert_eq!(g.epoch(), after_c + 1);
        g.remove_node(a).unwrap();
        assert_eq!(g.epoch(), after_c + 2);
        // Read-only queries never bump.
        let _ = g.degree(b);
        let _ = g.is_connected();
        assert_eq!(g.epoch(), after_c + 2);
    }

    #[test]
    fn arena_row_names_the_slots_of_the_neighbor_list() {
        let (mut g, a, b, c) = triangle();
        for v in [a, b, c] {
            let (start, row) = g.arena_row(v);
            assert_eq!(row, g.neighbors(v));
            assert_eq!(&g.pool[start..start + row.len()], row);
        }
        g.remove_node(a).unwrap();
        assert_eq!(g.arena_row(a), (0, &[][..]));
        assert_eq!(g.arena_row(NodeId(99)), (0, &[][..]));
    }

    #[test]
    fn arena_relocation_and_compaction_preserve_adjacency() {
        // Grow a hub far past the initial row capacity (forcing repeated
        // relocations), delete enough rows to trigger compaction, and
        // check the surviving adjacency is exactly right throughout.
        let mut g = Graph::new();
        let hub = g.add_node();
        let mut spokes = Vec::new();
        for _ in 0..600 {
            let s = g.add_node();
            g.add_edge(hub, s).unwrap();
            spokes.push(s);
        }
        assert_eq!(g.degree(hub), 600);
        // Appends preserve insertion order.
        assert_eq!(g.neighbors(hub).to_vec(), spokes);
        // Remove most spokes: garbage accumulates, compaction fires.
        for s in spokes.iter().skip(100) {
            g.remove_node(*s).unwrap();
        }
        assert_eq!(g.degree(hub), 100);
        for s in &spokes[..100] {
            assert!(g.has_edge(hub, *s));
            assert_eq!(g.neighbors(*s), &[hub]);
        }
        // Handshake lemma still holds.
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn bulk_load_matches_add_edge_and_validates() {
        let edges = [(0u32, 1u32), (1, 2), (2, 0), (0, 3)].map(|(a, b)| (NodeId(a), NodeId(b)));
        let mut bulk = Graph::with_capacity(5);
        let mut inc = Graph::new();
        for _ in 0..5 {
            bulk.add_node();
            inc.add_node();
        }
        bulk.bulk_load_edges(&edges).unwrap();
        for &(a, b) in &edges {
            inc.add_edge(a, b).unwrap();
        }
        for v in inc.nodes() {
            assert_eq!(bulk.neighbors(v), inc.neighbors(v), "row {v}");
        }
        assert_eq!(bulk.edge_count(), inc.edge_count());
        // Exact CSR: no slack, isolated rows read as empty.
        assert_eq!(bulk.pool.len(), 2 * edges.len());
        assert_eq!(bulk.arena_row(NodeId(4)), (0, &[][..]));
        assert_eq!(
            bulk.bulk_load_edges(&edges).unwrap_err(),
            NetError::NotEmpty
        );
        let mut g = Graph::new();
        let a = g.add_node();
        assert_eq!(
            g.bulk_load_edges(&[(a, a)]).unwrap_err(),
            NetError::SelfLoop(a)
        );
        assert_eq!(
            g.bulk_load_edges(&[(a, NodeId(9))]).unwrap_err(),
            NetError::UnknownNode(NodeId(9))
        );
    }

    #[test]
    fn heap_bytes_counts_every_column_and_compact_releases_slack() {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..100).map(|_| g.add_node()).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        for &v in ids.iter().step_by(3) {
            g.remove_node(v).unwrap();
        }
        let exact = |g: &Graph| {
            // Three row columns plus live_pos per ever-allocated id, one
            // live-list entry per live node, one arena slot per endpoint.
            16 * g.id_upper_bound() + 4 * g.node_count() + 4 * 2 * g.edge_count()
        };
        assert!(g.heap_bytes() > exact(&g), "growth slack is counted");
        let epoch = g.epoch();
        g.compact();
        assert_eq!(g.heap_bytes(), exact(&g));
        assert!(g.epoch() > epoch, "slots moved");
        assert_eq!(g.node_count(), 66);
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        assert_eq!(degree_sum, 2 * g.edge_count());
        // The compacted graph keeps growing normally.
        let v = g.add_node();
        g.add_edge(v, ids[1]).unwrap();
        assert!(g.has_edge(ids[1], v));
    }

    #[test]
    fn stress_add_remove_keeps_invariants() {
        let mut g = Graph::new();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        let mut ids = Vec::new();
        for _ in 0..200 {
            ids.push(g.add_node());
        }
        use rand::Rng;
        for _ in 0..2000 {
            let a = ids[rng.gen_range(0..ids.len())];
            let b = ids[rng.gen_range(0..ids.len())];
            if a != b && g.contains(a) && g.contains(b) {
                let _ = g.add_edge(a, b);
            }
        }
        // Remove half the nodes.
        for id in ids.iter().step_by(2) {
            if g.contains(*id) {
                g.remove_node(*id).unwrap();
            }
        }
        // Invariant: handshake lemma.
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        assert_eq!(degree_sum, 2 * g.edge_count());
        // Invariant: all neighbor references live and symmetric.
        for v in g.nodes() {
            for &nb in g.neighbors(v) {
                assert!(g.contains(nb));
                assert!(g.neighbors(nb).contains(&v));
            }
        }
    }
}
