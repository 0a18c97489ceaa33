//! The horizontally partitioned peer-to-peer database.
//!
//! A single relation `R = {u₁, …, u_N}` whose disjoint fragments live at
//! overlay nodes (paper §II). Fragments appear when a node joins with
//! content and disappear — tuples and all — when it leaves. The struct also
//! exposes *oracle* exact aggregates; the real system can never compute
//! these (that is the whole point of Digest), but the simulator uses them
//! as ground truth to verify precision guarantees.

use crate::error::DbError;
use crate::expr::Expr;
use crate::predicate::Predicate;
use crate::store::LocalStore;
use crate::tuple::{Schema, Tuple, TupleHandle};
use crate::Result;
use digest_net::NodeId;
use rand::Rng;

/// The peer-to-peer database: schema + per-node fragments.
#[derive(Debug, Clone)]
pub struct P2PDatabase {
    schema: Schema,
    /// Fragment per node id (`None` = node unknown or departed).
    fragments: Vec<Option<LocalStore>>,
    total_tuples: usize,
}

impl P2PDatabase {
    /// Creates an empty database over the given schema.
    #[must_use]
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            fragments: Vec::new(),
            total_tuples: 0,
        }
    }

    /// The relation's schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Registers a node (idempotent): the node now holds an (initially
    /// empty) fragment.
    pub fn register_node(&mut self, node: NodeId) {
        let idx = node.0 as usize;
        if idx >= self.fragments.len() {
            self.fragments.resize_with(idx + 1, || None);
        }
        if self.fragments[idx].is_none() {
            self.fragments[idx] = Some(LocalStore::new());
        }
    }

    /// Whether the node currently holds a fragment.
    #[must_use]
    pub fn has_node(&self, node: NodeId) -> bool {
        matches!(self.fragments.get(node.0 as usize), Some(Some(_)))
    }

    /// Removes a node's fragment (the node left), returning the number of
    /// tuples that vanished with it.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownNode`] if the node holds no fragment.
    pub fn remove_node(&mut self, node: NodeId) -> Result<usize> {
        let store = self
            .fragments
            .get_mut(node.0 as usize)
            .and_then(Option::take)
            .ok_or(DbError::UnknownNode(node))?;
        self.total_tuples -= store.len();
        Ok(store.len())
    }

    /// Inserts a tuple at `node`.
    ///
    /// # Errors
    ///
    /// * [`DbError::UnknownNode`] if the node holds no fragment.
    /// * [`DbError::ArityMismatch`] if the tuple does not fit the schema.
    pub fn insert(&mut self, node: NodeId, tuple: Tuple) -> Result<TupleHandle> {
        if tuple.arity() != self.schema.arity() {
            return Err(DbError::ArityMismatch {
                got: tuple.arity(),
                expected: self.schema.arity(),
            });
        }
        let store = self.store_mut(node)?;
        let (slot, generation) = store.insert(tuple);
        self.total_tuples += 1;
        Ok(TupleHandle {
            node,
            slot,
            generation,
        })
    }

    /// Deletes the tuple a handle points to; returns whether anything was
    /// deleted (`false` = the handle was already stale).
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownNode`] if the node holds no fragment.
    pub fn delete(&mut self, handle: TupleHandle) -> Result<bool> {
        let store = self.store_mut(handle.node)?;
        let deleted = store.delete(handle.slot, handle.generation);
        if deleted {
            self.total_tuples -= 1;
        }
        Ok(deleted)
    }

    /// Reads the tuple behind a handle.
    ///
    /// # Errors
    ///
    /// * [`DbError::UnknownNode`] if the node departed.
    /// * [`DbError::StaleHandle`] if the tuple was deleted.
    pub fn read(&self, handle: TupleHandle) -> Result<&Tuple> {
        let store = self.store(handle.node)?;
        store
            .get(handle.slot, handle.generation)
            .ok_or(DbError::StaleHandle)
    }

    /// Overwrites the attribute values of the tuple behind a handle (an
    /// autonomous local update).
    ///
    /// # Errors
    ///
    /// * [`DbError::UnknownNode`] / [`DbError::StaleHandle`] as for
    ///   [`P2PDatabase::read`].
    /// * [`DbError::ArityMismatch`] if `values` does not fit the schema.
    pub fn update(&mut self, handle: TupleHandle, values: &[f64]) -> Result<()> {
        if values.len() != self.schema.arity() {
            return Err(DbError::ArityMismatch {
                got: values.len(),
                expected: self.schema.arity(),
            });
        }
        let store = self.store_mut(handle.node)?;
        let tuple = store
            .get_mut(handle.slot, handle.generation)
            .ok_or(DbError::StaleHandle)?;
        tuple.values_mut().copy_from_slice(values);
        digest_telemetry::registry::DB_UPDATES.inc();
        Ok(())
    }

    /// Content size `m_v` of a node (0 for unknown nodes — a weight
    /// function must be total over `V`).
    #[must_use]
    pub fn content_size(&self, node: NodeId) -> usize {
        self.fragments
            .get(node.0 as usize)
            .and_then(Option::as_ref)
            .map_or(0, LocalStore::len)
    }

    /// Total number of tuples `N` across all fragments.
    #[must_use]
    pub fn total_tuples(&self) -> usize {
        self.total_tuples
    }

    /// Uniformly samples a tuple from `node`'s local fragment — the local
    /// (second) stage of two-stage sampling.
    #[must_use]
    pub fn sample_local<R: Rng + ?Sized>(
        &self,
        node: NodeId,
        rng: &mut R,
    ) -> Option<(TupleHandle, &Tuple)> {
        let store = self.fragments.get(node.0 as usize)?.as_ref()?;
        let (slot, generation, tuple) = store.sample_uniform(rng)?;
        digest_telemetry::registry::DB_LOCAL_SAMPLES.inc();
        Some((
            TupleHandle {
                node,
                slot,
                generation,
            },
            tuple,
        ))
    }

    /// Iterates over all `(handle, tuple)` pairs (oracle-only: a real peer
    /// cannot enumerate the database).
    pub fn iter(&self) -> impl Iterator<Item = (TupleHandle, &Tuple)> + '_ {
        self.fragments.iter().enumerate().flat_map(|(idx, frag)| {
            let node = NodeId(u32::try_from(idx).unwrap_or(u32::MAX));
            frag.iter().flat_map(move |store| {
                store.iter().map(move |(slot, generation, tuple)| {
                    (
                        TupleHandle {
                            node,
                            slot,
                            generation,
                        },
                        tuple,
                    )
                })
            })
        })
    }

    /// Iterates over `node`'s own fragment in live-slot order (empty for
    /// unknown nodes). Unlike [`P2PDatabase::iter`] this is a legitimate
    /// peer operation — a node enumerating its local fragment — and is
    /// what the sketch sweep estimator folds per-node sketch mass from.
    pub fn iter_node(&self, node: NodeId) -> impl Iterator<Item = &Tuple> + '_ {
        self.fragments
            .get(node.0 as usize)
            .and_then(Option::as_ref)
            .into_iter()
            .flat_map(|store| store.iter().map(|(_, _, tuple)| tuple))
    }

    /// Nodes currently holding fragments.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.fragments
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_some())
            .map(|(idx, _)| NodeId(u32::try_from(idx).unwrap_or(u32::MAX)))
    }

    /// Oracle: exact `AVG(expression)` over the whole relation.
    ///
    /// # Errors
    ///
    /// [`DbError::EmptyRelation`] over an empty relation, or any
    /// expression-evaluation error.
    pub fn exact_avg(&self, expr: &Expr) -> Result<f64> {
        if self.total_tuples == 0 {
            return Err(DbError::EmptyRelation);
        }
        Ok(self.exact_sum(expr)? / self.total_tuples as f64)
    }

    /// Oracle: exact `SUM(expression)` over the whole relation (0 when
    /// empty).
    ///
    /// # Errors
    ///
    /// Any expression-evaluation error.
    pub fn exact_sum(&self, expr: &Expr) -> Result<f64> {
        let mut sum = 0.0;
        for (_, tuple) in self.iter() {
            sum += expr.eval(tuple)?;
        }
        Ok(sum)
    }

    /// Oracle: exact `COUNT(*)` over the whole relation.
    #[must_use]
    pub fn exact_count(&self) -> usize {
        self.total_tuples
    }

    /// Oracle: exact `AVG(expression) WHERE predicate`.
    ///
    /// # Errors
    ///
    /// [`DbError::EmptyRelation`] if no tuple qualifies, or any
    /// expression/predicate evaluation error.
    pub fn exact_avg_where(&self, expr: &Expr, predicate: &Predicate) -> Result<f64> {
        let (sum, count) = self.sum_count_where(expr, predicate)?;
        if count == 0 {
            return Err(DbError::EmptyRelation);
        }
        Ok(sum / count as f64)
    }

    /// Oracle: exact `SUM(expression) WHERE predicate` (0 when nothing
    /// qualifies).
    ///
    /// # Errors
    ///
    /// Any expression/predicate evaluation error.
    pub fn exact_sum_where(&self, expr: &Expr, predicate: &Predicate) -> Result<f64> {
        Ok(self.sum_count_where(expr, predicate)?.0)
    }

    /// Oracle: exact `COUNT(*) WHERE predicate`.
    ///
    /// # Errors
    ///
    /// Any predicate evaluation error.
    pub fn exact_count_where(&self, predicate: &Predicate) -> Result<usize> {
        let mut count = 0;
        for (_, tuple) in self.iter() {
            if predicate.eval(tuple)? {
                count += 1;
            }
        }
        Ok(count)
    }

    /// Oracle: `(SUM(expression), COUNT(*)) WHERE predicate` in one pass,
    /// summing in [`P2PDatabase::iter`] order — the pass every
    /// `AVG`/`SUM`/`COUNT` ground truth reads.
    ///
    /// # Errors
    ///
    /// Any expression/predicate evaluation error.
    /// xtask: no-alloc
    pub fn sum_count_where(&self, expr: &Expr, predicate: &Predicate) -> Result<(f64, usize)> {
        let mut sum = 0.0;
        let mut count = 0usize;
        for (_, tuple) in self.iter() {
            if predicate.eval(tuple)? {
                sum += expr.eval(tuple)?;
                count += 1;
            }
        }
        Ok((sum, count))
    }

    fn store(&self, node: NodeId) -> Result<&LocalStore> {
        self.fragments
            .get(node.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(DbError::UnknownNode(node))
    }

    fn store_mut(&mut self, node: NodeId) -> Result<&mut LocalStore> {
        self.fragments
            .get_mut(node.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(DbError::UnknownNode(node))
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

    fn db_with_nodes(n: u32) -> P2PDatabase {
        let mut db = P2PDatabase::new(Schema::single("a"));
        for i in 0..n {
            db.register_node(NodeId(i));
        }
        db
    }

    #[test]
    fn register_is_idempotent() {
        let mut db = db_with_nodes(1);
        let h = db.insert(NodeId(0), Tuple::single(1.0)).unwrap();
        db.register_node(NodeId(0));
        // Re-registering must not wipe the fragment.
        assert_eq!(db.read(h).unwrap().value(0).unwrap(), 1.0);
        assert_eq!(db.total_tuples(), 1);
    }

    #[test]
    fn insert_read_update_delete() {
        let mut db = db_with_nodes(2);
        let h = db.insert(NodeId(1), Tuple::single(10.0)).unwrap();
        assert_eq!(db.read(h).unwrap().value(0).unwrap(), 10.0);
        db.update(h, &[11.0]).unwrap();
        assert_eq!(db.read(h).unwrap().value(0).unwrap(), 11.0);
        assert!(db.delete(h).unwrap());
        assert_eq!(db.read(h).unwrap_err(), DbError::StaleHandle);
        assert!(!db.delete(h).unwrap());
        assert_eq!(db.total_tuples(), 0);
    }

    #[test]
    fn insert_validates_arity_and_node() {
        let mut db = db_with_nodes(1);
        assert!(matches!(
            db.insert(NodeId(0), Tuple::new(vec![1.0, 2.0])),
            Err(DbError::ArityMismatch { .. })
        ));
        assert!(matches!(
            db.insert(NodeId(7), Tuple::single(1.0)),
            Err(DbError::UnknownNode(_))
        ));
    }

    #[test]
    fn update_validates_arity() {
        let mut db = db_with_nodes(1);
        let h = db.insert(NodeId(0), Tuple::single(1.0)).unwrap();
        assert!(matches!(
            db.update(h, &[1.0, 2.0]),
            Err(DbError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn node_departure_removes_fragment() {
        let mut db = db_with_nodes(2);
        let h0 = db.insert(NodeId(0), Tuple::single(1.0)).unwrap();
        db.insert(NodeId(0), Tuple::single(2.0)).unwrap();
        db.insert(NodeId(1), Tuple::single(3.0)).unwrap();
        assert_eq!(db.remove_node(NodeId(0)).unwrap(), 2);
        assert_eq!(db.total_tuples(), 1);
        assert!(!db.has_node(NodeId(0)));
        assert_eq!(db.read(h0).unwrap_err(), DbError::UnknownNode(NodeId(0)));
        assert!(db.remove_node(NodeId(0)).is_err());
    }

    #[test]
    fn content_size_tracks_m_v() {
        let mut db = db_with_nodes(2);
        assert_eq!(db.content_size(NodeId(0)), 0);
        db.insert(NodeId(0), Tuple::single(1.0)).unwrap();
        db.insert(NodeId(0), Tuple::single(2.0)).unwrap();
        assert_eq!(db.content_size(NodeId(0)), 2);
        assert_eq!(db.content_size(NodeId(1)), 0);
        assert_eq!(db.content_size(NodeId(42)), 0, "unknown node has size 0");
    }

    #[test]
    fn exact_aggregates() {
        let mut db = db_with_nodes(3);
        for (node, v) in [(0, 1.0), (0, 2.0), (1, 3.0), (2, 6.0)] {
            db.insert(NodeId(node), Tuple::single(v)).unwrap();
        }
        let expr = Expr::first_attr(db.schema());
        assert_eq!(db.exact_count(), 4);
        assert!((db.exact_sum(&expr).unwrap() - 12.0).abs() < 1e-12);
        assert!((db.exact_avg(&expr).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn exact_avg_of_empty_relation_errors() {
        let db = db_with_nodes(1);
        let expr = Expr::first_attr(db.schema());
        assert_eq!(db.exact_avg(&expr).unwrap_err(), DbError::EmptyRelation);
        assert_eq!(db.exact_sum(&expr).unwrap(), 0.0);
    }

    #[test]
    fn local_sampling_is_uniform_within_node() {
        let mut db = db_with_nodes(1);
        for i in 0..5 {
            db.insert(NodeId(0), Tuple::single(i as f64)).unwrap();
        }
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut counts = [0usize; 5];
        for _ in 0..5000 {
            let (_, t) = db.sample_local(NodeId(0), &mut rng).unwrap();
            counts[t.value(0).unwrap() as usize] += 1;
        }
        for &c in &counts {
            assert!(c > 800 && c < 1200, "counts = {counts:?}");
        }
    }

    #[test]
    fn sample_local_empty_or_unknown_is_none() {
        let db = db_with_nodes(1);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(db.sample_local(NodeId(0), &mut rng).is_none());
        assert!(db.sample_local(NodeId(9), &mut rng).is_none());
    }

    #[test]
    fn iter_enumerates_everything_once() {
        let mut db = db_with_nodes(3);
        let mut expected = Vec::new();
        for (node, v) in [(0u32, 1.0), (1, 2.0), (1, 3.0), (2, 4.0)] {
            db.insert(NodeId(node), Tuple::single(v)).unwrap();
            expected.push(v);
        }
        let mut seen: Vec<f64> = db.iter().map(|(_, t)| t.value(0).unwrap()).collect();
        seen.sort_by(f64::total_cmp);
        assert_eq!(seen, expected);
    }

    #[test]
    fn nodes_lists_fragment_holders() {
        let mut db = db_with_nodes(3);
        db.remove_node(NodeId(1)).unwrap();
        let nodes: Vec<NodeId> = db.nodes().collect();
        assert_eq!(nodes, vec![NodeId(0), NodeId(2)]);
    }
}
