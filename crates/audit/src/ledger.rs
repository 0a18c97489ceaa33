//! The message-cost ledger: what the push baselines would have spent.
//!
//! The paper's evaluation (§VI-B3) compares Digest against two push-based
//! comparators: `ALL`, where every source ships every value change to the
//! query origin, and `ALL+FILTER`, where each source holds an Olston-style
//! adaptive filter of width `2ε` and ships only changes that escape it.
//! Running those baselines as separate simulations introduces workload
//! divergence; the ledger instead *re-accounts* the same run — it watches
//! the oracle-visible database each tick and tallies exactly the messages
//! each baseline would have sent on the identical data stream, giving a
//! per-query cost comparison with zero cross-run noise.
//!
//! # Filter table
//!
//! Filter state lives in one dense table indexed by `(node, slot)`, the
//! same layout as [`P2PDatabase`]'s fragments and local-store slots, so a
//! tick is one pass over the database with an O(1) lookup per tuple and no
//! per-tick rebuild. Each entry records the slot generation it belongs to
//! and the observe that last stamped it. A tuple carries its filter state
//! only if its entry was stamped on the *previous* observe under the same
//! generation; anything else — a departed tuple, a tuple whose predicate
//! was false last tick, a reused slot — counts as new and ships under both
//! baselines. Stale entries are never cleared, just ignored, so once the
//! table has grown to the database's extent an observe allocates nothing.

use digest_db::{Expr, P2PDatabase, Predicate, TupleHandle};

/// Per-tuple filter state, one per `(node, slot)`.
#[derive(Debug, Clone, Copy, Default)]
struct FilterEntry {
    /// Slot generation of the tuple the state belongs to.
    generation: u32,
    /// The observe (1-based tick count) that last stamped the entry;
    /// `0` = never.
    seen: u64,
    /// The value as of the previous tick (change detection for `ALL`).
    last: f64,
    /// The value last shipped through the `ALL+FILTER` filter (the
    /// filter's centre; escape when `|v − shipped| > ε`).
    shipped: f64,
}

/// Totals the ledger has accumulated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerTotals {
    /// Messages the `ALL` baseline would have sent.
    pub all_messages: u64,
    /// Messages the `ALL+FILTER` baseline would have sent.
    pub filter_messages: u64,
    /// Ticks observed.
    pub ticks: u64,
}

/// Same-run message accounting for the `ALL` / `ALL+FILTER` baselines.
#[derive(Debug)]
pub struct MessageLedger {
    epsilon: f64,
    expr: Expr,
    predicate: Predicate,
    /// `table[node][slot]`, grown on demand.
    table: Vec<Vec<FilterEntry>>,
    tracked: usize,
    totals: LedgerTotals,
}

impl MessageLedger {
    /// Builds a ledger for the query's expression/predicate with filter
    /// half-width `epsilon`.
    #[must_use]
    pub fn new(expr: Expr, predicate: Predicate, epsilon: f64) -> Self {
        Self {
            epsilon,
            expr,
            predicate,
            table: Vec::new(),
            tracked: 0,
            totals: LedgerTotals::default(),
        }
    }

    /// Observes one tick of database state and charges both baselines.
    ///
    /// A tuple's first appearance ships under both baselines (the initial
    /// value must reach the origin either way); afterwards `ALL` pays for
    /// every value change while `ALL+FILTER` pays only for changes that
    /// escape the width-`2ε` filter, recentring the filter on each ship.
    /// A tuple absent from the previous observe starts over as new.
    pub fn observe(&mut self, db: &P2PDatabase) {
        self.totals.ticks += 1;
        let stamp = self.totals.ticks;
        let mut tracked = 0;
        for (handle, tuple) in db.iter() {
            if !self.predicate.eval(tuple).unwrap_or(false) {
                continue;
            }
            let Ok(value) = self.expr.eval(tuple) else {
                continue;
            };
            tracked += 1;
            let entry = entry_mut(&mut self.table, handle);
            let carried =
                entry.seen != 0 && entry.seen + 1 == stamp && entry.generation == handle.generation;
            if carried {
                // Bit comparison: any representational change is a
                // change the source would push (exact float equality
                // is the intended semantics here, not tolerance).
                if value.to_bits() != entry.last.to_bits() {
                    self.totals.all_messages += 1;
                }
                if (value - entry.shipped).abs() > self.epsilon {
                    self.totals.filter_messages += 1;
                    entry.shipped = value;
                }
                entry.last = value;
                entry.seen = stamp;
            } else {
                // New tuple: both baselines ship the initial value.
                self.totals.all_messages += 1;
                self.totals.filter_messages += 1;
                *entry = FilterEntry {
                    generation: handle.generation,
                    seen: stamp,
                    last: value,
                    shipped: value,
                };
            }
        }
        self.tracked = tracked;
    }

    /// The accumulated baseline totals.
    #[must_use]
    pub fn totals(&self) -> LedgerTotals {
        self.totals
    }

    /// Tuples currently tracked by the filter table (those stamped by the
    /// latest observe).
    #[must_use]
    pub fn tracked(&self) -> usize {
        self.tracked
    }

    /// Whether a ledger built from `(expr, predicate, epsilon)` would
    /// charge exactly what this one does: float constants and ε are
    /// compared by bit pattern, since the derived `PartialEq` treats
    /// `0.0 == -0.0`, which `x + c` tells apart.
    #[must_use]
    pub(crate) fn has_filter(&self, expr: &Expr, predicate: &Predicate, epsilon: f64) -> bool {
        self.epsilon.to_bits() == epsilon.to_bits()
            && self.expr.same_bits(expr)
            && self.predicate.same_bits(predicate)
    }
}

/// The table entry for `handle`'s `(node, slot)`, growing the table to
/// reach it.
fn entry_mut(table: &mut Vec<Vec<FilterEntry>>, handle: TupleHandle) -> &mut FilterEntry {
    let node = handle.node.0 as usize;
    let slot = handle.slot as usize;
    if node >= table.len() {
        table.resize_with(node + 1, Vec::new);
    }
    let row = &mut table[node];
    if slot >= row.len() {
        row.resize(slot + 1, FilterEntry::default());
    }
    &mut row[slot]
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
    use digest_db::{P2PDatabase, Schema, Tuple};
    use digest_net::NodeId;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The ledger as first written: rebuild a handle-keyed map every
    /// tick, so surviving tuples carry their state and departed ones fall
    /// away. Kept as the reference the dense table must agree with.
    struct ReferenceLedger {
        epsilon: f64,
        expr: Expr,
        predicate: Predicate,
        entries: BTreeMap<TupleHandle, (f64, f64)>,
        totals: LedgerTotals,
    }

    impl ReferenceLedger {
        fn new(expr: Expr, predicate: Predicate, epsilon: f64) -> Self {
            Self {
                epsilon,
                expr,
                predicate,
                entries: BTreeMap::new(),
                totals: LedgerTotals::default(),
            }
        }

        fn observe(&mut self, db: &P2PDatabase) {
            self.totals.ticks += 1;
            let mut next = BTreeMap::new();
            for (handle, tuple) in db.iter() {
                if !self.predicate.eval(tuple).unwrap_or(false) {
                    continue;
                }
                let Ok(value) = self.expr.eval(tuple) else {
                    continue;
                };
                let entry = match self.entries.get(&handle) {
                    None => {
                        self.totals.all_messages += 1;
                        self.totals.filter_messages += 1;
                        (value, value)
                    }
                    Some(&(last, mut shipped)) => {
                        if value.to_bits() != last.to_bits() {
                            self.totals.all_messages += 1;
                        }
                        if (value - shipped).abs() > self.epsilon {
                            self.totals.filter_messages += 1;
                            shipped = value;
                        }
                        (value, shipped)
                    }
                };
                next.insert(handle, entry);
            }
            self.entries = next;
        }
    }

    fn db_with(values: &[f64]) -> (P2PDatabase, Vec<TupleHandle>) {
        let mut db = P2PDatabase::new(Schema::single("a"));
        db.register_node(NodeId(0));
        let handles = values
            .iter()
            .map(|&v| db.insert(NodeId(0), Tuple::single(v)).unwrap())
            .collect();
        (db, handles)
    }

    fn ledger_for(db: &P2PDatabase, epsilon: f64) -> MessageLedger {
        MessageLedger::new(Expr::first_attr(db.schema()), Predicate::True, epsilon)
    }

    #[test]
    fn initial_tick_ships_every_tuple_once() {
        let (db, _) = db_with(&[1.0, 2.0, 3.0]);
        let mut ledger = ledger_for(&db, 0.5);
        ledger.observe(&db);
        let t = ledger.totals();
        assert_eq!(t.all_messages, 3);
        assert_eq!(t.filter_messages, 3);
        assert_eq!(ledger.tracked(), 3);
    }

    #[test]
    fn steady_values_cost_nothing_after_the_first_ship() {
        let (db, _) = db_with(&[1.0, 2.0]);
        let mut ledger = ledger_for(&db, 0.5);
        for _ in 0..5 {
            ledger.observe(&db);
        }
        let t = ledger.totals();
        assert_eq!(t.all_messages, 2);
        assert_eq!(t.filter_messages, 2);
        assert_eq!(t.ticks, 5);
    }

    #[test]
    fn all_charges_every_change_filter_charges_escapes() {
        let (mut db, handles) = db_with(&[10.0]);
        let mut ledger = ledger_for(&db, 1.0);
        ledger.observe(&db); // initial ship: all 1, filter 1

        // Small drift inside the filter: ALL pays, FILTER holds.
        db.update(handles[0], &[10.5]).unwrap();
        ledger.observe(&db);
        // Another small step, still within ε of the shipped 10.0.
        db.update(handles[0], &[10.9]).unwrap();
        ledger.observe(&db);
        let t = ledger.totals();
        assert_eq!(t.all_messages, 3);
        assert_eq!(t.filter_messages, 1);

        // Escape the filter: both pay, filter recentres at 11.5.
        db.update(handles[0], &[11.5]).unwrap();
        ledger.observe(&db);
        let t = ledger.totals();
        assert_eq!(t.all_messages, 4);
        assert_eq!(t.filter_messages, 2);

        // Drift within ε of the *new* centre: FILTER holds again.
        db.update(handles[0], &[12.0]).unwrap();
        ledger.observe(&db);
        let t = ledger.totals();
        assert_eq!(t.all_messages, 5);
        assert_eq!(t.filter_messages, 2);
    }

    #[test]
    fn departed_tuples_are_pruned_and_reinsertions_ship_again() {
        let (mut db, handles) = db_with(&[1.0, 2.0]);
        let mut ledger = ledger_for(&db, 0.5);
        ledger.observe(&db);
        assert_eq!(ledger.tracked(), 2);

        db.delete(handles[0]).unwrap();
        ledger.observe(&db);
        assert_eq!(ledger.tracked(), 1);

        // A fresh tuple (new handle) ships under both baselines.
        db.insert(NodeId(0), Tuple::single(1.0)).unwrap();
        ledger.observe(&db);
        let t = ledger.totals();
        assert_eq!(ledger.tracked(), 2);
        assert_eq!(t.all_messages, 3);
        assert_eq!(t.filter_messages, 3);
    }

    #[test]
    fn predicate_restricts_the_accounted_population() {
        let (db, _) = db_with(&[1.0, 5.0, 9.0]);
        let schema = db.schema().clone();
        let pred = Predicate::parse("a > 4", &schema).unwrap();
        let mut ledger = MessageLedger::new(Expr::first_attr(&schema), pred, 0.5);
        ledger.observe(&db);
        let t = ledger.totals();
        assert_eq!(t.all_messages, 2);
        assert_eq!(ledger.tracked(), 2);
    }

    #[test]
    fn a_tuple_missing_for_one_tick_ships_as_new() {
        let (mut db, handles) = db_with(&[5.0]);
        let schema = db.schema().clone();
        let pred = Predicate::parse("a > 4", &schema).unwrap();
        let mut ledger = MessageLedger::new(Expr::first_attr(&schema), pred, 10.0);
        ledger.observe(&db);
        // Leaves the predicate's domain for one tick, then returns with
        // the same handle: its filter state must not survive the gap.
        db.update(handles[0], &[1.0]).unwrap();
        ledger.observe(&db);
        db.update(handles[0], &[5.0]).unwrap();
        ledger.observe(&db);
        let t = ledger.totals();
        assert_eq!(t.all_messages, 2);
        assert_eq!(t.filter_messages, 2);
        assert_eq!(ledger.tracked(), 1);
    }

    #[test]
    fn filter_keys_compare_constants_by_bit_pattern() {
        let (db, _) = db_with(&[]);
        let schema = db.schema().clone();
        let plus = |c: f64| Expr::Binary {
            op: digest_db::expr::BinOp::Add,
            lhs: Box::new(Expr::first_attr(&schema)),
            rhs: Box::new(Expr::Const(c)),
        };
        let pred = Predicate::parse("a > 1", &schema).unwrap();
        let ledger = MessageLedger::new(plus(0.0), pred.clone(), 0.5);
        assert!(ledger.has_filter(&plus(0.0), &pred, 0.5));
        // `-0.0 + 0.0` is `0.0` but `-0.0 + -0.0` is `-0.0`: ALL would
        // charge differently, so the keys must differ.
        assert!(!ledger.has_filter(&plus(-0.0), &pred, 0.5));
        assert!(!ledger.has_filter(&plus(0.0), &Predicate::True, 0.5));
        assert!(!ledger.has_filter(&plus(0.0), &pred, 0.25));
    }

    /// Values that exercise the edge cases: ±0.0 (bit-different, equal
    /// under `==`), steps just inside and outside ε, a predicate
    /// boundary at 0, and NaN.
    const PALETTE: [f64; 10] = [-2.0, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0, f64::NAN];

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32, usize),
        Delete(usize),
        Update(usize, usize),
        Rewrite(usize),
        RemoveNode(u32),
        Register(u32),
        Observe,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..4, 0usize..PALETTE.len()).prop_map(|(n, v)| Op::Insert(n, v)),
            (0usize..64).prop_map(Op::Delete),
            (0usize..64, 0usize..PALETTE.len()).prop_map(|(i, v)| Op::Update(i, v)),
            (0usize..64).prop_map(Op::Rewrite),
            (0u32..4).prop_map(Op::RemoveNode),
            (0u32..4).prop_map(Op::Register),
            Just(Op::Observe),
            Just(Op::Observe),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn dense_table_matches_the_rebuilt_map(ops in prop::collection::vec(op_strategy(), 0..200)) {
            let mut db = P2PDatabase::new(Schema::single("a"));
            for n in 0..4 {
                db.register_node(NodeId(n));
            }
            let schema = db.schema().clone();
            let expr = Expr::first_attr(&schema);
            let contracts = [
                (Predicate::True, 0.0),
                (Predicate::True, 0.5),
                (Predicate::parse("a >= 0", &schema).unwrap(), 1.0),
                (Predicate::parse("a > 0.75", &schema).unwrap(), 0.25),
            ];
            let mut pairs: Vec<(MessageLedger, ReferenceLedger)> = contracts
                .iter()
                .map(|(pred, eps)| {
                    (
                        MessageLedger::new(expr.clone(), pred.clone(), *eps),
                        ReferenceLedger::new(expr.clone(), pred.clone(), *eps),
                    )
                })
                .collect();
            // Handles handed out so far; stale ones stay in the list so
            // deletes and updates through them exercise generation checks.
            let mut handles: Vec<TupleHandle> = Vec::new();
            for op in ops {
                match op {
                    Op::Insert(node, v) => {
                        if let Ok(h) = db.insert(NodeId(node), Tuple::single(PALETTE[v])) {
                            handles.push(h);
                        }
                    }
                    Op::Delete(i) if !handles.is_empty() => {
                        let _ = db.delete(handles[i % handles.len()]);
                    }
                    Op::Update(i, v) if !handles.is_empty() => {
                        let _ = db.update(handles[i % handles.len()], &[PALETTE[v]]);
                    }
                    Op::Rewrite(i) if !handles.is_empty() => {
                        let h = handles[i % handles.len()];
                        if let Ok(value) = db.read(h).map(|t| t.value(0).unwrap()) {
                            db.update(h, &[value]).unwrap();
                        }
                    }
                    Op::RemoveNode(node) => {
                        let _ = db.remove_node(NodeId(node));
                    }
                    Op::Register(node) => db.register_node(NodeId(node)),
                    Op::Observe => {
                        for (dense, reference) in &mut pairs {
                            dense.observe(&db);
                            reference.observe(&db);
                            prop_assert_eq!(dense.totals(), reference.totals);
                            prop_assert_eq!(dense.tracked(), reference.entries.len());
                        }
                    }
                    Op::Delete(_) | Op::Update(..) | Op::Rewrite(_) => {}
                }
            }
        }
    }
}
