//! Shared ground truth: one oracle pass per distinct truth key per tick.
//!
//! The simulator scores every reported estimate against the exact
//! aggregate (paper §VI); no peer can compute that, so it is a harness
//! cost. Queries that read the same scan share it: a *truth key* is
//! `(family, expr, predicate)`, with expressions and predicates compared
//! by bit pattern ([`Expr::same_bits`]), and the three families are
//!
//! * *moments* — `AVG`/`SUM`/`COUNT` read one `(sum, count)` pass
//!   ([`P2PDatabase::sum_count_where`]);
//! * *sorted column* — `MEDIAN`/`PERCENTILE` read one sorted vector of the
//!   qualifying values, and each member takes its own rank;
//! * *cells* — `COUNT(DISTINCT)`/`TOPK` read one `value_cell → count`
//!   table.
//!
//! [`TruthTable`] holds the keys of a fixed member set and evaluates each
//! once per tick, reusing one scratch buffer per key across ticks;
//! [`ContinuousQuery::oracle`] is the same pass and finish for a table of
//! one.

use crate::query::{AggregateOp, ContinuousQuery};
use digest_db::{Expr, P2PDatabase, Predicate};

/// The latest pass of one truth key: what its family's members finish
/// from. The vectors are the family's scratch, kept across passes.
#[derive(Debug, Clone)]
pub(crate) enum Pass {
    /// `(Σ expr, count)` over the qualifying tuples.
    Moments { sum: f64, count: usize },
    /// The qualifying values, sorted by [`f64::total_cmp`].
    Sorted(Vec<f64>),
    /// `(value cell, tuples in it)`, heaviest cell first, plus the number
    /// of qualifying tuples.
    Cells { cells: Vec<(i64, u64)>, total: u64 },
}

impl Pass {
    /// An empty pass of `op`'s family.
    pub(crate) fn for_op(op: AggregateOp) -> Self {
        match op {
            AggregateOp::Avg | AggregateOp::Sum | AggregateOp::Count => {
                Pass::Moments { sum: 0.0, count: 0 }
            }
            AggregateOp::Median | AggregateOp::Percentile { .. } => Pass::Sorted(Vec::new()),
            AggregateOp::Distinct | AggregateOp::TopK { .. } => Pass::Cells {
                cells: Vec::new(),
                total: 0,
            },
        }
    }

    /// Whether `op` finishes from this pass's family.
    fn serves(&self, op: AggregateOp) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(&Pass::for_op(op))
    }

    /// Rescans `db` for the tuples satisfying `predicate`.
    ///
    /// # Errors
    ///
    /// Any expression/predicate evaluation error; the pass is then stale
    /// and must not be finished from.
    pub(crate) fn run(
        &mut self,
        db: &P2PDatabase,
        expr: &Expr,
        predicate: &Predicate,
    ) -> digest_db::Result<()> {
        match self {
            Pass::Moments { sum, count } => {
                (*sum, *count) = db.sum_count_where(expr, predicate)?;
            }
            Pass::Sorted(values) => {
                values.clear();
                values.reserve(db.total_tuples());
                for (_, tuple) in db.iter() {
                    if predicate.eval(tuple)? {
                        values.push(expr.eval(tuple)?);
                    }
                }
                // Values equal under `total_cmp` have equal bits, so the
                // unstable sort yields the same vector as a stable one.
                values.sort_unstable_by(f64::total_cmp);
            }
            Pass::Cells { cells, total } => {
                cells.clear();
                cells.reserve(db.total_tuples());
                for (_, tuple) in db.iter() {
                    if predicate.eval(tuple)? {
                        cells.push((digest_sketch::value_cell(expr.eval(tuple)?), 1));
                    }
                }
                *total = cells.len() as u64;
                cells.sort_unstable_by_key(|&(cell, _)| cell);
                // Fold each run of one cell into its first entry.
                cells.dedup_by(|next, kept| {
                    let same = next.0 == kept.0;
                    if same {
                        kept.1 += next.1;
                    }
                    same
                });
                cells.sort_unstable_by_key(|&(_, n)| std::cmp::Reverse(n));
            }
        }
        Ok(())
    }

    /// `op`'s exact answer from this pass: `None` where the answer is
    /// undefined (`AVG`/`MEDIAN`/`PERCENTILE`/`TOPK` over an empty
    /// qualifying set) or `op` reads another family.
    pub(crate) fn finish(&self, op: AggregateOp) -> Option<f64> {
        match (op, self) {
            (AggregateOp::Avg, Pass::Moments { sum, count }) => {
                (*count > 0).then(|| sum / *count as f64)
            }
            (AggregateOp::Sum, Pass::Moments { sum, .. }) => Some(*sum),
            (AggregateOp::Count, Pass::Moments { count, .. }) => Some(*count as f64),
            (AggregateOp::Median | AggregateOp::Percentile { .. }, Pass::Sorted(values)) => {
                digest_stats::sample_quantile(values, op.quantile_rank()?).ok()
            }
            (AggregateOp::Distinct, Pass::Cells { cells, .. }) => Some(cells.len() as f64),
            (AggregateOp::TopK { k }, Pass::Cells { cells, total }) => {
                if *total == 0 {
                    return None;
                }
                let top: u64 = cells.iter().take(usize::from(k)).map(|&(_, n)| n).sum();
                Some((top as f64 / *total as f64).clamp(0.0, 1.0))
            }
            _ => None,
        }
    }
}

/// One distinct truth key and its latest pass.
#[derive(Debug, Clone)]
struct TruthKey {
    expr: Expr,
    predicate: Predicate,
    pass: Pass,
    /// False when the latest pass hit an evaluation error.
    valid: bool,
}

/// The ground truth of a fixed member set: each distinct truth key is
/// scanned once per [`TruthTable::evaluate`], and every member finishes
/// its own answer from its key's pass. Member `i` is the `i`-th query the
/// table was built from.
#[derive(Debug, Clone, Default)]
pub struct TruthTable {
    keys: Vec<TruthKey>,
    /// Per member: its key's index and its operation.
    members: Vec<(usize, AggregateOp)>,
}

impl TruthTable {
    /// Groups `queries` by truth key, in order of first appearance.
    #[must_use]
    pub fn new<'a>(queries: impl IntoIterator<Item = &'a ContinuousQuery>) -> Self {
        let mut table = Self::default();
        for q in queries {
            let key = table.keys.iter().position(|k| {
                k.pass.serves(q.op)
                    && k.expr.same_bits(&q.expr)
                    && k.predicate.same_bits(&q.predicate)
            });
            let key = key.unwrap_or_else(|| {
                table.keys.push(TruthKey {
                    expr: q.expr.clone(),
                    predicate: q.predicate.clone(),
                    pass: Pass::for_op(q.op),
                    valid: false,
                });
                table.keys.len() - 1
            });
            table.members.push((key, q.op));
        }
        table
    }

    /// Distinct truth keys: the passes one [`TruthTable::evaluate`] makes.
    #[must_use]
    pub fn passes(&self) -> usize {
        self.keys.len()
    }

    /// Rescans `db` once per truth key.
    pub fn evaluate(&mut self, db: &P2PDatabase) {
        for key in &mut self.keys {
            key.valid = key.pass.run(db, &key.expr, &key.predicate).is_ok();
        }
    }

    /// Member `member`'s exact answer as of the latest
    /// [`TruthTable::evaluate`]: bit-identical to its query's
    /// [`ContinuousQuery::oracle`]. `None` when the answer is undefined,
    /// evaluation failed, or no such member exists.
    #[must_use]
    pub fn truth(&self, member: usize) -> Option<f64> {
        let &(key, op) = self.members.get(member)?;
        let key = self.keys.get(key)?;
        if key.valid {
            key.pass.finish(op)
        } else {
            None
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
    use crate::query::Precision;
    use digest_db::expr::BinOp;
    use digest_db::{Schema, Tuple};
    use digest_net::NodeId;

    fn db() -> P2PDatabase {
        let mut db = P2PDatabase::new(Schema::new(["x"]));
        for node in 0..3 {
            db.register_node(NodeId(node));
            for v in [1.5, 2.5, 2.7, 7.0] {
                db.insert(NodeId(node), Tuple::new(vec![v * f64::from(node + 1)]))
                    .unwrap();
            }
        }
        db
    }

    fn query(op: AggregateOp, expr: Expr) -> ContinuousQuery {
        ContinuousQuery::new(op, expr, Precision::new(1.0, 1.0, 0.95).unwrap())
    }

    #[test]
    fn one_pass_per_family_key() {
        let db = db();
        let x = Expr::first_attr(db.schema());
        let ops = [
            AggregateOp::Avg,
            AggregateOp::Sum,
            AggregateOp::Count,
            AggregateOp::Median,
            AggregateOp::Percentile { q_permille: 900 },
            AggregateOp::Distinct,
            AggregateOp::TopK { k: 2 },
            AggregateOp::Avg,
        ];
        let queries: Vec<_> = ops.iter().map(|&op| query(op, x.clone())).collect();
        let mut table = TruthTable::new(&queries);
        assert_eq!(table.passes(), 3);
        table.evaluate(&db);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(
                table.truth(i).map(f64::to_bits),
                q.oracle(&db).map(f64::to_bits),
                "{q}"
            );
        }
        assert_eq!(table.truth(8), None);
    }

    #[test]
    fn signed_zero_constants_get_their_own_pass() {
        // SUM(1 / (x * 0.0)) = +inf but SUM(1 / (x * -0.0)) = -inf over
        // positive x: one shared pass would hand one of them the wrong sign.
        let db = db();
        let recip = |c: f64| {
            let scaled = Expr::binary(BinOp::Mul, Expr::first_attr(db.schema()), Expr::Const(c));
            query(
                AggregateOp::Sum,
                Expr::binary(BinOp::Div, Expr::Const(1.0), scaled),
            )
        };
        let queries = [recip(0.0), recip(-0.0)];
        let mut table = TruthTable::new(&queries);
        assert_eq!(table.passes(), 2);
        table.evaluate(&db);
        assert_eq!(table.truth(0), Some(f64::INFINITY));
        assert_eq!(table.truth(1), Some(f64::NEG_INFINITY));
    }
}
