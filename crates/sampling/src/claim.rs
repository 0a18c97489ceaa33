//! The one lock-free claim/publish protocol behind every deterministic
//! parallel loop in the workspace: the sampling operator's occasion
//! walk batch, the replication runner and the million-node flat
//! simulation (both in `digest-sim`).
//!
//! A job over indices `0..table.len()` is drained by up to `workers`
//! threads. Each thread claims the next index from a shared atomic
//! cursor and publishes that index's result into the caller-owned
//! `table` of write-once cells; each cell is written by exactly one
//! thread, so no lock is held anywhere (R6). The caller drains the table
//! in index order after [`fill_table`] returns, so thread scheduling can
//! influence neither the output order nor which error surfaces first,
//! and any worker count — `1` runs the same drain loop inline, without
//! spawning — produces the same bytes. The table is the caller's, so a
//! hot path can recycle it across calls and dispatch without
//! allocating.
//!
//! The protocol is model-checked against the vendored loom stand-in
//! under `RUSTFLAGS="--cfg loom"` (the crate's `sync` module swaps the
//! atomics and cells; see DESIGN.md §13): the loom tests below
//! interleave the very `drain` loop the production path runs.

use crate::sync::{AtomicUsize, Ordering};

/// The write-once cell a [`fill_table`] table is made of: `std`'s
/// `OnceLock`, or the loom stand-in's under `--cfg loom`.
pub use crate::sync::OnceLock;

/// Computes `job(i)` for every index `i` of `table` on up to `workers`
/// threads and publishes each result into `table[i]`.
///
/// The cells should be empty on entry. After the call every cell of a
/// well-formed run holds its index's result; a cell left empty (or a
/// result dropped because its cell was already full) can only mean the
/// protocol was broken, and callers surface it as an error when they
/// drain the table.
pub fn fill_table<T, F>(table: &[OnceLock<T>], workers: usize, job: F)
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    let cursor = AtomicUsize::new(0);
    let workers = workers.max(1).min(table.len().max(1));
    if workers == 1 {
        drain(&cursor, table, &job);
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| drain(&cursor, table, &job));
            }
        });
    }
}

/// One worker's loop: claim an index, run the job, publish, repeat
/// until the cursor passes the end of the table.
fn drain<T, F: Fn(usize) -> T>(cursor: &AtomicUsize, table: &[OnceLock<T>], job: &F) {
    while let Some(index) = claim(cursor, table.len()) {
        // Always true while `claim` hands each index to one caller.
        let _ = publish(&table[index], job(index));
    }
}

/// Claims the next unprocessed index from the cursor, or `None` once
/// all of `0..limit` are handed out. Each index goes to exactly one
/// caller because `fetch_add` is atomic.
/// xtask: no-alloc
fn claim(cursor: &AtomicUsize, limit: usize) -> Option<usize> {
    // relaxed-ok: claim uniqueness needs only the atomicity of fetch_add;
    // results are published through `OnceLock::set` and the scope join,
    // so no ordering rides on this counter.
    let index = cursor.fetch_add(1, Ordering::Relaxed);
    (index < limit).then_some(index)
}

/// Publishes one index's result into its cell. Returns `false` when the
/// cell was already filled — impossible while [`claim`] hands out each
/// index once (model-checked under `--cfg loom`).
fn publish<T>(cell: &OnceLock<T>, value: T) -> bool {
    cell.set(value).is_ok()
}

#[cfg(all(test, loom))]
#[allow(clippy::unwrap_used)]
mod loom_tests {
    use super::{claim, drain, publish, OnceLock};
    use crate::sync::AtomicUsize;
    use loom::sync::Arc;
    use loom::thread;

    /// Exhaustively interleaves two workers draining a three-slot table
    /// through the production `claim` / `publish` protocol: under every
    /// schedule each slot is claimed exactly once, every publish lands
    /// in a previously-empty cell, and after the join the table holds
    /// each slot's result exactly once.
    #[test]
    fn loom_claim_publish_fills_every_slot_exactly_once() {
        loom::model(|| {
            const SLOTS: usize = 3;
            let cursor = Arc::new(AtomicUsize::new(0));
            let table: Arc<Vec<OnceLock<usize>>> =
                Arc::new((0..SLOTS).map(|_| OnceLock::new()).collect());

            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let cursor = Arc::clone(&cursor);
                    let table = Arc::clone(&table);
                    thread::spawn(move || {
                        while let Some(index) = claim(&cursor, SLOTS) {
                            assert!(
                                publish(&table[index], index * 10),
                                "slot {index} was claimed twice"
                            );
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().unwrap();
            }

            let mut table = Arc::try_unwrap(table).ok().unwrap();
            for (index, cell) in table.iter_mut().enumerate() {
                assert_eq!(cell.take(), Some(index * 10), "slot {index} missing");
            }
        });
    }

    /// A cursor overshooting the slot count (more workers than work)
    /// never yields an in-range index twice and never blocks: late
    /// claimers see `None` and exit.
    #[test]
    fn loom_overshooting_claims_return_none() {
        loom::model(|| {
            let cursor = Arc::new(AtomicUsize::new(0));
            let claimed = Arc::new(OnceLock::new());

            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let cursor = Arc::clone(&cursor);
                    let claimed = Arc::clone(&claimed);
                    thread::spawn(move || match claim(&cursor, 1) {
                        Some(index) => {
                            assert!(claimed.set(index).is_ok(), "single slot claimed twice");
                        }
                        None => {}
                    })
                })
                .collect();
            for handle in handles {
                handle.join().unwrap();
            }

            let mut claimed = Arc::try_unwrap(claimed).ok().unwrap();
            assert_eq!(claimed.take(), Some(0));
        });
    }

    /// Two workers running the production `drain` loop — the one
    /// [`super::fill_table`] runs per thread for the replication runner
    /// and the flat simulation as well as the walk batch — fill a
    /// three-entry table so that the index-order drain finds every
    /// job's result under every schedule.
    #[test]
    fn loom_claim_publish_fills_every_seed_exactly_once() {
        loom::model(|| {
            const REPLICATIONS: usize = 3;
            let cursor = Arc::new(AtomicUsize::new(0));
            let table: Arc<Vec<OnceLock<u64>>> =
                Arc::new((0..REPLICATIONS).map(|_| OnceLock::new()).collect());

            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let cursor = Arc::clone(&cursor);
                    let table = Arc::clone(&table);
                    thread::spawn(move || drain(&cursor, &table, &|seed| seed as u64 * 7))
                })
                .collect();
            for handle in handles {
                handle.join().unwrap();
            }

            let mut table = Arc::try_unwrap(table).ok().unwrap();
            for (seed, cell) in table.iter_mut().enumerate() {
                assert_eq!(cell.take(), Some(seed as u64 * 7), "seed {seed} missing");
            }
        });
    }
}

#[cfg(all(test, not(loom)))]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn every_worker_count_fills_the_same_table() {
        for workers in [0, 1, 2, 4, 16] {
            let mut table: Vec<OnceLock<usize>> = (0..9).map(|_| OnceLock::new()).collect();
            fill_table(&table, workers, |i| i * i);
            let got: Vec<Option<usize>> = table.iter_mut().map(OnceLock::take).collect();
            let want: Vec<Option<usize>> = (0..9).map(|i| Some(i * i)).collect();
            assert_eq!(got, want, "{workers} workers");
        }
        // An empty table runs nothing.
        fill_table::<usize, _>(&[], 4, |_| unreachable!());
    }
}
