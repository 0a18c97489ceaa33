//! Reusable walk-batch arenas: zero steady-state allocation for the
//! occasion hot path.
//!
//! PR 3's executor allocated three vectors per `sample_tuples` batch
//! (the slot task list, the slot-indexed result table, and the outcome
//! list), every occasion, forever. [`WalkArena`] owns those buffers for
//! the lifetime of a `SamplingOperator` and recycles them across batches
//! and occasions: `clear()` + `resize` keep capacity, so after the first
//! occasion at a given panel size the dispatch path performs no heap
//! allocation of its own. (Per-slot state — the ChaCha8 stream and the
//! walk cursor — already lives on the worker's stack; the only
//! per-sample allocation left is the unavoidable clone of the sampled
//! tuple out of the database.)
//!
//! The arena is scratch, not state: its contents are meaningful only
//! *during* one `run_tuple_batch` call, and the operator drains
//! `outcomes` immediately after. `Clone` therefore yields a fresh empty
//! arena (cloned operators share no buffers and need none).

use crate::executor::{SlotOutcome, SlotTask};
use crate::sync::OnceLock;
use crate::Result;

/// Retained buffers for one operator's walk batches.
#[derive(Debug, Default)]
pub(crate) struct WalkArena {
    /// Per-slot work orders, fully written before workers start.
    pub(crate) tasks: Vec<SlotTask>,
    /// Slot-indexed reassembly table the workers fill lock-free through
    /// `claim::fill_table` (each cell written by exactly one worker;
    /// always returned to the arena all-empty, capacity intact).
    pub(crate) results: Vec<OnceLock<Result<SlotOutcome>>>,
    /// Slot-ordered outcomes of the last successful batch; drained by
    /// the operator.
    pub(crate) outcomes: Vec<SlotOutcome>,
}

impl WalkArena {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Drops every retained buffer (used by `SamplingOperator::reset`
    /// so a reset operator holds no memory from its previous life).
    pub(crate) fn release(&mut self) {
        *self = Self::new();
    }
}

impl Clone for WalkArena {
    fn clone(&self) -> Self {
        Self::new()
    }
}
