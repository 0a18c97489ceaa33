//! Sync primitives for the claim/publish protocol, swappable for the
//! vendored loom model checker under `RUSTFLAGS="--cfg loom"` (see
//! DESIGN.md §13).
//!
//! [`crate::claim`] is written against these aliases, so the very
//! functions every production parallel loop runs are the ones the loom
//! tests exhaustively interleave.

#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(loom))]
pub use std::sync::OnceLock;

#[cfg(loom)]
pub(crate) use loom::sync::atomic::{AtomicUsize, Ordering};
#[cfg(loom)]
pub use loom::sync::OnceLock;
