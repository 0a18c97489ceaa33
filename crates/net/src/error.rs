//! Error type for the overlay-network crate.

use crate::graph::NodeId;
use std::fmt;

/// Errors produced by graph construction and manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// An operation referenced a node that does not exist (or has left).
    UnknownNode(NodeId),
    /// A self-loop was requested; the overlay is a simple graph.
    SelfLoop(NodeId),
    /// A generator was asked for an impossible configuration.
    InvalidTopology {
        /// Description of the violated requirement.
        reason: &'static str,
    },
    /// The graph is empty where at least one node is required.
    EmptyGraph,
    /// The graph's `u32` addressing space (neighbor-arena offsets) would
    /// be exceeded by the operation.
    CapacityExceeded,
    /// A bulk CSR load was attempted on a graph that already holds edges.
    NotEmpty,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode(id) => write!(f, "unknown node {id}"),
            NetError::SelfLoop(id) => write!(f, "self-loop on node {id} not allowed"),
            NetError::InvalidTopology { reason } => write!(f, "invalid topology: {reason}"),
            NetError::EmptyGraph => write!(f, "operation requires a non-empty graph"),
            NetError::CapacityExceeded => {
                write!(f, "graph u32 addressing space exhausted")
            }
            NetError::NotEmpty => write!(f, "bulk CSR load requires an edge-free graph"),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_node() {
        let e = NetError::UnknownNode(NodeId(7));
        assert!(e.to_string().contains('7'));
        let e = NetError::SelfLoop(NodeId(3));
        assert!(e.to_string().contains('3'));
    }
}
