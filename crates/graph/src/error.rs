use std::error::Error;
use std::fmt;

use crate::VertexId;

/// Errors produced by graph construction and mutation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GraphError {
    /// A vertex id was outside `0..num_vertices`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// The number of vertices in the graph.
        num_vertices: usize,
    },
    /// An edge insertion targeted an edge that already exists.
    ///
    /// JetStream models simple directed graphs: at most one edge per
    /// `(source, target)` pair. An edge-weight *modification* is modelled as a
    /// deletion followed by an insertion, as §2.1 of the paper specifies.
    DuplicateEdge {
        /// Source of the duplicate edge.
        source: VertexId,
        /// Target of the duplicate edge.
        target: VertexId,
    },
    /// An edge deletion targeted an edge that does not exist.
    MissingEdge {
        /// Source of the missing edge.
        source: VertexId,
        /// Target of the missing edge.
        target: VertexId,
    },
    /// A self-loop was requested but the graph forbids them.
    SelfLoop {
        /// The vertex that would loop onto itself.
        vertex: VertexId,
    },
    /// An edge insertion carried a negative, NaN or infinite weight.
    ///
    /// Rejected at every boundary a weight crosses — the wire-ingest check
    /// ([`EdgeUpdate::check_bounds`](crate::EdgeUpdate::check_bounds)),
    /// the text parser and the graph's own batch check: a non-finite
    /// weight would poison every value it propagates into, and a negative
    /// one lets a cycle lower a shortest path forever (`-0.0` is zero).
    InvalidWeight {
        /// Source of the offending edge.
        source: VertexId,
        /// Target of the offending edge.
        target: VertexId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GraphError::VertexOutOfRange { vertex, num_vertices } => {
                write!(f, "vertex {vertex} out of range for graph with {num_vertices} vertices")
            }
            GraphError::DuplicateEdge { source, target } => {
                write!(f, "edge {source} -> {target} already exists")
            }
            GraphError::MissingEdge { source, target } => {
                write!(f, "edge {source} -> {target} does not exist")
            }
            GraphError::SelfLoop { vertex } => {
                write!(f, "self-loop on vertex {vertex} is not allowed")
            }
            GraphError::InvalidWeight { source, target } => {
                write!(f, "edge {source} -> {target} has a negative or non-finite weight")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_unpunctuated() {
        let e = GraphError::DuplicateEdge { source: 1, target: 2 };
        let s = e.to_string();
        assert!(s.starts_with("edge"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
