//! The JetStream serving layer: a long-running streaming ingestion server
//! with admission control, coalesced batching, and point queries.
//!
//! `jetstream-serve` fronts a [`jetstream_core::StreamingEngine`] (or its
//! durable wrapper from `jetstream-store`) with a length-prefixed binary
//! protocol over TCP and Unix-domain sockets. One reader thread per
//! connection feeds a single admission front-end that coalesces
//! per-client edge updates into engine batches under a size/latency
//! policy, applies backpressure through bounded per-client queues with an
//! explicit `Busy` reply, and answers point queries (vertex value,
//! impacted set, dependence path) from converged state between batches.
//! Every applied batch is classified RisGraph-style safe/unsafe against
//! the pre-batch state and reported in its `Converged` reply; the
//! classification picks no path, since every batch runs the engine's one
//! flow.
//! See DESIGN.md §15 for the wire format, the admission state machine,
//! the safe/unsafe rule, and the backpressure contract.

pub mod admission;
pub mod backend;
pub mod client;
pub mod clock;
pub mod framing;
pub mod protocol;
pub mod queries;
pub mod server;
mod session;

use jetstream_graph::{GraphError, UpdateRejection};
use jetstream_store::StoreError;

use crate::framing::FrameError;
use crate::protocol::ProtocolError;

/// Top-level failure of a serving-layer operation.
#[derive(Debug)]
pub enum ServeError {
    /// Socket / filesystem failure.
    Io(std::io::Error),
    /// Frame-layer failure (length prefix, transport).
    Frame(FrameError),
    /// Payload decode failure.
    Protocol(ProtocolError),
    /// Engine-side graph failure.
    Graph(GraphError),
    /// Durable-store failure.
    Store(StoreError),
    /// An update message bounced by admission validation.
    Rejected(UpdateRejection),
    /// The peer answered something the protocol does not allow here.
    UnexpectedResponse {
        /// What arrived, rendered.
        got: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Frame(e) => write!(f, "frame: {e}"),
            ServeError::Protocol(e) => write!(f, "protocol: {e}"),
            ServeError::Graph(e) => write!(f, "graph: {e}"),
            ServeError::Store(e) => write!(f, "store: {e}"),
            ServeError::Rejected(e) => write!(f, "rejected: {e}"),
            ServeError::UnexpectedResponse { got } => write!(f, "unexpected response: {got}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Frame(e) => Some(e),
            ServeError::Protocol(e) => Some(e),
            ServeError::Graph(e) => Some(e),
            ServeError::Store(e) => Some(e),
            ServeError::Rejected(e) => Some(e),
            ServeError::UnexpectedResponse { .. } => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        ServeError::Frame(e)
    }
}

impl From<ProtocolError> for ServeError {
    fn from(e: ProtocolError) -> Self {
        ServeError::Protocol(e)
    }
}

impl From<GraphError> for ServeError {
    fn from(e: GraphError) -> Self {
        ServeError::Graph(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

impl From<UpdateRejection> for ServeError {
    fn from(e: UpdateRejection) -> Self {
        ServeError::Rejected(e)
    }
}
