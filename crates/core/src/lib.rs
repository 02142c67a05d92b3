//! The JetStream event-driven streaming graph engine.
//!
//! This crate implements the paper's primary contribution as a functional
//! model: the GraphPulse event-driven execution loop (Algorithm 1) extended
//! with streaming support — edge insertions as plain events (Algorithm 2),
//! edge deletions via negative events for accumulative algorithms
//! (Algorithm 3) and via delete tagging, impacted-vertex reset, and
//! request-based re-approximation for selective algorithms (Algorithms 4–5),
//! plus the Value-Aware (VAP) and Dependency-Aware (DAP) propagation
//! optimizations of §5.
//!
//! The engine produces exact query results (validated against sequential
//! oracles), detailed operation counts ([`RunStats`], behind Figs. 9–10 of
//! the paper), and optional operation traces ([`trace::Trace`]) replayed by
//! the `jetstream-sim` cycle-level simulator for timing.
//!
//! # Quick start
//!
//! ```
//! use jetstream_core::{StreamingEngine, EngineConfig};
//! use jetstream_algorithms::Bfs;
//! use jetstream_graph::{Csr, UpdateBatch};
//!
//! # fn main() -> Result<(), jetstream_graph::GraphError> {
//! let mut g = Csr::new(4);
//! g.insert_edge(0, 1, 1.0)?;
//! g.insert_edge(1, 2, 1.0)?;
//! g.insert_edge(2, 3, 1.0)?;
//!
//! let mut engine = StreamingEngine::new(Box::new(Bfs::new(0)), g, EngineConfig::default());
//! engine.initial_compute();
//! assert_eq!(engine.values(), &[0.0, 1.0, 2.0, 3.0]);
//!
//! // Stream a batch: delete the middle edge, add a bypass.
//! let mut batch = UpdateBatch::new();
//! batch.delete(1, 2);
//! batch.insert(0, 2, 1.0);
//! let stats = engine.apply_update_batch(&batch)?;
//! assert_eq!(engine.values(), &[0.0, 1.0, 1.0, 2.0]);
//! assert!(stats.resets >= 1); // vertex 2 (and downstream) were recovered
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod async_mode;
mod engine;
mod event;
mod flow;
mod kernel;
mod queue;
mod restore;
mod sharded;
mod stats;

pub mod trace;

pub use engine::{
    AccumulativeRecovery, BatchClassification, CheckpointError, DeleteStrategy, EngineConfig,
    Sequential, StreamingEngine, UpdateSafety,
};
pub use event::{Carry, Event, Row};
pub use flow::{Executor, StreamingFlow};
pub use queue::{CoalescingQueue, QueueStats};
pub use sharded::sync;
pub use sharded::{ExecutionMode, ParallelModel, Sharded, ShardedEngine, MAX_SHARDS};
pub use stats::{Phase, RunStats};
