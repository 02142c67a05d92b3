//! Durable state store for the JetStream streaming engine.
//!
//! JetStream's streaming flow incrementally re-evaluates queries from a
//! *recoverable approximation* of the previous converged state (§3.4 of the
//! paper). Everywhere else in this workspace that state lives in memory, so a
//! process restart is a GraphPulse-style cold start. This crate makes the
//! state durable and a restart warm:
//!
//! * [`snapshot`] — a versioned, checksummed binary snapshot of the
//!   graph (from which the engine's [`CsrPair`](jetstream_graph::CsrPair)
//!   is rebuilt) plus the engine's converged vertex values and DAP
//!   dependence tree.
//! * [`wal`] — a segmented write-ahead log of
//!   [`UpdateBatch`](jetstream_graph::UpdateBatch)es with length-prefixed,
//!   CRC-guarded records, explicit fsync points, and segment rotation at
//!   every checkpoint.
//! * [`recovery`] — loads the newest intact snapshot, replays surviving WAL
//!   records through
//!   [`StreamingEngine::apply_update_batch`](jetstream_core::StreamingEngine::apply_update_batch),
//!   and truncates torn log tails. Corruption is either repaired into a
//!   consistent durable prefix or reported loudly — never silently absorbed.
//! * [`DurableStore`] / [`DurableEngine`] — orchestration: WAL append per
//!   batch, periodic checkpoints, compaction of obsolete segments and
//!   snapshots, and a [`DurableEngine::recover`] warm-start entry point built
//!   on [`StreamingEngine::from_checkpoint`](jetstream_core::StreamingEngine::from_checkpoint).
//!
//! The workspace builds fully offline, so the binary formats and the CRC-32
//! implementation are hand-rolled on `std` alone (see DESIGN.md
//! §"Persistence & recovery" for the on-disk layout).
//!
//! # Example
//!
//! ```
//! use jetstream_algorithms::Sssp;
//! use jetstream_core::{EngineConfig, StreamingEngine};
//! use jetstream_graph::{AdjacencyGraph, UpdateBatch};
//! use jetstream_store::{DurableEngine, RecoveryOptions, StoreOptions};
//!
//! # fn main() -> Result<(), jetstream_store::StoreError> {
//! let dir = std::env::temp_dir().join(format!("jss-doc-{}", std::process::id()));
//! let mut g = AdjacencyGraph::new(3);
//! # let _ = std::fs::remove_dir_all(&dir);
//! g.insert_edge(0, 1, 4.0).map_err(jetstream_store::StoreError::Graph)?;
//!
//! let mut engine = StreamingEngine::new(Box::new(Sssp::new(0)), g, EngineConfig::default());
//! engine.initial_compute();
//! let mut durable = DurableEngine::create(&dir, engine, StoreOptions::default())?;
//!
//! let mut batch = UpdateBatch::new();
//! batch.insert(1, 2, 1.0);
//! durable.apply_update_batch(&batch)?;
//!
//! // A crash here loses nothing: warm-restart from the directory.
//! drop(durable);
//! let (recovered, report) = DurableEngine::recover(
//!     &dir,
//!     Box::new(Sssp::new(0)),
//!     EngineConfig::default(),
//!     StoreOptions::default(),
//!     RecoveryOptions::default(),
//! )?;
//! assert_eq!(recovered.engine().values()[2], 5.0);
//! assert_eq!(report.recovered_sequence, 1);
//! # let _ = std::fs::remove_dir_all(&dir);
//! # Ok(())
//! # }
//! ```

mod codec;
mod error;
mod fsutil;
mod manifest;
mod store;

pub mod crc32;
pub mod recovery;
pub mod snapshot;
pub mod wal;

pub use error::StoreError;
pub use recovery::{RecoveryOptions, RecoveryReport};
pub use store::{CapturedCheckpoint, DurableEngine, DurableStore, PublishStep, StoreOptions};
