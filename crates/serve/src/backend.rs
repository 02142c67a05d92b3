//! The engine the server fronts: volatile (in-memory only), durable
//! (checkpoints + WAL via `jetstream-store`), or sharded (in-memory,
//! multi-worker, barrier-free — DESIGN.md §16).

use jetstream_algorithms::Algorithm;
use jetstream_core::{BatchClassification, EngineConfig, RunStats, ShardedEngine, StreamingEngine};
use jetstream_graph::{AdjacencyGraph, UpdateBatch};
use jetstream_store::{DurableEngine, StoreError};

use crate::queries::QueryState;
use crate::ServeError;

/// What the serving loop applies batches to.
#[derive(Debug)]
pub enum Backend {
    /// A bare in-memory engine; state dies with the process. Boxed so
    /// the variants stay close in size.
    Volatile(Box<StreamingEngine>),
    /// An engine wrapped in the durable store: every applied batch is
    /// WAL-appended, with interval checkpoints (DESIGN.md §10).
    Durable(Box<DurableEngine<StreamingEngine>>),
    /// A multi-worker in-memory engine (`--shards`). State dies with the
    /// process.
    Sharded(Box<ShardedEngine>),
}

impl Backend {
    /// Borrowed converged state for answering point queries.
    pub fn query_state(&self) -> QueryState<'_> {
        match self {
            Backend::Volatile(e) => QueryState::from(&**e),
            Backend::Durable(d) => QueryState::from(d.engine()),
            Backend::Sharded(e) => QueryState::from(&**e),
        }
    }

    /// The graph the wrapped engine is mounted on.
    pub fn graph(&self) -> &AdjacencyGraph {
        match self {
            Backend::Volatile(e) => e.graph(),
            Backend::Durable(d) => d.engine().graph(),
            Backend::Sharded(e) => e.graph(),
        }
    }

    /// The wrapped engine's algorithm.
    pub fn algorithm(&self) -> &dyn Algorithm {
        match self {
            Backend::Volatile(e) => e.algorithm(),
            Backend::Durable(d) => d.engine().algorithm(),
            Backend::Sharded(e) => e.algorithm(),
        }
    }

    /// The wrapped engine's configuration.
    pub fn config(&self) -> EngineConfig {
        match self {
            Backend::Volatile(e) => e.config(),
            Backend::Durable(d) => d.engine().config(),
            Backend::Sharded(e) => e.config(),
        }
    }

    /// Applies a batch through the admission-classified path
    /// ([`StreamingEngine::apply_admitted_batch`]), persisting it first
    /// when durable.
    ///
    /// # Errors
    ///
    /// Engine validation failures (unreachable for admission-validated
    /// batches) or store I/O failures.
    pub fn apply_admitted(
        &mut self,
        batch: &UpdateBatch,
    ) -> Result<(RunStats, BatchClassification), ServeError> {
        match self {
            Backend::Volatile(e) => e.apply_admitted_batch(batch).map_err(ServeError::Graph),
            Backend::Durable(d) => d.apply_admitted_batch(batch).map_err(ServeError::Store),
            Backend::Sharded(e) => e.apply_admitted_batch(batch).map_err(ServeError::Graph),
        }
    }

    /// The store's durable sequence number (batches persisted so far);
    /// `0` for volatile backends.
    pub fn sequence(&self) -> u64 {
        match self {
            Backend::Volatile(_) | Backend::Sharded(_) => 0,
            Backend::Durable(d) => d.sequence(),
        }
    }

    /// Forces a durable checkpoint (no-op for volatile backends).
    ///
    /// # Errors
    ///
    /// Store I/O failures.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        match self {
            Backend::Volatile(_) | Backend::Sharded(_) => Ok(()),
            Backend::Durable(d) => d.checkpoint().map(|_| ()),
        }
    }
}
