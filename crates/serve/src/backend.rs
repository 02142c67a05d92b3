//! The engine the server fronts: a [`StreamingEngine`], volatile
//! (in-memory only) or durable (checkpoints + WAL via `jetstream-store`).

use jetstream_core::{BatchClassification, RunStats, StreamingEngine};
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
    Durable(Box<DurableEngine>),
}

impl Backend {
    /// The served engine, whichever way it is kept.
    pub fn engine(&self) -> &StreamingEngine {
        match self {
            Backend::Volatile(e) => e,
            Backend::Durable(d) => d.engine(),
        }
    }

    /// Borrowed converged state for answering point queries.
    pub fn query_state(&self) -> QueryState<'_> {
        QueryState::from(self.engine())
    }

    /// The graph the engine is mounted on.
    pub fn graph(&self) -> &AdjacencyGraph {
        self.engine().graph()
    }

    /// Classifies a batch against the pre-batch state
    /// ([`StreamingEngine::classify_batch`]), then applies it through the
    /// engine's one flow, persisting it first when durable.
    ///
    /// # Errors
    ///
    /// Engine validation failures (unreachable for admission-validated
    /// batches) or store I/O failures.
    pub fn apply_admitted(
        &mut self,
        batch: &UpdateBatch,
    ) -> Result<(RunStats, BatchClassification), ServeError> {
        let class = self.engine().classify_batch(batch);
        let stats = match self {
            Backend::Volatile(e) => e.apply_update_batch(batch).map_err(ServeError::Graph),
            Backend::Durable(d) => d.apply_update_batch(batch).map_err(ServeError::Store),
        }?;
        Ok((stats, class))
    }

    /// Forces a durable checkpoint (no-op for a volatile backend).
    ///
    /// # Errors
    ///
    /// Store I/O failures.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        match self {
            Backend::Volatile(_) => Ok(()),
            Backend::Durable(d) => d.checkpoint().map(|_| ()),
        }
    }
}
