//! Inputs and engines of a scenario: the seeded graph and stream, and one
//! engine per standing query behind a common face so the sequential and
//! the 2-shard async executors run through identical benchmark code.

use jetstream_algorithms::{Algorithm, Value, Workload};
use jetstream_bench::harness::{root_for, ACCUMULATIVE_EPSILON};
use jetstream_core::{
    BatchClassification, EngineConfig, ExecutionMode, RunStats, ShardedEngine, StreamingEngine,
};
use jetstream_graph::{AdjacencyGraph, CsrPair, GraphError, UpdateBatch, VertexId};

use crate::spec::{Path, Scenario, GRAPH_SCALE, HOLDOUT};
use crate::stream::ChurnStream;

/// Shards of the async executor under test.
pub const ASYNC_SHARDS: usize = 2;

/// What a seed turns into: the base graph, the query root and the stream.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The graph before the first batch.
    pub base: AdjacencyGraph,
    /// Source vertex of the single-source queries (highest out-degree).
    pub root: VertexId,
    /// The update stream, positioned at its first batch.
    pub stream: ChurnStream,
}

impl Inputs {
    /// Generates the scenario's graph (fixed per profile) and splits it by
    /// `seed` into base graph and hold-out pool.
    pub fn generate(scenario: &Scenario, seed: u64) -> Inputs {
        let full = scenario.profile.generate(GRAPH_SCALE);
        let (base, stream) = ChurnStream::split(&full, HOLDOUT, seed);
        let root = root_for(&base);
        Inputs { base, root, stream }
    }

    /// The next `count` batches of the scenario's size.
    pub fn take_batches(&mut self, scenario: &Scenario, count: usize) -> Vec<UpdateBatch> {
        (0..count).map(|_| self.stream.next_batch(scenario.batch_updates)).collect()
    }
}

/// The algorithm object for `workload`, at the harness epsilon.
pub fn algorithm(workload: Workload, root: VertexId) -> Box<dyn Algorithm> {
    workload.instantiate_with_epsilon(root, ACCUMULATIVE_EPSILON)
}

/// Converged values and dependence tree of one query, for warm starts.
#[derive(Debug, Clone)]
pub struct Converged {
    /// Per-vertex values.
    pub values: Vec<Value>,
    /// DAP dependence parents.
    pub dependency: Vec<Option<VertexId>>,
}

/// A sequential engine over `host` restored to `state`.
pub fn warm_sequential(
    workload: Workload,
    root: VertexId,
    host: AdjacencyGraph,
    state: &Converged,
) -> Result<StreamingEngine, String> {
    StreamingEngine::from_checkpoint(
        algorithm(workload, root),
        host,
        state.values.clone(),
        state.dependency.clone(),
        EngineConfig::default(),
    )
    .map_err(|e| e.to_string())
}

/// One engine, sequential or sharded.
#[derive(Debug)]
pub enum Engine {
    /// `StreamingEngine`.
    Sequential(Box<StreamingEngine>),
    /// `ShardedEngine`, [`ASYNC_SHARDS`] shards, `ExecutionMode::Async`.
    Async(Box<ShardedEngine>),
}

impl Engine {
    /// An unconverged engine over `host`.
    pub fn cold(
        sequential: bool,
        workload: Workload,
        root: VertexId,
        host: AdjacencyGraph,
    ) -> Self {
        let alg = algorithm(workload, root);
        if sequential {
            return Engine::Sequential(Box::new(StreamingEngine::new(
                alg,
                host,
                EngineConfig::default(),
            )));
        }
        let mut engine = ShardedEngine::new(alg, host, EngineConfig::default(), ASYNC_SHARDS);
        engine.set_execution_mode(ExecutionMode::Async);
        Engine::Async(Box::new(engine))
    }

    /// An engine restored to `state`, which must have converged over `host`.
    pub fn warm(
        sequential: bool,
        workload: Workload,
        root: VertexId,
        host: AdjacencyGraph,
        state: &Converged,
    ) -> Result<Self, String> {
        if sequential {
            let engine = warm_sequential(workload, root, host, state)?;
            return Ok(Engine::Sequential(Box::new(engine)));
        }
        let engine = ShardedEngine::from_checkpoint(
            algorithm(workload, root),
            host,
            state.values.clone(),
            state.dependency.clone(),
            EngineConfig::default(),
            ASYNC_SHARDS,
        );
        let mut engine = engine.map_err(|e| e.to_string())?;
        engine.set_execution_mode(ExecutionMode::Async);
        Ok(Engine::Async(Box::new(engine)))
    }

    /// Cold evaluation on the current graph.
    pub fn initial_compute(&mut self) -> RunStats {
        match self {
            Engine::Sequential(e) => e.initial_compute(),
            Engine::Async(e) => e.initial_compute(),
        }
    }

    /// Applies one batch and re-converges.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<RunStats, GraphError> {
        match self {
            Engine::Sequential(e) => e.apply_update_batch(batch),
            Engine::Async(e) => e.apply_update_batch(batch),
        }
    }

    /// Safe/unsafe tally of `batch` against the converged state.
    pub fn classify(&self, batch: &UpdateBatch) -> BatchClassification {
        match self {
            Engine::Sequential(e) => e.classify_batch(batch),
            Engine::Async(e) => e.classify_batch(batch),
        }
    }

    /// Converged values.
    pub fn values(&self) -> &[Value] {
        match self {
            Engine::Sequential(e) => e.values(),
            Engine::Async(e) => e.values(),
        }
    }

    /// The engine's host graph.
    pub fn graph(&self) -> &AdjacencyGraph {
        match self {
            Engine::Sequential(e) => e.graph(),
            Engine::Async(e) => e.graph(),
        }
    }

    /// The engine's maintained CSR pair.
    pub fn csr(&self) -> &CsrPair {
        match self {
            Engine::Sequential(e) => e.csr(),
            Engine::Async(e) => e.csr(),
        }
    }

    /// Values and dependence tree, for [`Engine::warm`].
    pub fn converged(&self) -> Converged {
        let dependency = match self {
            Engine::Sequential(e) => e.dependencies(),
            Engine::Async(e) => e.dependencies(),
        };
        Converged { values: self.values().to_vec(), dependency: dependency.to_vec() }
    }
}

/// One engine per standing query of a scenario, fed the same batches.
#[derive(Debug)]
pub struct EngineSet {
    /// `(query, engine)` in the scenario's order.
    pub members: Vec<(Workload, Engine)>,
}

impl EngineSet {
    /// Unconverged engines for every query of `scenario` over `base`.
    pub fn cold(scenario: &Scenario, base: &AdjacencyGraph, root: VertexId) -> Self {
        let sequential = scenario.path != Path::Async2;
        let members = scenario
            .algorithms
            .iter()
            .map(|&w| (w, Engine::cold(sequential, w, root, base.clone())))
            .collect();
        EngineSet { members }
    }

    /// Engines restored to `states` (one per query, in order).
    pub fn warm(
        scenario: &Scenario,
        base: &AdjacencyGraph,
        root: VertexId,
        states: &[Converged],
    ) -> Result<Self, String> {
        let sequential = scenario.path != Path::Async2;
        let members = scenario
            .algorithms
            .iter()
            .zip(states)
            .map(|(&w, s)| Ok((w, Engine::warm(sequential, w, root, base.clone(), s)?)))
            .collect::<Result<_, String>>()?;
        Ok(EngineSet { members })
    }

    /// Cold evaluation of every query; summed work counters.
    pub fn initial_compute(&mut self) -> RunStats {
        let mut total = RunStats::default();
        for (_, engine) in &mut self.members {
            total += engine.initial_compute();
        }
        total
    }

    /// Brings every query to convergence on `batch`; summed work counters.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<RunStats, GraphError> {
        let mut total = RunStats::default();
        for (_, engine) in &mut self.members {
            total += engine.apply(batch)?;
        }
        Ok(total)
    }

    /// Converged state of every query, in order.
    pub fn converged(&self) -> Vec<Converged> {
        self.members.iter().map(|(_, e)| e.converged()).collect()
    }
}
