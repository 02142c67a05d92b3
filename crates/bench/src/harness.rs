//! Shared measurement harness: one function per (system × scenario).
//!
//! Every experiment in the paper's §6 is a combination of a workload, a
//! dataset, a batch recipe, and a system (JetStream, GraphPulse cold-start,
//! KickStarter, or GraphBolt). [`Scenario`] captures the combination;
//! the `run_*` functions execute it and return timing plus operation
//! statistics, or a [`HarnessError`] tagged with the scenario when a
//! generated batch fails to apply. Accelerator time is *simulated* cycles
//! at 1 GHz (`jetstream-sim`); software time is wall-clock of the
//! single-threaded Rust baselines.

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;
use std::time::Instant;

use jetstream_algorithms::{UpdateKind, Workload};
use jetstream_baselines::{GraphBolt, KickStarter, SoftwareStats};
use jetstream_core::{DeleteStrategy, EngineConfig, RunStats, StreamingEngine};
use jetstream_graph::gen::{DatasetProfile, EdgeStream};
use jetstream_graph::{AdjacencyGraph, GraphError, UpdateBatch, VertexId};
use jetstream_sim::{AcceleratorSim, SimConfig, SimReport};

/// One experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Graph algorithm under evaluation.
    pub workload: Workload,
    /// Input dataset profile (Table 2).
    pub profile: DatasetProfile,
    /// Scale divisor applied to the paper's dataset and batch sizes.
    pub scale: u32,
    /// Update batch size (already scaled).
    pub batch: usize,
    /// Fraction of the batch that is insertions (paper default: 0.7).
    pub insertion_fraction: f64,
    /// Delete-propagation strategy for JetStream.
    pub strategy: DeleteStrategy,
    /// Batch generation seed.
    pub seed: u64,
    /// Number of consecutive batches to average over (reduces seed
    /// variance; the paper reports per-query times over a stream).
    pub rounds: usize,
}

impl Scenario {
    /// The paper's default streaming scenario: a 100 K-update batch
    /// (scaled), 70 % insertions, DAP.
    pub fn paper_default(workload: Workload, profile: DatasetProfile, scale: u32) -> Self {
        Scenario {
            workload,
            profile,
            scale,
            batch: profile.scaled_batch(100_000, scale),
            insertion_fraction: 0.7,
            strategy: DeleteStrategy::Dap,
            seed: 0xbeef,
            rounds: 3,
        }
    }

    pub(crate) fn graph_error(&self, source: GraphError) -> HarnessError {
        HarnessError {
            workload: self.workload.name(),
            profile: self.profile.tag(),
            kind: HarnessErrorKind::Graph(source),
        }
    }

    pub(crate) fn no_batches(&self) -> HarnessError {
        HarnessError {
            workload: self.workload.name(),
            profile: self.profile.tag(),
            kind: HarnessErrorKind::NoBatches,
        }
    }
}

/// A harness run failed; carries the scenario context so batch-generation
/// bugs report *which* experiment broke instead of panicking mid-table.
#[derive(Debug)]
pub struct HarnessError {
    /// Workload name of the failing scenario.
    pub workload: &'static str,
    /// Dataset tag of the failing scenario.
    pub profile: &'static str,
    /// Underlying failure.
    pub kind: HarnessErrorKind,
}

/// What went wrong inside a harness run.
#[derive(Debug)]
#[non_exhaustive]
pub enum HarnessErrorKind {
    /// A generated update batch failed to apply to the engine's graph.
    Graph(GraphError),
    /// The scenario produced no batches, so there is nothing to measure.
    NoBatches,
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario {} on {}: ", self.workload, self.profile)?;
        match &self.kind {
            HarnessErrorKind::Graph(e) => write!(f, "update batch failed to apply: {e}"),
            HarnessErrorKind::NoBatches => write!(f, "no batches to measure"),
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            HarnessErrorKind::Graph(e) => Some(e),
            HarnessErrorKind::NoBatches => None,
        }
    }
}

/// Result of an accelerator run (JetStream or GraphPulse cold-start).
#[derive(Debug, Clone)]
pub struct AcceleratorRun {
    /// Cycle-level simulation report.
    pub sim: SimReport,
    /// Functional operation counts.
    pub stats: RunStats,
}

/// Result of a software baseline run.
#[derive(Debug, Clone, Copy)]
pub struct SoftwareRun {
    /// Operation counts.
    pub stats: SoftwareStats,
    /// Measured wall-clock milliseconds (single-threaded).
    pub time_ms: f64,
}

/// Returns the cached scaled dataset for `(profile, scale)`.
///
/// Generation is deterministic, so all experiments in one process share the
/// same graphs. The cache leaks (it lives for the process lifetime), which
/// is exactly what a benchmark harness wants.
pub fn dataset(profile: DatasetProfile, scale: u32) -> &'static AdjacencyGraph {
    static CACHE: Mutex<Option<HashMap<(DatasetProfile, u32), &'static AdjacencyGraph>>> =
        Mutex::new(None);
    // A poisoned lock only means another test thread panicked mid-insert;
    // the map of leaked pointers is still structurally sound.
    let mut guard = CACHE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let map = guard.get_or_insert_with(HashMap::new);
    map.entry((profile, scale)).or_insert_with(|| Box::leak(Box::new(profile.generate(scale))))
}

/// Deterministic query root: the highest-out-degree vertex, so
/// single-source queries reach a large part of the graph.
pub fn root_for(graph: &AdjacencyGraph) -> VertexId {
    (0..graph.num_vertices() as VertexId).max_by_key(|&v| graph.degree(v)).unwrap_or(0)
}

/// The base graph and successive update batches a scenario uses, built
/// with the standard streaming-evaluation methodology: 10 % of the
/// dataset's real edges are held out of the base graph, and insertions
/// replay held-out edges while deletions sample present ones (see
/// [`EdgeStream`]).
pub fn base_and_batches(scenario: &Scenario) -> (AdjacencyGraph, Vec<UpdateBatch>) {
    let full = dataset(scenario.profile, scenario.scale);
    let mut stream = EdgeStream::new(full, 0.1, scenario.seed);
    let base = stream.graph().clone();
    let batches = (0..scenario.rounds.max(1))
        .map(|_| stream.next_batch(scenario.batch, scenario.insertion_fraction))
        .collect();
    (base, batches)
}

/// Relative convergence threshold used by the harness for accumulative
/// workloads (the algorithms' default).
pub const ACCUMULATIVE_EPSILON: f64 = 1e-5;

fn algorithm_for(scenario: &Scenario, root: VertexId) -> Box<dyn jetstream_algorithms::Algorithm> {
    scenario.workload.instantiate_with_epsilon(root, ACCUMULATIVE_EPSILON)
}

fn engine_for(scenario: &Scenario, base: AdjacencyGraph) -> StreamingEngine {
    let root = root_for(&base);
    let config = EngineConfig {
        delete_strategy: scenario.strategy,
        num_bins: 16,
        ..EngineConfig::default()
    };
    StreamingEngine::new(algorithm_for(scenario, root), base, config)
}

/// JetStream: converge the initial query, then stream the scenario's
/// batches incrementally; returns the mean simulated cost per batch.
pub fn run_jetstream(scenario: &Scenario) -> Result<AcceleratorRun, HarnessError> {
    let (base, batches) = base_and_batches(scenario);
    let mut engine = engine_for(scenario, base);
    engine.initial_compute();
    let mut sim = AcceleratorSim::new(SimConfig::jetstream(scenario.strategy));
    let mut stats = RunStats::default();
    let mut report: Option<SimReport> = None;
    for batch in &batches {
        engine.set_tracing(true);
        stats += engine.apply_update_batch(batch).map_err(|e| scenario.graph_error(e))?;
        let trace = engine.take_trace();
        let r = sim.replay(&trace, engine.csr());
        report = Some(match report.take() {
            None => r,
            Some(acc) => merge_reports(acc, r),
        });
    }
    let n = batches.len() as u64;
    let mut sim_report = report.ok_or_else(|| scenario.no_batches())?;
    sim_report.cycles /= n;
    divide_stats(&mut stats, n);
    Ok(AcceleratorRun { sim: sim_report, stats })
}

fn merge_reports(mut acc: SimReport, r: SimReport) -> SimReport {
    acc.cycles += r.cycles;
    acc.dram.reads += r.dram.reads;
    acc.dram.writes += r.dram.writes;
    acc.dram.row_hits += r.dram.row_hits;
    acc.dram.bytes_transferred += r.dram.bytes_transferred;
    acc.bytes_used += r.bytes_used;
    acc.events_processed += r.events_processed;
    acc.events_generated += r.events_generated;
    acc.spilled_events += r.spilled_events;
    acc
}

fn divide_stats(stats: &mut RunStats, n: u64) {
    stats.events_processed /= n;
    stats.events_generated /= n;
    stats.vertex_reads /= n;
    stats.vertex_writes /= n;
    stats.edge_reads /= n;
    stats.resets /= n;
    stats.restored /= n;
    stats.delete_events /= n;
    stats.request_events /= n;
    stats.stream_reads /= n;
    stats.rounds /= n;
    stats.events_coalesced /= n;
}

/// GraphPulse cold-start: apply the batch, then recompute the query from
/// scratch on the accelerator (the hardware baseline of Table 3).
pub fn run_graphpulse_cold(scenario: &Scenario) -> Result<AcceleratorRun, HarnessError> {
    // Cold-start cost is batch-independent (the whole graph is recomputed
    // either way), so one restart on the first batch suffices.
    let (base, batches) = base_and_batches(scenario);
    let first = batches.first().ok_or_else(|| scenario.no_batches())?;
    let mut engine = engine_for(scenario, base);
    engine.initial_compute();
    let mut sim = AcceleratorSim::new(SimConfig::graphpulse());
    engine.set_tracing(true);
    let stats = engine.cold_restart(first).map_err(|e| scenario.graph_error(e))?;
    let trace = engine.take_trace();
    let sim_report = sim.replay(&trace, engine.csr());
    Ok(AcceleratorRun { sim: sim_report, stats })
}

/// The GraphPulse *initial* (static) evaluation on the scenario's graph —
/// the reference for Fig. 11's utilization comparison.
pub fn run_graphpulse_initial(scenario: &Scenario) -> Result<AcceleratorRun, HarnessError> {
    let (base, _) = base_and_batches(scenario);
    let mut engine = engine_for(scenario, base);
    engine.set_tracing(true);
    let stats = engine.initial_compute();
    let trace = engine.take_trace();
    let mut sim = AcceleratorSim::new(SimConfig::graphpulse());
    let sim_report = sim.replay(&trace, engine.csr());
    Ok(AcceleratorRun { sim: sim_report, stats })
}

/// KickStarter software baseline (selective workloads): converge, then
/// stream one batch; wall-clock covers only the batch.
///
/// # Panics
///
/// Panics for accumulative workloads.
pub fn run_kickstarter(scenario: &Scenario) -> Result<SoftwareRun, HarnessError> {
    assert_eq!(scenario.workload.kind(), UpdateKind::Selective);
    let (base, batches) = base_and_batches(scenario);
    let root = root_for(&base);
    let mut ks = KickStarter::new(algorithm_for(scenario, root), base);
    ks.initial_compute();
    let mut stats = SoftwareStats::default();
    let start = Instant::now();
    for batch in &batches {
        let s = ks.apply_batch(batch).map_err(|e| scenario.graph_error(e))?;
        stats.vertex_reads += s.vertex_reads;
        stats.vertex_writes += s.vertex_writes;
        stats.edge_reads += s.edge_reads;
        stats.resets += s.resets;
        stats.rounds += s.rounds;
    }
    let n = batches.len() as u64;
    let time_ms = start.elapsed().as_secs_f64() * 1e3 / n as f64;
    stats.resets /= n;
    Ok(SoftwareRun { stats, time_ms })
}

/// GraphBolt software baseline (accumulative workloads).
///
/// # Panics
///
/// Panics for selective workloads.
pub fn run_graphbolt(scenario: &Scenario) -> Result<SoftwareRun, HarnessError> {
    assert_eq!(scenario.workload.kind(), UpdateKind::Accumulative);
    let (base, batches) = base_and_batches(scenario);
    let root = root_for(&base);
    let mut gb = GraphBolt::new(algorithm_for(scenario, root), base);
    gb.initial_compute();
    let mut stats = SoftwareStats::default();
    let start = Instant::now();
    for batch in &batches {
        let s = gb.apply_batch(batch).map_err(|e| scenario.graph_error(e))?;
        stats.vertex_reads += s.vertex_reads;
        stats.vertex_writes += s.vertex_writes;
        stats.edge_reads += s.edge_reads;
        stats.resets += s.resets;
        stats.rounds += s.rounds;
    }
    let n = batches.len() as u64;
    let time_ms = start.elapsed().as_secs_f64() * 1e3 / n as f64;
    stats.resets /= n;
    Ok(SoftwareRun { stats, time_ms })
}

/// The matching software framework for a workload (KickStarter for
/// selective, GraphBolt for accumulative), as in Table 3.
pub fn run_software(scenario: &Scenario) -> Result<SoftwareRun, HarnessError> {
    match scenario.workload.kind() {
        UpdateKind::Selective => run_kickstarter(scenario),
        UpdateKind::Accumulative => run_graphbolt(scenario),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload) -> Scenario {
        Scenario {
            workload,
            profile: DatasetProfile::Facebook,
            scale: 20_000,
            batch: 20,
            insertion_fraction: 0.7,
            strategy: DeleteStrategy::Dap,
            seed: 7,
            rounds: 2,
        }
    }

    #[test]
    fn dataset_is_cached_and_deterministic() {
        let a = dataset(DatasetProfile::Facebook, 20_000);
        let b = dataset(DatasetProfile::Facebook, 20_000);
        assert!(std::ptr::eq(a, b));
        assert!(a.num_edges() > 0);
    }

    #[test]
    fn jetstream_beats_cold_start_on_default_scenario() {
        let s = tiny(Workload::Sssp);
        let jet = run_jetstream(&s).unwrap();
        let cold = run_graphpulse_cold(&s).unwrap();
        assert!(jet.sim.time_ms() < cold.sim.time_ms());
        assert!(jet.stats.vertex_accesses() < cold.stats.vertex_accesses());
    }

    #[test]
    fn software_baselines_run_all_workloads() {
        for w in Workload::ALL {
            let s = tiny(w);
            let run = run_software(&s).unwrap();
            assert!(run.time_ms >= 0.0, "{}", w.name());
        }
    }

    #[test]
    fn harness_error_renders_context() {
        let s = tiny(Workload::Sssp);
        let err = s.graph_error(GraphError::SelfLoop { vertex: 3 });
        let text = err.to_string();
        assert!(text.contains("SSSP"), "{text}");
        assert!(text.contains("FB"), "{text}");
        assert!(std::error::Error::source(&err).is_some());
        assert!(s.no_batches().to_string().contains("no batches"));
    }

    #[test]
    fn root_is_a_hub() {
        let g = dataset(DatasetProfile::Facebook, 20_000);
        let root = root_for(g);
        let max_deg = (0..g.num_vertices() as VertexId).map(|v| g.degree(v)).max().unwrap();
        assert_eq!(g.degree(root), max_deg);
    }
}
