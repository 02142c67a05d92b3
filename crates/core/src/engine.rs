//! The engine's vocabulary (configuration, update classification,
//! checkpoint errors) and the sequential executor behind
//! [`StreamingEngine`]. The streaming flow itself lives in [`crate::flow`].

use jetstream_algorithms::{Algorithm, Reduce, Value};
use jetstream_graph::{Csr, CsrPair, VertexId};

use crate::event::{Event, Row};
use crate::flow::sealed::Drain;
use crate::flow::{Executor, FlowState, RunState, StreamingFlow};
use crate::kernel::{self, KernelCtx};
use crate::queue::{CoalescingQueue, QueueStats};
use crate::stats::RunStats;
use crate::trace::Trace;

/// Delete-propagation strategy (§3.4 base algorithm and the §5 optimizations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeleteStrategy {
    /// Baseline tagging: every delete event resets its target (Algorithm 4).
    Tag,
    /// Value-aware propagation: a delete is discarded when the receiver's
    /// state is strictly more progressed than the deleted contribution
    /// (§5.1).
    Vap,
    /// Dependency-aware propagation: a delete only resets its target when
    /// the target's recorded dependency matches the delete's source (§5.2),
    /// and every vertex still reset is re-approximated with request events
    /// (Algorithm 4) — the paper's DAP.
    Dap,
    /// [`Dap`](DeleteStrategy::Dap) with the restore extension (DESIGN.md
    /// §3.1), which the paper does not have: a reset vertex that a valid
    /// in-neighbour still supplies with its old value gets it back, and a
    /// vertex still reset pulls its best valid supply instead of sending
    /// request events. Same values as the paper's flows, less work; the
    /// default.
    #[default]
    DapRestore,
}

impl DeleteStrategy {
    /// All strategies in Fig. 12's order (Base, +VAP, +DAP), then the
    /// restore extension.
    pub const ALL: [DeleteStrategy; 4] =
        [DeleteStrategy::Tag, DeleteStrategy::Vap, DeleteStrategy::Dap, DeleteStrategy::DapRestore];

    /// Label used in Fig. 12.
    pub fn label(self) -> &'static str {
        match self {
            DeleteStrategy::Tag => "Base",
            DeleteStrategy::Vap => "+VAP",
            DeleteStrategy::Dap => "+DAP",
            DeleteStrategy::DapRestore => "+restore",
        }
    }

    /// Whether deletes follow the Leads-To forest (§5.2): the paper's DAP
    /// or its restore extension.
    pub fn is_dap(self) -> bool {
        matches!(self, DeleteStrategy::Dap | DeleteStrategy::DapRestore)
    }
}

/// How accumulative algorithms revert deleted contributions (§3.5,
/// Algorithms 3 & 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccumulativeRecovery {
    /// The paper's literal Algorithm 6: negative events converge on the
    /// sink-transformed intermediate graph, then re-insertion events
    /// converge on the new graph. Both waves carry full contribution
    /// magnitudes, so kept edges are rolled back and replayed in separate
    /// phases without cancelling.
    TwoPhase,
    /// Coalesced recovery (default): rollback (old-context) and replay
    /// (new-context) events are queued together, so the `-old` and `+new`
    /// contributions of every *kept* edge coalesce to a near-zero net
    /// delta before processing, and one computation on the new graph
    /// converges. Algebraically equivalent — the net seed plus incremental
    /// forwarding telescopes to `V_final·d/deg_new − V_old·d/deg_old` per
    /// edge — but the work scales with the batch instead of with the
    /// touched vertices' total contribution mass.
    #[default]
    Coalesced,
}

/// Per-batch RisGraph-style safe/unsafe tally (see PAPERS.md: RisGraph
/// classifies updates as *safe*, applicable without rescheduling a full
/// incremental re-evaluation, vs *unsafe*), computed by
/// [`StreamingFlow::classify_batch`] against the pre-batch converged
/// state. It is a report, not a path: every batch runs the one flow of
/// [`StreamingFlow::apply_update_batch`], and on a safe update that flow
/// resets nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchClassification {
    /// Insertions classified safe (selective algorithms: all of them).
    pub safe_inserts: usize,
    /// Insertions classified unsafe (accumulative algorithms: the source's
    /// contribution factor changes, forcing rollback/replay).
    pub unsafe_inserts: usize,
    /// Deletions of non-tree edges (provably no resets under DAP).
    pub safe_deletes: usize,
    /// Deletions that may reset their target and cascade.
    pub unsafe_deletes: usize,
}

impl BatchClassification {
    /// Total updates classified safe.
    pub fn safe(&self) -> usize {
        self.safe_inserts + self.safe_deletes
    }

    /// Total updates classified unsafe.
    pub fn unsafe_total(&self) -> usize {
        self.unsafe_inserts + self.unsafe_deletes
    }

    /// True when the batch has deletions and every one classified safe
    /// (so DAP is active): its delete phases reset nothing.
    pub fn has_only_safe_deletes(&self) -> bool {
        self.unsafe_deletes == 0 && self.safe_deletes > 0
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// How deletions are propagated and pruned (selective algorithms).
    pub delete_strategy: DeleteStrategy,
    /// How deleted contributions are reverted (accumulative algorithms).
    pub accumulative_recovery: AccumulativeRecovery,
    /// Number of queue bins (16 in the modelled hardware).
    pub num_bins: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            delete_strategy: DeleteStrategy::default(),
            accumulative_recovery: AccumulativeRecovery::default(),
            num_bins: 16,
        }
    }
}

/// Why restored checkpoint state cannot be mounted on a graph.
///
/// Produced by [`StreamingEngine::from_checkpoint`] and
/// [`ShardedEngine::from_checkpoint`](crate::ShardedEngine::from_checkpoint);
/// the durable-store crate maps this into its own error type when
/// recovering from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// A state vector's length does not match the graph's vertex count.
    LengthMismatch {
        /// Which vector mismatched (`"values"` or `"dependency"`).
        what: &'static str,
        /// Length of the supplied vector.
        found: usize,
        /// Vertex count of the supplied graph.
        num_vertices: usize,
    },
    /// A recorded Leads-To dependence refers to an edge absent from the
    /// graph — state and graph are from different moments in the stream.
    DanglingDependency {
        /// The vertex whose dependence is dangling.
        vertex: VertexId,
        /// The recorded source it claims to depend on.
        leads_to: VertexId,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::LengthMismatch { what, found, num_vertices } => write!(
                f,
                "{what} vector has length {found} but the graph has {num_vertices} vertices"
            ),
            CheckpointError::DanglingDependency { vertex, leads_to } => write!(
                f,
                "vertex {vertex} leads-to {leads_to}, but edge {leads_to} -> {vertex} \
                 is not in the graph"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Checks that restored checkpoint state can belong to `graph`: vector
/// lengths match the vertex count and every recorded Leads-To dependence is
/// an edge of the graph. Run once per mount, by
/// [`StreamingFlow::mount_checkpoint`].
pub(crate) fn check_checkpoint_state(
    graph: &Csr,
    values: &[Value],
    dependency: &[Option<VertexId>],
) -> Result<(), CheckpointError> {
    let n = graph.num_vertices();
    if values.len() != n {
        return Err(CheckpointError::LengthMismatch {
            what: "values",
            found: values.len(),
            num_vertices: n,
        });
    }
    if dependency.len() != n {
        return Err(CheckpointError::LengthMismatch {
            what: "dependency",
            found: dependency.len(),
            num_vertices: n,
        });
    }
    match kernel::dangling_dependency(graph, dependency) {
        Some((vertex, leads_to)) => Err(CheckpointError::DanglingDependency { vertex, leads_to }),
        None => Ok(()),
    }
}

/// The sequential [`Executor`]: one [`CoalescingQueue`]
/// drained in canonical rounds on the calling thread.
///
/// The reference the sharded executors are differentially tested against,
/// and the only executor that records kernel operations into a [`Trace`].
#[derive(Debug)]
pub struct Sequential {
    queue: CoalescingQueue,
    /// Reusable round buffer for [`drain`](Drain::drain): grows to the
    /// high-water event count once, then steady-state drains allocate
    /// nothing.
    round_scratch: Vec<Event>,
}

impl Sequential {
    fn new(csr: &CsrPair, config: &EngineConfig) -> Self {
        Sequential {
            queue: CoalescingQueue::new(csr.out.num_vertices(), config.num_bins),
            round_scratch: Vec::new(),
        }
    }
}

impl Executor for Sequential {}

/// The JetStream engine on the calling thread: the §4.6
/// [`StreamingFlow`] drained by the [`Sequential`] executor.
///
/// # Example
///
/// ```
/// use jetstream_core::{StreamingEngine, EngineConfig};
/// use jetstream_algorithms::Sssp;
/// use jetstream_graph::{Csr, UpdateBatch};
///
/// # fn main() -> Result<(), jetstream_graph::GraphError> {
/// let mut g = Csr::new(3);
/// g.insert_edge(0, 1, 4.0)?;
/// g.insert_edge(1, 2, 1.0)?;
///
/// let mut engine = StreamingEngine::new(Box::new(Sssp::new(0)), g, EngineConfig::default());
/// engine.initial_compute();
/// assert_eq!(engine.values()[2], 5.0);
///
/// let mut batch = UpdateBatch::new();
/// batch.insert(0, 2, 2.0); // a shortcut appears
/// engine.apply_update_batch(&batch)?;
/// assert_eq!(engine.values()[2], 2.0);
/// # Ok(())
/// # }
/// ```
pub type StreamingEngine = StreamingFlow<Sequential>;

impl StreamingFlow<Sequential> {
    /// Creates an engine over `graph` (the evolving graph) for `alg`.
    pub fn new(alg: Box<dyn Algorithm>, graph: Csr, config: EngineConfig) -> Self {
        Self::mount(alg, graph, config, None, |csr| Sequential::new(csr, &config))
    }

    /// Warm-starts an engine from previously converged state — the durable
    /// counterpart of the recoverable approximation of §3.4.
    ///
    /// `values` and `dependency` must be the `values()` / `dependencies()`
    /// of an engine (under any executor) that had converged over `graph`
    /// with the same algorithm. No recomputation happens: the event queue
    /// starts empty and the next `apply_update_batch` proceeds
    /// incrementally from the restored state, exactly as it would have on
    /// the original engine.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] when the restored state cannot belong to
    /// `graph`: mismatched lengths, or a dependence edge that does not exist
    /// in the graph. Value-level convergence is *not* re-derived here (that
    /// would be a cold start); callers wanting the full check can run
    /// [`validate_converged`](StreamingFlow::validate_converged) on the
    /// returned engine.
    pub fn from_checkpoint(
        alg: Box<dyn Algorithm>,
        graph: Csr,
        values: Vec<Value>,
        dependency: Vec<Option<VertexId>>,
        config: EngineConfig,
    ) -> Result<Self, CheckpointError> {
        Self::mount_checkpoint(alg, graph, values, dependency, config, |csr| {
            Sequential::new(csr, &config)
        })
    }

    /// Enables or disables operation tracing (for the cycle simulator).
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracer.set_enabled(enabled);
    }

    /// Takes the trace recorded since tracing was enabled (or the last take).
    pub fn take_trace(&mut self) -> Trace {
        self.tracer.take()
    }
}

impl Drain for Sequential {
    fn seed(&mut self, reduce: Reduce, stats: &mut RunStats, ev: Event) {
        stats.events_generated += 1;
        self.queue.insert_with(ev, reduce);
    }

    // hot-path
    fn seed_row(&mut self, reduce: Reduce, stats: &mut RunStats, row: Row<'_>) {
        stats.events_generated += row.targets.len() as u64;
        self.queue.insert_row(0, row, reduce);
    }

    /// Drains the queue in canonical rounds until it is empty.
    ///
    /// A round is the snapshot of every slot event queued at round start,
    /// in ascending vertex order. Events emitted while processing always
    /// belong to the *next* round — the double-buffered schedule of the
    /// paper's §4.3 scheduler, where a round completes when every bin has
    /// drained once and all processing lanes idle.
    fn drain(&mut self, cx: &KernelCtx<'_>, run: RunState<'_>) {
        // The reusable buffer is swapped out of `self` so draining into it
        // can coexist with the queue borrow below; it goes back at the
        // end, so the allocation survives across rounds and calls.
        let mut events = std::mem::take(&mut self.round_scratch);
        let mut st = FlowState::new(run, cx.reduce, &mut self.queue);
        while !st.out.is_empty() {
            events.clear();
            st.out.take_all_into(&mut events);
            for &ev in &events {
                kernel::process_event(cx, &mut st, ev);
            }
            st.end_round();
            #[cfg(feature = "strict-invariants")]
            st.out.debug_validate();
        }
        self.round_scratch = events;
    }

    fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    fn validate_drained(&self) -> Result<(), String> {
        if !self.queue.is_empty() {
            return Err(format!("queue still holds {} events", self.queue.len()));
        }
        self.queue.validate().map_err(|e| format!("queue: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Carry;
    use jetstream_algorithms::Sssp;

    fn chain() -> Csr {
        let mut g = Csr::new(4);
        g.insert_edge(0, 1, 1.0).unwrap();
        g.insert_edge(1, 2, 2.0).unwrap();
        g.insert_edge(2, 3, 3.0).unwrap();
        g
    }

    #[test]
    fn default_config_is_dap_restore_coalesced_16_bins() {
        let c = EngineConfig::default();
        assert_eq!(c.delete_strategy, DeleteStrategy::DapRestore);
        assert_eq!(c.accumulative_recovery, AccumulativeRecovery::Coalesced);
        assert_eq!(c.num_bins, 16);
    }

    #[test]
    fn strategy_labels_match_figure12() {
        let labels: Vec<_> = DeleteStrategy::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["Base", "+VAP", "+DAP", "+restore"]);
    }

    // A row through `seed_row` is that row through `seed`, event by event:
    // same resident events, same queue and run counters — for regular rows
    // and request rows alike.
    #[test]
    fn seed_row_is_seed_event_by_event() {
        let csr = CsrPair::new(jetstream_graph::Csr::new(12));
        let config = EngineConfig { num_bins: 4, ..Default::default() };
        let (regular, request) =
            (|delta| Carry::Regular { delta, source: None }, |payload| Carry::Request { payload });
        let rows = [
            Row { targets: &[1, 2, 5, 11], carry: regular(0.5) },
            Row { targets: &[0, 5, 6], carry: regular(-0.25) },
            Row { targets: &[], carry: request(1.0) },
            Row { targets: &[5], carry: regular(-0.25) },
            Row { targets: &[3, 4], carry: regular(2.0) },
            Row { targets: &[2, 7, 9], carry: request(0.0) },
        ];
        let (mut by_row, mut by_event) =
            (Sequential::new(&csr, &config), Sequential::new(&csr, &config));
        let (mut row_stats, mut event_stats) = (RunStats::default(), RunStats::default());
        for row in rows {
            by_row.seed_row(Reduce::Sum, &mut row_stats, row);
            for ev in row.events() {
                by_event.seed(Reduce::Sum, &mut event_stats, ev);
            }
        }
        let want = RunStats { events_generated: 13, ..RunStats::default() };
        assert_eq!(row_stats, want);
        assert_eq!(event_stats, want);
        assert_eq!(by_row.queue_stats(), by_event.queue_stats());
        assert_eq!(by_row.queue_stats().coalesced, 3, "vertex 5 is hit three times, 2 twice");
        let (mut drained, mut by_events) = (Vec::new(), Vec::new());
        by_row.queue.take_all_into(&mut drained);
        by_event.queue.take_all_into(&mut by_events);
        assert_eq!(drained, by_events);
        assert_eq!(drained.len(), 10);
        assert_eq!(drained[2], Event::request(2, 0.5), "a request arrival flags the resident");
        assert_eq!(drained[5], Event::regular(5, 0.5 - 0.25 - 0.25));
        assert_eq!(drained[7], Event::request(7, 0.0));
    }

    #[test]
    fn initial_compute_on_chain() {
        let mut e = StreamingEngine::new(Box::new(Sssp::new(0)), chain(), EngineConfig::default());
        let stats = e.initial_compute();
        assert_eq!(e.values(), &[0.0, 1.0, 3.0, 6.0]);
        assert_eq!(stats.events_processed, 4);
        assert_eq!(stats.vertex_writes, 4);
    }

    #[test]
    fn initial_compute_is_idempotent() {
        let mut e = StreamingEngine::new(Box::new(Sssp::new(0)), chain(), EngineConfig::default());
        e.initial_compute();
        let first = e.values().to_vec();
        e.initial_compute();
        assert_eq!(e.values(), &first[..]);
    }

    #[test]
    fn accessors_expose_engine_state() {
        let mut e = StreamingEngine::new(Box::new(Sssp::new(0)), chain(), EngineConfig::default());
        assert_eq!(e.algorithm().name(), "SSSP");
        assert_eq!(e.graph().num_edges(), 3);
        assert_eq!(e.csr().num_edges(), 3);
        assert_eq!(e.config().num_bins, 16);
        e.initial_compute();
        assert!(e.queue_stats().inserts > 0);
        assert!(e.last_impacted().is_empty());
        // Under DAP, each chain vertex depends on its predecessor.
        assert_eq!(e.dependencies()[1], Some(0));
        assert_eq!(e.dependencies()[2], Some(1));
        assert_eq!(e.dependencies()[3], Some(2));
        assert_eq!(e.dependencies()[0], None); // seeded by the initializer
    }

    #[test]
    fn tracing_off_by_default_yields_empty_trace() {
        let mut e = StreamingEngine::new(Box::new(Sssp::new(0)), chain(), EngineConfig::default());
        e.initial_compute();
        assert_eq!(e.take_trace().num_ops(), 0);
    }
}
