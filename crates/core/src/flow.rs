//! The JetStream streaming flow (§4.6), written once.
//!
//! The paper has one execution flow that any number of processing lanes
//! drain: static evaluation (§4.6.1), and per update batch delete setup →
//! delete propagation → request setup → insert setup → recompute (§4.6.2,
//! Algorithms 2–6). [`StreamingFlow`] owns everything that flow is a
//! function of — the graph (out- and in-edge CSR), vertex values, the
//! dependence tree, the impacted list, the coordinator's [`RunStats`], the
//! tracer, and the per-batch scratch — and is the only place phases are
//! sequenced, checkpoints are mounted, updates are classified
//! (RisGraph-style safe/unsafe, a property of the converged state and not
//! of how many threads drain the queue), and convergence is validated.
//!
//! What differs between engines is only *how a phase's seeded events are
//! drained to quiescence*. That is the [`Executor`]:
//! [`Sequential`](crate::Sequential) drains one coalescing queue in
//! canonical rounds and is the reference; [`Sharded`](crate::Sharded)
//! drains one queue per worker thread, barrier-free. Dispatch is static
//! (the flow is monomorphised per executor, as [`kernel::process_event`]
//! already is per `ExecState`). The one phase no executor drains is a DAP
//! delete wave (§5.2): its events must not coalesce, so the flow runs it
//! itself, as a [`DeleteWave`] of rows, on the calling thread.

use jetstream_algorithms::{Algorithm, EdgeCtx, EdgeOp, Reduce, UpdateKind, Value};
use jetstream_graph::{ix, vid, CheckedBatch, Csr, CsrPair, GraphError, UpdateBatch, VertexId};

use crate::engine::{
    check_checkpoint_state, AccumulativeRecovery, BatchClassification, CheckpointError,
    DeleteStrategy, EngineConfig, UpdateSafety,
};
use crate::event::{Carry, Event, Row};
use crate::kernel::{self, ExecState, KernelCtx, VertexState};
use crate::queue::{CoalescingQueue, QueueStats};
use crate::restore::Restore;
use crate::stats::{Phase, RunStats};
use crate::trace::{OpKind, TraceBuilder, TraceOp};

/// The flow state one drain reads and writes, lent to the executor for the
/// duration of [`Drain::drain`](sealed::Drain::drain), and to the DAP
/// [`DeleteWave`].
pub struct RunState<'a> {
    pub(crate) values: &'a mut [Value],
    pub(crate) dependency: &'a mut [Option<VertexId>],
    /// Vertices reset by this drain are appended in the executor's
    /// canonical order, and the values they held to `previous` in step.
    pub(crate) impacted: &'a mut Vec<VertexId>,
    pub(crate) previous: &'a mut Vec<Value>,
    /// The current run's counters; workers' shares are folded in before
    /// the drain returns.
    pub(crate) stats: &'a mut RunStats,
    pub(crate) tracer: &'a mut TraceBuilder,
}

pub(crate) mod sealed {
    use super::{Event, KernelCtx, QueueStats, Reduce, Row, RunState, RunStats};

    /// The seams [`StreamingFlow`](super::StreamingFlow) needs around an
    /// event queue. Crate-private by construction: the module is not
    /// exported, so [`Executor`](super::Executor) cannot be implemented
    /// (or these methods called) downstream.
    pub trait Drain: std::fmt::Debug {
        /// Queues one setup-phase event, counting it in `stats`; `reduce`
        /// is the algorithm's operator, should it coalesce.
        fn seed(&mut self, reduce: Reduce, stats: &mut RunStats, ev: Event);
        /// Queues a setup-phase row — exactly as if each of
        /// [`Row::events`] had gone through [`seed`](Drain::seed) in row
        /// order, with `stats` booked once for the row.
        fn seed_row(&mut self, reduce: Reduce, stats: &mut RunStats, row: Row<'_>);
        /// Drains everything seeded (and everything that emits) to
        /// quiescence through [`kernel::process_event`](crate::kernel).
        fn drain(&mut self, cx: &KernelCtx<'_>, run: RunState<'_>);
        /// Cumulative queue statistics over every queue the executor owns.
        fn queue_stats(&self) -> QueueStats;
        /// Errors when an event is still queued anywhere, or a queue's
        /// internal invariants do not hold.
        fn validate_drained(&self) -> Result<(), String>;
    }
}

/// How a [`StreamingFlow`] drains a phase's events to quiescence.
///
/// Sealed: the two implementations are [`Sequential`](crate::Sequential)
/// and [`Sharded`](crate::Sharded).
pub trait Executor: sealed::Drain {}

/// The JetStream functional engine: the §4.6 flow over a pluggable
/// [`Executor`].
///
/// Runs any [`Algorithm`] with the event-driven execution model of
/// GraphPulse (Algorithm 1) and supports streaming update batches with the
/// JetStream recovery flows:
///
/// * selective algorithms: delete tagging → impacted reset → request-based
///   re-approximation → insertion events → recompute (Algorithms 4 & 5),
///   where DAP with restore first hands back exactly supplied values and
///   re-approximates by pull;
/// * accumulative algorithms: sink transform → negative deltas on the
///   intermediate graph → re-insertion events → recompute (Algorithms 3 & 6,
///   Fig. 5).
///
/// Use it through the aliases [`StreamingEngine`](crate::StreamingEngine)
/// and [`ShardedEngine`](crate::ShardedEngine), which also carry the
/// constructors.
#[derive(Debug)]
pub struct StreamingFlow<X: Executor> {
    alg: Box<dyn Algorithm>,
    /// `alg`'s operator, resolved once: every seed needs it.
    reduce: Reduce,
    csr: CsrPair,
    values: Vec<Value>,
    dependency: Vec<Option<VertexId>>,
    impacted: Vec<VertexId>,
    config: EngineConfig,
    /// The current run's counters: setup-phase work is counted here
    /// directly, drains add theirs through [`RunState`].
    stats: RunStats,
    pub(crate) tracer: TraceBuilder,
    pub(crate) exec: X,
    /// The values the vertices in `impacted` held, and the DAP restore
    /// step's scratch.
    restore: Restore,
    /// The DAP delete wave's levels, reused across batches.
    wave: DeleteWave,
    /// The accumulative flow's reusable per-batch buffer (executors keep
    /// their own drain buffers): the sorted, deduplicated sources an
    /// accumulative batch touches, which both of its set-up phases walk. It
    /// grows to its high-water mark once and is empty between batches, so
    /// steady-state streaming allocates nothing. Every other row a set-up
    /// phase needs is read in place from the CSR — at the pre-batch
    /// version before [`CsrPair::commit`], at the new one after — so
    /// nothing else is copied.
    touched_scratch: Vec<VertexId>,
}

impl<X: Executor> StreamingFlow<X> {
    /// Mounts a flow on `graph`: from `state` (`values`, `dependency`) when
    /// given, cold (identity values, no dependences) otherwise. `exec`
    /// builds the executor from the graph and its transpose.
    pub(crate) fn mount(
        alg: Box<dyn Algorithm>,
        graph: Csr,
        config: EngineConfig,
        state: Option<(Vec<Value>, Vec<Option<VertexId>>)>,
        exec: impl FnOnce(&CsrPair) -> X,
    ) -> Self {
        let csr = CsrPair::new(graph);
        let n = csr.num_vertices();
        let (values, dependency) =
            state.unwrap_or_else(|| (vec![alg.identity(); n], vec![None; n]));
        StreamingFlow {
            exec: exec(&csr),
            reduce: alg.reduce_op(),
            alg,
            csr,
            values,
            dependency,
            impacted: Vec::new(),
            restore: Restore::default(),
            wave: DeleteWave::default(),
            config,
            stats: RunStats::default(),
            tracer: TraceBuilder::default(),
            touched_scratch: Vec::new(),
        }
    }

    /// Warm-starts a flow from previously converged state, after checking
    /// (once) that the state can belong to `graph`. The public contract is
    /// on the `from_checkpoint` wrappers.
    pub(crate) fn mount_checkpoint(
        alg: Box<dyn Algorithm>,
        graph: Csr,
        values: Vec<Value>,
        dependency: Vec<Option<VertexId>>,
        config: EngineConfig,
        exec: impl FnOnce(&CsrPair) -> X,
    ) -> Result<Self, CheckpointError> {
        check_checkpoint_state(&graph, &values, &dependency)?;
        Ok(Self::mount(alg, graph, config, Some((values, dependency)), exec))
    }

    /// The algorithm being evaluated.
    pub fn algorithm(&self) -> &dyn Algorithm {
        self.alg.as_ref()
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Current converged (or in-progress) vertex values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The evolving graph: the out-edge half of [`csr`](Self::csr).
    pub fn graph(&self) -> &Csr {
        &self.csr.out
    }

    /// The graph and its transpose, at the current version.
    pub fn csr(&self) -> &CsrPair {
        &self.csr
    }

    /// Vertices reset during the most recent streaming batch (Fig. 10), in
    /// reset order. A DAP delete wave runs on the flow's thread, so both
    /// executors report the sequential order; a Tag or VAP wave drained by
    /// [`Sharded`](crate::Sharded) is reported in ascending vertex id.
    pub fn last_impacted(&self) -> &[VertexId] {
        &self.impacted
    }

    /// The recorded dependency (`Leads-To`) source of each vertex under DAP
    /// (§5.2): the vertex whose contribution last changed this vertex's
    /// state, or `None` for initializer-seeded or reset vertices.
    pub fn dependencies(&self) -> &[Option<VertexId>] {
        &self.dependency
    }

    /// Cumulative queue statistics, rolled up over every queue the
    /// executor owns.
    pub fn queue_stats(&self) -> QueueStats {
        self.exec.queue_stats()
    }

    /// Runs the static (cold) evaluation from scratch on the current graph
    /// version — the GraphPulse execution flow (§4.6.1).
    pub fn initial_compute(&mut self) -> RunStats {
        self.stats = RunStats::default();
        let identity = self.alg.identity();
        self.values.fill(identity);
        self.dependency.fill(None);
        self.tracer.begin_phase(Phase::Initial);
        // `InitialEvents()`: every vertex's seed, in ascending id order.
        for v in (0..self.csr.num_vertices()).map(vid) {
            let Some(val) = self.alg.initial_event(v) else { continue };
            let targets_start = self.tracer.targets_start();
            self.exec.seed(self.reduce, &mut self.stats, Event::regular(v, val));
            self.tracer.push_targets(&[v]);
            self.tracer.push_op(setup_op(OpKind::StreamRead, v, 0, targets_start, 1));
        }
        self.tracer.end_round();
        self.drain();
        // A cold evaluation reports the queues' cumulative coalesce counter
        // (not a per-run delta).
        self.finish_run(0)
    }

    /// Applies a streaming update batch and incrementally reevaluates the
    /// query (the JetStream flow, §4.6.2).
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] when the batch is invalid against the
    /// current graph version (the graph and query state are unchanged).
    pub fn apply_update_batch(&mut self, batch: &UpdateBatch) -> Result<RunStats, GraphError> {
        self.stream_batch(batch, false)
    }

    /// Checks the engine's cross-structure invariants after a completed
    /// computation, returning a description of the first violation found:
    ///
    /// * every event queue is fully drained and internally consistent;
    /// * the active CSR pair is structurally valid and direction-symmetric;
    /// * under DAP, every recorded `Leads-To` dependency (§5.2) is an edge
    ///   of the active graph — a dangling dependency means a deleted edge's
    ///   contribution survived recovery (the recoverable-approximation
    ///   property of §3.4 would be broken) — that supplies its vertex's
    ///   value exactly (`propagate` over the edge, bit for bit), and the
    ///   dependencies form a forest, with no cycle;
    /// * selective algorithms: the values are a fixed point — no edge can
    ///   still improve its target, i.e. for every edge `u -> v` the
    ///   contribution `u` currently sends over it reduces into `v`'s value
    ///   without changing it;
    /// * accumulative algorithms: every value is finite (the rollback and
    ///   replay waves of Fig. 5 must cancel, never diverge).
    ///
    /// Always compiled; `apply_update_batch` and `initial_compute` wire it
    /// into a debug assertion under the `strict-invariants` feature.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate_converged(&self) -> Result<(), String> {
        self.exec.validate_drained()?;
        self.csr.validate().map_err(|e| format!("csr: {e}"))?;
        kernel::validate_converged_values(&self.cx(), &self.values, &self.dependency)
    }

    /// Classifies a single insertion against the converged state.
    ///
    /// Selective (monotone) algorithms admit any insertion safely: the new
    /// edge can only *improve* its target, which the ordinary insert flow
    /// handles without delete recovery. Accumulative algorithms are always
    /// unsafe: an out-edge changes the source's contribution factor
    /// (`1/deg` or `w/wsum`), forcing the rollback/replay waves of Fig. 5.
    pub fn classify_insert(&self) -> UpdateSafety {
        match self.alg.kind() {
            UpdateKind::Selective => UpdateSafety::Safe,
            UpdateKind::Accumulative => UpdateSafety::Unsafe,
        }
    }

    /// Classifies a single deletion against the converged state: the
    /// RisGraph safe/unsafe pre-check, realized on JetStream's dependence
    /// tree (§5.2). Under DAP, deleting `u -> v` is safe exactly when the
    /// kernel's reset guard would not reset `v` on a delete event from `u`:
    /// readable in O(1) *before* the batch is scheduled, and then provably a
    /// no-op for the query state.
    ///
    /// Anything that cannot be proven safe — a tree-edge delete, a non-DAP
    /// strategy, an accumulative algorithm, an out-of-range id (left for
    /// the apply path to reject with a typed error) — is `Unsafe`.
    pub fn classify_delete(&self, source: VertexId, target: VertexId) -> UpdateSafety {
        let cx = self.cx();
        match (self.values.get(ix(target)), self.dependency.get(ix(target))) {
            (Some(&value), Some(&dependency))
                if cx.dap_active
                    && !kernel::dap_resets(&cx, dependency, Some(source), || value) =>
            {
                UpdateSafety::Safe
            }
            _ => UpdateSafety::Unsafe,
        }
    }

    /// Tallies [`classify_insert`](Self::classify_insert) and
    /// [`classify_delete`](Self::classify_delete) over a whole batch
    /// against the *pre-batch* converged state.
    ///
    /// The tally stays valid for every deletion in the batch even though
    /// they apply together: a safe deletion resets nothing, so it cannot
    /// flip another deletion's classification mid-batch.
    pub fn classify_batch(&self, batch: &UpdateBatch) -> BatchClassification {
        let mut class = BatchClassification::default();
        match self.classify_insert() {
            UpdateSafety::Safe => class.safe_inserts = batch.insertions().len(),
            UpdateSafety::Unsafe => class.unsafe_inserts = batch.insertions().len(),
        }
        for &(u, v) in batch.deletions() {
            match self.classify_delete(u, v) {
                UpdateSafety::Safe => class.safe_deletes += 1,
                UpdateSafety::Unsafe => class.unsafe_deletes += 1,
            }
        }
        class
    }

    /// Applies a streaming batch through the admission pre-check: when
    /// every deletion is provably safe (DAP, non-tree edges;
    /// [`BatchClassification::skips_delete_phases`]), the delete
    /// setup/propagation/re-approximation phases are skipped entirely and
    /// only the insert flow runs — the RisGraph-style fast path for
    /// monotone-safe updates. Otherwise this is exactly
    /// [`apply_update_batch`](Self::apply_update_batch).
    ///
    /// Values, dependencies, and the impacted set are bit-identical to the
    /// full path either way (the skipped delete wave is a proven no-op on
    /// all three); [`RunStats`] and queue statistics reflect the work
    /// actually performed, so the fast path reports fewer events.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] when the batch is invalid against the
    /// current graph version (the graph and query state are unchanged).
    pub fn apply_admitted_batch(
        &mut self,
        batch: &UpdateBatch,
    ) -> Result<(RunStats, BatchClassification), GraphError> {
        let class = self.classify_batch(batch);
        self.stream_batch(batch, class.skips_delete_phases()).map(|stats| (stats, class))
    }

    /// Applies the batch and recomputes from scratch — the GraphPulse
    /// "cold-start" baseline the paper compares against.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] when the batch is invalid.
    pub fn cold_restart(&mut self, batch: &UpdateBatch) -> Result<RunStats, GraphError> {
        self.csr.apply_batch(batch)?;
        Ok(self.initial_compute())
    }

    // ------------------------------------------------------------------
    // Seams to the executor
    // ------------------------------------------------------------------

    fn cx(&self) -> KernelCtx<'_> {
        KernelCtx::new(self.alg.as_ref(), &self.csr, self.config.delete_strategy)
    }

    /// The active CSR's kernel context and the flow state a drain or the
    /// DAP delete wave runs on, with the executor and the wave.
    fn lend(&mut self) -> (KernelCtx<'_>, RunState<'_>, &mut X, &mut DeleteWave) {
        let StreamingFlow {
            alg,
            csr,
            config,
            values,
            dependency,
            impacted,
            restore,
            stats,
            tracer,
            exec,
            wave,
            ..
        } = self;
        let cx = KernelCtx::new(&**alg, csr, config.delete_strategy);
        let previous = &mut restore.previous;
        (cx, RunState { values, dependency, impacted, previous, stats, tracer }, exec, wave)
    }

    /// Drains the seeded events to quiescence on the active CSR.
    fn drain(&mut self) {
        let (cx, run, exec, _) = self.lend();
        exec.drain(&cx, run);
    }

    fn drain_phase(&mut self, phase: Phase) {
        self.tracer.begin_phase(phase);
        self.drain();
    }

    /// Runs the seeded DAP delete wave on the active CSR, over the whole
    /// vectors, on this thread, whatever the executor.
    fn run_delete_wave(&mut self) {
        let (cx, run, _, wave) = self.lend();
        wave.run(&cx, run);
    }

    /// Closes a run: reports the coalescing the queues did since
    /// `coalesced_before` and, under `strict-invariants`, asserts
    /// convergence.
    fn finish_run(&mut self, coalesced_before: u64) -> RunStats {
        self.stats.events_coalesced = self.exec.queue_stats().coalesced - coalesced_before;
        #[cfg(feature = "strict-invariants")]
        debug_assert_eq!(self.validate_converged(), Ok(()), "post-run invariant violated");
        self.stats
    }

    /// One streaming batch through the flow of the algorithm's family;
    /// `skip_deletes` is the admitted fast path's proof that the selective
    /// delete phases are no-ops.
    fn stream_batch(
        &mut self,
        batch: &UpdateBatch,
        skip_deletes: bool,
    ) -> Result<RunStats, GraphError> {
        self.stats = RunStats::default();
        let coalesced_before = self.exec.queue_stats().coalesced;
        match self.alg.kind() {
            UpdateKind::Selective => self.stream_selective(batch, skip_deletes)?,
            UpdateKind::Accumulative => self.stream_accumulative(batch)?,
        }
        Ok(self.finish_run(coalesced_before))
    }

    // ------------------------------------------------------------------
    // Selective (monotonic) streaming flow — Algorithms 4 & 5
    // ------------------------------------------------------------------

    fn stream_selective(
        &mut self,
        batch: &UpdateBatch,
        skip_deletes: bool,
    ) -> Result<(), GraphError> {
        // The whole batch is validated first, once; nothing is seeded for a
        // rejected one. The delete phase runs on the old graph (the batch
        // is committed only after recovery), which is also where VAP reads
        // a deleted edge's weight.
        let checked = self.csr.out.check_batch(batch)?;
        self.impacted.clear();
        self.restore.previous.clear();
        if skip_deletes {
            // Classification proved phases 1–3 no-ops.
            self.csr.commit(checked);
        } else {
            self.recover_deletes(batch, checked);
        }

        // Phase 4 — stream inserted edges into regular events
        // (Algorithm 2); they coalesce with pending request events.
        self.tracer.begin_phase(Phase::InsertSetup);
        let StreamingFlow { alg, reduce, csr, config, values, stats, tracer, exec, .. } = self;
        let cx = KernelCtx::new(alg.as_ref(), csr, config.delete_strategy);
        for &(u, v, w) in batch.insertions() {
            stats.stream_reads += 1;
            stats.vertex_reads += 1;
            let targets_start = tracer.targets_start();
            let delta = kernel::supply(&cx, values[ix(u)], u, w);
            if let Some(d) = delta {
                let source = cx.dap_active.then_some(u);
                exec.seed(*reduce, stats, Event { source, ..Event::regular(v, d) });
                tracer.push_targets(&[v]);
            }
            let emitted = usize::from(delta.is_some());
            tracer.push_op(setup_op(OpKind::StreamRead, u, 0, targets_start, emitted));
        }
        self.tracer.end_round();

        // Phase 5 — incremental reevaluation on the new graph.
        self.drain_phase(Phase::Recompute);
        Ok(())
    }

    /// Phases 1–3 of the selective flow (Algorithm 4), around the version
    /// switch.
    fn recover_deletes(&mut self, batch: &UpdateBatch, checked: CheckedBatch<'_>) {
        // Phase 1 — stream deleted edges into delete events (Algorithm 4,
        // ProcessDeletesSelective; §4.6.2 "Delete Setup and Preparation").
        // DAP keeps per-source delete events distinct from the very first
        // on — two deletions targeting the same vertex carry different
        // sources and must both be examined (§5.2) — so they seed the
        // wave, not a queue.
        self.tracer.begin_phase(Phase::DeleteSetup);
        let StreamingFlow { alg, reduce, csr, config, values, stats, tracer, exec, wave, .. } =
            self;
        let cx = KernelCtx::new(alg.as_ref(), csr, config.delete_strategy);
        for &(u, v) in batch.deletions() {
            stats.stream_reads += 1;
            stats.vertex_reads += 1; // source state read
            let targets_start = tracer.targets_start();
            let payload = match cx.delete_strategy {
                DeleteStrategy::Tag | DeleteStrategy::Dap | DeleteStrategy::DapRestore => {
                    Some(cx.identity)
                }
                // Payload carries the contribution that flowed over the
                // deleted edge; if the source never propagated there is
                // nothing to revert.
                DeleteStrategy::Vap => csr
                    .out
                    .edge_weight(u, v)
                    .and_then(|weight| kernel::supply(&cx, values[ix(u)], u, weight)),
            };
            if let Some(payload) = payload {
                let ev = Event::delete(u, v, payload);
                if cx.dap_active {
                    wave.seed(stats, ev);
                } else {
                    exec.seed(*reduce, stats, ev);
                }
                tracer.push_targets(&[v]);
            }
            let emitted = usize::from(payload.is_some());
            tracer.push_op(setup_op(OpKind::StreamRead, u, 0, targets_start, emitted));
        }
        let dap = cx.dap_active;
        self.tracer.end_round();

        // Phase 2 — delete propagation on the *old* graph: tag and reset
        // every potentially impacted vertex (Algorithm 4, ResetImpacted).
        if dap {
            self.tracer.begin_phase(Phase::DeletePropagation);
            self.run_delete_wave();
        } else {
            self.drain_phase(Phase::DeletePropagation);
        }

        // The §3.5 version switch, in place in O(batch · degree).
        self.csr.commit(checked);

        // Phase 3 — re-approximate each reset vertex from its in-edges
        // (Algorithm 4, Reapproximate): the paper's flows seed the borrowed
        // in-edge row whole as request events; DAP with restore scans the
        // row once, hands back each previous value a valid in-neighbour
        // still supplies exactly (DESIGN.md §3.1), and seeds the rest's
        // best valid supply.
        self.tracer.begin_phase(Phase::RequestSetup);
        let StreamingFlow {
            alg,
            reduce,
            csr,
            config,
            values,
            dependency,
            impacted,
            restore,
            stats,
            tracer,
            exec,
            ..
        } = self;
        let cx = KernelCtx::new(alg.as_ref(), csr, config.delete_strategy);
        if cx.delete_strategy == DeleteStrategy::DapRestore {
            restore.run(&cx, impacted, values, dependency, stats, tracer);
            restore.seed(&cx, impacted, values, dependency, tracer, |ev| {
                exec.seed(*reduce, stats, ev)
            });
        } else {
            for &x in impacted.iter() {
                // The Leads-To parent the wave left is gone; recompute
                // records the next one.
                dependency[ix(x)] = None;
                let targets_start = tracer.targets_start();
                let sources = csr.inc.neighbor_targets(x);
                stats.edge_reads += sources.len() as u64;
                stats.request_events += sources.len() as u64;
                let carry = Carry::Request { payload: cx.identity };
                exec.seed_row(*reduce, stats, Row { targets: sources, carry });
                tracer.push_targets(sources);
                let replayed =
                    replay_initializer(&cx, x, tracer, |ev| exec.seed(*reduce, stats, ev));
                let generated = sources.len() + usize::from(replayed);
                let op = setup_op(OpKind::RequestSetup, x, sources.len(), targets_start, generated);
                tracer.push_op(op);
            }
        }
        self.tracer.end_round();
    }

    // ------------------------------------------------------------------
    // Accumulative streaming flow — Algorithms 3 & 6, Fig. 5
    // ------------------------------------------------------------------

    fn stream_accumulative(&mut self, batch: &UpdateBatch) -> Result<(), GraphError> {
        // The whole batch is validated first, once; nothing is seeded for
        // a rejected one. The graph stays at the pre-batch version until
        // Phase 1 has read it.
        let checked = self.csr.out.check_batch(batch)?;
        self.impacted.clear();
        // `touched` vertices have an out-edge added or deleted: their
        // per-edge contribution factor (1/deg or w/wsum) changes, so the
        // sink transform of Fig. 5 removes *all* their out-edges first.
        // The buffer is swapped out of `self` for the batch and goes back
        // empty, so steady-state streaming allocates nothing.
        let mut touched = std::mem::take(&mut self.touched_scratch);
        touched.extend(batch.deletions().iter().map(|&(u, _)| u));
        touched.extend(batch.insertions().iter().map(|&(u, _, _)| u));
        touched.sort_unstable();
        touched.dedup();

        // Phase 1 — negative events for every old out-edge of a touched
        // vertex, using the old degree/weight-sum (Algorithm 3): the rows
        // are still the old ones.
        self.seed_contributions(Phase::DeleteSetup, &touched, true);

        // The §3.5 version switch.
        self.csr.commit(checked);

        if self.config.accumulative_recovery == AccumulativeRecovery::TwoPhase {
            // Compute on the intermediate graph: the old graph with all
            // touched vertices turned into sinks, breaking every cyclic
            // path through them (Fig. 5b). Untouched vertices' out-edges
            // are identical before and after the batch, so the new graph
            // filtered by `touched` yields exactly the old graph's
            // non-touched edges. The maintained pair is parked while the
            // intermediate computation runs and restored for Phase 2.
            let intermediate_edges: Vec<(VertexId, VertexId, Value)> = self
                .csr
                .out
                .iter_edges()
                .filter(|(u, _, _)| touched.binary_search(u).is_err())
                .collect();
            let intermediate =
                CsrPair::new(Csr::from_edges(self.csr.num_vertices(), &intermediate_edges));
            let maintained = std::mem::replace(&mut self.csr, intermediate);
            self.drain_phase(Phase::IntermediateCompute);
            self.csr = maintained;
        }

        // Phase 2 — re-insertion events for every *new* out-edge of a
        // touched vertex, using the new degree/weight-sum (Fig. 5c). Under
        // coalesced recovery nothing has drained since Phase 1, so these
        // replay the very state the rollback used and merge in the queue
        // with the pending negative events, cancelling the rollback of
        // kept edges; two-phase recovery replays whatever state the
        // intermediate convergence left.
        self.seed_contributions(Phase::InsertSetup, &touched, false);
        touched.clear();
        self.touched_scratch = touched;

        // Phase 3 — recompute on the new graph version.
        self.drain_phase(Phase::Recompute);
        Ok(())
    }

    /// One accumulative set-up phase (§4.6.2 "Delete Setup and
    /// Preparation"): streams each touched vertex's out-edge row from the
    /// CSR, as it stands, into one event per edge carrying the
    /// vertex's cumulative contribution over that edge — negated when
    /// `rollback`. Where the contribution is the same for every edge of a
    /// row ([`EdgeOp::Uniform`]) it is evaluated once and the row goes to
    /// the executor whole.
    fn seed_contributions(&mut self, phase: Phase, touched: &[VertexId], rollback: bool) {
        self.tracer.begin_phase(phase);
        let StreamingFlow { alg, reduce, csr, config, values, stats, tracer, exec, .. } = self;
        let cx = KernelCtx::new(alg.as_ref(), csr, config.delete_strategy);
        for &u in touched {
            let state = values[ix(u)];
            let out_degree = csr.out.degree(u);
            stats.vertex_reads += 1;
            stats.stream_reads += out_degree as u64;
            let targets_start = tracer.targets_start();
            let contribution = |weight: Value, weight_sum: Value| {
                let ctx = EdgeCtx { weight, out_degree, weight_sum };
                let c = alg.cumulative_edge_contribution(state, &ctx)?;
                (c != 0.0).then_some(if rollback { -c } else { c })
            };
            let mut generated = 0;
            if cx.edge_op == EdgeOp::Uniform {
                // The per-edge fields are unread, so zeros produce the
                // identical contribution.
                if let Some(c) = contribution(0.0, 0.0) {
                    let targets = csr.out.neighbor_targets(u);
                    let carry = Carry::Regular { delta: c, source: None };
                    exec.seed_row(*reduce, stats, Row { targets, carry });
                    tracer.push_targets(targets);
                    generated = targets.len();
                }
            } else {
                let weight_sum = cx.weight_sum(u);
                for e in csr.out.neighbors(u) {
                    if let Some(c) = contribution(e.weight, weight_sum) {
                        exec.seed(*reduce, stats, Event::regular(e.other, c));
                        tracer.push_targets(&[e.other]);
                        generated += 1;
                    }
                }
            }
            tracer.push_op(setup_op(OpKind::StreamRead, u, out_degree, targets_start, generated));
        }
        self.tracer.end_round();
    }
}

/// The kernel's [`ExecState`] on the flow's thread: the flow's whole
/// vectors, counters and tracer, with `out` taking the emissions. The
/// sequential executor drains its queue through it; the DAP [`DeleteWave`]
/// runs its levels through it.
pub(crate) struct FlowState<'a, O> {
    verts: VertexState<'a>,
    pub(crate) out: &'a mut O,
    stats: &'a mut RunStats,
    tracer: &'a mut TraceBuilder,
    impacted: &'a mut Vec<VertexId>,
    previous: &'a mut Vec<Value>,
    reduce: Reduce,
}

/// Where a [`FlowState`] sends an emission once it has booked it.
pub(crate) trait Outlet {
    /// Takes one event.
    fn event(&mut self, ev: Event, reduce: Reduce);
    /// Takes a row.
    fn row(&mut self, row: Row<'_>, reduce: Reduce);
}

impl Outlet for CoalescingQueue {
    #[inline]
    fn event(&mut self, ev: Event, reduce: Reduce) {
        self.insert_with(ev, reduce);
    }

    #[inline]
    fn row(&mut self, row: Row<'_>, reduce: Reduce) {
        self.insert_row(0, row, reduce);
    }
}

impl<'a, O: Outlet> FlowState<'a, O> {
    /// Lends `run` to the kernel, with emissions going to `out`.
    pub(crate) fn new(run: RunState<'a>, reduce: Reduce, out: &'a mut O) -> Self {
        let RunState { values, dependency, impacted, previous, stats, tracer } = run;
        let verts = VertexState { lo: 0, values, dependency };
        FlowState { verts, out, stats, tracer, impacted, previous, reduce }
    }

    /// Closes a round: every processing lane has drained once (§4.3).
    pub(crate) fn end_round(&mut self) {
        self.stats.rounds += 1;
        self.tracer.end_round();
    }

    /// Books emissions to `targets` once: generated events and the traced
    /// targets.
    #[inline]
    fn book_row(&mut self, targets: &[VertexId]) {
        self.stats.events_generated += targets.len() as u64;
        self.tracer.push_targets(targets);
    }
}

impl<'a, O: Outlet> ExecState<'a> for FlowState<'a, O> {
    fn verts(&mut self) -> &mut VertexState<'a> {
        &mut self.verts
    }

    fn stats(&mut self) -> &mut RunStats {
        self.stats
    }

    fn impacted(&mut self, v: VertexId, previous: Value) {
        self.impacted.push(v);
        self.previous.push(previous);
    }

    fn emit(&mut self, ev: Event) {
        self.book_row(&[ev.target]);
        self.out.event(ev, self.reduce);
    }

    // hot-path
    fn emit_row(&mut self, row: Row<'_>) {
        self.book_row(row.targets);
        self.out.row(row, self.reduce);
    }

    fn trace_targets_start(&mut self) -> u32 {
        self.tracer.targets_start()
    }

    fn trace_push_op(&mut self, op: TraceOp) {
        self.tracer.push_op(op);
    }
}

/// The DAP delete wave (§5.2) in levels, as the paper's generation streams
/// walk a row (§4.4). Level 0 is the batch's seeded deletes, in batch
/// order; each later level is the out-rows of the vertices the level
/// before reset, in emission order, each read from the active CSR when
/// its level comes (the batch is committed only after the wave). A level
/// is a round. The buffers live as long as the flow and are empty between
/// waves, so a wave allocates nothing in steady state.
#[derive(Debug, Default)]
pub(crate) struct DeleteWave {
    /// Level 0.
    seeds: Vec<Event>,
    /// The next level: the sources of the delete rows emitted so far.
    next: Vec<VertexId>,
    /// The level being processed.
    level: Vec<VertexId>,
}

/// A [`DeleteWave`]'s next level takes the source of each delete row; an
/// empty row sends nothing, so it must not make a level.
impl Outlet for Vec<VertexId> {
    fn event(&mut self, _: Event, _: Reduce) {
        debug_assert!(false, "a DAP delete wave emits whole rows");
    }

    // hot-path
    fn row(&mut self, row: Row<'_>, _: Reduce) {
        if let Carry::Delete { source, .. } = row.carry {
            if !row.targets.is_empty() {
                self.push(source);
            }
        }
    }
}

impl DeleteWave {
    /// Queues a seeded delete for level 0, booked as an executor books a
    /// seed: one generated event.
    fn seed(&mut self, stats: &mut RunStats, ev: Event) {
        stats.events_generated += 1;
        self.seeds.push(ev);
    }

    /// Runs the seeded wave to its end through the kernel: level 0's
    /// events through [`kernel::process_event`], every later level's rows
    /// through [`kernel::process_delete_row`].
    // hot-path
    fn run(&mut self, cx: &KernelCtx<'_>, run: RunState<'_>) {
        let DeleteWave { seeds, next, level } = self;
        let mut st = FlowState::new(run, cx.reduce, next);
        while !seeds.is_empty() || !st.out.is_empty() {
            std::mem::swap(level, st.out);
            for &ev in seeds.iter() {
                kernel::process_event(cx, &mut st, ev);
            }
            for &source in level.iter() {
                kernel::process_delete_row(cx, &mut st, source);
            }
            seeds.clear();
            level.clear();
            st.end_round();
        }
    }
}

/// Replays the initializer's contribution for the reset vertex `x`
/// through `seed`, tracing its target: values seeded by `InitialEvents()`
/// (the query root, CC self-labels) do not arrive over any edge, so
/// neither requests nor a pull can restore them. True when it seeded.
pub(crate) fn replay_initializer(
    cx: &KernelCtx<'_>,
    x: VertexId,
    tracer: &mut TraceBuilder,
    seed: impl FnOnce(Event),
) -> bool {
    let Some(value) = cx.alg.initial_event(x) else { return false };
    seed(Event::regular(x, value));
    tracer.push_targets(&[x]);
    true
}

/// The traced form of one setup-phase op that read `edges_read` edges and
/// seeded `generated` events since `targets_start`.
fn setup_op(
    kind: OpKind,
    vertex: VertexId,
    edges_read: usize,
    targets_start: u32,
    generated: usize,
) -> TraceOp {
    let [edges_read, targets_len] = [edges_read, generated].map(|n| n as u32); // cast-ok: counts bounded by num_edges < 2^32, checked at graph construction
    TraceOp { vertex, kind, changed: generated > 0, edges_read, targets_start, targets_len }
}
