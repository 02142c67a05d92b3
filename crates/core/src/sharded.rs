//! Sharded parallel execution of the JetStream streaming flow.
//!
//! [`Sharded`] is the [`Executor`] behind [`ShardedEngine`]: it partitions
//! the vertex space into `S` contiguous shards (via
//! [`jetstream_graph::Partition::contiguous_balanced`]) and runs one
//! worker thread per shard. Each worker owns its shard's slice of the value
//! and dependency vectors plus a private [`CoalescingQueue`], mirroring the
//! paper's §4 queue/lane partitioning where every processing lane serves a
//! disjoint bin range of the event queue. The phases around a drain are
//! [`StreamingFlow`]'s, shared with the sequential executor.
//!
//! # Execution modes
//!
//! A drain is driven in one of two [`ExecutionMode`]s.
//! [`ExecutionMode::Async`] (DESIGN.md §16) is barrier-free: workers drain
//! continuously, cross-shard events travel as runs, and a double-probe
//! detector decides quiescence — value-equivalent to the sequential
//! engine, not schedule-equivalent. The default,
//! [`ExecutionMode::Deterministic`], is described below.
//!
//! # Determinism
//!
//! In deterministic mode the engine is **bit-deterministic for any shard
//! count and any thread schedule**, and bit-identical to [`StreamingEngine`]
//! (the differential suite in `tests/differential_sharded.rs` asserts it).
//! Three mechanisms make that hold:
//!
//! * **Supersteps.** Workers drain exactly the canonical round the
//!   sequential executor would: the events resident at round start, slot
//!   events in ascending vertex order first, overflowed delete events in
//!   FIFO order second. Everything emitted during a round is exchanged at a
//!   barrier and belongs to the next round.
//! * **Keyed exchange.** Every emission carries a totally ordered key
//!   `(class, major, idx)`: class 0 for emissions from slot-event
//!   processing (major = target vertex id), class 1 for emissions from
//!   overflow processing (major = a globally assigned FIFO counter), idx =
//!   the per-emitter emission index. Merging the per-shard outboxes by key
//!   reproduces the exact order the sequential executor would have inserted
//!   the same events into its single queue — so slot coalescing folds
//!   (which pick a "dominant source" order-sensitively) are bitwise equal.
//! * **Shared kernel.** Per-event semantics live in [`crate::kernel`] and
//!   are the same code the sequential executor runs.
//!
//! # Divergences from [`StreamingEngine`]
//!
//! * `queue_capacity` slicing (§4.7 spill accounting) is not modelled:
//!   `spilled_events` is always 0. Shards *are* the slicing.
//! * Kernel operations are not traced (traces are consumed by the cycle
//!   simulator, which models the sequential schedule).
//!
//! [`StreamingEngine`]: crate::StreamingEngine

use jetstream_algorithms::{Algorithm, Reduce, Value};
use jetstream_graph::partition::Partition;
use jetstream_graph::{ix, vid, AdjacencyGraph, Csr, VertexId};

use crate::engine::{CheckpointError, EngineConfig};
use crate::event::Event;
use crate::flow::sealed::Drain;
use crate::flow::{Executor, RunState, StreamingFlow};
use crate::kernel::{self, ExecState, KernelCtx, VertexState};
use crate::queue::{CoalescingQueue, QueueStats};
use crate::stats::RunStats;

/// Bits reserved for the per-emitter emission index.
const IDX_BITS: u32 = 32;
/// Key class for emissions produced while processing overflow events.
const OVERFLOW_CLASS: u128 = 1 << 96;

/// An event tagged with its position in the canonical emission order.
#[derive(Debug, Clone, Copy)]
struct Keyed {
    key: u128,
    ev: Event,
}

/// One shard: a contiguous vertex range with its own queue and counters.
#[derive(Debug)]
pub(crate) struct Shard {
    /// First vertex id owned by this shard (`lo..lo + queue width`).
    pub(crate) lo: VertexId,
    /// Local coalescing queue; indexed by `target - lo`.
    pub(crate) queue: CoalescingQueue,
    /// Accounting for delete events that bypass the queue while delete
    /// coalescing is off (the queue never sees them, so their
    /// inserts/overflowed/drained are tracked here).
    pub(crate) extra: QueueStats,
    /// This worker's share of the current run's counters.
    pub(crate) stats: RunStats,
    /// Cumulative superstep count (every worker participates in every
    /// round, so this is identical across shards); orders impacted records.
    /// In async mode this counts the worker's local processing passes
    /// instead, which are *not* synchronized across shards.
    pub(crate) rounds: u64,
    /// Vertices this worker reset during delete propagation, tagged with
    /// `(round, emission key base)` — sorting all shards' records by that
    /// pair reconstructs the exact order the sequential engine resets them.
    /// Async-mode records carry `(pass, 0)` tags and are sorted by vertex
    /// id instead (the async impacted order contract).
    pub(crate) impacted: Vec<(u64, u128, VertexId)>,
    /// FIFO of non-coalescible delete events, keyed by their globally
    /// assigned overflow counter.
    pub(crate) overflow: Vec<(u64, Event)>,
    /// Work units (events processed + edges read) this shard spent in each
    /// superstep of the current drain; folded into the executor's
    /// [`ParallelModel`] at the barrierless end of the call.
    pub(crate) round_costs: Vec<u64>,
    /// Persistent drain buffer for [`worker_round`]: grows to the shard's
    /// high-water event count once, then steady-state rounds allocate
    /// nothing.
    pub(crate) drain_scratch: Vec<Event>,
}

impl Shard {
    fn new(lo: usize, width: usize, num_bins: usize) -> Self {
        Shard {
            lo: vid(lo),
            queue: CoalescingQueue::new(width, num_bins),
            extra: QueueStats::default(),
            stats: RunStats::default(),
            rounds: 0,
            impacted: Vec::new(),
            overflow: Vec::new(),
            round_costs: Vec::new(),
            drain_scratch: Vec::new(),
        }
    }
}

/// Machine-independent parallel scaling model, accumulated over every
/// superstep since engine construction.
///
/// Work is counted in deterministic functional units — events processed
/// plus edges read — so the model is bit-reproducible on any host.
/// `critical_path` charges each superstep its slowest shard (the barrier
/// waits for it), which is the lower bound a perfectly overlapped exchange
/// could reach; coordinator merge time is not modelled. The `experiments
/// scaling` sweep reports this next to host wall-clock, which on a
/// single-core machine cannot show parallel speedup at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelModel {
    /// Total work units across all shards (equals the sequential engine's
    /// work for the same computation, since execution is bit-identical).
    pub total_work: u64,
    /// Per-superstep maximum over shards, summed over supersteps.
    pub critical_path: u64,
}

impl ParallelModel {
    /// `total_work / critical_path`: the speedup an ideal host would get
    /// from this shard count on this workload. 1.0 for a single shard;
    /// capped by load balance, not by the host's core count.
    pub fn modeled_speedup(&self) -> f64 {
        self.total_work as f64 / self.critical_path.max(1) as f64
    }
}

/// [`ExecState`] backed by one worker's owned slice of the global state.
/// Emissions go to the outbox with the next key in the canonical order.
struct WorkerState<'a> {
    verts: VertexState<'a>,
    stats: &'a mut RunStats,
    impacted: &'a mut Vec<(u64, u128, VertexId)>,
    out: &'a mut Vec<Keyed>,
    round: u64,
    key_base: u128,
    key_idx: u32,
}

impl<'a> ExecState<'a> for WorkerState<'a> {
    fn verts(&mut self) -> &mut VertexState<'a> {
        &mut self.verts
    }

    fn stats(&mut self) -> &mut RunStats {
        self.stats
    }

    fn impacted(&mut self, v: VertexId) {
        self.impacted.push((self.round, self.key_base, v));
    }

    fn emit(&mut self, ev: Event) {
        self.stats.events_generated += 1;
        self.out.push(Keyed { key: self.key_base | self.key_idx as u128, ev });
        self.key_idx += 1;
    }

    // hot-path
    fn emit_row(&mut self, source: Option<VertexId>, targets: &[VertexId], delta: Value) {
        self.stats.events_generated += targets.len() as u64;
        self.out.reserve(targets.len());
        for &v in targets {
            let ev = Event { source, ..Event::regular(v, delta) };
            self.out.push(Keyed { key: self.key_base | self.key_idx as u128, ev });
            self.key_idx += 1;
        }
    }
}

/// How a [`Sharded`] drain drives its workers.
///
/// The differential suite pins the semantics of each mode: deterministic
/// runs are bit-identical to [`StreamingEngine`](crate::StreamingEngine),
/// async runs are *value-equivalent* (exact for selective algorithms,
/// bounded-residual for accumulative ones — DESIGN.md §16.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Barriered supersteps with a totally ordered keyed exchange:
    /// bit-identical to the sequential engine for any shard count and any
    /// thread schedule. The default, and the verification oracle for the
    /// async mode.
    #[default]
    Deterministic,
    /// Barrier-free execution (DESIGN.md §16): workers drain their queues
    /// continuously, cross-shard events travel as whole per-target-shard
    /// *runs*, and a double-probe quiescence detector replaces the
    /// per-round barrier. Converges to the same fixed point, not the same
    /// schedule: values are bit-exact for selective algorithms and within
    /// a bounded residual for accumulative ones; `last_impacted` is
    /// reported in ascending vertex order; [`RunStats`] reflect the work
    /// the async schedule actually did.
    Async,
}

/// Routes a global vertex id to the shard owning it. `bounds` holds the
/// `S + 1` range boundaries (`bounds[s]..bounds[s + 1]` is shard `s`).
pub(crate) fn route(bounds: &[usize], target: VertexId) -> usize {
    bounds.partition_point(|&b| b <= ix(target)) - 1
}

/// Runs one superstep on one shard: queue the inbox (in canonical order),
/// drain the canonical round, process it through the shared kernel, and
/// fill `out` with the keyed outbox. Both the drain buffer (persistent in
/// the shard) and `out` (recycled by the coordinator) are reused across
/// supersteps, so steady-state rounds allocate nothing.
// hot-path
#[allow(clippy::too_many_arguments)] // one call site; the superstep's state is genuinely this wide
fn worker_round(
    cx: &KernelCtx<'_>,
    shard: &mut Shard,
    values: &mut [Value],
    dependency: &mut [Option<VertexId>],
    inbox: &[Keyed],
    coalesce_deletes: bool,
    yield_every: Option<usize>,
    out: &mut Vec<Keyed>,
) {
    let lo = shard.lo;
    shard.rounds += 1;
    let round = shard.rounds;
    // The inbox arrives in the canonical (merged-key) order, so per-slot
    // coalescing folds run in exactly the sequence the sequential engine's
    // single queue would have applied them.
    for k in inbox {
        if k.ev.is_delete && !coalesce_deletes {
            // Mirrors `CoalescingQueue::insert` with delete coalescing off:
            // straight to overflow, preserving the globally assigned FIFO
            // counter carried in the key's major field.
            shard.extra.inserts += 1;
            shard.extra.overflowed += 1;
            shard.overflow.push(((k.key >> IDX_BITS) as u64, k.ev));
            continue;
        }
        let mut local = k.ev;
        local.target -= lo;
        shard.queue.insert_with(local, cx.reduce);
    }
    // Every run drains events of one kind (delete recovery and regular
    // recompute are separate phases), so slot conflicts between a delete
    // and a regular event cannot occur.
    debug_assert_eq!(shard.queue.overflow_len(), 0, "mixed event kinds in one phase");

    // Swap the persistent buffers out of the shard so draining and the
    // `&mut shard.stats` borrows below can coexist; both go back (cleared
    // where stale) at the end of the round.
    let mut events = std::mem::take(&mut shard.drain_scratch);
    events.clear();
    shard.queue.take_all_into(&mut events);
    for ev in &mut events {
        ev.target += lo;
    }
    let mut overflow = std::mem::take(&mut shard.overflow);
    shard.extra.drained += overflow.len() as u64;
    let work_before = shard.stats.events_processed + shard.stats.edge_reads;

    let mut processed = 0usize;
    // Slot events first (ascending vertex order), then overflow FIFO —
    // the canonical round order.
    for &ev in &events {
        let mut st = WorkerState {
            verts: VertexState { lo, values: &mut *values, dependency: &mut *dependency },
            stats: &mut shard.stats,
            impacted: &mut shard.impacted,
            out: &mut *out,
            round,
            key_base: (ev.target as u128) << IDX_BITS,
            key_idx: 0,
        };
        kernel::process_event(cx, &mut st, ev);
        maybe_yield(&mut processed, yield_every);
    }
    for &(counter, ev) in &overflow {
        let mut st = WorkerState {
            verts: VertexState { lo, values: &mut *values, dependency: &mut *dependency },
            stats: &mut shard.stats,
            impacted: &mut shard.impacted,
            out: &mut *out,
            round,
            key_base: OVERFLOW_CLASS | ((counter as u128) << IDX_BITS),
            key_idx: 0,
        };
        kernel::process_event(cx, &mut st, ev);
        maybe_yield(&mut processed, yield_every);
    }
    shard.round_costs.push(shard.stats.events_processed + shard.stats.edge_reads - work_before);
    shard.drain_scratch = events;
    overflow.clear();
    shard.overflow = overflow;
}

/// Test hook: perturb the thread schedule without affecting results.
pub(crate) fn maybe_yield(processed: &mut usize, yield_every: Option<usize>) {
    if let Some(every) = yield_every {
        if every > 0 {
            *processed += 1;
            if (*processed).is_multiple_of(every) {
                std::thread::yield_now();
            }
        }
    }
}

/// Merges the per-shard outboxes by emission key, assigns overflow FIFO
/// counters to non-coalescible deletes in that order, and routes every
/// event to its destination shard's inbox. Returns the number of events
/// exchanged.
// hot-path
fn exchange(
    outs: &[Vec<Keyed>],
    bounds: &[usize],
    coalesce_deletes: bool,
    seq: &mut u64,
    cursor: &mut Vec<usize>,
    inboxes: &mut [Vec<Keyed>],
) -> usize {
    let total: usize = outs.iter().map(Vec::len).sum();
    cursor.clear();
    cursor.resize(outs.len(), 0);
    for _ in 0..total {
        let mut best: Option<usize> = None;
        for (s, o) in outs.iter().enumerate() {
            // panic-ok: s enumerates outs and cursor was resized to outs.len(); b only holds indexes that passed this bound
            if cursor[s] < o.len() && best.is_none_or(|b| o[cursor[s]].key < outs[b][cursor[b]].key)
            {
                best = Some(s);
            }
        }
        let Some(b) = best else { break };
        let mut k = outs[b][cursor[b]]; // panic-ok: the scan above only records b while cursor[b] < outs[b].len()
        cursor[b] += 1; // panic-ok: b < outs.len() == cursor.len() by construction
        if k.ev.is_delete && !coalesce_deletes {
            // The merged position *is* the order the sequential engine
            // would have appended this delete to its overflow FIFO.
            k.key = OVERFLOW_CLASS | ((*seq as u128) << IDX_BITS);
            *seq += 1;
        }
        inboxes[route(bounds, k.ev.target)].push(k); // panic-ok: route returns a shard index < bounds.len() == inboxes.len()
    }
    total
}

/// The sharded [`Executor`](crate::Executor): one worker thread per
/// contiguous vertex range, each with a private [`CoalescingQueue`], driven
/// in the selected [`ExecutionMode`].
#[derive(Debug)]
pub struct Sharded {
    shards: Vec<Shard>,
    /// `S + 1` contiguous range boundaries; shard `s` owns
    /// `bounds[s]..bounds[s + 1]`.
    bounds: Vec<usize>,
    /// Per-shard seed inboxes for the next [`drain`](Drain::drain), filled
    /// by the flow's setup phases.
    pending: Vec<Vec<Keyed>>,
    /// Monotone counter keying coordinator seeds and overflow FIFO order.
    seq: u64,
    coalesce_deletes: bool,
    /// Per-worker yield intervals (worker `i` uses `plan[i % len]`; an
    /// interval of 0 means that worker never yields). Empty = no yielding.
    yield_plan: Vec<usize>,
    /// How [`drain`](Drain::drain) drives its workers.
    mode: ExecutionMode,
    /// Async-mode run-length perturbation: worker `i` drains
    /// `plan[i % len]` queue bins per processing pass (0 = the whole
    /// queue). Empty = every worker drains its whole queue each pass.
    chunk_plan: Vec<usize>,
    /// Cumulative scaling model (see [`ParallelModel`]).
    model: ParallelModel,
    /// Trace sink for the race sanitizer (disabled by default).
    race_log: sync::RaceLog,
}

impl Sharded {
    /// Fixes shard ownership: contiguous vertex ranges balanced by
    /// `degree + 1` of `out` at this moment.
    fn new(out: &Csr, num_bins: usize, num_shards: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        let part = Partition::contiguous_balanced(out, num_shards as u32); // cast-ok: shard counts are small (bounded by worker threads), far below 2^32
        let ranges = part.contiguous_ranges().unwrap_or_default();
        assert_eq!(ranges.len(), num_shards, "contiguous partition must yield one range per shard");
        let mut bounds = Vec::with_capacity(num_shards + 1);
        bounds.push(0);
        let shards = ranges
            .iter()
            .map(|r| {
                bounds.push(r.end);
                Shard::new(r.start, r.len(), num_bins)
            })
            .collect();
        Sharded {
            shards,
            bounds,
            pending: vec![Vec::new(); num_shards],
            seq: 0,
            coalesce_deletes: true,
            yield_plan: Vec::new(),
            mode: ExecutionMode::default(),
            chunk_plan: Vec::new(),
            model: ParallelModel::default(),
            race_log: sync::RaceLog::default(),
        }
    }
}

impl Executor for Sharded {}

/// The JetStream engine on `S` worker threads: the §4.6
/// [`StreamingFlow`] drained by the [`Sharded`] executor.
///
/// Supports the full streaming API for every algorithm and every
/// [`DeleteStrategy`](crate::DeleteStrategy), and in deterministic mode
/// produces bit-identical values, dependencies, and [`RunStats`] to
/// [`StreamingEngine`](crate::StreamingEngine) for any shard count. See
/// the [module docs](self) for how.
///
/// # Example
///
/// ```
/// use jetstream_core::{ShardedEngine, EngineConfig};
/// use jetstream_algorithms::Bfs;
/// use jetstream_graph::{AdjacencyGraph, UpdateBatch};
///
/// # fn main() -> Result<(), jetstream_graph::GraphError> {
/// let mut g = AdjacencyGraph::new(4);
/// g.insert_edge(0, 1, 1.0)?;
/// g.insert_edge(1, 2, 1.0)?;
/// g.insert_edge(2, 3, 1.0)?;
///
/// let mut engine = ShardedEngine::new(Box::new(Bfs::new(0)), g, EngineConfig::default(), 2);
/// engine.initial_compute();
/// assert_eq!(engine.values(), &[0.0, 1.0, 2.0, 3.0]);
///
/// let mut batch = UpdateBatch::new();
/// batch.delete(1, 2);
/// batch.insert(0, 2, 1.0);
/// engine.apply_update_batch(&batch)?;
/// assert_eq!(engine.values(), &[0.0, 1.0, 1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
pub type ShardedEngine = StreamingFlow<Sharded>;

impl StreamingFlow<Sharded> {
    /// Creates a sharded engine over `host` with `num_shards` workers.
    ///
    /// Shard ownership is fixed at construction: contiguous vertex ranges
    /// balanced by `degree + 1` of the graph at this moment (the ranges do
    /// not re-balance as the graph evolves — determinism and correctness
    /// never depend on balance, only speedup does).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    pub fn new(
        alg: Box<dyn Algorithm>,
        host: AdjacencyGraph,
        config: EngineConfig,
        num_shards: usize,
    ) -> Self {
        Self::mount(alg, host, config, None, |csr| {
            Sharded::new(&csr.out, config.num_bins, num_shards)
        })
    }

    /// Warm-starts a sharded engine from previously converged state,
    /// accepting exactly the snapshot format of
    /// [`StreamingEngine::from_checkpoint`](crate::StreamingEngine::from_checkpoint).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] when the restored state cannot belong to
    /// `host` (mismatched lengths or a dangling Leads-To dependence).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    pub fn from_checkpoint(
        alg: Box<dyn Algorithm>,
        host: AdjacencyGraph,
        values: Vec<Value>,
        dependency: Vec<Option<VertexId>>,
        config: EngineConfig,
        num_shards: usize,
    ) -> Result<Self, CheckpointError> {
        Self::mount_checkpoint(alg, host, values, dependency, config, |csr| {
            Sharded::new(&csr.out, config.num_bins, num_shards)
        })
    }

    /// Number of shards (worker threads).
    pub fn num_shards(&self) -> usize {
        self.exec.shards.len()
    }

    /// The cumulative [`ParallelModel`] — deterministic total and
    /// critical-path work since construction, from which
    /// [`ParallelModel::modeled_speedup`] derives host-independent scaling.
    pub fn parallel_model(&self) -> ParallelModel {
        self.exec.model
    }

    /// Test hook: make each worker yield its time slice every `every`
    /// processed events, perturbing the thread schedule. Results must not
    /// change (the determinism regression test asserts they don't).
    pub fn set_yield_interval(&mut self, every: Option<usize>) {
        self.exec.yield_plan = every.into_iter().collect();
    }

    /// Test hook: give every worker its *own* yield interval — worker `i`
    /// yields its time slice every `plan[i % plan.len()]` processed events
    /// (0 = that worker never yields). Staggered intervals desynchronise
    /// the workers far more aggressively than a uniform one, reshuffling
    /// the arrival order of exchange messages; the schedule sanitizer
    /// (DESIGN.md §13) sweeps seeded plans and asserts results are
    /// bit-identical to the sequential engine under every one. An empty
    /// plan disables yielding.
    pub fn set_yield_plan(&mut self, plan: &[usize]) {
        self.exec.yield_plan = plan.to_vec();
    }

    /// Test hook: install a [`sync::RaceLog`] trace sink. While enabled,
    /// every channel transfer and every conceptual shard-state access in
    /// the superstep loop is recorded for the vector-clock race checker
    /// (`jetstream_testkit::race`, DESIGN.md §14.3). Install
    /// `RaceLog::default()` to turn recording back off.
    pub fn set_race_log(&mut self, log: sync::RaceLog) {
        self.exec.race_log = log;
    }

    /// Selects how drains drive their workers. May be switched between
    /// batches (queues are empty at every switch point); see
    /// [`ExecutionMode`] for the semantics of each mode.
    pub fn set_execution_mode(&mut self, mode: ExecutionMode) {
        self.exec.mode = mode;
    }

    /// The currently selected [`ExecutionMode`].
    pub fn execution_mode(&self) -> ExecutionMode {
        self.exec.mode
    }

    /// Test hook (async mode only): give each worker a run-length cap —
    /// worker `i` drains `plan[i % plan.len()]` queue bins per processing
    /// pass (0 = its whole queue), so cross-shard runs are flushed at
    /// perturbed boundaries. The schedule fuzzer sweeps seeded plans and
    /// asserts value-equivalence under every one. An empty plan restores
    /// whole-queue passes.
    pub fn set_async_chunk_plan(&mut self, plan: &[usize]) {
        self.exec.chunk_plan = plan.to_vec();
    }
}

impl Drain for Sharded {
    fn set_coalesce_deletes(&mut self, on: bool) {
        self.coalesce_deletes = on;
    }

    /// Queues a setup-phase event from the coordinator, exactly in program
    /// order: the monotone `seq` counter makes coordinator seeds sort (and,
    /// for non-coalescible deletes, drain) in emission order.
    fn seed(&mut self, _reduce: Reduce, stats: &mut RunStats, ev: Event) {
        stats.events_generated += 1;
        let key = if ev.is_delete && !self.coalesce_deletes {
            OVERFLOW_CLASS | ((self.seq as u128) << IDX_BITS)
        } else {
            (self.seq as u128) << IDX_BITS
        };
        self.seq += 1;
        let dest = route(&self.bounds, ev.target);
        self.pending[dest].push(Keyed { key, ev });
    }

    /// A row ascends, so each shard's share of it is one contiguous run:
    /// the row is split at the shard bounds, and every run is reserved for
    /// once and appended under consecutive `seq` keys — the keys
    /// [`seed`](Drain::seed) would have handed out event by event.
    // hot-path
    fn seed_row(
        &mut self,
        _reduce: Reduce,
        stats: &mut RunStats,
        targets: &[VertexId],
        delta: Value,
    ) {
        stats.events_generated += targets.len() as u64;
        let mut rest = targets;
        for (inbox, &end) in self.pending.iter_mut().zip(self.bounds.iter().skip(1)) {
            let (run, tail) = rest.split_at(rest.partition_point(|&v| ix(v) < end));
            inbox.reserve(run.len());
            for &v in run {
                let key = (self.seq as u128) << IDX_BITS;
                self.seq += 1;
                inbox.push(Keyed { key, ev: Event::regular(v, delta) });
            }
            rest = tail;
        }
    }

    /// Drains the pending seed inboxes to convergence with one worker
    /// thread per shard, in the selected [`ExecutionMode`], then hands the
    /// workers' impacted records and counters back to the flow.
    fn drain(&mut self, cx: &KernelCtx<'_>, mut run: RunState<'_>) {
        if self.pending.iter().all(Vec::is_empty) {
            return;
        }
        match self.mode {
            ExecutionMode::Deterministic => self.drain_supersteps(cx, &mut run),
            ExecutionMode::Async => self.drain_async(cx, &mut run),
        }
        let mut records: Vec<(u64, u128, VertexId)> = Vec::new();
        for sh in &mut self.shards {
            records.append(&mut sh.impacted);
            *run.stats += std::mem::take(&mut sh.stats);
        }
        match self.mode {
            // Workers tagged each reset with (round, emission key base);
            // sorting by that pair is exactly the order the sequential
            // executor resets vertices (round-major, slot events in
            // ascending vertex order before overflow FIFO).
            ExecutionMode::Deterministic => records.sort_unstable(),
            // Async pass tags are per-worker and carry no global order;
            // present the set in ascending vertex id. The set itself is
            // schedule-dependent under VAP/DAP (DESIGN.md §16.3); the
            // contract is completeness, not equality with the oracle.
            ExecutionMode::Async => records.sort_unstable_by_key(|&(_, _, v)| v),
        }
        run.impacted.extend(records.into_iter().map(|(_, _, v)| v));
    }

    /// Rolled up over all shards, including overflow traffic that bypasses
    /// the per-shard queues.
    fn queue_stats(&self) -> QueueStats {
        let mut total = QueueStats::default();
        for sh in &self.shards {
            total += sh.queue.stats();
            total += sh.extra;
        }
        total
    }

    fn validate_drained(&self) -> Result<(), String> {
        let queued: usize = self
            .shards
            .iter()
            .map(|sh| sh.queue.len() + sh.overflow.len())
            .chain(self.pending.iter().map(Vec::len))
            .sum();
        if queued != 0 {
            return Err(format!("shard queues still hold {queued} events"));
        }
        for (s, sh) in self.shards.iter().enumerate() {
            sh.queue.validate().map_err(|e| format!("shard {s} queue: {e}"))?;
        }
        Ok(())
    }
}

impl Sharded {
    /// Per-worker yield intervals derived from the installed plan.
    fn yield_intervals(&self) -> Vec<Option<usize>> {
        (0..self.shards.len())
            .map(|i| match self.yield_plan.as_slice() {
                [] => None,
                plan => Some(plan[i % plan.len()]),
            })
            .collect()
    }

    /// Barrier-free drain to quiescence (DESIGN.md §16): strips the
    /// deterministic exchange keys off the pending seeds, hands everything
    /// to [`crate::async_mode`], then folds the workers' pass costs into
    /// the scaling model (critical path = the slowest worker's total, the
    /// bound an ideally overlapped async schedule could reach).
    fn drain_async(&mut self, cx: &KernelCtx<'_>, run: &mut RunState<'_>) {
        let yields = self.yield_intervals();
        let chunks: Vec<usize> = (0..self.shards.len())
            .map(|i| match self.chunk_plan.as_slice() {
                [] => 0,
                plan => plan[i % plan.len()],
            })
            .collect();
        let Sharded { shards, bounds, pending, coalesce_deletes, model, race_log, .. } = self;
        let seeds: Vec<Vec<Event>> =
            pending.iter_mut().map(|p| p.drain(..).map(|k| k.ev).collect()).collect();
        let params = crate::async_mode::AsyncParams {
            cx: *cx,
            coalesce_deletes: *coalesce_deletes,
            bounds,
            yields: &yields,
            chunks: &chunks,
            race_log,
        };
        let rounds_before: Vec<u64> = shards.iter().map(|sh| sh.rounds).collect();
        crate::async_mode::run_to_quiescence(&params, shards, run.values, run.dependency, seeds);
        // RunStats::rounds in async mode: the deepest worker's pass count
        // (the async analogue of superstep depth; not oracle-comparable).
        run.stats.rounds += shards
            .iter()
            .zip(&rounds_before)
            .map(|(sh, &before)| sh.rounds - before)
            .max()
            .unwrap_or(0);
        let mut slowest = 0u64;
        for sh in shards.iter_mut() {
            let total: u64 = sh.round_costs.iter().sum();
            slowest = slowest.max(total);
            model.total_work += total;
            sh.round_costs.clear();
        }
        model.critical_path += slowest;
    }

    /// The deterministic superstep driver: exchange emissions at a barrier
    /// between rounds, merged in canonical key order.
    fn drain_supersteps(&mut self, cx: &KernelCtx<'_>, run: &mut RunState<'_>) {
        let coalesce_deletes = self.coalesce_deletes;
        let yields = self.yield_intervals();
        let Sharded { shards, bounds, pending, seq, model, race_log, .. } = self;
        let cx = *cx;
        let num_shards = shards.len();
        let mut inboxes: Vec<Vec<Keyed>> = pending.iter_mut().map(std::mem::take).collect();

        std::thread::scope(|scope| {
            let mut to_workers = Vec::with_capacity(num_shards);
            let mut from_workers = Vec::with_capacity(num_shards);
            let mut rest_v: &mut [Value] = run.values;
            let mut rest_d: &mut [Option<VertexId>] = run.dependency;
            for (worker, (shard, w)) in shards.iter_mut().zip(bounds.windows(2)).enumerate() {
                let yield_every = yields[worker];
                let width = w[1] - w[0];
                let (v, tail_v) = rest_v.split_at_mut(width);
                rest_v = tail_v;
                let (d, tail_d) = rest_d.split_at_mut(width);
                rest_d = tail_d;
                // Stable race-checker ids (DESIGN.md §14.3): channel 2s
                // carries inboxes to worker s, channel 2s + 1 carries its
                // outboxes back; the coordinator is thread 0, worker s is
                // thread s + 1.
                let (tx_in, rx_in) = sync::logged_channel::<Option<(Vec<Keyed>, Vec<Keyed>)>>(
                    race_log,
                    2 * worker,
                    0,
                    worker + 1,
                );
                let (tx_out, rx_out) = sync::logged_channel::<(Vec<Keyed>, Vec<Keyed>)>(
                    race_log,
                    2 * worker + 1,
                    worker + 1,
                    0,
                );
                let wlog = race_log.clone();
                scope.spawn(move || {
                    // Each message carries (inbox, recycled out-buffer); the
                    // reply returns (outbox, spent inbox) so both
                    // allocations round-trip instead of being dropped.
                    while let Ok(Some((inbox, mut out))) = rx_in.recv() {
                        wlog.access(
                            worker + 1,
                            sync::Resource::Inbox(worker),
                            sync::AccessKind::Read,
                        );
                        wlog.access(
                            worker + 1,
                            sync::Resource::ShardState(worker),
                            sync::AccessKind::Write,
                        );
                        out.clear();
                        worker_round(
                            &cx,
                            &mut *shard,
                            &mut *v,
                            &mut *d,
                            &inbox,
                            coalesce_deletes,
                            yield_every,
                            &mut out,
                        );
                        wlog.access(
                            worker + 1,
                            sync::Resource::Outbox(worker),
                            sync::AccessKind::Write,
                        );
                        if tx_out.send((out, inbox)).is_err() {
                            return;
                        }
                    }
                });
                to_workers.push(tx_in);
                from_workers.push(rx_out);
            }

            // Coordinator-side buffer pool: out-buffers shuttle to the
            // workers and back, spent inboxes become the next exchange's
            // destinations, and the k-way-merge cursor persists — after the
            // first few supersteps the loop allocates nothing.
            let mut spare_outs: Vec<Vec<Keyed>> = (0..num_shards).map(|_| Vec::new()).collect();
            let mut outs: Vec<Vec<Keyed>> = Vec::with_capacity(num_shards);
            let mut spent: Vec<Vec<Keyed>> = Vec::with_capacity(num_shards);
            let mut cursor: Vec<usize> = Vec::new();
            while !inboxes.iter().all(Vec::is_empty) {
                for (s, ((tx, inbox), spare)) in
                    to_workers.iter().zip(inboxes.iter_mut()).zip(spare_outs.iter_mut()).enumerate()
                {
                    // The coordinator filled this inbox (seed phase or the
                    // previous exchange); record the write on the sending
                    // side of the happens-before edge.
                    race_log.access(0, sync::Resource::Inbox(s), sync::AccessKind::Write);
                    let _ = tx.send(Some((std::mem::take(inbox), std::mem::take(spare))));
                }
                run.stats.rounds += 1;
                outs.clear();
                spent.clear();
                let mut alive = true;
                for (s, rx) in from_workers.iter().enumerate() {
                    match rx.recv() {
                        Ok((out, inbox)) => {
                            race_log.access(0, sync::Resource::Outbox(s), sync::AccessKind::Read);
                            outs.push(out);
                            spent.push(inbox);
                        }
                        Err(_) => {
                            // A worker panicked; stop driving rounds and let
                            // the scope join propagate the panic.
                            alive = false;
                            break;
                        }
                    }
                }
                if !alive {
                    break;
                }
                for (inbox, mut used) in inboxes.iter_mut().zip(spent.drain(..)) {
                    used.clear();
                    *inbox = used;
                }
                exchange(&outs, bounds, coalesce_deletes, seq, &mut cursor, &mut inboxes);
                for (spare, mut used) in spare_outs.iter_mut().zip(outs.drain(..)) {
                    used.clear();
                    *spare = used;
                }
            }
            for tx in &to_workers {
                let _ = tx.send(None);
            }
        });

        // The coordinator now reads every shard's state (the model fold
        // below, `values()`, `validate_converged`); each read is ordered
        // after the owning worker's last write by that worker's final
        // outbox send.
        for s in 0..num_shards {
            race_log.access(0, sync::Resource::ShardState(s), sync::AccessKind::Read);
        }

        // Fold this call's per-round costs into the scaling model: every
        // superstep's critical path is its slowest shard (the barrier
        // waits for it).
        for r in 0.. {
            let (mut seen, mut max, mut sum) = (false, 0u64, 0u64);
            for sh in shards.iter() {
                if let Some(&c) = sh.round_costs.get(r) {
                    seen = true;
                    max = max.max(c);
                    sum += c;
                }
            }
            if !seen {
                break;
            }
            model.total_work += sum;
            model.critical_path += max;
        }
        for sh in shards.iter_mut() {
            sh.round_costs.clear();
        }
    }
}

/// Sync shim for the vector-clock race sanitizer (DESIGN.md §14.3).
///
/// This module lives inside `sharded.rs` deliberately: `concurrency-
/// discipline` permits primitives only in this file, so every channel the
/// engine uses can be routed through the logged wrappers below and the
/// instrumentation can never silently miss a primitive added elsewhere.
/// When no [`RaceLog`] sink is installed the shim costs one branch per
/// event.
pub mod sync {
    use std::sync::mpsc;
    use std::sync::{Arc, Mutex};

    /// A conceptual resource of the sharded engine, as seen by the race
    /// checker. Stable ids: shard `s` owns `ShardState(s)`, `Inbox(s)`,
    /// and `Outbox(s)`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum Resource {
        /// Shard `s`'s owned state: its value/dependency slices and queue.
        ShardState(usize),
        /// Shard `s`'s inbox buffer (coordinator writes, worker reads).
        Inbox(usize),
        /// Shard `s`'s outbox buffer (worker writes, coordinator reads).
        Outbox(usize),
    }

    /// Whether an access observed or mutated the resource.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum AccessKind {
        /// The resource was only observed.
        Read,
        /// The resource was mutated.
        Write,
    }

    /// One recorded synchronization or access event. Thread ids are
    /// stable: the coordinator is 0, worker `s` is `s + 1`. Channel ids
    /// are stable: `2s` carries coordinator → worker `s` inboxes, `2s + 1`
    /// carries worker `s` → coordinator outboxes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum TraceEvent {
        /// `thread` enqueued a message on `channel` (recorded just before
        /// the transfer, so it precedes the matching `Recv` in the log).
        Send {
            /// Sending thread id.
            thread: usize,
            /// Channel id.
            channel: usize,
        },
        /// `thread` dequeued a message from `channel` (recorded just
        /// after the transfer completed).
        Recv {
            /// Receiving thread id.
            thread: usize,
            /// Channel id.
            channel: usize,
        },
        /// `thread` acquired lock `lock`.
        Acquire {
            /// Acquiring thread id.
            thread: usize,
            /// Lock id.
            lock: usize,
        },
        /// `thread` released lock `lock`.
        Release {
            /// Releasing thread id.
            thread: usize,
            /// Lock id.
            lock: usize,
        },
        /// `thread` touched `resource`.
        Access {
            /// Accessing thread id.
            thread: usize,
            /// The resource touched.
            resource: Resource,
            /// Read or write.
            kind: AccessKind,
        },
    }

    /// A shared, cloneable trace sink. The default is disabled — every
    /// recording call is a single branch — so production runs pay nothing.
    /// Install an enabled log via
    /// [`ShardedEngine::set_race_log`](super::ShardedEngine::set_race_log),
    /// run, then [`take`](Self::take) the trace and feed it to
    /// `jetstream_testkit::race::check_trace`.
    #[derive(Debug, Clone, Default)]
    pub struct RaceLog(Option<Arc<Mutex<Vec<TraceEvent>>>>);

    impl RaceLog {
        /// An enabled log with an empty trace buffer.
        pub fn enabled() -> Self {
            RaceLog(Some(Arc::new(Mutex::new(Vec::new()))))
        }

        /// Whether events are being recorded.
        pub fn is_enabled(&self) -> bool {
            self.0.is_some()
        }

        /// Appends one event (no-op when disabled).
        pub fn record(&self, ev: TraceEvent) {
            if let Some(buf) = &self.0 {
                // A poisoned mutex only means another recorder panicked;
                // the buffer itself is still coherent, so keep tracing.
                buf.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(ev);
            }
        }

        /// Records an [`TraceEvent::Access`].
        pub fn access(&self, thread: usize, resource: Resource, kind: AccessKind) {
            self.record(TraceEvent::Access { thread, resource, kind });
        }

        /// Drains and returns the recorded trace (empty when disabled).
        pub fn take(&self) -> Vec<TraceEvent> {
            match &self.0 {
                Some(buf) => std::mem::take(
                    &mut *buf.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
                ),
                None => Vec::new(),
            }
        }
    }

    /// An mpsc pair whose `send`/`recv` record happens-before edges into
    /// `log` with the given stable channel and thread ids.
    pub(crate) fn logged_channel<T>(
        log: &RaceLog,
        channel: usize,
        sender_thread: usize,
        receiver_thread: usize,
    ) -> (LoggedSender<T>, LoggedReceiver<T>) {
        let (tx, rx) = mpsc::channel();
        (
            LoggedSender { tx, log: log.clone(), channel, thread: sender_thread },
            LoggedReceiver { rx, log: log.clone(), channel, thread: receiver_thread },
        )
    }

    /// Sending half of a [`logged_channel`].
    pub(crate) struct LoggedSender<T> {
        tx: mpsc::Sender<T>,
        log: RaceLog,
        channel: usize,
        thread: usize,
    }

    impl<T> LoggedSender<T> {
        /// Records `Send`, then performs the transfer — in that order, so
        /// the log position of the `Send` precedes its matching `Recv`.
        pub(crate) fn send(&self, value: T) -> Result<(), mpsc::SendError<T>> {
            self.log.record(TraceEvent::Send { thread: self.thread, channel: self.channel });
            self.tx.send(value)
        }
    }

    /// Receiving half of a [`logged_channel`].
    pub(crate) struct LoggedReceiver<T> {
        rx: mpsc::Receiver<T>,
        log: RaceLog,
        channel: usize,
        thread: usize,
    }

    impl<T> LoggedReceiver<T> {
        /// Performs the transfer, then records `Recv`.
        pub(crate) fn recv(&self) -> Result<T, mpsc::RecvError> {
            let value = self.rx.recv()?;
            self.log.record(TraceEvent::Recv { thread: self.thread, channel: self.channel });
            Ok(value)
        }
    }

    /// A logged *hub*: one receiver fed by any number of routed sender
    /// handles (async mode's mailboxes and status channel).
    ///
    /// std's mpsc only guarantees FIFO *per producer*, and the race
    /// checker models every channel id as one FIFO — so each
    /// (sender thread → receiver) pair gets its own logical channel id,
    /// carried with every message, and the receiver attributes each `Recv`
    /// to the logical channel the message actually travelled on. One
    /// logical channel therefore has exactly one producing thread, and its
    /// `Send` log order matches its queue order.
    pub(crate) fn logged_hub<T>(
        log: &RaceLog,
        receiver_thread: usize,
    ) -> (RouteFactory<T>, HubReceiver<T>) {
        let (tx, rx) = mpsc::channel();
        (
            RouteFactory { tx, log: log.clone() },
            HubReceiver { rx, log: log.clone(), thread: receiver_thread },
        )
    }

    /// Mints [`RoutedSender`]s for a [`logged_hub`]'s receiver.
    pub(crate) struct RouteFactory<T> {
        tx: mpsc::Sender<(usize, T)>,
        log: RaceLog,
    }

    impl<T> RouteFactory<T> {
        /// A sender handle owned by `sender_thread`, logging on logical
        /// channel `channel`. Each (thread, receiver) pair must use a
        /// distinct channel id (see the hub docs).
        pub(crate) fn route(&self, channel: usize, sender_thread: usize) -> RoutedSender<T> {
            RoutedSender {
                tx: self.tx.clone(),
                log: self.log.clone(),
                channel,
                thread: sender_thread,
            }
        }
    }

    /// One producing thread's handle onto a [`logged_hub`].
    pub(crate) struct RoutedSender<T> {
        tx: mpsc::Sender<(usize, T)>,
        log: RaceLog,
        channel: usize,
        thread: usize,
    }

    impl<T> Clone for RoutedSender<T> {
        fn clone(&self) -> Self {
            RoutedSender {
                tx: self.tx.clone(),
                log: self.log.clone(),
                channel: self.channel,
                thread: self.thread,
            }
        }
    }

    impl<T> RoutedSender<T> {
        /// Records `Send` on this route's logical channel, then transfers.
        pub(crate) fn send(&self, value: T) -> Result<(), mpsc::SendError<T>> {
            self.log.record(TraceEvent::Send { thread: self.thread, channel: self.channel });
            self.tx
                .send((self.channel, value))
                .map_err(|mpsc::SendError((_, v))| mpsc::SendError(v))
        }
    }

    /// Receiving half of a [`logged_hub`].
    pub(crate) struct HubReceiver<T> {
        rx: mpsc::Receiver<(usize, T)>,
        log: RaceLog,
        thread: usize,
    }

    impl<T> HubReceiver<T> {
        /// Blocking receive; records `Recv` on the logical channel the
        /// message travelled on.
        pub(crate) fn recv(&self) -> Result<T, mpsc::RecvError> {
            let (channel, value) = self.rx.recv()?;
            self.log.record(TraceEvent::Recv { thread: self.thread, channel });
            Ok(value)
        }

        /// Non-blocking receive; records `Recv` like [`recv`](Self::recv).
        pub(crate) fn try_recv(&self) -> Result<T, mpsc::TryRecvError> {
            let (channel, value) = self.rx.try_recv()?;
            self.log.record(TraceEvent::Recv { thread: self.thread, channel });
            Ok(value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeleteStrategy, StreamingEngine};
    use jetstream_algorithms::{PageRank, Sssp};
    use jetstream_graph::UpdateBatch;

    fn chain() -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new(4);
        g.insert_edge(0, 1, 1.0).unwrap();
        g.insert_edge(1, 2, 2.0).unwrap();
        g.insert_edge(2, 3, 3.0).unwrap();
        g
    }

    #[test]
    fn sharded_initial_compute_matches_sequential_on_chain() {
        for shards in [1, 2, 3, 4, 7] {
            let mut e = ShardedEngine::new(
                Box::new(Sssp::new(0)),
                chain(),
                EngineConfig::default(),
                shards,
            );
            let stats = e.initial_compute();
            assert_eq!(e.values(), &[0.0, 1.0, 3.0, 6.0], "shards={shards}");
            assert_eq!(stats.events_processed, 4);
            assert_eq!(stats.vertex_writes, 4);
            assert_eq!(e.validate_converged(), Ok(()));
        }
    }

    // A row through `seed_row` lands in the inboxes exactly as through
    // `seed`, event by event: same shard, same order, same consecutive
    // keys (continuing across a keyed delete in between), same counters.
    // With 12 isolated vertices the bounds are multiples of 12 / shards, so
    // the rows hold targets on a bound (3, 6, 9), just below one (2, 5, 8)
    // and runs that skip a shard.
    #[test]
    fn seed_row_is_seed_event_by_event() {
        let out = Csr::empty(12);
        let rows: [(&[VertexId], Value); 5] = [
            (&[0, 2, 3, 5, 6, 8, 9, 11], 0.5),
            (&[1, 10], -0.25),
            (&[], 1.0),
            (&[6], 2.0),
            (&[3, 4, 5], -1.0),
        ];
        for shards in [1, 2, 4] {
            let (mut by_row, mut by_event) =
                (Sharded::new(&out, 4, shards), Sharded::new(&out, 4, shards));
            assert_eq!(by_row.bounds, (0..=shards).map(|s| s * 12 / shards).collect::<Vec<_>>());
            let (mut row_stats, mut event_stats) = (RunStats::default(), RunStats::default());
            for (targets, delta) in rows {
                by_row.seed_row(Reduce::Sum, &mut row_stats, targets, delta);
                for &v in targets {
                    by_event.seed(Reduce::Sum, &mut event_stats, Event::regular(v, delta));
                }
                for exec in [&mut by_row, &mut by_event] {
                    exec.set_coalesce_deletes(false);
                    exec.seed(Reduce::Sum, &mut RunStats::default(), Event::delete(0, 7, 0.0));
                }
            }
            assert_eq!(row_stats, RunStats { events_generated: 14, ..RunStats::default() });
            assert_eq!(row_stats, event_stats, "shards={shards}");
            assert_eq!(by_row.seq, 19, "shards={shards}");
            assert_eq!(by_row.seq, by_event.seq, "shards={shards}");
            let inboxes = |exec: &Sharded| -> Vec<Vec<(u128, Event)>> {
                exec.pending.iter().map(|p| p.iter().map(|k| (k.key, k.ev)).collect()).collect()
            };
            assert_eq!(inboxes(&by_row), inboxes(&by_event), "shards={shards}");
            for (s, inbox) in by_row.pending.iter().enumerate() {
                let owned = by_row.bounds[s]..by_row.bounds[s + 1];
                assert!(inbox.iter().all(|k| owned.contains(&ix(k.ev.target))), "shards={shards}");
            }
        }
    }

    #[test]
    fn sharded_batch_matches_sequential_stats_bitwise() {
        let mut seq =
            StreamingEngine::new(Box::new(Sssp::new(0)), chain(), EngineConfig::default());
        let mut sh =
            ShardedEngine::new(Box::new(Sssp::new(0)), chain(), EngineConfig::default(), 3);
        assert_eq!(seq.initial_compute(), sh.initial_compute());
        let mut batch = UpdateBatch::new();
        batch.delete(1, 2);
        batch.insert(0, 2, 2.5);
        let a = seq.apply_update_batch(&batch).unwrap();
        let b = sh.apply_update_batch(&batch).unwrap();
        assert_eq!(a, b);
        assert_eq!(seq.values(), sh.values());
        assert_eq!(seq.dependencies(), sh.dependencies());
        assert_eq!(seq.last_impacted(), sh.last_impacted());
        assert_eq!(seq.queue_stats(), sh.queue_stats());
    }

    // Kills mutant jm-b7b8e6e1 (`.max(1)` -> `.min(1)` in
    // `modeled_speedup`): the clamp only guards the empty model's zero
    // denominator — a real critical path must divide through untouched.
    #[test]
    fn modeled_speedup_divides_by_the_real_critical_path() {
        let m = ParallelModel { total_work: 12, critical_path: 4 };
        assert_eq!(m.modeled_speedup(), 3.0);
        assert_eq!(ParallelModel::default().modeled_speedup(), 0.0);
    }

    // Kills mutant jm-99fde555 (`&&` -> `||` at the superstep inbox fold):
    // with delete coalescing on (the default), a cross-shard tag-delete
    // cascade must fold into the bins like every other event, not detour
    // through the FIFO overflow lane. Only `Tag` re-emits delete events
    // during propagation, so the cascade is driven under that strategy.
    #[test]
    fn cross_shard_tag_deletes_coalesce_instead_of_overflowing() {
        let config =
            EngineConfig { delete_strategy: DeleteStrategy::Tag, ..EngineConfig::default() };
        let mut seq = StreamingEngine::new(Box::new(Sssp::new(0)), chain(), config);
        let mut sh = ShardedEngine::new(Box::new(Sssp::new(0)), chain(), config, 2);
        seq.initial_compute();
        sh.initial_compute();
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        batch.insert(0, 2, 0.5); // keep the tail reachable through recovery
        seq.apply_update_batch(&batch).unwrap();
        sh.apply_update_batch(&batch).unwrap();
        assert_eq!(seq.values(), sh.values());
        assert_eq!(sh.queue_stats().overflowed, seq.queue_stats().overflowed);
        assert_eq!(sh.queue_stats().overflowed, 0, "nothing may spill with coalescing on");
    }

    #[test]
    fn sharded_accumulative_matches_sequential() {
        let mut g = AdjacencyGraph::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 2)] {
            g.insert_edge(u, v, 1.0).unwrap();
        }
        let cfg = EngineConfig::default();
        let mut seq = StreamingEngine::new(Box::new(PageRank::default()), g.clone(), cfg);
        let mut sh = ShardedEngine::new(Box::new(PageRank::default()), g, cfg, 4);
        assert_eq!(seq.initial_compute(), sh.initial_compute());
        let mut batch = UpdateBatch::new();
        batch.delete(2, 3);
        batch.insert(0, 3, 1.0);
        let a = seq.apply_update_batch(&batch).unwrap();
        let b = sh.apply_update_batch(&batch).unwrap();
        assert_eq!(a, b);
        assert_eq!(seq.values(), sh.values());
    }

    #[test]
    fn more_shards_than_vertices_is_fine() {
        let mut e = ShardedEngine::new(Box::new(Sssp::new(0)), chain(), EngineConfig::default(), 9);
        assert_eq!(e.num_shards(), 9);
        e.initial_compute();
        assert_eq!(e.values(), &[0.0, 1.0, 3.0, 6.0]);
    }

    #[test]
    fn from_checkpoint_resumes_streaming() {
        let mut seq =
            StreamingEngine::new(Box::new(Sssp::new(0)), chain(), EngineConfig::default());
        seq.initial_compute();
        let mut sh = ShardedEngine::from_checkpoint(
            Box::new(Sssp::new(0)),
            chain(),
            seq.values().to_vec(),
            seq.dependencies().to_vec(),
            EngineConfig::default(),
            2,
        )
        .unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert(0, 3, 1.5);
        seq.apply_update_batch(&batch).unwrap();
        sh.apply_update_batch(&batch).unwrap();
        assert_eq!(seq.values(), sh.values());
        assert_eq!(sh.values()[3], 1.5);
    }

    #[test]
    fn async_mode_matches_sequential_values_on_chain() {
        for shards in [1, 2, 3, 4] {
            let mut seq =
                StreamingEngine::new(Box::new(Sssp::new(0)), chain(), EngineConfig::default());
            let mut sh = ShardedEngine::new(
                Box::new(Sssp::new(0)),
                chain(),
                EngineConfig::default(),
                shards,
            );
            sh.set_execution_mode(ExecutionMode::Async);
            seq.initial_compute();
            sh.initial_compute();
            assert_eq!(seq.values(), sh.values(), "shards={shards}");
            let mut batch = UpdateBatch::new();
            batch.delete(1, 2);
            batch.insert(0, 2, 2.5);
            seq.apply_update_batch(&batch).unwrap();
            sh.apply_update_batch(&batch).unwrap();
            assert_eq!(seq.values(), sh.values(), "shards={shards}");
            assert_eq!(sh.validate_converged(), Ok(()), "shards={shards}");
            let mut imp_seq: Vec<VertexId> = seq.last_impacted().to_vec();
            let mut imp_sh: Vec<VertexId> = sh.last_impacted().to_vec();
            imp_seq.sort_unstable();
            imp_sh.sort_unstable();
            assert_eq!(imp_seq, imp_sh, "shards={shards}");
        }
    }

    #[test]
    fn async_mode_accumulative_converges_near_sequential() {
        let mut g = AdjacencyGraph::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 2)] {
            g.insert_edge(u, v, 1.0).unwrap();
        }
        let cfg = EngineConfig::default();
        let mut seq = StreamingEngine::new(Box::new(PageRank::default()), g.clone(), cfg);
        let mut sh = ShardedEngine::new(Box::new(PageRank::default()), g, cfg, 3);
        sh.set_execution_mode(ExecutionMode::Async);
        seq.initial_compute();
        sh.initial_compute();
        let mut batch = UpdateBatch::new();
        batch.delete(2, 3);
        batch.insert(0, 3, 1.0);
        seq.apply_update_batch(&batch).unwrap();
        sh.apply_update_batch(&batch).unwrap();
        // The async contract's accumulative bound (DESIGN.md §16.3); a
        // hand-picked 1e-4 here failed ~1 run in 10.
        let tol =
            jetstream_algorithms::oracle::accumulative_tolerance(PageRank::default().epsilon());
        for (a, b) in seq.values().iter().zip(sh.values()) {
            assert!((a - b).abs() <= tol * a.abs().max(1.0), "{a} vs {b}");
        }
        assert_eq!(sh.validate_converged(), Ok(()));
    }

    #[test]
    fn from_checkpoint_rejects_mismatched_state() {
        let err = ShardedEngine::from_checkpoint(
            Box::new(Sssp::new(0)),
            chain(),
            vec![0.0; 3],
            vec![None; 4],
            EngineConfig::default(),
            2,
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::LengthMismatch { what: "values", .. }));
    }
}
