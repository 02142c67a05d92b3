//! Sharded parallel execution of the JetStream streaming flow.
//!
//! [`Sharded`] is the [`Executor`] behind [`ShardedEngine`]: it partitions
//! the vertex space into `S` contiguous shards (via
//! [`jetstream_graph::partition::Partition::contiguous_balanced`]) and runs one
//! worker thread per shard. Each worker owns its shard's slice of the value
//! and dependency vectors plus a private [`CoalescingQueue`], mirroring the
//! paper's §4 queue/lane partitioning where every processing lane serves a
//! disjoint bin range of the event queue. The phases around a drain are
//! [`StreamingFlow`]'s, shared with the sequential executor.
//!
//! A drain is barrier-free (DESIGN.md §16): workers drain continuously,
//! cross-shard events travel as pre-coalesced runs, and the drain ends
//! when one shared count of outstanding work reaches zero — the worker
//! loop and the count live in [`crate::async_mode`]. Independent events are never ordered against
//! each other, as in the paper's accelerator, so the engine converges to
//! the sequential engine's fixed point, not to its schedule: values are
//! bit-exact for selective algorithms and within a bounded residual for
//! accumulative ones, and [`RunStats`] and dependency trees reflect the
//! schedule that actually ran (DESIGN.md §16.3). Per-event semantics live
//! in [`crate::kernel`] and are the same code the sequential executor
//! runs.
//!
//! # Divergences from [`StreamingEngine`]
//!
//! * Kernel operations are not traced (traces are consumed by the cycle
//!   simulator, which models the sequential schedule).
//! * A Tag or VAP delete wave drains on the workers, so `last_impacted`
//!   reports it in ascending vertex order. A DAP wave is not drained here:
//!   the flow runs it on the coordinator thread, the same code for both
//!   executors, so its resets come in the sequential order.
//!
//! [`StreamingEngine`]: crate::StreamingEngine

use jetstream_algorithms::{Algorithm, Reduce, Value};
use jetstream_graph::partition::Partition;
use jetstream_graph::{ix, vid, Csr, VertexId};

use crate::engine::{CheckpointError, EngineConfig};
use crate::event::{Event, Row};
use crate::flow::sealed::Drain;
use crate::flow::{Executor, RunState, StreamingFlow};
use crate::kernel::KernelCtx;
use crate::queue::{CoalescingQueue, QueueStats};
use crate::stats::RunStats;

/// The most shards a [`ShardedEngine`] runs: a worker routes a cross-shard
/// event through a one-byte-per-vertex shard table.
pub const MAX_SHARDS: usize = 256;

/// One shard: a contiguous vertex range with its own queue and counters.
/// Each worker writes its shard's counters on every event, so no two
/// shards share a cache line (sharing one cost the 2-shard PageRank cold
/// evaluation ~15 %).
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct Shard {
    /// Local coalescing queue; indexed by `target - lo`, `lo` being the
    /// first vertex id the shard owns.
    pub(crate) queue: CoalescingQueue,
    /// Per-destination outbox queues, in each destination's local
    /// coordinates: cross-shard emissions coalesce here and leave as one
    /// run per destination per pass. The shard's own entry covers no
    /// vertices.
    pub(crate) outboxes: Vec<CoalescingQueue>,
    /// This worker's share of the current drain's counters.
    pub(crate) stats: RunStats,
    /// This worker's processing passes in the current drain; passes are
    /// not synchronized across shards.
    pub(crate) rounds: u64,
    /// Vertices this worker reset during the current drain, with the
    /// values they held.
    pub(crate) impacted: Vec<(VertexId, Value)>,
    /// Persistent drain buffer for a processing pass: grows to the shard's
    /// high-water event count once, then steady-state passes allocate
    /// nothing.
    pub(crate) drain_scratch: Vec<Event>,
}

impl Shard {
    /// Shard `me` of `routes`, its queue spread over `num_bins` bins.
    pub(crate) fn new(me: usize, routes: &Routes, num_bins: usize) -> Self {
        let width = |&(lo, hi): &(VertexId, VertexId)| ix(hi - lo);
        let outbox = |(d, r)| CoalescingQueue::new(if d == me { 0 } else { width(r) }, 1);
        Shard {
            queue: CoalescingQueue::new(routes.ranges.get(me).map_or(0, width), num_bins),
            outboxes: routes.ranges.iter().enumerate().map(outbox).collect(),
            stats: RunStats::default(),
            rounds: 0,
            impacted: Vec::new(),
            drain_scratch: Vec::new(),
        }
    }
}

/// Which shard owns each vertex: the contiguous shard ranges and a
/// one-byte-per-vertex lookup table, built once per engine.
#[derive(Debug)]
pub(crate) struct Routes {
    /// `ranges[s]` is shard `s`'s vertex range `lo..hi`.
    ranges: Vec<(VertexId, VertexId)>,
    /// The owning shard of every vertex: one load in place of a binary
    /// search over the ranges on every cross-shard emission.
    table: Vec<u8>,
}

impl Routes {
    /// Routes for contiguous `ranges` that cover `0..n` in order.
    pub(crate) fn new(ranges: &[std::ops::Range<usize>]) -> Self {
        let mut table = Vec::with_capacity(ranges.last().map_or(0, |r| r.end));
        // Shard ids fit a byte: `Sharded::new` asserts the `MAX_SHARDS`
        // bound.
        for (tag, r) in (0..=u8::MAX).zip(ranges) {
            table.resize(r.end, tag);
        }
        Routes { ranges: ranges.iter().map(|r| (vid(r.start), vid(r.end))).collect(), table }
    }

    /// The shard owning `v`, with that shard's range `lo..hi`.
    #[inline]
    pub(crate) fn owner(&self, v: VertexId) -> (usize, VertexId, VertexId) {
        // panic-ok: the table has one entry per vertex
        let dest = usize::from(self.table[ix(v)]);
        // panic-ok: table entries are shard indices, one range each
        let (lo, hi) = self.ranges[dest];
        (dest, lo, hi)
    }

    /// Every shard's range `lo..hi`, in shard order.
    pub(crate) fn ranges(&self) -> &[(VertexId, VertexId)] {
        &self.ranges
    }

    /// Cuts an ascending row at the shard bounds, weights included, and
    /// hands each shard's share to `fold(shard, lo, run)`, whole and in
    /// row order, `lo` being the shard's first vertex: the owner of a
    /// run's first target, then a binary search to that owner's end. Only
    /// the targets are cut as it goes; each run is built from the row
    /// once, by its offset (rebuilding the remainder at every cut made the
    /// 2-shard PageRank cold evaluation ~10 % slower).
    // hot-path
    #[inline]
    pub(crate) fn split<'r>(&self, row: Row<'r>, mut fold: impl FnMut(usize, VertexId, Row<'r>)) {
        let (mut rest, mut start) = (row.targets, 0);
        while let Some(&first) = rest.first() {
            let (dest, lo, hi) = self.owner(first);
            let (run, tail) = rest.split_at(rest.partition_point(|&v| v < hi));
            fold(dest, lo, row.part(start, run));
            (rest, start) = (tail, start + run.len());
        }
    }
}

/// Machine-independent parallel scaling model, accumulated over every
/// drain since engine construction.
///
/// Work is counted in functional units — events processed plus edges read
/// — and `critical_path` charges each drain its slowest worker's work, the
/// bound an ideally overlapped schedule reaches with a core per shard. How
/// much coalesces before a pass depends on arrival order, so both numbers
/// are schedule-dependent and not bit-reproducible. Their one reader is
/// the `benchmark/` package, whose `pr_lj_async2 --trace 1` run reports
/// them as `core.sharded.{modeled_speedup, critical_path_share}`; host
/// wall-clock on a single-core machine cannot show parallel speedup at
/// all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelModel {
    /// Total work units across all shards.
    pub total_work: u64,
    /// Per-drain maximum over shards, summed over drains.
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

/// Compile shim for the frozen `benchmark/` package, whose
/// `benchmark/src/engines.rs` still selects the one mode there is
/// (`Engine::cold` and `Engine::warm` each call
/// `set_execution_mode(ExecutionMode::Async)`). Goes with those two calls.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// The barrier-free drain every [`ShardedEngine`] runs.
    Async,
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

/// The sharded [`Executor`]: one worker thread per
/// contiguous vertex range, each with a private [`CoalescingQueue`],
/// drained barrier-free to quiescence.
#[derive(Debug)]
pub struct Sharded {
    shards: Vec<Shard>,
    /// Shard ownership, fixed at construction.
    routes: Routes,
    /// Per-worker yield intervals (worker `i` uses `plan[i % len]`; an
    /// interval of 0 means that worker never yields). Empty = no yielding.
    yield_plan: Vec<usize>,
    /// Run-length perturbation: worker `i` drains `plan[i % len]` queue
    /// bins per processing pass (0 = the whole queue). Empty = every
    /// worker drains its whole queue each pass.
    chunk_plan: Vec<usize>,
    /// Cumulative scaling model (see [`ParallelModel`]).
    model: ParallelModel,
    /// Cross-shard message log (disabled by default).
    race_log: sync::RaceLog,
}

impl Sharded {
    /// Fixes shard ownership: contiguous vertex ranges balanced by
    /// `degree + 1` of `out` at this moment.
    fn new(out: &Csr, num_bins: usize, num_shards: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        assert!(num_shards <= MAX_SHARDS, "at most {MAX_SHARDS} shards, got {num_shards}");
        let part = Partition::contiguous_balanced(out, num_shards as u32); // cast-ok: num_shards <= MAX_SHARDS, asserted above
        let ranges = part.contiguous_ranges().unwrap_or_default();
        assert_eq!(ranges.len(), num_shards, "contiguous partition must yield one range per shard");
        let routes = Routes::new(&ranges);
        Sharded {
            shards: (0..num_shards).map(|me| Shard::new(me, &routes, num_bins)).collect(),
            routes,
            yield_plan: Vec::new(),
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
/// [`DeleteStrategy`](crate::DeleteStrategy), and converges to the fixed
/// point [`StreamingEngine`](crate::StreamingEngine) reaches, for any
/// shard count and any thread schedule. DESIGN.md §16.3 says what that
/// does and does not cover.
///
/// # Example
///
/// ```
/// use jetstream_core::{ShardedEngine, EngineConfig};
/// use jetstream_algorithms::Bfs;
/// use jetstream_graph::{Csr, UpdateBatch};
///
/// # fn main() -> Result<(), jetstream_graph::GraphError> {
/// let mut g = Csr::new(4);
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
    /// Creates a sharded engine over `graph` with `num_shards` workers.
    ///
    /// Shard ownership is fixed at construction: contiguous vertex ranges
    /// balanced by `degree + 1` of the graph at this moment (the ranges do
    /// not re-balance as the graph evolves — correctness never depends on
    /// balance, only speedup does).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or exceeds [`MAX_SHARDS`].
    pub fn new(
        alg: Box<dyn Algorithm>,
        graph: Csr,
        config: EngineConfig,
        num_shards: usize,
    ) -> Self {
        Self::mount(alg, graph, config, None, |csr| {
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
    /// `graph` (mismatched lengths or a dangling Leads-To dependence).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or exceeds [`MAX_SHARDS`].
    pub fn from_checkpoint(
        alg: Box<dyn Algorithm>,
        graph: Csr,
        values: Vec<Value>,
        dependency: Vec<Option<VertexId>>,
        config: EngineConfig,
        num_shards: usize,
    ) -> Result<Self, CheckpointError> {
        Self::mount_checkpoint(alg, graph, values, dependency, config, |csr| {
            Sharded::new(&csr.out, config.num_bins, num_shards)
        })
    }

    /// Number of shards (worker threads).
    pub fn num_shards(&self) -> usize {
        self.exec.shards.len()
    }

    /// The cumulative [`ParallelModel`] — total and critical-path work
    /// since construction, from which [`ParallelModel::modeled_speedup`]
    /// derives host-independent scaling.
    pub fn parallel_model(&self) -> ParallelModel {
        self.exec.model
    }

    /// Test hook: give every worker its *own* yield interval — worker `i`
    /// yields its time slice every `plan[i % plan.len()]` processed events
    /// (0 = that worker never yields). Staggered intervals desynchronise
    /// the workers far more aggressively than a uniform one, reshuffling
    /// the arrival order of cross-shard runs; the schedule sanitizer
    /// (DESIGN.md §13) sweeps seeded plans and asserts value-equivalence
    /// with the sequential engine under every one. An empty plan disables
    /// yielding.
    pub fn set_yield_plan(&mut self, plan: &[usize]) {
        self.exec.yield_plan = plan.to_vec();
    }

    /// Measurement hook: install a [`sync::RaceLog`] message log. While
    /// enabled, every run a drain sends, and its fold, is recorded.
    /// Install `RaceLog::default()` to turn recording back off.
    pub fn set_race_log(&mut self, log: sync::RaceLog) {
        self.exec.race_log = log;
    }

    /// See [`ExecutionMode`]: a no-op kept so `benchmark/` compiles.
    #[doc(hidden)]
    pub fn set_execution_mode(&mut self, _mode: ExecutionMode) {}

    /// Test hook: give each worker a run-length cap — worker `i` drains
    /// `plan[i % plan.len()]` queue bins per processing pass (0 = its
    /// whole queue), so cross-shard runs are flushed at perturbed
    /// boundaries. The schedule fuzzer sweeps seeded plans and asserts
    /// value-equivalence under every one. An empty plan restores
    /// whole-queue passes.
    pub fn set_async_chunk_plan(&mut self, plan: &[usize]) {
        self.exec.chunk_plan = plan.to_vec();
    }
}

impl Drain for Sharded {
    /// Folds a setup-phase event from the coordinator straight into its
    /// owner's queue, in the owner's local coordinates.
    fn seed(&mut self, reduce: Reduce, stats: &mut RunStats, ev: Event) {
        stats.events_generated += 1;
        let (dest, lo, _) = self.routes.owner(ev.target);
        self.shards[dest].queue.insert_with(Event { target: ev.target - lo, ..ev }, reduce);
    }

    /// A row ascends, so each shard's share of it is one contiguous run,
    /// folded whole into the owner's queue.
    // hot-path
    fn seed_row(&mut self, reduce: Reduce, stats: &mut RunStats, row: Row<'_>) {
        stats.events_generated += row.targets.len() as u64;
        let Sharded { shards, routes, .. } = self;
        // panic-ok: route owners are shard indices
        routes.split(row, |dest, lo, run| shards[dest].queue.insert_row(lo, run, reduce));
    }

    /// Drains the seeded shard queues to quiescence with one worker thread
    /// per shard (DESIGN.md §16), then hands the workers' impacted records
    /// and counters back to the flow and folds their work into the scaling
    /// model.
    fn drain(&mut self, cx: &KernelCtx<'_>, run: RunState<'_>) {
        if self.shards.iter().all(|sh| sh.queue.is_empty()) {
            return;
        }
        let Sharded { shards, routes, model, .. } = self;
        let params = crate::async_mode::AsyncParams {
            cx: *cx,
            routes,
            yields: &self.yield_plan,
            chunks: &self.chunk_plan,
            race_log: &self.race_log,
        };
        crate::async_mode::run_to_quiescence(&params, shards, run.values, run.dependency);
        // Workers record resets in pass order, which carries no global
        // order; present the set in ascending vertex id. Under VAP the set
        // itself is schedule-dependent (DESIGN.md §16.3); the contract is
        // completeness, not equality with the oracle.
        let mut reset: Vec<(VertexId, Value)> = Vec::new();
        let (mut deepest, mut slowest) = (0u64, 0u64);
        for sh in shards.iter_mut() {
            reset.append(&mut sh.impacted);
            deepest = deepest.max(std::mem::take(&mut sh.rounds));
            let stats = std::mem::take(&mut sh.stats);
            let work = stats.events_processed + stats.edge_reads;
            slowest = slowest.max(work);
            model.total_work += work;
            *run.stats += stats;
        }
        model.critical_path += slowest;
        // RunStats::rounds: the deepest worker's pass count (not
        // oracle-comparable).
        run.stats.rounds += deepest;
        reset.sort_unstable_by_key(|&(v, _)| v);
        run.impacted.extend(reset.iter().map(|&(v, _)| v));
        run.previous.extend(reset.iter().map(|&(_, previous)| previous));
    }

    /// Rolled up over all shards.
    fn queue_stats(&self) -> QueueStats {
        let mut total = QueueStats::default();
        for sh in &self.shards {
            total += sh.queue.stats();
        }
        total
    }

    fn validate_drained(&self) -> Result<(), String> {
        let queued: usize = self
            .shards
            .iter()
            .flat_map(|sh| std::iter::once(&sh.queue).chain(&sh.outboxes))
            .map(CoalescingQueue::len)
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

/// The cross-shard message log.
///
/// A drain records each run twice, where a worker sends it and where its
/// receiver folds it, so an installed [`RaceLog`](sync::RaceLog) sees
/// every cross-shard message; `benchmark/` counts the sends. When no log
/// is installed a record costs one branch. Data-race freedom is not this
/// module's business: each worker holds its shard through a disjoint
/// `&mut` borrow, so the compiler proves it (DESIGN.md §14.3).
pub mod sync {
    use std::sync::{Arc, Mutex};

    /// One recorded message transfer. Thread ids are stable: the
    /// coordinator is 0, worker `s` is `s + 1`. Channel ids are stable:
    /// with `T` threads, `f * T + t` carries thread `f`'s messages to
    /// thread `t`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum TraceEvent {
        /// `thread` sent a message on `channel` (recorded just before the
        /// transfer, so it precedes the matching `Recv` in the log).
        Send {
            /// Sending thread id.
            thread: usize,
            /// Channel id.
            channel: usize,
        },
        /// `thread` folded a message from `channel` in.
        Recv {
            /// Receiving thread id.
            thread: usize,
            /// Channel id.
            channel: usize,
        },
    }

    /// A shared, cloneable message log. The default is disabled — every
    /// recording call is a single branch — so production runs pay nothing.
    /// Install an enabled log via
    /// [`ShardedEngine::set_race_log`](super::ShardedEngine::set_race_log),
    /// run, then [`take`](Self::take) the recorded messages.
    #[derive(Debug, Clone, Default)]
    pub struct RaceLog(Option<Arc<Mutex<Vec<TraceEvent>>>>);

    impl RaceLog {
        /// An enabled log with an empty trace buffer.
        pub fn enabled() -> Self {
            RaceLog(Some(Arc::new(Mutex::new(Vec::new()))))
        }

        /// Appends one event (no-op when disabled).
        pub(crate) fn record(&self, ev: TraceEvent) {
            if let Some(buf) = &self.0 {
                // A poisoned mutex only means another recorder panicked;
                // the buffer itself is still coherent, so keep tracing.
                buf.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(ev);
            }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Carry;
    use crate::StreamingEngine;
    use jetstream_algorithms::{oracle, EdgeCtx, EdgeOp, PageRank, Sssp};
    use jetstream_graph::UpdateBatch;

    fn chain() -> Csr {
        let mut g = Csr::new(4);
        g.insert_edge(0, 1, 1.0).unwrap();
        g.insert_edge(1, 2, 2.0).unwrap();
        g.insert_edge(2, 3, 3.0).unwrap();
        g
    }

    // Every carry, cut at every point of the row by a shard bound: the
    // runs go to the shards owning them, and their events, in order, are
    // the row's events — each what its carry describes, a weighted row's
    // weights still on their targets.
    #[test]
    fn a_row_split_at_a_shard_bound_is_its_events_cut_in_two() {
        const TARGETS: [VertexId; 5] = [1, 4, 6, 7, 9];
        let weights = TARGETS.map(|v| f64::from(v) / 2.0);
        let op = EdgeOp::AddWeight;
        type Case<'a> = (Carry<'a>, fn(VertexId) -> Event);
        let cases: [Case; 4] = [
            (Carry::Regular { delta: 0.5, source: Some(3) }, |v| Event::regular_from(3, v, 0.5)),
            (Carry::Weighted { weights: &weights, base: 1.0, op, source: None }, |v| {
                Event::regular(v, 1.0 + f64::from(v) / 2.0)
            }),
            (Carry::Request { payload: f64::INFINITY }, |v| Event::request(v, f64::INFINITY)),
            (Carry::Delete { payload: 2.0, source: 8 }, |v| Event::delete(8, v, 2.0)),
        ];
        for (carry, event) in cases {
            let row = Row { targets: &TARGETS, carry };
            let events: Vec<Event> = row.events().collect();
            assert_eq!(events, TARGETS.map(event), "{carry:?}");
            for mid in 0..=TARGETS.len() {
                let bound = mid.checked_sub(1).map_or(0, |i| ix(TARGETS[i]) + 1);
                let routes = Routes::new(&[0..bound, bound..10]);
                let (mut runs, mut cut) = (Vec::new(), Vec::new());
                routes.split(row, |dest, lo, run| {
                    runs.push((dest, lo, run.targets));
                    cut.extend(run.events());
                });
                let halves = [(0, 0, &TARGETS[..mid]), (1, vid(bound), &TARGETS[mid..])];
                let want: Vec<_> = halves.into_iter().filter(|h| !h.2.is_empty()).collect();
                assert_eq!(runs, want, "{carry:?} cut at {mid}");
                assert_eq!(cut, events, "{carry:?} cut at {mid}");
            }
        }
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

    /// Drains a queue: its events in vertex order.
    fn drained(q: &mut CoalescingQueue) -> Vec<Event> {
        let mut events = Vec::new();
        q.take_all_into(&mut events);
        events
    }

    // A row through `seed_row` lands in the owner's queue exactly as
    // through `seed`, event by event: same residents in the owner's local
    // coordinates, same queue and run counters, and the same global
    // contents at every shard count. With 12 isolated vertices the bounds
    // are multiples of 12 / shards, so the rows hold targets on a bound
    // (3, 6, 9), just below one (2, 5, 8) and runs that skip a shard, as
    // regular rows and as request rows.
    #[test]
    fn seed_row_is_seed_event_by_event() {
        let out = Csr::new(12);
        let (regular, request) =
            (|delta| Carry::Regular { delta, source: None }, |payload| Carry::Request { payload });
        let rows = [
            Row { targets: &[0, 2, 3, 5, 6, 8, 9, 11], carry: regular(0.5) },
            Row { targets: &[1, 10], carry: regular(-0.25) },
            Row { targets: &[], carry: request(1.0) },
            Row { targets: &[6], carry: regular(2.0) },
            Row { targets: &[3, 4, 5], carry: regular(-1.0) },
            Row { targets: &[1, 2, 3, 8, 9], carry: request(0.0) },
        ];
        let mut unsharded = Vec::new();
        for shards in [1, 2, 4] {
            let (mut by_row, mut by_event) =
                (Sharded::new(&out, 4, shards), Sharded::new(&out, 4, shards));
            let bound = |s| vid(s * 12 / shards);
            let ranges: Vec<_> = (0..shards).map(|s| (bound(s), bound(s + 1))).collect();
            assert_eq!(by_row.routes.ranges(), ranges);
            let (mut row_stats, mut event_stats) = (RunStats::default(), RunStats::default());
            for row in rows {
                by_row.seed_row(Reduce::Sum, &mut row_stats, row);
                for ev in row.events() {
                    by_event.seed(Reduce::Sum, &mut event_stats, ev);
                }
            }
            assert_eq!(row_stats, RunStats { events_generated: 19, ..RunStats::default() });
            assert_eq!(row_stats, event_stats, "shards={shards}");
            assert_eq!(by_row.queue_stats(), by_event.queue_stats(), "shards={shards}");
            assert_eq!(by_row.queue_stats().inserts, 19, "shards={shards}");
            let mut global = Vec::new();
            for ((row_shard, event_shard), &(lo, hi)) in
                by_row.shards.iter_mut().zip(&mut by_event.shards).zip(&ranges)
            {
                assert_eq!(row_shard.queue.stats(), event_shard.queue.stats(), "shards={shards}");
                let events = drained(&mut row_shard.queue);
                assert_eq!(events, drained(&mut event_shard.queue), "shards={shards}");
                assert!(events.iter().all(|ev| ev.target < hi - lo), "shards={shards}");
                global.extend(events.iter().map(|&ev| Event { target: ev.target + lo, ..ev }));
            }
            global.sort_by_key(|ev| ev.target);
            if shards == 1 {
                assert_eq!(global.len(), 11);
                assert_eq!(global.iter().filter(|ev| ev.request).count(), 5);
                unsharded = global;
            } else {
                assert_eq!(global, unsharded, "shards={shards}");
            }
        }
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

    #[test]
    fn more_shards_than_vertices_is_fine() {
        let mut e = ShardedEngine::new(Box::new(Sssp::new(0)), chain(), EngineConfig::default(), 9);
        assert_eq!(e.num_shards(), 9);
        e.initial_compute();
        assert_eq!(e.values(), &[0.0, 1.0, 3.0, 6.0]);
    }

    /// A path `0 -> 1 -> ... -> n - 1` with unit weights: every shard
    /// boundary is crossed, the last shard's vertices included.
    fn path(n: u32) -> Csr {
        let mut g = Csr::new(n as usize);
        for v in 1..n {
            g.insert_edge(v - 1, v, 1.0).unwrap();
        }
        g
    }

    // The route table holds one byte per vertex: shard 255 must still be
    // addressed as itself.
    #[test]
    fn max_shards_converges_to_the_sequential_values() {
        let cfg = EngineConfig::default();
        let mut seq = StreamingEngine::new(Box::new(Sssp::new(0)), path(600), cfg);
        let mut sh = ShardedEngine::new(Box::new(Sssp::new(0)), path(600), cfg, MAX_SHARDS);
        assert_eq!(sh.num_shards(), MAX_SHARDS);
        seq.initial_compute();
        sh.initial_compute();
        assert_eq!(seq.values(), sh.values());
        assert_eq!(sh.values()[599], 599.0);
        let mut batch = UpdateBatch::new();
        batch.delete(299, 300);
        batch.insert(0, 300, 2.0);
        seq.apply_update_batch(&batch).unwrap();
        sh.apply_update_batch(&batch).unwrap();
        assert_eq!(seq.values(), sh.values());
        assert_eq!(sh.values()[599], 301.0);
        assert_eq!(sh.validate_converged(), Ok(()));
    }

    /// BFS from vertex 0 whose propagation panics at depth 3.
    #[derive(Debug)]
    struct PanicsAtDepthThree;

    impl Algorithm for PanicsAtDepthThree {
        fn name(&self) -> &'static str {
            "panics-at-depth-three"
        }

        fn identity(&self) -> Value {
            Value::INFINITY
        }

        fn reduce_op(&self) -> Reduce {
            Reduce::Min
        }

        fn propagate(&self, state: Value, _: Value, _: &EdgeCtx) -> Option<Value> {
            assert!(state < 3.0, "propagation reached depth 3");
            state.is_finite().then_some(state + 1.0)
        }

        fn initial_event(&self, v: VertexId) -> Option<Value> {
            (v == 0).then_some(0.0)
        }
    }

    // A worker that panics stops its peers, so the panic surfaces instead
    // of hanging the drain. With four shards the idle peers still hold
    // senders to each other's mailboxes, so only the panicking worker's
    // `Stop` can wake them; with two, its dropped sender alone would.
    #[test]
    fn a_worker_panic_surfaces_and_does_not_hang() {
        let (tx, rx) = std::sync::mpsc::channel();
        // Not joined: a hang must fail the test, not block it.
        std::thread::spawn(move || {
            let mut e = ShardedEngine::new(
                Box::new(PanicsAtDepthThree),
                path(32),
                EngineConfig::default(),
                4,
            );
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                e.initial_compute();
            }));
            let _ = tx.send(result.is_err());
        });
        let panicked = rx.recv_timeout(std::time::Duration::from_secs(20));
        assert_eq!(panicked, Ok(true), "the worker's panic must reach the caller within 20 s");
    }

    // The message log's ids are the ones `benchmark/` decodes: every send
    // is worker to worker (thread `f >= 1` on channel `f * T + t`, `t` a
    // peer's thread), and every run sent is folded on the same channel.
    // The batch resets 4..30 and reconnects 8, whose recompute walks the
    // path across a shard bound: no request or pull crosses for it.
    #[test]
    fn the_message_log_records_each_run_worker_to_worker_on_one_channel() {
        for shards in [2, 3] {
            let mut e = ShardedEngine::new(
                Box::new(Sssp::new(0)),
                path(30),
                EngineConfig::default(),
                shards,
            );
            e.initial_compute();
            let log = sync::RaceLog::enabled();
            e.set_race_log(log.clone());
            let mut batch = UpdateBatch::new();
            batch.insert(0, 29, 1.0);
            batch.insert(0, 8, 1.0);
            batch.delete(3, 4);
            batch.delete(19, 20);
            e.apply_update_batch(&batch).unwrap();
            let threads = shards + 1;
            let mut per_channel = std::collections::BTreeMap::new();
            for ev in log.take() {
                let (channel, side) = match ev {
                    sync::TraceEvent::Send { thread, channel } => {
                        let to = channel % threads;
                        assert!(thread >= 1 && channel / threads == thread, "{ev:?}");
                        assert!(to != 0 && to != thread, "shards={shards}: {ev:?}");
                        (channel, 0)
                    }
                    sync::TraceEvent::Recv { thread, channel } => {
                        assert_eq!(channel % threads, thread, "shards={shards}: {ev:?}");
                        (channel, 1)
                    }
                };
                per_channel.entry(channel).or_insert([0, 0])[side] += 1;
            }
            assert!(!per_channel.is_empty(), "shards={shards}: no run was logged");
            for (channel, [sent, folded]) in per_channel {
                assert_eq!(sent, folded, "shards={shards}, channel {channel}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 256 shards, got 257")]
    fn one_shard_past_the_maximum_is_refused_at_construction() {
        let _ = ShardedEngine::new(
            Box::new(Sssp::new(0)),
            path(600),
            EngineConfig::default(),
            MAX_SHARDS + 1,
        );
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
    fn matches_sequential_values_on_chain() {
        for shards in [1, 2, 3, 4] {
            let mut seq =
                StreamingEngine::new(Box::new(Sssp::new(0)), chain(), EngineConfig::default());
            let mut sh = ShardedEngine::new(
                Box::new(Sssp::new(0)),
                chain(),
                EngineConfig::default(),
                shards,
            );
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
            assert_eq!(seq.last_impacted(), sh.last_impacted(), "shards={shards}");
        }
    }

    #[test]
    fn accumulative_converges_near_sequential() {
        let mut g = Csr::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 2)] {
            g.insert_edge(u, v, 1.0).unwrap();
        }
        let cfg = EngineConfig::default();
        let mut seq = StreamingEngine::new(Box::new(PageRank::default()), g.clone(), cfg);
        let mut sh = ShardedEngine::new(Box::new(PageRank::default()), g, cfg, 3);
        seq.initial_compute();
        sh.initial_compute();
        let mut batch = UpdateBatch::new();
        batch.delete(2, 3);
        batch.insert(0, 3, 1.0);
        seq.apply_update_batch(&batch).unwrap();
        sh.apply_update_batch(&batch).unwrap();
        // The accumulative bound of DESIGN.md §16.3; a hand-picked 1e-4
        // here failed ~1 run in 10.
        let tol = oracle::accumulative_tolerance(PageRank::default().epsilon());
        assert!(oracle::values_match_tol(seq.values(), sh.values(), tol));
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
