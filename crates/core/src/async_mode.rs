//! The barrier-free drain of [`ShardedEngine`] (DESIGN.md §16).
//!
//! This is one drain of the [`Sharded`](crate::Sharded) executor — the
//! phase structure around it (delete propagation, request seeding, insert
//! streaming, recompute) is the flow's, and the coordinator has already
//! seeded each shard's queue in place. Inside the call:
//!
//! * every worker drains its own [`CoalescingQueue`] continuously in
//!   *passes*, processing events through the shared kernel; emissions to
//!   its own shard re-enter its queue immediately (Gauss–Seidel style,
//!   which is where the async work saving comes from: residuals arriving
//!   between passes coalesce instead of being processed round by round);
//! * a row leaves whole: [`Routes::split`] cuts it at the shard bounds and
//!   each destination's run folds through the queue's row entry point;
//! * cross-shard emissions fold into the shard's per-destination *outbox
//!   queues* (single-bin [`CoalescingQueue`]s over the destination's
//!   vertex range, so repeat emissions to one remote vertex coalesce
//!   before they ever travel) and are flushed after each pass as whole
//!   *runs* (one `Vec<Event>` of destination-local events per
//!   destination) — the receiver folds the run straight into its queue.
//!   The outboxes live as long as the engine and cover every shard but
//!   their own: about one extra slot grid of the vertex set per worker,
//!   the price of shipping pre-coalesced runs;
//! * there is no barrier and no global round: a drain ends when one
//!   shared count of outstanding work reaches zero (below).
//!
//! # Termination
//!
//! `pending` counts the active workers plus the runs sent and not yet
//! folded. It starts at the shard count, since every seed is already in a
//! queue. A worker adds one just before it sends a run and subtracts one
//! once it has folded a run in; woken from a blocking receive, it adds one
//! for itself before it folds the run that woke it; going idle, it
//! subtracts one. So `pending` is 0 only when no worker is active and no
//! run is unfolded, a state nothing can leave: the worker whose decrement
//! takes it there sends every peer `Stop`. Every burst of work reaches a
//! fixed point (monotone selective algorithms, epsilon-thresholded
//! accumulative ones) and every worker then goes idle, so the count gets
//! there (DESIGN.md §16.2). A panicking worker sends every peer `Stop`
//! before it unwinds, so the scope join surfaces the panic.
//!
//! # Ownership
//!
//! Each worker holds its shard's queue, outboxes and slices of the value
//! and dependency vectors through disjoint `&mut` borrows (`iter_mut` and
//! `split_at_mut`) into a scoped thread, and the scope joins every worker
//! before the coordinator reads a shard again. So the compiler proves the
//! drain free of data races (DESIGN.md §14.3). An installed [`RaceLog`]
//! records each run where it is sent and where it is folded (thread and
//! channel ids in [`TraceEvent`]).
//!
//! [`ShardedEngine`]: crate::ShardedEngine
//! [`CoalescingQueue`]: crate::CoalescingQueue

use std::sync::atomic::{AtomicUsize, Ordering::AcqRel};
use std::sync::mpsc::{self, Receiver, Sender};

use jetstream_algorithms::{Reduce, Value};
use jetstream_graph::{ix, VertexId};

use crate::event::{Event, Row};
use crate::kernel::{self, ExecState, KernelCtx, VertexState};
use crate::queue::CoalescingQueue;
use crate::sharded::sync::{RaceLog, TraceEvent};
use crate::sharded::{maybe_yield, Routes, Shard};
use crate::stats::RunStats;

/// Read-only configuration shared by one async drain.
pub(crate) struct AsyncParams<'a> {
    /// The phase's kernel context; every worker gets a copy.
    pub cx: KernelCtx<'a>,
    /// Shard ownership.
    pub routes: &'a Routes,
    /// Yield plan (schedule perturbation hook): worker `i` yields every
    /// `yields[i % len]` processed events (0 = never). Empty = no yielding.
    pub yields: &'a [usize],
    /// Run-length plan: worker `i` drains `chunks[i % len]` queue bins per
    /// pass (0 = the whole queue). Empty = whole-queue passes.
    pub chunks: &'a [usize],
    /// Cross-shard message log.
    pub race_log: &'a RaceLog,
}

/// Worker `i`'s entry of a perturbation plan, which repeats with its
/// length; `None` for the empty plan.
fn plan_entry(plan: &[usize], i: usize) -> Option<usize> {
    plan.iter().cycle().nth(i).copied()
}

/// Worker → worker messages.
enum ToWorker {
    /// A run of cross-shard events from worker `from`, already localized
    /// to the receiving shard's vertex range, to fold into its queue.
    Run {
        /// Sending worker.
        from: usize,
        /// The run.
        events: Vec<Event>,
    },
    /// The drain is over, or a peer panicked: exit.
    Stop,
}

/// The message-log channel id of worker `from`'s runs to worker `to` among
/// `shards` workers. Thread 0 is the coordinator and worker `w` is thread
/// `w + 1`; with `T` threads the channel from thread `f` to thread `t` is
/// `f * T + t`.
fn channel(shards: usize, from: usize, to: usize) -> usize {
    (from + 1) * (shards + 1) + to + 1
}

/// [`ExecState`] for one async processing pass: local emissions fold
/// straight back into the shard's queue, cross-shard emissions fold into
/// the per-destination outbox queues.
struct AsyncState<'a> {
    verts: VertexState<'a>,
    /// Shard width (`hi - lo`), for the single-compare ownership test.
    width: VertexId,
    stats: &'a mut RunStats,
    impacted: &'a mut Vec<(VertexId, Value)>,
    /// This shard's index.
    me: usize,
    queue: &'a mut CoalescingQueue,
    outboxes: &'a mut [CoalescingQueue],
    routes: &'a Routes,
    reduce: Reduce,
}

impl<'a> ExecState<'a> for AsyncState<'a> {
    fn verts(&mut self) -> &mut VertexState<'a> {
        &mut self.verts
    }

    fn stats(&mut self) -> &mut RunStats {
        self.stats
    }

    fn impacted(&mut self, v: VertexId, previous: Value) {
        self.impacted.push((v, previous));
    }

    fn emit(&mut self, ev: Event) {
        self.stats.events_generated += 1;
        // Single-compare ownership test: for local targets the wrapped
        // difference IS the localized id, so the subtraction is reused
        // rather than re-done; remote targets wrap to >= width.
        let local = ev.target.wrapping_sub(self.verts.lo);
        if local < self.width {
            self.queue.insert_with(Event { target: local, ..ev }, self.reduce);
        } else {
            self.emit_remote(ev);
        }
    }

    /// Folds each shard's run of the row whole, into this shard's queue
    /// or the destination's outbox (see [`Routes::split`]).
    // hot-path
    fn emit_row(&mut self, row: Row<'_>) {
        self.stats.events_generated += row.targets.len() as u64;
        let (routes, reduce) = (self.routes, self.reduce);
        routes.split(row, |dest, lo, run| self.queue_for(dest).insert_row(lo, run, reduce));
    }
}

/// One worker's whole async lifetime for one drain.
struct WorkerLoop<'a> {
    worker: usize,
    lo: VertexId,
    hi: VertexId,
    cx: KernelCtx<'a>,
    yield_every: Option<usize>,
    /// Queue bins drained per pass; 0 = the whole queue.
    chunk: usize,
    routes: &'a Routes,
    shard: &'a mut Shard,
    values: &'a mut [Value],
    dependency: &'a mut [Option<VertexId>],
    rx: Receiver<ToWorker>,
    /// Every peer's mailbox; `None` at this worker's own index.
    peers: Vec<Option<Sender<ToWorker>>>,
    /// Active workers plus runs sent and not yet folded.
    pending: &'a AtomicUsize,
    log: &'a RaceLog,
    /// Rotating start bin for chunked passes.
    bin_cursor: usize,
}

impl WorkerLoop<'_> {
    /// Works until the queue and the mailbox are both empty, then goes
    /// idle: the worker whose decrement takes `pending` to zero ends the
    /// drain, every other one blocks until a run or `Stop` arrives.
    fn run(&mut self) {
        while self.work() {
            if self.pending.fetch_sub(1, AcqRel) == 1 {
                return self.stop_peers();
            }
            match self.rx.recv() {
                Ok(ToWorker::Run { from, events }) => {
                    // Active again before the run's own count is released.
                    self.pending.fetch_add(1, AcqRel);
                    self.fold(from, &events);
                }
                // The drain is over, or every peer is gone after a panic.
                Ok(ToWorker::Stop) | Err(_) => return,
            }
        }
    }

    /// Folds every queued run and drains the queue in passes until both
    /// are empty; `false` if a `Stop` arrived first (a peer panicked).
    fn work(&mut self) -> bool {
        loop {
            while let Ok(msg) = self.rx.try_recv() {
                let ToWorker::Run { from, events } = msg else { return false };
                self.fold(from, &events);
            }
            if self.shard.queue.is_empty() {
                return true;
            }
            self.process_pass();
            // Flush after every pass and yield: peers fold this pass's
            // runs into their queues before their next pass, so
            // contributions coalesce at the receiver the way a barriered
            // round would batch them — without a barrier. Skipping the
            // flush (batching runs per burst) measures strictly worse: the
            // local cascade re-fires hot vertices on partial deltas,
            // amplifying edge reads.
            self.flush_outboxes();
            std::thread::yield_now();
        }
    }

    /// Folds worker `from`'s run into the queue, then releases the run's
    /// count; this worker is active.
    fn fold(&mut self, from: usize, events: &[Event]) {
        let (me, shards) = (self.worker, self.peers.len());
        self.log.record(TraceEvent::Recv { thread: me + 1, channel: channel(shards, from, me) });
        self.shard.queue.insert_run(events, self.cx.reduce);
        self.pending.fetch_sub(1, AcqRel);
    }

    /// Sends every peer `Stop`.
    fn stop_peers(&self) {
        for tx in self.peers.iter().flatten() {
            let _ = tx.send(ToWorker::Stop);
        }
    }

    /// Drains one run-length of the local queue (ascending vertex order
    /// within the drained bins) and processes it through the shared
    /// kernel.
    fn process_pass(&mut self) {
        self.shard.rounds += 1;

        let mut events = std::mem::take(&mut self.shard.drain_scratch);
        events.clear();
        let nb = self.shard.queue.num_bins();
        if self.chunk == 0 {
            self.shard.queue.take_all_into(&mut events);
        } else {
            // mutation-ok: any bound draining at least one bin is a valid pass size — results are chunking-independent under the async equivalence contract
            for i in 0..self.chunk.min(nb) {
                self.shard.queue.take_bin_into((self.bin_cursor + i) % nb, &mut events);
            }
            self.bin_cursor = (self.bin_cursor + self.chunk) % nb;
        }
        for ev in &mut events {
            ev.target += self.lo;
        }

        // mutation-ok: processed only paces maybe_yield; its starting point shifts yield timing, never results
        let mut processed = 0usize;
        let mut st = AsyncState {
            verts: VertexState {
                lo: self.lo,
                values: &mut *self.values,
                dependency: &mut *self.dependency,
            },
            width: self.hi - self.lo,
            stats: &mut self.shard.stats,
            impacted: &mut self.shard.impacted,
            me: self.worker,
            queue: &mut self.shard.queue,
            outboxes: &mut self.shard.outboxes,
            routes: self.routes,
            reduce: self.cx.reduce,
        };
        for &ev in events.iter() {
            kernel::process_event(&self.cx, &mut st, ev);
            maybe_yield(&mut processed, self.yield_every);
        }
        self.shard.drain_scratch = events;
    }

    /// Ships every non-empty outbox queue as one pre-coalesced run (in
    /// ascending destination-local order) to its destination shard.
    fn flush_outboxes(&mut self) {
        let (me, shards) = (self.worker, self.peers.len());
        for (dest, fold) in self.shard.outboxes.iter_mut().enumerate() {
            if fold.is_empty() {
                continue;
            }
            let mut events = Vec::with_capacity(fold.len());
            fold.take_all_into(&mut events);
            if let Some(tx) = &self.peers[dest] {
                self.log.record(TraceEvent::Send {
                    thread: me + 1,
                    channel: channel(shards, me, dest),
                });
                // Counted before it leaves, so `pending` covers it in flight.
                self.pending.fetch_add(1, AcqRel);
                let _ = tx.send(ToWorker::Run { from: me, events });
            }
        }
    }
}

impl AsyncState<'_> {
    /// The queue shard `dest`'s events fold into: this shard's own, or
    /// `dest`'s outbox.
    #[inline]
    fn queue_for(&mut self, dest: usize) -> &mut CoalescingQueue {
        if dest == self.me {
            self.queue
        } else {
            // panic-ok: route owners are shard indices, with an outbox each
            &mut self.outboxes[dest]
        }
    }

    /// Out-of-line outbox fold: keeps the per-edge `emit` body small
    /// enough to inline into the kernel loop (measured ~25% per-event
    /// win on the PageRank microbench). Localizes the event to the
    /// destination's range and coalesces it into that destination's
    /// outbox queue, so the flushed run carries only one event per
    /// remote vertex.
    #[inline(never)]
    fn emit_remote(&mut self, ev: Event) {
        let (dest, lo, _) = self.routes.owner(ev.target);
        let reduce = self.reduce;
        self.queue_for(dest).insert_with(Event { target: ev.target - lo, ..ev }, reduce);
    }
}

/// Drives one drain to quiescence: spawns one worker per shard over the
/// queues the coordinator seeded and joins them all; the last worker to go
/// idle stops the others.
pub(crate) fn run_to_quiescence(
    p: &AsyncParams<'_>,
    shards: &mut [Shard],
    values: &mut [Value],
    dependency: &mut [Option<VertexId>],
) {
    // Every seed is already in a queue, so every worker starts active.
    // Updates are `AcqRel` read-modify-writes: the count publishes no shard
    // data (the channels and the scope join order that), only itself.
    let pending = AtomicUsize::new(shards.len());
    let (txs, rxs): (Vec<_>, Vec<_>) = shards.iter().map(|_| mpsc::channel()).unzip();
    let mut workers = Vec::new();
    let mut rest_v: &mut [Value] = values;
    let mut rest_d: &mut [Option<VertexId>] = dependency;
    let mailboxes = rxs.into_iter().zip(shards.iter_mut()).zip(p.routes.ranges());
    for (worker, ((rx, shard), &(lo, hi))) in mailboxes.enumerate() {
        let (v, tail_v) = rest_v.split_at_mut(ix(hi - lo));
        rest_v = tail_v;
        let (d, tail_d) = rest_d.split_at_mut(ix(hi - lo));
        rest_d = tail_d;
        let peers = txs.iter().enumerate();
        workers.push(WorkerLoop {
            worker,
            lo,
            hi,
            cx: p.cx,
            yield_every: plan_entry(p.yields, worker),
            chunk: plan_entry(p.chunks, worker).unwrap_or(0),
            routes: p.routes,
            shard,
            values: v,
            dependency: d,
            rx,
            peers: peers.map(|(peer, tx)| (peer != worker).then(|| tx.clone())).collect(),
            pending: &pending,
            log: p.race_log,
            bin_cursor: 0,
        });
    }
    // Only workers hold senders, so a worker that exits closes its part
    // of every peer's mailbox.
    drop(txs);

    std::thread::scope(|scope| {
        for mut w in workers {
            scope.spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.run()));
                if let Err(payload) = result {
                    // Peers blocked on their mailboxes would wait forever:
                    // stop them, so the scope join surfaces the panic.
                    w.stop_peers();
                    std::panic::resume_unwind(payload);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Carry;
    use crate::queue::QueueStats;
    use jetstream_algorithms::EdgeOp;

    /// A drained queue, bit for bit: its events in vertex order, then its
    /// counters.
    type Contents = (Vec<(VertexId, u64, bool, bool, Option<VertexId>)>, QueueStats);

    fn contents(q: &mut CoalescingQueue) -> Contents {
        let mut events = Vec::new();
        q.take_all_into(&mut events);
        let bits = events
            .iter()
            .map(|e| (e.target, e.payload.to_bits(), e.is_delete, e.request, e.source));
        (bits.collect(), q.stats())
    }

    /// Targets on every shard bound (4, 8, 12), just below one (3, 7, 11),
    /// and at both ends of the vertex range.
    const ROW: [VertexId; 9] = [0, 3, 4, 5, 7, 8, 11, 12, 15];

    /// Shard 1 of four over 16 vertices emits `rows` a row at a time or an
    /// event at a time; returns its counters, then its own queue and every
    /// outbox drained.
    fn emit_from_shard_one(by_row: bool, rows: &[Row<'_>]) -> (RunStats, Vec<Contents>) {
        let routes = Routes::new(&[0..4, 4..8, 8..12, 12..16]);
        let mut shard = Shard::new(1, &routes, 2);
        let (mut values, mut dependency) = ([0.0; 4], [None; 4]);
        let (mut stats, mut impacted) = (RunStats::default(), Vec::new());
        let mut st = AsyncState {
            verts: VertexState { lo: 4, values: &mut values, dependency: &mut dependency },
            width: 4,
            stats: &mut stats,
            impacted: &mut impacted,
            me: 1,
            queue: &mut shard.queue,
            outboxes: &mut shard.outboxes,
            routes: &routes,
            reduce: Reduce::Min,
        };
        for &row in rows {
            if by_row {
                st.emit_row(row);
            } else {
                row.events().for_each(|ev| st.emit(ev));
            }
        }
        let queues = std::iter::once(&mut shard.queue).chain(&mut shard.outboxes);
        (stats, queues.map(contents).collect())
    }

    // One row spanning four shards leaves the own queue and every outbox
    // exactly as its events emitted one by one would, for uniform,
    // weighted and delete rows; each queue holds one kind, as phases are
    // disjoint. The delete waves coalesce; the regular rows coalesce too,
    // and a sourceless one clears the sources it dominates. Kills the
    // splitter's bound predicate `v < hi` -> `<=` and a negated own-shard
    // test: either sends a run to a queue that does not cover it.
    #[test]
    fn row_emission_splits_into_the_queues_per_event_emission_fills() {
        let weights = &ROW.map(|v| 1.0 + f64::from(v) / 4.0);
        let regular = |source, delta| Carry::Regular { delta, source };
        let delete = |source, payload| Carry::Delete { payload, source };
        let op = EdgeOp::AddWeight;
        let waves = [
            Row { targets: &ROW, carry: delete(6, 0.5) },
            Row { targets: &ROW[..5], carry: delete(13, 0.25) },
        ];
        let regulars = [
            Row { targets: &ROW, carry: regular(Some(2), 3.0) },
            Row {
                targets: &ROW,
                carry: Carry::Weighted { weights, base: 1.0, op, source: Some(9) },
            },
            Row { targets: &ROW[2..], carry: regular(None, 2.0) },
        ];
        for (rows, generated) in [(&waves[..], 14), (&regulars[..], 25)] {
            let (row_stats, by_row) = emit_from_shard_one(true, rows);
            let (event_stats, by_event) = emit_from_shard_one(false, rows);
            let want = RunStats { events_generated: generated, ..RunStats::default() };
            assert_eq!((row_stats, event_stats), (want, want));
            assert_eq!(by_row, by_event, "{rows:?}");
            let residents: Vec<usize> = by_row.iter().map(|(events, _)| events.len()).collect();
            // Own queue, then outboxes 0..4 (shard 1's covers nothing).
            assert_eq!(residents, [3, 2, 0, 2, 2], "{rows:?}");
        }
    }
}
