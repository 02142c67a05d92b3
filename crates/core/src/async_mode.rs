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
//! * there is no barrier and no global round: termination is decided by a
//!   probe-based quiescence detector (below).
//!
//! # Quiescence detection
//!
//! Classic four-counter (double-probe) termination detection à la Mattern.
//! Each worker keeps cumulative counters `sent` / `recvd` of events it has
//! pushed to, and folded in from, other shards; seeds are already in the
//! queues, local work like any other. Workers are *silent while busy*;
//! whenever one is about to block on an empty queue it reports
//! `Idle { probe, sent, recvd }`, answering the outstanding probe id, if
//! any. The coordinator blocks on the status channel (no polling), and
//! when every worker's latest report satisfies `Σ sent == Σ recvd` it runs
//! **two** probe rounds:
//! quiescence is confirmed only if both rounds observe identical
//! per-worker counters and the sums still match.
//!
//! *Soundness*: a worker answers a probe only at an idle point, and an
//! idle worker can only be reactivated by an incoming run. Any event in
//! flight at the second round makes the sums unequal (its send is counted,
//! its receipt is not), and any activity between the two rounds changes a
//! counter observed by the second — the single-round hazard (a worker
//! acting *after* its answer, hiding an in-flight event behind matching
//! totals) is exactly what the duplicate round closes. *Liveness*: the
//! algorithms reach a fixed point (monotone selective algorithms, or
//! epsilon-thresholded accumulative ones), so every burst of activity ends
//! with each worker blocking — and each block is preceded by a status
//! send, so the coordinator always wakes after the last activity.
//!
//! # Race-log instrumentation
//!
//! All transfers go through the [`sync`] shim's logged hubs. Thread ids:
//! coordinator 0, worker `s` is `s + 1`. With `T` threads, the logical
//! channel from thread `f` to thread `t` is `f * T + t` — one producer per
//! logical channel, preserving the per-channel FIFO assumption of the
//! vector-clock checker even though the transport is a shared mpsc queue.
//! The coordinator records a `ShardState(s)` write per seed it folds in
//! place, and logs each spawn as the start hand-off: a `Send` on its
//! channel to the worker, which the worker's first act receives. Worker
//! `s` records a `ShardState(s)` write per run fold and per processing
//! pass; the coordinator records its `ShardState(s)` read only after
//! receiving that worker's final `Done` ack. Seeds, drains and reads are
//! therefore happens-before ordered across drains in the trace.
//!
//! [`ShardedEngine`]: crate::ShardedEngine
//! [`CoalescingQueue`]: crate::CoalescingQueue

use jetstream_algorithms::{Reduce, Value};
use jetstream_graph::{ix, VertexId};

use crate::event::{Event, Row};
use crate::kernel::{self, ExecState, KernelCtx, VertexState};
use crate::queue::CoalescingQueue;
use crate::sharded::sync::{
    self, AccessKind, HubReceiver, RaceLog, Resource, RoutedSender, TraceEvent,
};
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
    /// Race-sanitizer trace sink.
    pub race_log: &'a RaceLog,
}

/// Worker `i`'s entry of a perturbation plan, which repeats with its
/// length; `None` for the empty plan.
fn plan_entry(plan: &[usize], i: usize) -> Option<usize> {
    plan.iter().cycle().nth(i).copied()
}

/// Coordinator → worker messages.
enum ToWorker {
    /// A run of cross-shard events, already localized to the receiving
    /// shard's vertex range, to fold into its queue.
    Run(Vec<Event>),
    /// Quiescence probe: answer with an `Idle` status carrying this id at
    /// the next idle point.
    Probe(u64),
    /// Quiescence confirmed (or coordination aborted): exit.
    Stop,
}

/// Worker → coordinator statuses.
enum FromWorker {
    /// Sent every time the worker is about to block on an empty queue;
    /// `probe` is the answered probe id (0 = unsolicited).
    Idle {
        /// Reporting worker.
        worker: usize,
        /// Probe id being answered, 0 when unsolicited.
        probe: u64,
        /// Cumulative events pushed to other shards.
        sent: u64,
        /// Cumulative events folded in from runs.
        recvd: u64,
    },
    /// Final ack after `Stop`: the worker's state writes are complete.
    Done {
        /// Acknowledging worker.
        worker: usize,
    },
    /// A worker panicked; coordination must abort (the panic itself
    /// resurfaces when the thread scope joins, which identifies it).
    Died,
}

/// [`ExecState`] for one async processing pass: local emissions fold
/// straight back into the shard's queue, cross-shard emissions fold into
/// the per-destination outbox queues.
struct AsyncState<'a> {
    verts: VertexState<'a>,
    /// Shard width (`hi - lo`), for the single-compare ownership test.
    width: VertexId,
    stats: &'a mut RunStats,
    impacted: &'a mut Vec<VertexId>,
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

    fn impacted(&mut self, v: VertexId) {
        self.impacted.push(v);
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
    thread: usize,
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
    rx: HubReceiver<ToWorker>,
    peers: Vec<Option<RoutedSender<ToWorker>>>,
    status: RoutedSender<FromWorker>,
    sent: u64,
    recvd: u64,
    pending_probe: Option<u64>,
    stopped: bool,
    /// Rotating start bin for chunked passes.
    bin_cursor: usize,
    log: RaceLog,
}

impl WorkerLoop<'_> {
    fn run(mut self) {
        // The spawn is the start hand-off: the coordinator logged it as a
        // `Send` on its channel to this worker, so its seeds and its reads
        // after the previous drain happen before anything this worker does.
        self.log.record(TraceEvent::Recv { thread: self.thread, channel: self.thread });
        loop {
            self.drain_mailbox();
            while !self.stopped && !self.shard.queue.is_empty() {
                self.process_pass();
                // Flush after every pass and yield: peers fold this
                // pass's runs into their queues before their next pass,
                // so contributions coalesce at the receiver the way a
                // barriered round would batch them — without a barrier.
                // Skipping the flush (batching runs per burst) measures
                // strictly worse: the local cascade re-fires hot
                // vertices on partial deltas, amplifying edge reads.
                self.flush_outboxes();
                std::thread::yield_now();
                self.drain_mailbox();
            }
            if self.stopped {
                break;
            }
            self.report_idle();
            match self.rx.recv() {
                Ok(msg) => self.handle(msg),
                // The coordinator (and every peer) is gone: bail out.
                Err(_) => break,
            }
        }
        let _ = self.status.send(FromWorker::Done { worker: self.worker });
    }

    /// Absorbs every message already queued, without blocking.
    fn drain_mailbox(&mut self) {
        while let Ok(msg) = self.rx.try_recv() {
            self.handle(msg);
        }
    }

    fn handle(&mut self, msg: ToWorker) {
        match msg {
            ToWorker::Run(events) => {
                self.recvd += events.len() as u64;
                self.log.access(self.thread, Resource::ShardState(self.worker), AccessKind::Write);
                self.shard.queue.insert_run(&events, self.cx.reduce);
            }
            ToWorker::Probe(id) => self.pending_probe = Some(id),
            ToWorker::Stop => self.stopped = true,
        }
    }

    /// Drains one run-length of the local queue and processes it through
    /// the shared kernel. Slot events first (ascending vertex order within
    /// the drained bins), then spilled delete events FIFO.
    fn process_pass(&mut self) {
        self.shard.rounds += 1;
        self.log.access(self.thread, Resource::ShardState(self.worker), AccessKind::Write);

        let mut events = std::mem::take(&mut self.shard.drain_scratch);
        events.clear();
        let nb = self.shard.queue.num_bins();
        let max_overflow = if self.chunk == 0 {
            self.shard.queue.take_all_into(&mut events);
            usize::MAX
        } else {
            // mutation-ok: any bound draining at least one bin is a valid pass size — results are chunking-independent under the async equivalence contract
            for i in 0..self.chunk.min(nb) {
                self.shard.queue.take_bin_into((self.bin_cursor + i) % nb, &mut events);
            }
            self.bin_cursor = (self.bin_cursor + self.chunk) % nb;
            // Chunked passes also cap the spill drain, so run boundaries
            // in delete phases are perturbed too.
            64 * self.chunk
        };
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
        for _ in 0..max_overflow {
            let Some(mut ev) = st.queue.pop_overflow() else { break };
            ev.target += self.lo;
            kernel::process_event(&self.cx, &mut st, ev);
            maybe_yield(&mut processed, self.yield_every);
        }
        self.shard.drain_scratch = events;
    }

    /// Ships every non-empty outbox queue as one pre-coalesced run (slot
    /// events in ascending destination-local order, then any spilled
    /// delete events FIFO) to its destination shard.
    fn flush_outboxes(&mut self) {
        for (dest, fold) in self.shard.outboxes.iter_mut().enumerate() {
            if fold.is_empty() {
                continue;
            }
            let mut run = Vec::with_capacity(fold.len());
            fold.take_all_into(&mut run);
            while let Some(ev) = fold.pop_overflow() {
                run.push(ev);
            }
            self.sent += run.len() as u64;
            if let Some(tx) = &self.peers[dest] {
                let _ = tx.send(ToWorker::Run(run));
            }
        }
    }

    /// Reports counters (and answers any outstanding probe) right before
    /// blocking — the coordinator's only wake-up signal.
    fn report_idle(&mut self) {
        let probe = self.pending_probe.take().unwrap_or(0);
        let _ = self.status.send(FromWorker::Idle {
            worker: self.worker,
            probe,
            sent: self.sent,
            recvd: self.recvd,
        });
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

/// Coordinator-side bookkeeping for the quiescence detector.
struct Detector {
    txs: Vec<RoutedSender<ToWorker>>,
    rx: HubReceiver<FromWorker>,
    /// Latest `(sent, recvd)` reported by each worker.
    latest: Vec<Option<(u64, u64)>>,
    probe_id: u64,
    /// Set when a worker died or a channel closed: stop coordinating and
    /// let the scope join surface the panic.
    aborted: bool,
}

impl Detector {
    /// Folds one status in; flips `aborted` on a death notice.
    fn apply(&mut self, st: &FromWorker) {
        match *st {
            FromWorker::Idle { worker, sent, recvd, .. } => {
                if let Some(slot) = self.latest.get_mut(worker) {
                    *slot = Some((sent, recvd));
                }
            }
            FromWorker::Died => self.aborted = true,
            FromWorker::Done { .. } => {}
        }
    }

    /// Every worker has reported and the cumulative sums balance.
    fn sums_balance(&self) -> bool {
        let mut sent = 0u64;
        let mut recvd = 0u64;
        for slot in &self.latest {
            let Some((s, r)) = slot else { return false };
            sent += s;
            recvd += r;
        }
        sent == recvd
    }

    /// One probe round: returns every worker's counters as answered
    /// against this round's probe id, or `None` on abort.
    fn probe_round(&mut self) -> Option<Vec<(u64, u64)>> {
        self.probe_id += 1;
        let id = self.probe_id;
        for tx in &self.txs {
            if tx.send(ToWorker::Probe(id)).is_err() {
                self.aborted = true;
                return None;
            }
        }
        let mut snapshot: Vec<Option<(u64, u64)>> = vec![None; self.txs.len()];
        while snapshot.iter().any(Option::is_none) {
            let Ok(st) = self.rx.recv() else {
                self.aborted = true;
                return None;
            };
            self.apply(&st);
            if self.aborted {
                return None;
            }
            if let FromWorker::Idle { worker, probe, sent, recvd } = st {
                if probe == id {
                    if let Some(slot) = snapshot.get_mut(worker) {
                        *slot = Some((sent, recvd));
                    }
                }
            }
        }
        snapshot.into_iter().collect()
    }

    /// Blocks until quiescence is confirmed by two identical probe
    /// rounds (or coordination aborts).
    fn run(&mut self) {
        while !self.aborted {
            if self.sums_balance() {
                let Some(a) = self.probe_round() else { break };
                let Some(b) = self.probe_round() else { break };
                let mut sent = 0u64;
                let mut recvd = 0u64;
                for &(s, r) in &b {
                    sent += s;
                    recvd += r;
                }
                if a == b && sent == recvd {
                    return;
                }
                // Fresh activity surfaced mid-probe; the answers updated
                // `latest`, so re-evaluate immediately (no blocking recv:
                // the final statuses may already be drained).
                continue;
            }
            match self.rx.recv() {
                Ok(st) => self.apply(&st),
                Err(_) => self.aborted = true,
            }
            while let Ok(st) = self.rx.try_recv() {
                self.apply(&st);
                if self.aborted {
                    return;
                }
            }
        }
    }
}

/// Drives one drain to quiescence: spawns one worker per shard over the
/// queues the coordinator seeded, detects termination, and orders the
/// final state reads behind each worker's `Done` ack.
pub(crate) fn run_to_quiescence(
    p: &AsyncParams<'_>,
    shards: &mut [Shard],
    values: &mut [Value],
    dependency: &mut [Option<VertexId>],
) {
    let s_count = shards.len();
    // Thread ids: coordinator 0, worker s is s + 1. Logical channel from
    // thread f to thread t: f * t_count + t (one producer each).
    let t_count = s_count + 1;

    let mut factories = Vec::with_capacity(s_count);
    let mut mailboxes = Vec::with_capacity(s_count);
    for w in 0..s_count {
        let (factory, rx) = sync::logged_hub::<ToWorker>(p.race_log, w + 1);
        factories.push(factory);
        mailboxes.push(rx);
    }
    let (status_factory, status_rx) = sync::logged_hub::<FromWorker>(p.race_log, 0);

    let mut detector = Detector {
        txs: factories.iter().enumerate().map(|(w, f)| f.route(w + 1, 0)).collect(),
        rx: status_rx,
        latest: vec![None; s_count],
        probe_id: 0,
        aborted: false,
    };

    std::thread::scope(|scope| {
        let mut rest_v: &mut [Value] = values;
        let mut rest_d: &mut [Option<VertexId>] = dependency;
        let workers = mailboxes.into_iter().zip(shards.iter_mut()).zip(p.routes.ranges());
        for (worker, ((rx, shard), &(lo, hi))) in workers.enumerate() {
            let thread = worker + 1;
            let (v, tail_v) = rest_v.split_at_mut(ix(hi - lo));
            rest_v = tail_v;
            let (d, tail_d) = rest_d.split_at_mut(ix(hi - lo));
            rest_d = tail_d;
            let peers: Vec<Option<RoutedSender<ToWorker>>> = factories
                .iter()
                .enumerate()
                .map(|(peer, f)| {
                    (peer != worker).then(|| f.route(thread * t_count + peer + 1, thread))
                })
                .collect();
            let status = status_factory.route(thread * t_count, thread);
            let died = status.clone();
            let w = WorkerLoop {
                worker,
                thread,
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
                peers,
                status,
                sent: 0,
                recvd: 0,
                pending_probe: None,
                stopped: false,
                bin_cursor: 0,
                log: p.race_log.clone(),
            };
            p.race_log.record(TraceEvent::Send { thread: 0, channel: thread });
            scope.spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.run()));
                if let Err(payload) = result {
                    // Wake the coordinator out of its blocking recv so the
                    // whole scope can unwind instead of deadlocking.
                    let _ = died.send(FromWorker::Died);
                    std::panic::resume_unwind(payload);
                }
            });
        }

        detector.run();
        for tx in &detector.txs {
            let _ = tx.send(ToWorker::Stop);
        }
        // Await every worker's final ack; each one orders the
        // coordinator's post-join reads of that shard's state.
        let mut pending = s_count;
        while pending > 0 && !detector.aborted {
            match detector.rx.recv() {
                Ok(FromWorker::Done { worker }) => {
                    pending -= 1;
                    p.race_log.access(0, Resource::ShardState(worker), AccessKind::Read);
                }
                Ok(FromWorker::Died) => detector.aborted = true,
                Ok(FromWorker::Idle { .. }) => {}
                Err(_) => detector.aborted = true,
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DeleteStrategy;
    use crate::event::Carry;
    use crate::queue::QueueStats;
    use jetstream_algorithms::{EdgeOp, Sssp};
    use jetstream_graph::{Csr, CsrPair};

    // kills jm-3a60197c (async_mode.rs logic-swap in Detector::run:
    // `a == b && sent == recvd` -> `||`): balanced sums alone must not
    // confirm quiescence while consecutive probe rounds still observe
    // different counters.
    #[test]
    fn quiescence_needs_two_identical_probe_rounds_not_just_balanced_sums() {
        let log = RaceLog::default();
        let (worker_factory, worker_rx) = sync::logged_hub::<ToWorker>(&log, 1);
        let (status_factory, status_rx) = sync::logged_hub::<FromWorker>(&log, 0);
        let mut det = Detector {
            txs: vec![worker_factory.route(1, 0)],
            rx: status_rx,
            latest: vec![Some((0, 0))],
            probe_id: 0,
            aborted: false,
        };
        let status = status_factory.route(2, 1);
        let worker = std::thread::spawn(move || {
            let mut probes = 0u64;
            // Scripted counters: the first probe answers (1, 1), every
            // later one (2, 2). Sums balance in every round, but rounds
            // one and two observe different counters, so the detector
            // must run a second double-probe before declaring quiescence.
            while let Ok(ToWorker::Probe(id)) = worker_rx.recv() {
                probes += 1;
                let c = if probes == 1 { 1 } else { 2 };
                let idle = FromWorker::Idle { worker: 0, probe: id, sent: c, recvd: c };
                if status.send(idle).is_err() {
                    break;
                }
            }
            probes
        });
        det.run();
        assert!(!det.aborted);
        // Close the probe channel — both sender handles — so the
        // scripted worker's recv errors out and it exits.
        drop(det);
        drop(worker_factory);
        let probes = worker.join().expect("scripted worker exits cleanly");
        assert_eq!(probes, 4, "changed-but-balanced counters must force a second double-probe");
    }

    /// A drained queue, bit for bit: slot events in vertex order, then
    /// the overflow FIFO, then its counters.
    type Contents = (Vec<(VertexId, u64, bool, bool, Option<VertexId>)>, QueueStats);

    fn contents(q: &mut CoalescingQueue) -> Contents {
        let mut events = Vec::new();
        q.take_all_into(&mut events);
        events.extend(std::iter::from_fn(|| q.pop_overflow()));
        let bits = events
            .iter()
            .map(|e| (e.target, e.payload.to_bits(), e.is_delete, e.request, e.source));
        (bits.collect(), q.stats())
    }

    /// Shard 1 of four over 16 vertices emits the same traffic a row at a
    /// time or an event at a time; returns its counters, then its own
    /// queue and every outbox drained.
    fn emit_from_shard_one(by_row: bool, coalesce_deletes: bool) -> (RunStats, Vec<Contents>) {
        // Targets on every shard bound (4, 8, 12), just below one (3, 7,
        // 11), and at both ends of the vertex range.
        const ROW: [VertexId; 9] = [0, 3, 4, 5, 7, 8, 11, 12, 15];
        let weights = &ROW.map(|v| 1.0 + f64::from(v) / 4.0);
        let routes = Routes::new(&[0..4, 4..8, 8..12, 12..16]);
        let mut shard = Shard::new(1, &routes, 2);
        shard.queue.set_coalesce_deletes(coalesce_deletes);
        for outbox in &mut shard.outboxes {
            outbox.set_coalesce_deletes(coalesce_deletes);
        }
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
        // The delete waves meet each other (coalesced, or spilled with
        // coalescing off), the regular rows meet their residents (spilled)
        // and each other: sourced rows coalesce, and a sourceless one
        // clears the sources it dominates.
        let regular = |source, delta| Carry::Regular { delta, source };
        let delete = |source, payload| Carry::Delete { payload, source };
        let op = EdgeOp::AddWeight;
        let rows = [
            Row { targets: &ROW, carry: delete(6, 0.5) },
            Row { targets: &ROW[..5], carry: delete(13, 0.25) },
            Row { targets: &ROW, carry: regular(Some(2), 3.0) },
            Row {
                targets: &ROW,
                carry: Carry::Weighted { weights, base: 1.0, op, source: Some(9) },
            },
            Row { targets: &ROW[2..], carry: regular(None, 2.0) },
        ];
        for row in rows {
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
    // weighted and delete rows, with delete coalescing on and off. Kills
    // the splitter's bound predicate `v < hi` -> `<=` and a negated
    // own-shard test: either sends a run to a queue that does not cover
    // it.
    #[test]
    fn row_emission_splits_into_the_queues_per_event_emission_fills() {
        for coalesce_deletes in [true, false] {
            let (row_stats, by_row) = emit_from_shard_one(true, coalesce_deletes);
            let (event_stats, by_event) = emit_from_shard_one(false, coalesce_deletes);
            assert_eq!(row_stats, RunStats { events_generated: 39, ..RunStats::default() });
            assert_eq!(row_stats, event_stats);
            assert_eq!(by_row, by_event, "coalesce_deletes={coalesce_deletes}");
            let residents: Vec<usize> = by_row.iter().map(|(events, _)| events.len()).collect();
            // Own queue, then outboxes 0..4 (shard 1's covers nothing).
            let want = if coalesce_deletes { [12, 6, 0, 8, 8] } else { [9, 6, 0, 4, 4] };
            assert_eq!(residents, want, "coalesce_deletes={coalesce_deletes}");
        }
    }

    // kills jm-908d1a85 (async_mode.rs const-01 in report_idle): the
    // unsolicited-idle probe id must be 0 — any nonzero value could
    // collide with a live probe id and satisfy a round the worker never
    // actually answered at.
    #[test]
    fn unsolicited_idle_reports_carry_probe_id_zero() {
        let log = RaceLog::default();
        let (_to_factory, rx) = sync::logged_hub::<ToWorker>(&log, 1);
        let (status_factory, status_rx) = sync::logged_hub::<FromWorker>(&log, 0);
        let alg = Sssp::new(0);
        let csr = CsrPair::new(Csr::from_edges(1, &[]));
        let routes = Routes::new(std::slice::from_ref(&(0..1)));
        let mut shard = Shard::new(0, &routes, 1);
        let mut values = [0.0];
        let mut dependency = [None];
        let mut w = WorkerLoop {
            worker: 0,
            thread: 1,
            lo: 0,
            hi: 1,
            cx: KernelCtx::new(&alg, &csr, DeleteStrategy::Tag),
            yield_every: None,
            chunk: 0,
            routes: &routes,
            shard: &mut shard,
            values: &mut values,
            dependency: &mut dependency,
            rx,
            peers: vec![None],
            status: status_factory.route(2, 1),
            sent: 3,
            recvd: 5,
            pending_probe: Some(7),
            stopped: false,
            bin_cursor: 0,
            log: log.clone(),
        };
        w.report_idle(); // answers the outstanding probe and clears it
        w.report_idle(); // nothing pending: unsolicited
        match status_rx.recv().expect("first report") {
            FromWorker::Idle { worker, probe, sent, recvd } => {
                assert_eq!((worker, probe, sent, recvd), (0, 7, 3, 5));
            }
            _ => panic!("expected an idle status"),
        }
        match status_rx.recv().expect("second report") {
            FromWorker::Idle { probe, .. } => {
                assert_eq!(probe, 0, "unsolicited reports must carry probe id 0");
            }
            _ => panic!("expected an idle status"),
        }
    }
}
