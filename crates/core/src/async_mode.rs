//! The barrier-free drain of [`ShardedEngine`] (DESIGN.md §16).
//!
//! This is one drain of the [`Sharded`](crate::Sharded) executor — the
//! phase structure around it (delete propagation, request seeding, insert
//! streaming, recompute) is the flow's. Inside the call:
//!
//! * every worker drains its own [`CoalescingQueue`] continuously in
//!   *passes*, processing events through the shared kernel; emissions to
//!   its own shard re-enter its queue immediately (Gauss–Seidel style,
//!   which is where the async work saving comes from: residuals arriving
//!   between passes coalesce instead of being processed round by round);
//! * cross-shard emissions fold into per-destination *outbox queues*
//!   (small [`CoalescingQueue`]s over the destination's vertex range, so
//!   repeat emissions to one remote vertex coalesce before they ever
//!   travel) and are flushed after each pass as whole *runs* (one
//!   `Vec<Event>` of destination-local events per destination) — the
//!   receiver folds the run straight into its queue. The
//!   outbox queues cost `S` slot grids per worker (each sized to one
//!   shard's width, i.e. about one extra grid of the whole vertex set
//!   per worker), the price of shipping pre-coalesced runs;
//! * there is no barrier and no global round: termination is decided by a
//!   probe-based quiescence detector (below).
//!
//! # Quiescence detection
//!
//! Classic four-counter (double-probe) termination detection à la Mattern.
//! Each worker keeps cumulative counters `sent` / `recvd` of events it has
//! pushed to, and folded in from, other shards (coordinator seed runs
//! count into `recvd`; the coordinator tracks its own `sent` total).
//! Workers are *silent while busy*; whenever one is about to block on an
//! empty queue it reports `Idle { probe, sent, recvd }`, answering the
//! outstanding probe id, if any. The coordinator blocks on the status
//! channel (no polling), and when every worker's latest report satisfies
//! `Σ sent + coordinator seeds == Σ recvd` it runs **two** probe rounds:
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
//! Worker `s` records a `ShardState(s)` write per queue fold and per
//! processing pass; the coordinator records its `ShardState(s)` read only
//! after receiving that worker's final `Done` ack, so the post-join state
//! reads are happens-before ordered in the trace.
//!
//! [`ShardedEngine`]: crate::ShardedEngine
//! [`CoalescingQueue`]: crate::CoalescingQueue

use jetstream_algorithms::{EdgeOp, Reduce, Value};
use jetstream_graph::{ix, vid, VertexId, Weight};

use crate::event::Event;
use crate::kernel::{self, ExecState, KernelCtx, VertexState};
use crate::queue::CoalescingQueue;
use crate::sharded::sync::{self, AccessKind, HubReceiver, RaceLog, Resource, RoutedSender};
use crate::sharded::{maybe_yield, Shard};
use crate::stats::RunStats;

/// Read-only configuration shared by one async drain.
pub(crate) struct AsyncParams<'a> {
    /// The phase's kernel context; every worker gets a copy.
    pub cx: KernelCtx<'a>,
    /// Whether delete events may coalesce this phase (off during DAP
    /// delete propagation; the workers' queues take care of spilling).
    pub coalesce_deletes: bool,
    /// `S + 1` shard range boundaries.
    pub bounds: &'a [usize],
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
    queue: &'a mut CoalescingQueue,
    outfolds: &'a mut [CoalescingQueue],
    bounds: &'a [usize],
    route_table: &'a [u8],
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

    /// Folds the row's local run whole straight back into this shard's
    /// queue and the rest, event by event, into their destinations'
    /// outboxes (see [`owner_runs`]).
    // hot-path
    fn emit_row(&mut self, source: Option<VertexId>, targets: &[VertexId], delta: Value) {
        self.stats.events_generated += targets.len() as u64;
        let lo = self.verts.lo;
        for (run, local) in owner_runs(targets, lo, self.width) {
            if local {
                self.queue.insert_row(lo, run, delta, source, self.reduce);
            } else {
                for &v in run {
                    self.emit_remote(Event { source, ..Event::regular(v, delta) });
                }
            }
        }
    }

    /// [`emit_row`](ExecState::emit_row)'s split, each run taking its
    /// share of the row's weights.
    // hot-path
    fn emit_weighted_row(
        &mut self,
        source: Option<VertexId>,
        targets: &[VertexId],
        weights: &[Weight],
        base: Value,
        op: EdgeOp,
    ) {
        self.stats.events_generated += targets.len() as u64;
        let lo = self.verts.lo;
        let payload = |w| op.apply(base, w);
        let mut rest = weights;
        for (run, local) in owner_runs(targets, lo, self.width) {
            let (run_weights, tail) = rest.split_at(run.len());
            rest = tail;
            if local {
                self.queue.insert_weighted_row(lo, run, run_weights, payload, source, self.reduce);
            } else {
                for (&v, &w) in run.iter().zip(run_weights) {
                    self.emit_remote(Event { source, ..Event::regular(v, payload(w)) });
                }
            }
        }
    }

    /// [`emit_row`](ExecState::emit_row)'s split, for a delete wave.
    // hot-path
    fn emit_delete_row(&mut self, source: VertexId, targets: &[VertexId], payload: Value) {
        self.stats.events_generated += targets.len() as u64;
        let lo = self.verts.lo;
        for (run, local) in owner_runs(targets, lo, self.width) {
            if local {
                self.queue.insert_delete_row(lo, run, payload, source, self.reduce);
            } else {
                for &v in run {
                    self.emit_remote(Event::delete(source, v, payload));
                }
            }
        }
    }
}

/// Splits an ascending row into its maximal runs of targets local to the
/// shard `lo..lo + width`, or not, in row order: `(run, local)`. A CSR
/// row is ascending and shards are contiguous ranges, so there is at most
/// one local run.
fn owner_runs(
    targets: &[VertexId],
    lo: VertexId,
    width: VertexId,
) -> impl Iterator<Item = (&[VertexId], bool)> {
    let mut rest = targets;
    std::iter::from_fn(move || {
        let &first = rest.first()?;
        let local = first.wrapping_sub(lo) < width;
        let n = rest.iter().take_while(|&&v| (v.wrapping_sub(lo) < width) == local).count();
        let (run, tail) = rest.split_at(n);
        rest = tail;
        Some((run, local))
    })
}

/// One worker's whole async lifetime for one drain.
struct WorkerLoop<'a> {
    worker: usize,
    thread: usize,
    lo: VertexId,
    hi: VertexId,
    cx: KernelCtx<'a>,
    coalesce_deletes: bool,
    yield_every: Option<usize>,
    /// Queue bins drained per pass; 0 = the whole queue.
    chunk: usize,
    bounds: &'a [usize],
    shard: &'a mut Shard,
    values: &'a mut [Value],
    dependency: &'a mut [Option<VertexId>],
    rx: HubReceiver<ToWorker>,
    peers: Vec<Option<RoutedSender<ToWorker>>>,
    status: RoutedSender<FromWorker>,
    outfolds: Vec<CoalescingQueue>,
    sent: u64,
    recvd: u64,
    pending_probe: Option<u64>,
    stopped: bool,
    /// Rotating start bin for chunked passes.
    bin_cursor: usize,
    log: RaceLog,
    route_table: &'a [u8],
}

impl WorkerLoop<'_> {
    fn run(mut self) {
        // Route deletes through the queue's own overflow spill while
        // coalescing is off (DAP delete propagation).
        self.shard.queue.set_coalesce_deletes(self.coalesce_deletes);
        for fold in &mut self.outfolds {
            fold.set_coalesce_deletes(self.coalesce_deletes);
        }
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
            queue: &mut self.shard.queue,
            outfolds: &mut self.outfolds,
            bounds: self.bounds,
            route_table: self.route_table,
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
        for (dest, fold) in self.outfolds.iter_mut().enumerate() {
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
    /// Out-of-line outbox fold: keeps the per-edge `emit` body small
    /// enough to inline into the kernel loop (measured ~25% per-event
    /// win on the PageRank microbench). Localizes the event to the
    /// destination's range and coalesces it into that destination's
    /// outbox queue, so the flushed run carries only one event per
    /// remote vertex.
    #[inline(never)]
    fn emit_remote(&mut self, mut ev: Event) {
        // panic-ok: the route table has one entry per vertex
        let dest = usize::from(self.route_table[ix(ev.target)]);

        // panic-ok: table entries are shard indices < bounds.len() - 1
        ev.target -= vid(self.bounds[dest]);

        // panic-ok: dest is a shard index and outfolds has one queue per shard
        self.outfolds[dest].insert_with(ev, self.reduce);
    }
}

/// Coordinator-side bookkeeping for the quiescence detector.
struct Detector {
    txs: Vec<RoutedSender<ToWorker>>,
    rx: HubReceiver<FromWorker>,
    /// Latest `(sent, recvd)` reported by each worker.
    latest: Vec<Option<(u64, u64)>>,
    /// Events the coordinator seeded into worker queues.
    coord_sent: u64,
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
        let mut sent = self.coord_sent;
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
                let mut sent = self.coord_sent;
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

/// Drives one drain to quiescence: spawns one worker per shard, seeds
/// their queues with `seeds` (one inbox per shard, left empty), detects
/// termination, and orders the final state reads behind each worker's
/// `Done` ack.
pub(crate) fn run_to_quiescence(
    p: &AsyncParams<'_>,
    shards: &mut [Shard],
    values: &mut [Value],
    dependency: &mut [Option<VertexId>],
    seeds: &mut [Vec<Event>],
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

    // Per-vertex shard lookup (one byte per vertex): replaces a binary
    // search over `bounds` on every remote emission, the hottest branch
    // after the kernel itself.
    let n = p.bounds[s_count];
    let mut route_table = vec![0u8; n];
    for w in 0..s_count {
        #[allow(clippy::expect_used)] // invariant: `Sharded::new` asserts the `MAX_SHARDS` bound
        let tag = u8::try_from(w).expect("invariant: shard ids fit a byte (MAX_SHARDS = 256)");
        for slot in &mut route_table[p.bounds[w]..p.bounds[w + 1]] {
            *slot = tag;
        }
    }

    let mut detector = Detector {
        txs: factories.iter().enumerate().map(|(w, f)| f.route(w + 1, 0)).collect(),
        rx: status_rx,
        latest: vec![None; s_count],
        coord_sent: 0,
        probe_id: 0,
        aborted: false,
    };

    // Seed the worker queues before the workers exist; the mailboxes
    // buffer the runs. Runs travel in destination-local coordinates.
    for (w, inbox) in seeds.iter_mut().enumerate() {
        if inbox.is_empty() {
            continue;
        }
        let mut run = std::mem::take(inbox);
        // panic-ok: bounds has s_count + 1 entries, w < s_count
        let base = vid(p.bounds[w]);
        for ev in &mut run {
            ev.target -= base;
        }
        detector.coord_sent += run.len() as u64;
        // panic-ok: seeds has one entry per shard, as do detector.txs
        let _ = detector.txs[w].send(ToWorker::Run(run));
    }

    std::thread::scope(|scope| {
        let mut rest_v: &mut [Value] = values;
        let mut rest_d: &mut [Option<VertexId>] = dependency;
        let mut rest_s: &mut [Shard] = shards;
        for (worker, rx) in mailboxes.into_iter().enumerate() {
            let thread = worker + 1;
            // panic-ok: bounds has s_count + 1 entries, worker < s_count
            let (lo, hi) = (p.bounds[worker], p.bounds[worker + 1]);
            let width = hi - lo;
            let (v, tail_v) = rest_v.split_at_mut(width);
            rest_v = tail_v;
            let (d, tail_d) = rest_d.split_at_mut(width);
            rest_d = tail_d;
            let (sh, tail_s) = rest_s.split_at_mut(1);
            rest_s = tail_s;
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
                lo: vid(lo),
                hi: vid(hi),
                cx: p.cx,
                coalesce_deletes: p.coalesce_deletes,
                yield_every: plan_entry(p.yields, worker),
                chunk: plan_entry(p.chunks, worker).unwrap_or(0),
                bounds: p.bounds,
                shard: &mut sh[0], // panic-ok: split_at_mut(1) yields a one-element head
                values: v,
                dependency: d,
                rx,
                peers,
                status,
                outfolds: (0..s_count)
                    .map(|d| {
                        // panic-ok: bounds has s_count + 1 entries, d < s_count
                        CoalescingQueue::new(p.bounds[d + 1] - p.bounds[d], 1)
                    })
                    .collect(),
                sent: 0,
                recvd: 0,
                pending_probe: None,
                stopped: false,
                bin_cursor: 0,
                log: p.race_log.clone(),
                route_table: &route_table,
            };
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
    use jetstream_algorithms::Sssp;
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
            coord_sent: 0,
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
        let bounds = [0usize, 1];
        let route_table = [0u8];
        let mut shard = Shard {
            queue: CoalescingQueue::new(1, 1),
            stats: RunStats::default(),
            rounds: 0,
            impacted: Vec::new(),
            drain_scratch: Vec::new(),
        };
        let mut values = [0.0];
        let mut dependency = [None];
        let mut w = WorkerLoop {
            worker: 0,
            thread: 1,
            lo: 0,
            hi: 1,
            cx: KernelCtx::new(&alg, &csr, DeleteStrategy::Tag),
            coalesce_deletes: true,
            yield_every: None,
            chunk: 0,
            bounds: &bounds,
            shard: &mut shard,
            values: &mut values,
            dependency: &mut dependency,
            rx,
            peers: vec![None],
            status: status_factory.route(2, 1),
            outfolds: vec![CoalescingQueue::new(1, 1)],
            sent: 3,
            recvd: 5,
            pending_probe: Some(7),
            stopped: false,
            bin_cursor: 0,
            log: log.clone(),
            route_table: &route_table,
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
