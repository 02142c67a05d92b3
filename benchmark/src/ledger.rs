//! The traced run: one ledger of per-layer numbers per workload.
//!
//! Every probe calls a layer's public functions on the workload's own
//! seeded inputs, with a span around each call, so a millisecond of the
//! end-to-end figure can be assigned to `graph`, `core`, `store`, `serve`
//! or the simulator. The probes are the same for all four workloads —
//! each layer is measured everywhere, which is what shows that a layer
//! matters on one workload and not on another:
//!
//! 1. *engine passes* — the workload's own executor over the same batches
//!    twice, untraced then traced (spans, a `classify_batch` call and the
//!    batch re-applied to a shadow `AdjacencyGraph` / `CsrPair`);
//! 2. *tracer probe* — sequential engines with `set_tracing(true)` over
//!    the first batches: ops per §4.6 phase, the queue replayed round by
//!    round, and the trace through the cycle simulator;
//! 3. *sharded probe* — the first query on the 2-shard async executor
//!    beside the sequential engine, checked against the async contract;
//! 4. *pipeline probe* — messages through encode, framing, decode,
//!    admission and a durable backend, single-threaded, plus the store's
//!    append / sync / checkpoint / recover on the same batches;
//! 5. *live probe* — the real server over TCP (`live`), short segments.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::Path as FsPath;
use std::time::{Duration, Instant};

use jetstream_algorithms::Workload;
use jetstream_core::sync::{RaceLog, TraceEvent};
use jetstream_core::trace::Trace;
use jetstream_core::{
    CoalescingQueue, DeleteStrategy, EngineConfig, Event, RunStats, StreamingEngine,
};
use jetstream_graph::{AdjacencyGraph, EdgeUpdate, UpdateBatch, VertexId};
use jetstream_serve::admission::{Admission, FlushPolicy};
use jetstream_serve::backend::Backend;
use jetstream_serve::clock::{Clock as _, ManualClock};
use jetstream_serve::framing::{read_frame_blocking, write_frame};
use jetstream_serve::protocol::{decode_request, encode_request, Request};
use jetstream_serve::queries;
use jetstream_sim::{AcceleratorSim, SimConfig};
use jetstream_store::snapshot::SnapshotState;
use jetstream_store::{DurableEngine, DurableStore, RecoveryOptions, StoreOptions};

use crate::check::{replay_graph, values_agree, Tally};
use crate::engines::{
    algorithm, warm_sequential, Converged, Engine, EngineSet, Inputs, ASYNC_SHARDS,
};
use crate::live::{self, LivePlan, Served, Target};
use crate::measure::{median, Samples};
use crate::offline::{check_engines, timed_batches, Outcome, TIME_LIMIT_FACTOR};
use crate::spans::{self, SpanRecorder};
use crate::spec::{Path, Scenario, PER_LAYER, QUERY_RATE_PER_S, SERVE_RATE_MSGS_PER_S};
use crate::stream::as_message;

/// Batches run with the engine tracer on (phase shares, queue replay,
/// simulator).
const TRACED_BATCHES: usize = 20;
/// Batches of the sharded probe's timed comparison, and of its race-logged
/// tail.
const SHARDED_BATCHES: usize = 20;
const RACE_LOGGED_BATCHES: usize = 3;
/// Messages pushed through the single-threaded serving pipeline.
const PIPELINE_MESSAGES: usize = 32;
/// Point queries timed in bulk per kind.
const BULK_QUERIES: usize = 20_000;
/// `DurableEngine::recover` runs for the median.
const RECOVER_RUNS: usize = 5;

/// Share of the measured seconds each probe that scales with them is
/// sized for.
const ENGINE_PASS_SHARE: f64 = 0.2;
const LIVE_CLOSED_SHARE: f64 = 0.1;
const LIVE_OPEN_SHARE: f64 = 0.2;

/// Metric values collected by name.
type Ledger = BTreeMap<&'static str, f64>;

/// What the single-query probes work on: the workload's first query, warm.
#[derive(Clone, Copy)]
struct Subject<'a> {
    workload: Workload,
    root: VertexId,
    base: &'a AdjacencyGraph,
    state: &'a Converged,
}

impl Subject<'_> {
    /// A fresh sequential engine over the base graph, already converged.
    fn sequential(&self) -> Result<StreamingEngine, String> {
        warm_sequential(self.workload, self.root, self.base.clone(), self.state)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn first_n(batches: &[UpdateBatch], n: usize) -> &[UpdateBatch] {
    batches.get(..n).unwrap_or(batches)
}

fn updates_in(batches: &[UpdateBatch]) -> f64 {
    batches.iter().map(UpdateBatch::len).sum::<usize>() as f64
}

/// Probe 1b: the traced engine pass.
fn traced_pass(
    engines: &mut EngineSet,
    base: &AdjacencyGraph,
    batches: &[UpdateBatch],
    rec: &mut SpanRecorder,
    tally: &mut Tally,
) -> (Samples, RunStats) {
    let mut shadow_host = base.clone();
    let mut shadow_csr = base.snapshot_pair();
    let mut apply_ms = Samples::default();
    let mut work = RunStats::default();
    for (i, batch) in batches.iter().enumerate() {
        rec.set_batch(i);
        rec.enter("batch");
        let mut batch_ns = 0u64;
        for (_, engine) in &mut engines.members {
            rec.enter("core.classify");
            std::hint::black_box(engine.classify(batch));
            rec.exit();
            rec.enter("core.apply");
            let result = engine.apply(batch);
            batch_ns += rec.exit();
            match result {
                Ok(stats) => work += stats,
                Err(e) => tally.fail(format!("traced batch {i} refused: {e}")),
            }
        }
        rec.enter("graph.host_apply");
        let host = shadow_host.apply_batch(batch);
        rec.exit();
        rec.enter("graph.dcsr_apply");
        let csr = shadow_csr.apply_batch(batch);
        rec.exit();
        rec.exit();
        if host.is_err() || csr.is_err() {
            tally.fail(format!("shadow graph refused batch {i}"));
        }
        apply_ms.push(batch_ns as f64 / 1e6);
    }
    (apply_ms, work)
}

/// What the tracer probe counted.
#[derive(Debug, Default)]
struct TracerNumbers {
    phase_ops: BTreeMap<&'static str, u64>,
    replay_ns: u64,
    replay_events: u64,
    sim_cycles: u64,
    sim_accesses: u64,
    sim_row_hits: u64,
    sim_host_ns: u64,
    sim_ops: u64,
    cold_cycles: u64,
}

/// Replays a trace's generated events round by round through a queue:
/// every round's targets are inserted, then drained.
fn replay_queue(
    trace: &Trace,
    queue: &mut CoalescingQueue,
    alg: &dyn jetstream_algorithms::Algorithm,
    scratch: &mut Vec<Event>,
) -> (u64, u64) {
    let mut events = 0u64;
    let start = Instant::now();
    for phase in &trace.phases {
        for round in &phase.rounds {
            for op in &round.ops {
                for &target in trace.targets_of(op) {
                    queue.insert(Event::regular(target, 1.0), alg);
                    events += 1;
                }
            }
            scratch.clear();
            std::hint::black_box(queue.take_all_into(scratch));
        }
    }
    (u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX), events)
}

/// Probe 2: sequential engines with the tracer on.
fn tracer_probe(
    scenario: &Scenario,
    base: &AdjacencyGraph,
    root: VertexId,
    states: &[Converged],
    batches: &[UpdateBatch],
    tally: &mut Tally,
) -> Result<TracerNumbers, String> {
    let mut out = TracerNumbers::default();
    let config = EngineConfig::default();
    let mut scratch = Vec::new();
    for (&workload, state) in scenario.algorithms.iter().zip(states) {
        let alg = algorithm(workload, root);
        let mut queue = CoalescingQueue::new(base.num_vertices(), config.num_bins);
        let mut engine = warm_sequential(workload, root, base.clone(), state)?;
        let mut sim = AcceleratorSim::new(SimConfig::jetstream(DeleteStrategy::Dap));
        engine.set_tracing(true);
        for (i, batch) in batches.iter().enumerate() {
            if let Err(e) = engine.apply_update_batch(batch) {
                tally.fail(format!("tracer batch {i} refused: {e}"));
                continue;
            }
            let trace = engine.take_trace();
            for phase in &trace.phases {
                let ops: usize = phase.rounds.iter().map(|r| r.ops.len()).sum();
                *out.phase_ops.entry(phase.phase.label()).or_default() += ops as u64;
            }
            let (ns, events) = replay_queue(&trace, &mut queue, alg.as_ref(), &mut scratch);
            out.replay_ns += ns;
            out.replay_events += events;
            let start = Instant::now();
            let report = sim.replay(&trace, engine.csr());
            out.sim_host_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            out.sim_ops += trace.num_ops() as u64;
            out.sim_cycles += report.cycles;
            out.sim_accesses += report.dram.reads + report.dram.writes;
            out.sim_row_hits += report.dram.row_hits;
        }
        // The restart baseline: the same query evaluated cold on the base
        // graph, through the GraphPulse datapath.
        let mut cold = StreamingEngine::new(algorithm(workload, root), base.clone(), config);
        cold.set_tracing(true);
        cold.initial_compute();
        let trace = cold.take_trace();
        out.cold_cycles +=
            AcceleratorSim::new(SimConfig::graphpulse()).replay(&trace, cold.csr()).cycles;
    }
    Ok(out)
}

/// What the sharded probe measured.
#[derive(Debug, Default)]
struct ShardedNumbers {
    modeled_speedup: f64,
    critical_path_share: f64,
    cross_shard_sends_per_update: f64,
    async_vs_seq_ratio: f64,
}

/// Probe 3: the first query on both executors over the same batches.
fn sharded_probe(
    subject: Subject<'_>,
    batches: &[UpdateBatch],
    tally: &mut Tally,
) -> Result<ShardedNumbers, String> {
    let Subject { workload, root, base, state } = subject;
    let timed = batches.len().saturating_sub(RACE_LOGGED_BATCHES);
    let (timed, logged) = batches.split_at(timed);
    let mut sequential = Engine::Sequential(Box::new(subject.sequential()?));
    let mut sharded = Engine::warm(false, workload, root, base.clone(), state)?;
    let time = |engine: &mut Engine| -> Result<f64, String> {
        let start = Instant::now();
        for batch in timed {
            engine.apply(batch).map_err(|e| format!("sharded probe: {e}"))?;
        }
        Ok(start.elapsed().as_secs_f64())
    };
    let seq_s = time(&mut sequential)?;
    let async_s = time(&mut sharded)?;
    // DESIGN.md §16.3: bit-exact for selective queries, within the
    // accumulative tolerance otherwise.
    tally.record(
        values_agree(workload, sharded.values(), sequential.values())
            .map_err(|e| format!("async contract: {e}")),
    );
    let Engine::Async(engine) = &mut sharded else {
        return Err(String::from("sharded probe built a sequential engine"));
    };
    let model = engine.parallel_model();
    let log = RaceLog::enabled();
    engine.set_race_log(log.clone());
    for batch in logged {
        engine.apply_update_batch(batch).map_err(|e| format!("race-logged batch: {e}"))?;
    }
    engine.set_race_log(RaceLog::default());
    // Thread 0 is the coordinator, worker s is thread s + 1; the channel
    // from thread f to thread t is f * threads + t.
    let threads = ASYNC_SHARDS + 1;
    let cross = log
        .take()
        .iter()
        .filter(|ev| match ev {
            TraceEvent::Send { thread, channel } => {
                *thread >= 1 && channel / threads == *thread && channel % threads >= 1
            }
            _ => false,
        })
        .count();
    Ok(ShardedNumbers {
        modeled_speedup: model.modeled_speedup(),
        critical_path_share: ratio(model.critical_path as f64, model.total_work as f64),
        cross_shard_sends_per_update: ratio(cross as f64, updates_in(logged)),
        async_vs_seq_ratio: ratio(async_s, seq_s),
    })
}

/// Probe 4a: messages through the serving pipeline on one thread.
fn pipeline_probe(
    subject: Subject<'_>,
    messages: &[Vec<EdgeUpdate>],
    dir: &FsPath,
    rec: &mut SpanRecorder,
    ledger: &mut Ledger,
    tally: &mut Tally,
) -> Result<(), String> {
    let durable = DurableEngine::create(dir, subject.sequential()?, StoreOptions::default())
        .map_err(|e| format!("pipeline store: {e}"))?;
    let mut backend = Backend::Durable(Box::new(durable));
    let mut admission = Admission::fresh(FlushPolicy::default());
    let clock = ManualClock::at_zero();
    let (mut updates, mut batches) = (0usize, 0usize);
    let apply = |backend: &mut Backend, rec: &mut SpanRecorder, batch: &UpdateBatch| {
        rec.enter("serve.backend_apply");
        let applied = backend.apply_admitted(batch);
        rec.exit();
        applied.map(|_| ()).map_err(|e| format!("pipeline apply: {e}"))
    };
    for (i, message) in messages.iter().enumerate() {
        rec.set_batch(i);
        let request = Request::Update { token: i as u64 + 1, updates: message.clone() };
        rec.enter("message");
        rec.enter("serve.encode");
        let payload = encode_request(&request);
        rec.exit();
        rec.enter("serve.frame_rw");
        let mut wire = Vec::with_capacity(payload.len() + 4);
        let framed = write_frame(&mut wire, &payload).map_err(|e| e.to_string());
        let read = read_frame_blocking(&mut Cursor::new(&wire)).map_err(|e| e.to_string());
        rec.exit();
        framed?;
        let received = read?.ok_or("frame vanished from the memory buffer")?;
        rec.enter("serve.decode");
        let decoded = decode_request(&received);
        rec.exit();
        let Ok(Request::Update { token, updates: decoded }) = decoded else {
            return Err(format!("message {i} did not decode to an update"));
        };
        // Every message arrives 100 us after the last; the 2 ms flush
        // deadline of the default policy fires as it would live.
        clock.advance_ns(100_000);
        rec.enter("serve.admit");
        let admitted = admission.admit(1, token, &decoded, backend.graph(), clock.now_ns());
        rec.exit();
        match admitted {
            Ok(ok) => {
                updates += decoded.len();
                tally.ok(1);
                for sealed in ok.sealed {
                    apply(&mut backend, rec, &sealed.batch)?;
                    batches += 1;
                }
            }
            Err(rejection) => tally.fail(format!("pipeline message {i} rejected: {rejection}")),
        }
        if let Some(sealed) = admission.flush_due(clock.now_ns()) {
            apply(&mut backend, rec, &sealed.batch)?;
            batches += 1;
        }
        rec.exit();
    }
    if let Some(sealed) = admission.force_flush() {
        rec.enter("message");
        apply(&mut backend, rec, &sealed.batch)?;
        rec.exit();
        batches += 1;
    }
    let times = spans::layer_times(rec.spans());
    let total = |name: &str| times.get(name).map_or(0.0, |t| t.total_ns as f64);
    ledger.insert("serve.encode_ns_per_update", ratio(total("serve.encode"), updates as f64));
    ledger.insert("serve.decode_ns_per_update", ratio(total("serve.decode"), updates as f64));
    ledger
        .insert("serve.frame_rw_ns_per_msg", ratio(total("serve.frame_rw"), messages.len() as f64));
    ledger.insert("serve.admit_ns_per_update", ratio(total("serve.admit"), updates as f64));
    ledger.insert(
        "serve.backend_apply_us_per_batch",
        ratio(total("serve.backend_apply"), batches as f64) / 1e3,
    );

    let n = subject.base.num_vertices();
    let start = Instant::now();
    for i in 0..BULK_QUERIES {
        let vertex = (i * 7919 % n) as VertexId;
        std::hint::black_box(queries::vertex_value(backend.query_state(), vertex));
    }
    ledger.insert("serve.query_value_ns", start.elapsed().as_nanos() as f64 / BULK_QUERIES as f64);
    let start = Instant::now();
    for i in 0..BULK_QUERIES {
        let vertex = (i * 7919 % n) as VertexId;
        std::hint::black_box(queries::dependence_path(backend.query_state(), vertex));
    }
    ledger.insert("serve.query_path_ns", start.elapsed().as_nanos() as f64 / BULK_QUERIES as f64);
    Ok(())
}

/// Probe 4b: the store's own calls on the workload's batches, with fsync
/// split out from append.
fn store_probe(
    base: &AdjacencyGraph,
    state: &Converged,
    batches: &[UpdateBatch],
    dir: &FsPath,
    rec: &mut SpanRecorder,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let options =
        StoreOptions { checkpoint_interval: 0, retain_snapshots: 1, sync_every_batch: false };
    let mut store = DurableStore::create(dir, options, 0, base, None)
        .map_err(|e| format!("store probe create: {e}"))?;
    for (i, batch) in batches.iter().enumerate() {
        rec.set_batch(i);
        rec.enter("store.wal_append");
        let appended = store.append(batch);
        rec.exit();
        rec.enter("store.wal_sync");
        let synced = store.sync();
        rec.exit();
        appended.map_err(|e| format!("wal append: {e}"))?;
        synced.map_err(|e| format!("wal sync: {e}"))?;
    }
    let wal_bytes = store.disk_usage().map_err(|e| e.to_string())?.wal_bytes;
    let graph = replay_graph(base, batches)?;
    let snapshot =
        SnapshotState { values: state.values.clone(), dependency: state.dependency.clone() };
    rec.enter("store.checkpoint");
    let checkpointed = store.checkpoint(&graph, Some(&snapshot));
    let checkpoint_ns = rec.exit();
    checkpointed.map_err(|e| format!("checkpoint: {e}"))?;
    let snapshot_bytes = store.disk_usage().map_err(|e| e.to_string())?.snapshot_bytes;
    let times = spans::layer_times(rec.spans());
    let per_batch = |name: &str| {
        times.get(name).map_or(0.0, |t| ratio(t.total_ns as f64, t.count as f64) / 1e3)
    };
    ledger.insert("store.wal_append_us_per_batch", per_batch("store.wal_append"));
    ledger.insert("store.wal_sync_us_per_batch", per_batch("store.wal_sync"));
    ledger.insert("store.checkpoint_ms", checkpoint_ns as f64 / 1e6);
    ledger.insert("store.wal_bytes_per_update", ratio(wal_bytes as f64, updates_in(batches)));
    ledger.insert("store.snapshot_bytes", snapshot_bytes as f64);
    Ok(())
}

/// Probe 4c: a directory of fixed shape — a snapshot and `tail` WAL
/// records — recovered [`RECOVER_RUNS`] times.
fn recover_probe(
    subject: Subject<'_>,
    tail: &[UpdateBatch],
    dir: &FsPath,
    ledger: &mut Ledger,
    tally: &mut Tally,
) -> Result<(), String> {
    let Subject { workload, root, .. } = subject;
    let options = StoreOptions { checkpoint_interval: 0, ..StoreOptions::default() };
    let mut durable = DurableEngine::create(dir, subject.sequential()?, options)
        .map_err(|e| format!("recover probe create: {e}"))?;
    for batch in tail {
        durable.apply_update_batch(batch).map_err(|e| format!("recover probe build: {e}"))?;
    }
    let want = durable.into_engine();
    let mut seconds = Vec::new();
    let mut replayed = 0usize;
    for _ in 0..RECOVER_RUNS {
        let start = Instant::now();
        let recovered = DurableEngine::recover(
            dir,
            algorithm(workload, root),
            EngineConfig::default(),
            options,
            RecoveryOptions::default(),
        );
        seconds.push(start.elapsed().as_secs_f64());
        match recovered {
            Ok((engine, report)) => {
                replayed = report.replayed_batches;
                // Replay is the sequential engine on identical inputs:
                // every bit must match, for every query kind.
                let same = engine
                    .engine()
                    .values()
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(want.values().iter().map(|v| v.to_bits()))
                    && engine.engine().graph() == want.graph();
                let verdict =
                    if same { Ok(()) } else { Err(String::from("recovered state differs")) };
                tally.record(verdict);
            }
            Err(e) => tally.fail(format!("recover: {e}")),
        }
    }
    ledger.insert("diag.recover_s", median(&mut seconds).unwrap_or(0.0));
    ledger.insert("store.recover_replayed_batches", replayed as f64);
    Ok(())
}

/// The whole traced run of `scenario`.
pub fn run(
    scenario: &Scenario,
    seed: u64,
    seconds: f64,
    out_dir: &FsPath,
    spans_path: &FsPath,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut ledger = Ledger::new();
    let mut rec = SpanRecorder::start();
    let first = *scenario.algorithms.first().ok_or("scenario without a query")?;

    // Inputs, and one cold evaluation whose state warm-starts every probe.
    let mut inputs = Inputs::generate(scenario, seed);
    let mut live_stream = inputs.stream.clone();
    // A fixed number of batches, so the work counters repeat exactly.
    let cap = (seconds * ENGINE_PASS_SHARE * scenario.nominal_per_s).ceil() as usize;
    // Every probe starts from the base graph, so every probe's batches are
    // the head of the one stream.
    let probe_len = TRACED_BATCHES
        .max(SHARDED_BATCHES + RACE_LOGGED_BATCHES)
        .max(PIPELINE_MESSAGES)
        .max(scenario.recover_tail);
    let mut batches = inputs.take_batches(scenario, cap.max(probe_len));
    let head: Vec<UpdateBatch> = batches.iter().take(probe_len).cloned().collect();
    let Inputs { base, root, .. } = inputs;
    let mut engines = EngineSet::cold(scenario, &base, root);
    engines.initial_compute();
    let states = engines.converged();
    let subject = Subject {
        workload: first,
        root,
        base: &base,
        state: states.first().ok_or("no converged state")?,
    };

    // 1. Engine passes, untraced then traced, over the same batches.
    let limit = Duration::from_secs_f64(seconds * ENGINE_PASS_SHARE * TIME_LIMIT_FACTOR);
    let untraced = timed_batches(&mut engines, &batches, limit, None, &mut tally);
    let applied = untraced.applied();
    drop(engines);
    batches.truncate(applied);
    let mut engines = EngineSet::warm(scenario, &base, root, &states)?;
    let (mut traced_ms, work) = traced_pass(&mut engines, &base, &batches, &mut rec, &mut tally);
    let oracle_ms = check_engines(&base, root, &batches, &engines, &mut tally);
    let n = applied as f64;
    let updates = updates_in(&batches);
    let times = spans::layer_times(rec.spans());
    let total_us = |name: &str| times.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e3);
    let (host_us, dcsr_us) = (total_us("graph.host_apply"), total_us("graph.dcsr_apply"));
    let apply_us = total_us("core.apply");
    let members = engines.members.len() as f64;
    let untraced_all = untraced.raw("untraced batches").ok_or("no untraced batch was applied")?;
    let untraced_p50 = untraced_all.p50_ms;
    ledger.insert("diag.batch_p95_ms", untraced_all.p95_ms);
    let traced_p50 = traced_ms.percentile("traced batch p50", 50.0).unwrap_or(0.0);
    ledger.insert("trace_overhead_ratio", ratio(traced_p50, untraced_p50));
    ledger.insert("graph.host_apply_us_per_batch", ratio(host_us, n));
    ledger.insert("graph.dcsr_apply_us_per_batch", ratio(dcsr_us, n));
    ledger.insert("core.apply_us_per_batch", ratio(apply_us, n));
    ledger.insert("core.self_us_per_batch", ratio(apply_us - members * (host_us + dcsr_us), n));
    ledger.insert("core.classify_us_per_batch", ratio(total_us("core.classify"), n));
    ledger.insert("core.ns_per_event", ratio(apply_us * 1e3, work.events_processed as f64));
    ledger.insert("core.events_processed_per_update", ratio(work.events_processed as f64, updates));
    ledger.insert("core.events_generated_per_update", ratio(work.events_generated as f64, updates));
    ledger.insert(
        "core.coalesce_ratio",
        ratio(work.events_coalesced as f64, work.events_generated as f64),
    );
    ledger.insert("core.edge_reads_per_update", ratio(work.edge_reads as f64, updates));
    ledger.insert("core.vertex_writes_per_update", ratio(work.vertex_writes as f64, updates));
    ledger.insert("core.resets_per_update", ratio(work.resets as f64, updates));
    ledger.insert("core.delete_events_per_update", ratio(work.delete_events as f64, updates));
    ledger.insert("core.request_events_per_update", ratio(work.request_events as f64, updates));
    ledger.insert("core.rounds_per_batch", ratio(work.rounds as f64, n));
    ledger.insert("core.spilled_events_per_batch", ratio(work.spilled_events as f64, n));
    if let Some((_, engine)) = engines.members.first() {
        let csr = &engine.csr().out;
        ledger.insert(
            "graph.dcsr_slack_ratio",
            ratio(csr.arena_slots() as f64, csr.num_edges() as f64),
        );
        ledger.insert("graph.edges_live_end", csr.num_edges() as f64);
    }
    ledger.insert("algorithms.oracle_ms", oracle_ms);
    drop((engines, batches));

    // 2. Tracer probe.
    let traced = first_n(&head, TRACED_BATCHES);
    let tracer = tracer_probe(scenario, &base, root, &states, traced, &mut tally)?;
    let all_ops: u64 = tracer.phase_ops.values().sum();
    for metric in PER_LAYER {
        if let Some(label) = metric.name.strip_prefix("core.phase_ops_share.") {
            let ops = tracer.phase_ops.get(label).copied().unwrap_or(0);
            ledger.insert(metric.name, ratio(ops as f64, all_ops as f64));
        }
    }
    ledger.insert(
        "core.queue_replay_ns_per_event",
        ratio(tracer.replay_ns as f64, tracer.replay_events as f64),
    );
    let traced_updates = updates_in(traced);
    ledger.insert("sim.cycles_per_update", ratio(tracer.sim_cycles as f64, traced_updates));
    ledger.insert(
        "sim.dram_row_hit_ratio",
        ratio(tracer.sim_row_hits as f64, tracer.sim_accesses as f64),
    );
    ledger.insert(
        "sim.speedup_vs_cold",
        ratio(tracer.cold_cycles as f64, ratio(tracer.sim_cycles as f64, traced.len() as f64)),
    );
    ledger.insert("sim.host_ns_per_op", ratio(tracer.sim_host_ns as f64, tracer.sim_ops as f64));

    // 3. Sharded probe.
    let sharded_batches = first_n(&head, SHARDED_BATCHES + RACE_LOGGED_BATCHES);
    let sharded = sharded_probe(subject, sharded_batches, &mut tally)?;
    ledger.insert("core.sharded.modeled_speedup", sharded.modeled_speedup);
    ledger.insert("core.sharded.critical_path_share", sharded.critical_path_share);
    ledger
        .insert("core.sharded.cross_shard_sends_per_update", sharded.cross_shard_sends_per_update);
    ledger.insert("core.sharded.async_vs_seq_ratio", sharded.async_vs_seq_ratio);

    // 4. Pipeline, store and recovery probes.
    let messages: Vec<Vec<EdgeUpdate>> =
        first_n(&head, PIPELINE_MESSAGES).iter().map(as_message).collect();
    let pipeline_dir = out_dir.join("pipeline");
    pipeline_probe(subject, &messages, &pipeline_dir, &mut rec, &mut ledger, &mut tally)?;
    store_probe(
        &base,
        subject.state,
        first_n(&head, PIPELINE_MESSAGES),
        &out_dir.join("store"),
        &mut rec,
        &mut ledger,
    )?;
    let tail = first_n(&head, scenario.recover_tail);
    recover_probe(subject, tail, &out_dir.join("recover"), &mut ledger, &mut tally)?;
    // The ratio is taken over the workload's own path: the engine pass for
    // the in-process workloads, the message pipeline for the served one.
    let own_root = if scenario.path == Path::Served { "message" } else { "batch" };
    ledger.insert("layer_sum_ratio", spans::layer_sum_ratio(rec.spans(), own_root).unwrap_or(0.0));

    // 5. Live probe: the real server, short segments.
    let served = Served::start(subject.sequential()?, &out_dir.join("live"))?;
    let plan = LivePlan {
        closed_messages: (seconds * LIVE_CLOSED_SHARE * scenario.nominal_per_s).ceil() as usize,
        closed_limit_s: seconds * LIVE_CLOSED_SHARE * TIME_LIMIT_FACTOR,
        open_s: seconds * LIVE_OPEN_SHARE,
        open_rate: (scenario.path == Path::Served).then_some(SERVE_RATE_MSGS_PER_S),
        query_rate: QUERY_RATE_PER_S,
        message_updates: scenario.batch_updates,
    };
    let target = Target { workload: first, root, base: &base, seed };
    let mut live = live::drive(served, &target, &mut live_stream, &plan, &mut tally)?;
    let stats = live.stats;
    ledger.insert(
        "serve.updates_per_sealed_batch",
        ratio(stats.updates_applied as f64, stats.batches_applied as f64),
    );
    ledger.insert(
        "serve.fast_path_batch_share",
        ratio(stats.fast_path_batches as f64, stats.batches_applied as f64),
    );
    let messages_sent = (live.closed_messages + live.open_messages) as f64;
    ledger.insert("serve.busy_share", ratio(stats.busy_rejections as f64, messages_sent));
    ledger.insert("serve.checkpoints", stats.checkpoints as f64);
    ledger.insert(
        "serve.generator_lag_p99_us",
        live.lag_us.percentile("serve.generator_lag_p99_us", 99.0).unwrap_or(0.0),
    );
    ledger.insert("serve.backlog_end_msgs", live.backlog_end as f64);
    for (name, p) in [("diag.ingest_p50_ms", 50.0), ("diag.ingest_p99_ms", 99.0)] {
        ledger.insert(name, live.ingest_raw_ms.percentile(name, p).unwrap_or(0.0));
    }
    for (name, p) in [("diag.query_p50_us", 50.0), ("diag.query_p99_us", 99.0)] {
        ledger.insert(name, live.query_us.percentile(name, p).unwrap_or(0.0));
    }

    spans::write_jsonl(spans_path, rec.spans()).map_err(|e| format!("span file: {e}"))?;
    eprintln!("{}: {} spans written to {}", scenario.name, rec.spans().len(), spans_path.display());

    // `main` refuses to print a result that lacks any listed metric.
    Ok(Outcome { tally, metrics: ledger.into_iter().collect() })
}
