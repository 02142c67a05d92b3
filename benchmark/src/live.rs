//! Driving the shipped serving stack over TCP loopback: a closed-loop
//! saturation segment, then an open-loop segment of writes on a fixed
//! schedule beside point queries, then shutdown and the output checks.
//!
//! The server runs with `ServerConfig::default()` over a
//! `Backend::Durable` with `StoreOptions::default()` (fsync per batch,
//! checkpoint every 64 batches). Two client connections, as sized for a
//! 2-core host: one carries update messages (its replies are read on a
//! second thread so a slow server never slows the schedule), one carries
//! queries.

use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use jetstream_algorithms::{oracle_values, Value, Workload};
use jetstream_core::{EngineConfig, StreamingEngine};
use jetstream_graph::rng::DetRng;
use jetstream_graph::{AdjacencyGraph, EdgeUpdate, VertexId};
use jetstream_serve::admission::FlushPolicy;
use jetstream_serve::backend::Backend;
use jetstream_serve::client::Client;
use jetstream_serve::framing::{read_frame_blocking, write_frame, Conn};
use jetstream_serve::protocol::{
    decode_response, encode_request, Request, Response, ServerStats, PROTOCOL_VERSION,
};
use jetstream_serve::server::{self, AppliedBatch, Endpoint, ServerConfig, ServerHandle};
use jetstream_store::{DurableEngine, RecoveryOptions, StoreOptions};

use crate::check::{graph_agrees, replay_graph, values_agree, Tally};
use crate::engines::algorithm;
use crate::measure::{median, peak_rss_mib, Samples};
use crate::noise::{HostMonitor, HostReadings};
use crate::openloop::{Clock, Pacer, WallClock};
use crate::stream::{as_message, ChurnStream};

/// Answers sampled over the wire after the last write and compared with
/// the oracle.
const SAMPLED_ANSWERS: usize = 256;

/// One framed protocol connection whose two directions can live on
/// different threads (the stock `Client` is strictly request/reply).
#[derive(Debug)]
pub struct Wire {
    conn: Conn,
}

impl Wire {
    /// Connects and completes the `Hello` handshake.
    pub fn connect(addr: &str, name: &str) -> Result<Wire, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let conn = Conn::Tcp(stream);
        conn.set_nodelay().map_err(|e| e.to_string())?;
        let mut wire = Wire { conn };
        wire.send(&Request::Hello { version: PROTOCOL_VERSION, client_name: name.to_string() })?;
        match wire.recv()? {
            Response::HelloAck { .. } => Ok(wire),
            other => Err(format!("handshake answered {other:?}")),
        }
    }

    /// A second handle on the same socket.
    pub fn try_clone(&self) -> Result<Wire, String> {
        self.conn.try_clone().map(|conn| Wire { conn }).map_err(|e| e.to_string())
    }

    /// Writes one request frame.
    pub fn send(&mut self, request: &Request) -> Result<(), String> {
        write_frame(&mut self.conn, &encode_request(request)).map_err(|e| e.to_string())
    }

    /// Reads one response frame.
    pub fn recv(&mut self) -> Result<Response, String> {
        match read_frame_blocking(&mut self.conn) {
            Ok(Some(payload)) => decode_response(&payload).map_err(|e| e.to_string()),
            Ok(None) => Err(String::from("server closed the connection")),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// A running server with its two client connections.
#[derive(Debug)]
pub struct Served {
    handle: ServerHandle,
    dir: PathBuf,
    links: Links,
}

/// The two client connections: one for update messages, one for queries.
#[derive(Debug)]
struct Links {
    writer: Wire,
    queries: Client,
}

impl Served {
    /// Makes `engine` (already converged) durable in `dir`, starts the
    /// server on an ephemeral loopback port and connects both clients.
    pub fn start(engine: StreamingEngine, dir: &Path) -> Result<Served, String> {
        let durable = DurableEngine::create(dir, engine, StoreOptions::default())
            .map_err(|e| format!("store create: {e}"))?;
        let handle = server::start(
            Backend::Durable(Box::new(durable)),
            ServerConfig::default(),
            &[Endpoint::Tcp(String::from("127.0.0.1:0"))],
        )
        .map_err(|e| format!("server start: {e}"))?;
        let addr = handle.tcp_addr().ok_or("server bound no TCP port")?.to_string();
        let connect = || -> Result<(Wire, Client), String> {
            let writer = Wire::connect(&addr, "bench-writer")?;
            let mut queries = Client::connect_tcp(&addr).map_err(|e| e.to_string())?;
            queries.hello("bench-queries").map_err(|e| e.to_string())?;
            Ok((writer, queries))
        };
        match connect() {
            Ok((writer, queries)) => {
                Ok(Served { handle, dir: dir.to_path_buf(), links: Links { writer, queries } })
            }
            Err(e) => {
                handle.kill();
                Err(e)
            }
        }
    }

    /// Stops the server the way a crash would (no final checkpoint) and
    /// removes its directory; for set-up repeats that are thrown away.
    pub fn discard(self) {
        self.handle.kill();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What the server under test serves.
#[derive(Debug, Clone, Copy)]
pub struct Target<'a> {
    /// The standing query.
    pub workload: Workload,
    /// Its source vertex.
    pub root: VertexId,
    /// The graph the server started from.
    pub base: &'a AdjacencyGraph,
    /// Seed of the query vertices and sampled answers.
    pub seed: u64,
}

/// How long each segment runs and how the open-loop rate is chosen.
#[derive(Debug, Clone, Copy)]
pub struct LivePlan {
    /// Closed-loop (saturation) messages: fixed work, so memory and the
    /// WAL do not depend on the host's speed.
    pub closed_messages: usize,
    /// Seconds after which the closed loop stops sending regardless.
    pub closed_limit_s: f64,
    /// Open-loop seconds.
    pub open_s: f64,
    /// Open-loop update messages per second; `None` takes 40 % of what
    /// the closed loop just sustained.
    pub open_rate: Option<f64>,
    /// Point queries per second beside the open-loop writes.
    pub query_rate: f64,
    /// Updates per message.
    pub message_updates: usize,
}

/// What the two segments measured.
#[derive(Debug)]
pub struct LiveNumbers {
    /// Closed loop: updates converged per second, the median over
    /// quarter-second windows, each scaled to the reference host.
    pub closed_updates_per_s: f64,
    /// The same, as measured.
    pub closed_raw_updates_per_s: f64,
    /// Messages the closed loop sent.
    pub closed_messages: u64,
    /// Peak resident set after the open loop, before the checks, MiB.
    pub peak_rss_mib: Option<f64>,
    /// Open loop: due time to `Converged`, milliseconds, per message; the
    /// part beyond the server's flush timer scaled to the reference host.
    pub ingest_ms: Samples,
    /// The same, as measured.
    pub ingest_raw_ms: Samples,
    /// Open loop: due time to reply, microseconds, per query.
    pub query_us: Samples,
    /// Open loop: how late the write generator ran, microseconds.
    pub lag_us: Samples,
    /// Messages sent but not yet converged when the schedule ended.
    pub backlog_end: u64,
    /// Messages the open loop sent.
    pub open_messages: u64,
    /// The server's own counters, read over the wire before shutdown.
    pub stats: ServerStats,
}

/// Width of the windows closed-loop throughput is the median over.
const THROUGHPUT_WINDOW_S: f64 = 0.25;

/// Median updates per second over whole [`THROUGHPUT_WINDOW_S`] windows of
/// a `(nanoseconds, updates)` convergence log that starts at `start_ns`,
/// each window's rate divided by `factor(window start, window end)`; the
/// plain mean when the log spans fewer than four windows.
fn windowed_rate(log: &[(u64, usize)], start_ns: u64, factor: impl Fn(u64, u64) -> f64) -> f64 {
    let width_ns = (THROUGHPUT_WINDOW_S * 1e9) as u64;
    let end_ns = log.last().map_or(start_ns, |&(t, _)| t);
    let windows = (end_ns.saturating_sub(start_ns) / width_ns) as usize;
    if windows < 4 {
        let updates: usize = log.iter().map(|&(_, n)| n).sum();
        let seconds = end_ns.saturating_sub(start_ns) as f64 / 1e9;
        return updates as f64 / seconds.max(1e-9) / factor(start_ns, end_ns);
    }
    let mut per_window = vec![0.0f64; windows];
    for &(t, updates) in log {
        let index = (t.saturating_sub(start_ns) / width_ns) as usize;
        if let Some(slot) = per_window.get_mut(index) {
            *slot += updates as f64 / THROUGHPUT_WINDOW_S;
        }
    }
    for (index, rate) in per_window.iter_mut().enumerate() {
        let from = start_ns + index as u64 * width_ns;
        *rate /= factor(from, from + width_ns);
    }
    median(&mut per_window).unwrap_or(0.0)
}

/// Closed loop: keeps the connection's in-flight window full until
/// `plan.closed_messages` are sent, then drains it. Returns when it
/// started and the `(time, updates)` log of converged messages.
fn closed_loop(
    wire: &mut Wire,
    clock: &WallClock,
    stream: &mut ChurnStream,
    plan: &LivePlan,
    next_token: &mut u64,
    tally: &mut Tally,
) -> Result<(u64, Vec<(u64, usize)>), String> {
    let window = ServerConfig::default().inflight_limit as usize;
    let mut pending: BTreeMap<u64, Vec<EdgeUpdate>> = BTreeMap::new();
    let mut resent: BTreeSet<u64> = BTreeSet::new();
    let mut converged: Vec<(u64, usize)> = Vec::with_capacity(plan.closed_messages);
    let mut sent = 0usize;
    let start = Instant::now();
    let start_ns = clock.now_ns();
    loop {
        while pending.len() < window
            && sent < plan.closed_messages
            && start.elapsed().as_secs_f64() < plan.closed_limit_s
        {
            let updates = as_message(&stream.next_batch(plan.message_updates));
            let token = *next_token;
            *next_token += 1;
            sent += 1;
            wire.send(&Request::Update { token, updates: updates.clone() })?;
            pending.insert(token, updates);
        }
        if pending.is_empty() {
            break;
        }
        match wire.recv()? {
            Response::Admitted { .. } => {}
            Response::Converged { tokens, .. } => {
                let now = clock.now_ns();
                for token in tokens {
                    if let Some(updates) = pending.remove(&token) {
                        converged.push((now, updates.len()));
                        tally.ok(1);
                    }
                }
            }
            Response::Busy { token } => match pending.get(&token) {
                Some(updates) if resent.insert(token) => {
                    wire.send(&Request::Update { token, updates: updates.clone() })?;
                }
                _ => {
                    pending.remove(&token);
                    tally.fail(format!("message {token} refused Busy after its resend"));
                }
            },
            Response::Rejected { token, reason, .. } => {
                pending.remove(&token);
                tally.fail(format!("message {token} rejected: {reason}"));
            }
            other => return Err(format!("closed loop got {other:?}")),
        }
    }
    if sent < plan.closed_messages {
        eprintln!(
            "note: closed loop hit its time limit after {sent} of {} messages",
            plan.closed_messages
        );
    }
    Ok((start_ns, converged))
}

/// What the reply-reader thread of the open loop brings home.
struct ReaderOutcome {
    /// `(due, converged)` per message, nanoseconds.
    ingest_ns: Vec<(u64, u64)>,
    tally: Tally,
}

/// Reads replies until the flush acknowledgement, timing each message
/// from its due time and handing `Busy` tokens back to the writer.
fn read_replies(
    mut wire: Wire,
    clock: &WallClock,
    due_of: impl Fn(u64) -> Option<u64>,
    resolved: &AtomicU64,
    busy: &mpsc::Sender<u64>,
) -> ReaderOutcome {
    let mut out = ReaderOutcome { ingest_ns: Vec::new(), tally: Tally::default() };
    loop {
        match wire.recv() {
            Ok(Response::Admitted { .. }) => {}
            Ok(Response::Converged { tokens, .. }) if tokens.is_empty() => return out,
            Ok(Response::Converged { tokens, .. }) => {
                let now = clock.now_ns();
                for token in tokens {
                    if let Some(due) = due_of(token) {
                        out.ingest_ns.push((due, now.max(due)));
                        out.tally.ok(1);
                        resolved.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Ok(Response::Busy { token }) => {
                if busy.send(token).is_err() {
                    out.tally.fail(format!("message {token} refused Busy after the schedule"));
                }
            }
            Ok(Response::Rejected { token, reason, .. }) => {
                resolved.fetch_add(1, Ordering::Relaxed);
                out.tally.fail(format!("message {token} rejected: {reason}"));
            }
            Ok(other) => out.tally.fail(format!("open loop got {other:?}")),
            Err(e) => {
                out.tally.fail(format!("reply stream: {e}"));
                return out;
            }
        }
    }
}

/// Issues alternating `query_value` / `query_path` on a fixed schedule
/// until told to stop; latency runs from each query's due time.
fn run_queries(
    client: &mut Client,
    clock: &WallClock,
    mut pacer: Pacer,
    num_vertices: usize,
    seed: u64,
    stop: &AtomicBool,
) -> (Samples, Tally) {
    let (mut latency_us, mut tally) = (Samples::default(), Tally::default());
    let mut rng = DetRng::seed_from_u64(seed ^ 0x51ee_7a11);
    while !stop.load(Ordering::Relaxed) {
        let tick = pacer.wait_next(clock);
        let vertex = rng.gen_index(num_vertices) as VertexId;
        let answer = if tick.index.is_multiple_of(2) {
            client.query_value(vertex).map(|_| ())
        } else {
            client.query_path(vertex).map(|_| ())
        };
        match answer {
            Ok(()) => {
                latency_us.push(clock.now_ns().saturating_sub(tick.due_ns) as f64 / 1e3);
                tally.ok(1);
            }
            Err(e) => {
                tally.fail(format!("query {}: {e}", tick.index));
                break;
            }
        }
    }
    (latency_us, tally)
}

/// What the open loop measured.
struct OpenLoop {
    ingest_ns: Vec<(u64, u64)>,
    query_us: Samples,
    lag_us: Samples,
    backlog_end: u64,
    issued: u64,
}

/// Open loop: one message every `1 / plan.open_rate` seconds for `plan.open_s`,
/// regardless of replies, with queries beside it.
fn open_loop(
    links: &mut Links,
    clock: &WallClock,
    stream: &mut ChurnStream,
    plan: &LivePlan,
    target: &Target<'_>,
    first_token: u64,
    tally: &mut Tally,
) -> Result<OpenLoop, String> {
    let Links { writer, queries } = links;
    let rate = plan.open_rate.unwrap_or(1.0);
    let (num_vertices, seed) = (target.base.num_vertices(), target.seed);
    let start_ns = clock.now_ns() + 1_000_000;
    let end_ns = start_ns + (plan.open_s * 1e9) as u64;
    let mut pacer = Pacer::starting_at(start_ns, rate);
    let schedule = Pacer::starting_at(start_ns, rate);
    let due_of = |token: u64| token.checked_sub(first_token).map(|i| schedule.due_ns(i));
    let reader_wire = writer.try_clone()?;
    let resolved = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let (busy_tx, busy_rx) = mpsc::channel();
    let mut sent: Vec<Vec<EdgeUpdate>> = Vec::new();
    let mut resent: BTreeSet<u64> = BTreeSet::new();
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_replies(reader_wire, clock, due_of, &resolved, &busy_tx));
        let query_pacer = Pacer::starting_at(start_ns, plan.query_rate);
        let asker =
            scope.spawn(|| run_queries(queries, clock, query_pacer, num_vertices, seed, &stop));
        let mut resend_bounced =
            |writer: &mut Wire, sent: &[Vec<EdgeUpdate>], tally: &mut Tally| {
                while let Ok(token) = busy_rx.try_recv() {
                    let message = token.checked_sub(first_token).and_then(|i| sent.get(i as usize));
                    match message {
                        Some(updates) if resent.insert(token) => {
                            let again = Request::Update { token, updates: updates.clone() };
                            if let Err(e) = writer.send(&again) {
                                tally.fail(format!("resend of {token}: {e}"));
                            }
                        }
                        _ => tally.fail(format!("message {token} refused Busy after its resend")),
                    }
                }
            };
        let mut send_error = None;
        while pacer.due_ns(pacer.issued()) < end_ns {
            let tick = pacer.wait_next(clock);
            resend_bounced(writer, &sent, tally);
            let updates = as_message(&stream.next_batch(plan.message_updates));
            let request = Request::Update { token: first_token + tick.index, updates };
            if let Err(e) = writer.send(&request) {
                send_error = Some(e);
                break;
            }
            if let Request::Update { updates, .. } = request {
                sent.push(updates);
            }
        }
        let issued = sent.len() as u64;
        let backlog_end = issued.saturating_sub(resolved.load(Ordering::Relaxed));
        stop.store(true, Ordering::Relaxed);
        resend_bounced(writer, &sent, tally);
        // The flush acknowledgement follows every earlier message's
        // `Converged`, and ends the reader.
        let flushed = writer.send(&Request::Flush);
        if flushed.is_err() || send_error.is_some() {
            writer.conn.shutdown_both();
        }
        let replies = reader.join().map_err(|_| String::from("reply reader panicked"))?;
        let (query_us, query_tally) =
            asker.join().map_err(|_| String::from("query thread panicked"))?;
        tally.merge(replies.tally);
        tally.merge(query_tally);
        if let Some(e) = send_error {
            return Err(format!("open-loop send: {e}"));
        }
        flushed?;
        let unanswered = issued.saturating_sub(resolved.load(Ordering::Relaxed));
        for _ in 0..unanswered {
            tally.fail(String::from("message never converged"));
        }
        Ok(OpenLoop {
            ingest_ns: replies.ingest_ns,
            query_us,
            lag_us: pacer.into_lag_us(),
            backlog_end,
            issued,
        })
    })
}

/// What the two segments produced, before any summarising.
struct Segments {
    closed_start_ns: u64,
    closed_log: Vec<(u64, usize)>,
    closed_messages: u64,
    open: OpenLoop,
    sampled: Vec<(VertexId, Value)>,
    stats: ServerStats,
    peak_rss_mib: Option<f64>,
    host: HostReadings,
}

/// Runs the closed loop, then the open loop, then samples answers and
/// reads the server's counters, with a [`HostMonitor`] beside all of it.
fn run_segments(
    links: &mut Links,
    target: &Target<'_>,
    stream: &mut ChurnStream,
    plan: &LivePlan,
    tally: &mut Tally,
) -> Result<Segments, String> {
    let clock = WallClock::start();
    let monitor = HostMonitor::start(clock);
    let mut next_token = 1u64;
    let measured = (|| -> Result<_, String> {
        let (closed_start_ns, closed_log) =
            closed_loop(&mut links.writer, &clock, stream, plan, &mut next_token, tally)?;
        let closed_messages = next_token - 1;
        let messages_per_s =
            windowed_rate(&closed_log, closed_start_ns, |_, _| 1.0) / plan.message_updates as f64;
        let rate = plan.open_rate.unwrap_or(0.4 * messages_per_s).max(1.0);
        let plan = LivePlan { open_rate: Some(rate), ..*plan };
        let open = open_loop(links, &clock, stream, &plan, target, next_token, tally)?;
        Ok((closed_start_ns, closed_log, closed_messages, open))
    })();
    let host = monitor.finish();
    let (closed_start_ns, closed_log, closed_messages, open) = measured?;
    // Everything is converged (the flush was acknowledged): sample answers
    // now, compare once the final graph is known.
    let num_vertices = target.base.num_vertices();
    let mut rng = DetRng::seed_from_u64(target.seed ^ 0xa175_3e55);
    let mut sampled: Vec<(VertexId, Value)> = Vec::with_capacity(SAMPLED_ANSWERS);
    for _ in 0..SAMPLED_ANSWERS {
        let vertex = rng.gen_index(num_vertices) as VertexId;
        let value = links.queries.query_value(vertex).map_err(|e| e.to_string())?;
        sampled.push((vertex, value));
    }
    let stats = links.queries.stats().map_err(|e| e.to_string())?;
    let _ = links.queries.goodbye();
    let peak_rss_mib = peak_rss_mib();
    Ok(Segments {
        closed_start_ns,
        closed_log,
        closed_messages,
        open,
        sampled,
        stats,
        peak_rss_mib,
        host,
    })
}

/// Sampled answers, the server's final graph and the engine recovered
/// from `dir` must all equal the oracle on the offline replay of `applied`.
fn check_outputs(
    target: &Target<'_>,
    dir: &Path,
    applied: &[AppliedBatch],
    sampled: &[(VertexId, Value)],
    tally: &mut Tally,
) -> Result<(), String> {
    let Target { workload, root, base, .. } = *target;
    let replay = replay_graph(base, applied.iter().map(|a| &a.batch))?;
    let want = oracle_values(workload, &replay.snapshot(), root);
    let got: Vec<Value> = sampled.iter().map(|&(_, value)| value).collect();
    let expected: Vec<Value> =
        sampled.iter().filter_map(|&(v, _)| want.get(v as usize).copied()).collect();
    tally.record(values_agree(workload, &got, &expected));
    let recovered = DurableEngine::recover(
        dir,
        algorithm(workload, root),
        EngineConfig::default(),
        StoreOptions::default(),
        RecoveryOptions::default(),
    );
    match recovered {
        Ok((durable, _)) => {
            let engine = durable.engine();
            tally.record(graph_agrees(engine.graph(), engine.csr(), &replay));
            tally.record(values_agree(workload, engine.values(), &want));
        }
        Err(e) => tally.fail(format!("recovery after shutdown: {e}")),
    }
    Ok(())
}

/// Ingest latency with the part beyond the flush timer scaled to the
/// reference host. A message sent alone waits out the server's flush
/// delay, which is wall-clock by design and does not stretch with host
/// load; only what follows it (apply, fsync, the trip back) does.
fn scaled_ingest_ms(due_ns: u64, converged_ns: u64, host: &HostReadings) -> f64 {
    let latency = converged_ns.saturating_sub(due_ns);
    let timer = latency.min(FlushPolicy::default().max_delay_ns);
    (timer as f64 + (latency - timer) as f64 * host.scale(due_ns, converged_ns)) / 1e6
}

/// Runs both segments against `served`, shuts it down, checks the
/// outputs and summarises.
pub fn drive(
    served: Served,
    target: &Target<'_>,
    stream: &mut ChurnStream,
    plan: &LivePlan,
    tally: &mut Tally,
) -> Result<LiveNumbers, String> {
    let Served { handle, dir, mut links } = served;
    let segments = run_segments(&mut links, target, stream, plan, tally);
    let report = handle.shutdown();
    let outcome = segments.and_then(|segments| {
        if let Some(fatal) = report.fatal {
            return Err(format!("server stopped: {fatal}"));
        }
        check_outputs(target, &dir, &report.applied, &segments.sampled, tally)?;
        let Segments { closed_start_ns, closed_log, host, open, .. } = segments;
        let (mut ingest_ms, mut ingest_raw_ms) = (Samples::default(), Samples::default());
        for &(due, converged) in &open.ingest_ns {
            ingest_raw_ms.push(converged.saturating_sub(due) as f64 / 1e6);
            ingest_ms.push(scaled_ingest_ms(due, converged, &host));
        }
        Ok(LiveNumbers {
            closed_updates_per_s: windowed_rate(&closed_log, closed_start_ns, |from, to| {
                host.scale(from, to)
            }),
            closed_raw_updates_per_s: windowed_rate(&closed_log, closed_start_ns, |_, _| 1.0),
            closed_messages: segments.closed_messages,
            peak_rss_mib: segments.peak_rss_mib,
            ingest_ms,
            ingest_raw_ms,
            query_us: open.query_us,
            lag_us: open.lag_us,
            backlog_end: open.backlog_end,
            open_messages: open.issued,
            stats: segments.stats,
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}
