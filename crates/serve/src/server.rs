//! The server: listener setup, the single engine thread that owns the
//! backend and the admission front-end, and the lifecycle handle.
//!
//! Threading model (DESIGN.md §15.4): every connection gets one reader
//! and one writer thread; all requests funnel through one bounded channel
//! into the engine thread, which owns the [`Backend`] and the
//! [`Admission`] front-end, applies sealed batches synchronously, and
//! never blocks on a client — responses go out via bounded per-client
//! outboxes with `try_send`, and a full outbox evicts its client.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use jetstream_core::{BatchClassification, RunStats};
use jetstream_graph::UpdateBatch;

use crate::admission::{Admission, FlushPolicy, SealedBatch};
use crate::backend::Backend;
use crate::clock::{Clock, MonotonicClock};
use crate::framing::Conn;
use crate::protocol::{Request, Response, ServerStats, PROTOCOL_VERSION};
use crate::session::{self, SessionEvent, SessionFlags};
use crate::{queries, ServeError};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// When the open admission batch seals.
    pub flush: FlushPolicy,
    /// Admitted-but-unconverged update messages a client may have before
    /// the reader answers `Busy`.
    pub inflight_limit: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { flush: FlushPolicy::default(), inflight_limit: 64 }
    }
}

/// Bounded responses queued per client before it is evicted as a slow
/// consumer.
const OUTBOX_CAPACITY: usize = 1024;

/// Bounded requests queued into the engine thread (aggregate).
const INBOUND_CAPACITY: usize = 4096;

/// Reader-side socket timeout; bounds how long shutdown waits on an idle
/// connection.
const READ_TIMEOUT: Duration = Duration::from_millis(25);

/// Engine-loop tick for accepting connections when no deadline is nearer.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// Where the server listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:0` (0 = ephemeral port).
    Tcp(String),
    /// A Unix-domain socket path (created at bind, removed at exit).
    Unix(PathBuf),
}

/// One batch the server applied, kept for the lifecycle report — the
/// offline replay oracle of the differential and recovery tests.
#[derive(Debug, Clone)]
pub struct AppliedBatch {
    /// Admission batch id.
    pub batch_id: u64,
    /// The updates, exactly as applied.
    pub batch: UpdateBatch,
    /// The admission classification it carried.
    pub classification: BatchClassification,
    /// Engine work counters for the application.
    pub stats: RunStats,
}

/// What the engine thread returns when it exits.
#[derive(Debug, Default)]
pub struct ServerReport {
    /// Every batch applied, in order.
    pub applied: Vec<AppliedBatch>,
    /// Lifetime counters.
    pub stats: ServerStats,
    /// Set when the server fail-stopped on an engine or store error.
    pub fatal: Option<String>,
}

/// Handle to a running server.
#[derive(Debug)]
pub struct ServerHandle {
    tcp_addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    kill: Arc<AtomicBool>,
    thread: JoinHandle<ServerReport>,
}

impl ServerHandle {
    /// The bound TCP address, when a TCP endpoint was requested (the
    /// ephemeral port is resolved here).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Graceful shutdown: seal and apply the open batch, write a final
    /// checkpoint (durable backend), close every session, and return the
    /// report.
    pub fn shutdown(self) -> ServerReport {
        self.shutdown.store(true, Ordering::SeqCst);
        join_report(self.thread)
    }

    /// SIGKILL-equivalent stop: no final flush, no final checkpoint —
    /// exactly the state a crash would leave on disk. The report still
    /// lists what was applied, for recovery oracles.
    pub fn kill(self) -> ServerReport {
        self.kill.store(true, Ordering::SeqCst);
        self.shutdown.store(true, Ordering::SeqCst);
        join_report(self.thread)
    }
}

fn join_report(thread: JoinHandle<ServerReport>) -> ServerReport {
    match thread.join() {
        Ok(report) => report,
        Err(_) => ServerReport {
            fatal: Some(String::from("server thread panicked")),
            ..ServerReport::default()
        },
    }
}

/// Binds the endpoints and starts the engine thread.
///
/// # Errors
///
/// Bind failures surface here; everything later is reported through the
/// [`ServerReport`].
pub fn start(
    backend: Backend,
    config: ServerConfig,
    endpoints: &[Endpoint],
) -> Result<ServerHandle, ServeError> {
    let mut tcp_listeners = Vec::new();
    let mut unix_listeners = Vec::new();
    let mut unix_paths = Vec::new();
    let mut tcp_addr = None;
    for ep in endpoints {
        match ep {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                if tcp_addr.is_none() {
                    tcp_addr = l.local_addr().ok();
                }
                tcp_listeners.push(l);
            }
            Endpoint::Unix(path) => {
                // A stale socket from a killed server would fail the bind, so
                // it is removed first. Anything else at the path is not ours
                // to delete: the bind refuses it.
                let at_path = |e: io::Error| {
                    ServeError::Io(io::Error::new(e.kind(), format!("{}: {e}", path.display())))
                };
                if fs::symlink_metadata(path).is_ok_and(|m| m.file_type().is_socket()) {
                    fs::remove_file(path).map_err(at_path)?;
                }
                let l = UnixListener::bind(path).map_err(at_path)?;
                l.set_nonblocking(true)?;
                unix_paths.push(path.clone());
                unix_listeners.push(l);
            }
        }
    }
    let shutdown = Arc::new(AtomicBool::new(false));
    let kill = Arc::new(AtomicBool::new(false));
    let loop_state = EngineLoop {
        backend,
        admission: Admission::fresh(config.flush),
        config,
        clock: Box::new(MonotonicClock::fresh()),
        tcp_listeners,
        unix_listeners,
        unix_paths,
        shutdown: Arc::clone(&shutdown),
        kill: Arc::clone(&kill),
        clients: BTreeMap::new(),
        session_threads: Vec::new(),
        next_client: 1,
        last_applied_batch_id: 0,
        report: ServerReport::default(),
    };
    let thread = std::thread::Builder::new()
        .name(String::from("serve-engine"))
        .spawn(move || loop_state.run())
        .map_err(ServeError::Io)?;
    Ok(ServerHandle { tcp_addr, shutdown, kill, thread })
}

/// Per-client state owned by the engine thread.
#[derive(Debug)]
struct ClientRec {
    outbox: SyncSender<Response>,
    flags: Arc<SessionFlags>,
    /// Socket clone used to force the session closed from this side.
    ctl: Conn,
    greeted: bool,
}

struct EngineLoop {
    backend: Backend,
    admission: Admission,
    config: ServerConfig,
    clock: Box<dyn Clock>,
    tcp_listeners: Vec<TcpListener>,
    unix_listeners: Vec<UnixListener>,
    unix_paths: Vec<PathBuf>,
    shutdown: Arc<AtomicBool>,
    kill: Arc<AtomicBool>,
    clients: BTreeMap<u64, ClientRec>,
    session_threads: Vec<JoinHandle<()>>,
    next_client: u64,
    last_applied_batch_id: u64,
    report: ServerReport,
}

impl EngineLoop {
    fn run(mut self) -> ServerReport {
        let (tx, rx) = mpsc::sync_channel(INBOUND_CAPACITY);
        loop {
            if self.kill.load(Ordering::SeqCst) {
                break;
            }
            if self.shutdown.load(Ordering::SeqCst) || self.report.fatal.is_some() {
                if let Some(sealed) = self.admission.force_flush() {
                    self.apply_sealed(sealed);
                }
                // A graceful shutdown writes a final durable checkpoint; a
                // failed one is fatal unless an earlier error already is.
                match self.backend.checkpoint() {
                    Ok(()) if matches!(self.backend, Backend::Durable(_)) => {
                        self.report.stats.checkpoints += 1;
                    }
                    Err(e) if self.report.fatal.is_none() => {
                        self.report.fatal = Some(format!("final checkpoint failed: {e}"));
                    }
                    _ => {}
                }
                break;
            }
            self.accept_pending(&tx);
            let now = self.clock.now_ns();
            if let Some(sealed) = self.admission.flush_due(now) {
                self.apply_sealed(sealed);
            }
            let timeout = match self.admission.deadline_ns() {
                Some(deadline) => {
                    Duration::from_nanos(deadline.saturating_sub(now)).min(POLL_INTERVAL)
                }
                None => POLL_INTERVAL,
            };
            match rx.recv_timeout(timeout) {
                Ok(event) => {
                    self.handle(event);
                    // Drain a bounded burst so a busy wire does not pay
                    // the timeout path per message; bounded so deadline
                    // flushes still run.
                    let (mut burst, mut dry) = (0, false);
                    while burst < 1024 && !dry {
                        match rx.try_recv() {
                            Ok(event) => {
                                self.handle(event);
                                burst += 1;
                            }
                            Err(_) => dry = true,
                        }
                    }
                    // Work-conserving seal: once the inbox runs dry the
                    // open batch has no one left to wait for. Under load
                    // it never runs dry and batches fill as before.
                    if dry {
                        if let Some(sealed) = self.admission.force_flush() {
                            self.apply_sealed(sealed);
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.teardown();
        self.report
    }

    fn teardown(&mut self) {
        for (_, rec) in std::mem::take(&mut self.clients) {
            rec.flags.gone.store(true, Ordering::SeqCst);
            rec.ctl.shutdown_both();
            // Dropping `rec.outbox` here ends the writer thread.
        }
        for handle in std::mem::take(&mut self.session_threads) {
            let _ = handle.join();
        }
        for path in &self.unix_paths {
            let _ = fs::remove_file(path);
        }
    }

    fn accept_pending(&mut self, tx: &SyncSender<SessionEvent>) {
        loop {
            let conn = match self.tcp_listeners.iter().find_map(|l| l.accept().ok()) {
                Some((stream, _)) => Conn::Tcp(stream),
                None => match self.unix_listeners.iter().find_map(|l| l.accept().ok()) {
                    Some((stream, _)) => Conn::Unix(stream),
                    None => return,
                },
            };
            self.report.stats.connections += 1;
            let _ = self.admit_connection(conn, tx);
        }
    }

    fn admit_connection(
        &mut self,
        conn: Conn,
        tx: &SyncSender<SessionEvent>,
    ) -> Result<(), ServeError> {
        conn.set_blocking()?;
        conn.set_nodelay()?;
        conn.set_read_timeout(Some(READ_TIMEOUT))?;
        let ctl = conn.try_clone()?;
        let writer_conn = conn.try_clone()?;
        let client = self.next_client;
        self.next_client += 1;
        let (outbox_tx, outbox_rx) = mpsc::sync_channel(OUTBOX_CAPACITY);
        let flags = Arc::new(SessionFlags::default());
        let reader = {
            let engine_tx = tx.clone();
            let outbox = outbox_tx.clone();
            let flags = Arc::clone(&flags);
            let shutdown = Arc::clone(&self.shutdown);
            let limit = self.config.inflight_limit;
            std::thread::Builder::new()
                .name(format!("serve-reader-{client}"))
                .spawn(move || {
                    session::reader_loop(conn, client, engine_tx, outbox, flags, limit, shutdown)
                })
                .map_err(ServeError::Io)?
        };
        self.session_threads.push(reader);
        let writer = std::thread::Builder::new()
            .name(format!("serve-writer-{client}"))
            .spawn(move || session::writer_loop(writer_conn, outbox_rx))
            .map_err(ServeError::Io)?;
        self.session_threads.push(writer);
        self.clients.insert(client, ClientRec { outbox: outbox_tx, flags, ctl, greeted: false });
        Ok(())
    }

    /// Queues `resp` to a client; a full outbox evicts the client (the
    /// engine never blocks on a slow consumer).
    fn send_to(&mut self, client: u64, resp: Response) {
        let evict = match self.clients.get(&client) {
            Some(rec) => match rec.outbox.try_send(resp) {
                Ok(()) => return,
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => true,
            },
            None => return,
        };
        if evict {
            if let Some(rec) = self.clients.remove(&client) {
                rec.flags.gone.store(true, Ordering::SeqCst);
                rec.ctl.shutdown_both();
            }
        }
    }

    fn decrement_inflight(&self, client: u64) {
        if let Some(rec) = self.clients.get(&client) {
            rec.flags.inflight.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn apply_sealed(&mut self, sealed: SealedBatch) {
        let SealedBatch { batch_id, batch, tokens } = sealed;
        match self.backend.apply_admitted(&batch) {
            Ok((stats, classification)) => {
                self.last_applied_batch_id = batch_id;
                self.note_applied(&batch, classification);
                self.report.applied.push(AppliedBatch { batch_id, batch, classification, stats });
                let mut per_client: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
                for (client, token) in tokens {
                    self.decrement_inflight(client);
                    per_client.entry(client).or_default().push(token);
                }
                for (client, tokens) in per_client {
                    self.send_to(
                        client,
                        Response::Converged {
                            batch_id,
                            tokens,
                            safe_updates: classification.safe() as u32,
                            unsafe_updates: classification.unsafe_total() as u32,
                        },
                    );
                }
            }
            Err(e) => {
                // Admission validation makes this unreachable; if it fires
                // anyway the engine state can no longer be trusted, so the
                // server fail-stops after notifying the waiting clients.
                let message = format!("batch {batch_id} failed to apply: {e}");
                for (client, token) in tokens {
                    self.decrement_inflight(client);
                    self.send_to(
                        client,
                        Response::Error { message: format!("{message} (token {token})") },
                    );
                }
                self.report.fatal = Some(message);
            }
        }
    }

    fn note_applied(&mut self, batch: &UpdateBatch, class: BatchClassification) {
        let s = &mut self.report.stats;
        s.batches_applied += 1;
        s.updates_applied += batch.len() as u64;
        s.safe_updates += class.safe() as u64;
        s.unsafe_updates += class.unsafe_total() as u64;
        if class.has_only_safe_deletes() {
            s.fast_path_batches += 1;
        }
        if let Backend::Durable(d) = &self.backend {
            if d.batches_since_checkpoint() == 0 {
                s.checkpoints += 1;
            }
        }
    }

    fn handle(&mut self, event: SessionEvent) {
        match event {
            SessionEvent::BusyDropped { client } => {
                // Events from an already-evicted session are noise.
                if self.clients.contains_key(&client) {
                    self.report.stats.busy_rejections += 1;
                }
            }
            SessionEvent::Disconnected { client } => {
                if let Some(rec) = self.clients.remove(&client) {
                    rec.flags.gone.store(true, Ordering::SeqCst);
                }
            }
            SessionEvent::Request { client, request } => self.handle_request(client, request),
        }
    }

    fn handle_request(&mut self, client: u64, request: Request) {
        let Some(rec) = self.clients.get_mut(&client) else {
            return;
        };
        if let Request::Hello { version, client_name: _ } = &request {
            if *version != PROTOCOL_VERSION {
                let message = format!(
                    "protocol version mismatch: client {version}, server {PROTOCOL_VERSION}"
                );
                self.send_to(client, Response::Error { message });
                return;
            }
            rec.greeted = true;
            let ack = Response::HelloAck {
                version: PROTOCOL_VERSION,
                num_vertices: self.backend.graph().num_vertices() as u64,
                algorithm: self.backend.engine().algorithm().name().to_string(),
            };
            self.send_to(client, ack);
            return;
        }
        if !rec.greeted {
            self.send_to(client, Response::Error { message: String::from("hello required") });
            return;
        }
        match request {
            Request::Hello { .. } => {}
            Request::Update { token, updates } => {
                let now = self.clock.now_ns();
                let graph = self.backend.graph();
                match self.admission.admit(client, token, &updates, graph, now) {
                    Ok(ok) => {
                        self.send_to(client, Response::Admitted { token, batch_id: ok.batch_id });
                        for sealed in ok.sealed {
                            self.apply_sealed(sealed);
                        }
                    }
                    Err(rej) => {
                        self.decrement_inflight(client);
                        self.report.stats.rejected_updates += 1;
                        let resp = Response::Rejected {
                            token,
                            index: rej.index as u32,
                            reason: rej.to_string(),
                        };
                        self.send_to(client, resp);
                    }
                }
            }
            Request::QueryValue { vertex } => {
                let resp = match queries::vertex_value(self.backend.query_state(), vertex) {
                    Some(value) => Response::Value { vertex, value },
                    None => Response::Error { message: format!("vertex {vertex} out of range") },
                };
                self.send_to(client, resp);
            }
            Request::QueryImpacted => {
                let vertices = queries::impacted(self.backend.query_state());
                self.send_to(client, Response::Impacted { vertices });
            }
            Request::QueryPath { vertex } => {
                let vertices = queries::dependence_path(self.backend.query_state(), vertex);
                self.send_to(client, Response::Path { vertices });
            }
            Request::Flush => {
                if let Some(sealed) = self.admission.force_flush() {
                    self.apply_sealed(sealed);
                }
                // The ack: an empty-token Converged carrying the id of the
                // newest applied batch — everything this client sent
                // before the Flush is covered by it.
                let ack = Response::Converged {
                    batch_id: self.last_applied_batch_id,
                    tokens: Vec::new(),
                    safe_updates: 0,
                    unsafe_updates: 0,
                };
                self.send_to(client, ack);
            }
            Request::Stats => {
                let stats = self.report.stats;
                self.send_to(client, Response::StatsReply(stats));
            }
            Request::Goodbye => self.send_to(client, Response::Bye),
        }
    }
}
