//! Per-connection session threads: one reader and one writer per client.
//!
//! The reader decodes frames and forwards requests to the engine thread
//! over the shared bounded channel; it also enforces the per-client
//! in-flight budget, answering `Busy` directly — an over-budget update
//! message is dropped *before* it can occupy engine queue space, which is
//! the backpressure contract of DESIGN.md §15.4. The writer drains the
//! client's bounded outbox onto the socket; when the engine finds the
//! outbox full it disconnects the client instead of blocking.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;

use crate::framing::{read_frame, write_frame, Conn, FrameError};
use crate::protocol::{decode_request, encode_response, Request, Response};

/// What reader threads feed the engine loop.
#[derive(Debug)]
pub(crate) enum SessionEvent {
    /// A decoded request from a client.
    Request {
        /// Session id the request arrived on.
        client: u64,
        /// The request itself.
        request: Request,
    },
    /// An update message was dropped at the in-flight budget (the reader
    /// already answered `Busy`); the engine only accounts for it.
    BusyDropped {
        /// Session id that went over budget.
        client: u64,
    },
    /// The reader exited; the engine should drop the client's state.
    Disconnected {
        /// Session id that ended.
        client: u64,
    },
}

/// Flags and counters one session shares between its reader thread and
/// the engine loop.
#[derive(Debug, Default)]
pub(crate) struct SessionFlags {
    /// Set by the engine to evict the session (slow consumer, shutdown).
    pub gone: AtomicBool,
    /// Admitted-but-unconverged update messages; incremented by the
    /// reader, decremented by the engine at `Converged`/`Rejected`.
    pub inflight: AtomicU32,
}

/// The reader half: frames → requests → engine channel, until EOF, a
/// transport error, shutdown, or eviction.
pub(crate) fn reader_loop(
    mut conn: Conn,
    client: u64,
    engine_tx: SyncSender<SessionEvent>,
    outbox: SyncSender<Response>,
    flags: Arc<SessionFlags>,
    inflight_limit: u32,
    shutdown: Arc<AtomicBool>,
) {
    loop {
        let alive = !(shutdown.load(Ordering::SeqCst) || flags.gone.load(Ordering::SeqCst));
        if !alive {
            break;
        }
        let mut keep_going =
            || !(shutdown.load(Ordering::SeqCst) || flags.gone.load(Ordering::SeqCst));
        match read_frame(&mut conn, &mut keep_going) {
            Ok(None) => break,
            Ok(Some(payload)) => match decode_request(&payload) {
                Ok(Request::Update { token, updates }) => {
                    if flags.inflight.fetch_add(1, Ordering::SeqCst) >= inflight_limit {
                        flags.inflight.fetch_sub(1, Ordering::SeqCst);
                        let _ = outbox.try_send(Response::Busy { token });
                        if engine_tx.send(SessionEvent::BusyDropped { client }).is_err() {
                            break;
                        }
                    } else {
                        let request = Request::Update { token, updates };
                        if engine_tx.send(SessionEvent::Request { client, request }).is_err() {
                            break;
                        }
                    }
                }
                Ok(request) => {
                    if engine_tx.send(SessionEvent::Request { client, request }).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    // A decodable-length frame with garbage inside does
                    // not desync the stream: report and keep serving.
                    let _ = outbox.try_send(Response::Error { message: e.to_string() });
                }
            },
            Err(FrameError::Oversized { len }) => {
                let _ = outbox.try_send(Response::Error {
                    message: FrameError::Oversized { len }.to_string(),
                });
                break;
            }
            Err(_) => break,
        }
    }
    conn.shutdown_both();
    let _ = engine_tx.send(SessionEvent::Disconnected { client });
}

/// The writer half: outbox → frames, until the channel closes, a write
/// fails, or a `Bye` is delivered.
pub(crate) fn writer_loop(mut conn: Conn, outbox_rx: Receiver<Response>) {
    while let Ok(resp) = outbox_rx.recv() {
        let is_bye = matches!(resp, Response::Bye);
        if write_frame(&mut conn, &encode_response(&resp)).is_err() {
            break;
        }
        if is_bye {
            break;
        }
    }
    conn.shutdown_both();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::encode_request;
    use std::os::unix::net::UnixStream;
    use std::sync::mpsc;
    use std::time::Duration;

    /// The per-client in-flight budget (DESIGN.md §15.4) at its boundary.
    /// The test holds the engine end of the channel, so nothing converges
    /// and nothing decrements: with a limit of two, messages one and two
    /// are forwarded, the third is answered `Busy` by the reader itself and
    /// reaches the engine only as an accounting event, and once one message
    /// has converged the resend goes through. Pins the reader's budget
    /// comparison (`jm-9fec2537` in `xtask/mutation_corpus.txt`).
    #[test]
    fn the_message_past_the_inflight_limit_is_busy_and_never_reaches_the_engine() {
        let (client, server) = UnixStream::pair().unwrap();
        server.set_read_timeout(Some(Duration::from_millis(5))).unwrap();
        let mut client = Conn::Unix(client);
        let (engine_tx, engine_rx) = mpsc::sync_channel(8);
        let (outbox_tx, outbox_rx) = mpsc::sync_channel(8);
        let flags = Arc::new(SessionFlags::default());
        let reader = {
            let flags = Arc::clone(&flags);
            let shutdown = Arc::new(AtomicBool::new(false));
            std::thread::spawn(move || {
                reader_loop(Conn::Unix(server), 7, engine_tx, outbox_tx, flags, 2, shutdown);
            })
        };
        let mut send = |token: u64| {
            let request = Request::Update { token, updates: Vec::new() };
            write_frame(&mut client, &encode_request(&request)).unwrap();
        };
        let forwarded = |event: SessionEvent| match event {
            SessionEvent::Request { client: 7, request: Request::Update { token, .. } } => token,
            other => panic!("expected a forwarded update, got {other:?}"),
        };

        (1..=3).for_each(&mut send);
        assert_eq!(forwarded(engine_rx.recv().unwrap()), 1);
        assert_eq!(forwarded(engine_rx.recv().unwrap()), 2);
        assert!(matches!(engine_rx.recv().unwrap(), SessionEvent::BusyDropped { client: 7 }));
        assert_eq!(outbox_rx.recv().unwrap(), Response::Busy { token: 3 });
        assert_eq!(flags.inflight.load(Ordering::SeqCst), 2, "the bounced message holds no slot");

        // The engine converges message one; the resend fits the budget.
        flags.inflight.fetch_sub(1, Ordering::SeqCst);
        send(3);
        assert_eq!(forwarded(engine_rx.recv().unwrap()), 3);
        assert!(outbox_rx.try_recv().is_err(), "no second Busy");

        client.shutdown_both();
        assert!(matches!(engine_rx.recv().unwrap(), SessionEvent::Disconnected { client: 7 }));
        reader.join().unwrap();
    }
}
