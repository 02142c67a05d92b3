//! Satellite 2: differential test — a scripted 4-client session against
//! the live server must leave the engine in state bit-identical to the
//! same admitted batches replayed through an offline
//! [`StreamingEngine`], for a selective (SSSP) and an accumulative
//! (PageRank) workload (DESIGN.md §15.3).
//!
//! The oracle replays [`ServerReport::applied`] — the server's own
//! record of what it admitted, in batch-id order — so the comparison
//! holds regardless of how client messages interleaved at admission.
//! Mid-session query answers are recorded with the flush barrier's
//! batch id and checked against the oracle at the same replay point.

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code: aborting on a setup failure is the right behaviour here"
)]

use std::net::TcpStream;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::time::Duration;

use jetstream_algorithms::Workload;
use jetstream_core::{EngineConfig, StreamingEngine};
use jetstream_graph::{AdjacencyGraph, EdgeUpdate};
use jetstream_serve::admission::FlushPolicy;
use jetstream_serve::backend::Backend;
use jetstream_serve::client::Client;
use jetstream_serve::framing::{read_frame, write_frame, Conn};
use jetstream_serve::protocol::{
    decode_response, encode_request, Request, Response, PROTOCOL_VERSION,
};
use jetstream_serve::server::{start, Endpoint, ServerConfig, ServerReport};
use jetstream_serve::{queries, ServeError};

const CLIENTS: usize = 4;
const REGION: u32 = 32;
const ROUNDS: u64 = 6;

/// 1 global root + one 32-vertex line per client, all hanging off the
/// root: client updates stay in disjoint regions, so the scripted
/// session never trips cross-client admission conflicts.
fn base_graph() -> AdjacencyGraph {
    let num_vertices = 1 + CLIENTS as u32 * REGION;
    let mut g = AdjacencyGraph::new(num_vertices as usize);
    for k in 0..CLIENTS as u32 {
        let lo = 1 + k * REGION;
        g.insert_edge(0, lo, 1.0).unwrap();
        for v in lo..lo + REGION - 1 {
            g.insert_edge(v, v + 1, 1.0).unwrap();
        }
    }
    g
}

fn fresh_engine(workload: Workload) -> StreamingEngine {
    let mut engine = StreamingEngine::new(
        workload.instantiate_with_epsilon(0, 1e-3),
        base_graph(),
        EngineConfig::default(),
    );
    engine.initial_compute();
    engine
}

/// A query answer recorded mid-session, tied to the batch id the flush
/// barrier reported (i.e. the oracle state after replaying that batch).
enum Recorded {
    Value { batch_id: u64, vertex: u32, bits: u64 },
    Impacted { batch_id: u64, vertices: Vec<u32> },
    Path { batch_id: u64, vertex: u32, chain: Vec<u32> },
}

fn assert_admitted(resp: &Response) {
    assert!(matches!(resp, Response::Admitted { .. }), "expected admission, got {resp:?}");
}

/// Drives the scripted session and returns the server's applied-batch
/// record plus every recorded query answer.
fn run_session(workload: Workload) -> (ServerReport, Vec<Recorded>, Vec<u64>) {
    let handle = start(
        Backend::Volatile(Box::new(fresh_engine(workload))),
        ServerConfig::default(),
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .unwrap();
    let addr = handle.tcp_addr().expect("tcp endpoint").to_string();

    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|k| {
            let mut c = Client::connect_tcp(&addr).unwrap();
            let (num_vertices, _alg) = c.hello(&format!("diff-{k}")).unwrap();
            assert_eq!(num_vertices, 1 + CLIENTS as u64 * u64::from(REGION));
            c
        })
        .collect();

    let mut recorded = Vec::new();
    let mut final_values: Vec<u64> = Vec::new();
    for round in 0..ROUNDS {
        // Interleaved updates: each client's message is sealed on arrival
        // when the inbox is dry, or shares a batch with its neighbours'.
        for (k, client) in clients.iter_mut().enumerate() {
            let lo = 1 + k as u32 * REGION;
            let hi = lo + REGION - 1;
            let updates = match round {
                // Grow a shortcut from the region head.
                0 | 3 => vec![jetstream_graph::EdgeUpdate::Insert {
                    source: lo,
                    target: hi - round as u32,
                    weight: 2.5 + round as f64,
                }],
                // Retract last round's shortcut and sever a line edge:
                // an unsafe delete for SSSP (it carries the dependence
                // tree), exercising full deletion recovery.
                1 | 4 => vec![
                    jetstream_graph::EdgeUpdate::Delete {
                        source: lo,
                        target: hi - (round as u32 - 1),
                    },
                    jetstream_graph::EdgeUpdate::Delete { source: lo + 1, target: lo + 2 },
                ],
                // Heal the line with a heavier edge.
                _ => vec![jetstream_graph::EdgeUpdate::Insert {
                    source: lo + 1,
                    target: lo + 2,
                    weight: 1.5,
                }],
            };
            let resp = client.send_update(round * 10 + k as u64 + 1, &updates).unwrap();
            assert_admitted(&resp);
        }
        // Barrier: client (round % 4) forces the batch to apply, then
        // every client reads converged state.
        let barrier = (round % CLIENTS as u64) as usize;
        let batch_id = clients[barrier].flush().unwrap();
        for (k, client) in clients.iter_mut().enumerate() {
            let lo = 1 + k as u32 * REGION;
            let hi = lo + REGION - 1;
            for vertex in [0, lo, lo + 2, hi] {
                let value = client.query_value(vertex).unwrap();
                recorded.push(Recorded::Value { batch_id, vertex, bits: value.to_bits() });
            }
        }
        // One client records the impacted set, another a dependence path.
        let vertices = clients[0].query_impacted().unwrap();
        recorded.push(Recorded::Impacted { batch_id, vertices });
        let probe = 1 + (round as u32 % CLIENTS as u32) * REGION + REGION - 1;
        let chain = clients[1].query_path(probe).unwrap();
        recorded.push(Recorded::Path { batch_id, vertex: probe, chain });
    }

    // Final converged snapshot, vertex by vertex, through the wire.
    let num_vertices = 1 + CLIENTS as u32 * REGION;
    for vertex in 0..num_vertices {
        final_values.push(clients[0].query_value(vertex).unwrap().to_bits());
    }
    for client in &mut clients {
        client.goodbye().unwrap();
    }
    let report = handle.shutdown();
    assert!(report.fatal.is_none(), "server fatal: {:?}", report.fatal);
    (report, recorded, final_values)
}

fn replay_and_compare(workload: Workload) {
    let (report, recorded, final_values) = run_session(workload);
    assert!(!report.applied.is_empty(), "session applied no batches");

    let mut oracle = fresh_engine(workload);
    let mut last_id = 0;
    for applied in &report.applied {
        assert!(applied.batch_id > last_id, "batch ids must be strictly increasing");
        last_id = applied.batch_id;
        let class = oracle.classify_batch(&applied.batch);
        let stats = oracle.apply_update_batch(&applied.batch).unwrap();
        // The offline engine must do the exact same work the server did.
        assert_eq!(stats, applied.stats, "RunStats diverged at batch {last_id}");
        assert_eq!(class, applied.classification, "classification diverged at batch {last_id}");

        // Check every query answer recorded at this barrier against the
        // oracle's state at the same point.
        for rec in &recorded {
            match rec {
                Recorded::Value { batch_id, vertex, bits } if *batch_id == last_id => {
                    let oracle_bits = queries::vertex_value(&oracle, *vertex).unwrap().to_bits();
                    assert_eq!(*bits, oracle_bits, "vertex {vertex} diverged at batch {batch_id}");
                }
                Recorded::Impacted { batch_id, vertices } if *batch_id == last_id => {
                    assert_eq!(
                        *vertices,
                        queries::impacted(&oracle),
                        "impacted set diverged at batch {batch_id}"
                    );
                }
                Recorded::Path { batch_id, vertex, chain } if *batch_id == last_id => {
                    assert_eq!(
                        *chain,
                        queries::dependence_path(&oracle, *vertex),
                        "dependence path of {vertex} diverged at batch {batch_id}"
                    );
                }
                _ => {}
            }
        }
    }

    // The served state after the last barrier must be bit-identical to
    // the full offline replay.
    let oracle_bits: Vec<u64> = oracle.values().iter().map(|v| v.to_bits()).collect();
    assert_eq!(final_values, oracle_bits, "final state diverged");
}

#[test]
fn scripted_session_matches_offline_replay_for_sssp() {
    replay_and_compare(Workload::Sssp);
}

#[test]
fn scripted_session_matches_offline_replay_for_pagerank() {
    replay_and_compare(Workload::PageRank);
}

/// The flush ack must reflect every admitted update: the recorded
/// batches must cover exactly the updates the session sent.
#[test]
fn applied_batches_cover_exactly_the_admitted_updates() {
    let (report, _, _) = run_session(Workload::Sssp);
    let total: usize = report.applied.iter().map(|a| a.batch.len()).sum();
    // Rounds 0,3: 1 insert; 1,4: 2 deletes; 2,5: 1 insert — per client.
    let expected = CLIENTS * (1 + 2 + 1 + 1 + 2 + 1);
    assert_eq!(total, expected);
    assert_eq!(report.stats.updates_applied, expected as u64);
    assert_eq!(report.stats.batches_applied, report.applied.len() as u64);
    let _ = report.stats.connections;
    assert_eq!(report.stats.connections, CLIENTS as u64);
}

/// A server whose size and deadline seals can never fire within a test.
fn config_without_timers(inflight_limit: u32) -> ServerConfig {
    ServerConfig {
        inflight_limit,
        flush: FlushPolicy { max_updates: usize::MAX, max_delay_ns: 60_000_000_000 },
    }
}

/// The fifth seal condition (DESIGN.md §15.2): a lone update has no one to
/// wait for, so it is sealed and applied as soon as the inbox runs dry —
/// here with the size threshold out of reach and the flush deadline a
/// minute away, well past the socket timeout.
#[test]
fn a_lone_update_converges_without_waiting_for_the_flush_deadline() {
    let handle = start(
        Backend::Volatile(Box::new(fresh_engine(Workload::Sssp))),
        config_without_timers(64),
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .unwrap();
    let mut conn = Conn::Tcp(TcpStream::connect(handle.tcp_addr().unwrap()).unwrap());
    conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut call = |request: &Request| {
        write_frame(&mut conn, &encode_request(request)).unwrap();
    };
    call(&Request::Hello { version: PROTOCOL_VERSION, client_name: "lone".into() });
    let update = EdgeUpdate::Insert { source: 0, target: 8, weight: 1.5 };
    call(&Request::Update { token: 1, updates: vec![update] });
    let mut next = || {
        let payload = read_frame(&mut conn, &mut || false).unwrap();
        decode_response(&payload.expect("no reply within the socket timeout")).unwrap()
    };
    assert!(matches!(next(), Response::HelloAck { .. }));
    assert_admitted(&next());
    match next() {
        Response::Converged { tokens, .. } => assert_eq!(tokens, vec![1]),
        other => panic!("expected the update's Converged, got {other:?}"),
    }
    let report = handle.shutdown();
    assert_eq!(report.applied.len(), 1);
    assert_eq!(report.applied[0].batch.insertions(), &[(0, 8, 1.5)]);
}

/// A message whose insertions close a negative-weight cycle is bounced
/// with `Rejected` at admission: admitted, it would lower SSSP distances
/// forever and hold the single engine thread. The server keeps serving:
/// the next message converges, and nothing of the bounced one is applied.
#[test]
fn a_negative_weight_cycle_is_rejected_and_the_server_keeps_serving() {
    let handle = start(
        Backend::Volatile(Box::new(fresh_engine(Workload::Sssp))),
        config_without_timers(64),
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .unwrap();
    let mut client = Client::connect_tcp(&handle.tcp_addr().unwrap().to_string()).unwrap();
    client.hello("negative").unwrap();
    let cycle = vec![
        EdgeUpdate::Insert { source: 10, target: 40, weight: -3.0 },
        EdgeUpdate::Insert { source: 40, target: 10, weight: -3.0 },
    ];
    client.send(&Request::Update { token: 1, updates: cycle }).unwrap();
    match client.recv_reply().unwrap() {
        Response::Rejected { token, index, .. } => assert_eq!((token, index), (1, 0)),
        other => panic!("expected the cycle's Rejected, got {other:?}"),
    }
    let update = EdgeUpdate::Insert { source: 0, target: 40, weight: 0.5 };
    client.send(&Request::Update { token: 2, updates: vec![update] }).unwrap();
    assert_admitted(&client.recv_reply().unwrap());
    client.flush().unwrap();
    let served = client.query_value(40).unwrap();
    client.goodbye().unwrap();
    let report = handle.shutdown();
    assert!(report.fatal.is_none(), "server fatal: {:?}", report.fatal);
    assert_eq!(report.applied.len(), 1);
    assert_eq!(report.applied[0].batch.insertions(), &[(0, 40, 0.5)]);
    assert_eq!(served, 0.5, "the shortcut from the root was applied");
}

/// A message bounced with `Busy` and resent is applied exactly once. Bursts
/// of pipelined messages against an in-flight limit of one draw `Busy` for
/// whichever the reader sees before the engine has converged their
/// predecessor; every bounced message is resent after a flush barrier until
/// none is left. (Where the budget boundary sits is pinned by the reader's
/// own unit test in `session.rs`.)
#[test]
fn a_message_resent_after_busy_is_applied_exactly_once() {
    let handle = start(
        Backend::Volatile(Box::new(fresh_engine(Workload::Sssp))),
        config_without_timers(1),
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .unwrap();
    let mut client = Client::connect_tcp(&handle.tcp_addr().unwrap().to_string()).unwrap();
    client.hello("busy").unwrap();

    // Shortcuts from the root into client 0's line, one per message; the
    // token is the index.
    let edges: Vec<(u32, u32, f64)> = (0..8).map(|k| (0, 4 + 3 * k, 1.5)).collect();
    let mut to_send: Vec<u64> = (0..edges.len() as u64).collect();
    let mut busy_seen = 0;
    while !to_send.is_empty() {
        for &token in &to_send {
            let (source, target, weight) = edges[token as usize];
            let updates = vec![EdgeUpdate::Insert { source, target, weight }];
            client.send(&Request::Update { token, updates }).unwrap();
        }
        let mut bounced = Vec::new();
        for _ in 0..to_send.len() {
            match client.recv_reply().unwrap() {
                Response::Admitted { .. } => {}
                Response::Busy { token } => bounced.push(token),
                other => panic!("expected Admitted or Busy, got {other:?}"),
            }
        }
        busy_seen += bounced.len() as u64;
        client.flush().unwrap();
        to_send = bounced;
    }

    assert_eq!(client.stats().unwrap().busy_rejections, busy_seen);
    let served: Vec<u64> = (0..1 + CLIENTS as u32 * REGION)
        .map(|v| client.query_value(v).unwrap().to_bits())
        .collect();
    client.goodbye().unwrap();
    let report = handle.shutdown();
    assert!(report.fatal.is_none(), "server fatal: {:?}", report.fatal);

    let mut applied: Vec<_> =
        report.applied.iter().flat_map(|a| a.batch.insertions().iter().copied()).collect();
    applied.sort_by_key(|&(_, target, _)| target);
    assert_eq!(applied, edges, "every update applied exactly once");
    assert_eq!(report.stats.updates_applied, edges.len() as u64);

    let mut oracle = fresh_engine(Workload::Sssp);
    for applied in &report.applied {
        oracle.apply_update_batch(&applied.batch).unwrap();
    }
    let oracle_bits: Vec<u64> = oracle.values().iter().map(|v| v.to_bits()).collect();
    assert_eq!(served, oracle_bits, "served state diverged from the offline replay");
}

fn unix_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jss-unix-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `--unix PATH` pointed at a file that is not a socket (a mistyped
/// `store/MANIFEST`, say) must not delete it: the bind fails, naming the
/// path, and the file is left as it was.
#[test]
fn a_unix_endpoint_refuses_a_path_holding_a_regular_file() {
    let dir = unix_dir("file");
    let path = dir.join("MANIFEST");
    std::fs::write(&path, b"not a socket").unwrap();
    let err = start(
        Backend::Volatile(Box::new(fresh_engine(Workload::Sssp))),
        ServerConfig::default(),
        &[Endpoint::Unix(path.clone())],
    )
    .unwrap_err();
    assert!(err.to_string().contains(&path.display().to_string()), "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), b"not a socket");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The socket a killed server leaves behind is replaced, and the new one
/// serves a whole session.
#[test]
fn a_unix_endpoint_replaces_a_stale_socket_and_serves() {
    let dir = unix_dir("stale");
    let path = dir.join("sock");
    drop(UnixListener::bind(&path).unwrap());
    assert!(path.exists(), "dropping a listener leaves its socket file");
    let handle = start(
        Backend::Volatile(Box::new(fresh_engine(Workload::Sssp))),
        ServerConfig::default(),
        &[Endpoint::Unix(path.clone())],
    )
    .unwrap();
    let mut client = Client::connect_unix(&path).unwrap();
    client.hello("unix").unwrap();
    // A shortcut from the root to vertex 8, 8.0 away along its line.
    let update = EdgeUpdate::Insert { source: 0, target: 8, weight: 1.5 };
    assert_admitted(&client.send_update(1, &[update]).unwrap());
    client.flush().unwrap();
    assert_eq!(client.query_value(8).unwrap(), 1.5);
    client.goodbye().unwrap();
    let report = handle.shutdown();
    assert!(report.fatal.is_none(), "server fatal: {:?}", report.fatal);
    assert!(!path.exists(), "the server removes its socket at exit");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `ServeError` display smoke check so wire failures in this suite
/// print usefully (regression guard for the error plumbing).
#[test]
fn serve_error_formats_are_stable() {
    let err = ServeError::Frame(jetstream_serve::framing::FrameError::Truncated);
    assert!(err.to_string().contains("mid-frame"));
}
