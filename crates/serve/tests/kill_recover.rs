//! Satellite 3: kill-and-recover — a SIGKILL-equivalent shutdown
//! mid-stream must lose nothing that was applied: restart recovers the
//! manifest snapshot, replays the WAL tail, and a reconnecting client
//! sees state bit-identical to an offline oracle replay of the batches
//! the first server reported applying (DESIGN.md §15.4, §10).

#![expect(
    clippy::unwrap_used,
    reason = "test code: aborting on a setup failure is the right behaviour here"
)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use jetstream_algorithms::Workload;
use jetstream_core::{EngineConfig, StreamingEngine};
use jetstream_graph::{AdjacencyGraph, EdgeUpdate};
use jetstream_serve::backend::Backend;
use jetstream_serve::client::Client;
use jetstream_serve::protocol::Response;
use jetstream_serve::server::{start, AppliedBatch, Endpoint, ServerConfig};
use jetstream_store::{DurableEngine, RecoveryOptions, StoreOptions};

const NUM_VERTICES: u32 = 64;
const ROUNDS: u64 = 6;
/// Small enough that checkpoints fall due faster than the background
/// writer publishes them: some are deferred, and the kill lands while the
/// last one captured is still in flight.
const CHECKPOINT_INTERVAL: u64 = 2;

fn tmpdir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "jss-serve-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn line_graph() -> AdjacencyGraph {
    let mut g = AdjacencyGraph::new(NUM_VERTICES as usize);
    for v in 0..NUM_VERTICES - 1 {
        g.insert_edge(v, v + 1, 1.0).unwrap();
    }
    g
}

fn fresh_engine() -> StreamingEngine {
    let mut engine =
        StreamingEngine::new(Workload::Sssp.instantiate(0), line_graph(), EngineConfig::default());
    engine.initial_compute();
    engine
}

/// Advances the offline oracle by a batch the server applied: the same
/// classification and the same work, batch for batch.
fn replay(oracle: &mut StreamingEngine, applied: &AppliedBatch) {
    let id = applied.batch_id;
    assert_eq!(oracle.classify_batch(&applied.batch), applied.classification, "batch {id}");
    assert_eq!(oracle.apply_update_batch(&applied.batch).unwrap(), applied.stats, "batch {id}");
}

fn store_options() -> StoreOptions {
    StoreOptions {
        checkpoint_interval: CHECKPOINT_INTERVAL,
        sync_every_batch: true,
        ..StoreOptions::default()
    }
}

/// The scripted stream: round r inserts a shortcut or severs/heals a
/// line edge, always valid against the evolving graph.
fn round_updates(round: u64) -> Vec<EdgeUpdate> {
    let r = round as u32;
    match round % 3 {
        0 => vec![EdgeUpdate::Insert { source: 0, target: 20 + r, weight: 2.0 + round as f64 }],
        1 => vec![
            EdgeUpdate::Delete { source: 0, target: 20 + r - 1 },
            EdgeUpdate::Delete { source: 5, target: 6 },
        ],
        _ => vec![EdgeUpdate::Insert { source: 5, target: 6, weight: 1.25 }],
    }
}

#[test]
fn killed_server_recovers_from_manifest_and_wal_tail() {
    let dir = tmpdir("kill");
    let durable = DurableEngine::create(&dir, fresh_engine(), store_options()).unwrap();

    // --- First life: stream seven applied batches, then die abruptly. ---
    let handle = start(
        Backend::Durable(Box::new(durable)),
        ServerConfig::default(),
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .unwrap();
    let addr = handle.tcp_addr().unwrap().to_string();
    let mut client = Client::connect_tcp(&addr).unwrap();
    client.hello("kill-recover").unwrap();
    for round in 0..ROUNDS {
        let resp = client.send_update(round + 1, &round_updates(round)).unwrap();
        assert!(matches!(resp, Response::Admitted { .. }), "got {resp:?}");
        client.flush().unwrap(); // barrier: the batch is applied + WAL-appended
    }
    // One more message, no barrier, and the kill right behind its
    // `Admitted`: the dry inbox seals it, so the engine is applying it (or
    // capturing the checkpoint it made due) as the kill lands.
    let resp = client.send_update(99, &round_updates(ROUNDS)).unwrap();
    assert!(matches!(resp, Response::Admitted { .. }));
    let report = handle.kill();
    assert!(report.fatal.is_none(), "first life failed: {:?}", report.fatal);
    let applied = ROUNDS + 1;
    assert_eq!(report.applied.len() as u64, applied, "one applied batch per message");
    // The kill path skips the shutdown checkpoint; how many interval
    // checkpoints were captured depends on how many were deferred behind a
    // publication in flight. Joining the engine thread dropped the store,
    // which waited for the writer: the directory is quiet from here on.
    let checkpoints = report.stats.checkpoints;
    assert!((1..=applied / CHECKPOINT_INTERVAL).contains(&checkpoints), "{checkpoints}");

    // --- Oracle: offline replay of exactly what the server applied. ---
    let mut oracle = fresh_engine();
    for applied in &report.applied {
        replay(&mut oracle, applied);
    }

    // --- Second life: recover, restart, reconnect, compare. ---
    let (recovered, recovery) = DurableEngine::recover(
        &dir,
        Workload::Sssp.instantiate(0),
        EngineConfig::default(),
        store_options(),
        RecoveryOptions::default(),
    )
    .unwrap();
    assert_eq!(recovery.recovered_sequence, applied, "every applied batch is durable");
    assert!(
        recovery.snapshot_sequence >= CHECKPOINT_INTERVAL,
        "recovery starts from an interval checkpoint, not the base snapshot"
    );
    assert_eq!(
        recovery.replayed_batches as u64,
        applied - recovery.snapshot_sequence,
        "the WAL tail past the checkpoint is replayed"
    );

    let handle = start(
        Backend::Durable(Box::new(recovered)),
        ServerConfig::default(),
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .unwrap();
    let addr = handle.tcp_addr().unwrap().to_string();
    let mut client = Client::connect_tcp(&addr).unwrap();
    let (num_vertices, algorithm) = client.hello("kill-recover-2").unwrap();
    assert_eq!(num_vertices, u64::from(NUM_VERTICES));
    assert_eq!(algorithm, oracle.algorithm().name());

    for vertex in 0..NUM_VERTICES {
        let served = client.query_value(vertex).unwrap();
        let expected = oracle.values()[vertex as usize];
        assert_eq!(served.to_bits(), expected.to_bits(), "vertex {vertex} diverged after recovery");
    }

    // The recovered server keeps serving: stream one more round and
    // check it against the oracle advanced by the same batch.
    let resp = client.send_update(1, &round_updates(ROUNDS + 1)).unwrap();
    assert!(matches!(resp, Response::Admitted { .. }));
    client.flush().unwrap();
    let report2 = handle.shutdown();
    assert!(report2.fatal.is_none(), "second life failed: {:?}", report2.fatal);
    assert_eq!(report2.applied.len(), 1);
    replay(&mut oracle, &report2.applied[0]);

    // Third life: a graceful shutdown checkpointed, so recovery replays
    // nothing and still lands on the oracle state.
    let (recovered, recovery) = DurableEngine::recover(
        &dir,
        Workload::Sssp.instantiate(0),
        EngineConfig::default(),
        store_options(),
        RecoveryOptions::default(),
    )
    .unwrap();
    assert_eq!(recovery.recovered_sequence, applied + 1);
    assert_eq!(recovery.replayed_batches, 0, "graceful shutdown checkpointed everything");
    let final_bits: Vec<u64> = recovered.engine().values().iter().map(|v| v.to_bits()).collect();
    let oracle_bits: Vec<u64> = oracle.values().iter().map(|v| v.to_bits()).collect();
    assert_eq!(final_bits, oracle_bits, "state diverged after second recovery");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_final_checkpoint_is_fatal() {
    let dir = tmpdir("lost-store");
    let durable = DurableEngine::create(&dir, fresh_engine(), store_options()).unwrap();
    let handle = start(
        Backend::Durable(Box::new(durable)),
        ServerConfig::default(),
        &[Endpoint::Tcp("127.0.0.1:0".into())],
    )
    .unwrap();
    // The store directory vanishes under the running server, so the
    // shutdown checkpoint has nowhere to go.
    std::fs::remove_dir_all(&dir).unwrap();
    let report = handle.shutdown();
    let fatal = report.fatal.expect("a lost final checkpoint must be fatal");
    assert!(fatal.starts_with("final checkpoint failed: "), "{fatal}");
    assert_eq!(report.stats.checkpoints, 0);
}
