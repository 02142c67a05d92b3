//! Round-trip properties of the persistence formats and the durable engine:
//! what is written is exactly what is read back, and a recovered engine is
//! indistinguishable from the one that never went down.

#![expect(
    clippy::unwrap_used,
    reason = "test code: aborting on a setup failure is the right behaviour here"
)]

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use jetstream_algorithms::Workload;
use jetstream_core::{EngineConfig, StreamingEngine};
use jetstream_graph::{gen, UpdateBatch};
use jetstream_store::{snapshot, wal, DurableEngine, DurableStore, RecoveryOptions, StoreOptions};
use jetstream_testkit::{run_cases, DetRng};

const EPSILON: f64 = 1e-5;

fn tmpdir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "jss-persist-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn random_state(rng: &mut DetRng, g: &jetstream_graph::AdjacencyGraph) -> snapshot::SnapshotState {
    let n = g.num_vertices();
    let values = (0..n).map(|_| (rng.gen_f64() - 0.5) * 100.0).collect();
    // Dependencies must be real edges to satisfy checkpoint validation.
    let edges: Vec<_> = g.iter_edges().collect();
    let mut dependency = vec![None; n];
    if !edges.is_empty() {
        for _ in 0..rng.gen_index(n) {
            let (u, v, _) = edges[rng.gen_index(edges.len())];
            dependency[v as usize] = Some(u);
        }
    }
    snapshot::SnapshotState { values, dependency }
}

#[test]
fn snapshot_round_trip_property() {
    run_cases("store: snapshots round-trip", 48, |rng| {
        let dir = tmpdir("snapshot-prop");
        let n = rng.gen_range(1, 60);
        let edges = rng.gen_index(3 * n);
        let g = gen::erdos_renyi(n, edges, rng.next_u64());
        let state = if rng.gen_bool(0.7) { Some(random_state(rng, &g)) } else { None };
        let seq = rng.next_u64() % 1_000_000;

        let path = snapshot::write(&dir, seq, &g, state.as_ref()).unwrap();
        let snap = snapshot::read(&path).unwrap();
        assert_eq!(snap.sequence, seq);
        assert_eq!(snap.graph, g);
        assert_eq!(snap.state, state);
        fs::remove_dir_all(&dir).unwrap();
    });
}

#[test]
fn wal_round_trip_property() {
    run_cases("store: WAL segments round-trip", 48, |rng| {
        let dir = tmpdir("wal-prop");
        let base = rng.next_u64() % 1_000_000;
        let mut w = wal::Writer::create(&dir, base).unwrap();
        let n_batches = rng.gen_index(8);
        let mut written = Vec::new();
        for _ in 0..n_batches {
            let mut b = UpdateBatch::new();
            // Includes empty and deletion-only batches — the binary format
            // represents them all.
            for _ in 0..rng.gen_index(5) {
                b.insert(
                    rng.gen_index(1000) as u32,
                    rng.gen_index(1000) as u32,
                    rng.gen_f64() * 10.0,
                );
            }
            for _ in 0..rng.gen_index(4) {
                b.delete(rng.gen_index(1000) as u32, rng.gen_index(1000) as u32);
            }
            w.append(&b).unwrap();
            written.push(b);
        }
        w.sync().unwrap();
        let path = w.path().to_path_buf();
        drop(w);

        let seg = wal::read_segment(&path, false).unwrap();
        assert_eq!(seg.base_sequence, base);
        assert!(seg.truncated_to.is_none());
        assert_eq!(seg.records.len(), written.len());
        for (i, (rec, batch)) in seg.records.iter().zip(&written).enumerate() {
            assert_eq!(rec.sequence, base + 1 + i as u64);
            assert_eq!(&rec.batch, batch);
        }
        fs::remove_dir_all(&dir).unwrap();
    });
}

#[test]
fn durable_engine_round_trip_property() {
    // Random workload, random checkpoint cadence, random stream length:
    // recovery must always land bit-identically on the live engine's
    // state, its Leads-To forest included.
    run_cases("store: durable engine recovers exactly", 12, |rng| {
        let dir = tmpdir("engine-prop");
        let workload = Workload::ALL[rng.gen_index(Workload::ALL.len())];
        let options = StoreOptions {
            checkpoint_interval: rng.gen_index(4) as u64, // 0 = manual only
            retain_snapshots: rng.gen_range(1, 4),
            sync_every_batch: rng.gen_bool(0.5),
        };
        let base = gen::erdos_renyi(60, 240, rng.next_u64());
        let alg = workload.instantiate_with_epsilon(0, EPSILON);
        let mut engine = StreamingEngine::new(alg, base, EngineConfig::default());
        engine.initial_compute();
        let mut durable = DurableEngine::create(&dir, engine, options).unwrap();

        let n_batches = rng.gen_index(6);
        for _ in 0..n_batches {
            let batch = gen::batch_with_ratio(durable.engine().graph(), 12, 0.5, rng.next_u64());
            durable.apply_update_batch(&batch).unwrap();
        }
        if rng.gen_bool(0.3) {
            durable.checkpoint().unwrap();
        }
        let live_values = durable.engine().values().to_vec();
        let live_dependencies = durable.engine().dependencies().to_vec();
        let live_graph = durable.engine().graph().clone();
        let sequence = durable.sequence();
        drop(durable);

        let (recovered, report) = DurableEngine::recover(
            &dir,
            workload.instantiate_with_epsilon(0, EPSILON),
            EngineConfig::default(),
            options,
            RecoveryOptions { validate: true },
        )
        .unwrap();
        let name = workload.name();
        assert_eq!(report.recovered_sequence, sequence, "{name}");
        assert_eq!(recovered.engine().values(), &live_values[..], "{name}");
        assert_eq!(recovered.engine().graph(), &live_graph, "{name}");
        assert_eq!(recovered.engine().dependencies(), &live_dependencies[..], "{name}");
        fs::remove_dir_all(&dir).unwrap();
    });
}

/// A base snapshot that carries no converged state (graph only) recovers by
/// a cold compute at the snapshot point followed by WAL replay, landing
/// bit-identically on a live engine fed the same batches.
#[test]
fn a_graph_only_snapshot_recovers_by_cold_compute_and_replay() {
    for workload in Workload::ALL {
        let dir = tmpdir("graph-only");
        let base = gen::erdos_renyi(60, 240, 11);
        let alg = workload.instantiate_with_epsilon(0, EPSILON);
        let mut live = StreamingEngine::new(alg, base.clone(), EngineConfig::default());
        live.initial_compute();
        let options = StoreOptions { checkpoint_interval: 0, ..StoreOptions::default() };
        let mut store = DurableStore::create(&dir, options, 0, &base, None).unwrap();
        for seed in 0..4 {
            let batch = gen::batch_with_ratio(live.graph(), 12, 0.5, seed);
            live.apply_update_batch(&batch).unwrap();
            store.append(&batch).unwrap();
        }
        drop(store);

        let (recovered, report) = DurableEngine::recover(
            &dir,
            workload.instantiate_with_epsilon(0, EPSILON),
            EngineConfig::default(),
            options,
            RecoveryOptions { validate: true },
        )
        .unwrap();
        let name = workload.name();
        assert_eq!((report.snapshot_sequence, report.replayed_batches), (0, 4), "{name}");
        assert_eq!(recovered.engine().values(), live.values(), "{name}");
        assert_eq!(recovered.engine().graph(), live.graph(), "{name}");
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn disk_usage_reports_real_bytes() {
    let dir = tmpdir("usage");
    let base = gen::erdos_renyi(40, 160, 3);
    let mut engine =
        StreamingEngine::new(Workload::Sssp.instantiate(0), base, EngineConfig::default());
    engine.initial_compute();
    let mut durable = DurableEngine::create(&dir, engine, StoreOptions::default()).unwrap();
    let batch = gen::batch_with_ratio(durable.engine().graph(), 10, 0.5, 4);
    durable.apply_update_batch(&batch).unwrap();

    let usage = durable.store().disk_usage().unwrap();
    assert!(usage.snapshot_bytes > 0);
    assert!(usage.wal_bytes > wal::HEADER_LEN);
    fs::remove_dir_all(&dir).unwrap();
}
