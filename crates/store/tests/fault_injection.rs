//! Crash-recovery fault injection.
//!
//! The property under test: for ANY damage to the store directory —
//! truncated files, flipped bits, deleted files — recovery either restores a
//! state the engine actually passed through (verified against recorded
//! history AND a brute-force oracle recompute) or fails loudly with a
//! descriptive error. It never silently diverges.

#![expect(
    clippy::unwrap_used,
    reason = "test code: aborting on a setup failure is the right behaviour here"
)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

use jetstream_algorithms::{oracle, oracle_values, UpdateKind, Workload};
use jetstream_core::{EngineConfig, StreamingEngine};
use jetstream_graph::{gen, AdjacencyGraph, VertexId};
use jetstream_store::{
    snapshot, wal, DurableEngine, DurableStore, PublishStep, RecoveryOptions, RecoveryReport,
    StoreError, StoreOptions,
};

const EPSILON: f64 = 1e-5;
const ROOT: u32 = 0;
const BATCHES: u64 = 7;

fn tolerance(workload: Workload) -> f64 {
    match workload.kind() {
        UpdateKind::Selective => oracle::VALUE_TOLERANCE,
        UpdateKind::Accumulative => oracle::accumulative_tolerance(EPSILON),
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "jss-fault-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Checkpoint every 3 batches, retain 2 snapshots: after 7 batches the
/// store holds snapshots {3, 6} and segments {wal-3, wal-6} (wal-0 and
/// snap-0 compacted away), with batch 7 alone in the active segment —
/// provided no checkpoint was deferred behind the one before it, which
/// `build_store` arranges by quiescing the writer after every batch.
fn options() -> StoreOptions {
    StoreOptions { checkpoint_interval: 3, retain_snapshots: 2, sync_every_batch: true }
}

/// Everything the engine passed through while the store was built: the
/// values and graph after each sequence number. Recovery must land exactly
/// on one of these states.
#[derive(Default)]
struct History {
    values: Vec<Vec<f64>>,
    dependencies: Vec<Vec<Option<VertexId>>>,
    graphs: Vec<AdjacencyGraph>,
}

impl History {
    /// Appends `engine`'s state as the next sequence's.
    fn record(&mut self, engine: &StreamingEngine) {
        self.values.push(engine.values().to_vec());
        self.dependencies.push(engine.dependencies().to_vec());
        self.graphs.push(engine.graph().clone());
    }
}

fn converged_engine(workload: Workload) -> (StreamingEngine, History) {
    let base = gen::rmat(200, 1000, gen::RmatParams::default(), 42);
    let alg = workload.instantiate_with_epsilon(ROOT, EPSILON);
    let mut engine = StreamingEngine::new(alg, base, EngineConfig::default());
    engine.initial_compute();
    let mut history = History::default();
    history.record(&engine);
    (engine, history)
}

/// Applies the stream's next batch (numbered by the history so far).
fn apply_next(durable: &mut DurableEngine, history: &mut History) -> Result<(), StoreError> {
    let seed = 99 + history.values.len() as u64;
    let batch = gen::batch_with_ratio(durable.engine().graph(), 30, 0.6, seed);
    let outcome = durable.apply_update_batch(&batch).map(|_| ());
    history.record(durable.engine());
    outcome
}

fn build_store(workload: Workload, dir: &Path) -> History {
    let (engine, mut history) = converged_engine(workload);
    let mut durable = DurableEngine::create(dir, engine, options()).unwrap();
    for _ in 0..BATCHES {
        apply_next(&mut durable, &mut history).unwrap();
        durable.quiesce().unwrap();
    }
    assert_eq!(durable.sequence(), BATCHES);
    history
}

/// The state a checkpoint of `engine` persists.
fn state_of(engine: &StreamingEngine) -> snapshot::SnapshotState {
    snapshot::SnapshotState {
        values: engine.values().to_vec(),
        dependency: engine.dependencies().to_vec(),
    }
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

fn try_recover(
    workload: Workload,
    dir: &Path,
) -> Result<(DurableEngine, RecoveryReport), StoreError> {
    DurableEngine::recover(
        dir,
        workload.instantiate_with_epsilon(ROOT, EPSILON),
        EngineConfig::default(),
        options(),
        RecoveryOptions::default(),
    )
}

/// The core assertion: the recovered state is bit-identical to the state
/// the engine held at the recovered sequence number (replay is
/// deterministic), and matches a brute-force oracle recompute on the
/// recovered graph.
fn assert_recovered_state(
    workload: Workload,
    recovered: &DurableEngine,
    sequence: u64,
    history: &History,
) {
    let engine = recovered.engine();
    let expected = &history.values[sequence as usize];
    assert_eq!(
        engine.values(),
        &expected[..],
        "{}: recovered values differ from live history at sequence {sequence}",
        workload.name()
    );
    assert_eq!(
        engine.graph(),
        &history.graphs[sequence as usize],
        "{}: recovered graph differs at sequence {sequence}",
        workload.name()
    );
    // The Leads-To forest decides what a later delete resets, so a
    // recovered engine must hold the live one's, not only its values.
    assert_eq!(
        engine.dependencies(),
        &history.dependencies[sequence as usize][..],
        "{}: recovered dependencies differ at sequence {sequence}",
        workload.name()
    );
    let oracle_vals = oracle_values(workload, &engine.graph().snapshot(), ROOT);
    assert!(
        oracle::values_match_tol(engine.values(), &oracle_vals, tolerance(workload)),
        "{}: recovered values diverge from oracle recompute at sequence {sequence}",
        workload.name()
    );
}

#[test]
fn clean_recovery_matches_oracle_on_all_workloads() {
    for workload in Workload::ALL {
        let dir = tmpdir("clean");
        let history = build_store(workload, &dir);
        let (recovered, report) = try_recover(workload, &dir).unwrap();
        assert_eq!(report.recovered_sequence, BATCHES, "{}", workload.name());
        assert_eq!(report.snapshot_sequence, 6, "{}", workload.name());
        assert_eq!(report.replayed_batches, 1, "{}", workload.name());
        assert_eq!(report.snapshots_skipped, 0);
        assert!(!report.wal_truncated);
        assert_recovered_state(workload, &recovered, BATCHES, &history);
        recovered.engine().validate_converged().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn checkpoint_compaction_leaves_exactly_the_retained_files() {
    let dir = tmpdir("compaction");
    build_store(Workload::Sssp, &dir);
    assert_eq!(
        file_names(&dir),
        vec![
            "MANIFEST".to_string(),
            "snap-00000000000000000003.jss".to_string(),
            "snap-00000000000000000006.jss".to_string(),
            "wal-00000000000000000003.jsl".to_string(),
            "wal-00000000000000000006.jsl".to_string(),
        ]
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_wal_tail_recovers_the_longest_durable_prefix() {
    let workload = Workload::Sssp;
    let pristine = tmpdir("torn-pristine");
    let history = build_store(workload, &pristine);
    let active = pristine.join(wal::file_name(6));
    let full = fs::read(&active).unwrap();

    // Cut the active segment at every possible length.
    for len in 0..full.len() {
        let dir = tmpdir("torn");
        copy_dir(&pristine, &dir);
        let target = dir.join(wal::file_name(6));
        let f = fs::OpenOptions::new().write(true).open(&target).unwrap();
        f.set_len(len as u64).unwrap();
        drop(f);

        match try_recover(workload, &dir) {
            Ok((recovered, report)) => {
                // The record for batch 7 is torn off: recovery must land on
                // sequence 6 exactly (never a hybrid).
                assert_eq!(
                    report.recovered_sequence,
                    6,
                    "cut at {len}/{} recovered an impossible sequence",
                    full.len()
                );
                assert!(report.wal_truncated || len == wal::HEADER_LEN as usize);
                assert_recovered_state(workload, &recovered, 6, &history);
            }
            Err(e) => {
                // Cutting into the 20-byte header destroys the segment
                // identity; that must be loud, and only that.
                assert!(
                    len < wal::HEADER_LEN as usize,
                    "cut at {len} (past the header) should have been repaired: {e}"
                );
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&pristine).unwrap();
}

#[test]
fn bit_flips_anywhere_never_cause_silent_divergence() {
    let workload = Workload::Sssp;
    let pristine = tmpdir("flip-pristine");
    let history = build_store(workload, &pristine);

    let files: Vec<PathBuf> = fs::read_dir(&pristine).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(files.len(), 5);

    for file in &files {
        let original = fs::read(file).unwrap();
        let name = file.file_name().unwrap().to_string_lossy().into_owned();
        // Stride through the file; 13 is coprime with the record sizes, so
        // offsets hit every region (headers, counts, payloads, checksums)
        // across the sweep.
        for offset in (0..original.len()).step_by(13) {
            let dir = tmpdir("flip");
            copy_dir(&pristine, &dir);
            let mut damaged = original.clone();
            damaged[offset] ^= 1 << (offset % 8);
            fs::write(dir.join(&name), &damaged).unwrap();

            match try_recover(workload, &dir) {
                Ok((recovered, report)) => {
                    assert!(
                        report.recovered_sequence <= BATCHES,
                        "{name} flip at {offset}: impossible sequence"
                    );
                    assert_recovered_state(
                        workload,
                        &recovered,
                        report.recovered_sequence,
                        &history,
                    );
                }
                Err(e) => {
                    // Loud failure is acceptable; it must carry the damaged
                    // file's identity somewhere in the error chain.
                    let _ = e.to_string();
                }
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }
    fs::remove_dir_all(&pristine).unwrap();
}

#[test]
fn corrupt_newest_snapshot_falls_back_to_the_older_one() {
    let workload = Workload::Bfs;
    let dir = tmpdir("fallback");
    let history = build_store(workload, &dir);
    let snap6 = dir.join("snap-00000000000000000006.jss");
    let mut bytes = fs::read(&snap6).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&snap6, &bytes).unwrap();

    let (recovered, report) = try_recover(workload, &dir).unwrap();
    assert_eq!(report.snapshot_sequence, 3);
    assert_eq!(report.snapshots_skipped, 1);
    // Replay covers batches 4..=7 across both surviving segments.
    assert_eq!(report.replayed_batches, 4);
    assert_eq!(report.recovered_sequence, BATCHES);
    assert_recovered_state(workload, &recovered, BATCHES, &history);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn all_snapshots_corrupt_fails_loudly_with_no_snapshot() {
    let dir = tmpdir("nosnap");
    build_store(Workload::Sssp, &dir);
    for name in ["snap-00000000000000000003.jss", "snap-00000000000000000006.jss"] {
        let path = dir.join(name);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
    }
    let err = try_recover(Workload::Sssp, &dir).unwrap_err();
    assert!(matches!(err, StoreError::NoSnapshot { .. }), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_active_segment_fails_loudly() {
    let dir = tmpdir("noactive");
    build_store(Workload::Sssp, &dir);
    fs::remove_file(dir.join(wal::file_name(6))).unwrap();
    let err = try_recover(Workload::Sssp, &dir).unwrap_err();
    assert!(err.to_string().contains("wal-00000000000000000006"), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_manifest_fails_loudly() {
    let dir = tmpdir("nomanifest");
    build_store(Workload::Sssp, &dir);
    fs::remove_file(dir.join("MANIFEST")).unwrap();
    let err = try_recover(Workload::Sssp, &dir).unwrap_err();
    assert!(matches!(err, StoreError::Io { .. }), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fallback_across_a_missing_middle_segment_is_a_sequence_gap() {
    // Corrupt snap-6 (forcing fallback to snap-3) AND delete wal-3: the
    // records 4..=6 are unrecoverable, and recovery must say so rather than
    // splice batch 7 onto the sequence-3 state.
    let dir = tmpdir("gap");
    build_store(Workload::Sssp, &dir);
    let snap6 = dir.join("snap-00000000000000000006.jss");
    let mut bytes = fs::read(&snap6).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&snap6, &bytes).unwrap();
    fs::remove_file(dir.join(wal::file_name(3))).unwrap();

    let err = try_recover(Workload::Sssp, &dir).unwrap_err();
    assert!(matches!(err, StoreError::SequenceGap { .. }), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_already_compacted_segment_is_harmless() {
    // wal-3 only matters for fallback; with snap-6 intact, recovery never
    // touches it.
    let workload = Workload::Cc;
    let dir = tmpdir("unneeded");
    let history = build_store(workload, &dir);
    fs::remove_file(dir.join(wal::file_name(3))).unwrap();
    let (recovered, report) = try_recover(workload, &dir).unwrap();
    assert_eq!(report.recovered_sequence, BATCHES);
    assert_recovered_state(workload, &recovered, BATCHES, &history);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovered_store_keeps_working_and_recovers_again() {
    for workload in Workload::ALL {
        let dir = tmpdir("continue");
        let mut history = build_store(workload, &dir);
        let (mut durable, _) = try_recover(workload, &dir).unwrap();

        // Keep streaming: two more batches (the second crosses the
        // checkpoint interval, exercising checkpoint-after-recovery).
        for i in 0..2u64 {
            let batch = gen::batch_with_ratio(durable.engine().graph(), 30, 0.6, 200 + i);
            durable.apply_update_batch(&batch).unwrap();
            history.record(durable.engine());
        }
        assert_eq!(durable.sequence(), BATCHES + 2);
        drop(durable);

        let (recovered, report) = try_recover(workload, &dir).unwrap();
        assert_eq!(report.recovered_sequence, BATCHES + 2, "{}", workload.name());
        assert_recovered_state(workload, &recovered, BATCHES + 2, &history);
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn creating_over_an_existing_store_is_refused() {
    let dir = tmpdir("nocreate");
    build_store(Workload::Sssp, &dir);
    let base = gen::rmat(50, 200, gen::RmatParams::default(), 7);
    let mut engine =
        StreamingEngine::new(Workload::Sssp.instantiate(ROOT), base, EngineConfig::default());
    engine.initial_compute();
    let err = DurableEngine::create(&dir, engine, options()).unwrap_err();
    assert!(matches!(err, StoreError::Io { .. }), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

/// The crash matrix of one checkpoint, driven on this thread: the store's
/// directory is copied at every point a crash can fall on — captured (WAL
/// rotated, manifest `{P, S}`), two more batches acknowledged into `wal-S`,
/// `snap-S.tmp` whole and torn, `snap-S` renamed, manifest `{S, S}`,
/// compacted — and every copy must recover every acknowledged batch,
/// bit-identically to the live engine.
#[test]
fn recovery_is_bit_identical_at_every_point_of_a_checkpoint() {
    const P: u64 = 3;
    const S: u64 = 6;
    for workload in [Workload::Sssp, Workload::PageRank] {
        let dir = tmpdir("matrix");
        let (mut engine, mut history) = converged_engine(workload);
        // Engine and store driven by hand, the way `DurableEngine` drives
        // them, so the test owns the gap between capture and publish.
        let manual = StoreOptions { checkpoint_interval: 0, ..options() };
        let state = state_of(&engine);
        let mut store =
            DurableStore::create(&dir, manual, 0, engine.graph(), Some(&state)).unwrap();
        fn apply(engine: &mut StreamingEngine, store: &mut DurableStore, history: &mut History) {
            let seed = 99 + history.values.len() as u64;
            let batch = gen::batch_with_ratio(engine.graph(), 30, 0.6, seed);
            engine.apply_update_batch(&batch).unwrap();
            store.append(&batch).unwrap();
            history.record(engine);
        }
        for _ in 0..P {
            apply(&mut engine, &mut store, &mut history);
        }
        let state = state_of(&engine);
        assert_eq!(store.checkpoint(engine.graph(), Some(&state)).unwrap(), P);
        for _ in P..S {
            apply(&mut engine, &mut store, &mut history);
        }

        // (label, copy, acknowledged sequence, snapshot recovery starts from)
        let mut points: Vec<(String, PathBuf, u64, u64)> = Vec::new();
        let mut crash = |label: &str, sequence: u64, snapshot: u64| {
            let copy = tmpdir("matrix-point");
            copy_dir(&dir, &copy);
            points.push((label.to_string(), copy.clone(), sequence, snapshot));
            copy
        };
        let state = state_of(&engine);
        let captured = store.capture(engine.graph(), Some(&state)).unwrap();
        crash("captured", S, P);
        apply(&mut engine, &mut store, &mut history);
        apply(&mut engine, &mut store, &mut history);
        crash("captured, two batches on", S + 2, P);
        captured
            .publish(&mut |step| match step {
                PublishStep::TmpWritten => {
                    crash("tmp written", S + 2, P);
                    let torn = crash("tmp torn", S + 2, P).join(snapshot::file_name(S));
                    let torn = torn.with_extension("tmp");
                    let len = fs::metadata(&torn).unwrap().len();
                    fs::OpenOptions::new()
                        .write(true)
                        .open(&torn)
                        .unwrap()
                        .set_len(len / 2)
                        .unwrap();
                }
                PublishStep::SnapshotRenamed => {
                    crash("snapshot renamed", S + 2, P);
                }
                PublishStep::ManifestCommitted => {
                    crash("manifest committed", S + 2, S);
                }
            })
            .unwrap();
        crash("compacted", S + 2, S);
        drop(store);

        assert_eq!(points.len(), 7);
        for (label, copy, sequence, snapshot) in points {
            let what = format!("{} at '{label}'", workload.name());
            let (recovered, report) = try_recover(workload, &copy).unwrap();
            assert_eq!(report.recovered_sequence, sequence, "{what}");
            assert_eq!(report.snapshot_sequence, snapshot, "{what}");
            assert_eq!(report.snapshots_skipped, 0, "{what}");
            assert!(!report.wal_truncated, "{what}");
            assert_recovered_state(workload, &recovered, sequence, &history);
            // Reattaching swept the interrupted publication's leftovers.
            assert!(file_names(&copy).iter().all(|n| !n.ends_with(".tmp")), "{what}");
            drop(recovered);
            fs::remove_dir_all(&copy).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// A checkpoint that falls due while the previous publication is still in
/// flight is neither queued nor waited for: applies carry on, and the first
/// batch that finds the writer idle captures.
#[test]
fn a_due_checkpoint_is_deferred_while_a_publication_is_in_flight() {
    let workload = Workload::Sssp;
    let dir = tmpdir("defer");
    let (engine, mut history) = converged_engine(workload);
    let mut durable = DurableEngine::create(&dir, engine, options()).unwrap();
    apply_next(&mut durable, &mut history).unwrap();

    // Park the publication of snap-1 between its tmp file and its rename.
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    durable
        .checkpoint_in_background(move |step| {
            if step == PublishStep::TmpWritten {
                parked_tx.send(()).unwrap();
                let _ = release_rx.recv();
            }
        })
        .unwrap();
    parked_rx.recv().unwrap();

    // Due at 3 batches; five go through (a wait here would never return).
    for since in 1..=5 {
        apply_next(&mut durable, &mut history).unwrap();
        assert_eq!(durable.batches_since_checkpoint(), since);
    }
    assert_eq!(snapshot::list(&dir).unwrap().len(), 1, "snap-1 is still parked");

    release_tx.send(()).unwrap();
    durable.quiesce().unwrap();
    apply_next(&mut durable, &mut history).unwrap();
    assert_eq!(durable.batches_since_checkpoint(), 0, "the deferred checkpoint was captured");
    durable.quiesce().unwrap();
    let snapshots: Vec<u64> = snapshot::list(&dir).unwrap().into_iter().map(|(s, _)| s).collect();
    assert_eq!(snapshots, vec![1, 7]);
    drop(durable);

    let (recovered, report) = try_recover(workload, &dir).unwrap();
    assert_eq!((report.snapshot_sequence, report.replayed_batches), (7, 0));
    assert_recovered_state(workload, &recovered, 7, &history);
    fs::remove_dir_all(&dir).unwrap();
}

/// A publication that fails in the background fails the apply that reaps
/// it, and costs nothing but the snapshot: every batch the engine applied
/// — that one included — is in the WAL the manifest already names.
#[test]
fn a_failed_checkpoint_publication_fails_a_later_apply_and_the_directory_still_recovers() {
    let workload = Workload::Sssp;
    let dir = tmpdir("pubfail");
    let (engine, mut history) = converged_engine(workload);
    let mut durable = DurableEngine::create(&dir, engine, options()).unwrap();
    // The writer of snap-3 finds a directory where its tmp file goes.
    let obstacle = dir.join(snapshot::file_name(3)).with_extension("tmp");
    fs::create_dir(&obstacle).unwrap();

    // Batch 3 captures and returns; the failure arrives with whichever
    // later batch first finds the writer finished.
    let mut failure = None;
    while failure.is_none() && durable.sequence() < 40 {
        failure = apply_next(&mut durable, &mut history).err();
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let failure = failure.expect("the failed publication never surfaced");
    assert!(failure.to_string().contains("snap-00000000000000000003.tmp"), "{failure}");
    let applied = durable.sequence();
    assert!(applied > 3, "the capturing apply itself succeeded");
    assert_eq!(snapshot::list(&dir).unwrap().len(), 1, "snap-3 was never published");
    // With the fault gone the store keeps working, and checkpoints again
    // at the next interval.
    fs::remove_dir(&obstacle).unwrap();
    for _ in 0..3 {
        apply_next(&mut durable, &mut history).unwrap();
        durable.quiesce().unwrap();
    }
    assert_eq!(snapshot::list(&dir).unwrap().len(), 2);
    drop(durable);

    let (recovered, report) = try_recover(workload, &dir).unwrap();
    assert_eq!(report.recovered_sequence, applied + 3);
    assert_recovered_state(workload, &recovered, applied + 3, &history);
    fs::remove_dir_all(&dir).unwrap();
}

/// `write_atomic`'s tmp file outlives a process killed mid-publication;
/// the next compaction (and, in the crash matrix above, the next reattach)
/// deletes it.
#[test]
fn checkpoint_compaction_sweeps_orphaned_tmp_files() {
    let dir = tmpdir("orphan");
    let mut history = build_store(Workload::Sssp, &dir);
    let (mut durable, _) = try_recover(Workload::Sssp, &dir).unwrap();
    let orphan = dir.join(snapshot::file_name(5)).with_extension("tmp");
    fs::write(&orphan, b"half a snapshot").unwrap();
    apply_next(&mut durable, &mut history).unwrap();
    assert!(orphan.exists(), "no checkpoint yet, nothing swept");
    durable.checkpoint().unwrap();
    assert!(!orphan.exists());
    fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint at an unchanged sequence keeps the active (empty) segment —
/// the capture rotates, and rewrites the manifest, only past the segment's
/// base — and republishes the same snapshot.
#[test]
fn a_checkpoint_at_an_unchanged_sequence_does_not_rotate_the_wal() {
    let workload = Workload::Sssp;
    let dir = tmpdir("idempotent");
    let (engine, mut history) = converged_engine(workload);
    let manual = StoreOptions { checkpoint_interval: 0, ..options() };
    let mut durable = DurableEngine::create(&dir, engine, manual).unwrap();
    assert_eq!(durable.checkpoint().unwrap(), 0, "nothing appended since the base snapshot");
    apply_next(&mut durable, &mut history).unwrap();
    assert_eq!(durable.checkpoint().unwrap(), 1);
    let before = file_names(&dir);
    assert_eq!(durable.checkpoint().unwrap(), 1);
    assert_eq!(file_names(&dir), before);
    drop(durable);

    let (recovered, report) = try_recover(workload, &dir).unwrap();
    assert_eq!((report.snapshot_sequence, report.replayed_batches), (1, 0));
    assert_recovered_state(workload, &recovered, 1, &history);
    fs::remove_dir_all(&dir).unwrap();
}
