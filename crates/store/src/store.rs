//! Store orchestration: WAL appends per batch, periodic checkpoints,
//! compaction, and the warm-restart entry point.
//!
//! A checkpoint is two steps (DESIGN.md §10). *Capture* runs on the thread
//! that owns the engine: it copies the state into a buffer, rotates the WAL
//! to `wal-S` and points the manifest at it as `{snapshot: P, wal_base: S}`
//! (`P` = the newest published snapshot), so recovery replays `wal-P` then
//! `wal-S`. *Publish* needs only that buffer and the directory — checksum,
//! `snap-S` via tmp + fsync + rename, manifest `{S, S}`, compaction — and
//! for an automatic checkpoint runs on a short-lived `store-checkpoint`
//! thread, at most one at a time.

use std::fs;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use jetstream_algorithms::Algorithm;
use jetstream_core::{EngineConfig, RunStats, StreamingEngine};
use jetstream_graph::{AdjacencyGraph, UpdateBatch};

use crate::error::StoreError;
use crate::fsutil;
use crate::manifest::{self, Manifest};
use crate::recovery::{self, RecoveryOptions, RecoveryReport};
use crate::snapshot::{self, SnapshotState};
use crate::wal;

/// Durability and retention knobs.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Checkpoint (snapshot + WAL rotation + compaction) automatically after
    /// this many batches. `0` disables automatic checkpoints; call
    /// [`DurableEngine::checkpoint`] explicitly.
    pub checkpoint_interval: u64,
    /// How many snapshots (and the WAL segments needed to roll forward from
    /// the oldest of them) compaction keeps. Minimum 1; keeping ≥ 2 lets
    /// recovery fall back past a corrupted newest snapshot.
    pub retain_snapshots: usize,
    /// Fsync the WAL after every appended batch (on by default). When off,
    /// appends are only guaranteed durable at the next checkpoint or
    /// explicit [`DurableStore::sync`]; a crash may lose recent batches but
    /// still recovers a consistent prefix.
    pub sync_every_batch: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions { checkpoint_interval: 64, retain_snapshots: 2, sync_every_batch: true }
    }
}

/// Bytes the store occupies on disk, by file kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskUsage {
    /// Total size of retained snapshot files.
    pub snapshot_bytes: u64,
    /// Total size of retained WAL segments.
    pub wal_bytes: u64,
}

/// File-level management of a store directory: the active WAL writer, the
/// manifest, checkpoint publication, and compaction.
///
/// `DurableStore` knows nothing about engines; [`DurableEngine`] pairs it
/// with a [`StreamingEngine`] and keeps the two in lockstep.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    options: StoreOptions,
    writer: wal::Writer,
    /// The one background publication in flight, if any.
    publishing: Option<JoinHandle<Result<u64, StoreError>>>,
}

/// A checkpoint [`DurableStore::capture`] took and nothing has published
/// yet: the encoded state at the sequence it was captured at, detached from
/// the engine and the store so any thread may publish it.
#[derive(Debug)]
pub struct CapturedCheckpoint {
    dir: PathBuf,
    sequence: u64,
    /// The snapshot file minus its trailing CRC.
    body: Vec<u8>,
    retain_snapshots: usize,
}

/// The points inside [`CapturedCheckpoint::publish`] a crash can fall
/// between; the step named has just completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishStep {
    /// `snap-S.tmp` is written and fsynced; `snap-S` does not exist yet.
    TmpWritten,
    /// `snap-S` is in place; the manifest still says `{P, S}`.
    SnapshotRenamed,
    /// The manifest says `{S, S}`; older files are not compacted yet.
    ManifestCommitted,
}

impl CapturedCheckpoint {
    /// Publishes the checkpoint: checksum → `snap-S` → manifest `{S, S}` →
    /// compaction, in that order, so a crash between any two steps leaves a
    /// recoverable store. `observe` is told each [`PublishStep`] as it
    /// completes (the crash-matrix tests copy the directory there).
    ///
    /// Must finish before the store captures again: a later capture's
    /// manifest would be overwritten by this one's.
    pub fn publish(self, observe: &mut dyn FnMut(PublishStep)) -> Result<u64, StoreError> {
        let CapturedCheckpoint { dir, sequence, mut body, retain_snapshots } = self;
        snapshot::seal(&mut body);
        let path = dir.join(snapshot::file_name(sequence));
        let tmp = fsutil::write_tmp(&path, &body)?;
        observe(PublishStep::TmpWritten);
        fsutil::commit_tmp(&tmp, &path)?;
        observe(PublishStep::SnapshotRenamed);
        manifest::write(&dir, Manifest { snapshot_sequence: sequence, wal_base: sequence })?;
        observe(PublishStep::ManifestCommitted);
        compact(&dir, retain_snapshots, sequence)?;
        Ok(sequence)
    }
}

impl DurableStore {
    /// Initializes a fresh store in `dir` (created if absent) holding the
    /// given base state as snapshot `sequence`, with an empty active WAL
    /// segment. Fails if `dir` already contains a store.
    pub fn create(
        dir: &Path,
        options: StoreOptions,
        sequence: u64,
        graph: &AdjacencyGraph,
        state: Option<&SnapshotState>,
    ) -> Result<DurableStore, StoreError> {
        fs::create_dir_all(dir).map_err(|e| StoreError::io_at(dir, e))?;
        let manifest_path = manifest::path_in(dir);
        if manifest_path.exists() {
            return Err(StoreError::io_at(
                &manifest_path,
                std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    "directory already contains a store; recover it instead",
                ),
            ));
        }
        snapshot::write(dir, sequence, graph, state)?;
        let writer = wal::Writer::create(dir, sequence)?;
        manifest::write(dir, Manifest { snapshot_sequence: sequence, wal_base: sequence })?;
        Ok(Self::over(dir, options, writer))
    }

    /// Reattaches to a store that recovery just validated,
    /// resuming appends on the active segment right after the last
    /// recovered record. Also deletes the `*.tmp` files a publication
    /// interrupted by the crash left behind.
    pub(crate) fn open_after_recovery(
        dir: &Path,
        options: StoreOptions,
        report: &RecoveryReport,
    ) -> Result<DurableStore, StoreError> {
        fsutil::remove_stale_tmp(dir)?;
        let active = dir.join(wal::file_name(report.active_wal_base));
        let writer = wal::Writer::open_at_end(&active, report.recovered_sequence + 1)?;
        Ok(Self::over(dir, options, writer))
    }

    fn over(dir: &Path, mut options: StoreOptions, writer: wal::Writer) -> DurableStore {
        options.retain_snapshots = options.retain_snapshots.max(1);
        DurableStore { dir: dir.to_path_buf(), options, writer, publishing: None }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The options the store runs with.
    pub fn options(&self) -> StoreOptions {
        self.options
    }

    /// Sequence number of the last appended batch (or of the base snapshot
    /// when nothing has been appended yet).
    pub fn sequence(&self) -> u64 {
        self.writer.next_sequence() - 1
    }

    /// Appends one batch to the WAL and returns its sequence number,
    /// fsyncing when [`StoreOptions::sync_every_batch`] is set.
    pub fn append(&mut self, batch: &UpdateBatch) -> Result<u64, StoreError> {
        let seq = self.writer.append(batch)?;
        if self.options.sync_every_batch {
            self.writer.sync()?;
        }
        Ok(seq)
    }

    /// Forces every appended record to disk.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.writer.sync()
    }

    /// First half of a checkpoint, on the calling thread: encodes the given
    /// state at the current sequence, syncs the WAL and — when batches were
    /// appended since the last rotation — rotates it to `wal-S` and rewrites
    /// the manifest as `{snapshot: P, wal_base: S}`. The manifest names the
    /// new segment before anything is appended to it, so every acknowledged
    /// batch stays reachable from the root pointer whether or not the
    /// returned checkpoint is ever published.
    ///
    /// Waits out a background publication first: its manifest `{S, S}` must
    /// land before this capture's.
    pub fn capture(
        &mut self,
        graph: &AdjacencyGraph,
        state: Option<&SnapshotState>,
    ) -> Result<CapturedCheckpoint, StoreError> {
        self.quiesce()?;
        let sequence = self.sequence();
        let body = snapshot::encode(sequence, graph, state)?;
        self.writer.sync()?;
        if sequence > self.writer.base_sequence() {
            let published = manifest::read(&self.dir)?.snapshot_sequence;
            self.writer = wal::Writer::create(&self.dir, sequence)?;
            manifest::write(
                &self.dir,
                Manifest { snapshot_sequence: published, wal_base: sequence },
            )?;
        }
        Ok(CapturedCheckpoint {
            dir: self.dir.clone(),
            sequence,
            body,
            retain_snapshots: self.options.retain_snapshots,
        })
    }

    /// Second half of a checkpoint, off the calling thread: publishes
    /// `captured` on a `store-checkpoint` thread that [`quiesce`] (and
    /// everything built on it: [`capture`], [`checkpoint`], `Drop`) joins.
    ///
    /// [`quiesce`]: DurableStore::quiesce
    /// [`capture`]: DurableStore::capture
    /// [`checkpoint`]: DurableStore::checkpoint
    pub fn publish_in_background(
        &mut self,
        captured: CapturedCheckpoint,
        mut observe: impl FnMut(PublishStep) + Send + 'static,
    ) -> Result<(), StoreError> {
        self.quiesce()?;
        let handle = std::thread::Builder::new()
            .name(String::from("store-checkpoint"))
            .spawn(move || captured.publish(&mut observe))
            .map_err(|e| StoreError::io_at(&self.dir, e))?;
        self.publishing = Some(handle);
        Ok(())
    }

    /// True while a background publication is still running. A finished one
    /// is reaped here, so its error surfaces from this call.
    pub fn is_publishing(&mut self) -> Result<bool, StoreError> {
        if self.publishing.as_ref().is_some_and(|handle| !handle.is_finished()) {
            return Ok(true);
        }
        self.quiesce().map(|()| false)
    }

    /// Waits for the background publication, if any, and returns its error.
    /// Afterwards nothing but the caller touches the directory.
    pub fn quiesce(&mut self) -> Result<(), StoreError> {
        match self.publishing.take().map(JoinHandle::join) {
            None | Some(Ok(Ok(_))) => Ok(()),
            Some(Ok(Err(e))) => Err(e),
            Some(Err(_)) => Err(StoreError::Checkpoint(String::from("checkpoint writer panicked"))),
        }
    }

    /// Checkpoints the given state at the current sequence, synchronously:
    /// [`capture`](DurableStore::capture) then
    /// [`publish`](CapturedCheckpoint::publish) on this thread.
    ///
    /// Idempotent at an unchanged sequence: when no batch has been appended
    /// since the last rotation, the active (empty) segment is kept and only
    /// the snapshot and manifest are republished.
    ///
    /// Returns the checkpoint's sequence number.
    pub fn checkpoint(
        &mut self,
        graph: &AdjacencyGraph,
        state: Option<&SnapshotState>,
    ) -> Result<u64, StoreError> {
        self.capture(graph, state)?.publish(&mut |_| {})
    }

    /// Bytes currently on disk, by file kind. [`quiesce`](DurableStore::quiesce)
    /// first: a publication in flight adds and deletes files underneath.
    pub fn disk_usage(&self) -> Result<DiskUsage, StoreError> {
        let mut usage = DiskUsage::default();
        for (_, path) in snapshot::list(&self.dir)? {
            usage.snapshot_bytes +=
                fs::metadata(&path).map_err(|e| StoreError::io_at(&path, e))?.len();
        }
        for (_, path) in wal::list(&self.dir)? {
            usage.wal_bytes += fs::metadata(&path).map_err(|e| StoreError::io_at(&path, e))?.len();
        }
        Ok(usage)
    }
}

impl Drop for DurableStore {
    fn drop(&mut self) {
        // A publication error has nowhere to go here; the directory is
        // recoverable with or without the snapshot it was writing.
        let _ = self.quiesce();
    }
}

/// Deletes snapshots beyond the retention count, WAL segments that end at
/// or before the oldest retained snapshot (those can never be needed again,
/// even when recovery falls back to the oldest snapshot), and `*.tmp` files
/// orphaned by an interrupted publication.
fn compact(dir: &Path, retain_snapshots: usize, newest: u64) -> Result<(), StoreError> {
    fsutil::remove_stale_tmp(dir)?;
    let snapshots = snapshot::list(dir)?;
    let committed: Vec<&(u64, PathBuf)> =
        snapshots.iter().filter(|(seq, _)| *seq <= newest).collect();
    let keep_from = committed.len().saturating_sub(retain_snapshots);
    let Some(entry) = committed.get(keep_from) else {
        return Ok(());
    };
    let oldest_kept = entry.0;
    let mut removed = false;
    for (_, path) in committed[..keep_from].iter().copied() {
        fs::remove_file(path).map_err(|e| StoreError::io_at(path, e))?;
        removed = true;
    }
    // A segment's records end where the next segment begins; the active
    // (last) segment is always kept.
    let segments = wal::list(dir)?;
    for pair in segments.windows(2) {
        let (_, ref path) = pair[0];
        let (next_base, _) = pair[1];
        if next_base <= oldest_kept {
            fs::remove_file(path).map_err(|e| StoreError::io_at(path, e))?;
            removed = true;
        }
    }
    if removed {
        fsutil::sync_dir(dir)?;
    }
    Ok(())
}

/// An engine whose state survives crashes.
///
/// Every applied batch is WAL-logged after the engine accepts it (a rejected
/// batch never reaches the log, so replay always applies cleanly), and the
/// engine's converged state is snapshotted every
/// [`StoreOptions::checkpoint_interval`] batches — captured on the applying
/// thread, published off it. [`DurableEngine::recover`]
/// warm-starts from the directory after a crash.
#[derive(Debug)]
pub struct DurableEngine {
    engine: StreamingEngine,
    store: DurableStore,
    batches_since_checkpoint: u64,
}

impl DurableEngine {
    /// Makes `engine` durable in `dir`, writing its current state (graph,
    /// values, dependence tree) as the base snapshot at sequence 0.
    ///
    /// The engine should be converged (`initial_compute` already run):
    /// the snapshot records its values as the recoverable approximation
    /// recovery resumes from (§3.4).
    pub fn create(
        dir: &Path,
        engine: StreamingEngine,
        options: StoreOptions,
    ) -> Result<DurableEngine, StoreError> {
        let state = checkpoint_state(&engine);
        let store = DurableStore::create(dir, options, 0, engine.graph(), Some(&state))?;
        Ok(DurableEngine { engine, store, batches_since_checkpoint: 0 })
    }

    /// Warm-starts an engine from the store in `dir`, resuming appends
    /// where WAL replay stopped.
    ///
    /// `alg` must be the algorithm (including parameters such as the source
    /// vertex) the persisted state was computed with. Returns the durable
    /// engine, ready for further updates, plus the recovery report.
    ///
    /// # Errors
    ///
    /// Every failure is a [`StoreError`] naming the damaged file and byte
    /// offset where applicable (see [`recovery`]).
    pub fn recover(
        dir: &Path,
        alg: Box<dyn Algorithm>,
        config: EngineConfig,
        options: StoreOptions,
        recovery_options: RecoveryOptions,
    ) -> Result<(DurableEngine, RecoveryReport), StoreError> {
        let (engine, report) = recovery::recover(dir, alg, config, recovery_options)?;
        let store = DurableStore::open_after_recovery(dir, options, &report)?;
        let batches_since_checkpoint = report.recovered_sequence - report.snapshot_sequence;
        Ok((DurableEngine { engine, store, batches_since_checkpoint }, report))
    }

    /// The wrapped engine.
    ///
    /// Only shared access is exposed: mutating the engine behind the store's
    /// back would desynchronize the WAL from the in-memory state.
    pub fn engine(&self) -> &StreamingEngine {
        &self.engine
    }

    /// The underlying store (directory, options, disk usage).
    pub fn store(&self) -> &DurableStore {
        &self.store
    }

    /// Sequence number of the last durably applied batch.
    pub fn sequence(&self) -> u64 {
        self.store.sequence()
    }

    /// Batches applied since the last checkpoint was captured (`0` right
    /// after one; passes [`StoreOptions::checkpoint_interval`] only while a
    /// due checkpoint is deferred behind a publication still in flight). A
    /// serving layer uses this to report checkpoint lag.
    pub fn batches_since_checkpoint(&self) -> u64 {
        self.batches_since_checkpoint
    }

    /// Applies `batch` to the engine and logs it: WAL-append the batch the
    /// engine just accepted, then — when the interval is due — capture a
    /// checkpoint and hand it to the background writer.
    ///
    /// Ordering is apply-then-append: a batch the engine rejects (e.g. a
    /// duplicate insertion) never enters the WAL, so replay is always clean.
    /// A crash between the apply and the append loses only that single
    /// unacknowledged batch — the durable state is still a consistent
    /// prefix. A checkpoint that falls due while the previous one is still
    /// being published is deferred to the first later batch that finds the
    /// writer idle: never queued, never waited for. A failed publication
    /// fails the apply that reaps it.
    pub fn apply_update_batch(&mut self, batch: &UpdateBatch) -> Result<RunStats, StoreError> {
        let stats = self.engine.apply_update_batch(batch)?;
        self.store.append(batch)?;
        self.batches_since_checkpoint += 1;
        let publishing = self.store.is_publishing()?;
        let interval = self.store.options().checkpoint_interval;
        if interval > 0 && self.batches_since_checkpoint >= interval && !publishing {
            self.checkpoint_in_background(|_| {})?;
        }
        Ok(stats)
    }

    fn capture(&mut self) -> Result<CapturedCheckpoint, StoreError> {
        let state = checkpoint_state(&self.engine);
        let captured = self.store.capture(self.engine.graph(), Some(&state))?;
        self.batches_since_checkpoint = 0;
        Ok(captured)
    }

    /// Captures a checkpoint of the engine's current state now and returns
    /// while a background thread publishes it (what an interval checkpoint
    /// does); `observe` runs on that thread, see
    /// [`CapturedCheckpoint::publish`].
    pub fn checkpoint_in_background(
        &mut self,
        observe: impl FnMut(PublishStep) + Send + 'static,
    ) -> Result<(), StoreError> {
        let captured = self.capture()?;
        self.store.publish_in_background(captured, observe)
    }

    /// Forces a checkpoint of the engine's current state now, waiting for
    /// it (and for any background publication before it) to reach disk;
    /// returns its sequence number.
    pub fn checkpoint(&mut self) -> Result<u64, StoreError> {
        self.capture()?.publish(&mut |_| {})
    }

    /// Waits for the background checkpoint writer, if one is running, and
    /// returns its error ([`DurableStore::quiesce`]).
    pub fn quiesce(&mut self) -> Result<(), StoreError> {
        self.store.quiesce()
    }

    /// Unwraps the engine, abandoning durability tracking (the store is
    /// dropped, which waits for a background publication).
    pub fn into_engine(self) -> StreamingEngine {
        self.engine
    }
}

/// The converged per-vertex state a checkpoint persists.
fn checkpoint_state(engine: &StreamingEngine) -> SnapshotState {
    SnapshotState { values: engine.values().to_vec(), dependency: engine.dependencies().to_vec() }
}
