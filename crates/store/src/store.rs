//! Store orchestration: WAL appends per batch, periodic checkpoints,
//! compaction, and the warm-restart entry point.

use std::fs;
use std::path::{Path, PathBuf};

use jetstream_algorithms::Algorithm;
use jetstream_core::{
    BatchClassification, EngineConfig, Executor, RunStats, ShardedEngine, StreamingEngine,
    StreamingFlow,
};
use jetstream_graph::{AdjacencyGraph, UpdateBatch};

use crate::error::StoreError;
use crate::fsutil;
use crate::manifest::{self, Manifest};
use crate::recovery::{self, RecoveryOptions, RecoveryReport, ReplayEngine};
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
        Ok(DurableStore { dir: dir.to_path_buf(), options: Self::sane(options), writer })
    }

    /// Reattaches to a store that [`recovery::recover`] just validated,
    /// resuming appends on the active segment right after the last
    /// recovered record.
    pub fn open_after_recovery(
        dir: &Path,
        options: StoreOptions,
        report: &RecoveryReport,
    ) -> Result<DurableStore, StoreError> {
        let active = dir.join(wal::file_name(report.active_wal_base));
        let writer = wal::Writer::open_at_end(&active, report.recovered_sequence + 1)?;
        Ok(DurableStore { dir: dir.to_path_buf(), options: Self::sane(options), writer })
    }

    fn sane(mut options: StoreOptions) -> StoreOptions {
        options.retain_snapshots = options.retain_snapshots.max(1);
        options
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

    /// Publishes a checkpoint of the given state at the current sequence:
    /// snapshot → WAL rotation → manifest → compaction, in that order, so a
    /// crash between any two steps leaves a recoverable store.
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
        self.writer.sync()?;
        let seq = self.sequence();
        snapshot::write(&self.dir, seq, graph, state)?;
        if seq != self.writer.base_sequence() {
            self.writer = wal::Writer::create(&self.dir, seq)?;
        }
        manifest::write(&self.dir, Manifest { snapshot_sequence: seq, wal_base: seq })?;
        self.compact(seq)?;
        Ok(seq)
    }

    /// Deletes snapshots beyond the retention count and WAL segments that
    /// end at or before the oldest retained snapshot (those can never be
    /// needed again, even when recovery falls back to the oldest snapshot).
    fn compact(&self, newest: u64) -> Result<(), StoreError> {
        let snapshots = snapshot::list(&self.dir)?;
        let committed: Vec<&(u64, PathBuf)> =
            snapshots.iter().filter(|(seq, _)| *seq <= newest).collect();
        let keep_from = committed.len().saturating_sub(self.options.retain_snapshots);
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
        let segments = wal::list(&self.dir)?;
        for pair in segments.windows(2) {
            let (_, ref path) = pair[0];
            let (next_base, _) = pair[1];
            if next_base <= oldest_kept {
                fs::remove_file(path).map_err(|e| StoreError::io_at(path, e))?;
                removed = true;
            }
        }
        if removed {
            fsutil::sync_dir(&self.dir)?;
        }
        Ok(())
    }

    /// Bytes currently on disk, by file kind.
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

/// An engine whose state survives crashes.
///
/// Every applied batch is WAL-logged after the engine accepts it (a rejected
/// batch never reaches the log, so replay always applies cleanly), and the
/// engine's converged state is snapshotted every
/// [`StoreOptions::checkpoint_interval`] batches. [`DurableEngine::recover`]
/// warm-starts from the directory after a crash.
///
/// Generic over the execution strategy: the default `E` is the sequential
/// [`StreamingEngine`]; [`DurableEngine::recover_sharded`] (and
/// [`DurableEngine::create`] with a [`ShardedEngine`]) run the same durable
/// protocol behind the parallel engine. The on-disk formats are identical
/// either way, so a store may freely alternate engines across restarts.
#[derive(Debug)]
pub struct DurableEngine<E: ReplayEngine = StreamingEngine> {
    engine: E,
    store: DurableStore,
    batches_since_checkpoint: u64,
}

impl DurableEngine {
    /// Warm-starts a sequential engine from the store in `dir`.
    ///
    /// `alg` must be the algorithm (including parameters such as the source
    /// vertex) the persisted state was computed with. Returns the durable
    /// engine, ready for further updates, plus the recovery report.
    pub fn recover(
        dir: &Path,
        alg: Box<dyn Algorithm>,
        config: EngineConfig,
        options: StoreOptions,
        recovery_options: RecoveryOptions,
    ) -> Result<(DurableEngine, RecoveryReport), StoreError> {
        let recovered = recovery::recover(dir, alg, config, recovery_options)?;
        Self::reattach(dir, recovered.engine, options, recovered.report)
    }
}

impl<X: Executor> DurableEngine<StreamingFlow<X>> {
    /// Applies `batch` through the engine's admission pre-check
    /// ([`StreamingFlow::apply_admitted_batch`]) and logs it, returning
    /// the run statistics together with the safe/unsafe classification.
    ///
    /// The WAL records the batch itself, not the path taken: replay always
    /// re-classifies against its own reconstructed state and — since the
    /// fast path is bit-identical to the full flow — converges to the same
    /// state either way. The durable protocol (apply-then-append, interval
    /// checkpoints) is exactly [`DurableEngine::apply_update_batch`].
    pub fn apply_admitted_batch(
        &mut self,
        batch: &UpdateBatch,
    ) -> Result<(RunStats, BatchClassification), StoreError> {
        let applied = self.engine.apply_admitted_batch(batch)?;
        self.log_applied(batch)?;
        Ok(applied)
    }
}

impl DurableEngine<ShardedEngine> {
    /// Warm-starts a [`ShardedEngine`] with `num_shards` workers from the
    /// store in `dir` — the parallel counterpart of
    /// [`DurableEngine::recover`], over the same on-disk state.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or exceeds
    /// [`MAX_SHARDS`](jetstream_core::MAX_SHARDS).
    pub fn recover_sharded(
        dir: &Path,
        alg: Box<dyn Algorithm>,
        config: EngineConfig,
        num_shards: usize,
        options: StoreOptions,
        recovery_options: RecoveryOptions,
    ) -> Result<(DurableEngine<ShardedEngine>, RecoveryReport), StoreError> {
        let (engine, report) =
            recovery::recover_sharded(dir, alg, config, num_shards, recovery_options)?;
        Self::reattach(dir, engine, options, report)
    }
}

impl<E: ReplayEngine> DurableEngine<E> {
    /// Makes `engine` durable in `dir`, writing its current state (graph,
    /// values, dependence tree) as the base snapshot at sequence 0.
    ///
    /// The engine should be converged (`initial_compute` already run):
    /// the snapshot records its values as the recoverable approximation
    /// recovery resumes from (§3.4).
    pub fn create(
        dir: &Path,
        engine: E,
        options: StoreOptions,
    ) -> Result<DurableEngine<E>, StoreError> {
        let state = engine.checkpoint_state();
        let store = DurableStore::create(dir, options, 0, engine.checkpoint_graph(), Some(&state))?;
        Ok(DurableEngine { engine, store, batches_since_checkpoint: 0 })
    }

    /// Pairs an engine that [`recovery`] just rebuilt with its store
    /// directory, resuming appends where replay stopped.
    fn reattach(
        dir: &Path,
        engine: E,
        options: StoreOptions,
        report: RecoveryReport,
    ) -> Result<(DurableEngine<E>, RecoveryReport), StoreError> {
        let store = DurableStore::open_after_recovery(dir, options, &report)?;
        let batches_since_checkpoint = report.recovered_sequence - report.snapshot_sequence;
        Ok((DurableEngine { engine, store, batches_since_checkpoint }, report))
    }

    /// The wrapped engine.
    ///
    /// Only shared access is exposed: mutating the engine behind the store's
    /// back would desynchronize the WAL from the in-memory state.
    pub fn engine(&self) -> &E {
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

    /// Batches applied since the last checkpoint (never reaches
    /// [`StoreOptions::checkpoint_interval`] while automatic checkpoints
    /// are enabled). A serving layer uses this to report checkpoint lag.
    pub fn batches_since_checkpoint(&self) -> u64 {
        self.batches_since_checkpoint
    }

    /// Applies `batch` to the engine and logs it.
    ///
    /// Ordering is apply-then-append: a batch the engine rejects (e.g. a
    /// duplicate insertion) never enters the WAL, so replay is always clean.
    /// A crash between the apply and the append loses only that single
    /// unacknowledged batch — the durable state is still a consistent
    /// prefix.
    pub fn apply_update_batch(&mut self, batch: &UpdateBatch) -> Result<RunStats, StoreError> {
        let stats = self.engine.replay_batch(batch)?;
        self.log_applied(batch)?;
        Ok(stats)
    }

    /// The durable tail of every apply: WAL-append the batch the engine
    /// just accepted, then checkpoint when the interval is due.
    fn log_applied(&mut self, batch: &UpdateBatch) -> Result<(), StoreError> {
        self.store.append(batch)?;
        self.batches_since_checkpoint += 1;
        let interval = self.store.options().checkpoint_interval;
        if interval > 0 && self.batches_since_checkpoint >= interval {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Forces a checkpoint of the engine's current state now; returns its
    /// sequence number.
    pub fn checkpoint(&mut self) -> Result<u64, StoreError> {
        let state = self.engine.checkpoint_state();
        let seq = self.store.checkpoint(self.engine.checkpoint_graph(), Some(&state))?;
        self.batches_since_checkpoint = 0;
        Ok(seq)
    }

    /// Unwraps the engine, abandoning durability tracking.
    pub fn into_engine(self) -> E {
        self.engine
    }
}
