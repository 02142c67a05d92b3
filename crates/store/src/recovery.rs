//! Crash recovery: snapshot load + WAL replay.
//!
//! [`DurableEngine::recover`](crate::DurableEngine::recover) rebuilds a
//! [`StreamingEngine`] from a store directory:
//!
//! 1. Read the manifest (the committed root pointer). A missing or damaged
//!    manifest is a loud error — nothing else can be trusted without it.
//! 2. Load the newest intact snapshot at or below the manifest's snapshot
//!    sequence. Corrupt (or missing) snapshots are skipped in favour of
//!    older retained ones; if none decodes, recovery fails with
//!    [`StoreError::NoSnapshot`].
//! 3. Replay every WAL record after the snapshot, in sequence order, through
//!    [`StreamingEngine::apply_update_batch`]. Only the *active* (last)
//!    segment may carry a torn tail, which is truncated back to the last
//!    intact record; any other damage — a missing segment, a failed CRC
//!    followed by more data, a sequence gap — aborts recovery loudly.
//!
//! The recovered engine is therefore always a state the engine actually
//! passed through: either the full pre-crash state, or (after a torn tail)
//! the longest durable prefix of it. It is never a silently diverged hybrid.

use std::path::Path;

use jetstream_algorithms::Algorithm;
use jetstream_core::{EngineConfig, StreamingEngine};

use crate::error::StoreError;
use crate::manifest;
use crate::snapshot;
use crate::wal;

/// Knobs for [`DurableEngine::recover`](crate::DurableEngine::recover).
///
/// A torn tail on the active WAL segment is always truncated back to the
/// last intact record; damage anywhere else is always an error.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryOptions {
    /// Run [`StreamingEngine::validate_converged`] on the recovered engine
    /// and fail recovery if it does not hold. Off by default: it is an
    /// O(edges) scan, and the recovered state is already guaranteed to be a
    /// replayed prefix of real history.
    pub validate: bool,
}

/// What recovery did, for logging and for the warm-restart benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence of the snapshot the engine was rebuilt from.
    pub snapshot_sequence: u64,
    /// Snapshot candidates that were skipped as corrupt before one decoded.
    pub snapshots_skipped: usize,
    /// WAL records replayed on top of the snapshot.
    pub replayed_batches: usize,
    /// Sequence number of the last batch folded into the recovered state.
    pub recovered_sequence: u64,
    /// Base sequence of the active WAL segment (where appends continue).
    pub active_wal_base: u64,
    /// Whether a torn tail was truncated off the active segment.
    pub wal_truncated: bool,
}

/// Recovers a [`StreamingEngine`] from the store directory `dir`: mounts
/// the newest intact snapshot and replays the surviving WAL suffix.
///
/// `alg` must be the same algorithm (same source vertex, same parameters)
/// the persisted state was computed with; the store records sequence
/// numbers and graph state but not algorithm identity.
///
/// Every failure is a [`StoreError`] naming the damaged file and byte
/// offset where applicable. Recovery never returns an engine whose state
/// could silently diverge from replayed history.
pub(crate) fn recover(
    dir: &Path,
    alg: Box<dyn Algorithm>,
    config: EngineConfig,
    options: RecoveryOptions,
) -> Result<(StreamingEngine, RecoveryReport), StoreError> {
    let root = manifest::read(dir)?;

    // Newest intact snapshot at or below the committed sequence. Snapshots
    // beyond it were written but never committed (crash mid-checkpoint) and
    // are ignored.
    let mut snapshots = snapshot::list(dir)?;
    snapshots.retain(|(seq, _)| *seq <= root.snapshot_sequence);
    let mut skipped = 0usize;
    let mut loaded: Option<snapshot::Snapshot> = None;
    for (_, path) in snapshots.iter().rev() {
        match snapshot::read(path) {
            Ok(s) => {
                loaded = Some(s);
                break;
            }
            Err(e) if e.is_corruption() => skipped += 1,
            Err(e) => return Err(e),
        }
    }
    let snap = loaded.ok_or_else(|| StoreError::NoSnapshot { dir: dir.to_path_buf() })?;
    let snap_sequence = snap.sequence;

    let mut engine = match snap.state {
        Some(state) => StreamingEngine::from_checkpoint(
            alg,
            snap.graph,
            state.values,
            state.dependency,
            config,
        )
        .map_err(|e| StoreError::Checkpoint(e.to_string()))?,
        None => {
            // Graph-only snapshot: no converged state was persisted, so the
            // warm start degrades to a cold compute at the snapshot point.
            let mut e = StreamingEngine::new(alg, snap.graph, config);
            e.initial_compute();
            e
        }
    };

    // Walk the WAL segments covering (snapshot, manifest.wal_base]. Every
    // checkpoint rotates the log, so the chosen snapshot's sequence is
    // always some segment's base; a hole in that chain is lost history.
    let mut segments = wal::list(dir)?;
    segments.retain(|(base, _)| *base >= snap_sequence && *base <= root.wal_base);
    if segments.last().map(|(base, _)| *base) != Some(root.wal_base) {
        return Err(StoreError::corrupt(
            &manifest::path_in(dir),
            0,
            format!(
                "active WAL segment {} is missing from the store directory",
                wal::file_name(root.wal_base)
            ),
        ));
    }

    let mut replayed = 0usize;
    let mut recovered_sequence = snap_sequence;
    let mut wal_truncated = false;
    for (base, path) in &segments {
        if *base != recovered_sequence {
            // The previous segment ended before this one begins (or the
            // segment at the snapshot point is gone entirely).
            return Err(StoreError::SequenceGap {
                path: path.clone(),
                expected: recovered_sequence + 1,
                found: *base + 1,
            });
        }
        let is_tail = *base == root.wal_base;
        let segment = wal::read_segment(path, is_tail)?;
        wal_truncated |= segment.truncated_to.is_some();
        for record in &segment.records {
            // read_segment enforced intra-segment contiguity; this guards
            // the cross-segment chain.
            if record.sequence != recovered_sequence + 1 {
                return Err(StoreError::SequenceGap {
                    path: path.clone(),
                    expected: recovered_sequence + 1,
                    found: record.sequence,
                });
            }
            engine.apply_update_batch(&record.batch)?;
            recovered_sequence = record.sequence;
            replayed += 1;
        }
    }

    if options.validate {
        engine.validate_converged().map_err(StoreError::Checkpoint)?;
    }

    Ok((
        engine,
        RecoveryReport {
            snapshot_sequence: snap_sequence,
            snapshots_skipped: skipped,
            replayed_batches: replayed,
            recovered_sequence,
            active_wal_base: root.wal_base,
            wal_truncated,
        },
    ))
}
