//! Versioned, checksummed binary snapshots of engine state.
//!
//! A snapshot captures everything needed to warm-start the streaming engine
//! without re-running `initial_compute`: the host adjacency graph (from which
//! the CSR pair the accelerator consumes is rebuilt) and, optionally, the
//! converged vertex values plus the DAP dependence tree — the *recoverable
//! approximation* of §3.4 that incremental re-evaluation resumes from.
//!
//! ## On-disk layout (`snap-{sequence:020}.jss`, little-endian)
//!
//! ```text
//! magic            8 bytes   "JSSNAP01"
//! sequence         u64       number of update batches folded into the state
//! num_vertices     u64
//! num_edges        u64
//! edges            num_edges × (src u32, dst u32, weight f64)
//! has_state        u8        0 = graph only, 1 = values + dependence tree
//! [values]         num_vertices × f64
//! [dependencies]   num_vertices × u32   (u32::MAX encodes "no dependence")
//! crc              u32       CRC-32 of every preceding byte
//! ```
//!
//! Files are published atomically (tmp + fsync + rename + directory fsync),
//! so a reader never sees a half-written snapshot; a torn write at any other
//! point fails the trailing CRC and is reported, never silently accepted.

use std::fs;
use std::path::{Path, PathBuf};

use jetstream_graph::{AdjacencyGraph, VertexId, Weight};

use crate::codec::{put_f64, put_u32, put_u64, put_u8, Reader};
use crate::crc32::crc32;
use crate::error::StoreError;
use crate::fsutil;

/// Magic bytes opening every snapshot file; the trailing digits version the
/// format.
pub const MAGIC: &[u8; 8] = b"JSSNAP01";

/// File-name extension used by snapshot files.
pub const EXTENSION: &str = "jss";

/// Sentinel encoding `None` in the serialized dependence tree.
const NO_DEPENDENCE: u32 = u32::MAX;

/// Converged engine state stored alongside the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotState {
    /// Converged vertex values, one per vertex.
    pub values: Vec<Weight>,
    /// DAP dependence tree: `dependency[v]` is the vertex `v`'s value was
    /// derived from, if any.
    pub dependency: Vec<Option<VertexId>>,
}

/// A decoded snapshot file.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Number of update batches folded into this state: the snapshot holds
    /// the graph *after* batch `sequence` (0 = the base graph).
    pub sequence: u64,
    /// The host adjacency graph.
    pub graph: AdjacencyGraph,
    /// Converged values and dependence tree, when the writer had them.
    pub state: Option<SnapshotState>,
}

/// Canonical file name for the snapshot at `sequence`.
///
/// Sequence numbers are zero-padded to 20 digits (the width of `u64::MAX`)
/// so lexicographic directory order is numeric order.
pub fn file_name(sequence: u64) -> String {
    format!("snap-{sequence:020}.{EXTENSION}")
}

/// Parses a snapshot file name back into its sequence number.
pub fn parse_file_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("snap-")?;
    let digits = rest.strip_suffix(&format!(".{EXTENSION}"))?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Serializes and atomically publishes a snapshot into `dir`.
///
/// Returns the path of the published file.
pub fn write(
    dir: &Path,
    sequence: u64,
    graph: &AdjacencyGraph,
    state: Option<&SnapshotState>,
) -> Result<PathBuf, StoreError> {
    let mut buf = encode(sequence, graph, state)?;
    seal(&mut buf);
    let path = dir.join(file_name(sequence));
    fsutil::write_atomic(&path, &buf)?;
    Ok(path)
}

/// Serializes a snapshot body: every byte of the file but the trailing
/// CRC, which [`seal`] appends. The split lets a checkpoint copy the state
/// out on the thread that owns it and checksum the copy elsewhere.
pub(crate) fn encode(
    sequence: u64,
    graph: &AdjacencyGraph,
    state: Option<&SnapshotState>,
) -> Result<Vec<u8>, StoreError> {
    let n = graph.num_vertices();
    if let Some(s) = state {
        if s.values.len() != n || s.dependency.len() != n {
            return Err(StoreError::Checkpoint(format!(
                "state length mismatch: {} values / {} dependencies for {n} vertices",
                s.values.len(),
                s.dependency.len()
            )));
        }
    }

    let state_len = if state.is_some() { n * 12 } else { 0 };
    let mut buf = Vec::with_capacity(64 + graph.num_edges() * 16 + state_len);
    buf.extend_from_slice(MAGIC);
    put_u64(&mut buf, sequence);
    put_u64(&mut buf, n as u64);
    put_u64(&mut buf, graph.num_edges() as u64);
    for (src, dst, w) in graph.iter_edges() {
        put_u32(&mut buf, src);
        put_u32(&mut buf, dst);
        put_f64(&mut buf, w);
    }
    match state {
        None => put_u8(&mut buf, 0),
        Some(s) => {
            put_u8(&mut buf, 1);
            for &v in &s.values {
                put_f64(&mut buf, v);
            }
            for &d in &s.dependency {
                put_u32(&mut buf, d.unwrap_or(NO_DEPENDENCE));
            }
        }
    }
    Ok(buf)
}

/// Appends the trailing CRC to an [`encode`]d body, completing the file.
pub(crate) fn seal(body: &mut Vec<u8>) {
    let crc = crc32(body);
    put_u32(body, crc);
}

/// Reads and fully validates the snapshot at `path`.
///
/// Any structural damage or checksum mismatch is returned as
/// [`StoreError::Corrupt`] / [`StoreError::Checksum`]; a snapshot never
/// decodes into partially valid state.
pub fn read(path: &Path) -> Result<Snapshot, StoreError> {
    let bytes = fsutil::read_file(path)?;
    if bytes.len() < MAGIC.len() + 4 {
        return Err(StoreError::corrupt(
            path,
            0,
            format!("file too short for a snapshot ({} bytes)", bytes.len()),
        ));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    let computed = crc32(body);
    if stored != computed {
        return Err(StoreError::Checksum {
            path: path.to_path_buf(),
            offset: body.len() as u64,
            expected: stored,
            found: computed,
        });
    }

    let mut r = Reader::new(body, 0);
    let mut magic = [0u8; 8];
    for b in &mut magic {
        *b = r.u8(path, "magic")?;
    }
    if &magic != MAGIC {
        return Err(StoreError::corrupt(path, 0, "bad snapshot magic"));
    }
    let sequence = r.u64(path, "sequence")?;
    let num_vertices = r.u64(path, "num_vertices")? as usize;
    let num_edges = r.count(16, path, "edge")?;

    let mut graph = AdjacencyGraph::new(num_vertices);
    for i in 0..num_edges {
        let at = r.offset();
        let src = r.u32(path, "edge source")?;
        let dst = r.u32(path, "edge target")?;
        let w = r.f64(path, "edge weight")?;
        graph.insert_edge(src, dst, w).map_err(|e| {
            StoreError::corrupt(path, at, format!("edge {i} ({src}->{dst}) invalid: {e}"))
        })?;
    }
    // Grown edge by edge, the arena is mostly abandoned extents.
    graph.compact();

    let has_state = r.u8(path, "state flag")?;
    let state = match has_state {
        0 => None,
        1 => {
            let mut values = Vec::with_capacity(num_vertices);
            for _ in 0..num_vertices {
                values.push(r.f64(path, "vertex value")?);
            }
            let mut dependency = Vec::with_capacity(num_vertices);
            for i in 0..num_vertices {
                let at = r.offset();
                let raw = r.u32(path, "dependence entry")?;
                if raw == NO_DEPENDENCE {
                    dependency.push(None);
                } else if (raw as usize) < num_vertices {
                    dependency.push(Some(raw));
                } else {
                    return Err(StoreError::corrupt(
                        path,
                        at,
                        format!("dependence of vertex {i} is out-of-range vertex {raw}"),
                    ));
                }
            }
            Some(SnapshotState { values, dependency })
        }
        other => {
            return Err(StoreError::corrupt(
                path,
                r.offset() - 1,
                format!("state flag must be 0 or 1, found {other}"),
            ));
        }
    };
    r.expect_end(path, "snapshot body")?;

    Ok(Snapshot { sequence, graph, state })
}

/// Lists the snapshots in `dir`, ascending by sequence number.
///
/// Files that do not match the snapshot naming scheme are ignored (including
/// `.tmp` leftovers from an interrupted publish).
pub fn list(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| StoreError::io_at(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io_at(dir, e))?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(seq) = parse_file_name(name) {
                out.push((seq, entry.path()));
            }
        }
    }
    out.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("jss-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_graph() -> AdjacencyGraph {
        AdjacencyGraph::from_edges(5, &[(0, 1, 2.5), (1, 2, 1.0), (3, 0, 0.5), (2, 4, 7.0)])
    }

    #[test]
    fn file_name_round_trips_and_sorts() {
        assert_eq!(parse_file_name(&file_name(42)), Some(42));
        assert_eq!(parse_file_name("snap-xx.jss"), None);
        assert_eq!(parse_file_name("wal-00000000000000000001.jsl"), None);
        assert!(file_name(9) < file_name(10));
    }

    #[test]
    fn graph_only_round_trip() {
        let dir = tmpdir("graph-only");
        let g = sample_graph();
        let path = write(&dir, 3, &g, None).unwrap();
        let snap = read(&path).unwrap();
        assert_eq!(snap.sequence, 3);
        assert_eq!(snap.graph.num_vertices(), 5);
        assert_eq!(snap.graph.iter_edges().collect::<Vec<_>>(), g.iter_edges().collect::<Vec<_>>());
        assert!(snap.state.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn state_round_trip() {
        let dir = tmpdir("state");
        let g = sample_graph();
        let state = SnapshotState {
            values: vec![0.0, 2.5, 3.5, f64::INFINITY, 10.5],
            dependency: vec![None, Some(0), Some(1), None, Some(2)],
        };
        let path = write(&dir, 7, &g, Some(&state)).unwrap();
        let snap = read(&path).unwrap();
        assert_eq!(snap.state.unwrap(), state);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_state_lengths_rejected_at_write() {
        let dir = tmpdir("badlen");
        let g = sample_graph();
        let state = SnapshotState { values: vec![1.0], dependency: vec![None] };
        let err = write(&dir, 0, &g, Some(&state)).unwrap_err();
        assert!(matches!(err, StoreError::Checkpoint(_)), "{err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let dir = tmpdir("flips");
        let g = sample_graph();
        let state = SnapshotState {
            values: vec![0.0, 2.5, 3.5, 1.0, 10.5],
            dependency: vec![None, Some(0), Some(1), None, Some(2)],
        };
        let path = write(&dir, 1, &g, Some(&state)).unwrap();
        let original = fs::read(&path).unwrap();
        for i in 0..original.len() {
            let mut bad = original.clone();
            bad[i] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            assert!(read(&path).is_err(), "flip at byte {i}/{} went undetected", original.len());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let dir = tmpdir("trunc");
        let g = sample_graph();
        let path = write(&dir, 1, &g, None).unwrap();
        let original = fs::read(&path).unwrap();
        for len in 0..original.len() {
            fs::write(&path, &original[..len]).unwrap();
            assert!(read(&path).is_err(), "truncation to {len} bytes went undetected");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn list_orders_by_sequence_and_skips_foreign_files() {
        let dir = tmpdir("list");
        let g = sample_graph();
        write(&dir, 5, &g, None).unwrap();
        write(&dir, 2, &g, None).unwrap();
        fs::write(dir.join("notes.txt"), b"x").unwrap();
        fs::write(dir.join("snap-bogus.jss"), b"x").unwrap();
        let seqs: Vec<u64> = list(&dir).unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![2, 5]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
