//! Graph substrate for the JetStream streaming graph accelerator.
//!
//! This crate provides everything the engine, simulator, and baselines need to
//! represent and evolve graphs:
//!
//! * [`Csr`] — the graph: compressed sparse row adjacency, the storage
//!   format the accelerator reads from its device memory (§4.7 of the
//!   paper), with per-row slack so it is also the structure that takes the
//!   updates. The paper's host keeps the evolving edge list apart and
//!   writes a fresh CSR after each batch; here one structure is both.
//! * [`CsrPair`] — the graph and its in-edges, updated together; JetStream
//!   needs incoming edges only to issue *request* events during recovery,
//!   and a request carries no edge weight, so the in-edge view is an
//!   [`InEdges`]: row headers and source ids, no weight column.
//! * [`UpdateBatch`] / [`EdgeUpdate`] — batched edge insertions and deletions
//!   (graph *mutations* in the paper's terminology).
//! * [`gen`] — deterministic synthetic dataset generators standing in for the
//!   paper's five real-world graphs (Table 2), plus streaming batch
//!   generators.
//! * [`partition`] — minimum-edge-cut graph slicing (the paper uses PuLP).
//! * [`io`] — edge-list and update-stream file formats.
//!
//! # Example
//!
//! ```
//! use jetstream_graph::{Csr, UpdateBatch};
//!
//! # fn main() -> Result<(), jetstream_graph::GraphError> {
//! let mut g = Csr::new(4);
//! g.insert_edge(0, 1, 2.0)?;
//! g.insert_edge(1, 2, 3.0)?;
//!
//! let mut batch = UpdateBatch::new();
//! batch.insert(2, 3, 1.0);
//! batch.delete(0, 1);
//! g.apply_batch(&batch)?;
//! let targets: Vec<_> = g.iter_edges().map(|(_, v, _)| v).collect();
//! assert_eq!(targets, [2, 3]);
//! # Ok(())
//! # }
//! ```

mod csr;
mod dcsr;
mod error;
mod update;

pub mod gen;
pub mod io;
pub mod partition;
pub mod rng;

pub use csr::{Csr, CsrPair, EdgeRef, InEdges};
pub use dcsr::CheckedBatch;
pub use error::GraphError;
pub use update::{EdgeUpdate, UpdateBatch, UpdateRejection};

/// The graph under the name it had while the host kept a second copy of
/// the edges: `benchmark/` imports it.
pub type AdjacencyGraph = Csr;

/// Identifier of a vertex. Graphs are addressed `0..num_vertices`.
pub type VertexId = u32;

/// The array index of vertex `v` — the one place an id is widened.
///
/// Everything the paper addresses by vertex (the coalescing-queue slot of
/// §4.3, the vertex-property scratchpad and the CSR row of §4.7) is
/// `array[ix(v)]`. The same widening serves the other `u32` quantities
/// that live in the id space: slice numbers (never more slices than
/// vertices) and offsets into id-indexed side arrays.
#[inline]
#[must_use]
pub fn ix(v: VertexId) -> usize {
    v as usize // cast-ok: VertexId is u32 -> usize is lossless on the >=32-bit targets we support
}

/// The vertex id of array index `i` — the one place an index is narrowed.
///
/// Callers pass positions inside a per-vertex array (or counts bounded by
/// one), so `i` fits; debug builds check it.
#[inline]
#[must_use]
pub fn vid(i: usize) -> VertexId {
    debug_assert!(u32::try_from(i).is_ok(), "index {i} is outside the vertex-id space");
    i as VertexId // cast-ok: index < num_vertices <= u32::MAX, enforced at graph construction
}

/// Edge weight / vertex value scalar used throughout the system.
pub type Weight = f64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ix_and_vid_round_trip_at_both_ends_of_the_id_space() {
        for v in [0, 1, u32::MAX - 1, u32::MAX] {
            assert_eq!(vid(ix(v)), v);
        }
        assert_eq!(ix(u32::MAX), 4_294_967_295usize);
    }

    #[test]
    #[cfg(all(debug_assertions, target_pointer_width = "64"))]
    #[should_panic(expected = "outside the vertex-id space")]
    fn vid_rejects_an_index_past_the_id_space_in_debug_builds() {
        let _ = vid(ix(u32::MAX) + 1);
    }
}
