use std::collections::BTreeMap;

use crate::{ix, vid, Csr, CsrPair, GraphError, UpdateBatch, VertexId, Weight};

/// Host-side mutable, versioned graph.
///
/// The paper leaves evolving-edge-list maintenance to a software graph
/// versioning framework on the host (§4.7) which, after each batch, writes a
/// fresh CSR for the mutated graph into accelerator memory and swaps the
/// pointer. `AdjacencyGraph` is that framework: a simple directed graph with
/// `O(log degree)` insertion/deletion, a monotonically increasing version
/// counter, and [`snapshot`](AdjacencyGraph::snapshot) /
/// [`snapshot_pair`](AdjacencyGraph::snapshot_pair) to produce the CSR
/// image(s) the accelerator reads.
///
/// Adjacency rows are `BTreeMap`s keyed by target so iteration order is
/// deterministic, matching the sorted rows of [`Csr`].
#[derive(Debug, Clone, Default)]
pub struct AdjacencyGraph {
    rows: Vec<BTreeMap<VertexId, Weight>>,
    num_edges: usize,
    version: u64,
    // Reusable validation scratch for `apply_batch`: sorted probe slices
    // that replace the two per-batch `BTreeSet` allocations. Always empty
    // between calls; excluded from equality.
    scratch_deleted: Vec<(VertexId, VertexId)>,
    scratch_pending: Vec<(VertexId, VertexId)>,
}

/// Two graphs are equal when they have the same vertices and edges; the
/// version counter is provenance metadata and does not affect equality.
impl PartialEq for AdjacencyGraph {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
    }
}

impl AdjacencyGraph {
    /// Creates a graph with `num_vertices` vertices and no edges.
    pub fn new(num_vertices: usize) -> Self {
        AdjacencyGraph {
            rows: vec![BTreeMap::new(); num_vertices],
            num_edges: 0,
            version: 0,
            scratch_deleted: Vec::new(),
            scratch_pending: Vec::new(),
        }
    }

    /// Builds a graph from an edge list, ignoring duplicate edges and
    /// self-loops (common in raw synthetic edge streams).
    pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId, Weight)]) -> Self {
        let mut g = AdjacencyGraph::new(num_vertices);
        for &(u, v, w) in edges {
            // Ignore errors: duplicates and self-loops are simply skipped.
            let _ = g.insert_edge(u, v, w);
        }
        g.version = 0;
        g
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.rows.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Version counter; incremented once per successful mutation or batch.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn check_vertex(&self, v: VertexId) -> Result<(), GraphError> {
        if ix(v) < self.rows.len() {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange { vertex: v, num_vertices: self.rows.len() })
        }
    }

    /// Inserts edge `u -> v` with `weight`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateEdge`] if the edge exists,
    /// [`GraphError::SelfLoop`] if `u == v`, or
    /// [`GraphError::VertexOutOfRange`] for bad endpoints.
    pub fn insert_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: Weight,
    ) -> Result<(), GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        let row = &mut self.rows[ix(u)];
        if row.contains_key(&v) {
            return Err(GraphError::DuplicateEdge { source: u, target: v });
        }
        row.insert(v, weight);
        self.num_edges += 1;
        self.version += 1;
        Ok(())
    }

    /// Removes edge `u -> v`, returning its weight.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingEdge`] if absent or
    /// [`GraphError::VertexOutOfRange`] for bad endpoints.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> Result<Weight, GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        match self.rows[ix(u)].remove(&v) {
            Some(w) => {
                self.num_edges -= 1;
                self.version += 1;
                Ok(w)
            }
            None => Err(GraphError::MissingEdge { source: u, target: v }),
        }
    }

    /// Weight of edge `u -> v`, if present.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.rows.get(ix(u)).and_then(|r| r.get(&v).copied())
    }

    /// True if edge `u -> v` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: VertexId) -> usize {
        // panic-ok: documented contract: panics if v is out of range; engines only pass construction-checked ids
        self.rows[ix(v)].len()
    }

    /// Iterates `v`'s out-edges in ascending target order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        // panic-ok: documented contract: panics if v is out of range; engines only pass construction-checked ids
        self.rows[ix(v)].iter().map(|(&t, &w)| (t, w))
    }

    /// Applies a whole update batch atomically: validates every update first,
    /// then mutates. On error the graph is unchanged.
    ///
    /// Deletions are validated against the pre-batch graph and insertions
    /// must not duplicate surviving edges. A batch may delete an edge and
    /// re-insert it (a weight change), but may delete each edge at most
    /// once.
    ///
    /// # Errors
    ///
    /// Returns the first validation error found; the graph is left untouched.
    // hot-path
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<(), GraphError> {
        let mut deleted = std::mem::take(&mut self.scratch_deleted);
        let mut pending = std::mem::take(&mut self.scratch_pending);
        let result = self.apply_batch_with(batch, &mut deleted, &mut pending);
        deleted.clear();
        pending.clear();
        self.scratch_deleted = deleted;
        self.scratch_pending = pending;
        result
    }

    // hot-path
    fn apply_batch_with(
        &mut self,
        batch: &UpdateBatch,
        deleted: &mut Vec<(VertexId, VertexId)>,
        pending: &mut Vec<(VertexId, VertexId)>,
    ) -> Result<(), GraphError> {
        // Validate deletions against the pre-batch graph. A batch may
        // delete each edge at most once; a repeat is deleting an edge the
        // batch already removed.
        deleted.extend_from_slice(batch.deletions());
        deleted.sort_unstable();
        for (a, b) in deleted.iter().zip(deleted.iter().skip(1)) {
            if a == b {
                return Err(GraphError::MissingEdge { source: a.0, target: a.1 });
            }
        }
        for &(u, v) in batch.deletions() {
            self.check_vertex(u)?;
            self.check_vertex(v)?;
            if !self.has_edge(u, v) {
                return Err(GraphError::MissingEdge { source: u, target: v });
            }
        }
        // Validate insertions against the graph state after deletions,
        // probing the sorted scratch slices instead of allocating sets.
        pending.extend(batch.insertions().iter().map(|&(u, v, _)| (u, v)));
        pending.sort_unstable();
        for (a, b) in pending.iter().zip(pending.iter().skip(1)) {
            if a == b {
                return Err(GraphError::DuplicateEdge { source: a.0, target: a.1 });
            }
        }
        for &(u, v, _) in batch.insertions() {
            self.check_vertex(u)?;
            self.check_vertex(v)?;
            if u == v {
                return Err(GraphError::SelfLoop { vertex: u });
            }
            if self.has_edge(u, v) && deleted.binary_search(&(u, v)).is_err() {
                return Err(GraphError::DuplicateEdge { source: u, target: v });
            }
        }
        // Commit.
        for &(u, v) in batch.deletions() {
            // panic-ok: u passed check_vertex during the validation pass above
            self.rows[ix(u)].remove(&v);
            self.num_edges -= 1;
        }
        for &(u, v, w) in batch.insertions() {
            // panic-ok: u passed check_vertex during the validation pass above
            self.rows[ix(u)].insert(v, w);
            self.num_edges += 1;
        }
        self.version += 1;
        Ok(())
    }

    /// Produces the out-edge CSR snapshot of the current version.
    pub fn snapshot(&self) -> Csr {
        let edges: Vec<(VertexId, VertexId, Weight)> = self
            .rows
            .iter()
            .enumerate()
            .flat_map(|(u, row)| row.iter().map(move |(&v, &w)| (vid(u), v, w)))
            .collect();
        Csr::from_edges(self.num_vertices(), &edges)
    }

    /// Produces both out-edge and in-edge CSR snapshots.
    pub fn snapshot_pair(&self) -> CsrPair {
        CsrPair::new(self.snapshot())
    }

    /// Iterates all edges as `(source, target, weight)` triples.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(u, row)| row.iter().map(move |(&v, &w)| (vid(u), v, w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_delete_roundtrip() {
        let mut g = AdjacencyGraph::new(3);
        g.insert_edge(0, 1, 5.0).expect("insert of an in-range edge should succeed");
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(5.0));
        assert_eq!(g.delete_edge(0, 1).expect("insert of an in-range edge should succeed"), 5.0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut g = AdjacencyGraph::new(3);
        g.insert_edge(0, 1, 5.0).expect("insert of an in-range edge should succeed");
        assert_eq!(
            g.insert_edge(0, 1, 6.0),
            Err(GraphError::DuplicateEdge { source: 0, target: 1 })
        );
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = AdjacencyGraph::new(3);
        assert_eq!(g.insert_edge(1, 1, 1.0), Err(GraphError::SelfLoop { vertex: 1 }));
    }

    #[test]
    fn missing_delete_rejected() {
        let mut g = AdjacencyGraph::new(3);
        assert_eq!(g.delete_edge(0, 2), Err(GraphError::MissingEdge { source: 0, target: 2 }));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut g = AdjacencyGraph::new(2);
        assert!(matches!(
            g.insert_edge(0, 9, 1.0),
            Err(GraphError::VertexOutOfRange { vertex: 9, .. })
        ));
    }

    #[test]
    fn snapshot_matches_graph() {
        let mut g = AdjacencyGraph::new(4);
        g.insert_edge(0, 1, 1.0).expect("insert of an in-range edge should succeed");
        g.insert_edge(0, 2, 2.0).expect("insert of an in-range edge should succeed");
        g.insert_edge(2, 3, 3.0).expect("insert of an in-range edge should succeed");
        let csr = g.snapshot();
        assert_eq!(csr.num_edges(), 3);
        assert_eq!(csr.edge_weight(0, 2), Some(2.0));
        assert_eq!(csr.edge_weight(2, 3), Some(3.0));
    }

    #[test]
    fn batch_application_is_atomic_on_error() {
        let mut g = AdjacencyGraph::new(4);
        g.insert_edge(0, 1, 1.0).expect("insert of an in-range edge should succeed");
        let before = g.clone();
        let mut batch = UpdateBatch::new();
        batch.insert(1, 2, 1.0);
        batch.delete(2, 3); // missing: must abort the whole batch
        assert!(g.apply_batch(&batch).is_err());
        assert_eq!(g, before);
    }

    #[test]
    fn batch_weight_change_delete_then_insert() {
        let mut g = AdjacencyGraph::new(3);
        g.insert_edge(0, 1, 1.0).expect("insert of an in-range edge should succeed");
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        batch.insert(0, 1, 9.0);
        g.apply_batch(&batch).expect("batch touches only in-range vertices");
        assert_eq!(g.edge_weight(0, 1), Some(9.0));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn batch_duplicate_insert_of_surviving_edge_rejected() {
        let mut g = AdjacencyGraph::new(3);
        g.insert_edge(0, 1, 1.0).expect("insert of an in-range edge should succeed");
        let mut batch = UpdateBatch::new();
        batch.insert(0, 1, 2.0);
        assert!(g.apply_batch(&batch).is_err());
    }

    #[test]
    fn batch_double_insert_same_edge_rejected() {
        let mut g = AdjacencyGraph::new(3);
        let mut batch = UpdateBatch::new();
        batch.insert(0, 1, 2.0);
        batch.insert(0, 1, 3.0);
        assert!(g.apply_batch(&batch).is_err());
    }

    #[test]
    fn batch_double_delete_same_edge_rejected() {
        let mut g = AdjacencyGraph::new(3);
        g.insert_edge(0, 1, 1.0).expect("insert of an in-range edge should succeed");
        let before = g.clone();
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        batch.delete(0, 1); // would corrupt num_edges if committed
        assert!(g.apply_batch(&batch).is_err());
        assert_eq!(g, before);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn version_increments() {
        let mut g = AdjacencyGraph::new(3);
        assert_eq!(g.version(), 0);
        g.insert_edge(0, 1, 1.0).expect("insert of an in-range edge should succeed");
        assert_eq!(g.version(), 1);
        let mut batch = UpdateBatch::new();
        batch.insert(1, 2, 1.0);
        g.apply_batch(&batch).expect("batch touches only in-range vertices");
        assert_eq!(g.version(), 2);
    }

    #[test]
    fn from_edges_skips_duplicates_and_loops() {
        let g = AdjacencyGraph::from_edges(3, &[(0, 1, 1.0), (0, 1, 2.0), (2, 2, 3.0)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
    }
}
