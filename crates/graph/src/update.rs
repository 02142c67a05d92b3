use crate::{ix, GraphError, VertexId, Weight};

/// A single streaming graph mutation.
///
/// §2.1 of the paper: graph updates consist of edge additions and deletions.
/// Vertex additions are modelled by the first edge touching the vertex;
/// weight changes are a delete followed by an insert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeUpdate {
    /// Add edge `source -> target` with `weight`.
    Insert {
        /// Edge source.
        source: VertexId,
        /// Edge target.
        target: VertexId,
        /// Edge weight.
        weight: Weight,
    },
    /// Remove edge `source -> target`.
    Delete {
        /// Edge source.
        source: VertexId,
        /// Edge target.
        target: VertexId,
    },
}

impl EdgeUpdate {
    /// The source endpoint of the update.
    pub fn source(&self) -> VertexId {
        match *self {
            EdgeUpdate::Insert { source, .. } | EdgeUpdate::Delete { source, .. } => source,
        }
    }

    /// The target endpoint of the update.
    pub fn target(&self) -> VertexId {
        match *self {
            EdgeUpdate::Insert { target, .. } | EdgeUpdate::Delete { target, .. } => target,
        }
    }

    /// True if this update is an insertion.
    pub fn is_insert(&self) -> bool {
        matches!(self, EdgeUpdate::Insert { .. })
    }

    /// Validates this update against a graph with `num_vertices` vertices
    /// without touching the graph itself: both endpoints must be in
    /// `0..num_vertices`, an insertion must not be a self-loop, and an
    /// insertion weight must be finite and not negative.
    ///
    /// This is the wire-ingest boundary check: updates arriving from an
    /// untrusted source (a network client, a parsed file) are rejected
    /// here with a typed [`GraphError`] instead of failing deep inside the
    /// engine after the batch was already accepted.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`GraphError`].
    pub fn check_bounds(&self, num_vertices: usize) -> Result<(), GraphError> {
        let check_vertex = |v: VertexId| {
            if ix(v) < num_vertices {
                Ok(())
            } else {
                Err(GraphError::VertexOutOfRange { vertex: v, num_vertices })
            }
        };
        check_vertex(self.source())?;
        check_vertex(self.target())?;
        if let EdgeUpdate::Insert { source, target, weight } = *self {
            if source == target {
                return Err(GraphError::SelfLoop { vertex: source });
            }
            if !valid_weight(weight) {
                return Err(GraphError::InvalidWeight { source, target });
            }
        }
        Ok(())
    }
}

/// True for a weight an edge may carry: finite and not negative (`-0.0`
/// is zero). The one rule behind [`GraphError::InvalidWeight`].
pub(crate) fn valid_weight(weight: Weight) -> bool {
    weight.is_finite() && weight >= 0.0
}

/// A single update of an offered message rejected at the ingest boundary
/// (by [`EdgeUpdate::check_bounds`] or a presence check), identifying which
/// update failed and why.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRejection {
    /// Zero-based index of the rejected update within the offered slice.
    pub index: usize,
    /// The rejected update itself.
    pub update: EdgeUpdate,
    /// The violated constraint.
    pub error: GraphError,
}

impl std::fmt::Display for UpdateRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "update {} rejected: {}", self.index, self.error)
    }
}

impl std::error::Error for UpdateRejection {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A batch of streaming updates applied atomically between query evaluations.
///
/// Updates arriving while a query runs are collected into a batch (∆ in
/// Fig. 1 of the paper) and applied once evaluation completes. The batch
/// keeps insertions and deletions separately because JetStream processes all
/// deletions (recovery phase) before any insertions (§3.5).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateBatch {
    insertions: Vec<(VertexId, VertexId, Weight)>,
    deletions: Vec<(VertexId, VertexId)>,
}

impl UpdateBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// Queues an edge insertion.
    pub fn insert(&mut self, source: VertexId, target: VertexId, weight: Weight) -> &mut Self {
        self.insertions.push((source, target, weight));
        self
    }

    /// Queues an edge deletion.
    pub fn delete(&mut self, source: VertexId, target: VertexId) -> &mut Self {
        self.deletions.push((source, target));
        self
    }

    /// Queued insertions as `(source, target, weight)` triples.
    pub fn insertions(&self) -> &[(VertexId, VertexId, Weight)] {
        &self.insertions
    }

    /// Queued deletions as `(source, target)` pairs.
    pub fn deletions(&self) -> &[(VertexId, VertexId)] {
        &self.deletions
    }

    /// Total number of updates in the batch.
    pub fn len(&self) -> usize {
        self.insertions.len() + self.deletions.len()
    }

    /// True if the batch holds no updates.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.deletions.is_empty()
    }
}

impl Extend<EdgeUpdate> for UpdateBatch {
    fn extend<T: IntoIterator<Item = EdgeUpdate>>(&mut self, iter: T) {
        for u in iter {
            match u {
                EdgeUpdate::Insert { source, target, weight } => {
                    self.insert(source, target, weight);
                }
                EdgeUpdate::Delete { source, target } => {
                    self.delete(source, target);
                }
            }
        }
    }
}

impl FromIterator<EdgeUpdate> for UpdateBatch {
    fn from_iter<T: IntoIterator<Item = EdgeUpdate>>(iter: T) -> Self {
        let mut batch = UpdateBatch::new();
        batch.extend(iter);
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_accumulates_and_counts() {
        let mut b = UpdateBatch::new();
        b.insert(0, 1, 1.0).insert(1, 2, 2.0).delete(3, 4);
        assert_eq!(b.len(), 3);
        assert_eq!(b.insertions().len(), 2);
        assert_eq!(b.deletions().len(), 1);
        assert!(!b.is_empty());
    }

    #[test]
    fn from_iterator_splits_kinds() {
        let batch: UpdateBatch = vec![
            EdgeUpdate::Insert { source: 0, target: 1, weight: 1.0 },
            EdgeUpdate::Delete { source: 1, target: 0 },
        ]
        .into_iter()
        .collect();
        assert_eq!(batch.insertions(), &[(0, 1, 1.0)]);
        assert_eq!(batch.deletions(), &[(1, 0)]);
    }

    #[test]
    fn check_bounds_accepts_the_last_vertex_and_rejects_the_first_out_of_range() {
        let n = 10;
        let ok = EdgeUpdate::Insert { source: 9, target: 8, weight: 1.0 };
        assert_eq!(ok.check_bounds(n), Ok(()));
        let del_ok = EdgeUpdate::Delete { source: 0, target: 9 };
        assert_eq!(del_ok.check_bounds(n), Ok(()));
        // num_vertices itself is the first invalid id, for either endpoint.
        let src_over = EdgeUpdate::Insert { source: 10, target: 0, weight: 1.0 };
        assert_eq!(
            src_over.check_bounds(n),
            Err(GraphError::VertexOutOfRange { vertex: 10, num_vertices: 10 })
        );
        let tgt_over = EdgeUpdate::Delete { source: 0, target: 10 };
        assert_eq!(
            tgt_over.check_bounds(n),
            Err(GraphError::VertexOutOfRange { vertex: 10, num_vertices: 10 })
        );
        // The extreme id is rejected too, not wrapped.
        let huge = EdgeUpdate::Delete { source: u32::MAX, target: 0 };
        assert_eq!(
            huge.check_bounds(n),
            Err(GraphError::VertexOutOfRange { vertex: u32::MAX, num_vertices: 10 })
        );
        // An empty graph admits nothing.
        assert!(del_ok.check_bounds(0).is_err());
    }

    #[test]
    fn check_bounds_rejects_self_loops_and_invalid_weights() {
        let loop_ = EdgeUpdate::Insert { source: 3, target: 3, weight: 1.0 };
        assert_eq!(loop_.check_bounds(10), Err(GraphError::SelfLoop { vertex: 3 }));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0, -f64::MIN_POSITIVE] {
            let upd = EdgeUpdate::Insert { source: 1, target: 2, weight: bad };
            assert_eq!(
                upd.check_bounds(10),
                Err(GraphError::InvalidWeight { source: 1, target: 2 })
            );
        }
        for good in [0.0, -0.0, 2.5] {
            let upd = EdgeUpdate::Insert { source: 1, target: 2, weight: good };
            assert_eq!(upd.check_bounds(10), Ok(()));
        }
        // Deletions carry no weight; only the endpoints are checked.
        assert_eq!(EdgeUpdate::Delete { source: 1, target: 2 }.check_bounds(10), Ok(()));
    }

    #[test]
    fn update_accessors() {
        let i = EdgeUpdate::Insert { source: 3, target: 7, weight: 2.5 };
        let d = EdgeUpdate::Delete { source: 7, target: 3 };
        assert_eq!(i.source(), 3);
        assert_eq!(i.target(), 7);
        assert!(i.is_insert());
        assert_eq!(d.source(), 7);
        assert!(!d.is_insert());
    }
}
