//! Point queries answered from converged engine state between batches.
//!
//! The server applies batches synchronously on its engine thread, so any
//! moment it reads these answers the engine is converged; queries never
//! force a flush (clients wanting read-your-writes send `Flush` first —
//! DESIGN.md §15.3).
//!
//! Queries read a [`QueryState`] — a borrowed view of the converged
//! values, dependency tree, and impacted set — so the same answer logic
//! serves both backends: a [`StreamingEngine`], volatile or durable,
//! converts into it for free.

use jetstream_core::StreamingEngine;
use jetstream_graph::VertexId;

/// Borrowed converged state, the query surface of the served engine.
#[derive(Clone, Copy)]
pub struct QueryState<'a> {
    /// Converged per-vertex values.
    pub values: &'a [f64],
    /// Recorded `Leads-To` dependency parents (§5.2).
    pub dependencies: &'a [Option<VertexId>],
    /// Vertices reset by the most recent batch's delete recovery.
    pub impacted: &'a [VertexId],
}

impl<'a> From<&'a StreamingEngine> for QueryState<'a> {
    fn from(engine: &'a StreamingEngine) -> Self {
        QueryState {
            values: engine.values(),
            dependencies: engine.dependencies(),
            impacted: engine.last_impacted(),
        }
    }
}

/// The converged value of `vertex`, or `None` when it is out of range.
pub fn vertex_value<'a>(state: impl Into<QueryState<'a>>, vertex: VertexId) -> Option<f64> {
    state.into().values.get(vertex as usize).copied()
}

/// The vertices impacted (reset during deletion recovery, Fig. 10) by the
/// most recent batch, ascending. Insert-only batches impact no vertices.
pub fn impacted<'a>(state: impl Into<QueryState<'a>>) -> Vec<VertexId> {
    let mut out = state.into().impacted.to_vec();
    out.sort_unstable();
    out
}

/// The dependence chain from the tree root to `vertex`, in root-first
/// order.
///
/// Walks the engine's recorded `Leads-To` dependencies (§5.2) backwards
/// from `vertex`; the walk is capped at `num_vertices` hops, so a
/// (never-expected) cycle in the recorded tree terminates instead of
/// spinning. Returns an empty chain when the vertex is out of range or
/// the algorithm records no dependency for it and is not its own root.
pub fn dependence_path<'a>(state: impl Into<QueryState<'a>>, vertex: VertexId) -> Vec<VertexId> {
    let deps = state.into().dependencies;
    if vertex as usize >= deps.len() {
        return Vec::new();
    }
    let mut chain = vec![vertex];
    let mut at = vertex;
    for _ in 0..deps.len() {
        match deps.get(at as usize).copied().flatten() {
            Some(parent) => {
                if chain.contains(&parent) {
                    // Defensive cycle guard; a converged DAP tree is acyclic.
                    break;
                }
                chain.push(parent);
                at = parent;
            }
            None => break,
        }
    }
    // A vertex with no recorded parent is a chain only if it terminates a
    // real walk or is genuinely a root (identity-valued vertices in
    // selective algorithms have no parent and no path).
    chain.reverse();
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetstream_algorithms::Workload;
    use jetstream_core::EngineConfig;
    use jetstream_graph::AdjacencyGraph;

    fn line_engine() -> StreamingEngine {
        let mut g = AdjacencyGraph::new(5);
        for v in 0..4u32 {
            g.insert_edge(v, v + 1, 1.0).unwrap();
        }
        let mut e = StreamingEngine::new(Workload::Sssp.instantiate(0), g, EngineConfig::default());
        e.initial_compute();
        e
    }

    #[test]
    fn value_query_bounds_checks() {
        let e = line_engine();
        assert_eq!(vertex_value(&e, 3), Some(3.0));
        assert_eq!(vertex_value(&e, 99), None);
    }

    #[test]
    fn dependence_path_walks_root_first() {
        let e = line_engine();
        assert_eq!(dependence_path(&e, 4), vec![0, 1, 2, 3, 4]);
        assert_eq!(dependence_path(&e, 0), vec![0]);
        assert!(dependence_path(&e, 99).is_empty());
    }

    #[test]
    fn impacted_is_sorted() {
        let mut e = line_engine();
        let mut batch = jetstream_graph::UpdateBatch::new();
        // Deleting 1->2 severs the line: 2, 3, 4 are reset and recovered.
        batch.delete(1, 2);
        e.apply_update_batch(&batch).unwrap();
        let imp = impacted(&e);
        assert!(imp.windows(2).all(|w| w[0] < w[1]));
        assert!(imp.contains(&2), "{imp:?}");
    }
}
