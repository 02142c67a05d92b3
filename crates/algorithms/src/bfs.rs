use jetstream_graph::{Csr, VertexId};

use crate::{Algorithm, EdgeCtx, EdgeOp, Reduce, UpdateKind, Value};

/// Breadth-first search hop distance (selective / monotonic).
///
/// Identical structure to SSSP with unit edge weights: state is the hop
/// count from the root, `reduce` is `min`, propagation sends `state + 1`.
/// Because many vertices settle to the *same* level value, BFS is the
/// paper's motivating case for dependency-aware propagation (DAP, §5.2) —
/// value-aware propagation cannot prune anything here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bfs {
    root: VertexId,
}

impl Bfs {
    /// Creates a BFS query rooted at `root`.
    pub fn new(root: VertexId) -> Self {
        Bfs { root }
    }

    /// The query root.
    pub fn root(&self) -> VertexId {
        self.root
    }
}

impl Algorithm for Bfs {
    fn name(&self) -> &'static str {
        "BFS"
    }

    fn kind(&self) -> UpdateKind {
        UpdateKind::Selective
    }

    fn identity(&self) -> Value {
        Value::INFINITY
    }

    fn reduce_op(&self) -> Reduce {
        Reduce::Min
    }

    fn propagate(&self, state: Value, _applied_delta: Value, _ctx: &EdgeCtx) -> Option<Value> {
        if state.is_finite() {
            Some(state + 1.0)
        } else {
            None
        }
    }

    fn edge_op(&self) -> EdgeOp {
        // Hop counts ignore edge weights entirely.
        EdgeOp::Uniform
    }

    fn initial_events(&self, _graph: &Csr) -> Vec<(VertexId, Value)> {
        vec![(self.root, 0.0)]
    }

    fn initial_event(&self, v: VertexId) -> Option<Value> {
        (v == self.root).then_some(0.0)
    }

    fn more_progressed(&self, a: Value, b: Value) -> bool {
        a < b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagate_ignores_weight() {
        let a = Bfs::new(0);
        let heavy = EdgeCtx { weight: 100.0, out_degree: 2, weight_sum: 200.0 };
        assert_eq!(a.propagate(3.0, 3.0, &heavy), Some(4.0));
    }

    #[test]
    fn unreached_does_not_propagate() {
        let a = Bfs::new(0);
        let c = EdgeCtx { weight: 1.0, out_degree: 1, weight_sum: 1.0 };
        assert_eq!(a.propagate(Value::INFINITY, 0.0, &c), None);
    }

    #[test]
    fn level_zero_at_root() {
        let a = Bfs::new(4);
        assert_eq!(a.initial_events(&Csr::new(8)), vec![(4, 0.0)]);
    }
}
