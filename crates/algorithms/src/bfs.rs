use jetstream_graph::VertexId;

use crate::{Algorithm, EdgeCtx, EdgeOp, Reduce, Value};

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
}

impl Algorithm for Bfs {
    fn name(&self) -> &'static str {
        "BFS"
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

    fn initial_event(&self, v: VertexId) -> Option<Value> {
        (v == self.root).then_some(0.0)
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
        assert_eq!(a.initial_event(4), Some(0.0));
        assert_eq!(a.initial_event(0), None);
    }
}
