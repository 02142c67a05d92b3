use jetstream_graph::VertexId;

use crate::{Algorithm, EdgeCtx, EdgeOp, Reduce, Value};

/// Connected components via minimum-label propagation (selective).
///
/// Every vertex starts by receiving its own id as a label; `reduce` is
/// `min`, and a vertex forwards its label unchanged over out-edges. At
/// convergence each vertex holds `min(v, min id of vertices that reach v)`.
/// Like BFS, clusters of vertices settle to the same value, so CC relies on
/// DAP rather than VAP for delete pruning (§5.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectedComponents;

impl ConnectedComponents {
    /// Creates a CC query.
    pub fn new() -> Self {
        ConnectedComponents
    }
}

impl Algorithm for ConnectedComponents {
    fn name(&self) -> &'static str {
        "CC"
    }

    fn identity(&self) -> Value {
        Value::INFINITY
    }

    fn reduce_op(&self) -> Reduce {
        Reduce::Min
    }

    fn propagate(&self, state: Value, _applied_delta: Value, _ctx: &EdgeCtx) -> Option<Value> {
        if state.is_finite() {
            Some(state)
        } else {
            None
        }
    }

    fn edge_op(&self) -> EdgeOp {
        // Label floods ignore edge weights entirely.
        EdgeOp::Uniform
    }

    fn initial_event(&self, v: VertexId) -> Option<Value> {
        Some(Value::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_forwarded_unchanged() {
        let a = ConnectedComponents::new();
        let c = EdgeCtx { weight: 9.0, out_degree: 3, weight_sum: 27.0 };
        assert_eq!(a.propagate(2.0, 2.0, &c), Some(2.0));
    }

    #[test]
    fn every_vertex_seeds_itself() {
        let a = ConnectedComponents::new();
        let seeds: Vec<_> = (0..3).map(|v| a.initial_event(v)).collect();
        assert_eq!(seeds, [Some(0.0), Some(1.0), Some(2.0)]);
    }
}
