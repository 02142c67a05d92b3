use jetstream_graph::VertexId;

use crate::{Algorithm, EdgeCtx, EdgeOp, Reduce, Value};

/// Single-source shortest path (selective / monotonic).
///
/// Vertex state is the length of the shortest known path from the root;
/// `reduce` is `min`, the identity is `+∞`, and an edge propagates
/// `state + weight` (Algorithm 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sssp {
    root: VertexId,
}

impl Sssp {
    /// Creates an SSSP query rooted at `root`.
    pub fn new(root: VertexId) -> Self {
        Sssp { root }
    }
}

impl Algorithm for Sssp {
    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn identity(&self) -> Value {
        Value::INFINITY
    }

    fn reduce_op(&self) -> Reduce {
        Reduce::Min
    }

    fn propagate(&self, state: Value, _applied_delta: Value, ctx: &EdgeCtx) -> Option<Value> {
        if state.is_finite() {
            Some(state + ctx.weight)
        } else {
            None
        }
    }

    fn edge_op(&self) -> EdgeOp {
        // The gate reads only `state`; each edge extends the path by its
        // weight.
        EdgeOp::AddWeight
    }

    fn initial_event(&self, v: VertexId) -> Option<Value> {
        (v == self.root).then_some(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(weight: Value) -> EdgeCtx {
        EdgeCtx { weight, out_degree: 1, weight_sum: weight }
    }

    #[test]
    fn propagate_extends_path() {
        let a = Sssp::new(0);
        assert_eq!(a.propagate(2.0, 2.0, &ctx(3.0)), Some(5.0));
    }

    #[test]
    fn infinite_state_does_not_propagate() {
        let a = Sssp::new(0);
        assert_eq!(a.propagate(Value::INFINITY, 0.0, &ctx(1.0)), None);
    }

    #[test]
    fn initial_event_is_root_zero() {
        let a = Sssp::new(7);
        assert_eq!(a.initial_event(7), Some(0.0));
        assert_eq!(a.initial_event(6), None);
    }
}
