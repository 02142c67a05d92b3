use jetstream_graph::{Csr, VertexId};

use crate::{Algorithm, EdgeCtx, EdgeOp, Reduce, UpdateKind, Value};

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

    /// The query root.
    pub fn root(&self) -> VertexId {
        self.root
    }
}

impl Algorithm for Sssp {
    fn name(&self) -> &'static str {
        "SSSP"
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

    fn ctx(weight: Value) -> EdgeCtx {
        EdgeCtx { weight, out_degree: 1, weight_sum: weight }
    }

    #[test]
    fn reduce_is_min() {
        let a = Sssp::new(0);
        assert_eq!(a.reduce(3.0, 5.0), 3.0);
        assert_eq!(a.reduce(5.0, 3.0), 3.0);
        assert_eq!(a.reduce(Value::INFINITY, 4.0), 4.0);
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
        let g = Csr::new(10);
        assert_eq!(a.initial_events(&g), vec![(7, 0.0)]);
    }

    #[test]
    fn smaller_distance_more_progressed() {
        let a = Sssp::new(0);
        assert!(a.more_progressed(2.0, 3.0));
        assert!(!a.more_progressed(3.0, 2.0));
        assert!(!a.more_progressed(2.0, 2.0));
        assert!(a.more_progressed(2.0, Value::INFINITY));
    }
}
