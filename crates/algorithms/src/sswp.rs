use jetstream_graph::VertexId;

use crate::{Algorithm, EdgeCtx, EdgeOp, Reduce, Value};

/// Single-source widest path (selective / monotonic).
///
/// Vertex state is the bottleneck capacity of the widest known path from the
/// root; `reduce` is `max`, the identity is `0`, and an edge propagates
/// `min(state, weight)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sswp {
    root: VertexId,
}

impl Sswp {
    /// Creates an SSWP query rooted at `root`.
    pub fn new(root: VertexId) -> Self {
        Sswp { root }
    }
}

impl Algorithm for Sswp {
    fn name(&self) -> &'static str {
        "SSWP"
    }

    fn identity(&self) -> Value {
        0.0
    }

    fn reduce_op(&self) -> Reduce {
        Reduce::Max
    }

    fn propagate(&self, state: Value, _applied_delta: Value, ctx: &EdgeCtx) -> Option<Value> {
        if state > 0.0 {
            Some(state.min(ctx.weight))
        } else {
            None
        }
    }

    fn edge_op(&self) -> EdgeOp {
        // The gate reads only `state`; each edge caps the width at its
        // weight.
        EdgeOp::MinWeight
    }

    fn initial_event(&self, v: VertexId) -> Option<Value> {
        // The root's own width is unbounded.
        (v == self.root).then_some(Value::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(weight: Value) -> EdgeCtx {
        EdgeCtx { weight, out_degree: 1, weight_sum: weight }
    }

    #[test]
    fn propagate_takes_bottleneck() {
        let a = Sswp::new(0);
        assert_eq!(a.propagate(5.0, 5.0, &ctx(3.0)), Some(3.0));
        assert_eq!(a.propagate(2.0, 2.0, &ctx(3.0)), Some(2.0));
    }

    #[test]
    fn identity_state_does_not_propagate() {
        let a = Sswp::new(0);
        assert_eq!(a.propagate(0.0, 0.0, &ctx(3.0)), None);
    }

    #[test]
    fn root_starts_unbounded() {
        let a = Sswp::new(2);
        assert_eq!(a.initial_event(2), Some(Value::INFINITY));
        assert_eq!(a.initial_event(0), None);
    }
}
