use jetstream_graph::VertexId;

use crate::{Algorithm, EdgeCtx, EdgeOp, Reduce, Value};

/// Default *relative* convergence threshold: a delta smaller than
/// `epsilon x` the receiver-side magnitude of the vertex state is not
/// propagated (the accumulative analogue of "no state change").
///
/// The threshold being relative is what gives streaming PageRank its
/// locality: a converged vertex perturbed by a small incremental delta
/// stops propagating after a hop or two, while a cold start (where every
/// delta is on the order of the state itself) must iterate to full depth.
pub const PAGERANK_EPSILON: Value = 1e-5;

/// Incremental (delta-accumulative) PageRank (Maiter-style).
///
/// Vertex state accumulates rank mass: `reduce` is `+` with identity `0`.
/// Every vertex is seeded with the teleport mass `1 - d`; an applied delta
/// `δ` forwards `δ·d / out_degree` over each outgoing edge. At convergence
/// the state solves `x_v = (1-d) + d·Σ_{u→v} x_u / deg(u)` (no dangling-mass
/// redistribution, matching the event-driven model where sinks simply stop
/// propagating).
///
/// Because propagation divides by the out-degree, inserting or deleting one
/// edge at a vertex changes the contribution over *all* of its out-edges;
/// JetStream handles this with the sink-transform of Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRank {
    damping: Value,
    epsilon: Value,
}

impl PageRank {
    /// Creates a PageRank instance with the given damping factor `d`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < damping < 1`.
    pub fn new(damping: Value) -> Self {
        PageRank::with_epsilon(damping, PAGERANK_EPSILON)
    }

    /// Creates a PageRank instance with an explicit convergence threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < damping < 1` and `epsilon > 0`.
    pub fn with_epsilon(damping: Value, epsilon: Value) -> Self {
        assert!(damping > 0.0 && damping < 1.0, "damping must be in (0, 1)");
        assert!(epsilon > 0.0, "epsilon must be positive");
        PageRank { damping, epsilon }
    }

    /// The damping factor `d`.
    pub fn damping(&self) -> Value {
        self.damping
    }

    /// The convergence threshold on outgoing deltas.
    pub fn epsilon(&self) -> Value {
        self.epsilon
    }
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank::new(0.85)
    }
}

impl Algorithm for PageRank {
    fn name(&self) -> &'static str {
        "PageRank"
    }

    fn identity(&self) -> Value {
        0.0
    }

    fn reduce_op(&self) -> Reduce {
        Reduce::Sum
    }

    fn propagate(&self, state: Value, applied_delta: Value, ctx: &EdgeCtx) -> Option<Value> {
        if ctx.out_degree == 0 {
            return None;
        }
        // Relative residual test: the teleport mass floors the scale so
        // zero-state vertices still propagate their first contributions.
        let scale = state.abs().max(1.0 - self.damping);
        if applied_delta.abs() < self.epsilon * scale {
            return None;
        }
        Some(applied_delta * self.damping / ctx.out_degree as Value)
    }

    fn edge_op(&self) -> EdgeOp {
        // `propagate` reads only `out_degree`; the delta is shared by
        // every out-edge of the vertex.
        EdgeOp::Uniform
    }

    fn initial_event(&self, _v: VertexId) -> Option<Value> {
        Some(1.0 - self.damping)
    }

    fn cumulative_edge_contribution(&self, state: Value, ctx: &EdgeCtx) -> Option<Value> {
        if ctx.out_degree == 0 {
            None
        } else {
            Some(state * self.damping / ctx.out_degree as Value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(out_degree: usize) -> EdgeCtx {
        EdgeCtx { weight: 1.0, out_degree, weight_sum: out_degree as Value }
    }

    #[test]
    fn propagate_scales_delta_by_degree() {
        let pr = PageRank::new(0.5);
        assert_eq!(pr.propagate(9.9, 1.0, &ctx(2)), Some(0.25));
    }

    #[test]
    fn tiny_deltas_are_suppressed() {
        let pr = PageRank::default();
        assert_eq!(pr.propagate(1.0, 1e-12, &ctx(1)), None);
        // A tighter epsilon lets the same delta through.
        let precise = PageRank::with_epsilon(0.85, 1e-15);
        assert!(precise.propagate(1.0, 1e-12, &ctx(1)).is_some());
    }

    #[test]
    fn sinks_do_not_propagate() {
        let pr = PageRank::default();
        assert_eq!(pr.propagate(1.0, 1.0, &ctx(0)), None);
    }

    #[test]
    fn every_vertex_gets_teleport_seed() {
        let pr = PageRank::default();
        for v in 0..4 {
            assert!((pr.initial_event(v).unwrap() - 0.15).abs() < 1e-12);
        }
    }

    #[test]
    fn cumulative_contribution_matches_sum_of_deltas() {
        // If a vertex accumulated state S by deltas d1..dk, it sent
        // Σ di·d/deg = S·d/deg over each edge.
        let pr = PageRank::new(0.85);
        let c = ctx(4);
        let deltas = [0.15, 0.2, 0.05];
        let sent: Value = deltas.iter().map(|&d| pr.propagate(0.0, d, &c).unwrap()).sum();
        let state: Value = deltas.iter().sum();
        let inferred = pr.cumulative_edge_contribution(state, &c).unwrap();
        assert!((sent - inferred).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn bad_damping_panics() {
        let _ = PageRank::new(1.5);
    }
}
