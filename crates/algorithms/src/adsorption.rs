use jetstream_graph::VertexId;

use crate::{Algorithm, EdgeCtx, Reduce, Value};

/// Default *relative* convergence threshold on Adsorption deltas (see
/// [`PAGERANK_EPSILON`](crate::pagerank::PAGERANK_EPSILON) for why relative
/// thresholds give streaming updates their locality).
pub const ADSORPTION_EPSILON: Value = 1e-5;

/// Adsorption label propagation (accumulative).
///
/// Adsorption computes per-vertex label scores by diffusing injected mass
/// over *weight-normalized* edges: at convergence
/// `x_v = inj(v) + c·Σ_{u→v} (w(u,v) / wsum(u))·x_u`, where `c` is the
/// continuation probability and `wsum(u)` the total outgoing edge weight of
/// `u`. Like PageRank it is delta-accumulative (`reduce` = `+`, identity 0)
/// and degree-sensitive, but propagation is proportional to each edge's
/// weight share, exercising [`EdgeCtx::weight_sum`].
///
/// Injection is a deterministic per-vertex function (a hashed skew over
/// `[0.05, 0.2]`), standing in for an application-provided label seed set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adsorption {
    continuation: Value,
    epsilon: Value,
}

impl Adsorption {
    /// Creates an Adsorption instance with continuation probability `c`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < continuation < 1`.
    pub fn new(continuation: Value) -> Self {
        Adsorption::with_epsilon(continuation, ADSORPTION_EPSILON)
    }

    /// Creates an Adsorption instance with an explicit convergence threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < continuation < 1` and `epsilon > 0`.
    pub fn with_epsilon(continuation: Value, epsilon: Value) -> Self {
        assert!(continuation > 0.0 && continuation < 1.0, "continuation must be in (0, 1)");
        assert!(epsilon > 0.0, "epsilon must be positive");
        Adsorption { continuation, epsilon }
    }

    /// The continuation probability `c` (the diffusion analogue of PageRank's
    /// damping; exposed as `damping` for harness uniformity).
    pub fn damping(&self) -> Value {
        self.continuation
    }

    /// Deterministic injected mass for vertex `v`.
    pub fn injection(v: VertexId) -> Value {
        // Knuth multiplicative hash onto [0.05, 0.2].
        let h = (v.wrapping_mul(2_654_435_761)) % 97;
        0.05 + 0.15 * (h as Value / 96.0)
    }
}

impl Default for Adsorption {
    fn default() -> Self {
        Adsorption::new(0.85)
    }
}

impl Algorithm for Adsorption {
    fn name(&self) -> &'static str {
        "Adsorption"
    }

    fn identity(&self) -> Value {
        0.0
    }

    fn reduce_op(&self) -> Reduce {
        Reduce::Sum
    }

    fn propagate(&self, state: Value, applied_delta: Value, ctx: &EdgeCtx) -> Option<Value> {
        if ctx.out_degree == 0 || ctx.weight_sum <= 0.0 {
            return None;
        }
        // Relative residual test; the minimum injection floors the scale.
        let scale = state.abs().max(0.05);
        if applied_delta.abs() < self.epsilon * scale {
            return None;
        }
        Some(applied_delta * self.continuation * ctx.weight / ctx.weight_sum)
    }

    fn initial_event(&self, v: VertexId) -> Option<Value> {
        Some(Adsorption::injection(v))
    }

    fn cumulative_edge_contribution(&self, state: Value, ctx: &EdgeCtx) -> Option<Value> {
        if ctx.out_degree == 0 || ctx.weight_sum <= 0.0 {
            None
        } else {
            Some(state * self.continuation * ctx.weight / ctx.weight_sum)
        }
    }

    fn needs_weight_sum(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagation_is_weight_proportional() {
        let a = Adsorption::new(0.5);
        let heavy = EdgeCtx { weight: 3.0, out_degree: 2, weight_sum: 4.0 };
        let light = EdgeCtx { weight: 1.0, out_degree: 2, weight_sum: 4.0 };
        let h = a.propagate(0.0, 1.0, &heavy).unwrap();
        let l = a.propagate(0.0, 1.0, &light).unwrap();
        assert!((h - 0.375).abs() < 1e-12);
        assert!((l - 0.125).abs() < 1e-12);
        // All edges together forward exactly c·delta.
        assert!((h + l - 0.5).abs() < 1e-12);
    }

    #[test]
    fn injections_are_deterministic_and_bounded() {
        for v in 0..100 {
            let i = Adsorption::injection(v);
            assert!((0.05..=0.2).contains(&i), "injection {i} out of range");
            assert_eq!(i, Adsorption::injection(v));
        }
    }

    #[test]
    fn injections_are_skewed() {
        let distinct: std::collections::HashSet<u64> =
            (0..100).map(|v| (Adsorption::injection(v) * 1e9) as u64).collect();
        assert!(distinct.len() > 20, "injection should vary across vertices");
    }

    #[test]
    fn requires_weight_sum() {
        assert!(Adsorption::default().needs_weight_sum());
    }

    #[test]
    fn sink_does_not_propagate() {
        let a = Adsorption::default();
        let c = EdgeCtx { weight: 1.0, out_degree: 0, weight_sum: 0.0 };
        assert_eq!(a.propagate(1.0, 1.0, &c), None);
    }
}
