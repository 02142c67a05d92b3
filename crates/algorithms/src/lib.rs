//! Delta-accumulative (DAIC) graph algorithms for JetStream.
//!
//! The event-driven execution model of GraphPulse/JetStream is built on
//! delta-accumulative incremental computation (Maiter, Zhang et al.): vertex
//! state is computed by a [`reduce`](Algorithm::reduce) over independent,
//! reorderable contributions (*deltas*) arriving over edges, and a
//! [`propagate`](Algorithm::propagate) function derives the delta sent along
//! each outgoing edge. Algorithms must satisfy the *Reordering* and
//! *Simplification* properties of §3.1 of the paper.
//!
//! Two families are supported, matching the paper:
//!
//! * **Selective** (monotonic) algorithms — vertex state is a *selection*
//!   over incoming contributions (`min`/`max`): SSSP, SSWP, BFS, Connected
//!   Components. Deletion recovery uses impacted-vertex tagging (§3.4).
//! * **Accumulative** algorithms — vertex state is a *sum* of incoming
//!   contributions: incremental PageRank and Adsorption. Deletion recovery
//!   sends the negated historical contribution (§3.3, Algorithm 3).
//!
//! The [`oracle`] module provides classical sequential implementations of
//! every algorithm, used as ground truth in tests and benchmarks.
//!
//! # Example
//!
//! ```
//! use jetstream_algorithms::{Algorithm, EdgeCtx, Reduce, Sssp};
//!
//! let sssp = Sssp::new(0);
//! let identity = sssp.identity();
//! assert_eq!(sssp.reduce_op(), Reduce::Min); // an algorithm names its operator...
//! assert_eq!(sssp.reduce(3.0, identity), 3.0); // ...and `reduce` applies it
//! let ctx = EdgeCtx { weight: 2.0, out_degree: 4, weight_sum: 10.0 };
//! assert_eq!(sssp.propagate(3.0, 3.0, &ctx), Some(5.0)); // path extension
//! ```

mod adsorption;
mod bfs;
mod cc;
mod pagerank;
mod sssp;
mod sswp;

pub mod oracle;

pub use adsorption::Adsorption;
pub use bfs::Bfs;
pub use cc::ConnectedComponents;
pub use pagerank::PageRank;
pub use sssp::Sssp;
pub use sswp::Sswp;

use jetstream_graph::{Csr, VertexId, Weight};

/// Vertex state / event payload scalar.
pub type Value = Weight;

/// Whether an algorithm's vertex update is a selection or a sum (§3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateKind {
    /// Monotonic selection (`min`/`max`) update: SSSP, SSWP, BFS, CC.
    Selective,
    /// Accumulative (`+`) update: PageRank, Adsorption.
    Accumulative,
}

/// The fixed-function reduction an algorithm folds deltas with — the
/// operator of the coalescer's `Reduce` ALU (§4.3).
///
/// Every supported algorithm reduces with one of three operators, so an
/// engine resolves [`Algorithm::reduce_op`] once per drain and folds each
/// event with a plain `match` instead of a virtual call per edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reduce {
    /// `min` selection: SSSP, BFS, Connected Components.
    Min,
    /// `max` selection: SSWP.
    Max,
    /// `+` accumulation: PageRank, Adsorption.
    Sum,
}

impl Reduce {
    /// Combines an incoming delta with the current state. `Min`/`Max` are
    /// [`f64::min`]/[`f64::max`], so a NaN operand is ignored rather than
    /// propagated.
    #[inline]
    pub fn apply(self, state: Value, delta: Value) -> Value {
        match self {
            Reduce::Min => state.min(delta),
            Reduce::Max => state.max(delta),
            Reduce::Sum => state + delta,
        }
    }

    /// The update family the operator implies (§3.5): `min`/`max` select,
    /// `+` accumulates.
    pub fn kind(self) -> UpdateKind {
        match self {
            Reduce::Min | Reduce::Max => UpdateKind::Selective,
            Reduce::Sum => UpdateKind::Accumulative,
        }
    }
}

/// How the delta an algorithm sends over an out-edge depends on that edge
/// — what an engine resolves once, as it resolves [`Reduce`], to decide
/// how a vertex's row of out-edges goes out (§4.4: the delta is computed
/// once per vertex and the generation streams walk the row).
///
/// For every variant but [`PerEdge`](EdgeOp::PerEdge), whether
/// [`propagate`](Algorithm::propagate) returns `Some` never depends on the
/// per-edge fields of [`EdgeCtx`] (`weight`, `weight_sum`): one call, at
/// [`neutral_weight`](EdgeOp::neutral_weight), is the gate for the whole
/// row, and its result is the row's *base*. Every edge then carries
/// [`apply`](EdgeOp::apply)`(base, weight)`, bit for bit what a per-edge
/// `propagate` would have returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeOp {
    /// Every edge carries the base unchanged (PageRank, BFS, CC); the
    /// contract covers [`cumulative_edge_contribution`] too.
    ///
    /// [`cumulative_edge_contribution`]: Algorithm::cumulative_edge_contribution
    Uniform,
    /// Every edge carries `base + weight` (SSSP).
    AddWeight,
    /// Every edge carries `base.min(weight)` (SSWP).
    MinWeight,
    /// No shared form: `propagate` runs edge by edge (Adsorption, whose
    /// weight-normalized delta and accumulative set-up filter per edge).
    PerEdge,
}

impl EdgeOp {
    /// The weight the operator leaves every value unchanged by
    /// (`x + -0.0 == x`, `x.min(+∞) == x`, each bit for bit on the values
    /// the gate lets through), so `propagate` called with it yields the
    /// row's base. Unread by `Uniform`, meaningless for `PerEdge`.
    pub fn neutral_weight(self) -> Weight {
        match self {
            EdgeOp::AddWeight => -0.0,
            EdgeOp::MinWeight => Weight::INFINITY,
            EdgeOp::Uniform | EdgeOp::PerEdge => 0.0,
        }
    }

    /// The delta one edge of weight `weight` carries, given the row's
    /// `base`. `PerEdge` has no shared form and returns `base`.
    #[inline]
    pub fn apply(self, base: Value, weight: Weight) -> Value {
        match self {
            EdgeOp::AddWeight => base + weight,
            EdgeOp::MinWeight => base.min(weight),
            EdgeOp::Uniform | EdgeOp::PerEdge => base,
        }
    }
}

/// Per-edge context handed to [`Algorithm::propagate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeCtx {
    /// Weight of the edge being propagated over.
    pub weight: Weight,
    /// Out-degree of the source vertex in the *current* graph version.
    pub out_degree: usize,
    /// Sum of the source vertex's out-edge weights (only meaningful when
    /// [`Algorithm::needs_weight_sum`] is true).
    pub weight_sum: Weight,
}

/// A delta-accumulative graph algorithm runnable on the JetStream engine.
///
/// The five required methods state the DAIC functions (Algorithm 1); the
/// rest are provided, and the update family follows from the operator.
///
/// Implementations must guarantee:
///
/// * `reduce(x, identity()) == x` for all `x` (the identity is non-dominant
///   under [`reduce_op`](Algorithm::reduce_op));
/// * the reduction is commutative and associative (*Reordering property*,
///   which all three [`Reduce`] operators have);
/// * a vertex whose state is unchanged by a delta need not propagate
///   (*Simplification property*).
pub trait Algorithm: std::fmt::Debug + Send + Sync {
    /// Human-readable name ("SSSP", "PageRank", ...).
    fn name(&self) -> &'static str;

    /// The initial vertex value; the non-dominant element of `reduce`.
    fn identity(&self) -> Value;

    /// The operator that combines an incoming delta with the current
    /// vertex state.
    fn reduce_op(&self) -> Reduce;

    /// Selective or accumulative update family: what
    /// [`reduce_op`](Algorithm::reduce_op) implies ([`Reduce::kind`]).
    fn kind(&self) -> UpdateKind {
        self.reduce_op().kind()
    }

    /// Combines an incoming delta with the current vertex state:
    /// [`reduce_op`](Algorithm::reduce_op) applied once. Hot loops resolve
    /// the operator up front and call [`Reduce::apply`] directly.
    fn reduce(&self, state: Value, delta: Value) -> Value {
        self.reduce_op().apply(state, delta)
    }

    /// Computes the delta sent over one outgoing edge, or `None` when the
    /// contribution is not worth propagating (e.g. below the accumulative
    /// convergence threshold).
    ///
    /// For **selective** algorithms the outgoing delta is derived from the
    /// full vertex `state`. For **accumulative** algorithms it is derived
    /// from the `applied_delta` that was just folded into the state
    /// (Maiter-style delta forwarding).
    fn propagate(&self, state: Value, applied_delta: Value, ctx: &EdgeCtx) -> Option<Value>;

    /// How [`propagate`](Algorithm::propagate)'s delta depends on the
    /// edge it is sent over (see [`EdgeOp`] for the contract). Engines
    /// then evaluate it once per vertex instead of once per edge and hand
    /// the row of targets on whole — a pure dispatch saving; the emitted
    /// events are bit-identical either way. The default, `PerEdge`,
    /// promises nothing.
    fn edge_op(&self) -> EdgeOp {
        EdgeOp::PerEdge
    }

    /// The initial contribution vertex `v` receives from the initializer,
    /// if any: `InitialEvents()` of Algorithm 1 is this over every vertex,
    /// in ascending id order. The engine also replays it for vertices reset
    /// during deletion recovery: an impacted vertex whose converged value
    /// partly came from the initializer (the SSSP/SSWP/BFS root, every
    /// vertex's self-label in CC) cannot be re-approximated from neighbor
    /// requests alone.
    fn initial_event(&self, v: VertexId) -> Option<Value>;

    /// True if `a` is strictly *more progressed* (closer to convergence,
    /// dominant under `reduce`) than `b`: `a < b` under `Min`, `a > b` under
    /// `Max` (values are never NaN: weights are checked finite at ingest).
    /// Only meaningful for selective algorithms.
    fn more_progressed(&self, a: Value, b: Value) -> bool {
        self.kind() == UpdateKind::Selective && self.reduce(a, b) == a && a != b
    }

    /// Total historical contribution this vertex sent over *one* of its
    /// out-edges, inferred from its accumulated state (accumulative
    /// algorithms only; used to build negative delete events, Algorithm 3).
    ///
    /// Returns `None` for selective algorithms.
    fn cumulative_edge_contribution(&self, state: Value, ctx: &EdgeCtx) -> Option<Value> {
        let _ = (state, ctx);
        None
    }

    /// True if [`EdgeCtx::weight_sum`] must be populated (weight-normalized
    /// propagation, e.g. Adsorption).
    fn needs_weight_sum(&self) -> bool {
        false
    }
}

/// The six workloads evaluated in the paper (§6.1), as a closed enum for
/// harness configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Workload {
    /// Single-source shortest path.
    Sssp,
    /// Single-source widest path.
    Sswp,
    /// Breadth-first search (hop distance).
    Bfs,
    /// Connected components via minimum-label propagation.
    Cc,
    /// Incremental (delta-accumulative) PageRank.
    PageRank,
    /// Adsorption label propagation.
    Adsorption,
}

impl Workload {
    /// All workloads, in the paper's Table 3 order.
    pub const ALL: [Workload; 6] = [
        Workload::Sswp,
        Workload::Sssp,
        Workload::Bfs,
        Workload::Cc,
        Workload::PageRank,
        Workload::Adsorption,
    ];

    /// The four selective workloads (Figs. 10, 12, 14).
    pub const SELECTIVE: [Workload; 4] =
        [Workload::Sswp, Workload::Sssp, Workload::Bfs, Workload::Cc];

    /// Short name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sssp => "SSSP",
            Workload::Sswp => "SSWP",
            Workload::Bfs => "BFS",
            Workload::Cc => "CC",
            Workload::PageRank => "PageRank",
            Workload::Adsorption => "Adsorption",
        }
    }

    /// Parses a workload from its [`name`](Workload::name) or the alias
    /// `pr`, case-insensitively: the one table behind every command line.
    pub fn from_name(name: &str) -> Option<Workload> {
        let is = |s: &str| s.eq_ignore_ascii_case(name);
        Workload::ALL.into_iter().find(|w| is(w.name())).or(is("pr").then_some(Workload::PageRank))
    }

    /// Instantiates the algorithm. `root` seeds the single-source workloads
    /// and is ignored by CC, PageRank, and Adsorption.
    pub fn instantiate(self, root: VertexId) -> Box<dyn Algorithm> {
        match self {
            Workload::Sssp => Box::new(Sssp::new(root)),
            Workload::Sswp => Box::new(Sswp::new(root)),
            Workload::Bfs => Box::new(Bfs::new(root)),
            Workload::Cc => Box::new(ConnectedComponents::new()),
            Workload::PageRank => Box::new(PageRank::default()),
            Workload::Adsorption => Box::new(Adsorption::default()),
        }
    }

    /// Like [`instantiate`](Workload::instantiate), with an explicit
    /// convergence threshold for the accumulative workloads (ignored by the
    /// selective ones, which are exact).
    ///
    /// The threshold controls how deep incremental deltas propagate: the
    /// paper's locality regime requires the propagation depth at `epsilon`
    /// to stay below the graph's diameter, so scaled-down graphs call for a
    /// proportionally coarser threshold.
    pub fn instantiate_with_epsilon(self, root: VertexId, epsilon: Value) -> Box<dyn Algorithm> {
        match self {
            Workload::PageRank => Box::new(PageRank::with_epsilon(0.85, epsilon)),
            Workload::Adsorption => Box::new(Adsorption::with_epsilon(0.85, epsilon)),
            _ => self.instantiate(root),
        }
    }

    /// The update family of this workload: its algorithm's.
    pub fn kind(self) -> UpdateKind {
        self.instantiate(0).kind()
    }
}

/// Runs the sequential reference oracle for `workload` on `graph`.
///
/// Produces one converged value per vertex, directly comparable (within
/// [`oracle::VALUE_TOLERANCE`] for accumulative workloads) to engine output.
pub fn oracle_values(workload: Workload, graph: &Csr, root: VertexId) -> Vec<Value> {
    match workload {
        Workload::Sssp => oracle::sssp(graph, root),
        Workload::Sswp => oracle::sswp(graph, root),
        Workload::Bfs => oracle::bfs(graph, root),
        Workload::Cc => oracle::connected_components(graph),
        Workload::PageRank => oracle::pagerank(graph, PageRank::default().damping()),
        Workload::Adsorption => oracle::adsorption(graph, Adsorption::default().damping()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_unique() {
        let names: std::collections::HashSet<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 6);
    }

    // Every workload by its printed name and by the lower-case spelling
    // both binaries accepted before their parsers were merged, plus `pr`.
    #[test]
    fn workloads_parse_from_their_names_and_aliases() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert_eq!(Workload::from_name(&w.name().to_ascii_lowercase()), Some(w));
        }
        assert_eq!(Workload::from_name("pr"), Some(Workload::PageRank));
        assert_eq!(Workload::from_name("ppr"), None);
    }

    #[test]
    fn selective_workloads_are_exactly_the_selective_kind() {
        let selective: Vec<_> =
            Workload::ALL.into_iter().filter(|w| w.kind() == UpdateKind::Selective).collect();
        assert_eq!(selective, Workload::SELECTIVE);
    }

    #[test]
    fn identity_is_non_dominant_for_all() {
        for w in Workload::ALL {
            let a = w.instantiate(0);
            let id = a.identity();
            for x in [-0.0, 0.0, 0.5, 1.0, 7.0, 42.0, Value::INFINITY] {
                assert_eq!(a.reduce(x, id), x, "{} identity dominates {x}", w.name());
            }
        }
    }

    #[test]
    fn reduce_op_applies_the_operator_each_algorithm_used_to_hand_write() {
        // Before `Reduce`, every algorithm carried its own `reduce` body:
        // `state.min(delta)`, `state.max(delta)` or `state + delta`. The
        // operator must reproduce them bit for bit — including which zero
        // survives and `f64::min`/`max` ignoring a NaN operand where `+`
        // propagates it.
        let edge = [-0.0, 0.0, 1.5, -2.25, 1e300, Value::INFINITY, Value::NEG_INFINITY, Value::NAN];
        for w in Workload::ALL {
            let (op, body): (Reduce, fn(Value, Value) -> Value) = match w {
                Workload::Sssp | Workload::Bfs | Workload::Cc => (Reduce::Min, Value::min),
                Workload::Sswp => (Reduce::Max, Value::max),
                Workload::PageRank | Workload::Adsorption => (Reduce::Sum, |a, b| a + b),
            };
            let a = w.instantiate(0);
            assert_eq!(a.reduce_op(), op, "{}", w.name());
            for x in edge {
                for y in edge {
                    let want = body(x, y).to_bits();
                    assert_eq!(op.apply(x, y).to_bits(), want, "{} apply({x}, {y})", w.name());
                    assert_eq!(a.reduce(x, y).to_bits(), want, "{} reduce({x}, {y})", w.name());
                }
            }
        }
        assert_eq!(Reduce::Min.apply(Value::NAN, 3.0), 3.0);
        assert_eq!(Reduce::Max.apply(3.0, Value::NAN), 3.0);
        assert!(Reduce::Sum.apply(Value::NAN, 3.0).is_nan());
    }

    // The comparison VAP prunes with is strict dominance under the
    // operator, and nothing for an accumulative algorithm.
    #[test]
    fn more_progressed_is_strict_dominance_under_the_operator() {
        for w in Workload::ALL {
            let a = w.instantiate(0);
            for (x, y) in [(2.0, 3.0), (3.0, 2.0), (2.0, 2.0), (2.0, Value::INFINITY)] {
                let want = match a.reduce_op() {
                    Reduce::Min => x < y,
                    Reduce::Max => x > y,
                    Reduce::Sum => false,
                };
                assert_eq!(a.more_progressed(x, y), want, "{} ({x}, {y})", w.name());
            }
        }
    }

    // The contract engines lean on when they evaluate once per row. A
    // `Uniform` algorithm answers the same, bit for bit, whatever `weight`
    // and `weight_sum` say — for the delta it forwards and for the
    // contribution it rolls back. An `AddWeight`/`MinWeight` one answers
    // what its gate (one call at the neutral weight) and then its operator
    // give, bit for bit, over signed zeros, infinities, NaN and negative
    // weights.
    #[test]
    fn edge_invariant_algorithms_ignore_the_per_edge_fields() {
        let bits = |x: Option<Value>| x.map(Value::to_bits);
        let edge =
            [-0.0, 0.0, 0.25, 1.5, -3.0, 1e300, Value::INFINITY, Value::NEG_INFINITY, Value::NAN];
        let mut ops = Vec::new();
        for w in Workload::ALL {
            let a = w.instantiate(0);
            let op = a.edge_op();
            ops.push((w, op));
            for out_degree in [0, 1, 3, 17] {
                let gate = EdgeCtx { weight: op.neutral_weight(), out_degree, weight_sum: 0.0 };
                match op {
                    EdgeOp::Uniform => {
                        let others =
                            [(1.0, 1.0), (0.25, 7.5), (-3.0, Value::INFINITY), (Value::NAN, -0.0)]
                                .map(|(weight, weight_sum)| EdgeCtx {
                                    weight,
                                    out_degree,
                                    weight_sum,
                                });
                        for (state, delta) in [(0.0, 0.15), (2.5, 2.5), (1.0, -0.3), (7.0, 1e-9)] {
                            for ctx in &others {
                                assert_eq!(
                                    bits(a.propagate(state, delta, ctx)),
                                    bits(a.propagate(state, delta, &gate)),
                                    "{} propagate({state}, {delta}, {ctx:?})",
                                    w.name()
                                );
                                assert_eq!(
                                    bits(a.cumulative_edge_contribution(state, ctx)),
                                    bits(a.cumulative_edge_contribution(state, &gate)),
                                    "{} cumulative_edge_contribution({state}, {ctx:?})",
                                    w.name()
                                );
                            }
                        }
                    }
                    EdgeOp::AddWeight | EdgeOp::MinWeight => {
                        for (state, weight, weight_sum) in
                            edge.iter().flat_map(|&s| edge.iter().map(move |&x| (s, x, x)))
                        {
                            let ctx = EdgeCtx { weight, out_degree, weight_sum };
                            let gated = a.propagate(state, state, &gate);
                            assert_eq!(
                                bits(a.propagate(state, state, &ctx)),
                                bits(gated.map(|base| op.apply(base, weight))),
                                "{} propagate({state}, {ctx:?}) vs gate, then {op:?}",
                                w.name()
                            );
                        }
                    }
                    EdgeOp::PerEdge => {}
                }
            }
        }
        assert_eq!(
            ops,
            [
                (Workload::Sswp, EdgeOp::MinWeight),
                (Workload::Sssp, EdgeOp::AddWeight),
                (Workload::Bfs, EdgeOp::Uniform),
                (Workload::Cc, EdgeOp::Uniform),
                (Workload::PageRank, EdgeOp::Uniform),
                (Workload::Adsorption, EdgeOp::PerEdge),
            ]
        );
    }
}
