//! Per-event processing kernel shared by every executor.
//!
//! [`StreamingEngine`](crate::StreamingEngine) and
//! [`ShardedEngine`](crate::ShardedEngine) must produce bit-identical
//! results (the differential-test harness asserts it), so the semantics of
//! applying one event — reduce, state update, dependency recording, reset
//! guards, and propagation — live here exactly once. The executors differ
//! only in which vertex range they own and where emissions go.
//! [`ExecState`] abstracts the second with two methods, one per emission
//! unit — [`ExecState::emit`] an event, [`ExecState::emit_row`] a [`Row`].
//! The first is data, not code: every executor lends the kernel a
//! [`VertexState`] — the flow's whole vectors for the sequential
//! executor and the DAP delete wave, the owned range for a sharded
//! worker — and its four
//! accessors are the only place per-vertex state is indexed.
//!
//! # Row emission
//!
//! A processing engine of the paper computes a vertex's outgoing delta
//! once and its generation streams walk the CSR row (§4.4). The kernel
//! does the same wherever the algorithm's [`EdgeOp`] allows: one
//! `propagate` call — the row gate, which never depends on the edge —
//! then the whole row goes to the executor as one [`Row`] through
//! [`ExecState::emit_row`]. Its [`Carry`] is one delta for every target
//! (PageRank, BFS, CC), the row's weights and the operator that turns the
//! gate's base into each edge's delta (SSSP `base + w`, SSWP
//! `base.min(w)`), or — for Tag and DAP delete waves — the identity from
//! one source. Executors route a row without looking at its carry; only
//! the queue folding it does. A DAP delete wave never reaches an executor:
//! the flow keeps its rows as a frontier and hands each back, a round
//! later, to [`process_delete_row`]. Adsorption's
//! weight-normalized propagation and VAP's delete payloads go event by
//! event through [`ExecState::emit`]. Everything the kernel needs to know about the
//! algorithm besides `propagate` — its [`Reduce`] operator (the
//! coalescer's ALU, §4.3), [`EdgeOp`], update family, identity — is
//! resolved once, when the [`KernelCtx`] is built.

use jetstream_algorithms::{Algorithm, EdgeCtx, EdgeOp, Reduce, UpdateKind, Value};
use jetstream_graph::{ix, vid, Csr, CsrPair, VertexId};

use crate::engine::DeleteStrategy;
use crate::event::{Carry, Event, Row};
use crate::stats::RunStats;
use crate::trace::{OpKind, TraceOp};

/// Read-only context shared by every event applied in one phase.
///
/// Nominally `pub` only because the sealed executor seam
/// ([`crate::flow::sealed::Drain`]) names it; the module is private.
#[derive(Clone, Copy)]
pub struct KernelCtx<'a> {
    /// The algorithm being evaluated.
    pub alg: &'a dyn Algorithm,
    /// The active CSR snapshot (propagation reads out-edges from it).
    pub csr: &'a CsrPair,
    /// Delete-propagation strategy (drives the reset guard, §5).
    pub delete_strategy: DeleteStrategy,
    /// The algorithm's reduction operator.
    pub reduce: Reduce,
    /// The algorithm's update family.
    pub kind: UpdateKind,
    /// The algorithm's identity value.
    pub identity: Value,
    /// Dependency-aware propagation is in force: the strategy is DAP, with
    /// or without restore, and the algorithm selective (§5.2 defines it for
    /// those only).
    pub dap_active: bool,
    /// How a vertex's delta depends on the out-edge it leaves by
    /// ([`Algorithm::edge_op`]): every variant but `PerEdge` sends rows
    /// out whole.
    pub edge_op: EdgeOp,
    needs_weight_sum: bool,
}

impl<'a> KernelCtx<'a> {
    /// Resolves every per-algorithm constant once, so the per-event path
    /// dispatches through `alg` only to propagate.
    pub fn new(alg: &'a dyn Algorithm, csr: &'a CsrPair, delete_strategy: DeleteStrategy) -> Self {
        let kind = alg.kind();
        KernelCtx {
            alg,
            csr,
            delete_strategy,
            reduce: alg.reduce_op(),
            kind,
            identity: alg.identity(),
            dap_active: delete_strategy.is_dap() && kind == UpdateKind::Selective,
            edge_op: alg.edge_op(),
            needs_weight_sum: alg.needs_weight_sum(),
        }
    }

    /// Sum of outgoing edge weights of `u`, when the algorithm needs it.
    pub fn weight_sum(&self, u: VertexId) -> Value {
        if self.needs_weight_sum {
            self.csr.out.neighbors(u).map(|e| e.weight).sum()
        } else {
            0.0
        }
    }
}

/// The per-vertex state an executor lends the kernel for one drain: the
/// `values` and `dependency` entries of the contiguous vertex range
/// starting at `lo` (the sequential executor and the DAP delete wave lend
/// the whole arrays with `lo = 0`, a sharded worker its owned range).
///
/// The kernel only touches the vertex an event targets, and every
/// executor routes an event to the owner of its target (range-checked at
/// queue insert), so `v - lo` always indexes the lent slices.
pub(crate) struct VertexState<'a> {
    /// First vertex of the lent range.
    pub lo: VertexId,
    /// Values of vertices `lo..lo + values.len()`.
    pub values: &'a mut [Value],
    /// Leads-To dependencies (DAP, §5.2) of the same range.
    pub dependency: &'a mut [Option<VertexId>],
}

impl VertexState<'_> {
    /// Current value of `v`.
    #[inline]
    pub fn value(&self, v: VertexId) -> Value {
        self.values[ix(v - self.lo)] // panic-ok: v is in the lent range (type doc)
    }

    /// Overwrites the value of `v`.
    #[inline]
    pub fn set_value(&mut self, v: VertexId, x: Value) {
        self.values[ix(v - self.lo)] = x; // panic-ok: v is in the lent range (type doc)
    }

    /// Recorded Leads-To dependency of `v`.
    #[inline]
    pub fn dependency(&self, v: VertexId) -> Option<VertexId> {
        self.dependency[ix(v - self.lo)] // panic-ok: v is in the lent range (type doc)
    }

    /// Overwrites the dependency of `v`.
    #[inline]
    pub fn set_dependency(&mut self, v: VertexId, d: Option<VertexId>) {
        self.dependency[ix(v - self.lo)] = d; // panic-ok: v is in the lent range (type doc)
    }
}

/// Where the kernel finds per-vertex state and sends emitted events.
pub(crate) trait ExecState<'a> {
    /// The vertex state lent for this drain.
    fn verts(&mut self) -> &mut VertexState<'a>;
    /// Operation counters for the current run.
    fn stats(&mut self) -> &mut RunStats;
    /// Records `v` as reset (impacted) during delete propagation, with the
    /// value it held.
    fn impacted(&mut self, v: VertexId, previous: Value);
    /// Hands an emitted event to the owner (queue insert or outbox push).
    /// The implementation must count it in `events_generated` and, when it
    /// traces, record its target.
    fn emit(&mut self, ev: Event);
    /// Hands over a row's events — exactly as if each of
    /// [`Row::events`] had gone through [`emit`](ExecState::emit) in row
    /// order.
    fn emit_row(&mut self, row: Row<'_>);
    /// Tracing hooks; no-ops for sharded workers (tracing is a
    /// sequential-engine feature).
    fn trace_targets_start(&mut self) -> u32 {
        0
    }
    /// Records a completed traced operation.
    fn trace_push_op(&mut self, _op: TraceOp) {}
}

/// Applies one event (Algorithm 1 step, extended with the delete path of
/// Algorithm 4).
pub(crate) fn process_event<'a>(cx: &KernelCtx<'_>, st: &mut impl ExecState<'a>, ev: Event) {
    if ev.is_delete {
        process_delete(cx, st, ev);
        return;
    }
    st.stats().events_processed += 1;
    st.stats().vertex_reads += 1;
    let old = st.verts().value(ev.target);
    let new = cx.reduce.apply(old, ev.payload);
    // An accumulative vertex changes with any non-zero delta, even one the
    // sum absorbs; its convergence threshold lives in `propagate`.
    let changed = match cx.kind {
        UpdateKind::Selective => new != old,
        UpdateKind::Accumulative => ev.payload != 0.0,
    };
    if changed {
        st.verts().set_value(ev.target, new);
        st.stats().vertex_writes += 1;
        if cx.dap_active {
            st.verts().set_dependency(ev.target, ev.source);
        }
    }
    let must_propagate = changed || ev.request;
    let targets_start = st.trace_targets_start();
    let (generated, edges_read) =
        if must_propagate { propagate_regular(cx, st, ev.target, ev.payload) } else { (0, 0) };
    st.trace_push_op(TraceOp {
        vertex: ev.target,
        kind: OpKind::Apply,
        changed: must_propagate,
        edges_read,
        targets_start,
        targets_len: generated,
    });
}

/// Propagates from `u` over the active graph's out-edges, generating
/// regular events. Returns `(events_generated, edges_read)`.
fn propagate_regular<'a>(
    cx: &KernelCtx<'_>,
    st: &mut impl ExecState<'a>,
    u: VertexId,
    applied_delta: Value,
) -> (u32, u32) {
    let state = st.verts().value(u);
    let deg = cx.csr.out.degree(u);
    st.stats().edge_reads += deg as u64;
    let source = cx.dap_active.then_some(u);
    let op = cx.edge_op;
    if op == EdgeOp::PerEdge {
        let wsum = cx.weight_sum(u);
        let mut generated = 0u32;
        for e in cx.csr.out.neighbors(u) {
            let ctx = EdgeCtx { weight: e.weight, out_degree: deg, weight_sum: wsum };
            if let Some(delta) = cx.alg.propagate(state, applied_delta, &ctx) {
                st.emit(Event { source, ..Event::regular(e.other, delta) });
                generated += 1;
            }
        }
        return (generated, deg as u32); // cast-ok: count bounded by num_edges < 2^32, checked at graph construction
    }
    // One propagation-function dispatch per event: the row gate, which
    // reads no per-edge field, at the operator's neutral weight (so its
    // delta is the row's base); then the row goes out whole.
    let ctx = EdgeCtx { weight: op.neutral_weight(), out_degree: deg, weight_sum: 0.0 };
    let mut generated = 0;
    if let Some(base) = cx.alg.propagate(state, applied_delta, &ctx) {
        let targets = cx.csr.out.neighbor_targets(u);
        let carry = if op == EdgeOp::Uniform {
            Carry::Regular { delta: base, source }
        } else {
            Carry::Weighted { weights: cx.csr.out.row_weights(u), base, op, source }
        };
        st.emit_row(Row { targets, carry });
        generated = targets.len();
    }
    (generated as u32, deg as u32) // cast-ok: count bounded by num_edges < 2^32, checked at graph construction
}

/// Handles one delete event during recovery (Algorithm 4, lines 8–17,
/// refined by VAP/DAP).
fn process_delete<'a>(cx: &KernelCtx<'_>, st: &mut impl ExecState<'a>, ev: Event) {
    st.stats().events_processed += 1;
    st.stats().delete_events += 1;
    st.stats().vertex_reads += 1;
    let current = st.verts().value(ev.target);
    // A delete cycling back to an already tagged (identity-valued) vertex
    // never propagates again.
    let should_reset = match cx.delete_strategy {
        DeleteStrategy::Tag => current != cx.identity,
        DeleteStrategy::Vap => {
            current != cx.identity && !cx.alg.more_progressed(current, ev.payload)
        }
        DeleteStrategy::Dap | DeleteStrategy::DapRestore => {
            dap_resets(cx, st.verts().dependency(ev.target), ev.source, || current)
        }
    };
    apply_delete(cx, st, ev.target, should_reset);
}

/// Handles a DAP delete row: one delete event from the reset vertex
/// `source` to each target of its out-row in the active graph, in row
/// order (§4.4's generation stream walking the row). Exactly
/// [`process_event`] on each of those events — the same guard, resets,
/// emissions and traced ops — with the event counters booked once for the
/// row. The row carries no payload: DAP's guard reads only the source.
// hot-path
pub(crate) fn process_delete_row<'a>(
    cx: &KernelCtx<'_>,
    st: &mut impl ExecState<'a>,
    source: VertexId,
) {
    debug_assert!(cx.dap_active, "a delete row is a DAP delete wave's");
    let targets = cx.csr.out.neighbor_targets(source);
    let arrivals = targets.len() as u64;
    let stats = st.stats();
    stats.events_processed += arrivals;
    stats.delete_events += arrivals;
    stats.vertex_reads += arrivals;
    for &v in targets {
        let verts = st.verts();
        let resets = dap_resets(cx, verts.dependency(v), Some(source), || verts.value(v));
        apply_delete(cx, st, v, resets);
    }
}

/// The body of a delete event at `v` once its guard has decided `reset`:
/// the reset and the delete wave it sends on, then the traced op.
#[inline(always)]
fn apply_delete<'a>(cx: &KernelCtx<'_>, st: &mut impl ExecState<'a>, v: VertexId, reset: bool) {
    let targets_start = st.trace_targets_start();
    let (generated, edges_read) = if reset {
        let previous = st.verts().value(v);
        // The Leads-To parent stays recorded: the restore step tries it
        // first (DESIGN.md §3.1), and request set-up clears it where the
        // vertex stays reset; Tag and VAP record none.
        st.verts().set_value(v, cx.identity);
        st.stats().vertex_writes += 1;
        st.stats().resets += 1;
        st.impacted(v, previous);
        propagate_deletes(cx, st, v, previous)
    } else {
        (0, 0)
    };
    st.trace_push_op(TraceOp {
        vertex: v,
        kind: OpKind::Delete,
        changed: reset,
        edges_read,
        targets_start,
        targets_len: generated,
    });
}

/// The DAP reset guard (§5.2): a delete event from `source` resets a
/// vertex depending on `dependency` and holding `value()` exactly when the
/// dependency is that source and the value is not the identity. The
/// value is read only when the dependency matches: most of a wave's
/// delete events fail there, and then never touch the values array. The
/// admission pre-check calls a deletion safe exactly when this is false.
#[inline(always)]
pub(crate) fn dap_resets(
    cx: &KernelCtx<'_>,
    dependency: Option<VertexId>,
    source: Option<VertexId>,
    value: impl FnOnce() -> Value,
) -> bool {
    dependency == source && value() != cx.identity
}

/// Propagates delete events downstream from a freshly reset vertex,
/// carrying the contribution computed from its *previous* state (§5.1).
fn propagate_deletes<'a>(
    cx: &KernelCtx<'_>,
    st: &mut impl ExecState<'a>,
    u: VertexId,
    previous: Value,
) -> (u32, u32) {
    let deg = cx.csr.out.degree(u);
    st.stats().edge_reads += deg as u64;
    let generated = match cx.delete_strategy {
        // The identity from `u` over every out-edge: the row goes out whole.
        DeleteStrategy::Tag | DeleteStrategy::Dap | DeleteStrategy::DapRestore => {
            let carry = Carry::Delete { payload: cx.identity, source: u };
            st.emit_row(Row { targets: cx.csr.out.neighbor_targets(u), carry });
            deg
        }
        // The contribution `previous` sent over each edge, edge by edge.
        DeleteStrategy::Vap => {
            let wsum = cx.weight_sum(u);
            let mut generated = 0;
            for e in cx.csr.out.neighbors(u) {
                let ctx = EdgeCtx { weight: e.weight, out_degree: deg, weight_sum: wsum };
                if let Some(payload) = cx.alg.propagate(previous, previous, &ctx) {
                    st.emit(Event::delete(u, e.other, payload));
                    generated += 1;
                }
            }
            generated
        }
    };
    (generated as u32, deg as u32) // cast-ok: counts bounded by num_edges < 2^32, checked at graph construction
}

/// The value-level checks of
/// [`StreamingFlow::validate_converged`](crate::StreamingFlow::validate_converged):
/// the Leads-To forest under DAP (edges of the active graph, exact
/// supports, no cycle), then a selective fixed point or finite
/// accumulative values.
pub(crate) fn validate_converged_values(
    cx: &KernelCtx<'_>,
    values: &[Value],
    dependency: &[Option<VertexId>],
) -> Result<(), String> {
    let csr = cx.csr;
    if cx.dap_active {
        if let Some((v, u)) = dangling_dependency(&csr.out, dependency) {
            return Err(format!(
                "dangling dependency: vertex {v} leads-to {u}, but edge \
                 {u} -> {v} is not in the active graph"
            ));
        }
        for (v, u) in dependency.iter().enumerate().filter_map(|(v, d)| Some((vid(v), (*d)?))) {
            let weight = csr.out.edge_weight(u, v);
            let supply = weight.and_then(|w| supply(cx, values[ix(u)], u, w));
            let value = values[ix(v)];
            if supply.map(f64::to_bits) != Some(value.to_bits()) {
                return Err(format!(
                    "unsupported dependency: vertex {v} holds {value} but its \
                     leads-to {u} supplies {supply:?}"
                ));
            }
        }
        if let Some(v) = leads_to_cycle(dependency) {
            return Err(format!("leads-to cycle through vertex {v}"));
        }
    }
    match cx.kind {
        UpdateKind::Selective => {
            for (u, v, w) in csr.out.iter_edges() {
                if let Some(delta) = supply(cx, values[ix(u)], u, w) {
                    let target = values[ix(v)];
                    if cx.reduce.apply(target, delta) != target {
                        return Err(format!(
                            "not a fixed point: edge {u} -> {v} still improves \
                             {target} with contribution {delta}"
                        ));
                    }
                }
            }
        }
        UpdateKind::Accumulative => {
            if let Some(v) = values.iter().position(|x| !x.is_finite()) {
                return Err(format!("non-finite value {} at vertex {v} after recovery", values[v]));
            }
        }
    }
    Ok(())
}

/// What a selective `u`, holding `value`, sends over its out-edge of
/// `weight` in the active graph (`None`: `propagate` sends nothing).
pub(crate) fn supply(
    cx: &KernelCtx<'_>,
    value: Value,
    u: VertexId,
    weight: Value,
) -> Option<Value> {
    let ctx = EdgeCtx { weight, out_degree: cx.csr.out.degree(u), weight_sum: cx.weight_sum(u) };
    cx.alg.propagate(value, value, &ctx)
}

/// A vertex on a cycle of the Leads-To forest, if it has one. One stamped
/// walk up from every unvisited vertex: a walk that meets its own stamp
/// closed a cycle, and one that meets an earlier walk's stamp joins a
/// chain already known to end at a root, so the scan is O(V).
fn leads_to_cycle(dependency: &[Option<VertexId>]) -> Option<VertexId> {
    let mut stamp = vec![0u32; dependency.len()];
    for start in 0..dependency.len() {
        let walk = vid(start) + 1;
        let mut v = vid(start);
        while stamp[ix(v)] == 0 {
            stamp[ix(v)] = walk;
            match dependency[ix(v)] {
                Some(u) => v = u,
                None => break,
            }
        }
        if stamp[ix(v)] == walk && dependency[ix(v)].is_some() {
            return Some(v);
        }
    }
    None
}

/// The first vertex, in id order, whose recorded Leads-To dependency is
/// not an edge of `graph`, with that dependency: `(vertex, leads_to)`.
pub(crate) fn dangling_dependency(
    graph: &Csr,
    dependency: &[Option<VertexId>],
) -> Option<(VertexId, VertexId)> {
    dependency
        .iter()
        .enumerate()
        .find_map(|(v, dep)| dep.filter(|&u| !graph.has_edge(u, vid(v))).map(|u| (vid(v), u)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetstream_algorithms::{PageRank, Sssp, Sswp};

    // kills jm-6dbecaba (kernel.rs logic-swap in dap_active): DAP needs
    // *both* the Dap strategy and a selective algorithm — PageRank under
    // Dap and Sssp under Tag must each fall back to plain propagation.
    #[test]
    fn dap_requires_both_the_strategy_and_a_selective_algorithm() {
        let csr = CsrPair::new(Csr::from_edges(2, &[(0, 1, 1.0)]));
        let sssp = Sssp::new(0);
        let pr = PageRank::default();
        let active = |alg: &dyn Algorithm, delete_strategy| {
            KernelCtx::new(alg, &csr, delete_strategy).dap_active
        };
        assert!(active(&sssp, DeleteStrategy::Dap));
        assert!(active(&sssp, DeleteStrategy::DapRestore));
        assert!(!active(&sssp, DeleteStrategy::Tag));
        assert!(!active(&pr, DeleteStrategy::Dap));
        assert!(!active(&pr, DeleteStrategy::Tag));
    }

    // The Leads-To fence of `validate_converged`: under DAP every recorded
    // dependency supplies its vertex's value exactly, and the forest has
    // no cycle. SSWP on 0 -> 1, 0 -> 2 and 1 <-> 2: every width is 4.
    #[test]
    fn the_leads_to_fence_reports_unsupported_dependencies_and_cycles() {
        let edges = [(0, 1, 4.0), (0, 2, 4.0), (1, 2, 4.0), (2, 1, 4.0), (2, 3, 6.0)];
        let csr = CsrPair::new(Csr::from_edges(4, &edges));
        let sswp = Sswp::new(0);
        let cx = KernelCtx::new(&sswp, &csr, DeleteStrategy::Dap);
        let check = |values: &[Value], dependency: &[Option<VertexId>]| {
            validate_converged_values(&cx, values, dependency)
        };
        let values = [Value::INFINITY, 4.0, 4.0, 4.0];
        assert_eq!(check(&values, &[None, Some(0), Some(1), Some(2)]), Ok(()));
        // 1 and 2 each supply the other's width exactly, and lead to each
        // other: a 2-cycle with no root.
        let cycle = check(&values, &[None, Some(2), Some(1), Some(2)]).unwrap_err();
        assert!(cycle.contains("cycle"), "{cycle}");
        // 3 leads to 2 over weight 6, which supplies 4, not the 5 it holds
        // (a width no edge into 3 supplies).
        let values = [Value::INFINITY, 4.0, 4.0, 5.0];
        let unsupported = check(&values, &[None, Some(0), Some(0), Some(2)]).unwrap_err();
        assert!(unsupported.contains("unsupported dependency: vertex 3"), "{unsupported}");
        // Tag records no forest, so nothing is fenced.
        let tag = KernelCtx::new(&sswp, &csr, DeleteStrategy::Tag);
        let values = [Value::INFINITY, 4.0, 4.0, 4.0];
        assert_eq!(
            validate_converged_values(&tag, &values, &[None, Some(2), Some(1), None]),
            Ok(())
        );
    }
}
