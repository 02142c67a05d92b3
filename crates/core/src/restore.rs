//! The restore extension of the DAP selective flow
//! ([`DeleteStrategy::DapRestore`](crate::DeleteStrategy::DapRestore);
//! DESIGN.md §3.1), which the paper does not have.
//!
//! Under DAP a deleted Leads-To edge resets its target's whole dependency
//! subtree (§5.2), and Algorithm 4 then re-derives every reset value with
//! request events and a recompute. Where values tie — SSWP's integer
//! widths, CC's shared labels — most of a large subtree ends the batch
//! with the very value it held before. The step runs on the committed
//! graph, before request set-up, and hands such a vertex its previous
//! value back whenever a valid in-neighbour still supplies that value
//! exactly, recording the supplier as its new Leads-To parent. Only the
//! vertices still at the identity go on to request set-up, and there each
//! [`pull`]s its best valid supply instead of sending Algorithm 4's
//! request events.
//!
//! A *valid* vertex does not hold the identity: it was never reset in
//! this batch (its chain of exact supports to a root is intact, every
//! link an edge of the new graph), or it was restored earlier in this
//! step. So a restored value is achievable on the new graph, can only
//! undershoot the new fixed point, and every restored vertex points at a
//! vertex that was valid before it: the Leads-To forest stays acyclic.

use jetstream_algorithms::{EdgeOp, Value};
use jetstream_graph::{ix, vid, VertexId};

use crate::event::Event;
use crate::kernel::{self, KernelCtx};
use crate::stats::RunStats;
use crate::trace::{OpKind, TraceBuilder, TraceOp};

/// [`Restore::slot`] of a vertex the delete wave did not reset.
const NO_RECORD: u32 = u32::MAX;

/// The values the delete wave reset, and the restore step's scratch, owned
/// by the flow across batches: every buffer grows to its high-water mark
/// once, and `slot` (all [`NO_RECORD`]) and `walk` are empty between
/// steps, so the step allocates nothing in steady state.
#[derive(Debug, Default)]
pub(crate) struct Restore {
    /// The value each vertex of the flow's impacted list held when the
    /// current batch's delete wave reset it, in step with that list.
    pub(crate) previous: Vec<Value>,
    /// While the step runs, `slot[v]` is the index of `v` in the impacted
    /// list, or [`NO_RECORD`].
    slot: Vec<u32>,
    /// Restored vertices, in restore order: the closure walks their
    /// out-rows.
    walk: Vec<VertexId>,
}

impl Restore {
    /// Restores every vertex in `impacted` that a valid in-neighbour of the
    /// committed graph still supplies with its previous value, recording
    /// the supplier as its Leads-To parent and booking the reads in
    /// `stats` and one traced op per attempt and per walk.
    ///
    /// The pass takes the vertices in reset order and tries the old
    /// parent first, then the in-row. A vertex whose only supplier was
    /// restored after its own attempt is reached by the closure, which
    /// walks the out-rows of restored vertices over the vertices still at
    /// the identity.
    pub(crate) fn run(
        &mut self,
        cx: &KernelCtx<'_>,
        impacted: &[VertexId],
        values: &mut [Value],
        dependency: &mut [Option<VertexId>],
        stats: &mut RunStats,
        tracer: &mut TraceBuilder,
    ) {
        let Restore { previous, slot, walk } = self;
        if slot.len() < values.len() {
            slot.resize(values.len(), NO_RECORD);
        }
        for (i, &v) in impacted.iter().enumerate() {
            slot[ix(v)] = vid(i);
        }
        let csr = cx.csr;
        for (&v, &prev) in impacted.iter().zip(previous.iter()) {
            let parent = dependency[ix(v)];
            let mut examined = 0u32;
            let mut test = |x: VertexId| {
                examined += 1;
                stats.vertex_reads += 1;
                stats.edge_reads += 1;
                supplies(cx, values[ix(x)], x, || csr.out.edge_weight(x, v), prev)
            };
            // The old parent first (its edge may be the deleted one), then
            // the in-row.
            let mut in_row = csr.inc.neighbor_targets(v).iter().copied();
            let supplier = parent
                .filter(|&p| test(p))
                .or_else(|| in_row.find(|&x| Some(x) != parent && test(x)));
            let targets_start = tracer.targets_start();
            tracer.push_op(attempt_op(OpKind::RequestSetup, v, examined, targets_start));
            if supplier.is_some() {
                values[ix(v)] = prev;
                dependency[ix(v)] = supplier;
                stats.vertex_writes += 1;
                walk.push(v);
            }
        }
        // The closure, breadth-first from the pass's restores, until no
        // vertex is left at the identity.
        let mut left = impacted.len() - walk.len();
        let mut next = 0;
        while left > 0 && next < walk.len() {
            let u = walk[next];
            next += 1;
            let value_u = values[ix(u)];
            let mut examined = 0u32;
            for e in csr.out.neighbors(u) {
                examined += 1;
                let i = ix(slot[ix(e.other)]);
                let Some(&prev) = previous.get(i) else { continue };
                stats.vertex_reads += 1;
                // A vertex restored already keeps its earlier parent.
                let pending = values[ix(e.other)] == cx.identity;
                if pending && supplies(cx, value_u, u, || Some(e.weight), prev) {
                    values[ix(e.other)] = prev;
                    dependency[ix(e.other)] = Some(u);
                    stats.vertex_writes += 1;
                    walk.push(e.other);
                    left -= 1;
                }
            }
            stats.edge_reads += u64::from(examined);
            let targets_start = tracer.targets_start();
            tracer.push_op(attempt_op(OpKind::Apply, u, examined, targets_start));
        }
        stats.restored += walk.len() as u64;
        for &v in impacted {
            slot[ix(v)] = NO_RECORD;
        }
        walk.clear();
    }
}

/// Request set-up by pull, for a vertex `x` still at the identity after
/// [`Restore::run`]: one read of its in-row on the committed graph, and
/// the best supply of its valid in-neighbours as one regular event from
/// the supplier, or `None` when no valid in-neighbour supplies anything.
/// Books the source values read in `stats`; the caller books the in-row.
///
/// It replaces Algorithm 4's request events, which make every
/// in-neighbour re-send its whole out-row: a valid in-neighbour's value is
/// the one it held at the last fixed point, so of that row only the edge
/// into a reset vertex can change anything, and this is that edge
/// (DESIGN.md §3.1). A source at the identity is skipped, and so is one
/// no more progressed than the best so far: `propagate` never sends more
/// than its sender holds. The first best in in-row order wins a tie.
// hot-path
pub(crate) fn pull(
    cx: &KernelCtx<'_>,
    values: &[Value],
    x: VertexId,
    stats: &mut RunStats,
) -> Option<Event> {
    let sources = cx.csr.inc.neighbor_targets(x);
    stats.vertex_reads += sources.len() as u64;
    let improves = |best: Value, v: Value| cx.reduce.apply(best, v) != best;
    let (mut best, mut from) = (cx.identity, None);
    for &s in sources {
        let value_s = values.get(ix(s)).copied().unwrap_or(cx.identity);
        if value_s == cx.identity {
            continue;
        }
        if !improves(best, value_s) {
            continue;
        }
        // A uniform row's weight is unread: no lookup.
        let weight =
            if cx.edge_op == EdgeOp::Uniform { Some(0.0) } else { cx.csr.out.edge_weight(s, x) };
        let Some(d) = weight.and_then(|w| kernel::supply(cx, value_s, s, w)) else { continue };
        if !improves(best, d) {
            continue;
        }
        (best, from) = (d, Some(s));
    }
    from.map(|s| Event::regular_from(s, x, best))
}

/// Whether `x`, holding `value_x`, supplies `previous` exactly over the
/// edge whose weight `weight` looks up (`None`: no such edge). The
/// progress prefilter comes first and skips the lookup: `x` must be at
/// least as progressed as `previous`, which also rejects an `x` at the
/// identity (`previous` never is the identity, and the identity
/// dominates nothing). Then one `propagate`, compared bit for bit.
fn supplies(
    cx: &KernelCtx<'_>,
    value_x: Value,
    x: VertexId,
    weight: impl FnOnce() -> Option<Value>,
    previous: Value,
) -> bool {
    let progressed = cx.reduce.apply(value_x, previous) == value_x;
    progressed
        && weight()
            .and_then(|w| kernel::supply(cx, value_x, x, w))
            .is_some_and(|d| d.to_bits() == previous.to_bits())
}

/// The traced form of one restore attempt or closure walk that read
/// `edges_read` edges and emitted nothing. It counts as changed when it
/// read a row, so the replay charges the row's lines.
fn attempt_op(kind: OpKind, vertex: VertexId, edges_read: u32, targets_start: u32) -> TraceOp {
    TraceOp { vertex, kind, changed: edges_read > 0, edges_read, targets_start, targets_len: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DeleteStrategy;
    use jetstream_algorithms::Sssp;
    use jetstream_graph::{Csr, CsrPair};

    // Vertex 9's in-row, in order: 1 at the identity; 2 supplies 2; 3 is
    // no more progressed than that; 4 is, but supplies 6 over its heavy
    // edge; 5 supplies 1.5; 6 ties 5. The pull takes 5's 1.5: each skip
    // must pass over the source, not end the scan, and the tie stays with
    // the first best.
    #[test]
    fn a_pull_takes_the_first_best_supply_of_the_valid_in_neighbours() {
        let edges = [(1, 9, 1.0), (2, 9, 1.0), (3, 9, 1.0), (4, 9, 5.0), (5, 9, 1.0), (6, 9, 1.0)];
        let csr = CsrPair::new(Csr::from_edges(10, &edges));
        let sssp = Sssp::new(0);
        let cx = KernelCtx::new(&sssp, &csr, DeleteStrategy::DapRestore);
        assert_eq!(csr.inc.neighbor_targets(9), &[1, 2, 3, 4, 5, 6]);
        let mut values = [Value::INFINITY; 10];
        values[2..7].copy_from_slice(&[1.0, 3.0, 1.0, 0.5, 0.5]);
        let mut stats = RunStats::default();
        assert_eq!(pull(&cx, &values, 9, &mut stats), Some(Event::regular_from(5, 9, 1.5)));
        assert_eq!(stats.vertex_reads, 6);
        // A vertex whose in-neighbours are all reset pulls nothing.
        values[2..7].fill(Value::INFINITY);
        assert_eq!(pull(&cx, &values, 9, &mut stats), None);
    }
}
