//! The restore step of the DAP selective flow (DESIGN.md §3.1, "Restore
//! what the delete wave over-reset").
//!
//! Under DAP a deleted Leads-To edge resets its target's whole dependency
//! subtree (§5.2), and Algorithm 4 then re-derives every reset value with
//! request events and a recompute. Where values tie — SSWP's integer
//! widths, CC's shared labels — most of a large subtree ends the batch
//! with the very value it held before. The step runs on the committed
//! graph, before request set-up, and hands such a vertex its previous
//! value back whenever a valid in-neighbour still supplies that value
//! exactly, recording the supplier as its new Leads-To parent. Only the
//! vertices still at the identity go on to request set-up.
//!
//! A *valid* vertex does not hold the identity: it was never reset in
//! this batch (its chain of exact supports to a root is intact, every
//! link an edge of the new graph), or it was restored earlier in this
//! step. So a restored value is achievable on the new graph, can only
//! undershoot the new fixed point, and every restored vertex points at a
//! vertex that was valid before it: the Leads-To forest stays acyclic.

use jetstream_algorithms::Value;
use jetstream_graph::{ix, vid, VertexId};

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
    /// committed graph still supplies with its previous value, booking
    /// the reads in `stats` and one traced op per attempt and per walk;
    /// the rest lose the Leads-To parent the wave left them.
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
                stats.vertex_writes += 1;
                walk.push(v);
            }
            dependency[ix(v)] = supplier;
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
