//! The restore extension of the DAP selective flow
//! ([`DeleteStrategy::DapRestore`](crate::DeleteStrategy::DapRestore);
//! DESIGN.md §3.1), which the paper does not have.
//!
//! Under DAP a deleted Leads-To edge resets its target's whole dependency
//! subtree (§5.2), and Algorithm 4 then re-derives every reset value with
//! request events and a recompute. Where values tie — SSWP's integer
//! widths, CC's shared labels — most of a large subtree ends the batch
//! with the very value it held before. After the version switch,
//! [`Restore::run`] scans each reset vertex once, in reset order: its old
//! parent, then its in-row, each source's value read once and its weight
//! looked up at most once. The first valid source that supplies the
//! vertex's previous value bit for bit hands that value back and becomes
//! its Leads-To parent. Failing that, the scan records the best valid
//! supply and its supplier, and [`Restore::seed`] seeds that one regular
//! event instead of Algorithm 4's request events.
//! The closure covers what reset order misses, a supplier restored after
//! its target was scanned: it walks the out-row of each restored vertex
//! onto the vertices still at the identity, restoring those it supplies
//! exactly and raising the recorded best of the rest.
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
use crate::flow::replay_initializer;
use crate::kernel::{self, KernelCtx};
use crate::stats::RunStats;
use crate::trace::{OpKind, TraceBuilder, TraceOp};

/// [`Restore::slot`] of a vertex the delete wave did not reset, and
/// [`Pull::from`] of a vertex with no supplier.
const NO_RECORD: u32 = u32::MAX;

/// What the scan and the closure found for one reset vertex, in 16 bytes.
#[derive(Clone, Copy, Debug)]
struct Pull {
    /// The best valid supply offered so far, or the identity.
    best: Value,
    /// Its supplier: [`NO_RECORD`] while nothing is offered, and once the
    /// vertex is restored.
    from: VertexId,
    /// The sources the scan read, the old parent included.
    read: u32,
}

/// The values the delete wave reset, and the restore step's scratch, owned
/// by the flow across batches: every buffer grows to its high-water mark
/// once, and `slot` (all [`NO_RECORD`]) and `walk` are empty between
/// steps, so the step allocates nothing in steady state.
#[derive(Debug, Default)]
pub(crate) struct Restore {
    /// The value each vertex of the flow's impacted list held when the
    /// current batch's delete wave reset it, in step with that list.
    pub(crate) previous: Vec<Value>,
    /// The step's finding for each vertex of the impacted list, in step
    /// with it.
    pulls: Vec<Pull>,
    /// While the step runs, `slot[v]` is the index of `v` in the impacted
    /// list, or [`NO_RECORD`].
    slot: Vec<u32>,
    /// Restored vertices, in restore order: the closure walks their
    /// out-rows.
    walk: Vec<VertexId>,
}

impl Restore {
    /// Scans every vertex in `impacted` on the committed graph, restoring
    /// each that a valid source still supplies with its previous value and
    /// recording the best valid supply of the rest, then runs the closure.
    /// Books the reads in `stats` and traces each closure walk and each
    /// restored vertex's scan; [`seed`](Self::seed) traces the other scans
    /// with their seeds.
    pub(crate) fn run(
        &mut self,
        cx: &KernelCtx<'_>,
        impacted: &[VertexId],
        values: &mut [Value],
        dependency: &mut [Option<VertexId>],
        stats: &mut RunStats,
        tracer: &mut TraceBuilder,
    ) {
        let Restore { previous, pulls, slot, walk } = self;
        if slot.len() < values.len() {
            slot.resize(values.len(), NO_RECORD);
        }
        pulls.clear();
        pulls.resize(impacted.len(), Pull { best: cx.identity, from: NO_RECORD, read: 0 });
        let csr = cx.csr;
        for (i, (&v, pull)) in impacted.iter().zip(pulls.iter_mut()).enumerate() {
            slot[ix(v)] = vid(i);
            // The old parent first, then the in-row. An in-row source's
            // edge exists, so its uniform weight is not looked up; the
            // parent's edge may be the deleted one.
            let parent = dependency[ix(v)];
            let in_row = csr.inc.neighbor_targets(v).iter().copied();
            let mut sources = parent.into_iter().chain(in_row.filter(|&x| Some(x) != parent));
            let supplier = sources.find(|&x| {
                pull.read += 1;
                let uniform = cx.edge_op == EdgeOp::Uniform && Some(x) != parent;
                let weight = || if uniform { Some(0.0) } else { csr.out.edge_weight(x, v) };
                offer(cx, pull, previous[i], x, values[ix(x)], weight)
            });
            stats.vertex_reads += u64::from(pull.read);
            stats.edge_reads += u64::from(pull.read);
            if supplier.is_some() {
                values[ix(v)] = previous[i];
                dependency[ix(v)] = supplier;
                pull.from = NO_RECORD;
                stats.vertex_writes += 1;
                walk.push(v);
            }
        }
        // The closure, breadth-first from the scan's restores, while any
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
                let Some(pull) = pulls.get_mut(i) else { continue };
                stats.vertex_reads += 1;
                // A vertex restored already keeps its earlier parent.
                let pending = values[ix(e.other)] == cx.identity;
                if pending && offer(cx, pull, previous[i], u, value_u, || Some(e.weight)) {
                    values[ix(e.other)] = previous[i];
                    dependency[ix(e.other)] = Some(u);
                    pull.from = NO_RECORD;
                    stats.vertex_writes += 1;
                    walk.push(e.other);
                    left -= 1;
                }
            }
            stats.edge_reads += u64::from(examined);
            tracer.push_op(scan_op(OpKind::Apply, u, examined, tracer.targets_start(), 0));
        }
        stats.restored += walk.len() as u64;
        for (&v, pull) in impacted.iter().zip(pulls.iter()) {
            slot[ix(v)] = NO_RECORD;
            if values[ix(v)] != cx.identity {
                let op = scan_op(OpKind::RequestSetup, v, pull.read, tracer.targets_start(), 0);
                tracer.push_op(op);
            }
        }
        walk.clear();
    }

    /// Request set-up by pull, after [`run`](Self::run): for each vertex of
    /// `impacted` still at the identity, in reset order, clears the
    /// Leads-To parent the wave left, seeds its best valid supply through
    /// `seed` as one regular event from the supplier (nothing when no valid
    /// source supplies anything), replays the initializer, and traces its
    /// scan with those seeds.
    ///
    /// It replaces Algorithm 4's request events, which make every
    /// in-neighbour re-send its whole out-row: a valid in-neighbour's value
    /// is the one it held at the last fixed point, so of that row only the
    /// edge into a reset vertex can change anything, and the scan and the
    /// closure offered that edge (DESIGN.md §3.1).
    pub(crate) fn seed(
        &self,
        cx: &KernelCtx<'_>,
        impacted: &[VertexId],
        values: &[Value],
        dependency: &mut [Option<VertexId>],
        tracer: &mut TraceBuilder,
        mut seed: impl FnMut(Event),
    ) {
        for (&x, &Pull { best, from, read }) in impacted.iter().zip(&self.pulls) {
            if values[ix(x)] != cx.identity {
                continue; // restored: `run` traced its scan
            }
            dependency[ix(x)] = None;
            let targets_start = tracer.targets_start();
            let pulled = from != NO_RECORD;
            if pulled {
                seed(Event::regular_from(from, x, best));
                tracer.push_targets(&[x]);
            }
            let replayed = replay_initializer(cx, x, tracer, &mut seed);
            let generated = u32::from(pulled) + u32::from(replayed);
            tracer.push_op(scan_op(OpKind::RequestSetup, x, read, targets_start, generated));
        }
    }
}

/// Offers `x`'s supply, holding `value_x`, over the edge whose weight
/// `weight` looks up (`None`: no such edge) to a reset vertex that held
/// `previous`: true when the supply is `previous` bit for bit. Otherwise a
/// supply that improves `pull`'s best replaces it, and the first best
/// wins a tie. A sender no more progressed than the best so far, one at
/// the identity included, is not looked up: `propagate` never sends more
/// than its sender holds.
fn offer(
    cx: &KernelCtx<'_>,
    pull: &mut Pull,
    previous: Value,
    x: VertexId,
    value_x: Value,
    weight: impl FnOnce() -> Option<Value>,
) -> bool {
    let improves = |best: Value, v: Value| cx.reduce.apply(best, v) != best;
    if !improves(pull.best, value_x) {
        return false;
    }
    let Some(d) = weight().and_then(|w| kernel::supply(cx, value_x, x, w)) else { return false };
    let exact = d.to_bits() == previous.to_bits();
    if !exact && improves(pull.best, d) {
        (pull.best, pull.from) = (d, x);
    }
    exact
}

/// The traced form of a closure walk or a scan, which read `edges_read`
/// edges and seeded `seeded` events since `start`. It counts as changed
/// when it read a row, so the replay charges the row's lines and the
/// write-back, or seeded anything.
fn scan_op(kind: OpKind, vertex: VertexId, edges_read: u32, start: u32, seeded: u32) -> TraceOp {
    let changed = edges_read > 0 || seeded > 0;
    TraceOp { vertex, kind, changed, edges_read, targets_start: start, targets_len: seeded }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DeleteStrategy;
    use jetstream_algorithms::Sssp;
    use jetstream_graph::{Csr, CsrPair};

    const INF: Value = Value::INFINITY;

    /// Runs the step and its seeding over `impacted` (with `previous`, in
    /// step) on the SSSP graph of `edges`, and returns its counters and the
    /// events it seeded.
    fn run(
        edges: &[(VertexId, VertexId, Value)],
        impacted: &[VertexId],
        previous: &[Value],
        values: &mut [Value],
        dependency: &mut [Option<VertexId>],
    ) -> (Restore, RunStats, Vec<Event>) {
        let csr = CsrPair::new(Csr::from_edges(values.len(), edges));
        let sssp = Sssp::new(0);
        let cx = KernelCtx::new(&sssp, &csr, DeleteStrategy::DapRestore);
        let mut restore = Restore { previous: previous.to_vec(), ..Restore::default() };
        let mut stats = RunStats::default();
        let mut tracer = TraceBuilder::default();
        restore.run(&cx, impacted, values, dependency, &mut stats, &mut tracer);
        let mut seeded = Vec::new();
        restore.seed(&cx, impacted, values, dependency, &mut tracer, |ev| seeded.push(ev));
        (restore, stats, seeded)
    }

    /// The sources the scan read for the `i`th impacted vertex.
    fn read(restore: &Restore, i: usize) -> u32 {
        restore.pulls[i].read
    }

    // Vertex 9 held 1.0, and its old parent 7's edge is the deleted one.
    // Its in-row, in order: 1 at the identity; 2 supplies 2; 3 is no more
    // progressed than that; 4 is, but supplies 6 over its heavy edge; 5
    // supplies 1.5; 6 ties 5. Nothing supplies 1.0 exactly, so the scan
    // records 5's 1.5: each skip passes over the source, not ends the
    // scan, and the tie stays with the first best. Kills jm-b257a699
    // (in-row weights taken as uniform: 2 would supply 1.0 over weight 0),
    // jm-7cbf6761 (only senders that cannot improve are looked up),
    // jm-7cbf79b2 (only exact supplies are recorded) and jm-b257ac80
    // (every supply is recorded: the tie goes to 6).
    #[test]
    fn the_scan_records_the_first_best_supply_of_the_valid_sources() {
        let edges = [(1, 9, 1.0), (2, 9, 1.0), (3, 9, 1.0), (4, 9, 5.0), (5, 9, 1.0), (6, 9, 1.0)];
        let mut values = [0.0, INF, 1.0, 3.0, 1.0, 0.5, 0.5, 0.0, INF, INF];
        let mut dependency = [None; 10];
        dependency[9] = Some(7);
        let (restore, stats, seeded) = run(&edges, &[9], &[1.0], &mut values, &mut dependency);
        assert_eq!(seeded, [Event::regular_from(5, 9, 1.5)]);
        assert_eq!(read(&restore, 0), 7);
        assert_eq!((stats.vertex_reads, stats.edge_reads, stats.restored), (7, 7, 0));
        assert_eq!(values[9], INF, "nothing is written to a vertex left to the pull");
        assert_eq!(dependency[9], None, "the seeding clears the old parent");
        // A vertex whose sources are all reset pulls nothing.
        values[2..7].fill(INF);
        dependency[9] = Some(7);
        let (restore, _, seeded) = run(&edges, &[9], &[1.0], &mut values, &mut dependency);
        assert_eq!((read(&restore, 0), seeded), (7, Vec::new()));
    }

    // Reset order scans 1 (old parent 3) before 2, its only supplier, so
    // the scan restores 2 and 3 from their old parent 0 and the closure
    // walks 2's row back onto 1, which 2 now parents. With nothing left at
    // the identity it stops before 3's row.
    // Kills jm-87768ea1 and jm-45c6e0a6 (the closure walks on with nothing
    // pending), jm-b257a62a (it walks past its list), jm-3d895d6c (the
    // scan counts no reads) and jm-3d895a9f (a scan restore books no
    // write).
    #[test]
    fn the_closure_restores_a_vertex_scanned_before_its_supplier_and_stops() {
        let edges = [(0, 2, 1.0), (0, 3, 1.0), (2, 1, 1.0), (3, 4, 1.0)];
        let mut values = [0.0, INF, INF, INF, 2.0];
        let mut dependency = [None, Some(3), Some(0), Some(0), Some(3)];
        let (restore, stats, seeded) =
            run(&edges, &[1, 2, 3], &[2.0, 1.0, 1.0], &mut values, &mut dependency);
        assert_eq!(values, [0.0, 2.0, 1.0, 1.0, 2.0]);
        assert_eq!(dependency, [None, Some(2), Some(0), Some(0), Some(3)]);
        // Scans of two sources, one and one, and one closure edge.
        let counters = (stats.vertex_reads, stats.edge_reads, stats.vertex_writes, stats.restored);
        assert_eq!(counters, (5, 5, 3, 3));
        assert_eq!([0, 1, 2].map(|i| read(&restore, i)), [2, 1, 1]);
        assert!(seeded.is_empty(), "a restored vertex pulls nothing");
    }
}
