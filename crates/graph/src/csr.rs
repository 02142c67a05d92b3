use std::ops::Range;

use crate::dcsr::arena_bound;
use crate::{ix, vid, VertexId, Weight};

/// A single edge as seen when iterating a CSR row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef {
    /// The other endpoint (the target for out-edges, the source for
    /// in-edges).
    pub other: VertexId,
    /// The edge weight.
    pub weight: Weight,
}

/// One row's header: where the row's extent starts in the arena, how many
/// of its slots hold live entries (its sorted prefix), and how many slots
/// it owns. 16 bytes, one per vertex per view.
///
/// A span is minted only by the layout code (`with_rows`, and relocation
/// and the in-row shifts in `dcsr`) and read back only by row lookup
/// ([`Csr::span`]), so the extent it names always lies inside its own
/// arena: `validate` checks exactly that. The two counts are narrowed to
/// `u32`, checked, when a span is minted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RowSpan {
    start: usize,
    len: u32,
    cap: u32,
}

impl RowSpan {
    /// The span of `cap` slots at `start`, `len` of them live.
    #[expect(clippy::expect_used, reason = "invariant: a row owns fewer than 2^32 slots")]
    pub(crate) fn new(start: usize, len: usize, cap: usize) -> Self {
        let narrow =
            |n: usize| u32::try_from(n).expect("invariant: a row owns fewer than 2^32 slots");
        RowSpan { start, len: narrow(len), cap: narrow(cap) }
    }

    /// First arena slot of the row's extent.
    pub(crate) fn start(self) -> usize {
        self.start
    }

    /// Live entries: the row's degree.
    pub(crate) fn len(self) -> usize {
        ix(self.len)
    }

    /// Slots the row owns, live or slack.
    pub(crate) fn cap(self) -> usize {
        ix(self.cap)
    }

    /// The arena slots of the live entries.
    pub(crate) fn live(self) -> Range<usize> {
        self.start..self.start + self.len()
    }

    /// The same extent holding `len` live entries.
    pub(crate) fn with_len(self, len: usize) -> Self {
        RowSpan::new(self.start, len, self.cap())
    }
}

/// The slots of `col` a span's live entries occupy.
pub(crate) fn slots<T>(col: &[T], row: RowSpan) -> &[T] {
    &col[row.live()] // panic-ok: a span lies inside the arena it was read from
}

/// The graph: a Compressed Sparse Row adjacency structure with per-row
/// slack, updated and traversed in place.
///
/// The paper's host keeps the evolving edge list and hands the accelerator
/// a fresh CSR after each batch (§4.7). Here they are one structure — a
/// *gapped* (slotted) CSR that takes the batch in place, so there is
/// nothing to hand over (DESIGN.md §17):
///
/// * one `RowSpan` header per vertex describes its row: the live
///   entries occupy `targets[start .. start + len]` (sorted by target id),
///   and `cap - len` spare slots follow so a small insertion shifts
///   `O(degree(v))` entries instead of `O(E)`.
/// * A row that outgrows its slots is relocated to the arena tail with
///   fresh PMA-style slack; the abandoned extent becomes a tombstoned hole
///   reclaimed by the next compaction (see `dcsr`).
///
/// `W` is what each slot stores beside its target. The graph itself is a
/// `Csr` (`W = Weight`); the in-edge view of a [`CsrPair`] is an
/// [`InEdges`] (`W = ()`), whose weight column is zero-sized: it owns no
/// weight storage at all, and its shifts move 4 bytes a slot, not 12.
/// Both share one row layout and one copy of the row mechanics.
///
/// Readers never observe any of this: `degree`, `neighbors`, `edge_weight`,
/// and `iter_edges` present exactly the dense-CSR contract — ascending
/// neighbor order per row, deterministic iteration — that the kernel's
/// traversal and the differential test matrix rely on. The graph is
/// *simple*: no self-loops, no parallel edges. The validated mutation API
/// (`insert_edge`, `delete_edge`, `check_batch`/`commit`, `apply_batch`)
/// lives in the `dcsr` module.
#[derive(Debug, Default)]
pub struct Csr<W = Weight> {
    pub(crate) rows: Vec<RowSpan>,
    pub(crate) targets: Vec<VertexId>,
    pub(crate) weights: Vec<W>,
    pub(crate) live: usize,
    // Edge writes ever made: the stamp a `CheckedBatch` carries, so a
    // commit can tell the graph has not changed since its check. Excluded
    // from equality.
    pub(crate) version: u64,
    // Reusable validation scratch for `check_batch`: sorted probe slices
    // instead of two per-batch set allocations. Always empty between
    // calls; excluded from equality.
    pub(crate) scratch_deleted: Vec<(VertexId, VertexId)>,
    pub(crate) scratch_pending: Vec<(VertexId, VertexId)>,
    // The row headers `check_batch` gathers before it validates, one per
    // update in batch order. Empty between calls; excluded from equality.
    pub(crate) scratch_rows: Vec<RowSpan>,
}

/// The in-edge view of a [`CsrPair`]: row `v` lists the sources of the
/// edges into `v`, and nothing else. Request events carry the identity,
/// not an edge weight (§3.4), so the view stores no weights.
pub type InEdges = Csr<()>;

/// Two CSRs are equal when they describe the same graph: identical vertex
/// counts and identical per-row live entries. The physical layout (slack
/// distribution, tombstoned holes, arena order) is maintenance state and
/// does not affect equality — an incrementally maintained CSR equals its
/// from-scratch rebuild.
impl<W: PartialEq> PartialEq for Csr<W> {
    fn eq(&self, other: &Self) -> bool {
        if self.rows.len() != other.rows.len() || self.live != other.live {
            return false;
        }
        self.rows.iter().zip(&other.rows).all(|(&a, &b)| {
            slots(&self.targets, a) == slots(&other.targets, b)
                && slots(&self.weights, a) == slots(&other.weights, b)
        })
    }
}

/// A column holding `col`, allocated up to the compaction trigger of
/// `live` edges (or to `col`'s length, if that is more): the room every
/// arena is built with, so the relocations between compactions grow it in
/// place instead of reallocating (and copying) it (DESIGN.md §17.2).
fn arena<T: Copy>(live: usize, col: &[T]) -> Vec<T> {
    let mut arena = Vec::with_capacity(arena_bound(live).max(col.len()));
    arena.extend_from_slice(col);
    arena
}

/// A clone copies the live layout (holes and slack included) into an
/// arena with the room `with_rows` gives a fresh one: an engine
/// mounted on a clone relocates rows without reallocating its arena.
impl<W: Copy + Default> Clone for Csr<W> {
    fn clone(&self) -> Self {
        Csr {
            rows: self.rows.clone(),
            targets: arena(self.live, &self.targets),
            weights: arena(self.live, &self.weights),
            live: self.live,
            version: self.version,
            ..Csr::default()
        }
    }
}

impl<W: Copy + Default> Csr<W> {
    /// The one row layout every rebuilt arena has (DESIGN.md §17.1): rows
    /// back to back in vertex order, row `v` holding `row_cap(lens[v])`
    /// slots — its live entries first, its slack zero-filled. Every slot
    /// starts zeroed; callers write each row's `lens[v]` live entries.
    /// The arenas are allocated to the compaction trigger, so no relocation
    /// between compactions reallocates (and copies) a whole arena.
    pub(crate) fn with_rows(lens: Vec<usize>) -> Self {
        let mut rows = Vec::with_capacity(lens.len());
        let mut end = 0;
        for &len in &lens {
            rows.push(RowSpan::new(end, len, row_cap(len)));
            end += row_cap(len);
        }
        let live = lens.iter().sum();
        let (mut targets, mut weights) = (arena(live, &[]), arena(live, &[]));
        targets.resize(end, 0);
        weights.resize(end, W::default());
        Csr { rows, live, targets, weights, ..Csr::default() }
    }

    /// Row `v`'s header — the one place a row is looked up.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub(crate) fn span(&self, v: VertexId) -> RowSpan {
        self.rows[ix(v)] // panic-ok: documented contract: panics if v is out of range; engines only pass construction-checked ids
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.rows.len()
    }

    /// Number of live directed edges (tombstoned slots excluded).
    pub fn num_edges(&self) -> usize {
        self.live
    }

    /// Physical arena slots, live or not — `arena_slots() - num_edges()`
    /// is the dead + slack space the compaction policy bounds (DESIGN.md
    /// §17).
    pub fn arena_slots(&self) -> usize {
        self.targets.len()
    }

    /// The number of entries in row `v`: its out-degree in a `Csr`, its
    /// in-degree in an [`InEdges`] view.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: VertexId) -> usize {
        self.span(v).len()
    }

    /// Row `v`'s entries in ascending order: the targets of `v`'s edges in
    /// a `Csr`, the sources of the edges into `v` in an [`InEdges`] view.
    /// The cheap traversal for weight-oblivious propagation.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbor_targets(&self, v: VertexId) -> &[VertexId] {
        slots(&self.targets, self.span(v))
    }

    /// Checks the CSR's structural invariants, returning a description of
    /// the first violation found:
    ///
    /// * the weight column has one entry per target slot (trivially, for
    ///   a zero-sized column);
    /// * every row's live length fits its capacity and its extent fits the
    ///   arena;
    /// * row extents do not overlap (relocation must abandon, never alias);
    /// * the live-edge count equals the sum of row lengths;
    /// * every live target id is in range;
    /// * every row is sorted by target id (the deterministic-iteration
    ///   guarantee lookups and the simulator's address streams rely on).
    ///
    /// Always compiled; callers wire it into debug assertions under the
    /// `strict-invariants` feature.
    pub fn validate(&self) -> Result<(), String> {
        if self.targets.len() != self.weights.len() {
            return Err(format!(
                "{} targets but {} weights",
                self.targets.len(),
                self.weights.len()
            ));
        }
        let mut entries = 0usize;
        for (v, row) in self.rows.iter().enumerate() {
            if row.len() > row.cap() {
                return Err(format!(
                    "row {v} holds {} live entries in {} slots",
                    row.len(),
                    row.cap()
                ));
            }
            if row.start() + row.cap() > self.targets.len() {
                return Err(format!(
                    "row {v} extent [{}, {}) exceeds the arena ({} slots)",
                    row.start(),
                    row.start() + row.cap(),
                    self.targets.len()
                ));
            }
            entries += row.len();
        }
        if entries != self.live {
            return Err(format!("live counter {} but rows sum to {entries}", self.live));
        }
        // Occupied extents must be pairwise disjoint: sort them by start
        // and check adjacent pairs.
        let mut extents: Vec<(usize, usize)> =
            self.rows.iter().filter(|r| r.cap() > 0).map(|r| (r.start(), r.cap())).collect();
        extents.sort_unstable();
        if let Some(w) = extents.windows(2).find(|w| w[0].0 + w[0].1 > w[1].0) {
            return Err(format!(
                "row extents overlap: [{}, {}) and [{}, ..)",
                w[0].0,
                w[0].0 + w[0].1,
                w[1].0
            ));
        }
        let nv = self.rows.len() as u64;
        for (v, &span) in self.rows.iter().enumerate() {
            let row = slots(&self.targets, span);
            if let Some(i) = row.iter().position(|&t| t as u64 >= nv) {
                return Err(format!("target {} in row {v} out of range (n = {nv})", row[i]));
            }
            if !row.is_sorted() {
                return Err(format!("row of vertex {v} is not sorted by target"));
            }
        }
        Ok(())
    }
}

impl Csr {
    /// Creates a graph with `num_vertices` vertices and no edges.
    pub fn new(num_vertices: usize) -> Self {
        Csr::with_rows(vec![0; num_vertices])
    }

    /// Builds a graph from an unsorted edge list, in the layout compaction
    /// leaves. Raw synthetic edge streams are noisy, so the list is
    /// reduced to a simple graph: of several edges with the same
    /// `(source, target)` the first wins, and self-loops and edges with an
    /// endpoint `>= num_vertices` are skipped — the graph inserting the
    /// list edge by edge and compacting would leave.
    ///
    /// Built in bulk, never an edge at a time: one counting pass sizes
    /// each source row's bucket, a second scatters the kept edges into
    /// their buckets in arrival order, and each bucket is stable-sorted by
    /// target and cut to the first entry of every pair before it is copied
    /// into its row. `O(E + Σ d log d)` over the row degrees `d`.
    pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId, Weight)]) -> Self {
        let kept = || {
            edges
                .iter()
                .filter(|&&(u, v, _)| u != v && ix(u) < num_vertices && ix(v) < num_vertices)
        };
        // Bucket sizes, then each bucket's start, advanced by the scatter.
        let mut entries = vec![0usize; num_vertices];
        for &(u, _, _) in kept() {
            entries[ix(u)] += 1;
        }
        let mut cursor: Vec<usize> = entries
            .iter()
            .scan(0, |end, &len| {
                let start = *end;
                *end += len;
                Some(start)
            })
            .collect();
        let mut buckets = vec![(0, 0.0); entries.iter().sum()];
        for &(u, v, w) in kept() {
            let at = &mut cursor[ix(u)];
            buckets[*at] = (v, w);
            *at += 1;
        }
        // Stable, so each run of one target starts with its first arrival.
        let same_target = |a: &(VertexId, Weight), b: &(VertexId, Weight)| a.0 == b.0;
        let mut lens = Vec::with_capacity(num_vertices);
        let mut rest = buckets.as_mut_slice();
        for &len in &entries {
            let (row, tail) = rest.split_at_mut(len);
            row.sort_by_key(|&(v, _)| v);
            lens.push(row.chunk_by(same_target).count());
            rest = tail;
        }
        let mut g = Csr::with_rows(lens);
        let mut rest = buckets.as_slice();
        for (&len, row) in entries.iter().zip(&g.rows) {
            let (bucket, tail) = rest.split_at(len);
            let firsts = bucket.chunk_by(same_target).filter_map(<[_]>::first);
            let at = row.start();
            let slots = g.targets[at..].iter_mut().zip(&mut g.weights[at..]);
            for ((t, w), &(v, weight)) in slots.zip(firsts) {
                (*t, *w) = (v, weight);
            }
            rest = tail;
        }
        g
    }

    /// The weights of `v`'s edges, in the order of
    /// [`neighbor_targets`](Csr::neighbor_targets) — the other half of the
    /// row for weight-dependent propagation.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn row_weights(&self, v: VertexId) -> &[Weight] {
        slots(&self.weights, self.span(v))
    }

    /// Iterates over the edges of vertex `v` in ascending target order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = EdgeRef> + '_ {
        let row = self.span(v);
        slots(&self.targets, row)
            .iter()
            .zip(slots(&self.weights, row))
            .map(|(&other, &weight)| EdgeRef { other, weight })
    }

    /// Returns the weight of edge `u -> v`, or `None` if absent.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let row = *self.rows.get(ix(u))?;
        let i = slots(&self.targets, row).binary_search(&v).ok()?;
        slots(&self.weights, row).get(i).copied()
    }

    /// True if the edge `u -> v` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Iterates all edges as `(source, target, weight)` triples.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        (0..self.num_vertices())
            .flat_map(move |u| self.neighbors(vid(u)).map(move |e| (vid(u), e.other, e.weight)))
    }

    /// Builds the transposed graph: a weighted CSR where `neighbors(v)`
    /// yields the *sources* of edges pointing at `v`, each with its edge's
    /// weight — for the readers that pull weighted in-edges (the software
    /// baselines, the oracles). A [`CsrPair`] keeps the weightless
    /// [`InEdges`] instead.
    pub fn transpose(&self) -> Csr {
        self.transposed(|w| w)
    }

    /// The transpose with `keep(w)` stored beside each in-entry. A counting
    /// sort on the target, straight from the rows: sources are visited in
    /// ascending order, so every in-row comes out sorted without a
    /// comparison.
    fn transposed<V: Copy + Default>(&self, keep: impl Fn(Weight) -> V) -> Csr<V> {
        let mut lens = vec![0usize; self.num_vertices()];
        for &v in self.rows.iter().flat_map(|&row| slots(&self.targets, row)) {
            lens[ix(v)] += 1;
        }
        let mut t = Csr::with_rows(lens);
        let mut cursor: Vec<usize> = t.rows.iter().map(|r| r.start()).collect();
        for (u, &row) in self.rows.iter().enumerate() {
            for (&v, &w) in slots(&self.targets, row).iter().zip(slots(&self.weights, row)) {
                let at = &mut cursor[ix(v)];
                (t.targets[*at], t.weights[*at]) = (vid(u), keep(w));
                *at += 1;
            }
        }
        t
    }

    /// A copy of the graph in the layout compaction leaves: the same rows,
    /// no holes.
    pub fn snapshot(&self) -> Csr {
        let mut copy = self.compacted();
        copy.version = self.version;
        copy
    }

    /// Compacted copies of the graph and its transpose.
    pub fn snapshot_pair(&self) -> CsrPair {
        CsrPair::new(self.snapshot())
    }
}

/// Slots a rebuilt arena gives a row of `len` live edges: a quarter again
/// as slack, so rows that grow after a compaction mostly grow in place
/// (GPMA's proportional gaps) while the arena stays within `1.25 · live`.
pub(crate) fn row_cap(len: usize) -> usize {
    len + len / 4
}

/// The graph and its in-edges, kept at the same version.
///
/// JetStream reads outgoing edges during propagation and incoming edges
/// only when issuing *request* events in the re-approximation phase
/// (§3.4), so both directions are kept (§4.7) — the in-edges as a
/// weightless [`InEdges`] view, since a request carries the identity, not
/// an edge weight. [`CsrPair::apply_batch`] updates both together, in
/// place.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrPair {
    /// Outgoing-edge CSR: the graph itself.
    pub out: Csr,
    /// Incoming-edge view: row `v` holds the sources of `out`'s edges
    /// into `v`.
    pub inc: InEdges,
}

impl CsrPair {
    /// Builds both directions from an out-edge CSR; the in-edge view is
    /// transposed straight from its rows, with no weight column.
    pub fn new(out: Csr) -> Self {
        let inc = out.transposed(|_| ());
        CsrPair { out, inc }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.out.num_edges()
    }

    /// Checks both views with [`Csr::validate`] (for `out`, that includes
    /// a weight for every target slot), that no live `out` weight is NaN,
    /// and that the views describe the same edge set: every `u -> v`
    /// out-edge must appear as `u` in in-row `v`, and vice versa.
    pub fn validate(&self) -> Result<(), String> {
        self.out.validate().map_err(|e| format!("out-CSR: {e}"))?;
        self.inc.validate().map_err(|e| format!("in-CSR: {e}"))?;
        if self.out.num_vertices() != self.inc.num_vertices() {
            return Err(format!(
                "vertex counts differ: out {} vs in {}",
                self.out.num_vertices(),
                self.inc.num_vertices()
            ));
        }
        if let Some((u, v, _)) = self.out.iter_edges().find(|e| e.2.is_nan()) {
            return Err(format!("out-CSR: the weight of {u} -> {v} is NaN"));
        }
        fn pairs<W: Copy + Default>(g: &Csr<W>) -> Vec<(VertexId, VertexId)> {
            (0..g.num_vertices())
                .flat_map(|a| g.neighbor_targets(vid(a)).iter().map(move |&b| (vid(a), b)))
                .collect()
        }
        let forward = pairs(&self.out);
        let mut backward: Vec<_> = pairs(&self.inc).into_iter().map(|(v, u)| (u, v)).collect();
        backward.sort_unstable();
        if forward != backward {
            let mismatch = forward
                .iter()
                .zip(backward.iter())
                .find(|(f, b)| f != b)
                .map(|(f, b)| format!("out has {f:?} where in implies {b:?}"))
                .unwrap_or_else(|| {
                    format!("edge counts differ: out {} vs in {}", forward.len(), backward.len())
                });
            return Err(format!("out/in asymmetry: {mismatch}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> 1 (1.0), 0 -> 2 (2.0), 1 -> 3 (3.0), 2 -> 3 (4.0)
        Csr::from_edges(4, &[(0, 1, 1.0), (0, 2, 2.0), (1, 3, 3.0), (2, 3, 4.0)])
    }

    #[test]
    fn construction_counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn neighbors_sorted_by_target() {
        let g = Csr::from_edges(3, &[(0, 2, 1.0), (0, 1, 5.0)]);
        let ns: Vec<_> = g.neighbors(0).map(|e| e.other).collect();
        assert_eq!(ns, vec![1, 2]);
    }

    #[test]
    fn edge_weight_lookup() {
        let g = diamond();
        assert_eq!(g.edge_weight(0, 2), Some(2.0));
        assert_eq!(g.edge_weight(2, 0), None);
        assert!(g.has_edge(1, 3));
        assert!(!g.has_edge(3, 1));
    }

    #[test]
    fn transpose_flips_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.num_edges(), 4);
        let ins: Vec<_> = t.neighbors(3).map(|e| e.other).collect();
        assert_eq!(ins, vec![1, 2]);
        assert_eq!(t.edge_weight(3, 2), Some(4.0));
    }

    #[test]
    fn transpose_twice_is_identity() {
        let g = diamond();
        assert_eq!(g.transpose().transpose(), g);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::new(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.neighbors(4).count(), 0);
    }

    #[test]
    fn iter_edges_roundtrip() {
        let edges = vec![(0, 1, 1.0), (0, 2, 2.0), (1, 3, 3.0), (2, 3, 4.0)];
        let g = Csr::from_edges(4, &edges);
        let collected: Vec<_> = g.iter_edges().collect();
        assert_eq!(collected, edges);
    }

    #[test]
    fn isolated_trailing_vertices() {
        let g = Csr::from_edges(10, &[(0, 1, 1.0)]);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn from_edges_builds_a_simple_graph() {
        // The first of several edges on a pair wins, wherever the rest sit;
        // self-loops and out-of-range endpoints are skipped.
        let g = Csr::from_edges(
            3,
            &[(0, 2, 5.0), (0, 1, 1.0), (2, 2, 3.0), (0, 1, 2.0), (0, 5, 1.0), (7, 1, 1.0)],
        );
        assert_eq!(g.iter_edges().collect::<Vec<_>>(), vec![(0, 1, 1.0), (0, 2, 5.0)]);
        assert_eq!(g.arena_slots(), 2, "a row under four edges gets no slack");
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn snapshot_is_a_compacted_equal_copy() {
        let mut g = Csr::new(10);
        for v in (1..10).rev() {
            g.insert_edge(0, v, f64::from(v)).expect("insert of a fresh in-range edge succeeds");
        }
        g.insert_edge(2, 3, 4.0).expect("insert of a fresh in-range edge succeeds");
        assert!(g.arena_slots() > 12, "grown edge by edge, the arena has holes");
        let copy = g.snapshot();
        assert_eq!(copy, g);
        // Row 0 (9 edges) gets 9 / 4 = 2 slots of slack, row 2 (1 edge) none.
        assert_eq!((copy.rows[0].start(), copy.rows[0].cap()), (0, 11));
        assert_eq!((copy.rows[2].start(), copy.rows[2].cap()), (11, 1));
        assert_eq!(copy.arena_slots(), 12);
        assert_eq!(copy.validate(), Ok(()));
        assert_eq!(g.snapshot_pair(), CsrPair::new(g));
    }

    // Both columns of a clone, of a `Csr` and of an `InEdges` alike, are
    // allocated up to the compaction trigger, as a fresh arena is: an
    // engine mounted on the clone relocates rows without reallocating.
    // The clone copies the layout itself, holes and slack included.
    #[test]
    fn a_clone_keeps_the_arena_room() {
        fn assert_room<W: Copy + Default>(g: &Csr<W>) {
            let copy = g.clone();
            let room = arena_bound(g.num_edges());
            assert!(copy.targets.capacity() >= room, "{} target slots", copy.targets.capacity());
            assert!(copy.weights.capacity() >= room, "{} weight slots", copy.weights.capacity());
            assert_eq!((&copy.rows, &copy.targets), (&g.rows, &g.targets));
        }
        let mut pair = CsrPair::new(crate::gen::erdos_renyi(200, 1200, 7));
        assert_room(&pair.out);
        assert_room(&pair.inc);
        let mut batch = crate::UpdateBatch::new();
        for (u, v) in (0..50).map(|u| (u, 199 - u)).filter(|&(u, v)| !pair.out.has_edge(u, v)) {
            batch.insert(u, v, 1.0);
        }
        pair.apply_batch(&batch).expect("fresh inserts apply");
        assert_room(&pair.out);
        assert_room(&pair.inc);
    }

    #[test]
    fn csr_pair_directions_agree() {
        let pair = CsrPair::new(diamond());
        assert_eq!(pair.num_vertices(), 4);
        assert_eq!(pair.num_edges(), 4);
        for (u, v, _) in pair.out.iter_edges() {
            assert!(
                pair.inc.neighbor_targets(v).contains(&u),
                "{u} -> {v} missing from in-row {v}"
            );
        }
        assert_eq!(pair.inc.neighbor_targets(3), [1, 2]);
        assert_eq!(pair.validate(), Ok(()));
    }

    #[test]
    fn equality_ignores_physical_layout() {
        // Same rows, different arena: a padded layout equals the dense one.
        let dense = diamond();
        let mut padded = dense.clone();
        // Relocate row 0 to the tail with slack, leaving a tombstoned hole.
        let row0: Vec<_> = padded.neighbor_targets(0).to_vec();
        let w0: Vec<_> = padded.row_weights(0).to_vec();
        let new_start = padded.targets.len();
        padded.targets.extend_from_slice(&row0);
        padded.weights.extend_from_slice(&w0);
        padded.targets.extend_from_slice(&[0, 0]); // slack slots
        padded.weights.extend_from_slice(&[0.0, 0.0]);
        padded.rows[0] = RowSpan::new(new_start, row0.len(), row0.len() + 2);
        assert_eq!(padded.validate(), Ok(()));
        assert_eq!(padded, dense);
        assert_ne!(padded.arena_slots(), dense.arena_slots());
    }

    #[test]
    fn validate_rejects_overlapping_extents() {
        let mut g = Csr::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        // Row 0's extent now covers row 1's slot.
        g.rows[0] = RowSpan::new(g.rows[0].start(), g.rows[0].len(), 2);
        let err = g.validate().expect_err("overlapping extents must be rejected");
        assert!(err.contains("overlap"));
    }

    // The in-edge view must never carry a weight column again: it holds
    // one `VertexId` per arena slot and nothing beside it, also after
    // relocations and a compaction, and each row header fits 16 bytes.
    #[test]
    fn the_in_view_holds_one_vertex_id_per_slot() {
        fn slot_bytes<W>(g: &Csr<W>) -> usize {
            std::mem::size_of_val(g.targets.as_slice())
                + std::mem::size_of_val(g.weights.as_slice())
        }
        assert!(std::mem::size_of::<RowSpan>() <= 16);
        let mut pair = CsrPair::new(crate::gen::erdos_renyi(200, 1200, 7));
        let check = |pair: &CsrPair| {
            let (inc, out) = (&pair.inc, &pair.out);
            assert_eq!(slot_bytes(inc), inc.arena_slots() * std::mem::size_of::<VertexId>());
            assert_eq!(inc.weights.capacity() * std::mem::size_of_val(&inc.weights[..]), 0);
            let slot = std::mem::size_of::<VertexId>() + std::mem::size_of::<Weight>();
            assert_eq!(slot_bytes(out), out.arena_slots() * slot);
            assert_eq!(inc.rows.len(), pair.num_vertices());
        };
        check(&pair);
        // Grow rows past their slack, then delete every other edge.
        let mut batch = crate::UpdateBatch::new();
        for (u, v) in (0..50).map(|u| (u, 199 - u)).filter(|&(u, v)| !pair.out.has_edge(u, v)) {
            batch.insert(u, v, 1.0);
        }
        for (u, v, _) in pair.out.iter_edges().step_by(2) {
            batch.delete(u, v);
        }
        let before = pair.inc.arena_slots();
        pair.apply_batch(&batch).expect("fresh inserts and live deletes apply");
        assert_ne!(pair.inc.arena_slots(), before, "the batch moved the in-view arena");
        check(&pair);
    }
}
