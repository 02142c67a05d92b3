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

/// The graph: a Compressed Sparse Row adjacency structure with per-row
/// slack, updated and traversed in place.
///
/// The paper's host keeps the evolving edge list and hands the accelerator
/// a fresh CSR after each batch (§4.7). Here they are one structure — a
/// *gapped* (slotted) CSR that takes the batch in place, so there is
/// nothing to hand over (DESIGN.md §17):
///
/// * `starts[v]` / `lens[v]` / `caps[v]` describe vertex `v`'s row: the
///   live entries occupy `targets[starts[v] .. starts[v] + lens[v]]`
///   (sorted by target id), and `caps[v] - lens[v]` spare slots follow so
///   a small insertion shifts `O(degree(v))` entries instead of `O(E)`.
/// * A row that outgrows its slots is relocated to the arena tail with
///   fresh PMA-style slack; the abandoned extent becomes a tombstoned hole
///   reclaimed by the next compaction (see `dcsr`).
///
/// Readers never observe any of this: `degree`, `neighbors`, `edge_weight`,
/// and `iter_edges` present exactly the dense-CSR contract — ascending
/// neighbor order per row, deterministic iteration — that the kernel's
/// traversal and the differential test matrix rely on. The graph is
/// *simple*: no self-loops, no parallel edges. The validated mutation API
/// (`insert_edge`, `delete_edge`, `check_batch`/`commit`, `apply_batch`)
/// lives in the `dcsr` module.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    pub(crate) starts: Vec<usize>,
    pub(crate) lens: Vec<usize>,
    pub(crate) caps: Vec<usize>,
    pub(crate) targets: Vec<VertexId>,
    pub(crate) weights: Vec<Weight>,
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
}

/// Two CSRs are equal when they describe the same graph: identical vertex
/// counts and identical per-row live edges. The physical layout (slack
/// distribution, tombstoned holes, arena order) is maintenance state and
/// does not affect equality — an incrementally maintained CSR equals its
/// from-scratch rebuild.
impl PartialEq for Csr {
    fn eq(&self, other: &Self) -> bool {
        if self.num_vertices() != other.num_vertices() || self.live != other.live {
            return false;
        }
        (0..self.num_vertices()).all(|v| {
            let v = vid(v);
            self.neighbor_targets(v) == other.neighbor_targets(v)
                && self.row_weights(v) == other.row_weights(v)
        })
    }
}

impl Csr {
    /// Creates a graph with `num_vertices` vertices and no edges.
    pub fn new(num_vertices: usize) -> Self {
        Csr::with_rows(vec![0; num_vertices])
    }

    /// The one row layout every rebuilt arena has (DESIGN.md §17.1): rows
    /// back to back in vertex order, row `v` holding `row_cap(lens[v])`
    /// slots — its live entries first, its slack zero-filled. Every slot
    /// starts zeroed; callers write each row's `lens[v]` live entries.
    /// The arenas are allocated to the compaction trigger, so no relocation
    /// between compactions reallocates (and copies) a whole arena.
    pub(crate) fn with_rows(lens: Vec<usize>) -> Self {
        let mut starts = Vec::with_capacity(lens.len());
        let mut caps = Vec::with_capacity(lens.len());
        let mut end = 0;
        for &len in &lens {
            starts.push(end);
            caps.push(row_cap(len));
            end += row_cap(len);
        }
        let live = lens.iter().sum();
        let room = arena_bound(live);
        let (mut targets, mut weights) = (Vec::with_capacity(room), Vec::with_capacity(room));
        targets.resize(end, 0);
        weights.resize(end, 0.0);
        Csr { starts, caps, live, lens, targets, weights, ..Csr::default() }
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
        for (&len, &at) in entries.iter().zip(&g.starts) {
            let (row, tail) = rest.split_at(len);
            let firsts = row.chunk_by(same_target).filter_map(<[_]>::first);
            let slots = g.targets[at..].iter_mut().zip(&mut g.weights[at..]);
            for ((t, w), &(v, weight)) in slots.zip(firsts) {
                (*t, *w) = (v, weight);
            }
            rest = tail;
        }
        g
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.starts.len()
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

    /// The weights of `v`'s edges, in the order of
    /// [`neighbor_targets`](Csr::neighbor_targets) — the other half of the
    /// row for weight-dependent propagation.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn row_weights(&self, v: VertexId) -> &[Weight] {
        let v = ix(v);
        let lo = self.starts[v]; // panic-ok: documented contract: panics if v is out of range; engines only pass construction-checked ids
        &self.weights[lo..lo + self.lens[v]]
    }

    /// Out-degree of `v` (or in-degree, if this is an in-edge CSR).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: VertexId) -> usize {
        // panic-ok: documented contract: panics if v is out of range; engines only pass construction-checked ids
        self.lens[ix(v)]
    }

    /// The targets of `v`'s edges in ascending order, without weights —
    /// the cheap traversal for weight-oblivious propagation.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbor_targets(&self, v: VertexId) -> &[VertexId] {
        let v = ix(v);
        let lo = self.starts[v]; // panic-ok: documented contract: panics if v is out of range; engines only pass construction-checked ids
        &self.targets[lo..lo + self.lens[v]]
    }

    /// Iterates over the edges of vertex `v` in ascending target order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = EdgeRef> + '_ {
        self.neighbor_targets(v)
            .iter()
            .zip(self.row_weights(v).iter())
            .map(|(&other, &weight)| EdgeRef { other, weight })
    }

    /// Returns the weight of edge `u -> v`, or `None` if absent.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let ui = ix(u);
        if ui >= self.starts.len() {
            return None;
        }
        let row = self.neighbor_targets(u);
        // panic-ok: i is a binary_search hit in row_targets, and row_weights spans the same extent
        row.binary_search(&v).ok().map(|i| self.row_weights(u)[i])
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

    /// Checks the CSR's structural invariants, returning a description of
    /// the first violation found:
    ///
    /// * descriptor arrays (`starts`/`lens`/`caps`) agree on the vertex
    ///   count, and target and weight arenas have the same length;
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
        let n = self.starts.len();
        if self.lens.len() != n || self.caps.len() != n {
            return Err(format!(
                "descriptor lengths disagree: {} starts, {} lens, {} caps",
                n,
                self.lens.len(),
                self.caps.len()
            ));
        }
        if self.targets.len() != self.weights.len() {
            return Err(format!(
                "{} targets but {} weights",
                self.targets.len(),
                self.weights.len()
            ));
        }
        let mut live = 0usize;
        for v in 0..n {
            if self.lens[v] > self.caps[v] {
                return Err(format!(
                    "row {v} holds {} live entries in {} slots",
                    self.lens[v], self.caps[v]
                ));
            }
            if self.starts[v] + self.caps[v] > self.targets.len() {
                return Err(format!(
                    "row {v} extent [{}, {}) exceeds the arena ({} slots)",
                    self.starts[v],
                    self.starts[v] + self.caps[v],
                    self.targets.len()
                ));
            }
            live += self.lens[v];
        }
        if live != self.live {
            return Err(format!("live counter {} but rows sum to {live}", self.live));
        }
        // Occupied extents must be pairwise disjoint: sort them by start
        // and check adjacent pairs.
        let mut extents: Vec<(usize, usize)> =
            (0..n).filter(|&v| self.caps[v] > 0).map(|v| (self.starts[v], self.caps[v])).collect();
        extents.sort_unstable();
        if let Some(w) = extents.windows(2).find(|w| w[0].0 + w[0].1 > w[1].0) {
            return Err(format!(
                "row extents overlap: [{}, {}) and [{}, ..)",
                w[0].0,
                w[0].0 + w[0].1,
                w[1].0
            ));
        }
        let nv = n as u64;
        for v in 0..n {
            let row = self.neighbor_targets(vid(v));
            if let Some(i) = row.iter().position(|&t| t as u64 >= nv) {
                return Err(format!("target {} in row {v} out of range (n = {nv})", row[i]));
            }
            if !row.is_sorted() {
                return Err(format!("row of vertex {v} is not sorted by target"));
            }
        }
        Ok(())
    }

    /// Builds the transposed graph: an in-edge CSR where `neighbors(v)`
    /// yields the *sources* of edges pointing at `v`.
    ///
    /// A counting sort on the target, straight from the rows: sources are
    /// visited in ascending order, so every in-row comes out sorted
    /// without a comparison.
    pub fn transpose(&self) -> Csr {
        let mut lens = vec![0usize; self.num_vertices()];
        for u in 0..self.num_vertices() {
            for &v in self.neighbor_targets(vid(u)) {
                lens[ix(v)] += 1;
            }
        }
        let mut t = Csr::with_rows(lens);
        let mut cursor = t.starts.clone();
        for u in 0..self.num_vertices() {
            let u = vid(u);
            for (&v, &w) in self.neighbor_targets(u).iter().zip(self.row_weights(u)) {
                let at = &mut cursor[ix(v)];
                (t.targets[*at], t.weights[*at]) = (u, w);
                *at += 1;
            }
        }
        t
    }

    /// A copy of the graph in the layout compaction leaves: the same rows,
    /// no holes.
    pub fn snapshot(&self) -> Csr {
        let mut copy = self.clone();
        copy.compact();
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

/// The graph and its transpose, kept at the same version.
///
/// JetStream reads outgoing edges during propagation and incoming edges when
/// issuing *request* events in the re-approximation phase (§3.4), so both
/// directions are kept (§4.7); [`CsrPair::apply_batch`] updates them
/// together, in place.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrPair {
    /// Outgoing-edge CSR: the graph itself.
    pub out: Csr,
    /// Incoming-edge CSR (the transpose of `out`).
    pub inc: Csr,
}

impl CsrPair {
    /// Builds both directions from an out-edge CSR.
    pub fn new(out: Csr) -> Self {
        let inc = out.transpose();
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

    /// Checks both directions with [`Csr::validate`] and verifies they
    /// describe the same edge multiset: every `u -> v` out-edge must appear
    /// as a `v <- u` in-edge with the same weight, and vice versa.
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
        let key = |a: &(VertexId, VertexId, Weight), b: &(VertexId, VertexId, Weight)| {
            (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2))
        };
        let mut forward: Vec<_> = self.out.iter_edges().collect();
        let mut backward: Vec<_> = self.inc.iter_edges().map(|(v, u, w)| (u, v, w)).collect();
        forward.sort_by(key);
        backward.sort_by(key);
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
        assert_eq!((copy.starts[0], copy.caps[0]), (0, 11));
        assert_eq!((copy.starts[2], copy.caps[2]), (11, 1));
        assert_eq!(copy.arena_slots(), 12);
        assert_eq!(copy.validate(), Ok(()));
        assert_eq!(g.snapshot_pair(), CsrPair::new(g));
    }

    #[test]
    fn csr_pair_directions_agree() {
        let pair = CsrPair::new(diamond());
        assert_eq!(pair.num_vertices(), 4);
        assert_eq!(pair.num_edges(), 4);
        for (u, v, w) in pair.out.iter_edges() {
            assert_eq!(pair.inc.edge_weight(v, u), Some(w));
        }
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
        padded.starts[0] = new_start;
        padded.caps[0] = row0.len() + 2;
        assert_eq!(padded.validate(), Ok(()));
        assert_eq!(padded, dense);
        assert_ne!(padded.arena_slots(), dense.arena_slots());
    }

    #[test]
    fn validate_rejects_overlapping_extents() {
        let mut g = Csr::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        g.caps[0] = 2; // row 0's extent now covers row 1's slot
        let err = g.validate().expect_err("overlapping extents must be rejected");
        assert!(err.contains("overlap"));
    }
}
