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

/// Compressed Sparse Row adjacency structure with per-row slack.
///
/// This is the on-device graph representation of GraphPulse and JetStream
/// (§4.7), laid out as a *gapped* (slotted) CSR so the host can maintain it
/// in place between batches instead of rebuilding it from scratch
/// (DESIGN.md §17):
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
/// traversal and the differential test matrix rely on. The in-place
/// maintenance entry points live in the [`dcsr`](crate::dcsr) module.
#[derive(Debug, Clone)]
pub struct Csr {
    pub(crate) starts: Vec<usize>,
    pub(crate) lens: Vec<usize>,
    pub(crate) caps: Vec<usize>,
    pub(crate) targets: Vec<VertexId>,
    pub(crate) weights: Vec<Weight>,
    pub(crate) live: usize,
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
            self.row_targets(v) == other.row_targets(v)
                && self.row_weights(v) == other.row_weights(v)
        })
    }
}

impl Csr {
    /// Builds a CSR from an unsorted edge list (dense: every row starts
    /// with zero slack).
    ///
    /// Duplicate `(source, target)` pairs are kept as parallel edges; use
    /// [`AdjacencyGraph`](crate::AdjacencyGraph) if you need simple-graph
    /// enforcement.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId, Weight)]) -> Self {
        let mut degree = vec![0usize; num_vertices];
        for &(u, v, _) in edges {
            assert!(ix(u) < num_vertices, "source {u} out of range");
            assert!(ix(v) < num_vertices, "target {v} out of range");
            degree[ix(u)] += 1;
        }
        let mut starts = Vec::with_capacity(num_vertices);
        let mut total = 0usize;
        for d in &degree {
            starts.push(total);
            total += d;
        }
        let num_edges = edges.len();
        let mut targets = vec![0 as VertexId; num_edges]; // cast-ok: the literal 0 fits every vertex-id width
        let mut weights = vec![0.0 as Weight; num_edges];
        let mut cursor = starts.clone();
        for &(u, v, w) in edges {
            let at = cursor[ix(u)];
            targets[at] = v;
            weights[at] = w;
            cursor[ix(u)] += 1;
        }
        let caps = degree.clone();
        let mut csr = Csr { starts, lens: degree, caps, targets, weights, live: num_edges };
        csr.sort_rows();
        csr
    }

    /// Builds an empty graph with `num_vertices` vertices and no edges.
    pub fn empty(num_vertices: usize) -> Self {
        Csr {
            starts: vec![0; num_vertices],
            lens: vec![0; num_vertices],
            caps: vec![0; num_vertices],
            targets: Vec::new(),
            weights: Vec::new(),
            live: 0,
        }
    }

    fn sort_rows(&mut self) {
        for v in 0..self.num_vertices() {
            let (lo, hi) = (self.starts[v], self.starts[v] + self.lens[v]);
            let mut row: Vec<(VertexId, Weight)> = self.targets[lo..hi]
                .iter()
                .copied()
                .zip(self.weights[lo..hi].iter().copied())
                .collect();
            row.sort_by_key(|&(t, _)| t);
            for (i, (t, w)) in row.into_iter().enumerate() {
                self.targets[lo + i] = t;
                self.weights[lo + i] = w;
            }
        }
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

    pub(crate) fn row_targets(&self, v: VertexId) -> &[VertexId] {
        let v = ix(v);
        let lo = self.starts[v]; // panic-ok: documented contract: panics if v is out of range; engines only pass construction-checked ids
        &self.targets[lo..lo + self.lens[v]]
    }

    pub(crate) fn row_weights(&self, v: VertexId) -> &[Weight] {
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
        self.row_targets(v)
    }

    /// Iterates over the edges of vertex `v` in ascending target order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = EdgeRef> + '_ {
        self.row_targets(v)
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
        let row = self.row_targets(u);
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
            let row = self.row_targets(vid(v));
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
    pub fn transpose(&self) -> Csr {
        let flipped: Vec<(VertexId, VertexId, Weight)> =
            self.iter_edges().map(|(u, v, w)| (v, u, w)).collect();
        Csr::from_edges(self.num_vertices(), &flipped)
    }
}

/// Out-edge and in-edge CSR snapshots of the same graph version.
///
/// JetStream reads outgoing edges during propagation and incoming edges when
/// issuing *request* events in the re-approximation phase (§3.4), so the host
/// maintains both structures (§4.7). Both views are delta-maintainable in
/// place via [`CsrPair::apply_batch`](crate::CsrPair::apply_batch).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrPair {
    /// Outgoing-edge CSR.
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
        let g = Csr::empty(5);
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
    fn parallel_edges_are_kept() {
        let g = Csr::from_edges(2, &[(0, 1, 1.0), (0, 1, 2.0)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 2);
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
        let row0: Vec<_> = padded.row_targets(0).to_vec();
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

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let _ = Csr::from_edges(2, &[(0, 5, 1.0)]);
    }
}
