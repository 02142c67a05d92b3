//! The mutation API of the gapped CSR (DESIGN.md §17).
//!
//! The paper's host loop (§4.7) conceptually writes a *fresh* CSR after
//! every batch; rebuilding is `O(E)` even when the batch touches a handful
//! of rows. The [`Csr`] of `csr.rs` takes the batch in place instead:
//! [`CsrPair::apply_batch`] validates it once, then edits both the out-
//! and in-edge views in `O(Σ degree(touched) · log degree)` — binary-search
//! each touched row, shift within the row's slack, and only relocate a row
//! to the arena tail when it outgrows its slots (PMA-style amortized
//! growth). Deletes shift within the row and leave the freed slot as
//! reusable slack; relocation abandons the old extent as a tombstoned
//! hole. When dead + slack space exceeds the live edge count (plus a fixed
//! slop so tiny graphs never thrash), a batch ends by compacting the arena
//! back to dense in `O(V + E)` — amortized over the ≥ `E` maintenance
//! operations it took to create that much garbage, so the per-update cost
//! stays `O(degree)`.
//!
//! Every entry point validates before it writes, so a rejected edge or
//! batch leaves the graph — and, for a [`CsrPair`], both views — exactly
//! as it was.

use crate::{ix, Csr, CsrPair, GraphError, UpdateBatch, VertexId, Weight};

/// Smallest slot count a relocated row receives: rows that grow once tend
/// to grow again, so even degree-1 rows get room for a few more edges.
const MIN_ROW_CAP: usize = 4;

/// Fixed compaction slop: dead + slack space below this never triggers a
/// compaction, so small graphs keep their slack instead of re-densifying
/// after every batch.
const COMPACT_SLOP: usize = 64;

impl Csr {
    /// Inserts `u -> v` with weight `w`, keeping row `u` sorted.
    ///
    /// `O(degree(u))`: binary search plus an in-row shift; amortized the
    /// same when the row relocates for growth. Never compacts — a
    /// generator filling an empty graph edge by edge would re-densify it
    /// over and over — so a long run of single inserts should end with
    /// [`compact`](Csr::compact).
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] for bad endpoints,
    /// [`GraphError::SelfLoop`] if `u == v`,
    /// [`GraphError::DuplicateEdge`] if the edge exists.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> Result<(), GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        let ui = ix(u);
        let start = self.starts[ui];
        let len = self.lens[ui];
        match self.targets[start..start + len].binary_search(&v) {
            Ok(_) => Err(GraphError::DuplicateEdge { source: u, target: v }),
            Err(pos) => {
                if len < self.caps[ui] {
                    // Room in the row's slack: shift the tail one slot right.
                    self.targets.copy_within(start + pos..start + len, start + pos + 1);
                    self.weights.copy_within(start + pos..start + len, start + pos + 1);
                    self.targets[start + pos] = v;
                    self.weights[start + pos] = w;
                } else {
                    self.relocate_insert(ui, pos, v, w);
                }
                self.lens[ui] += 1;
                self.live += 1;
                Ok(())
            }
        }
    }

    /// Removes `u -> v`, returning its weight. The freed slot becomes
    /// slack at the row's tail; `O(degree(u))`.
    ///
    /// # Errors
    ///
    /// [`GraphError::MissingEdge`] if absent,
    /// [`GraphError::VertexOutOfRange`] for bad endpoints.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> Result<Weight, GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        let ui = ix(u);
        let start = self.starts[ui];
        let len = self.lens[ui];
        match self.targets[start..start + len].binary_search(&v) {
            Ok(pos) => {
                let w = self.weights[start + pos];
                self.targets.copy_within(start + pos + 1..start + len, start + pos);
                self.weights.copy_within(start + pos + 1..start + len, start + pos);
                self.lens[ui] -= 1;
                self.live -= 1;
                Ok(w)
            }
            Err(_) => Err(GraphError::MissingEdge { source: u, target: v }),
        }
    }

    fn check_vertex(&self, v: VertexId) -> Result<(), GraphError> {
        if ix(v) < self.starts.len() {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange { vertex: v, num_vertices: self.starts.len() })
        }
    }

    /// Moves row `ui` to the arena tail with fresh slack (1.5x growth, at
    /// least [`MIN_ROW_CAP`] slots), inserting `(v, w)` at `pos` on the
    /// way. The old extent is abandoned as a tombstoned hole for the next
    /// compaction.
    fn relocate_insert(&mut self, ui: usize, pos: usize, v: VertexId, w: Weight) {
        let old_start = self.starts[ui];
        let len = self.lens[ui];
        let new_cap = (len + len / 2 + 1).max(MIN_ROW_CAP);
        let new_start = self.targets.len();
        self.targets.resize(new_start + new_cap, 0);
        self.weights.resize(new_start + new_cap, 0.0);
        self.targets.copy_within(old_start..old_start + pos, new_start);
        self.weights.copy_within(old_start..old_start + pos, new_start);
        self.targets[new_start + pos] = v;
        self.weights[new_start + pos] = w;
        self.targets.copy_within(old_start + pos..old_start + len, new_start + pos + 1);
        self.weights.copy_within(old_start + pos..old_start + len, new_start + pos + 1);
        self.starts[ui] = new_start;
        self.caps[ui] = new_cap;
    }

    /// Compacts the arena back to dense layout (zero slack, no holes) when
    /// dead + slack space exceeds the live edge count plus a fixed slop.
    /// `O(V + E)`, amortized over the maintenance that produced the
    /// garbage.
    pub fn maybe_compact(&mut self) -> bool {
        if self.targets.len() > self.live * 2 + COMPACT_SLOP {
            self.compact();
            true
        } else {
            false
        }
    }

    /// Compacts the arena to dense layout now, whatever the garbage bound
    /// says: the tail of a generator that grew the graph edge by edge.
    pub fn compact(&mut self) {
        let mut targets = Vec::with_capacity(self.live);
        let mut weights = Vec::with_capacity(self.live);
        for ui in 0..self.starts.len() {
            let start = self.starts[ui];
            let len = self.lens[ui];
            self.starts[ui] = targets.len();
            self.caps[ui] = len;
            targets.extend_from_slice(&self.targets[start..start + len]);
            weights.extend_from_slice(&self.weights[start..start + len]);
        }
        self.targets = targets;
        self.weights = weights;
    }

    /// Validates a whole update batch against the graph without changing
    /// it: `Ok` exactly when [`apply_batch`](Csr::apply_batch) would
    /// commit it.
    ///
    /// Deletions are validated against the pre-batch graph and insertions
    /// must not duplicate surviving edges. A batch may delete an edge and
    /// re-insert it (a weight change), but may delete each edge at most
    /// once.
    ///
    /// # Errors
    ///
    /// Returns the first validation error found.
    pub fn check_batch(&self, batch: &UpdateBatch) -> Result<(), GraphError> {
        self.check_batch_with(batch, &mut Vec::new(), &mut Vec::new())
    }

    // hot-path
    fn check_batch_with(
        &self,
        batch: &UpdateBatch,
        deleted: &mut Vec<(VertexId, VertexId)>,
        pending: &mut Vec<(VertexId, VertexId)>,
    ) -> Result<(), GraphError> {
        // Validate deletions against the pre-batch graph. A batch may
        // delete each edge at most once; a repeat is deleting an edge the
        // batch already removed.
        deleted.extend_from_slice(batch.deletions());
        deleted.sort_unstable();
        for (a, b) in deleted.iter().zip(deleted.iter().skip(1)) {
            if a == b {
                return Err(GraphError::MissingEdge { source: a.0, target: a.1 });
            }
        }
        for &(u, v) in batch.deletions() {
            self.check_vertex(u)?;
            self.check_vertex(v)?;
            if !self.has_edge(u, v) {
                return Err(GraphError::MissingEdge { source: u, target: v });
            }
        }
        // Validate insertions against the graph state after deletions,
        // probing the sorted scratch slices instead of allocating sets.
        pending.extend(batch.insertions().iter().map(|&(u, v, _)| (u, v)));
        pending.sort_unstable();
        for (a, b) in pending.iter().zip(pending.iter().skip(1)) {
            if a == b {
                return Err(GraphError::DuplicateEdge { source: a.0, target: a.1 });
            }
        }
        for &(u, v, _) in batch.insertions() {
            self.check_vertex(u)?;
            self.check_vertex(v)?;
            if u == v {
                return Err(GraphError::SelfLoop { vertex: u });
            }
            if self.has_edge(u, v) && deleted.binary_search(&(u, v)).is_err() {
                return Err(GraphError::DuplicateEdge { source: u, target: v });
            }
        }
        Ok(())
    }

    /// [`check_batch`](Csr::check_batch) on the graph's own sort scratch,
    /// which steady-state streaming therefore allocates once.
    // hot-path
    fn check_batch_reusing_scratch(&mut self, batch: &UpdateBatch) -> Result<(), GraphError> {
        let mut deleted = std::mem::take(&mut self.scratch_deleted);
        let mut pending = std::mem::take(&mut self.scratch_pending);
        let result = self.check_batch_with(batch, &mut deleted, &mut pending);
        deleted.clear();
        pending.clear();
        self.scratch_deleted = deleted;
        self.scratch_pending = pending;
        result
    }

    /// Applies a whole update batch atomically — deletions first, then
    /// insertions — after validating it as
    /// [`check_batch`](Csr::check_batch) does; may end with a compaction.
    ///
    /// Cost: `O(Σ degree(touched) · log degree)` plus the amortized
    /// compaction.
    ///
    /// # Errors
    ///
    /// Returns the first validation error found; the graph is left untouched.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<(), GraphError> {
        self.check_batch_reusing_scratch(batch)?;
        self.commit(batch.deletions().iter().copied(), batch.insertions().iter().copied());
        Ok(())
    }

    /// Writes an already validated batch.
    fn commit(
        &mut self,
        deletions: impl Iterator<Item = (VertexId, VertexId)>,
        insertions: impl Iterator<Item = (VertexId, VertexId, Weight)>,
    ) {
        for (u, v) in deletions {
            #[allow(clippy::expect_used)] // invariant: the batch passed `check_batch_with`
            self.delete_edge(u, v).expect("invariant: a validated deletion finds its edge");
        }
        for (u, v, w) in insertions {
            #[allow(clippy::expect_used)] // invariant: the batch passed `check_batch_with`
            self.insert_edge(u, v, w).expect("invariant: a validated insertion finds a free slot");
        }
        self.maybe_compact();
    }
}

impl CsrPair {
    /// Applies an update batch to both views atomically and in place:
    /// validated once on `out`, then written to `out` and, endpoints
    /// swapped, to `inc` — the transpose of a graph the batch is valid
    /// for accepts the swapped batch. The pair stays bit-identical to a
    /// from-scratch rebuild of the mutated edge list: rows, iteration
    /// order, weights, and out/in duality.
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError`] found (missing deletion, duplicate
    /// insertion, self-loop, out-of-range endpoint); both views are left
    /// untouched.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<(), GraphError> {
        self.out.apply_batch(batch)?;
        self.inc.commit(
            batch.deletions().iter().map(|&(u, v)| (v, u)),
            batch.insertions().iter().map(|&(u, v, w)| (v, u, w)),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair_of(edges: &[(VertexId, VertexId, Weight)], n: usize) -> CsrPair {
        CsrPair::new(Csr::from_edges(n, edges))
    }

    #[test]
    fn insert_into_slack_and_relocation() {
        let mut g = Csr::from_edges(4, &[(0, 1, 1.0)]);
        // Dense build: row 0 has no slack, first insert relocates.
        assert_eq!(g.caps[0], 1);
        g.insert_edge(0, 3, 3.0).expect("insert of a new edge succeeds");
        assert!(g.caps[0] >= MIN_ROW_CAP);
        // Second insert lands in the fresh slack, sorted into place.
        g.insert_edge(0, 2, 2.0).expect("insert of a new edge succeeds");
        let ns: Vec<_> = g.neighbors(0).map(|e| e.other).collect();
        assert_eq!(ns, vec![1, 2, 3]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn remove_leaves_reusable_slack() {
        let mut g = Csr::from_edges(3, &[(0, 1, 1.0), (0, 2, 2.0)]);
        assert_eq!(g.delete_edge(0, 1).expect("edge exists"), 1.0);
        let before = g.arena_slots();
        // Re-inserting reuses the freed slot: no arena growth.
        g.insert_edge(0, 1, 9.0).expect("insert of a new edge succeeds");
        assert_eq!(g.arena_slots(), before);
        assert_eq!(g.edge_weight(0, 1), Some(9.0));
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn insert_and_delete_roundtrip() {
        let mut g = Csr::new(3);
        g.insert_edge(0, 1, 5.0).expect("insert of a new edge succeeds");
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(5.0));
        assert_eq!(g.delete_edge(0, 1).expect("edge exists"), 5.0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g, Csr::new(3));
    }

    #[test]
    fn invalid_single_edges_are_typed_errors() {
        let mut g = Csr::from_edges(3, &[(0, 1, 1.0)]);
        let before = g.clone();
        assert_eq!(
            g.insert_edge(0, 1, 2.0),
            Err(GraphError::DuplicateEdge { source: 0, target: 1 })
        );
        assert_eq!(g.insert_edge(1, 1, 1.0), Err(GraphError::SelfLoop { vertex: 1 }));
        assert_eq!(g.delete_edge(1, 0), Err(GraphError::MissingEdge { source: 1, target: 0 }));
        assert!(matches!(
            g.insert_edge(0, 9, 1.0),
            Err(GraphError::VertexOutOfRange { vertex: 9, .. })
        ));
        // The range check comes first: an out-of-range self-loop is out of range.
        assert!(matches!(
            g.insert_edge(9, 9, 1.0),
            Err(GraphError::VertexOutOfRange { vertex: 9, .. })
        ));
        assert_eq!(g, before);
    }

    #[test]
    fn pair_apply_batch_matches_rebuild() {
        let mut pair = pair_of(&[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)], 4);
        let mut batch = UpdateBatch::new();
        batch.delete(1, 2);
        batch.insert(1, 3, 4.0);
        batch.insert(3, 0, 5.0);
        pair.apply_batch(&batch).expect("valid batch applies");
        let rebuilt = pair_of(&[(0, 1, 1.0), (2, 0, 3.0), (1, 3, 4.0), (3, 0, 5.0)], 4);
        assert_eq!(pair, rebuilt);
        assert_eq!(pair.validate(), Ok(()));
    }

    #[test]
    fn compaction_restores_dense_arena() {
        let mut g = Csr::new(8);
        // Grow rows enough to force relocations, then delete everything:
        // the arena is now mostly garbage and must compact.
        for u in 0..8u32 {
            for v in 0..8u32 {
                if u != v {
                    g.insert_edge(u, v, 1.0).expect("insert of a new edge succeeds");
                }
            }
        }
        for u in 0..8u32 {
            for v in 0..8u32 {
                if u != v && v % 2 == 0 {
                    g.delete_edge(u, v).expect("edge exists");
                }
            }
        }
        assert_eq!(g.validate(), Ok(()));
        while !g.maybe_compact() {
            // Keep shrinking until the policy fires (small graphs sit
            // under the slop; force it by dropping the slop's worth).
            let before = g.num_edges();
            'outer: for u in 0..8u32 {
                for v in 0..8u32 {
                    if g.has_edge(u, v) {
                        g.delete_edge(u, v).expect("edge exists");
                        break 'outer;
                    }
                }
            }
            if g.num_edges() == before {
                break;
            }
        }
        assert_eq!(g.validate(), Ok(()));
        // After a compaction (or a fully-drained graph) the arena is tight.
        if g.num_edges() == 0 {
            g.compact();
        }
        assert!(g.arena_slots() <= g.num_edges() * 2 + 64);
    }

    /// A batch from `(deletions, insertions)`.
    fn batch_of(
        dels: &[(VertexId, VertexId)],
        ins: &[(VertexId, VertexId, Weight)],
    ) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        for &(u, v) in dels {
            batch.delete(u, v);
        }
        for &(u, v, w) in ins {
            batch.insert(u, v, w);
        }
        batch
    }

    // Every batch shape the validation rejects, with the error it reports
    // — the first in the order *all deletions, then all insertions; within
    // each, the repeated-pair scan before the per-update checks* — and
    // proof that a rejected batch writes nothing, to a graph or to either
    // view of a pair. Kills the `check_batch_with` mutants of
    // xtask/mutation_corpus.txt (the adjacent-duplicate scans, the
    // delete-then-reinsert `binary_search` exemption).
    #[test]
    fn invalid_batches_are_typed_errors_and_write_nothing() {
        use GraphError::{DuplicateEdge, MissingEdge, SelfLoop, VertexOutOfRange};
        let base = [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0), (0, 3, 4.0)];
        let range = |vertex| VertexOutOfRange { vertex, num_vertices: 4 };
        #[rustfmt::skip]
        let cases: [(&str, UpdateBatch, GraphError); 12] = [
            ("missing delete", batch_of(&[(1, 0)], &[]), MissingEdge { source: 1, target: 0 }),
            ("double delete", batch_of(&[(0, 1), (1, 2), (0, 1)], &[]), MissingEdge { source: 0, target: 1 }),
            ("double delete, not first in sort order", batch_of(&[(2, 0), (0, 1), (2, 0)], &[]), MissingEdge { source: 2, target: 0 }),
            ("delete source out of range", batch_of(&[(4, 0)], &[]), range(4)),
            ("delete target out of range", batch_of(&[(0, 7)], &[]), range(7)),
            ("duplicate insert of a surviving edge", batch_of(&[(1, 2)], &[(0, 1, 9.0)]), DuplicateEdge { source: 0, target: 1 }),
            ("double insert", batch_of(&[], &[(3, 1, 1.0), (1, 0, 1.0), (3, 1, 2.0)]), DuplicateEdge { source: 3, target: 1 }),
            ("double re-insert of a deleted edge", batch_of(&[(0, 1)], &[(0, 1, 5.0), (0, 1, 6.0)]), DuplicateEdge { source: 0, target: 1 }),
            ("self-loop", batch_of(&[], &[(2, 2, 1.0)]), SelfLoop { vertex: 2 }),
            ("insert source out of range", batch_of(&[], &[(9, 0, 1.0)]), range(9)),
            ("insert target out of range", batch_of(&[], &[(0, 4, 1.0)]), range(4)),
            ("deletions are judged before insertions", batch_of(&[(3, 0)], &[(2, 2, 1.0)]), MissingEdge { source: 3, target: 0 }),
        ];
        let graph = Csr::from_edges(4, &base);
        let pair = pair_of(&base, 4);
        for (what, batch, want) in cases {
            let want = Err(want);
            assert_eq!(graph.check_batch(&batch), want, "{what}: check_batch");
            let mut g = graph.clone();
            assert_eq!(g.apply_batch(&batch), want, "{what}: Csr::apply_batch");
            assert_eq!(g, graph, "{what}: a rejected batch must leave the graph untouched");
            assert!(g.scratch_deleted.is_empty() && g.scratch_pending.is_empty(), "{what}");
            let mut p = pair.clone();
            assert_eq!(p.apply_batch(&batch), want, "{what}: CsrPair::apply_batch");
            assert_eq!(p, pair, "{what}: a rejected batch must leave both views untouched");
        }
        // Accepted: delete-then-reinsert is a weight change, also when the
        // deleted pair is not the first in sort order.
        let reweigh = batch_of(&[(0, 1), (2, 0)], &[(2, 0, 7.5), (3, 2, 1.0)]);
        assert_eq!(graph.check_batch(&reweigh), Ok(()));
    }

    // kills jm-0fa5ac00 (dcsr.rs len-off-by-one in check_vertex): the
    // error must report the true vertex-set size, not an off-by-one.
    #[test]
    fn out_of_range_error_reports_the_exact_vertex_count() {
        let mut g = Csr::from_edges(3, &[(0, 1, 1.0)]);
        assert_eq!(
            g.insert_edge(0, 9, 1.0),
            Err(GraphError::VertexOutOfRange { vertex: 9, num_vertices: 3 })
        );
        assert_eq!(
            g.delete_edge(7, 0),
            Err(GraphError::VertexOutOfRange { vertex: 7, num_vertices: 3 })
        );
    }

    // Kills jm-713f6271 (`<` -> `<=` in check_vertex) and jm-0fa5accf
    // (len-off-by-one on the same bound): id == num_vertices is the first
    // out-of-range id — it must be rejected, not index one past the rows.
    #[test]
    fn vertex_equal_to_the_count_is_the_first_rejected_id() {
        let mut g = Csr::from_edges(3, &[(0, 1, 1.0)]);
        assert_eq!(
            g.insert_edge(0, 3, 1.0),
            Err(GraphError::VertexOutOfRange { vertex: 3, num_vertices: 3 })
        );
        assert_eq!(
            g.delete_edge(3, 0),
            Err(GraphError::VertexOutOfRange { vertex: 3, num_vertices: 3 })
        );
    }

    // Kills jm-ac86c58b (`>` -> `>=` in maybe_compact): the compaction
    // trigger is strict — at exactly `2*live + slop` arena slots the arena
    // is left alone; one more dead slot compacts.
    #[test]
    fn compaction_triggers_strictly_above_the_garbage_bound() {
        let edges: Vec<(VertexId, VertexId, Weight)> = (1..=76u32).map(|v| (0, v, 1.0)).collect();
        let mut g = Csr::from_edges(77, &edges);
        assert_eq!(g.arena_slots(), 76, "from_edges lays rows out dense");
        let mut compactions = 0;
        for v in 1..=71u32 {
            g.delete_edge(0, v).expect("edge (0, v) was inserted above");
            let over_bound = g.arena_slots() > 2 * g.num_edges() + COMPACT_SLOP;
            assert_eq!(g.maybe_compact(), over_bound, "after removing target {v}");
            if over_bound {
                compactions += 1;
            }
        }
        assert_eq!(compactions, 1, "exactly one removal crosses the bound");
    }

    // kills jm-0fa5ad55 (dcsr.rs len-off-by-one: relocation start past the
    // tail would leak a permanent one-slot hole per relocation) and
    // jm-93cee4d3 (dcsr.rs const-01: slack must be zero-filled, the value
    // compaction and debug dumps rely on).
    #[test]
    fn relocation_appends_exactly_at_the_arena_tail() {
        let mut g = Csr::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0)]);
        // Dense build: row 0 (start 0, len 1, cap 1) relocates on insert.
        g.insert_edge(0, 3, 3.0).expect("insert of a new edge succeeds");
        assert_eq!(g.starts[0], 2, "relocated row must start at the old arena tail");
        assert_eq!(g.caps[0], MIN_ROW_CAP);
        assert_eq!(g.targets.len(), 2 + MIN_ROW_CAP, "no hole between old tail and new row");
        let (start, len, cap) = (g.starts[0], g.lens[0], g.caps[0]);
        assert_eq!(&g.targets[start..start + len], &[1, 3]);
        assert!(
            g.targets[start + len..start + cap].iter().all(|&t| t == 0),
            "slack slots must be zero-filled"
        );
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn delete_then_reinsert_same_batch_is_a_weight_change() {
        let mut pair = pair_of(&[(0, 1, 1.0), (1, 0, 2.0)], 2);
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        batch.insert(0, 1, 7.5);
        pair.apply_batch(&batch).expect("valid batch applies");
        assert_eq!(pair.out.edge_weight(0, 1), Some(7.5));
        assert_eq!(pair.inc.edge_weight(1, 0), Some(7.5));
        assert_eq!(pair.num_edges(), 2);
    }
}
