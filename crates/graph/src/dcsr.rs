//! The mutation API of the gapped CSR (DESIGN.md §17).
//!
//! The paper's host loop (§4.7) conceptually writes a *fresh* CSR after
//! every batch; rebuilding is `O(E)` even when the batch touches a handful
//! of rows. The [`Csr`] of `csr.rs` takes the batch in place instead, in
//! two typed steps: [`Csr::check_batch`] validates it once and mints a
//! [`CheckedBatch`], and [`CsrPair::commit`] spends that token to edit both
//! the out- and in-edge views without checking again, in
//! `O(Σ degree(touched) · log degree)` — binary-search each touched row,
//! shift within the row's slack, and only relocate a row to the arena tail
//! when it outgrows its slots (PMA-style amortized growth). Deletes shift
//! within the row and leave the freed slot as reusable slack; relocation
//! abandons the old extent as a tombstoned hole. When dead + slack space
//! exceeds the live edge count (plus a fixed slop so tiny graphs never
//! thrash), a batch ends by compacting the arena in `O(V + E)` to the
//! layout every rebuilt arena has: each row a quarter again its length, so
//! the rows that grow next mostly grow in place. That is amortized over the
//! ≥ `0.75 · E` maintenance operations it takes to create that much
//! garbage, so the per-update cost stays `O(degree)`.
//!
//! Every entry point validates before it writes, so a rejected edge or
//! batch leaves the graph — and, for a [`CsrPair`], both views — exactly
//! as it was.

use crate::csr::{slots, RowSpan};
use crate::update::valid_weight;
use crate::{ix, Csr, CsrPair, GraphError, UpdateBatch, VertexId, Weight};

/// Smallest slot count a relocated row receives: rows that grow once tend
/// to grow again, so even degree-1 rows get room for a few more edges.
const MIN_ROW_CAP: usize = 4;

/// Fixed compaction slop: dead + slack space below this never triggers a
/// compaction, so small graphs keep their slack instead of re-densifying
/// after every batch.
const COMPACT_SLOP: usize = 64;

/// The most arena slots `live` edges may hold before a batch ends by
/// compacting: twice the live edges, plus the slop.
pub(crate) fn arena_bound(live: usize) -> usize {
    live * 2 + COMPACT_SLOP
}

/// An update batch [`Csr::check_batch`] accepted, stamped with the version
/// of the graph it was checked against. Only `check_batch` mints one, and
/// [`CsrPair::commit`] spends it, writing the batch without checking it
/// again.
///
/// The token borrows the batch, not the graph, so a flow can hold it while
/// it still reads the pre-batch graph (DESIGN.md §17.3). A commit against a
/// graph written since the check panics: the stamp no longer matches.
#[derive(Debug)]
#[must_use = "a checked batch changes nothing until it is committed"]
pub struct CheckedBatch<'b> {
    batch: &'b UpdateBatch,
    stamp: u64,
}

impl Csr {
    /// Inserts `u -> v` with weight `w`, keeping row `u` sorted.
    ///
    /// `O(degree(u))`: binary search plus an in-row shift; amortized the
    /// same when the row relocates for growth. Never compacts — a caller
    /// filling an empty graph edge by edge would re-densify it over and
    /// over — so a long run of single inserts should end with
    /// [`compact`](Csr::compact); a whole list builds faster with
    /// [`from_edges`](Csr::from_edges).
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
        match self.search(u, v) {
            Ok(_) => Err(GraphError::DuplicateEdge { source: u, target: v }),
            Err(pos) => {
                self.insert_at(u, pos, v, w);
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
        match self.search(u, v) {
            Ok(pos) => {
                let w = self.row_weights(u)[pos];
                self.remove_at(u, pos);
                Ok(w)
            }
            Err(_) => Err(GraphError::MissingEdge { source: u, target: v }),
        }
    }

    fn check_vertex(&self, v: VertexId) -> Result<(), GraphError> {
        if ix(v) < self.rows.len() {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange { vertex: v, num_vertices: self.rows.len() })
        }
    }

    /// Validates a whole update batch against the graph without changing
    /// it, and mints the [`CheckedBatch`] that [`CsrPair::commit`] needs.
    /// Runs on the graph's own scratch, which steady-state streaming
    /// therefore allocates once.
    ///
    /// Deletions are validated against the pre-batch graph and insertions
    /// must not duplicate surviving edges. A batch may delete an edge and
    /// re-insert it (a weight change), but may delete each edge at most
    /// once. An insertion's weight must be finite and not negative.
    ///
    /// The check first gathers every update's row header and the first
    /// line of its row, and only then searches the rows, so a cold batch's
    /// misses overlap instead of each waiting on the one before
    /// (DESIGN.md §17.3).
    ///
    /// # Errors
    ///
    /// Returns the first validation error found.
    pub fn check_batch<'b>(
        &mut self,
        batch: &'b UpdateBatch,
    ) -> Result<CheckedBatch<'b>, GraphError> {
        self.check_gathering(batch, |_| 0)
    }

    /// [`check_batch`](Csr::check_batch), with `touch(target)` loaded
    /// beside each update's own row in the gathering pass.
    // hot-path
    fn check_gathering<'b>(
        &mut self,
        batch: &'b UpdateBatch,
        touch: impl Fn(VertexId) -> VertexId,
    ) -> Result<CheckedBatch<'b>, GraphError> {
        let mut rows = std::mem::take(&mut self.scratch_rows);
        let mut deleted = std::mem::take(&mut self.scratch_deleted);
        let mut pending = std::mem::take(&mut self.scratch_pending);
        // No load in this pass waits on another update's: the core keeps
        // every update's misses in flight at once.
        let mut seen = 0;
        for (u, v) in batch_edges(batch) {
            let (row, first) = self.gather_row(u);
            rows.push(row);
            seen ^= first ^ touch(v);
        }
        std::hint::black_box(seen);
        let result = self.check_batch_with(batch, &rows, &mut deleted, &mut pending);
        rows.clear();
        deleted.clear();
        pending.clear();
        self.scratch_rows = rows;
        self.scratch_deleted = deleted;
        self.scratch_pending = pending;
        result.map(|()| CheckedBatch { batch, stamp: self.version })
    }

    /// Validates `batch` given `rows`, the header of each update's source
    /// row in batch order (deletions first), as
    /// [`gather_row`](Csr::gather_row) read them.
    // hot-path
    fn check_batch_with(
        &self,
        batch: &UpdateBatch,
        rows: &[RowSpan],
        deleted: &mut Vec<(VertexId, VertexId)>,
        pending: &mut Vec<(VertexId, VertexId)>,
    ) -> Result<(), GraphError> {
        let (deletion_rows, insertion_rows) = rows.split_at(batch.deletions().len());
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
        for (&(u, v), &row) in batch.deletions().iter().zip(deletion_rows) {
            self.check_vertex(u)?;
            self.check_vertex(v)?;
            if slots(&self.targets, row).binary_search(&v).is_err() {
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
        for (&(u, v, w), &row) in batch.insertions().iter().zip(insertion_rows) {
            self.check_vertex(u)?;
            self.check_vertex(v)?;
            if u == v {
                return Err(GraphError::SelfLoop { vertex: u });
            }
            if !valid_weight(w) {
                return Err(GraphError::InvalidWeight { source: u, target: v });
            }
            let present = slots(&self.targets, row).binary_search(&v).is_ok();
            if present && deleted.binary_search(&(u, v)).is_err() {
                return Err(GraphError::DuplicateEdge { source: u, target: v });
            }
        }
        Ok(())
    }

    /// Writes a checked batch — deletions first, then insertions — without
    /// checking it again; may end with a compaction.
    ///
    /// # Panics
    ///
    /// If the graph was written since `checked` was minted: the check no
    /// longer vouches for the batch.
    pub(crate) fn commit(&mut self, checked: CheckedBatch<'_>) {
        assert!(
            checked.stamp == self.version,
            "a CheckedBatch was committed to a graph written since its check"
        );
        let batch = checked.batch;
        self.write(batch.deletions().iter().copied(), batch.insertions().iter().copied());
        self.maybe_compact();
    }

    /// Applies a whole update batch atomically: [`check_batch`], then the
    /// commit, deletions first.
    ///
    /// Cost: `O(Σ degree(touched) · log degree)` plus the amortized
    /// compaction.
    ///
    /// [`check_batch`]: Csr::check_batch
    ///
    /// # Errors
    ///
    /// Returns the first validation error found; the graph is left untouched.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<(), GraphError> {
        let checked = self.check_batch(batch)?;
        self.commit(checked);
        Ok(())
    }
}

/// Every update of `batch` as `(source, target)`, deletions first: the
/// order [`Csr::check_batch`] gathers rows in.
fn batch_edges(batch: &UpdateBatch) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
    let insertions = batch.insertions().iter().map(|&(u, v, _)| (u, v));
    batch.deletions().iter().copied().chain(insertions)
}

impl<W: Copy + Default> Csr<W> {
    /// Row `v`'s header and the first entry of its extent, loaded for a
    /// batch check to search later; an empty header (and a zero) for an
    /// id out of range, which the check rejects before reading its row.
    // hot-path
    #[inline(always)]
    fn gather_row(&self, v: VertexId) -> (RowSpan, VertexId) {
        let row = self.rows.get(ix(v)).copied().unwrap_or_default();
        (row, self.targets.get(row.start()).copied().unwrap_or_default())
    }

    /// Where `v` sits, or would go, in row `u`'s sorted live prefix.
    fn search(&self, u: VertexId, v: VertexId) -> Result<usize, usize> {
        self.neighbor_targets(u).binary_search(&v)
    }

    /// Writes `(v, w)` at position `pos` of row `u`: shifted into the
    /// row's slack when it has some, else by relocating the row to the
    /// arena tail with fresh slack (1.5x growth, at least [`MIN_ROW_CAP`]
    /// slots), opening the gap at `pos` on the way. A relocated row's old
    /// extent is abandoned as a tombstoned hole for the next compaction.
    // hot-path
    fn insert_at(&mut self, u: VertexId, pos: usize, v: VertexId, w: W) {
        let row = self.span(u);
        let (start, len) = (row.start(), row.len());
        let row = if len < row.cap() {
            // Room in the row's slack: shift the tail one slot right.
            self.targets.copy_within(start + pos..start + len, start + pos + 1);
            self.weights.copy_within(start + pos..start + len, start + pos + 1);
            row.with_len(len + 1)
        } else {
            let to = self.targets.len();
            let cap = (len + len / 2 + 1).max(MIN_ROW_CAP);
            self.targets.resize(to + cap, 0);
            self.weights.resize(to + cap, W::default());
            self.targets.copy_within(start..start + pos, to);
            self.weights.copy_within(start..start + pos, to);
            self.targets.copy_within(start + pos..start + len, to + pos + 1);
            self.weights.copy_within(start + pos..start + len, to + pos + 1);
            RowSpan::new(to, len + 1, cap)
        };
        let at = row.start() + pos;
        // panic-ok: u was just looked up by `span`; at < start + len + 1 <= start + cap, inside the row
        (self.rows[ix(u)], self.targets[at], self.weights[at]) = (row, v, w);
        self.live += 1;
        self.version += 1;
    }

    /// Removes position `pos` of row `u`; the freed slot becomes slack.
    // hot-path
    fn remove_at(&mut self, u: VertexId, pos: usize) {
        let row = self.span(u);
        let (start, len) = (row.start(), row.len());
        self.targets.copy_within(start + pos + 1..start + len, start + pos);
        self.weights.copy_within(start + pos + 1..start + len, start + pos);
        self.rows[ix(u)] = row.with_len(len - 1); // panic-ok: u was just looked up by `span`
        self.live -= 1;
        self.version += 1;
    }

    /// Compacts the arena when dead + slack space exceeds the live edge
    /// count plus a fixed slop. `O(V + E)`, amortized over the maintenance
    /// that produced the garbage. A compacted arena holds at most
    /// `1.25 · live` slots, so the next compaction is at least
    /// `0.75 · live` writes away.
    pub fn maybe_compact(&mut self) -> bool {
        if self.targets.len() > arena_bound(self.live) {
            self.compact();
            true
        } else {
            false
        }
    }

    /// Compacts the arena now, whatever the garbage bound says: the tail of
    /// a run of single inserts. Rows are laid out as
    /// every rebuilt arena is — in vertex order, each with a quarter again
    /// its length as slack, no holes.
    pub fn compact(&mut self) {
        let fresh = self.compacted();
        (self.rows, self.targets, self.weights) = (fresh.rows, fresh.targets, fresh.weights);
    }

    /// The same rows in the compacted layout, built straight from the live
    /// entries: the one body of [`compact`](Csr::compact) and
    /// [`snapshot`](Csr::snapshot).
    pub(crate) fn compacted(&self) -> Self {
        let mut fresh = Csr::<W>::with_rows(self.rows.iter().map(|r| r.len()).collect());
        for (&from, &to) in self.rows.iter().zip(&fresh.rows) {
            fresh.targets[to.live()].copy_from_slice(slots(&self.targets, from));
            fresh.weights[to.live()].copy_from_slice(slots(&self.weights, from));
        }
        fresh
    }

    /// Writes edges a check has vouched for.
    // hot-path
    fn write(
        &mut self,
        deletions: impl Iterator<Item = (VertexId, VertexId)>,
        insertions: impl Iterator<Item = (VertexId, VertexId, W)>,
    ) {
        for (u, v) in deletions {
            #[expect(clippy::expect_used, reason = "invariant: the batch passed `check_batch`")]
            let pos = self.search(u, v).expect("invariant: a checked deletion finds its edge");
            self.remove_at(u, pos);
        }
        for (u, v, w) in insertions {
            #[expect(clippy::expect_used, reason = "invariant: the batch passed `check_batch`")]
            let pos = self.search(u, v).expect_err("invariant: a checked insertion is absent");
            self.insert_at(u, pos, v, w);
        }
    }
}

impl CsrPair {
    /// [`Csr::check_batch`] on `out`, whose gathering pass also loads each
    /// update's in-row header and first line in `inc`: the rows the commit
    /// edits, fetched while the check's own misses are in flight. Accepts
    /// and rejects exactly what `out.check_batch` does.
    ///
    /// # Errors
    ///
    /// Returns the first validation error found.
    pub fn check_batch<'b>(
        &mut self,
        batch: &'b UpdateBatch,
    ) -> Result<CheckedBatch<'b>, GraphError> {
        let inc = &self.inc;
        self.out.check_gathering(batch, |v| inc.gather_row(v).1)
    }

    /// Writes a batch [`Csr::check_batch`] accepted on `out` to both views,
    /// without checking it again: to `out` and, endpoints swapped, to `inc`
    /// — the transpose of a graph the batch is valid for accepts the
    /// swapped batch. The pair stays bit-identical to a from-scratch
    /// rebuild of the mutated edge list: rows, iteration order, weights,
    /// and out/in duality.
    ///
    /// # Panics
    ///
    /// If `out` was written since `checked` was minted.
    pub fn commit(&mut self, checked: CheckedBatch<'_>) {
        let batch = checked.batch;
        self.out.commit(checked);
        self.inc.write(
            batch.deletions().iter().map(|&(u, v)| (v, u)),
            batch.insertions().iter().map(|&(u, v, _)| (v, u, ())),
        );
        self.inc.maybe_compact();
    }

    /// Applies an update batch to both views atomically and in place:
    /// checked once on `out`, then [`commit`](CsrPair::commit)ted.
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError`] found (missing deletion, duplicate
    /// insertion, self-loop, out-of-range endpoint, invalid weight); both
    /// views are left untouched.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<(), GraphError> {
        let checked = self.check_batch(batch)?;
        self.commit(checked);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vid;

    fn pair_of(edges: &[(VertexId, VertexId, Weight)], n: usize) -> CsrPair {
        CsrPair::new(Csr::from_edges(n, edges))
    }

    #[test]
    fn insert_into_slack_and_relocation() {
        let mut g = Csr::from_edges(4, &[(0, 1, 1.0)]);
        // Dense build: row 0 has no slack, first insert relocates.
        assert_eq!(g.rows[0].cap(), 1);
        g.insert_edge(0, 3, 3.0).expect("insert of a new edge succeeds");
        assert!(g.rows[0].cap() >= MIN_ROW_CAP);
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
        use GraphError::{DuplicateEdge, InvalidWeight, MissingEdge, SelfLoop, VertexOutOfRange};
        let base = [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0), (0, 3, 4.0)];
        let range = |vertex| VertexOutOfRange { vertex, num_vertices: 4 };
        #[rustfmt::skip]
        let cases: [(&str, UpdateBatch, GraphError); 15] = [
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
            ("negative weight", batch_of(&[], &[(3, 1, 1.0), (1, 3, -3.0)]), InvalidWeight { source: 1, target: 3 }),
            ("NaN weight", batch_of(&[], &[(3, 1, f64::NAN)]), InvalidWeight { source: 3, target: 1 }),
            ("negative re-weigh", batch_of(&[(0, 1)], &[(0, 1, -1.0)]), InvalidWeight { source: 0, target: 1 }),
        ];
        let graph = Csr::from_edges(4, &base);
        let pair = pair_of(&base, 4);
        for (what, batch, want) in cases {
            let want = Err(want);
            let mut g = graph.clone();
            assert_eq!(g.check_batch(&batch).map(|_| ()), want, "{what}: check_batch");
            assert_eq!(g.apply_batch(&batch), want, "{what}: Csr::apply_batch");
            assert_eq!(g, graph, "{what}: a rejected batch must leave the graph untouched");
            assert!(g.scratch_deleted.is_empty() && g.scratch_pending.is_empty(), "{what}");
            assert!(g.scratch_rows.is_empty(), "{what}");
            let mut p = pair.clone();
            assert_eq!(p.check_batch(&batch).map(|_| ()), want, "{what}: CsrPair::check_batch");
            assert_eq!(p.apply_batch(&batch), want, "{what}: CsrPair::apply_batch");
            assert_eq!(p, pair, "{what}: a rejected batch must leave both views untouched");
        }
        // Accepted: delete-then-reinsert is a weight change, also when the
        // deleted pair is not the first in sort order; `-0.0` is zero.
        let reweigh = batch_of(&[(0, 1), (2, 0)], &[(2, 0, 7.5), (3, 2, -0.0)]);
        let mut g = graph.clone();
        assert!(g.check_batch(&reweigh).is_ok());
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

    // Kills jm-713f6dc6 (`<` -> `<=` in check_vertex) and jm-0fa5accf
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

    // Kills jm-ac86c4dc (`>` -> `>=` in maybe_compact): the compaction
    // trigger is strict — at exactly `2*live + slop` arena slots the arena
    // is left alone; one more dead slot compacts.
    #[test]
    fn compaction_triggers_strictly_above_the_garbage_bound() {
        // 72 edges in 90 slots: deleting down to 13 live edges lands the
        // arena exactly on the bound (90 = 2 * 13 + 64).
        let edges: Vec<(VertexId, VertexId, Weight)> = (1..=72u32).map(|v| (0, v, 1.0)).collect();
        let mut g = Csr::from_edges(73, &edges);
        assert_eq!(g.arena_slots(), 72 + 72 / 4, "from_edges leaves a quarter of slack");
        let (mut compactions, mut on_the_bound) = (0, false);
        for v in 1..=67u32 {
            g.delete_edge(0, v).expect("edge (0, v) was inserted above");
            on_the_bound |= g.arena_slots() == 2 * g.num_edges() + COMPACT_SLOP;
            let over_bound = g.arena_slots() > 2 * g.num_edges() + COMPACT_SLOP;
            assert_eq!(g.maybe_compact(), over_bound, "after removing target {v}");
            if over_bound {
                compactions += 1;
            }
        }
        assert!(on_the_bound, "no removal left the arena exactly on the bound");
        assert_eq!(compactions, 1, "exactly one removal crosses the bound");
    }

    // kills jm-0fa5b983 (dcsr.rs len-off-by-one: relocation start past the
    // tail would leak a permanent one-slot hole per relocation) and
    // jm-93ceeda9 (dcsr.rs const-01: slack must be zero-filled, the value
    // compaction and debug dumps rely on).
    #[test]
    fn relocation_appends_exactly_at_the_arena_tail() {
        let mut g = Csr::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0)]);
        // Dense build: row 0 (start 0, len 1, cap 1) relocates on insert.
        g.insert_edge(0, 3, 3.0).expect("insert of a new edge succeeds");
        let row = g.rows[0];
        assert_eq!(row.start(), 2, "relocated row must start at the old arena tail");
        assert_eq!(row.cap(), MIN_ROW_CAP);
        assert_eq!(g.targets.len(), 2 + MIN_ROW_CAP, "no hole between old tail and new row");
        let (start, len, cap) = (row.start(), row.len(), row.cap());
        assert_eq!(&g.targets[start..start + len], &[1, 3]);
        assert!(
            g.targets[start + len..start + cap].iter().all(|&t| t == 0),
            "slack slots must be zero-filled"
        );
        assert_eq!(g.validate(), Ok(()));
    }

    // Every multi-query user mounts an engine on a clone of the graph.
    // Batches that relocate rows but stay under the compaction trigger
    // grow both views in place: no buffer moves or changes capacity, so
    // no arena is copied and no old copy is left behind.
    #[test]
    fn a_mounted_clone_relocates_rows_without_reallocating() {
        let g = crate::gen::erdos_renyi(200, 1200, 7);
        let mut pair = CsrPair::new(g.clone());
        let buffers = |p: &CsrPair| {
            let (out, inc) = (&p.out, &p.inc);
            [
                (out.targets.as_ptr() as usize, out.targets.capacity()),
                (out.weights.as_ptr() as usize, out.weights.capacity()),
                (inc.targets.as_ptr() as usize, inc.targets.capacity()),
            ]
        };
        let before = buffers(&pair);
        for round in 0..2u32 {
            // Two fresh out-edges on each of 50 rows: rows with less than
            // two slots of slack relocate.
            let mut batch = UpdateBatch::new();
            for u in (0..200u32).filter(|u| u % 4 == round) {
                let fresh =
                    (1..200u32).map(|d| (u + d) % 200).filter(|&v| !pair.out.has_edge(u, v));
                for v in fresh.take(2) {
                    batch.insert(u, v, 1.0);
                }
            }
            let slots = pair.out.arena_slots();
            pair.apply_batch(&batch).expect("fresh inserts apply");
            assert!(pair.out.arena_slots() > slots, "round {round} relocated no row");
            assert!(pair.out.arena_slots() <= arena_bound(pair.num_edges()), "round {round}");
        }
        assert_eq!(buffers(&pair), before, "a relocation reallocated an arena");
        assert_eq!(pair.validate(), Ok(()));
    }

    /// Every non-empty row has the compacted layout's slack, and the arena
    /// sits at most a quarter above the live edges.
    fn assert_compacted_layout(g: &Csr) {
        for v in 0..g.num_vertices() {
            let (len, cap) = (g.rows[v].len(), g.rows[v].cap());
            assert!(cap >= len + len / 4, "row {v}: {len} live edges in {cap} slots");
        }
        assert!(g.arena_slots() * 4 <= g.num_edges() * 5 + 4 * COMPACT_SLOP);
        assert_eq!(g.validate(), Ok(()));
    }

    // Kills the slack-term mutants of xtask/mutation_corpus.txt: a
    // compaction that re-densifies (`len / 4` -> 0) or over-pads
    // (`/` -> `*`) breaks one of the two bounds.
    #[test]
    fn compaction_leaves_proportional_slack_under_the_trigger() {
        // Row u holds u edges (degrees 0..=40), laid out as compaction
        // lays them.
        let n = 41u32;
        let edges: Vec<_> =
            (1..n).flat_map(|u| (1..=u).map(move |d| (u, (u + d) % n, 1.0))).collect();
        let mut g = Csr::from_edges(ix(n), &edges);
        assert_compacted_layout(&g);
        // Every row doubles (relocating), then loses what it gained and
        // a little more: mostly garbage, so the trigger fires.
        for u in 1..n {
            for d in u + 1..=(2 * u).min(n - 1) {
                g.insert_edge(u, (u + d) % n, 1.0).expect("fresh edge");
            }
        }
        for u in 1..n {
            for d in u / 2..=(2 * u).min(n - 1) {
                let _ = g.delete_edge(u, (u + d) % n);
            }
        }
        assert!(g.maybe_compact(), "the churn left the arena under the trigger");
        assert_compacted_layout(&g);
        assert!(!g.maybe_compact(), "the trigger fired twice in a row");
    }

    // Degree-1 rows get no slack from a compaction, so every insert into
    // one relocates it: the garbage that buys the next compaction. A star
    // (one hub row whose degree drifts) plus a path (many degree-1 rows)
    // churned for 10^4 batches compacts a bounded number of times, never in
    // two batches running. Re-densifying the hub as well (`len / 4` -> 0)
    // relocates it on its first growth after every compaction and breaks
    // the bound.
    #[test]
    fn degree_one_churn_compacts_a_bounded_number_of_times() {
        const LEAVES: u32 = 600;
        const PATH: u32 = 400;
        let n = 1 + LEAVES + PATH;
        let mut edges: Vec<_> = (1..=LEAVES).map(|v| (0, v, 1.0)).collect();
        edges.extend((LEAVES + 1..n - 1).map(|v| (v, v + 1, 1.0)));
        let mut pair = pair_of(&edges, ix(n));
        let mut rng = crate::rng::DetRng::seed_from_u64(0x5eed);
        let mut pick = |below: u32| vid(rng.gen_index(ix(below)));
        let (mut compactions, mut last) = (0usize, None);
        for b in 0..10_000usize {
            let mut batch = UpdateBatch::new();
            // The hub gains a vertex it does not reach yet, or drops a leaf.
            if pick(2) == 0 {
                let fresh = loop {
                    let t = 1 + pick(n - 1);
                    if !pair.out.has_edge(0, t) {
                        break t;
                    }
                };
                batch.insert(0, fresh, 1.0);
            } else {
                let row = pair.out.neighbor_targets(0);
                batch.delete(0, row[ix(pick(vid(row.len())))]);
            }
            // A path vertex gains a second out-edge, or drops it again.
            let u = LEAVES + 1 + pick(PATH - 1);
            match *pair.out.neighbor_targets(u) {
                [_] => batch.insert(u, (u + 2 + pick(50)) % n, 1.0),
                [a, b] => batch.delete(u, if a == u + 1 { b } else { a }),
                ref row => panic!("path vertex {u} has out-edges {row:?}"),
            };
            let before = pair.out.arena_slots() + pair.inc.arena_slots();
            pair.apply_batch(&batch).expect("the churn keeps every batch valid");
            if pair.out.arena_slots() + pair.inc.arena_slots() < before {
                assert_ne!(
                    last,
                    Some(b.wrapping_sub(1)),
                    "compactions in batches {b} and the last"
                );
                compactions += 1;
                last = Some(b);
            }
        }
        assert_eq!(pair.validate(), Ok(()));
        // 17 with the slack, 51 without it on the hub.
        assert!((1..=25).contains(&compactions), "{compactions} compactions in 10^4 batches");
    }

    // Kills the stamp mutants of xtask/mutation_corpus.txt (`version += 1`
    // -> `+= 0` on either writer): a commit after any write since the
    // check — an insert or a delete, to a graph or to a pair's `out` —
    // must panic instead of writing a batch nobody checked.
    #[test]
    fn committing_a_stale_checked_batch_panics() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let base = [(0, 1, 1.0), (1, 2, 2.0)];
        let mut batch = UpdateBatch::new();
        batch.insert(2, 0, 3.0);
        let write = |what, g: &mut Csr| match what {
            "insert" => g.insert_edge(0, 2, 1.0).expect("fresh edge"),
            _ => drop(g.delete_edge(1, 2).expect("edge exists")),
        };
        for what in ["insert", "delete"] {
            let mut g = Csr::from_edges(3, &base);
            let checked = g.check_batch(&batch).expect("valid batch");
            write(what, &mut g);
            let stale = catch_unwind(AssertUnwindSafe(|| g.commit(checked)));
            assert!(stale.is_err(), "{what} since the check: the graph commit must panic");

            let mut pair = pair_of(&base, 3);
            let checked = pair.out.check_batch(&batch).expect("valid batch");
            write(what, &mut pair.out);
            let stale = catch_unwind(AssertUnwindSafe(|| pair.commit(checked)));
            assert!(stale.is_err(), "{what} since the check: the pair commit must panic");
        }
        // A fresh token commits.
        let mut pair = pair_of(&base, 3);
        let checked = pair.out.check_batch(&batch).expect("valid batch");
        pair.commit(checked);
        assert_eq!(pair.out.edge_weight(2, 0), Some(3.0));
        assert_eq!(pair.inc.neighbor_targets(0), [2]);
    }

    #[test]
    fn delete_then_reinsert_same_batch_is_a_weight_change() {
        let mut pair = pair_of(&[(0, 1, 1.0), (1, 0, 2.0)], 2);
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        batch.insert(0, 1, 7.5);
        pair.apply_batch(&batch).expect("valid batch applies");
        assert_eq!(pair.out.edge_weight(0, 1), Some(7.5));
        assert_eq!(pair.inc.neighbor_targets(1), [0]);
        assert_eq!(pair.num_edges(), 2);
    }
}
