//! Minimum-edge-cut graph slicing and contiguous sharding.
//!
//! GraphPulse's on-chip event queue holds one entry per vertex, so graphs
//! larger than the queue are partitioned into slices processed one at a time
//! (§4.7). The paper uses PuLP for edge-cut-based slicing; this module is the
//! substitute: a greedy BFS-grow partitioner that fills one slice at a time
//! with breadth-first neighborhoods, which keeps most edges internal for the
//! community-structured graphs JetStream targets.
//!
//! The module also builds the contiguous-range partition the sharded engine
//! uses for vertex ownership ([`Partition::contiguous_balanced`], balanced
//! by degree): contiguous ranges
//! let per-vertex state be split into disjoint mutable slices, one per
//! worker, and model the paper's §4 partitioning of event queues across
//! processing lanes.
//!
//! # Contract
//!
//! Every constructor assigns **every** vertex — including isolated ones —
//! to exactly one slice `< num_slices()`, so `slice_len` summed over all
//! slices equals the vertex count. [`Partition::validate`] checks this and
//! the boundary tests below pin it for `num_slices ∈ {1, V, > V}`.

use std::collections::VecDeque;
use std::ops::Range;

use crate::{ix, vid, Csr, VertexId};

/// A slicing of a graph into `num_slices` vertex-disjoint slices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    slice_of: Vec<u32>,
    num_slices: u32,
}

impl Partition {
    /// Puts every vertex in slice 0 (the trivial partition used when the
    /// whole graph fits in the event queue).
    pub fn single(num_vertices: usize) -> Self {
        Partition { slice_of: vec![0; num_vertices], num_slices: 1 }
    }

    /// Splits `0..n` into `num_slices` contiguous ranges balanced by
    /// *degree* rather than by vertex count: slice boundaries are placed so
    /// each range carries roughly `1/num_slices` of the total `degree + 1`
    /// weight. On power-law graphs (where low vertex ids concentrate the
    /// hubs) this evens out per-shard event-processing work, which a split
    /// by vertex count cannot.
    ///
    /// Contiguity is what the sharded engine needs for vertex ownership:
    /// [`contiguous_ranges`](Partition::contiguous_ranges) on the result is
    /// always `Some`. When `num_slices > num_vertices`, trailing slices are
    /// empty but still counted by [`num_slices`](Partition::num_slices).
    ///
    /// # Panics
    ///
    /// Panics if `num_slices` is zero.
    pub fn contiguous_balanced(graph: &Csr, num_slices: u32) -> Self {
        assert!(num_slices > 0, "need at least one slice");
        let n = graph.num_vertices();
        let s = ix(num_slices);
        let total: u64 = (0..n).map(|v| graph.degree(vid(v)) as u64 + 1).sum();
        let mut slice_of = Vec::with_capacity(n);
        let mut acc = 0u64;
        for v in 0..n {
            // Boundary rule: vertex v belongs to the slice whose share of
            // the cumulative weight its midpoint falls into.
            let slice = ((acc * s as u64) / total.max(1)).min(num_slices as u64 - 1) as u32; // cast-ok: clamped to num_slices - 1, which is a u32
            slice_of.push(slice);
            acc += graph.degree(vid(v)) as u64 + 1;
        }
        Partition { slice_of, num_slices }
    }

    /// Greedy BFS-grow edge-cut partitioning into `num_slices` balanced
    /// slices (PuLP stand-in).
    ///
    /// Slices are grown one at a time from unassigned seed vertices by BFS,
    /// with a per-slice capacity of `ceil(n / num_slices)`; spill-over
    /// continues into the next slice.
    ///
    /// # Contract
    ///
    /// Every vertex is assigned a slice `< num_slices`, *including isolated
    /// vertices*: when a slice's BFS frontier empties, growth reseeds from
    /// the lowest unassigned vertex id, so vertices unreachable from any
    /// earlier seed (isolated or in a separate component) are still swept
    /// up — they join whichever slice is currently growing, **not**
    /// necessarily slice 0. `slice_len` summed over all slices therefore
    /// equals `num_vertices`; [`validate`](Partition::validate) checks
    /// this. When `num_slices > num_vertices`, the trailing slices stay
    /// empty but are still reported by
    /// [`num_slices`](Partition::num_slices).
    ///
    /// # Panics
    ///
    /// Panics if `num_slices` is zero.
    pub fn bfs_grow(graph: &Csr, num_slices: u32) -> Self {
        assert!(num_slices > 0, "need at least one slice");
        let n = graph.num_vertices();
        if num_slices == 1 {
            return Partition::single(n);
        }
        if n == 0 {
            // Keep the requested slice count: callers sizing per-slice
            // structures from `num_slices()` must not see it collapse to 1.
            return Partition { slice_of: Vec::new(), num_slices };
        }
        let capacity = n.div_ceil(ix(num_slices));
        let mut slice_of = vec![u32::MAX; n];
        let mut current = 0u32;
        let mut filled = 0usize;
        let mut queue: VecDeque<VertexId> = VecDeque::new();
        let mut next_seed = 0usize;
        let mut assigned = 0usize;
        while assigned < n {
            let v = match queue.pop_front() {
                Some(v) if slice_of[ix(v)] == u32::MAX => v,
                Some(_) => continue,
                None => {
                    while next_seed < n && slice_of[next_seed] != u32::MAX {
                        next_seed += 1;
                    }
                    vid(next_seed)
                }
            };
            slice_of[ix(v)] = current;
            assigned += 1;
            filled += 1;
            if filled >= capacity && current + 1 < num_slices {
                current += 1;
                filled = 0;
                queue.clear();
            } else {
                for e in graph.neighbors(v) {
                    if slice_of[ix(e.other)] == u32::MAX {
                        queue.push_back(e.other);
                    }
                }
            }
        }
        Partition { slice_of, num_slices }
    }

    /// The slice holding vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn slice_of(&self, v: VertexId) -> u32 {
        self.slice_of[ix(v)]
    }

    /// Number of slices.
    pub fn num_slices(&self) -> u32 {
        self.num_slices
    }

    /// Number of vertices assigned to `slice`.
    pub fn slice_len(&self, slice: u32) -> usize {
        self.slice_of.iter().filter(|&&s| s == slice).count()
    }

    /// The slices as contiguous vertex ranges, when this partition is
    /// contiguous: slice ids are non-decreasing over `0..n` (empty slices
    /// allowed anywhere). Returns one `Range` per slice, covering
    /// `0..num_vertices` exactly; `None` when any slice is fragmented
    /// (e.g. most [`bfs_grow`](Partition::bfs_grow) results).
    pub fn contiguous_ranges(&self) -> Option<Vec<Range<usize>>> {
        let n = self.slice_of.len();
        let mut ranges = Vec::with_capacity(ix(self.num_slices));
        let mut start = 0usize;
        let mut current = 0u32;
        for (v, &s) in self.slice_of.iter().enumerate() {
            if s < current {
                return None;
            }
            while current < s {
                ranges.push(start..v);
                start = v;
                current += 1;
            }
        }
        while current < self.num_slices {
            ranges.push(start..n);
            start = n;
            current += 1;
        }
        Some(ranges)
    }

    /// Checks the partition contract: every vertex is assigned a slice
    /// `< num_slices`, and per-slice lengths sum to the vertex count.
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_slices == 0 {
            return Err("partition has zero slices".to_string());
        }
        for (v, &s) in self.slice_of.iter().enumerate() {
            if s >= self.num_slices {
                return Err(format!(
                    "vertex {v} assigned to slice {s}, but there are only {} slices",
                    self.num_slices
                ));
            }
        }
        let total: usize = (0..self.num_slices).map(|s| self.slice_len(s)).sum();
        if total != self.slice_of.len() {
            return Err(format!(
                "slice lengths sum to {total} but the partition covers {} vertices",
                self.slice_of.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn single_partition_assigns_all_to_zero() {
        let p = Partition::single(10);
        assert_eq!(p.num_slices(), 1);
        assert_eq!(p.slice_len(0), 10);
        assert_eq!(p.slice_of(7), 0);
    }

    #[test]
    fn bfs_grow_assigns_every_vertex() {
        let g = gen::erdos_renyi(200, 600, 1).snapshot();
        let p = Partition::bfs_grow(&g, 4);
        for v in 0..200 {
            assert!(p.slice_of(v) < 4);
        }
    }

    #[test]
    fn bfs_grow_balances_slices() {
        let g = gen::erdos_renyi(400, 1600, 2).snapshot();
        let p = Partition::bfs_grow(&g, 4);
        for s in 0..4 {
            let len = p.slice_len(s);
            assert!((50..=150).contains(&len), "slice {s} has {len} vertices");
        }
    }

    #[test]
    fn bfs_grow_beats_random_cut_on_community_graph() {
        // Two dense communities joined by one edge: BFS-grow should cut few.
        let mut edges = Vec::new();
        for i in 0..50u32 {
            for j in 0..50u32 {
                if i != j && (i + j) % 7 == 0 {
                    edges.push((i, j, 1.0));
                    edges.push((i + 50, j + 50, 1.0));
                }
            }
        }
        edges.push((0, 50, 1.0));
        let g = Csr::from_edges(100, &edges);
        let p = Partition::bfs_grow(&g, 2);
        let cut = g.iter_edges().filter(|&(u, v, _)| p.slice_of(u) != p.slice_of(v)).count();
        assert!(2 * cut < g.num_edges(), "{cut} of {} edges cut", g.num_edges());
    }

    #[test]
    fn one_slice_is_trivial() {
        let g = gen::erdos_renyi(50, 100, 3).snapshot();
        let p = Partition::bfs_grow(&g, 1);
        assert_eq!(p, Partition::single(50));
    }

    #[test]
    fn handles_disconnected_graphs() {
        let g = Csr::from_edges(10, &[(0, 1, 1.0), (8, 9, 1.0)]);
        let p = Partition::bfs_grow(&g, 3);
        for v in 0..10 {
            assert!(p.slice_of(v) < 3);
        }
    }

    #[test]
    #[should_panic(expected = "at least one slice")]
    fn zero_slices_panics() {
        let g = Csr::new(4);
        let _ = Partition::bfs_grow(&g, 0);
    }

    /// The bfs_grow contract on a graph that is *only* isolated vertices:
    /// BFS can never reach them, so every one must come from reseeding.
    #[test]
    fn bfs_grow_assigns_isolated_vertices() {
        let g = Csr::new(9);
        for slices in [1u32, 3, 9, 12] {
            let p = Partition::bfs_grow(&g, slices);
            assert_eq!(p.validate(), Ok(()), "num_slices = {slices}");
            assert_eq!(p.num_slices(), slices);
            let total: usize = (0..slices).map(|s| p.slice_len(s)).sum();
            assert_eq!(total, 9, "num_slices = {slices}");
        }
    }

    /// Isolated vertices mixed into a connected component still all land in
    /// some slice, and the slice lengths account for every vertex.
    #[test]
    fn bfs_grow_contract_with_mixed_isolation() {
        // Vertices 0..4 form a path; 4..10 are isolated.
        let g = Csr::from_edges(10, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        for slices in [1u32, 2, 10, 15] {
            let p = Partition::bfs_grow(&g, slices);
            assert_eq!(p.validate(), Ok(()), "num_slices = {slices}");
            for v in 0..10 {
                assert!(p.slice_of(v) < slices);
            }
            let total: usize = (0..slices).map(|s| p.slice_len(s)).sum();
            assert_eq!(total, 10, "num_slices = {slices}");
        }
    }

    /// Boundary slice counts: 1, V, and > V. More slices than vertices
    /// leaves trailing slices empty without collapsing the reported count.
    #[test]
    fn bfs_grow_boundary_slice_counts() {
        let g = gen::erdos_renyi(6, 12, 7).snapshot();
        let one = Partition::bfs_grow(&g, 1);
        assert_eq!(one.num_slices(), 1);
        assert_eq!(one.slice_len(0), 6);

        let per_vertex = Partition::bfs_grow(&g, 6);
        assert_eq!(per_vertex.num_slices(), 6);
        assert_eq!(per_vertex.validate(), Ok(()));

        let extra = Partition::bfs_grow(&g, 9);
        assert_eq!(extra.num_slices(), 9);
        assert_eq!(extra.validate(), Ok(()));
        let total: usize = (0..9).map(|s| extra.slice_len(s)).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn bfs_grow_empty_graph_keeps_requested_slices() {
        let g = Csr::new(0);
        let p = Partition::bfs_grow(&g, 4);
        assert_eq!(p.num_slices(), 4);
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn contiguous_balanced_covers_all_vertices_in_ranges() {
        for (n, s) in [(10usize, 3u32), (10, 1), (10, 10), (3, 8), (0, 2)] {
            let p = Partition::contiguous_balanced(&Csr::new(n), s);
            assert_eq!(p.validate(), Ok(()), "n = {n}, slices = {s}");
            assert_eq!(p.num_slices(), s);
            let ranges = p.contiguous_ranges().unwrap_or_default();
            assert_eq!(ranges.len(), s as usize);
            let covered: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(covered, n);
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(n));
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
        }
    }

    #[test]
    fn contiguous_balanced_evens_out_degree_weight() {
        // Hub-heavy head: vertex 0 has 30 out-edges, the tail is sparse.
        let mut edges = Vec::new();
        for v in 1..=30u32 {
            edges.push((0, v, 1.0));
        }
        for v in 31..60u32 {
            edges.push((v, v - 1, 1.0));
        }
        let g = Csr::from_edges(60, &edges);
        let p = Partition::contiguous_balanced(&g, 4);
        assert_eq!(p.validate(), Ok(()));
        let ranges = p.contiguous_ranges().unwrap_or_default();
        assert_eq!(ranges.len(), 4);
        // The hub shard must hold far fewer vertices than a plain even
        // split (15) would give it.
        assert!(ranges[0].len() < 15, "hub range holds {} vertices", ranges[0].len());
        // Weight per shard (degree + 1) stays within 2x of the ideal share.
        let weight = |r: &std::ops::Range<usize>| -> u64 {
            r.clone().map(|v| g.degree(v as VertexId) as u64 + 1).sum()
        };
        let total: u64 = weight(&(0..60));
        for r in &ranges {
            assert!(weight(r) <= total / 2, "range {r:?} carries {} of {total}", weight(r));
        }
    }

    #[test]
    fn contiguous_ranges_rejects_fragmented_partitions() {
        // 0 and 2 in slice 0, 1 in slice 1: not contiguous.
        let p = Partition { slice_of: vec![0, 1, 0], num_slices: 2 };
        assert_eq!(p.contiguous_ranges(), None);
    }

    #[test]
    fn validate_rejects_out_of_range_assignment() {
        let p = Partition { slice_of: vec![0, 5], num_slices: 2 };
        assert!(p.validate().is_err());
    }
}
