//! An independent model of the evolving graph for differential tests.
//!
//! The engine, the baselines and the benchmark's replay all keep their
//! edges in [`Csr`], so a test that replays batches through a second `Csr`
//! compares the arena code with itself. [`EdgeModel`] shares none of it: an
//! ordered map from `(source, target)` to weight, whose iteration order is
//! the traversal order a correct CSR must show.

use std::collections::BTreeMap;

use jetstream_graph::{ix, vid, Csr, CsrPair, UpdateBatch, VertexId, Weight};

/// A simple directed graph as an ordered edge map.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeModel {
    num_vertices: usize,
    edges: BTreeMap<(VertexId, VertexId), Weight>,
}

impl EdgeModel {
    /// The model of `graph` as it stands.
    pub fn of(graph: &Csr) -> Self {
        EdgeModel {
            num_vertices: graph.num_vertices(),
            edges: graph.iter_edges().map(|(u, v, w)| ((u, v), w)).collect(),
        }
    }

    /// Applies a batch the way the paper states it: deletions, then
    /// insertions.
    ///
    /// # Panics
    ///
    /// Panics on a deletion of an absent edge or an insertion of a present
    /// one — the model judges validity by its own rules, so a generator
    /// (or a graph) that disagrees with it is caught here.
    pub fn apply(&mut self, batch: &UpdateBatch) {
        for &(u, v) in batch.deletions() {
            assert!(self.edges.remove(&(u, v)).is_some(), "model: delete of absent {u}->{v}");
        }
        for &(u, v, w) in batch.insertions() {
            assert!(u != v && ix(u.max(v)) < self.num_vertices, "model: bad edge {u}->{v}");
            assert!(self.edges.insert((u, v), w).is_none(), "model: insert of present {u}->{v}");
        }
    }

    /// Every edge as `(source, target, weight)`, ascending by
    /// `(source, target)`: what `Csr::iter_edges` must yield.
    pub fn edges(&self) -> Vec<(VertexId, VertexId, Weight)> {
        self.edges.iter().map(|(&(u, v), &w)| (u, v, w)).collect()
    }

    /// Asserts that `pair` is the model's graph: both traversal sequences
    /// (the out view's `(u, v, w)` triples, the in view's `(v, u)` pairs),
    /// equality with a from-scratch build of the model's edge list, and
    /// the pair's own structural validity.
    ///
    /// # Panics
    ///
    /// Panics, naming `ctx`, on the first disagreement.
    pub fn assert_matches(&self, pair: &CsrPair, ctx: &str) {
        assert_eq!(pair.validate(), Ok(()), "{ctx}: maintained pair must validate");
        let forward = self.edges();
        // Traversal is the contract: the exact edge sequence the kernel
        // would dereference, not just set equality.
        assert_eq!(pair.out.iter_edges().collect::<Vec<_>>(), forward, "{ctx}: out traversal");
        // The in-edge view holds no weights: row `v` lists the sources
        // `u` of the edges into `v`, so it traverses as `(v, u)` pairs.
        let mut backward: Vec<_> = forward.iter().map(|&(u, v, _)| (v, u)).collect();
        backward.sort_unstable();
        let inc = &pair.inc;
        let in_pairs: Vec<_> = (0..self.num_vertices)
            .map(vid)
            .flat_map(|v| inc.neighbor_targets(v).iter().map(move |&u| (v, u)))
            .collect();
        assert_eq!(in_pairs, backward, "{ctx}: in traversal");
        let rebuilt = CsrPair::new(Csr::from_edges(self.num_vertices, &forward));
        assert_eq!(*pair, rebuilt, "{ctx}: maintained pair differs from the rebuild");
    }
}
