//! Seeded `O(batch)` churn stream: the benchmark's update generator.
//!
//! `jetstream_graph::gen::EdgeStream::next_batch` collects every present
//! edge per batch (`O(E)`, ≈ 20 ms at the graph sizes used here), which
//! over thousands of batches would dominate set-up time. This generator
//! keeps the two sides of the hold-out methodology as flat vectors — the
//! *present* edges and the held-out *pool* — and moves edges between them
//! by `swap_remove` at a random index, so a batch costs `O(batch)`.
//!
//! Every batch is half deletions, half insertions (rounded so the present
//! set keeps its size), which makes `|E|` and therefore per-batch cost
//! stationary over any number of batches; the paper's 70/30 mix drains a
//! 10 % pool after ~170 batches of 1000.
//!
//! Deletions are drawn first, from the pre-batch present set; insertions
//! from the pre-batch pool. An edge is always in exactly one of the two,
//! so a batch never deletes what it inserts (an [`UpdateBatch`] applies
//! deletions first, so that pair would be invalid) and never inserts a
//! duplicate.

use jetstream_graph::rng::DetRng;
use jetstream_graph::{AdjacencyGraph, EdgeUpdate, UpdateBatch, VertexId, Weight};

type Edge = (VertexId, VertexId, Weight);

/// A stationary insert/delete stream over the edges of one full graph.
#[derive(Debug, Clone)]
pub struct ChurnStream {
    present: Vec<Edge>,
    pool: Vec<Edge>,
    rng: DetRng,
}

impl ChurnStream {
    /// Splits `full` into the base graph and a stream whose pool holds
    /// `holdout` (a fraction in `(0, 1)`) of its edges, chosen by `seed`.
    pub fn split(full: &AdjacencyGraph, holdout: f64, seed: u64) -> (AdjacencyGraph, ChurnStream) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut edges: Vec<Edge> = full.iter_edges().collect();
        let n = edges.len();
        let held = ((n as f64 * holdout.clamp(0.0, 1.0)) as usize).clamp(n.min(1), n);
        // Partial Fisher-Yates: the first `held` slots become the pool.
        for i in 0..held {
            let j = rng.gen_range(i, n);
            edges.swap(i, j);
        }
        let present = edges.split_off(held);
        let base = AdjacencyGraph::from_edges(full.num_vertices(), &present);
        (base, ChurnStream { present, pool: edges, rng })
    }

    /// The next `size` updates: `size / 2` deletions of present edges and
    /// as many insertions from the pool, so `|E|` never changes (an odd
    /// `size` rounds down; both halves shrink together if either side has
    /// fewer than `size / 2` edges to give).
    pub fn next_batch(&mut self, size: usize) -> UpdateBatch {
        let half = (size / 2).min(self.present.len()).min(self.pool.len());
        let mut batch = UpdateBatch::new();
        let mut deleted = Vec::with_capacity(half);
        for _ in 0..half {
            let i = self.rng.gen_index(self.present.len());
            let edge = self.present.swap_remove(i);
            batch.delete(edge.0, edge.1);
            deleted.push(edge);
        }
        for _ in 0..half {
            let i = self.rng.gen_index(self.pool.len());
            let edge = self.pool.swap_remove(i);
            batch.insert(edge.0, edge.1, edge.2);
            self.present.push(edge);
        }
        self.pool.append(&mut deleted);
        batch
    }
}

/// One batch as a wire message: deletions first, matching the order an
/// [`UpdateBatch`] applies them in, so admission validates it the way the
/// engine will apply it.
pub fn as_message(batch: &UpdateBatch) -> Vec<EdgeUpdate> {
    let deletes =
        batch.deletions().iter().map(|&(source, target)| EdgeUpdate::Delete { source, target });
    let inserts = batch.insertions().iter().map(|&(source, target, weight)| EdgeUpdate::Insert {
        source,
        target,
        weight,
    });
    deletes.chain(inserts).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetstream_graph::gen;

    fn full() -> AdjacencyGraph {
        gen::rmat(2048, 40_000, gen::RmatParams::default(), 5)
    }

    #[test]
    fn same_seed_same_stream_and_other_seed_differs() {
        let full = full();
        let (base_a, mut a) = ChurnStream::split(&full, 0.1, 42);
        let (base_b, mut b) = ChurnStream::split(&full, 0.1, 42);
        let (base_c, mut c) = ChurnStream::split(&full, 0.1, 43);
        assert_eq!(base_a, base_b);
        assert_ne!(base_a, base_c);
        let mut differs = false;
        for _ in 0..50 {
            let (x, y, z) = (a.next_batch(100), b.next_batch(100), c.next_batch(100));
            assert_eq!(x, y);
            differs |= x != z;
        }
        assert!(differs);
    }

    #[test]
    fn three_thousand_batches_apply_cleanly_and_stay_stationary() {
        let full = full();
        let (mut graph, mut stream) = ChurnStream::split(&full, 0.1, 7);
        let edges = graph.num_edges();
        assert_eq!(edges + stream.pool.len(), full.num_edges());
        let (mut inserts, mut deletes) = (0usize, 0usize);
        for i in 0..3000 {
            let batch = stream.next_batch(100);
            assert_eq!(batch.len(), 100, "batch {i} came up short");
            inserts += batch.insertions().len();
            deletes += batch.deletions().len();
            graph.apply_batch(&batch).expect("stream batches are valid by construction");
            assert_eq!(graph.num_edges(), edges, "|E| drifted at batch {i}");
        }
        assert_eq!(inserts, deletes);
        assert_eq!(stream.present.len(), edges);
        // Everything the stream inserted came from the full graph.
        for (u, v, w) in graph.iter_edges() {
            assert_eq!(full.edge_weight(u, v), Some(w));
        }
    }

    #[test]
    fn odd_sizes_round_down_to_a_balanced_batch() {
        let (_, mut stream) = ChurnStream::split(&full(), 0.1, 1);
        let batch = stream.next_batch(7);
        assert_eq!((batch.deletions().len(), batch.insertions().len()), (3, 3));
    }

    #[test]
    fn messages_put_deletions_first() {
        let (_, mut stream) = ChurnStream::split(&full(), 0.1, 3);
        let batch = stream.next_batch(10);
        let msg = as_message(&batch);
        assert_eq!(msg.len(), 10);
        assert!(msg[..5].iter().all(|u| !u.is_insert()));
        assert!(msg[5..].iter().all(EdgeUpdate::is_insert));
    }
}
