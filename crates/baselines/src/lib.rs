//! Software streaming-graph baselines for JetStream.
//!
//! The paper compares JetStream against the two state-of-the-art software
//! frameworks that support edge deletions:
//!
//! * **KickStarter** (Vora et al., ASPLOS'17) for *selective* (monotonic)
//!   algorithms — implemented in [`KickStarter`]: BSP push-style value
//!   iteration with a dependency tree; on deletion it tags the transitively
//!   dependent vertices, resets them, *trims* their approximations by
//!   re-reading all in-neighbor states (the random-read overhead JetStream's
//!   request events eliminate), and reconverges synchronously.
//! * **GraphBolt** (Mariappan & Vora, EuroSys'19) for *accumulative*
//!   algorithms — implemented in [`GraphBolt`]: synchronous (Jacobi)
//!   iterations with per-iteration aggregation history; a mutation
//!   invalidates a frontier of vertices at iteration 1 and the refinement
//!   propagates forward through the stored iterations, recomputing only
//!   changed aggregations.
//!
//! Both expose the same `initial_compute` / `apply_batch` API as the
//! JetStream engine so that the benchmark harness can time all three systems
//! on identical workloads. Results are validated against the sequential
//! oracles in tests.

mod graphbolt;
mod kickstarter;
mod stats;

pub mod parallel;

pub use graphbolt::GraphBolt;
pub use kickstarter::KickStarter;
pub use stats::SoftwareStats;

use jetstream_graph::{Csr, GraphError, UpdateBatch};

/// A graph and its weighted transpose, updated together. Both baselines
/// pull in-edges *with* their weights (KickStarter's trimming, GraphBolt's
/// aggregation), which the engine's weightless in-edge view does not keep.
#[derive(Debug)]
struct WeightedPair {
    out: Csr,
    inc: Csr,
}

impl WeightedPair {
    fn new(out: Csr) -> Self {
        let inc = out.transpose();
        WeightedPair { out, inc }
    }

    fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.out.num_edges()
    }

    /// Applies `batch` to `out` and, endpoints swapped, to `inc`. A batch
    /// valid for a graph is valid swapped for its transpose, so `inc`
    /// never rejects what `out` accepted.
    fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<(), GraphError> {
        self.out.apply_batch(batch)?;
        let mut swapped = UpdateBatch::new();
        for &(u, v) in batch.deletions() {
            swapped.delete(v, u);
        }
        for &(u, v, w) in batch.insertions() {
            swapped.insert(v, u, w);
        }
        self.inc.apply_batch(&swapped)
    }
}
