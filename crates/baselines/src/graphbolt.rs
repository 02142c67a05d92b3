use std::collections::BTreeSet;

use jetstream_algorithms::{Algorithm, EdgeCtx, UpdateKind, Value};
use jetstream_graph::{Csr, EdgeRef, GraphError, UpdateBatch, VertexId};

use crate::parallel::{baseline_threads, par_map};
use crate::{SoftwareStats, WeightedPair};

/// Per-vertex *relative* refinement threshold: an aggregation change below
/// this fraction of the vertex's magnitude does not propagate to the next
/// iteration (matching the engine's relative accumulative epsilon).
const REFINE_EPSILON: Value = 1e-5;

/// Magnitude floor for the relative test (the smallest seed mass).
const SCALE_FLOOR: Value = 0.05;

/// Hard cap on synchronous iterations (a safety net; convergence is
/// geometric for damping < 1).
const MAX_ITERATIONS: usize = 10_000;

/// GraphBolt-style streaming framework for accumulative algorithms.
///
/// Follows the structure of Mariappan & Vora's GraphBolt (EuroSys'19), the
/// software system the paper benchmarks against for PageRank and Adsorption:
/// the static computation is a synchronous (Jacobi/BSP) iteration
/// `x⁽ⁱ⁾ = seed + Σ_in contribution(x⁽ⁱ⁻¹⁾)`, and every iteration's vertex
/// values are retained as *dependency information*. A graph mutation
/// invalidates the aggregations of directly affected vertices at iteration 1;
/// refinement then walks forward through the stored iterations, recomputing
/// only vertices whose inputs changed, until the frontier dies out — the
/// incremental cost scales with the size of the changed region rather than
/// the graph.
///
/// # Example
///
/// ```
/// use jetstream_baselines::GraphBolt;
/// use jetstream_algorithms::PageRank;
/// use jetstream_graph::{Csr, UpdateBatch};
///
/// # fn main() -> Result<(), jetstream_graph::GraphError> {
/// let mut g = Csr::new(2);
/// g.insert_edge(0, 1, 1.0)?;
/// let mut gb = GraphBolt::new(Box::new(PageRank::default()), g);
/// gb.initial_compute();
/// assert!((gb.values()[1] - (0.15 + 0.85 * 0.15)).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// [`GraphBolt::new`] panics when given a selective algorithm; use
/// [`KickStarter`](crate::KickStarter) for those.
#[derive(Debug)]
pub struct GraphBolt {
    alg: Box<dyn Algorithm>,
    /// The graph and its weighted transpose, maintained together (pulls read
    /// in-edges).
    pair: WeightedPair,
    /// Cached out-degrees and out-weight-sums (contribution normalizers).
    degree: Vec<usize>,
    weight_sum: Vec<Value>,
    /// `history[i][v]` = x⁽ⁱ⁾_v; `history[0]` is the seed vector.
    history: Vec<Vec<Value>>,
    stats: SoftwareStats,
}

impl GraphBolt {
    /// Creates a GraphBolt instance for an accumulative algorithm over
    /// `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `alg` is selective.
    pub fn new(alg: Box<dyn Algorithm>, graph: Csr) -> Self {
        assert_eq!(
            alg.kind(),
            UpdateKind::Accumulative,
            "GraphBolt handles accumulative algorithms; use KickStarter for selective ones"
        );
        let n = graph.num_vertices();
        let degree = (0..n as VertexId).map(|v| graph.degree(v)).collect();
        let weight_sum =
            (0..n as VertexId).map(|v| graph.neighbors(v).map(|e| e.weight).sum()).collect();
        GraphBolt {
            alg,
            pair: WeightedPair::new(graph),
            degree,
            weight_sum,
            history: Vec::new(),
            stats: SoftwareStats::default(),
        }
    }

    /// Converged vertex values (the last stored iteration).
    pub fn values(&self) -> &[Value] {
        self.history.last().map_or(&[], |v| v.as_slice())
    }

    /// The evolving graph.
    pub fn graph(&self) -> &Csr {
        &self.pair.out
    }

    fn seed_vector(&self) -> Vec<Value> {
        (0..self.pair.num_vertices() as VertexId)
            .map(|v| self.alg.initial_event(v).unwrap_or(0.0))
            .collect()
    }

    /// One edge's contribution to `v` given the source's previous-iteration
    /// value.
    fn contribution(&self, u: VertexId, weight: Value, x_u: Value) -> Value {
        let ctx = EdgeCtx {
            weight,
            out_degree: self.degree[u as usize],
            weight_sum: self.weight_sum[u as usize],
        };
        self.alg.cumulative_edge_contribution(x_u, &ctx).unwrap_or(0.0)
    }

    /// Recomputes `x⁽ⁱ⁾_v` by pulling over all in-edges from iteration
    /// `i - 1`.
    fn pull(&mut self, v: VertexId, prev: &[Value], seed: &[Value]) -> Value {
        let in_degree = self.pair.inc.degree(v);
        self.stats.edge_reads += in_degree as u64;
        self.stats.vertex_reads += in_degree as u64;
        self.pull_pure(v, prev, seed)
    }

    /// The side-effect-free pull used by the parallel rounds (statistics
    /// are aggregated by the caller).
    fn pull_pure(&self, v: VertexId, prev: &[Value], seed: &[Value]) -> Value {
        let mut acc = seed[v as usize];
        for EdgeRef { other: u, weight } in self.pair.inc.neighbors(v) {
            acc += self.contribution(u, weight, prev[u as usize]);
        }
        acc
    }

    /// Full synchronous evaluation of the current graph version, storing
    /// every iteration (also the software cold-restart baseline).
    pub fn initial_compute(&mut self) -> SoftwareStats {
        self.stats = SoftwareStats::default();
        let n = self.pair.num_vertices();
        let seed = self.seed_vector();
        self.history = vec![seed.clone()];
        let threads = baseline_threads();
        let vertices: Vec<VertexId> = (0..n as VertexId).collect();
        let mut prev = seed.clone();
        for _ in 0..MAX_ITERATIONS {
            self.stats.rounds += 1;
            // Data-parallel BSP round: every vertex pulls from the frozen
            // previous iteration (the 36-core execution of Table 1).
            let next: Vec<Value> =
                par_map(&vertices, threads, |&v| self.pull_pure(v, &prev, &seed));
            let mut max_rel_delta: Value = 0.0;
            for v in 0..n {
                let scale = prev[v].abs().max(SCALE_FLOOR);
                max_rel_delta = max_rel_delta.max((next[v] - prev[v]).abs() / scale);
            }
            self.stats.vertex_writes += n as u64;
            let edges = self.pair.num_edges() as u64;
            self.stats.edge_reads += edges;
            self.stats.vertex_reads += edges;
            self.history.push(next.clone());
            prev = next;
            if max_rel_delta < REFINE_EPSILON {
                break;
            }
        }
        self.stats
    }

    /// Applies a streaming batch via dependency-driven refinement.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] when the batch is invalid against the
    /// current graph version.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<SoftwareStats, GraphError> {
        self.stats = SoftwareStats::default();
        assert!(!self.history.is_empty(), "initial_compute must run before streaming batches");
        self.pair.apply_batch(batch)?;
        let seed = self.seed_vector();

        // Vertices whose iteration-1 aggregation is invalidated: targets of
        // every edge whose source's normalization changed (all out-edges of
        // touched sources in both the old and new graph) — including targets
        // of deleted edges, which lose a contribution entirely.
        let touched: BTreeSet<VertexId> = batch
            .deletions()
            .iter()
            .map(|&(u, _)| u)
            .chain(batch.insertions().iter().map(|&(u, _, _)| u))
            .collect();
        // Refresh the cached normalizers of touched vertices.
        for &u in &touched {
            self.degree[u as usize] = self.pair.out.degree(u);
            self.weight_sum[u as usize] = self.pair.out.neighbors(u).map(|e| e.weight).sum();
        }
        let mut frontier: BTreeSet<VertexId> = BTreeSet::new();
        for &(_, v) in batch.deletions() {
            frontier.insert(v);
        }
        for &u in &touched {
            frontier.extend(self.pair.out.neighbor_targets(u));
        }
        self.stats.resets = frontier.len() as u64;

        // Refine forward through the stored iterations.
        let mut i = 1usize;
        while !frontier.is_empty() && i < MAX_ITERATIONS {
            self.stats.rounds += 1;
            if i >= self.history.len() {
                // The refinement needs more iterations than the stored
                // computation had: extend by replicating the converged tail
                // (history is non-empty: apply_batch asserts it up front).
                if let Some(last) = self.history.last().cloned() {
                    self.history.push(last);
                }
            }
            let prev = self.history[i - 1].clone();
            let mut next_frontier: BTreeSet<VertexId> = BTreeSet::new();
            let frontier_now: Vec<VertexId> = frontier.iter().copied().collect();
            for v in frontier_now {
                let x = self.pull(v, &prev, &seed);
                let old = self.history[i][v as usize];
                if (x - old).abs() > REFINE_EPSILON * old.abs().max(SCALE_FLOOR) {
                    self.history[i][v as usize] = x;
                    self.stats.vertex_writes += 1;
                    next_frontier.extend(self.pair.out.neighbor_targets(v));
                    // The vertex's own aggregation at i+1 also reads x⁽ⁱ⁾ of
                    // its in-neighbors, which did not change — but its value
                    // at i+1 must absorb today's change at i.
                    next_frontier.insert(v);
                }
            }
            frontier = next_frontier;
            i += 1;
        }
        Ok(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetstream_algorithms::{oracle, oracle_values, Workload};
    use jetstream_graph::gen;

    const TOL: Value = 5e-3;

    fn check(workload: Workload, g: &Csr, batch: &UpdateBatch) {
        let mut gb = GraphBolt::new(workload.instantiate(0), g.clone());
        gb.initial_compute();
        gb.apply_batch(batch).unwrap();
        let mut mutated = g.clone();
        mutated.apply_batch(batch).unwrap();
        let expected = oracle_values(workload, &mutated.snapshot(), 0);
        assert!(
            oracle::values_match_tol(gb.values(), &expected, TOL),
            "{} diverged from oracle",
            workload.name()
        );
    }

    #[test]
    fn initial_compute_matches_oracle() {
        let g = gen::rmat(150, 900, gen::RmatParams::default(), 31);
        for w in [Workload::PageRank, Workload::Adsorption] {
            let mut gb = GraphBolt::new(w.instantiate(0), g.clone());
            gb.initial_compute();
            let expected = oracle_values(w, &g.snapshot(), 0);
            assert!(oracle::values_match_tol(gb.values(), &expected, TOL), "{}", w.name());
        }
    }

    #[test]
    fn streaming_matches_oracle() {
        let g = gen::rmat(150, 900, gen::RmatParams::default(), 32);
        let batch = gen::batch_with_ratio(&g, 40, 0.7, 33);
        for w in [Workload::PageRank, Workload::Adsorption] {
            check(w, &g, &batch);
        }
    }

    #[test]
    fn delete_only_batch_matches_oracle() {
        let g = gen::rmat(120, 700, gen::RmatParams::default(), 34);
        let batch = gen::random_batch(&g, 0, 30, 35);
        for w in [Workload::PageRank, Workload::Adsorption] {
            check(w, &g, &batch);
        }
    }

    #[test]
    fn repeated_batches_stay_correct() {
        let g = gen::rmat(120, 700, gen::RmatParams::default(), 36);
        for w in [Workload::PageRank, Workload::Adsorption] {
            let mut gb = GraphBolt::new(w.instantiate(0), g.clone());
            gb.initial_compute();
            let mut reference = g.clone();
            for round in 0..3 {
                let batch = gen::batch_with_ratio(&reference, 20, 0.5, 700 + round);
                gb.apply_batch(&batch).unwrap();
                reference.apply_batch(&batch).unwrap();
                let expected = oracle_values(w, &reference.snapshot(), 0);
                assert!(
                    oracle::values_match_tol(gb.values(), &expected, TOL),
                    "{} diverged at round {round}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn refinement_touches_fewer_vertices_than_restart() {
        let g = gen::rmat(2048, 16384, gen::RmatParams::default(), 37);
        let batch = gen::batch_with_ratio(&g, 8, 0.7, 38);
        let mut gb = GraphBolt::new(Workload::PageRank.instantiate(0), g.clone());
        let cold = gb.initial_compute();
        let inc = gb.apply_batch(&batch).unwrap();
        // On kilovertex-scale graphs a hub mutation's refinement region can
        // cover much of the graph; the advantage grows with graph size.
        assert!(
            inc.vertex_writes < (cold.vertex_writes * 3) / 4,
            "refinement wrote {} vs cold {}",
            inc.vertex_writes,
            cold.vertex_writes
        );
    }

    #[test]
    #[should_panic(expected = "accumulative")]
    fn rejects_selective_algorithms() {
        let g = Csr::new(2);
        let _ = GraphBolt::new(Workload::Sssp.instantiate(0), g);
    }

    #[test]
    #[should_panic(expected = "initial_compute")]
    fn streaming_before_initial_compute_panics() {
        let mut g = Csr::new(2);
        g.insert_edge(0, 1, 1.0).unwrap();
        let mut gb = GraphBolt::new(Workload::PageRank.instantiate(0), g);
        let _ = gb.apply_batch(&UpdateBatch::new());
    }
}
