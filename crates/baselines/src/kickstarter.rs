use std::collections::VecDeque;

use jetstream_algorithms::{Algorithm, EdgeCtx, UpdateKind, Value};
use jetstream_graph::{vid, Csr, EdgeRef, GraphError, UpdateBatch, VertexId};

use crate::parallel::{baseline_threads, par_map};
use crate::{SoftwareStats, WeightedPair};

/// KickStarter-style streaming framework for selective (monotonic)
/// algorithms.
///
/// Follows the structure of Vora et al.'s KickStarter (ASPLOS'17), the
/// software system the paper benchmarks against for SSSP/SSWP/BFS/CC:
///
/// 1. **Dependency tracking** — each vertex records the in-neighbor whose
///    contribution set its current value, plus an adoption *level* (the
///    dependency-tree depth), maintained during BSP value iteration.
/// 2. **Tagging** — a deleted edge `u → v` whose target depends on `u`
///    invalidates `v`; invalidation closes transitively over the dependency
///    tree's children.
/// 3. **Trimming** — every tagged vertex rebuilds a *trimmed approximation*
///    by reading all of its (untagged) in-neighbors' current values — the
///    scattered random reads JetStream's coalesced request events replace.
/// 4. **Reconvergence** — synchronous BSP push rounds from the tagged and
///    inserted frontier until no value changes.
///
/// # Example
///
/// ```
/// use jetstream_baselines::KickStarter;
/// use jetstream_algorithms::Sssp;
/// use jetstream_graph::{Csr, UpdateBatch};
///
/// # fn main() -> Result<(), jetstream_graph::GraphError> {
/// let mut g = Csr::new(3);
/// g.insert_edge(0, 1, 4.0)?;
/// g.insert_edge(1, 2, 1.0)?;
/// let mut ks = KickStarter::new(Box::new(Sssp::new(0)), g);
/// ks.initial_compute();
/// let mut batch = UpdateBatch::new();
/// batch.delete(0, 1);
/// ks.apply_batch(&batch)?;
/// assert!(ks.values()[2].is_infinite());
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// [`KickStarter::new`] panics when given an accumulative algorithm; use
/// [`GraphBolt`](crate::GraphBolt) for those.
#[derive(Debug)]
pub struct KickStarter {
    alg: Box<dyn Algorithm>,
    /// The graph and its weighted transpose, maintained together (trimming reads
    /// in-neighbors; rebuilding a CSR per batch would dominate the cost).
    pair: WeightedPair,
    values: Vec<Value>,
    dependency: Vec<Option<VertexId>>,
    level: Vec<u32>,
    stats: SoftwareStats,
}

impl KickStarter {
    /// Creates a KickStarter instance for a selective algorithm over `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `alg` is accumulative.
    pub fn new(alg: Box<dyn Algorithm>, graph: Csr) -> Self {
        assert_eq!(
            alg.kind(),
            UpdateKind::Selective,
            "KickStarter handles selective algorithms; use GraphBolt for accumulative ones"
        );
        let n = graph.num_vertices();
        let identity = alg.identity();
        KickStarter {
            values: vec![identity; n],
            dependency: vec![None; n],
            level: vec![0; n],
            alg,
            pair: WeightedPair::new(graph),
            stats: SoftwareStats::default(),
        }
    }

    /// Current vertex values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The evolving graph.
    pub fn graph(&self) -> &Csr {
        &self.pair.out
    }

    /// Full recomputation of the current graph version (also the software
    /// cold-restart baseline).
    pub fn initial_compute(&mut self) -> SoftwareStats {
        self.stats = SoftwareStats::default();
        let identity = self.alg.identity();
        self.values.fill(identity);
        self.dependency.fill(None);
        self.level.fill(0);
        let mut frontier: Vec<VertexId> = Vec::new();
        for v in (0..self.pair.num_vertices()).map(vid) {
            let Some(val) = self.alg.initial_event(v) else { continue };
            let vi = v as usize;
            let new = self.alg.reduce(self.values[vi], val);
            if new != self.values[vi] {
                self.values[vi] = new;
                frontier.push(v);
            }
        }
        self.converge(frontier);
        self.stats
    }

    /// Applies a streaming batch with tag → trim → reconverge.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] when the batch is invalid against the
    /// current graph version.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<SoftwareStats, GraphError> {
        self.stats = SoftwareStats::default();
        self.pair.apply_batch(batch)?;

        // --- Tagging: direct targets whose dependency is the deleted
        // source, closed transitively over dependency-tree children.
        let tagged = self.tag_impacted(batch);
        self.stats.resets = tagged.len() as u64;

        // --- Reset + trim approximations in old-level order.
        let identity = self.alg.identity();
        let mut order: Vec<VertexId> = tagged.clone();
        order.sort_by_key(|&v| self.level[v as usize]);
        let mut is_tagged = vec![false; self.values.len()];
        for &v in &tagged {
            is_tagged[v as usize] = true;
            self.values[v as usize] = identity;
            self.dependency[v as usize] = None;
            self.level[v as usize] = 0;
            self.stats.vertex_writes += 1;
        }
        // Trimmed approximations only read *untagged* values, which stay
        // frozen during the trim phase, so every tagged vertex trims
        // independently — the data-parallel step KickStarter fans out over
        // its cores.
        let threads = baseline_threads();
        let trims = par_map(&order, threads, |&v| self.trim_pure(v, &is_tagged));
        let mut frontier: Vec<VertexId> = Vec::new();
        for (&v, trim) in order.iter().zip(trims) {
            self.stats.edge_reads += self.pair.inc.degree(v) as u64;
            self.stats.vertex_reads += self.pair.inc.degree(v) as u64;
            if let Some((best, dep, lvl)) = trim {
                self.values[v as usize] = best;
                self.dependency[v as usize] = dep;
                self.level[v as usize] = lvl;
                self.stats.vertex_writes += 1;
                frontier.push(v);
            }
        }
        // Even untrimmed (still-identity) vertices join the frontier so the
        // reconvergence pass re-examines their neighborhoods.
        for &v in &tagged {
            if self.values[v as usize] == identity {
                frontier.push(v);
            }
        }

        // --- Edge insertions seed the frontier directly.
        for &(u, v, w) in batch.insertions() {
            self.stats.vertex_reads += 1;
            let state = self.values[u as usize];
            let ctx = self.edge_ctx(u, w);
            if let Some(delta) = self.alg.propagate(state, state, &ctx) {
                if self.adopt(v, delta, Some(u)) {
                    frontier.push(v);
                }
            }
        }

        self.converge(frontier);
        Ok(self.stats)
    }

    fn edge_ctx(&self, u: VertexId, weight: Value) -> EdgeCtx {
        let out_degree = self.pair.out.degree(u);
        let weight_sum = if self.alg.needs_weight_sum() {
            self.pair.out.neighbors(u).map(|e| e.weight).sum()
        } else {
            0.0
        };
        EdgeCtx { weight, out_degree, weight_sum }
    }

    /// Tags the transitive dependency closure of the deleted edges.
    fn tag_impacted(&mut self, batch: &UpdateBatch) -> Vec<VertexId> {
        let n = self.values.len();
        // children[p] = vertices whose dependency is p.
        let mut children: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for (v, dep) in self.dependency.iter().enumerate() {
            if let Some(p) = dep {
                children[*p as usize].push(v as VertexId);
            }
        }
        let mut tagged = vec![false; n];
        let mut queue: VecDeque<VertexId> = VecDeque::new();
        for &(u, v) in batch.deletions() {
            self.stats.vertex_reads += 1;
            if self.dependency[v as usize] == Some(u) && !tagged[v as usize] {
                tagged[v as usize] = true;
                queue.push_back(v);
            }
        }
        let mut result = Vec::new();
        while let Some(v) = queue.pop_front() {
            result.push(v);
            for &c in &children[v as usize] {
                self.stats.vertex_reads += 1;
                if !tagged[c as usize] {
                    tagged[c as usize] = true;
                    queue.push_back(c);
                }
            }
        }
        result
    }

    /// Rebuilds an approximation for tagged vertex `v` from its *untagged*
    /// in-neighbors (plus its initializer seed) — the scattered random
    /// reads KickStarter pays. Pure: returns the trimmed
    /// `(value, dependency, level)` or `None` when no approximation exists;
    /// the caller applies it and accounts the reads.
    fn trim_pure(&self, v: VertexId, is_tagged: &[bool]) -> Option<(Value, Option<VertexId>, u32)> {
        let identity = self.alg.identity();
        let mut best = identity;
        let mut best_dep: Option<VertexId> = None;
        let mut best_level = 0u32;
        if let Some(seed) = self.alg.initial_event(v) {
            best = self.alg.reduce(best, seed);
        }
        for EdgeRef { other: u, weight } in self.pair.inc.neighbors(v) {
            if is_tagged[u as usize] {
                continue;
            }
            let state = self.values[u as usize];
            let ctx = self.edge_ctx(u, weight);
            if let Some(delta) = self.alg.propagate(state, state, &ctx) {
                let reduced = self.alg.reduce(best, delta);
                if reduced != best {
                    best = reduced;
                    best_dep = Some(u);
                    best_level = self.level[u as usize] + 1;
                }
            }
        }
        (best != identity).then_some((best, best_dep, best_level))
    }

    /// Folds `delta` into `v`; returns true when the value improved.
    fn adopt(&mut self, v: VertexId, delta: Value, source: Option<VertexId>) -> bool {
        let vi = v as usize;
        self.stats.vertex_reads += 1;
        let new = self.alg.reduce(self.values[vi], delta);
        if new != self.values[vi] {
            self.values[vi] = new;
            self.dependency[vi] = source;
            self.level[vi] = source.map_or(0, |s| self.level[s as usize] + 1);
            self.stats.vertex_writes += 1;
            true
        } else {
            false
        }
    }

    /// Synchronous BSP push rounds until the frontier empties.
    fn converge(&mut self, mut frontier: Vec<VertexId>) {
        while !frontier.is_empty() {
            self.stats.rounds += 1;
            frontier.sort_unstable();
            frontier.dedup();
            let mut next: Vec<VertexId> = Vec::new();
            for &u in &frontier {
                let state = self.values[u as usize];
                let edges: Vec<EdgeRef> = self.pair.out.neighbors(u).collect();
                self.stats.edge_reads += edges.len() as u64;
                for EdgeRef { other: v, weight } in edges {
                    let ctx = self.edge_ctx(u, weight);
                    if let Some(delta) = self.alg.propagate(state, state, &ctx) {
                        if self.adopt(v, delta, Some(u)) {
                            next.push(v);
                        }
                    }
                }
            }
            frontier = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetstream_algorithms::{oracle, oracle_values, Workload};
    use jetstream_graph::gen;

    fn check(workload: Workload, g: &Csr, batch: &UpdateBatch) {
        let mut ks = KickStarter::new(workload.instantiate(0), g.clone());
        ks.initial_compute();
        ks.apply_batch(batch).unwrap();
        let mut mutated = g.clone();
        mutated.apply_batch(batch).unwrap();
        let expected = oracle_values(workload, &mutated.snapshot(), 0);
        assert!(
            oracle::values_match(ks.values(), &expected),
            "{} diverged from oracle",
            workload.name()
        );
    }

    #[test]
    fn initial_compute_matches_oracle() {
        let g = gen::rmat(200, 1200, gen::RmatParams::default(), 21);
        for w in Workload::SELECTIVE {
            let mut ks = KickStarter::new(w.instantiate(0), g.clone());
            ks.initial_compute();
            let expected = oracle_values(w, &g.snapshot(), 0);
            assert!(oracle::values_match(ks.values(), &expected), "{}", w.name());
        }
    }

    #[test]
    fn streaming_matches_oracle_for_all_selective_workloads() {
        let g = gen::rmat(250, 1500, gen::RmatParams::default(), 22);
        let batch = gen::batch_with_ratio(&g, 80, 0.6, 23);
        for w in Workload::SELECTIVE {
            check(w, &g, &batch);
        }
    }

    #[test]
    fn delete_only_batch_matches_oracle() {
        let g = gen::rmat(200, 1200, gen::RmatParams::default(), 24);
        let batch = gen::random_batch(&g, 0, 50, 25);
        for w in Workload::SELECTIVE {
            check(w, &g, &batch);
        }
    }

    #[test]
    fn repeated_batches_stay_correct() {
        let g = gen::layered_narrow(20, 5, 300, 26);
        for w in Workload::SELECTIVE {
            let mut ks = KickStarter::new(w.instantiate(0), g.clone());
            ks.initial_compute();
            let mut reference = g.clone();
            for round in 0..3 {
                let batch = gen::batch_with_ratio(&reference, 25, 0.5, 500 + round);
                ks.apply_batch(&batch).unwrap();
                reference.apply_batch(&batch).unwrap();
                let expected = oracle_values(w, &reference.snapshot(), 0);
                assert!(
                    oracle::values_match(ks.values(), &expected),
                    "{} diverged at round {round}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn resets_are_counted() {
        let mut g = Csr::new(4);
        g.insert_edge(0, 1, 1.0).unwrap();
        g.insert_edge(1, 2, 1.0).unwrap();
        g.insert_edge(2, 3, 1.0).unwrap();
        let mut ks = KickStarter::new(Workload::Sssp.instantiate(0), g);
        ks.initial_compute();
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        let stats = ks.apply_batch(&batch).unwrap();
        // The whole downstream chain (1, 2, 3) depended on the deleted edge.
        assert_eq!(stats.resets, 3);
    }

    #[test]
    #[should_panic(expected = "selective")]
    fn rejects_accumulative_algorithms() {
        let g = Csr::new(2);
        let _ = KickStarter::new(Workload::PageRank.instantiate(0), g);
    }

    #[test]
    fn invalid_batch_is_an_error() {
        let g = Csr::new(2);
        let mut ks = KickStarter::new(Workload::Bfs.instantiate(0), g);
        ks.initial_compute();
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1); // edge does not exist
        assert!(ks.apply_batch(&batch).is_err());
    }
}
