//! Schedule sanitizer: a schedule fuzzer for the sharded engine.
//!
//! The static `determinism` lint proves the absence of nondeterminism
//! *sources*; this module hunts schedule-dependent *results* in the one
//! place concurrency is allowed (`ShardedEngine`). A [`ScheduleFuzzer`]
//! sweeps a matrix of worker schedules — shard counts × base yield
//! intervals × [`DetRng`]-seeded per-worker yield and run-length (chunk)
//! perturbations — and runs every schedule differentially against the
//! sequential [`StreamingEngine`] oracle, comparing the vertex values
//! after every batch under the sharded engine's equivalence contract
//! (DESIGN.md §16.3): selective workloads bit-exact (compared on the raw
//! `f64` bits), accumulative workloads within [`ACCUMULATIVE_TOL`] of the
//! oracle fixpoint. The schedule-dependent observables (`RunStats`,
//! dependency trees, impacted sets) are out of contract. The sweep fails
//! on the first divergence and reports the schedule tuple so the failure
//! replays.
//!
//! Yielding and flushing at different points per worker reshuffles the
//! arrival order of cross-shard runs, which is exactly the freedom an
//! order-sensitive reduction, a lost run or an early quiescence verdict
//! would need to surface. Data races need no such hunt: each worker holds
//! its shard through a disjoint `&mut` borrow, so the compiler rejects
//! them on every build. See DESIGN.md §13.3.
//!
//! This is library code on the sanitizer's hot path in CI, so it is
//! panic-free: every failure mode is a value of [`FuzzFailure`].

use jetstream_algorithms::{oracle, UpdateKind, Workload};
use jetstream_core::{DeleteStrategy, EngineConfig, ShardedEngine, StreamingEngine};
use jetstream_graph::rng::DetRng;
use jetstream_graph::{gen, AdjacencyGraph, UpdateBatch};

use std::fmt;

/// Source vertex for the single-source workloads.
const ROOT: u32 = 0;

/// Convergence threshold for the accumulative workloads; matches the
/// differential suite so the sweep exercises the same propagation depth.
const EPSILON: f64 = 1e-4;

/// Relative tolerance for accumulative values under sharded schedules.
/// Residual-below-epsilon states differ by `EPSILON / (1 - d)` per damped
/// cascade (~6.7e-4 for d = 0.85), and under delete strategies each batch
/// restarts cascades from the previous approximate state, compounding
/// toward `EPSILON / (1 - d)^2` ≈ 4.4e-3; the observed worst case on the
/// default history is ~6e-3, so 2e-2 gives ~3x headroom while still
/// catching genuinely wrong folds (which diverge by whole contributions,
/// not epsilon tails).
pub const ACCUMULATIVE_TOL: f64 = 2e-2;

/// One concrete worker schedule: a point in the fuzzer's sweep matrix
/// plus the per-worker yield and chunk plans derived from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Number of worker shards.
    pub shards: usize,
    /// Base yield interval the per-worker plan is perturbed around
    /// (0 = free-running).
    pub base_yield: usize,
    /// Seed of the [`DetRng`] that perturbed the plan.
    pub seed: u64,
    /// Per-worker yield intervals: worker `i` yields every `plan[i]`
    /// processed events (0 = never). Installed via
    /// `ShardedEngine::set_yield_plan`.
    pub plan: Vec<usize>,
    /// Per-worker run-length perturbation: worker `i` drains `chunks[i]`
    /// queue bins per pass (0 = the whole queue). Installed via
    /// `ShardedEngine::set_async_chunk_plan`.
    pub chunks: Vec<usize>,
}

impl Schedule {
    /// Derives the per-worker plans for one matrix point. Each worker's
    /// yield interval is drawn independently from `base_yield + [0, 3)`,
    /// so workers in the same run yield at different cadences and a `base`
    /// of 0 mixes free-running workers with yielding ones; its run length
    /// is drawn from {0 = whole queue, 1, 2, 4, 8} bins per pass, so
    /// workers flush and exchange cross-shard runs at deliberately
    /// staggered cadences.
    pub fn derive(shards: usize, base_yield: usize, seed: u64) -> Schedule {
        const CHUNKS: [usize; 5] = [0, 1, 2, 4, 8];
        let mut rng = DetRng::seed_from_u64(
            seed ^ (shards as u64).rotate_left(32) ^ (base_yield as u64).rotate_left(48),
        );
        let plan = (0..shards).map(|_| base_yield + rng.gen_index(3)).collect();
        let mut rng = DetRng::seed_from_u64(
            seed.rotate_left(16) ^ (shards as u64).rotate_left(8) ^ (base_yield as u64),
        );
        let chunks = (0..shards).map(|_| CHUNKS[rng.gen_index(CHUNKS.len())]).collect();
        Schedule { shards, base_yield, seed, plan, chunks }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shards={} base_yield={} seed={} plan={:?} chunks={:?}",
            self.shards, self.base_yield, self.seed, self.plan, self.chunks
        )
    }
}

/// A reproducible divergence between the sharded engine's values under
/// one schedule and the sequential oracle's.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Workload whose run diverged.
    pub workload: &'static str,
    /// Delete strategy label of the diverging run.
    pub strategy: &'static str,
    /// Batch step at which the values first left the contract
    /// (0 = initial compute).
    pub step: usize,
    /// The schedule that exposed it.
    pub schedule: Schedule,
    /// The vertex whose value is farthest from the oracle's.
    pub worst_vertex: usize,
    /// That vertex's error relative to the larger of the two values (at
    /// least 1): the quantity [`ACCUMULATIVE_TOL`] bounds.
    pub relative_error: f64,
    /// The run's total finite value minus the oracle's.
    pub total_difference: f64,
}

impl Divergence {
    /// How far `actual` is from `expected`: the worst vertex, its
    /// relative error and the difference in total value, as
    /// [`Divergence`] reports them.
    fn measure(actual: &[f64], expected: &[f64]) -> (usize, f64, f64) {
        let relative = |a: f64, e: f64| {
            if a.to_bits() == e.to_bits() {
                0.0
            } else if a.is_infinite() || e.is_infinite() {
                f64::INFINITY
            } else {
                (a - e).abs() / a.abs().max(e.abs()).max(1.0)
            }
        };
        let errors = actual.iter().zip(expected).map(|(&a, &e)| relative(a, e));
        let (worst, error) =
            errors.enumerate().fold((0, 0.0), |w, (v, r)| if r > w.1 { (v, r) } else { w });
        let total = |xs: &[f64]| xs.iter().filter(|x| x.is_finite()).sum::<f64>();
        (worst, error, total(actual) - total(expected))
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} values diverged from the sequential oracle at step {} under schedule [{}]: \
             vertex {} is off by {:.3e} relative (accumulative tolerance {ACCUMULATIVE_TOL:e}), \
             total value off by {:+.4}",
            self.workload,
            self.strategy,
            self.step,
            self.schedule,
            self.worst_vertex,
            self.relative_error,
            self.total_difference
        )
    }
}

/// Any way a sweep can fail.
#[derive(Debug, Clone, PartialEq)]
pub enum FuzzFailure {
    /// Building the graph/history or stepping an engine errored before
    /// any comparison could run.
    Setup(String),
    /// The engines disagreed.
    Divergence(Box<Divergence>),
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuzzFailure::Setup(msg) => write!(f, "sanitizer setup failed: {msg}"),
            FuzzFailure::Divergence(d) => d.fmt(f),
        }
    }
}

/// Summary of a clean sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepReport {
    /// Distinct schedules exercised.
    pub schedules: usize,
    /// Sharded engine runs (schedules × workloads × strategies).
    pub runs: usize,
    /// Per-step state comparisons performed across all runs.
    pub comparisons: usize,
}

/// The per-kind value clause of the sharded contract: bit-exact for
/// selective workloads (the min/max fixpoint is order-independent; raw
/// `f64` bits, so `-0.0` vs `0.0` or differing NaN payloads count as
/// divergence), within [`ACCUMULATIVE_TOL`] for accumulative ones (fold
/// order and the epsilon threshold make exact bits schedule-dependent).
fn values_match(workload: Workload, actual: &[f64], expected: &[f64]) -> bool {
    match workload.kind() {
        UpdateKind::Selective => {
            actual.len() == expected.len()
                && actual.iter().zip(expected).all(|(a, e)| a.to_bits() == e.to_bits())
        }
        UpdateKind::Accumulative => oracle::values_match_tol(actual, expected, ACCUMULATIVE_TOL),
    }
}

/// The schedule-sweep matrix and workload selection. The default matrix
/// is the one CI runs (DESIGN.md §13.3): shards ∈ {2, 4} (a single worker
/// has no cross-shard traffic to perturb) × 4 seeds × 3 base yield
/// intervals = 24 schedules, over SSSP, BFS and PageRank — both clauses of
/// the value contract — × Tag, the paper's DAP and DAP with restore.
#[derive(Debug, Clone)]
pub struct ScheduleFuzzer {
    /// Shard counts to sweep.
    pub shard_counts: Vec<usize>,
    /// Fuzzer seeds for the per-worker perturbation.
    pub seeds: Vec<u64>,
    /// Base yield intervals (0 = free-running) to perturb around.
    pub base_yields: Vec<usize>,
    /// Workloads to run under every schedule.
    pub workloads: Vec<Workload>,
    /// Delete strategies to run under every schedule.
    pub strategies: Vec<DeleteStrategy>,
    /// Streamed update batches per run.
    pub batches: usize,
    /// Edge updates per batch (half inserts, half deletes).
    pub batch_size: usize,
}

impl Default for ScheduleFuzzer {
    fn default() -> Self {
        ScheduleFuzzer {
            shard_counts: vec![2, 4],
            seeds: vec![0xA1, 0xB2, 0xC3, 0xD4],
            base_yields: vec![0, 1, 3],
            workloads: vec![Workload::Sssp, Workload::Bfs, Workload::PageRank],
            strategies: vec![DeleteStrategy::Tag, DeleteStrategy::Dap, DeleteStrategy::DapRestore],
            batches: 3,
            batch_size: 20,
        }
    }
}

impl ScheduleFuzzer {
    /// Materializes the sweep matrix in deterministic order.
    pub fn schedules(&self) -> Vec<Schedule> {
        let mut out =
            Vec::with_capacity(self.shard_counts.len() * self.seeds.len() * self.base_yields.len());
        for &shards in &self.shard_counts {
            for &base in &self.base_yields {
                for &seed in &self.seeds {
                    out.push(Schedule::derive(shards, base, seed));
                }
            }
        }
        out
    }

    /// The streamed history every run replays: a hub-skewed R-MAT base
    /// graph and `batches` mixed insert/delete batches.
    fn history(&self) -> Result<(AdjacencyGraph, Vec<UpdateBatch>), FuzzFailure> {
        let base = gen::rmat(128, 560, gen::RmatParams::default(), 41);
        let mut g = base.clone();
        let mut batches = Vec::with_capacity(self.batches);
        for i in 0..self.batches {
            let batch = gen::batch_with_ratio(&g, self.batch_size, 0.5, 5000 + i as u64);
            g.apply_batch(&batch)
                .map_err(|e| FuzzFailure::Setup(format!("batch {i} failed to apply: {e}")))?;
            batches.push(batch);
        }
        Ok((base, batches))
    }

    /// The sequential oracle's values after the initial compute and after
    /// every batch.
    fn reference(
        &self,
        workload: Workload,
        strategy: DeleteStrategy,
        base: &AdjacencyGraph,
        batches: &[UpdateBatch],
    ) -> Result<Vec<Vec<f64>>, FuzzFailure> {
        let alg = workload.instantiate_with_epsilon(ROOT, EPSILON);
        let config = EngineConfig { delete_strategy: strategy, ..EngineConfig::default() };
        let mut engine = StreamingEngine::new(alg, base.clone(), config);
        engine.initial_compute();
        let mut reference = vec![engine.values().to_vec()];
        for (i, batch) in batches.iter().enumerate() {
            engine.apply_update_batch(batch).map_err(|e| {
                FuzzFailure::Setup(format!(
                    "sequential oracle {}/{} failed at batch {i}: {e}",
                    workload.name(),
                    strategy.label()
                ))
            })?;
            reference.push(engine.values().to_vec());
        }
        Ok(reference)
    }

    /// Runs the full sweep. Returns the clean-sweep summary, or the
    /// first [`FuzzFailure`] — a [`Divergence`] carries the schedule
    /// tuple needed to replay it.
    pub fn run(&self) -> Result<SweepReport, FuzzFailure> {
        let (base, batches) = self.history()?;
        let schedules = self.schedules();
        let mut runs = 0usize;
        let mut comparisons = 0usize;
        for &workload in &self.workloads {
            for &strategy in &self.strategies {
                let reference = self.reference(workload, strategy, &base, &batches)?;
                for schedule in &schedules {
                    runs += 1;
                    comparisons +=
                        self.run_one(workload, strategy, schedule, &base, &batches, &reference)?;
                }
            }
        }
        Ok(SweepReport { schedules: schedules.len(), runs, comparisons })
    }

    /// One sharded run under one schedule, compared against the oracle
    /// after the initial compute and after every batch. Returns the
    /// number of step comparisons.
    fn run_one(
        &self,
        workload: Workload,
        strategy: DeleteStrategy,
        schedule: &Schedule,
        base: &AdjacencyGraph,
        batches: &[UpdateBatch],
        reference: &[Vec<f64>],
    ) -> Result<usize, FuzzFailure> {
        let diverged = |step: usize, actual: &[f64]| {
            let (worst_vertex, relative_error, total_difference) =
                Divergence::measure(actual, &reference[step]);
            FuzzFailure::Divergence(Box::new(Divergence {
                workload: workload.name(),
                strategy: strategy.label(),
                step,
                schedule: schedule.clone(),
                worst_vertex,
                relative_error,
                total_difference,
            }))
        };
        let alg = workload.instantiate_with_epsilon(ROOT, EPSILON);
        let config = EngineConfig { delete_strategy: strategy, ..EngineConfig::default() };
        let mut engine = ShardedEngine::new(alg, base.clone(), config, schedule.shards);
        engine.set_yield_plan(&schedule.plan);
        engine.set_async_chunk_plan(&schedule.chunks);

        engine.initial_compute();
        if !values_match(workload, engine.values(), &reference[0]) {
            return Err(diverged(0, engine.values()));
        }
        let mut comparisons = 1usize;
        for (i, batch) in batches.iter().enumerate() {
            let step = i + 1;
            engine.apply_update_batch(batch).map_err(|e| {
                FuzzFailure::Setup(format!(
                    "sharded {}/{} failed at batch {i} under [{schedule}]: {e}",
                    workload.name(),
                    strategy.label()
                ))
            })?;
            if !values_match(workload, engine.values(), &reference[step]) {
                return Err(diverged(step, engine.values()));
            }
            comparisons += 1;
        }
        engine.validate_converged().map_err(|e| {
            FuzzFailure::Setup(format!(
                "sharded {}/{} not converged under [{schedule}]: {e}",
                workload.name(),
                strategy.label()
            ))
        })?;
        Ok(comparisons)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matrix_has_24_distinct_schedules() {
        let fuzzer = ScheduleFuzzer::default();
        let schedules = fuzzer.schedules();
        assert_eq!(schedules.len(), 24);
        for (i, a) in schedules.iter().enumerate() {
            for b in &schedules[..i] {
                assert_ne!(a, b, "duplicate schedule in matrix");
            }
        }
        assert!(
            schedules
                .iter()
                .flat_map(|s| &s.chunks)
                .collect::<std::collections::HashSet<_>>()
                .len()
                > 1,
            "the matrix must actually vary run lengths"
        );
    }

    #[test]
    fn derived_plans_are_deterministic_and_per_worker() {
        let a = Schedule::derive(4, 1, 7);
        let b = Schedule::derive(4, 1, 7);
        assert_eq!(a, b, "same matrix point must derive the same plans");
        assert_eq!(a.plan.len(), 4);
        assert!(a.plan.iter().all(|&y| (1..4).contains(&y)));
        assert_eq!(a.chunks.len(), 4);
        assert!(a.chunks.iter().all(|c| [0, 1, 2, 4, 8].contains(c)));
        assert!(a.to_string().contains("chunks="), "Display must name the chunk plan");
        let c = Schedule::derive(4, 1, 8);
        assert_ne!(a.seed, c.seed);
    }

    /// One selective and one accumulative workload under two seeded
    /// schedules; the full matrix runs in CI via `cargo xtask check
    /// --sanitize`, so `cargo test` stays fast.
    fn small_fuzzer() -> ScheduleFuzzer {
        ScheduleFuzzer {
            shard_counts: vec![2],
            seeds: vec![0xA1, 0xB2],
            base_yields: vec![1],
            workloads: vec![Workload::Sssp, Workload::PageRank],
            strategies: vec![DeleteStrategy::DapRestore],
            batches: 2,
            batch_size: 12,
        }
    }

    #[test]
    fn a_small_sweep_is_clean() {
        let report = small_fuzzer().run().expect("slice of the default sweep must be clean");
        assert_eq!(report.schedules, 2);
        assert_eq!(report.runs, 4);
        assert_eq!(report.comparisons, 12);
    }

    // The fuzzer can fail: a reference off by the smallest step either
    // value clause can see (one low bit of a selective value, twice the
    // accumulative tolerance) must be reported as a divergence at exactly
    // that step, not before it and not as a setup error.
    #[test]
    fn a_planted_divergence_is_reported_at_its_step() {
        let fuzzer = small_fuzzer();
        let (base, batches) = fuzzer.history().expect("history builds");
        let schedule = &fuzzer.schedules()[0];
        let strategy = DeleteStrategy::Dap;
        for workload in [Workload::Sssp, Workload::PageRank] {
            let clean = fuzzer.reference(workload, strategy, &base, &batches).expect("oracle runs");
            for step in 0..=batches.len() {
                let mut reference = clean.clone();
                let values = &mut reference[step];
                let v = values.iter().position(|x| x.is_finite()).expect("a finite value");
                values[v] = match workload.kind() {
                    UpdateKind::Selective => f64::from_bits(values[v].to_bits() ^ 1),
                    UpdateKind::Accumulative => {
                        values[v] + 2.0 * ACCUMULATIVE_TOL * values[v].abs().max(1.0)
                    }
                };
                match fuzzer.run_one(workload, strategy, schedule, &base, &batches, &reference) {
                    Err(FuzzFailure::Divergence(d)) => {
                        assert_eq!((d.workload, d.step), (workload.name(), step));
                        // The planted vertex is the worst one, by what was
                        // planted: one low bit, or twice the tolerance.
                        assert_eq!(d.worst_vertex, v, "{d}");
                        assert!(d.relative_error > 0.0, "{d}");
                        if workload.kind() == UpdateKind::Accumulative {
                            assert!(d.relative_error > ACCUMULATIVE_TOL, "{d}");
                            assert!(d.total_difference < 0.0, "{d}");
                        }
                    }
                    other => panic!(
                        "{} step {step}: planted divergence missed: {other:?}",
                        workload.name()
                    ),
                }
            }
        }
    }
}
