//! Differential conformance suite: the sharded parallel engine must be
//! **bit-identical** to the sequential engine — not approximately equal,
//! `==` on every `f64` — for every workload, every delete strategy, and
//! every shard count, across whole batched streaming histories.
//!
//! This is the contract that makes parallel execution safe to substitute
//! anywhere the sequential engine is used (including WAL replay in the
//! durable store, where a single ULP of divergence would silently fork
//! recovered state from recorded history).
//!
//! The barrier-free async mode (`ExecutionMode::Async`, DESIGN.md §16)
//! has a deliberately weaker — but still differential — contract, spelled
//! out on [`async_sharded_matches_sequential_fixpoints`]: selective
//! workloads must still be bit-identical on values and impacted sets,
//! accumulative workloads must land within the convergence tolerance.

// Test harness: a panic is exactly the failure signal we want here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use jetstream::algorithms::{oracle, UpdateKind, Workload};
use jetstream::engine::{
    BatchClassification, DeleteStrategy, EngineConfig, ExecutionMode, RunStats, ShardedEngine,
    StreamingEngine, UpdateSafety,
};
use jetstream::graph::{gen, AdjacencyGraph, UpdateBatch};

const ROOT: u32 = 0;
const EPSILON: f64 = 1e-4;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Shard counts that additionally replay the history through
/// `apply_admitted_batch` and `cold_restart`.
const ADMITTED_SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const BATCHES: usize = 4;

/// The two graph shapes of the suite: hub-skewed (R-MAT) and
/// high-diameter ring-with-shortcuts (small-world). Both stream the same
/// kind of mixed batches.
fn graphs() -> Vec<(&'static str, AdjacencyGraph)> {
    vec![
        ("rmat", gen::rmat(150, 700, gen::RmatParams::default(), 77)),
        ("small-world", gen::small_world(160, 3, 0.15, 78)),
    ]
}

fn history(base: &AdjacencyGraph, seed: u64) -> Vec<UpdateBatch> {
    let mut g = base.clone();
    (0..BATCHES)
        .map(|i| {
            let batch = gen::batch_with_ratio(&g, 24, 0.5, seed + i as u64);
            g.apply_batch(&batch).unwrap();
            batch
        })
        .collect()
}

fn config(strategy: DeleteStrategy) -> EngineConfig {
    EngineConfig { delete_strategy: strategy, ..EngineConfig::default() }
}

/// One sequential reference trajectory: per-step stats, values,
/// dependencies, and impacted sets.
struct Reference {
    stats: Vec<RunStats>,
    values: Vec<Vec<f64>>,
    dependencies: Vec<Vec<Option<u32>>>,
    impacted: Vec<Vec<u32>>,
    /// The history, then [`safe_tail`] of the state the history converged
    /// to: the one step where the admitted path may skip the delete phases.
    batches: Vec<UpdateBatch>,
    /// What a second sequential engine returned from
    /// `apply_admitted_batch` for each of `batches`.
    admitted: Vec<(RunStats, BatchClassification)>,
    /// A fresh `initial_compute` on the graph after `batches[0]`: stats,
    /// values, dependencies.
    cold: (RunStats, Vec<f64>, Vec<Option<u32>>),
}

/// A batch every deletion of which `engine`'s converged state classifies
/// safe, plus a few fresh insertions. Under DAP on a selective workload
/// that is the admitted fast path; everywhere else nothing is provably
/// safe, the batch is insert-only, and the admitted path falls through.
fn safe_tail(engine: &StreamingEngine) -> UpdateBatch {
    let mut batch = gen::batch_with_ratio(engine.graph(), 4, 1.0, 99);
    let safe = engine
        .graph()
        .iter_edges()
        .filter(|&(u, v, _)| engine.classify_delete(u, v) == UpdateSafety::Safe)
        .take(6);
    for (u, v, _) in safe {
        batch.delete(u, v);
    }
    batch
}

fn sequential_reference(
    workload: Workload,
    strategy: DeleteStrategy,
    base: &AdjacencyGraph,
    batches: &[UpdateBatch],
) -> Reference {
    sequential_reference_with_epsilon(workload, strategy, base, batches, EPSILON)
}

fn sequential_reference_with_epsilon(
    workload: Workload,
    strategy: DeleteStrategy,
    base: &AdjacencyGraph,
    batches: &[UpdateBatch],
    epsilon: f64,
) -> Reference {
    let alg = || workload.instantiate_with_epsilon(ROOT, epsilon);
    let mut after_first = base.clone();
    after_first.apply_batch(&batches[0]).unwrap();
    let mut cold = StreamingEngine::new(alg(), after_first, config(strategy));
    let cold = (cold.initial_compute(), cold.values().to_vec(), cold.dependencies().to_vec());

    let mut engine = StreamingEngine::new(alg(), base.clone(), config(strategy));
    let mut reference = Reference {
        stats: vec![engine.initial_compute()],
        values: vec![engine.values().to_vec()],
        dependencies: vec![engine.dependencies().to_vec()],
        impacted: vec![Vec::new()],
        batches: batches.to_vec(),
        admitted: Vec::new(),
        cold,
    };
    let mut record = |engine: &mut StreamingEngine, batch: &UpdateBatch| {
        reference.stats.push(engine.apply_update_batch(batch).unwrap());
        reference.values.push(engine.values().to_vec());
        reference.dependencies.push(engine.dependencies().to_vec());
        reference.impacted.push(engine.last_impacted().to_vec());
    };
    for batch in batches {
        record(&mut engine, batch);
    }
    let tail = safe_tail(&engine);
    record(&mut engine, &tail);
    reference.batches.push(tail);
    engine.validate_converged().unwrap();

    // The admitted path on the oracle itself: bit-identical state to the
    // full path at every step, on the fast path and the fall-through.
    let mut admitted = StreamingEngine::new(alg(), base.clone(), config(strategy));
    admitted.initial_compute();
    for (i, batch) in reference.batches.iter().enumerate() {
        let class = admitted.classify_batch(batch);
        let applied = admitted.apply_admitted_batch(batch).unwrap();
        assert_eq!(applied.1, class, "classification must not depend on who asks");
        assert_eq!(admitted.values(), &reference.values[i + 1][..]);
        assert_eq!(admitted.dependencies(), &reference.dependencies[i + 1][..]);
        assert_eq!(admitted.last_impacted(), &reference.impacted[i + 1][..]);
        reference.admitted.push(applied);
    }
    let skippable = strategy == DeleteStrategy::Dap && workload.kind() == UpdateKind::Selective;
    let (tail_stats, tail_class) = reference.admitted[batches.len()];
    assert_eq!(
        skippable,
        tail_class.safe_deletes > 0,
        "the tail carries safe deletions exactly where the state can prove them"
    );
    if skippable {
        assert_eq!(tail_stats.delete_events, 0, "fast path must skip the delete phases");
        assert!(
            reference.admitted[..batches.len()].iter().any(|(s, _)| s.delete_events > 0),
            "the history must also exercise the fall-through"
        );
    }

    reference
}

/// Asserts `engine`'s observable state equals the oracle's after `step`.
fn assert_state_matches(engine: &ShardedEngine, reference: &Reference, step: usize, tag: &str) {
    assert_eq!(engine.values(), &reference.values[step][..], "{tag}: values at step {step}");
    assert_eq!(
        engine.dependencies(),
        &reference.dependencies[step][..],
        "{tag}: dependence tree at step {step}"
    );
    assert_eq!(
        engine.last_impacted(),
        &reference.impacted[step][..],
        "{tag}: impacted set at step {step}"
    );
}

#[test]
fn sharded_is_bit_identical_to_sequential_everywhere() {
    for (shape, base) in graphs() {
        let batches = history(&base, 1000);
        for workload in Workload::ALL {
            for strategy in DeleteStrategy::ALL {
                let reference = sequential_reference(workload, strategy, &base, &batches);
                for shards in SHARD_COUNTS {
                    let tag = format!("{shape}/{}/{:?}/shards={shards}", workload.name(), strategy);
                    let alg = workload.instantiate_with_epsilon(ROOT, EPSILON);
                    let mut engine =
                        ShardedEngine::new(alg, base.clone(), config(strategy), shards);
                    assert_eq!(
                        engine.initial_compute(),
                        reference.stats[0],
                        "{tag}: initial stats"
                    );
                    assert_eq!(engine.values(), &reference.values[0][..], "{tag}: initial values");
                    // The same history through the admission pre-check, on
                    // a second engine: the classification, the fast path
                    // and the fall-through are the flow's, so they must not
                    // notice the executor either.
                    let mut admitted = ADMITTED_SHARD_COUNTS.contains(&shards).then(|| {
                        let alg = workload.instantiate_with_epsilon(ROOT, EPSILON);
                        let mut e = ShardedEngine::new(alg, base.clone(), config(strategy), shards);
                        e.initial_compute();
                        e
                    });
                    for (i, batch) in reference.batches.iter().enumerate() {
                        let stats = engine.apply_update_batch(batch).unwrap();
                        let step = i + 1;
                        assert_eq!(stats, reference.stats[step], "{tag}: stats at step {step}");
                        assert_state_matches(&engine, &reference, step, &tag);
                        if let Some(admitted) = &mut admitted {
                            let tag = format!("{tag}/admitted");
                            let class = admitted.classify_batch(batch);
                            let applied = admitted.apply_admitted_batch(batch).unwrap();
                            assert_eq!(applied.1, class, "{tag}: classify_batch at step {step}");
                            assert_eq!(applied, reference.admitted[i], "{tag}: step {step}");
                            assert_state_matches(admitted, &reference, step, &tag);
                        }
                    }
                    engine.validate_converged().unwrap_or_else(|e| panic!("{tag}: {e}"));
                    if let Some(admitted) = admitted {
                        admitted.validate_converged().unwrap_or_else(|e| panic!("{tag}: {e}"));
                        // `cold_restart` is apply + a fresh `initial_compute`.
                        let alg = workload.instantiate_with_epsilon(ROOT, EPSILON);
                        let mut cold =
                            ShardedEngine::new(alg, base.clone(), config(strategy), shards);
                        let stats = cold.cold_restart(&batches[0]).unwrap();
                        assert_eq!(
                            (stats, cold.values(), cold.dependencies()),
                            (reference.cold.0, &reference.cold.1[..], &reference.cold.2[..]),
                            "{tag}: cold restart"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn sharded_checkpoint_roundtrips_through_sequential_format() {
    // A sharded engine mounted on a sequential engine's converged state
    // (and vice versa) continues the stream bit-identically: the snapshot
    // format carries no execution-strategy residue.
    let base = gen::rmat(120, 500, gen::RmatParams::default(), 5);
    let batches = history(&base, 2000);
    for workload in [Workload::Sssp, Workload::PageRank] {
        let mut seq = StreamingEngine::new(
            workload.instantiate_with_epsilon(ROOT, EPSILON),
            base.clone(),
            EngineConfig::default(),
        );
        seq.initial_compute();
        let mut sharded = ShardedEngine::from_checkpoint(
            workload.instantiate_with_epsilon(ROOT, EPSILON),
            base.clone(),
            seq.values().to_vec(),
            seq.dependencies().to_vec(),
            EngineConfig::default(),
            4,
        )
        .unwrap();
        for batch in &batches {
            assert_eq!(
                seq.apply_update_batch(batch).unwrap(),
                sharded.apply_update_batch(batch).unwrap(),
                "{}",
                workload.name()
            );
        }
        assert_eq!(seq.values(), sharded.values(), "{}", workload.name());

        // And back: mount a sequential engine on the sharded state.
        let resumed = StreamingEngine::from_checkpoint(
            workload.instantiate_with_epsilon(ROOT, EPSILON),
            sharded.graph().clone(),
            sharded.values().to_vec(),
            sharded.dependencies().to_vec(),
            EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(resumed.values(), seq.values(), "{}", workload.name());
        resumed.validate_converged().unwrap();
    }
}

/// Per-step stats plus final values and dependencies of one scheduled run.
type ScheduleRun = (Vec<RunStats>, Vec<f64>, Vec<Option<u32>>);

#[test]
fn worker_schedule_perturbation_does_not_change_results() {
    // Determinism regression: the same sharded computation under three
    // deliberately different worker schedules — free-running, yielding
    // after every event, yielding every third event — produces identical
    // RunStats (event counts included) and identical final state. Bit-level
    // results must come from the superstep protocol, never from timing.
    let base = gen::small_world(140, 3, 0.2, 9);
    let batches = history(&base, 3000);
    for workload in [Workload::Sssp, Workload::Cc, Workload::PageRank] {
        let mut runs: Vec<ScheduleRun> = Vec::new();
        for yield_every in [None, Some(1), Some(3)] {
            let alg = workload.instantiate_with_epsilon(ROOT, EPSILON);
            let mut engine = ShardedEngine::new(alg, base.clone(), EngineConfig::default(), 4);
            engine.set_yield_interval(yield_every);
            let mut stats = vec![engine.initial_compute()];
            for batch in &batches {
                stats.push(engine.apply_update_batch(batch).unwrap());
            }
            runs.push((stats, engine.values().to_vec(), engine.dependencies().to_vec()));
        }
        let (ref stats0, ref values0, ref deps0) = runs[0];
        for (stats, values, deps) in &runs[1..] {
            assert_eq!(stats, stats0, "{}: stats changed under yield", workload.name());
            assert_eq!(values, values0, "{}: values changed under yield", workload.name());
            assert_eq!(deps, deps0, "{}: dependencies changed under yield", workload.name());
        }
    }
}

/// The async-mode equivalence contract, exercised over the full matrix of
/// 6 workloads x 3 delete strategies x shard counts {2, 4, 8} on both
/// graph shapes, against the sequential engine as the oracle:
///
/// * **Selective workloads** (SSSP, SSWP, BFS, CC): the fixpoint of a
///   min/max selection is unique regardless of event order, so async
///   values must be **bit-identical** (`f64::to_bits`) to sequential at
///   every step. The impacted set (vertices *reset* during delete
///   propagation) is **not** compared against the sequential set: under
///   VAP/DAP the reset cascade consults values and dependency parents,
///   and async dependency trees legitimately break equal-cost ties
///   differently, so the reset set itself is schedule-dependent. What
///   every schedule must satisfy is the change-notification completeness
///   property asserted here: a selective value can only *worsen* (become
///   less progressed) across a batch by being reset first, so every
///   vertex whose value regressed must appear in `last_impacted`.
/// * **Accumulative workloads** (PageRank, Adsorption): contributions are
///   folded in schedule-dependent order and convergence is thresholded at
///   `epsilon`, so exact bits are out of contract. Both engines run at a
///   tightened `epsilon = 1e-5` and async values must land within
///   `oracle::accumulative_tolerance(epsilon)` (= `500 * epsilon` = 5e-3
///   relative) of the sequential fixpoint — the bound every other
///   accumulative comparison in the repo uses. `epsilon / (1 - d)` is
///   *not* the per-vertex budget: a vertex drops (absorbs without
///   forwarding) every applied delta below `epsilon * |state|`, once per
///   visit, so a vertex with in-degree `k` can be missing up to `k` such
///   truncated contributions per round *before* the `1 / (1 - d)` damping
///   tail amplifies them, and each of the five computes (init + 4 batches)
///   restarts from the previous approximate state. The hubs of the R-MAT
///   shape sit at the top of that budget: measured over 12 runs the worst
///   relative gap was 1.02e-3 (vertex 0, 8 shards), and never below
///   4.6e-4. Both engines must also pass their own `validate_converged`
///   check. Impacted sets are not compared: the epsilon threshold makes
///   membership of marginal vertices legitimately schedule-dependent.
/// * **Not in contract for async**: `RunStats` (pass structure differs by
///   design — there are no supersteps) and dependency trees (equal-cost
///   parent ties break by arrival order).
#[test]
fn async_sharded_matches_sequential_fixpoints() {
    const ASYNC_SHARDS: [usize; 3] = [2, 4, 8];
    for (shape, base) in graphs() {
        let batches = history(&base, 4000);
        for workload in Workload::ALL {
            let epsilon = match workload.kind() {
                UpdateKind::Selective => EPSILON,
                UpdateKind::Accumulative => 1e-5,
            };
            for strategy in DeleteStrategy::ALL {
                let reference =
                    sequential_reference_with_epsilon(workload, strategy, &base, &batches, epsilon);
                for shards in ASYNC_SHARDS {
                    let tag =
                        format!("async {shape}/{}/{:?}/shards={shards}", workload.name(), strategy);
                    let alg = workload.instantiate_with_epsilon(ROOT, epsilon);
                    let mut engine =
                        ShardedEngine::new(alg, base.clone(), config(strategy), shards);
                    engine.set_execution_mode(ExecutionMode::Async);
                    engine.initial_compute();
                    let check = |actual: &[f64], step: usize| {
                        assert_values_match(
                            workload,
                            epsilon,
                            actual,
                            &reference.values[step],
                            &tag,
                            step,
                        );
                    };
                    check(engine.values(), 0);
                    for (i, batch) in batches.iter().enumerate() {
                        let step = i + 1;
                        engine.apply_update_batch(batch).unwrap();
                        check(engine.values(), step);
                        if workload.kind() == UpdateKind::Selective {
                            let probe = workload.instantiate_with_epsilon(ROOT, epsilon);
                            let reported = sorted_set(engine.last_impacted());
                            let missed: Vec<u32> = reference.values[step - 1]
                                .iter()
                                .zip(&reference.values[step])
                                .enumerate()
                                .filter(|&(_, (&old, &new))| probe.more_progressed(old, new))
                                .map(|(v, _)| v as u32)
                                .filter(|v| reported.binary_search(v).is_err())
                                .collect();
                            assert!(
                                missed.is_empty(),
                                "{tag}: step {step} worsened vertices {missed:?} missing from \
                                 impacted (reported {reported:?})"
                            );
                        }
                    }
                    engine.validate_converged().unwrap_or_else(|e| panic!("{tag}: {e}"));
                }
            }
        }
    }
}

/// Applies the per-kind value clause of the async contract at one step.
fn assert_values_match(
    workload: Workload,
    epsilon: f64,
    actual: &[f64],
    expected: &[f64],
    tag: &str,
    step: usize,
) {
    assert_eq!(actual.len(), expected.len(), "{tag}: value count at step {step}");
    match workload.kind() {
        UpdateKind::Selective => {
            for (v, (a, e)) in actual.iter().zip(expected).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    e.to_bits(),
                    "{tag}: vertex {v} at step {step}: {a} != {e}"
                );
            }
        }
        UpdateKind::Accumulative => {
            let tol = oracle::accumulative_tolerance(epsilon);
            for (v, (a, e)) in actual.iter().zip(expected).enumerate() {
                assert!(
                    (a - e).abs() <= tol * e.abs().max(1.0),
                    "{tag}: vertex {v} at step {step}: {a} vs {e}"
                );
            }
        }
    }
}

fn sorted_set(vertices: &[u32]) -> Vec<u32> {
    let mut out = vertices.to_vec();
    out.sort_unstable();
    out.dedup();
    out
}
