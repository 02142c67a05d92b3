//! Differential conformance suite: the sharded parallel engine against
//! the sequential engine as the oracle, for every workload, every delete
//! strategy, and every shard count, across whole batched streaming
//! histories — through `apply_update_batch`, through the admission
//! pre-check, through `cold_restart`, and across checkpoints mounted in
//! both directions.
//!
//! The sharded drain is barrier-free (DESIGN.md §16), so the contract is
//! value equivalence, spelled out on
//! [`async_sharded_matches_sequential_fixpoints`]: selective workloads are
//! bit-identical on values, accumulative workloads land within the
//! convergence tolerance.

#![expect(
    clippy::unwrap_used,
    reason = "test code: a panic is exactly the failure signal wanted here"
)]

use jetstream::algorithms::{oracle, UpdateKind, Workload};
use jetstream::engine::{
    BatchClassification, DeleteStrategy, EngineConfig, Executor, RunStats, ShardedEngine,
    StreamingEngine, StreamingFlow, UpdateSafety,
};
use jetstream::graph::{gen, AdjacencyGraph, UpdateBatch};

const ROOT: u32 = 0;
const EPSILON: f64 = 1e-4;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
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

/// One sequential reference trajectory: per-step values, dependencies,
/// and impacted sets.
struct Reference {
    values: Vec<Vec<f64>>,
    dependencies: Vec<Vec<Option<u32>>>,
    impacted: Vec<Vec<u32>>,
    /// The history, then [`safe_tail`] of the state the history converged
    /// to: the one step where the admitted path may skip the delete phases.
    batches: Vec<UpdateBatch>,
    /// What a second sequential engine returned from
    /// `apply_admitted_batch` for each of `batches`.
    admitted: Vec<(RunStats, BatchClassification)>,
    /// The values of a fresh `initial_compute` on the graph after
    /// `batches[0]`.
    cold: Vec<f64>,
}

/// A batch every deletion of which `engine`'s converged state classifies
/// safe, plus a few fresh insertions. Under DAP on a selective workload
/// that is the admitted fast path; everywhere else nothing is provably
/// safe, the batch is insert-only, and the admitted path falls through.
fn safe_tail<X: Executor>(engine: &StreamingFlow<X>) -> UpdateBatch {
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
    epsilon: f64,
) -> Reference {
    let alg = || workload.instantiate_with_epsilon(ROOT, epsilon);
    let mut after_first = base.clone();
    after_first.apply_batch(&batches[0]).unwrap();
    let mut cold = StreamingEngine::new(alg(), after_first, config(strategy));
    cold.initial_compute();
    let cold = cold.values().to_vec();

    let mut engine = StreamingEngine::new(alg(), base.clone(), config(strategy));
    engine.initial_compute();
    let mut reference = Reference {
        values: vec![engine.values().to_vec()],
        dependencies: vec![engine.dependencies().to_vec()],
        impacted: vec![Vec::new()],
        batches: batches.to_vec(),
        admitted: Vec::new(),
        cold,
    };
    let mut record = |engine: &mut StreamingEngine, batch: &UpdateBatch| {
        engine.apply_update_batch(batch).unwrap();
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
    let skippable = strategy.is_dap() && workload.kind() == UpdateKind::Selective;
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

/// The sharded equivalence contract, exercised over the full matrix of
/// 6 workloads x 3 delete strategies x shard counts {1, 2, 4, 8} on both
/// graph shapes, against the sequential engine as the oracle. Every cell
/// runs the history (plus the oracle's safe tail) four ways — through
/// `apply_update_batch`, through `classify_batch`/`apply_admitted_batch`,
/// on a sharded engine mounted on the oracle's initial checkpoint, and the
/// first batch through `cold_restart` — then mounts a sequential engine on
/// the sharded state and streams one more batch through both. Every engine
/// must pass its own `validate_converged` check.
///
/// * **Selective workloads** (SSSP, SSWP, BFS, CC): the fixpoint of a
///   min/max selection is unique regardless of event order, so sharded
///   values must be **bit-identical** (`f64::to_bits`) to sequential at
///   every step. The impacted set (vertices *reset* during delete
///   propagation) is **not** compared against the sequential set: under
///   VAP/DAP the reset cascade consults values and dependency parents,
///   and sharded dependency trees legitimately break equal-cost ties
///   differently, so the reset set itself is schedule-dependent. What
///   every schedule must satisfy is the change-notification completeness
///   property asserted here: a selective value can only *worsen* (become
///   less progressed) across a batch by being reset first, so every
///   vertex whose value regressed must appear in `last_impacted`.
/// * **Accumulative workloads** (PageRank, Adsorption): contributions are
///   folded in schedule-dependent order and convergence is thresholded at
///   `epsilon`, so exact bits are out of contract. Both engines run at a
///   tightened `epsilon = 1e-5` and sharded values must land within
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
///   4.6e-4. Impacted sets are not compared: the epsilon threshold makes
///   membership of marginal vertices legitimately schedule-dependent.
/// * **Classification** is a function of the converged state. Two engines
///   on the *same* state — the sharded one and the sequential one mounted
///   on its checkpoint — must classify every batch identically, and what
///   `apply_admitted_batch` reports must be what `classify_batch` said.
///   Against the oracle's *own* trajectory only what no dependency tree
///   decides is compared: everything outside DAP on a selective workload
///   (where nothing is provably safe), and there the insert tallies and
///   the number of deletions.
/// * **Not in contract**: `RunStats` (pass structure differs by design —
///   there are no rounds) and dependency trees (equal-cost parent ties
///   break by arrival order).
#[test]
fn async_sharded_matches_sequential_fixpoints() {
    for (shape, base) in graphs() {
        let batches = history(&base, 4000);
        for workload in Workload::ALL {
            let epsilon = match workload.kind() {
                UpdateKind::Selective => EPSILON,
                UpdateKind::Accumulative => 1e-5,
            };
            let alg = || workload.instantiate_with_epsilon(ROOT, epsilon);
            for strategy in DeleteStrategy::ALL {
                let reference = sequential_reference(workload, strategy, &base, &batches, epsilon);
                let skippable = strategy.is_dap() && workload.kind() == UpdateKind::Selective;
                for shards in SHARD_COUNTS {
                    let tag = format!("{shape}/{}/{:?}/shards={shards}", workload.name(), strategy);
                    let check = |actual: &[f64], expected: &[f64], what: &str| {
                        assert_values_match(workload, epsilon, actual, expected, &tag, what);
                    };
                    let converged = |engine: &ShardedEngine, what: &str| {
                        engine.validate_converged().unwrap_or_else(|e| panic!("{tag}/{what}: {e}"));
                    };
                    let fresh = || {
                        let mut e =
                            ShardedEngine::new(alg(), base.clone(), config(strategy), shards);
                        e.initial_compute();
                        e
                    };

                    let mut engine = fresh();
                    check(engine.values(), &reference.values[0], "step 0");
                    // The same history through the admission pre-check, and
                    // on an engine mounted on the oracle's initial state: the
                    // classification, the fast path, the fall-through and the
                    // snapshot format are the flow's, so none of them may
                    // notice the executor.
                    let mut admitted = fresh();
                    let mut mounted = ShardedEngine::from_checkpoint(
                        alg(),
                        base.clone(),
                        reference.values[0].clone(),
                        reference.dependencies[0].clone(),
                        config(strategy),
                        shards,
                    )
                    .unwrap();
                    for (i, batch) in reference.batches.iter().enumerate() {
                        let step = i + 1;
                        let expected = &reference.values[step];
                        engine.apply_update_batch(batch).unwrap();
                        check(engine.values(), expected, &format!("step {step}"));
                        if workload.kind() == UpdateKind::Selective {
                            let probe = alg();
                            let reported = sorted_set(engine.last_impacted());
                            let missed: Vec<u32> = reference.values[step - 1]
                                .iter()
                                .zip(expected)
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

                        let class = admitted.classify_batch(batch);
                        let applied = admitted.apply_admitted_batch(batch).unwrap();
                        assert_eq!(applied.1, class, "{tag}: classify_batch at step {step}");
                        let oracle_class = reference.admitted[i].1;
                        if skippable {
                            let tallies = |c: BatchClassification| {
                                (
                                    c.safe_inserts,
                                    c.unsafe_inserts,
                                    c.safe_deletes + c.unsafe_deletes,
                                )
                            };
                            assert_eq!(
                                tallies(class),
                                tallies(oracle_class),
                                "{tag}: tree-independent tallies at step {step}"
                            );
                        } else {
                            assert_eq!(class, oracle_class, "{tag}: classification at step {step}");
                        }
                        check(admitted.values(), expected, &format!("admitted step {step}"));

                        mounted.apply_update_batch(batch).unwrap();
                        check(mounted.values(), expected, &format!("mounted step {step}"));
                    }
                    converged(&engine, "full path");
                    converged(&admitted, "admitted");
                    converged(&mounted, "mounted");

                    // `cold_restart` is apply + a fresh `initial_compute`.
                    let mut cold =
                        ShardedEngine::new(alg(), base.clone(), config(strategy), shards);
                    cold.cold_restart(&batches[0]).unwrap();
                    check(cold.values(), &reference.cold, "cold restart");
                    converged(&cold, "cold restart");

                    // And back: a sequential engine mounted on the sharded
                    // state is converged, classifies like the engine it was
                    // taken from, and continues the stream with it — through
                    // the fast path where the state can prove deletions safe.
                    let mut resumed = StreamingEngine::from_checkpoint(
                        alg(),
                        admitted.graph().clone(),
                        admitted.values().to_vec(),
                        admitted.dependencies().to_vec(),
                        config(strategy),
                    )
                    .unwrap();
                    resumed.validate_converged().unwrap_or_else(|e| panic!("{tag}/resumed: {e}"));
                    let tail = safe_tail(&admitted);
                    let class = admitted.classify_batch(&tail);
                    assert_eq!(
                        resumed.classify_batch(&tail),
                        class,
                        "{tag}: same state, same class"
                    );
                    assert_eq!(skippable, class.safe_deletes > 0, "{tag}: own safe tail");
                    let applied = admitted.apply_admitted_batch(&tail).unwrap();
                    assert_eq!(applied.1, class, "{tag}: own safe tail");
                    if skippable {
                        assert_eq!(applied.0.delete_events, 0, "{tag}: fast path skips deletes");
                    }
                    assert_eq!(resumed.apply_admitted_batch(&tail).unwrap().1, class);
                    check(admitted.values(), resumed.values(), "own safe tail");
                    converged(&admitted, "own safe tail");
                    resumed.validate_converged().unwrap_or_else(|e| panic!("{tag}/resumed: {e}"));
                }
            }
        }
    }
}

/// Applies the per-kind value clause of the contract to one comparison.
fn assert_values_match(
    workload: Workload,
    epsilon: f64,
    actual: &[f64],
    expected: &[f64],
    tag: &str,
    what: &str,
) {
    assert_eq!(actual.len(), expected.len(), "{tag}: value count at {what}");
    match workload.kind() {
        UpdateKind::Selective => {
            for (v, (a, e)) in actual.iter().zip(expected).enumerate() {
                assert_eq!(a.to_bits(), e.to_bits(), "{tag}: vertex {v} at {what}: {a} != {e}");
            }
        }
        UpdateKind::Accumulative => {
            let tol = oracle::accumulative_tolerance(epsilon);
            for (v, (a, e)) in actual.iter().zip(expected).enumerate() {
                assert!(
                    (a - e).abs() <= tol * e.abs().max(1.0),
                    "{tag}: vertex {v} at {what}: {a} vs {e}"
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
