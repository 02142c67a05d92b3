//! End-to-end correctness of the streaming engine: after any batch of
//! insertions/deletions, incremental reevaluation must reach exactly the
//! state a from-scratch evaluation of the mutated graph reaches. This is the
//! paper's core correctness claim (recoverable approximations, §3.2).

#![expect(
    clippy::unwrap_used,
    clippy::panic,
    reason = "test code: aborting on a failed setup or batch is the right behaviour here"
)]

use jetstream_algorithms::{oracle, oracle_values, UpdateKind, Workload};
use jetstream_core::{
    AccumulativeRecovery, DeleteStrategy, EngineConfig, Executor, ShardedEngine, StreamingEngine,
    StreamingFlow, UpdateSafety,
};
use jetstream_graph::{gen, AdjacencyGraph, UpdateBatch, VertexId};
use jetstream_testkit::EdgeModel;

/// Comparison tolerance: selective values are exact; accumulative values
/// converge within the algorithms' propagation epsilon (1e-5 by default).
fn tolerance(workload: Workload) -> f64 {
    match workload.kind() {
        UpdateKind::Selective => oracle::VALUE_TOLERANCE,
        UpdateKind::Accumulative => oracle::accumulative_tolerance(1e-5),
    }
}

fn engine_for(
    workload: Workload,
    graph: AdjacencyGraph,
    strategy: DeleteStrategy,
    root: VertexId,
) -> StreamingEngine {
    let config = EngineConfig { delete_strategy: strategy, num_bins: 4, ..EngineConfig::default() };
    StreamingEngine::new(workload.instantiate(root), graph, config)
}

fn check_initial(workload: Workload, graph: &AdjacencyGraph, root: VertexId) {
    let mut engine = engine_for(workload, graph.clone(), DeleteStrategy::Tag, root);
    engine.initial_compute();
    let expected = oracle_values(workload, &graph.snapshot(), root);
    assert!(
        oracle::values_match_tol(engine.values(), &expected, tolerance(workload)),
        "{} initial evaluation diverges from oracle",
        workload.name()
    );
}

fn check_streaming(
    workload: Workload,
    graph: &AdjacencyGraph,
    batch: &UpdateBatch,
    strategy: DeleteStrategy,
    root: VertexId,
) {
    let mut engine = engine_for(workload, graph.clone(), strategy, root);
    engine.initial_compute();
    engine
        .apply_update_batch(batch)
        .unwrap_or_else(|e| panic!("{} batch failed: {e}", workload.name()));

    let mut mutated = graph.clone();
    mutated.apply_batch(batch).unwrap();
    let expected = oracle_values(workload, &mutated.snapshot(), root);
    assert!(
        oracle::values_match_tol(engine.values(), &expected, tolerance(workload)),
        "{} ({:?}) streaming diverges from oracle\n got: {:?}\n want: {:?}",
        workload.name(),
        strategy,
        &engine.values()[..engine.values().len().min(20)],
        &expected[..expected.len().min(20)]
    );
}

/// The example graph of Fig. 4(a): A=0, B=1, C=2, D=3, E=4, F=5, G=6.
fn figure4_graph() -> AdjacencyGraph {
    let mut g = AdjacencyGraph::new(7);
    for &(u, v, w) in &[
        (0u32, 1u32, 8.0), // A -> B
        (0, 2, 9.0),       // A -> C
        (1, 3, 4.0),       // B -> D
        (1, 4, 8.0),       // B -> E
        (2, 4, 5.0),       // C -> E
        (2, 5, 8.0),       // C -> F
        (3, 4, 3.0),       // D -> E
        (3, 6, 7.0),       // D -> G
        (4, 5, 5.0),       // E -> F
        (6, 4, 3.0),       // G -> E
    ] {
        g.insert_edge(u, v, w).unwrap();
    }
    g
}

#[test]
fn figure4_sssp_insertion_then_deletion() {
    // Reproduces the paper's running example: insert A->D, delete A->C.
    let g = figure4_graph();
    for strategy in DeleteStrategy::ALL {
        let mut engine = engine_for(Workload::Sssp, g.clone(), strategy, 0);
        engine.initial_compute();
        // Converged distances on the original graph.
        assert_eq!(engine.values()[2], 9.0); // C
        assert_eq!(engine.values()[4], 14.0); // E via C

        let mut batch = UpdateBatch::new();
        batch.insert(0, 3, 8.0); // add A -> D (Fig. 4b)
        batch.delete(0, 2); // delete A -> C (Fig. 4c)
        engine.apply_update_batch(&batch).unwrap();

        // Fig. 4(d): D=8 via the new edge, C unreachable, E=11 via D,
        // F=16 via E, G=15 via D.
        assert_eq!(engine.values()[3], 8.0, "{strategy:?} D");
        assert!(engine.values()[2].is_infinite(), "{strategy:?} C");
        assert_eq!(engine.values()[4], 11.0, "{strategy:?} E");
        assert_eq!(engine.values()[5], 16.0, "{strategy:?} F");
        assert_eq!(engine.values()[6], 15.0, "{strategy:?} G");
    }
}

#[test]
fn initial_evaluation_matches_oracles_on_all_workloads() {
    let g = gen::rmat(256, 1500, gen::RmatParams::default(), 42);
    for w in Workload::ALL {
        check_initial(w, &g, 0);
    }
}

#[test]
fn initial_evaluation_on_narrow_graph() {
    let g = gen::layered_narrow(30, 6, 500, 7);
    for w in Workload::ALL {
        check_initial(w, &g, 0);
    }
}

#[test]
fn insert_only_batches_match_oracle() {
    let g = gen::rmat(200, 1000, gen::RmatParams::default(), 1);
    let batch = gen::random_batch(&g, 40, 0, 99);
    for w in Workload::ALL {
        check_streaming(w, &g, &batch, DeleteStrategy::Tag, 0);
    }
}

#[test]
fn delete_only_batches_match_oracle_all_strategies() {
    let g = gen::rmat(200, 1200, gen::RmatParams::default(), 2);
    let batch = gen::random_batch(&g, 0, 40, 77);
    for w in Workload::ALL {
        for strategy in DeleteStrategy::ALL {
            check_streaming(w, &g, &batch, strategy, 0);
        }
    }
}

#[test]
fn mixed_batches_match_oracle_all_strategies() {
    let g = gen::rmat(300, 1800, gen::RmatParams::default(), 3);
    let batch = gen::batch_with_ratio(&g, 100, 0.7, 55);
    for w in Workload::ALL {
        for strategy in DeleteStrategy::ALL {
            check_streaming(w, &g, &batch, strategy, 0);
        }
    }
}

#[test]
fn repeated_batches_stay_correct() {
    // Several consecutive batches: state must remain a valid starting
    // approximation every time (Fig. 1's repeated incremental evaluation).
    let g = gen::rmat(200, 1000, gen::RmatParams::default(), 4);
    for w in Workload::ALL {
        let mut engine = engine_for(w, g.clone(), DeleteStrategy::Dap, 0);
        engine.initial_compute();
        let mut reference = g.clone();
        for round in 0..4 {
            let batch = gen::batch_with_ratio(&reference, 30, 0.6, 1000 + round);
            engine.apply_update_batch(&batch).unwrap();
            reference.apply_batch(&batch).unwrap();
            let expected = oracle_values(w, &reference.snapshot(), 0);
            assert!(
                oracle::values_match_tol(engine.values(), &expected, tolerance(w)),
                "{} diverged at round {round}",
                w.name()
            );
        }
    }
}

#[test]
fn narrow_graph_streaming_matches_oracle() {
    let g = gen::layered_narrow(25, 5, 400, 5);
    let batch = gen::batch_with_ratio(&g, 50, 0.5, 31);
    for w in Workload::ALL {
        for strategy in DeleteStrategy::ALL {
            check_streaming(w, &g, &batch, strategy, 0);
        }
    }
}

#[test]
fn deleting_every_edge_resets_everything() {
    let mut g = AdjacencyGraph::new(4);
    g.insert_edge(0, 1, 1.0).unwrap();
    g.insert_edge(1, 2, 1.0).unwrap();
    g.insert_edge(2, 3, 1.0).unwrap();
    let mut batch = UpdateBatch::new();
    batch.delete(0, 1);
    batch.delete(1, 2);
    batch.delete(2, 3);
    for strategy in DeleteStrategy::ALL {
        let mut engine = engine_for(Workload::Sssp, g.clone(), strategy, 0);
        engine.initial_compute();
        engine.apply_update_batch(&batch).unwrap();
        assert_eq!(engine.values()[0], 0.0, "{strategy:?}");
        for v in 1..4 {
            assert!(engine.values()[v].is_infinite(), "{strategy:?} vertex {v}");
        }
    }
}

#[test]
fn empty_batch_is_a_no_op() {
    let g = gen::rmat(100, 500, gen::RmatParams::default(), 6);
    for w in Workload::ALL {
        let mut engine = engine_for(w, g.clone(), DeleteStrategy::Dap, 0);
        engine.initial_compute();
        let before = engine.values().to_vec();
        let stats = engine.apply_update_batch(&UpdateBatch::new()).unwrap();
        assert_eq!(engine.values(), &before[..], "{}", w.name());
        assert_eq!(stats.resets, 0);
    }
}

#[test]
fn cold_restart_matches_streaming_result() {
    let g = gen::rmat(150, 900, gen::RmatParams::default(), 8);
    let batch = gen::batch_with_ratio(&g, 60, 0.7, 12);
    for w in Workload::ALL {
        let mut streaming = engine_for(w, g.clone(), DeleteStrategy::Dap, 0);
        streaming.initial_compute();
        streaming.apply_update_batch(&batch).unwrap();

        let mut cold = engine_for(w, g.clone(), DeleteStrategy::Dap, 0);
        cold.initial_compute();
        cold.cold_restart(&batch).unwrap();

        assert!(
            oracle::values_match_tol(streaming.values(), cold.values(), tolerance(w)),
            "{} streaming vs cold restart mismatch",
            w.name()
        );
    }
}

#[test]
fn streaming_does_less_work_than_cold_restart() {
    // Accumulative incrementality pays off when the rollback wavefront does
    // not saturate the graph: use a larger, sparser instance and a small
    // batch — the paper's regime (batch ≪ graph).
    let selective_graph = gen::rmat(1024, 8192, gen::RmatParams::default(), 9);
    let accumulative_graph = gen::rmat(16384, 65536, gen::RmatParams::default(), 9);
    for w in Workload::ALL {
        let (g, batch_size) = match w.kind() {
            UpdateKind::Selective => (&selective_graph, 20),
            UpdateKind::Accumulative => (&accumulative_graph, 8),
        };
        let batch = gen::batch_with_ratio(g, batch_size, 0.7, 13);
        let mut streaming = engine_for(w, g.clone(), DeleteStrategy::Dap, 0);
        streaming.initial_compute();
        let inc = streaming.apply_update_batch(&batch).unwrap();

        let mut cold = engine_for(w, g.clone(), DeleteStrategy::Dap, 0);
        cold.initial_compute();
        let full = cold.cold_restart(&batch).unwrap();

        assert!(
            inc.vertex_accesses() < full.vertex_accesses(),
            "{}: streaming {} vs cold {} vertex accesses",
            w.name(),
            inc.vertex_accesses(),
            full.vertex_accesses()
        );
    }
}

#[test]
fn vap_and_dap_reset_fewer_vertices_than_base() {
    let g = gen::rmat(512, 4096, gen::RmatParams::default(), 10);
    let batch = gen::random_batch(&g, 0, 30, 14);
    let resets: Vec<u64> = DeleteStrategy::ALL
        .iter()
        .map(|&s| {
            let mut engine = engine_for(Workload::Sssp, g.clone(), s, 0);
            engine.initial_compute();
            engine.apply_update_batch(&batch).unwrap().resets
        })
        .collect();
    let (base, vap, dap) = (resets[0], resets[1], resets[2]);
    assert!(vap <= base, "VAP resets {vap} > base {base}");
    assert!(dap <= base, "DAP resets {dap} > base {base}");
}

#[test]
fn dap_prunes_bfs_where_vap_cannot() {
    // BFS has many equal values, so VAP degenerates to Base while DAP
    // prunes (the paper's motivation for DAP, §5.2).
    let g = gen::rmat(512, 4096, gen::RmatParams::default(), 11);
    let batch = gen::random_batch(&g, 0, 30, 15);
    let mut resets = std::collections::HashMap::new();
    for s in DeleteStrategy::ALL {
        let mut engine = engine_for(Workload::Bfs, g.clone(), s, 0);
        engine.initial_compute();
        resets.insert(s, engine.apply_update_batch(&batch).unwrap().resets);
    }
    assert!(
        resets[&DeleteStrategy::Dap] <= resets[&DeleteStrategy::Vap],
        "DAP {} should not exceed VAP {} for BFS",
        resets[&DeleteStrategy::Dap],
        resets[&DeleteStrategy::Vap]
    );
}

#[test]
fn trace_round_trips_operation_counts() {
    let g = gen::rmat(128, 700, gen::RmatParams::default(), 16);
    let mut engine = engine_for(Workload::Sssp, g.clone(), DeleteStrategy::Dap, 0);
    engine.set_tracing(true);
    let stats = engine.initial_compute();
    let trace = engine.take_trace();
    let apply_ops: usize = trace
        .phases
        .iter()
        .flat_map(|p| p.rounds.iter())
        .flat_map(|r| r.ops.iter())
        .filter(|op| matches!(op.kind, jetstream_core::trace::OpKind::Apply))
        .count();
    assert_eq!(apply_ops as u64, stats.events_processed);
    let generated: u64 = trace
        .phases
        .iter()
        .flat_map(|p| p.rounds.iter())
        .flat_map(|r| r.ops.iter())
        .map(|op| op.targets_len as u64)
        .sum();
    assert_eq!(generated, stats.events_generated);
}

#[test]
fn batch_touching_isolated_vertices() {
    // Insert edges to/from vertices that never had any.
    let mut g = AdjacencyGraph::new(6);
    g.insert_edge(0, 1, 2.0).unwrap();
    let mut batch = UpdateBatch::new();
    batch.insert(1, 5, 3.0);
    batch.insert(5, 4, 1.0);
    for w in Workload::ALL {
        check_streaming(w, &g, &batch, DeleteStrategy::Dap, 0);
    }
}

#[test]
fn weight_change_via_delete_and_insert() {
    let mut g = AdjacencyGraph::new(3);
    g.insert_edge(0, 1, 10.0).unwrap();
    g.insert_edge(1, 2, 10.0).unwrap();
    let mut batch = UpdateBatch::new();
    batch.delete(0, 1);
    batch.insert(0, 1, 1.0); // same edge, cheaper
    for w in Workload::ALL {
        for s in DeleteStrategy::ALL {
            check_streaming(w, &g, &batch, s, 0);
        }
    }
}

#[test]
fn two_phase_accumulative_recovery_matches_oracle() {
    // The paper's literal Algorithm 6 (intermediate-graph flow) must agree
    // with both the oracle and the default coalesced recovery.
    let g = gen::rmat(200, 1200, gen::RmatParams::default(), 61);
    let batch = gen::batch_with_ratio(&g, 60, 0.7, 62);
    for w in [Workload::PageRank, Workload::Adsorption] {
        let mut results = Vec::new();
        for recovery in [AccumulativeRecovery::TwoPhase, AccumulativeRecovery::Coalesced] {
            let config =
                EngineConfig { accumulative_recovery: recovery, ..EngineConfig::default() };
            let mut engine = StreamingEngine::new(w.instantiate(0), g.clone(), config);
            engine.initial_compute();
            engine.apply_update_batch(&batch).unwrap();
            results.push(engine.values().to_vec());
        }
        let mut mutated = g.clone();
        mutated.apply_batch(&batch).unwrap();
        let expected = oracle_values(w, &mutated.snapshot(), 0);
        for (i, r) in results.iter().enumerate() {
            assert!(
                oracle::values_match_tol(r, &expected, tolerance(w)),
                "{} recovery variant {i} diverged",
                w.name()
            );
        }
    }
}

#[test]
fn coalesced_recovery_does_less_work_than_two_phase() {
    let g = gen::rmat(2048, 16384, gen::RmatParams::default(), 63);
    let batch = gen::batch_with_ratio(&g, 16, 0.7, 64);
    let work = |recovery| {
        let config = EngineConfig { accumulative_recovery: recovery, ..EngineConfig::default() };
        let mut engine = StreamingEngine::new(Workload::PageRank.instantiate(0), g.clone(), config);
        engine.initial_compute();
        engine.apply_update_batch(&batch).unwrap().events_processed
    };
    let two_phase = work(AccumulativeRecovery::TwoPhase);
    let coalesced = work(AccumulativeRecovery::Coalesced);
    assert!(coalesced * 2 < two_phase, "coalesced {coalesced} vs two-phase {two_phase} events");
}

/// Failure injection: every class of invalid batch must error out of
/// `engine` — through the full flow and through the admission pre-check —
/// without perturbing it: its query state and queue statistics are what
/// they were before the rejections. `twin` never sees the rejected
/// batches, and the two must stay indistinguishable in graph —
/// and, where two runs of the executor are `reproducible` (the
/// sequential one; sharded runs differ by schedule), in query state,
/// queue statistics, and (because the per-batch scratch must come back
/// empty) the exact stats of the next valid batch.
fn assert_rejections_leave_no_trace<X: Executor>(
    w: Workload,
    g: &AdjacencyGraph,
    mut engine: StreamingFlow<X>,
    mut twin: StreamingFlow<X>,
    reproducible: bool,
) {
    engine.initial_compute();
    twin.initial_compute();
    let observe = |e: &StreamingFlow<X>| {
        (
            e.values().to_vec(),
            e.dependencies().to_vec(),
            e.last_impacted().to_vec(),
            e.queue_stats(),
        )
    };
    let before = observe(&engine);
    let (u, v, _) = g.iter_edges().next().unwrap();
    // A deletion the converged state proves safe (when it can prove any),
    // so a rejected batch also reaches the admitted fast path's apply.
    let safe = g
        .iter_edges()
        .find(|&(a, b, _)| (a, b) != (u, v) && engine.classify_delete(a, b) == UpdateSafety::Safe);
    let mut rejected: Vec<(&str, UpdateBatch)> = Vec::new();
    let mut batch = UpdateBatch::new();
    batch.delete(0, 99); // not an edge
    rejected.push(("missing delete", batch));
    let mut batch = UpdateBatch::new();
    batch.insert(u, v, 1.0); // already present
    if let Some((a, b, _)) = safe {
        batch.delete(a, b);
    }
    rejected.push(("duplicate insert", batch));
    let mut batch = UpdateBatch::new();
    batch.insert(0, 10_000, 1.0);
    rejected.push(("out-of-range target", batch));
    let mut batch = UpdateBatch::new();
    batch.insert(10_000, 0, 1.0);
    rejected.push(("out-of-range source", batch));
    let mut batch = UpdateBatch::new();
    batch.insert(5, 5, 1.0);
    rejected.push(("self loop", batch));
    let fresh = (0..100).find(|&t| t != u && !g.has_edge(u, t)).unwrap();
    let mut batch = UpdateBatch::new();
    batch.delete(u, v);
    batch.delete(u, v);
    rejected.push(("double delete", batch));
    let mut batch = UpdateBatch::new();
    batch.insert(u, fresh, 1.0);
    batch.insert(u, fresh, 2.0);
    rejected.push(("double insert", batch));
    // Valid updates first, the offender last: nothing of a batch may be
    // seeded, and the graph may not move, before all of it is accepted.
    let mut batch = UpdateBatch::new();
    batch.delete(u, v);
    batch.insert(u, fresh, 1.0);
    batch.delete(0, 99);
    rejected.push(("valid updates, then a missing delete", batch));
    let mut batch = UpdateBatch::new();
    batch.delete(u, v);
    batch.insert(u, fresh, 1.0);
    batch.insert(10_000, 0, 1.0);
    rejected.push(("valid updates, then an out-of-range source", batch));
    for (what, batch) in &rejected {
        assert!(engine.apply_update_batch(batch).is_err(), "{}: {what}", w.name());
        assert!(engine.apply_admitted_batch(batch).is_err(), "{}: {what} (admitted)", w.name());
    }

    let assert_twins = |engine: &StreamingFlow<X>, twin: &StreamingFlow<X>, when: &str| {
        let tag = format!("{} {when}", w.name());
        if reproducible {
            assert_eq!(observe(engine), observe(twin), "{tag}: query state and queue stats");
        }
        assert_eq!(engine.csr(), twin.csr(), "{tag}: graph");
        assert_eq!(engine.validate_converged(), Ok(()), "{tag}");
    };
    assert_eq!(observe(&engine), before, "{}: query state and queue stats", w.name());
    assert_twins(&engine, &twin, "after rejections");

    // And the engine still works afterwards, exactly as if nothing happened.
    let batch = gen::batch_with_ratio(engine.graph(), 10, 0.5, 72);
    let (stats, twin_stats) =
        (engine.apply_update_batch(&batch).unwrap(), twin.apply_update_batch(&batch).unwrap());
    if reproducible {
        assert_eq!(stats, twin_stats, "{}: next batch stats", w.name());
    }
    assert_twins(&engine, &twin, "after the next batch");
    let mut reference = g.clone();
    reference.apply_batch(&batch).unwrap();
    let expected = oracle_values(w, &reference.snapshot(), 0);
    assert!(
        oracle::values_match_tol(engine.values(), &expected, tolerance(w)),
        "{} diverged after recovering from errors",
        w.name()
    );
}

#[test]
fn invalid_batches_leave_engine_untouched() {
    let g = gen::rmat(100, 600, gen::RmatParams::default(), 71);
    for w in Workload::ALL {
        let seq = || engine_for(w, g.clone(), DeleteStrategy::Dap, 0);
        assert_rejections_leave_no_trace(w, &g, seq(), seq(), true);
        let sharded = || ShardedEngine::new(w.instantiate(0), g.clone(), seq().config(), 3);
        assert_rejections_leave_no_trace(w, &g, sharded(), sharded(), false);
    }
}

/// One graph: what `graph()` returns *is* the out-edge half of `csr()`, and
/// after a churn stream it is the graph an independent model says it is.
fn assert_one_graph_tracks_the_model<X: Executor>(mut engine: StreamingFlow<X>, what: &str) {
    let mut model = EdgeModel::of(engine.graph());
    engine.initial_compute();
    for i in 0..12 {
        let batch = gen::batch_with_ratio(engine.graph(), 40, 0.5, 900 + i);
        engine.apply_update_batch(&batch).unwrap();
        model.apply(&batch);
        assert!(std::ptr::eq(engine.graph(), &engine.csr().out), "{what}: a second graph");
        model.assert_matches(engine.csr(), &format!("{what} batch {i}"));
    }
}

#[test]
fn the_engine_graph_is_the_csr_and_tracks_the_model() {
    let g = gen::rmat(200, 1600, gen::RmatParams::default(), 75);
    for w in [Workload::Sssp, Workload::PageRank] {
        let seq = engine_for(w, g.clone(), DeleteStrategy::Dap, 0);
        let sharded = ShardedEngine::new(w.instantiate(0), g.clone(), seq.config(), 3);
        assert_one_graph_tracks_the_model(seq, &format!("{} sequential", w.name()));
        assert_one_graph_tracks_the_model(sharded, &format!("{} sharded", w.name()));
    }
}

#[test]
fn stats_are_internally_consistent() {
    let g = gen::rmat(256, 1500, gen::RmatParams::default(), 73);
    let batch = gen::batch_with_ratio(&g, 40, 0.7, 74);
    for w in Workload::ALL {
        let mut engine = engine_for(w, g.clone(), DeleteStrategy::Dap, 0);
        let init = engine.initial_compute();
        assert!(init.vertex_writes <= init.vertex_reads, "{}", w.name());
        assert!(init.events_processed <= init.events_generated);
        assert!(init.rounds > 0);

        let inc = engine.apply_update_batch(&batch).unwrap();
        assert!(inc.vertex_writes <= inc.vertex_reads, "{}", w.name());
        assert_eq!(inc.resets as usize, engine.last_impacted().len());
        assert!(
            inc.stream_reads > 0,
            "{}: the stream reader must have consumed the batch",
            w.name()
        );
    }
}

#[test]
fn admitted_fast_path_is_bit_identical_to_full_path() {
    // The serving layer's RisGraph-style pre-check: a batch whose deletions
    // all classify safe may skip the delete wave entirely, and the resulting
    // values / dependencies / impacted set must be *bit*-identical to the
    // full flow — not merely within tolerance.
    use jetstream_core::UpdateSafety;
    for seed in [21u64, 22, 23] {
        let g = gen::rmat(300, 2000, gen::RmatParams::default(), seed);
        for w in [Workload::Sssp, Workload::Bfs, Workload::Sswp, Workload::Cc] {
            let mut fast = engine_for(w, g.clone(), DeleteStrategy::Dap, 0);
            fast.initial_compute();
            let mut full = engine_for(w, g.clone(), DeleteStrategy::Dap, 0);
            full.initial_compute();

            // Keep only deletions the converged engine classifies as safe,
            // plus a handful of fresh insertions.
            let candidate = gen::batch_with_ratio(&g, 60, 0.5, seed + 100);
            let mut batch = UpdateBatch::new();
            for &(u, v, wt) in candidate.insertions() {
                batch.insert(u, v, wt);
            }
            let mut kept = 0;
            for &(u, v) in candidate.deletions() {
                if fast.classify_delete(u, v) == UpdateSafety::Safe {
                    batch.delete(u, v);
                    kept += 1;
                }
            }
            assert!(kept > 0, "{} seed {seed}: no safe deletions to exercise", w.name());

            let class = fast.classify_batch(&batch);
            assert!(class.skips_delete_phases());
            assert_eq!(class.safe_deletes, kept);

            let (fast_stats, _) = fast.apply_admitted_batch(&batch).unwrap();
            let full_stats = full.apply_update_batch(&batch).unwrap();

            let fast_bits: Vec<u64> = fast.values().iter().map(|v| v.to_bits()).collect();
            let full_bits: Vec<u64> = full.values().iter().map(|v| v.to_bits()).collect();
            assert_eq!(fast_bits, full_bits, "{} seed {seed}: values diverged", w.name());
            assert_eq!(fast.dependencies(), full.dependencies(), "{} seed {seed}", w.name());
            let mut fast_imp = fast.last_impacted().to_vec();
            let mut full_imp = full.last_impacted().to_vec();
            fast_imp.sort_unstable();
            full_imp.sort_unstable();
            assert_eq!(fast_imp, full_imp, "{} seed {seed}: impacted diverged", w.name());
            // The fast path must actually skip work, not just agree.
            assert!(
                fast_stats.stream_reads <= full_stats.stream_reads,
                "{} seed {seed}: fast path read more of the stream",
                w.name()
            );
            assert_eq!(fast.validate_converged(), Ok(()), "{} seed {seed}", w.name());
        }
    }
}

#[test]
fn admitted_batch_with_unsafe_deletes_falls_back_to_full_flow() {
    // A tree-edge delete classifies unsafe; the admitted path must then be
    // exactly the ordinary flow and still match the oracle.
    use jetstream_core::UpdateSafety;
    let g = gen::rmat(200, 1200, gen::RmatParams::default(), 31);
    for w in [Workload::Sssp, Workload::PageRank] {
        let mut engine = engine_for(w, g.clone(), DeleteStrategy::Dap, 0);
        engine.initial_compute();

        // Find an unsafe edge to delete: for SSSP a dependence-tree edge
        // (guaranteed unsafe under DAP); for PageRank any edge at all,
        // since accumulative updates never classify safe.
        let tree_edge = match w.kind() {
            UpdateKind::Selective => engine
                .dependencies()
                .iter()
                .enumerate()
                .find_map(|(v, dep)| dep.map(|u| (u, v as u32)))
                .expect("converged SSSP state has at least one dependence edge"),
            UpdateKind::Accumulative => {
                let (u, v, _) = g.iter_edges().next().unwrap();
                (u, v)
            }
        };
        let mut batch = UpdateBatch::new();
        batch.delete(tree_edge.0, tree_edge.1);

        let class = engine.classify_batch(&batch);
        assert_eq!(engine.classify_delete(tree_edge.0, tree_edge.1), UpdateSafety::Unsafe);
        assert!(!class.skips_delete_phases(), "{}", w.name());
        assert_eq!(class.unsafe_total(), 1, "{}", w.name());

        engine.apply_admitted_batch(&batch).unwrap();
        let mut mutated = g.clone();
        mutated.apply_batch(&batch).unwrap();
        let expected = oracle_values(w, &mutated.snapshot(), 0);
        assert!(
            oracle::values_match_tol(engine.values(), &expected, tolerance(w)),
            "{} fallback path diverged from oracle",
            w.name()
        );
    }
}

#[test]
fn classification_is_cheap_and_honest() {
    // Inserts: safe iff selective. Out-of-range deletes: unsafe (the apply
    // path owns the typed rejection). Identity-valued targets: always safe.
    use jetstream_core::UpdateSafety;
    let g = gen::rmat(100, 600, gen::RmatParams::default(), 41);
    let mut sssp = engine_for(Workload::Sssp, g.clone(), DeleteStrategy::Dap, 0);
    sssp.initial_compute();
    assert_eq!(sssp.classify_insert(), UpdateSafety::Safe);
    // An insert-only batch has no delete phases to skip (kills jm-9d45978c).
    let mut inserts = UpdateBatch::new();
    inserts.insert(0, 1, 1.0);
    assert!(!sssp.classify_batch(&inserts).skips_delete_phases());
    assert_eq!(sssp.classify_delete(0, 10_000), UpdateSafety::Unsafe);
    if let Some(unreachable) = (0..100).find(|&v| sssp.values()[v as usize].is_infinite()) {
        assert_eq!(sssp.classify_delete(0, unreachable), UpdateSafety::Safe);
    }

    let mut pr = engine_for(Workload::PageRank, g.clone(), DeleteStrategy::Dap, 0);
    pr.initial_compute();
    assert_eq!(pr.classify_insert(), UpdateSafety::Unsafe);
    assert_eq!(pr.classify_delete(0, 1), UpdateSafety::Unsafe);

    // Non-DAP strategies never prove a delete safe.
    let mut tag = engine_for(Workload::Sssp, g, DeleteStrategy::Tag, 0);
    tag.initial_compute();
    assert_eq!(tag.classify_delete(0, 99), UpdateSafety::Unsafe);
}

/// 12 vertices with the row shapes the kernel's emission has to get right:
/// a hub (0, out-degree 11), a sink (11, empty row) and a two-cycle
/// (3 <-> 4) whose rows feed each other — the nearest thing to a self-loop,
/// which `AdjacencyGraph` rejects (`GraphError::SelfLoop`).
fn hub_loop_sink_graph() -> AdjacencyGraph {
    let mut g = AdjacencyGraph::new(12);
    for v in 1..12 {
        g.insert_edge(0, v, 1.0).unwrap();
    }
    for &(u, v) in &[
        (4u32, 3u32),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 1),
        (6, 7),
        (7, 8),
        (8, 0),
        (9, 10),
        (10, 11),
        (2, 9),
        (5, 6),
    ] {
        g.insert_edge(u, v, 1.0).unwrap();
    }
    g
}

/// [`hub_loop_sink_graph`] with the weights SSSP and SSWP read: five
/// values, zero among them, spread over the rows so each row carries
/// several.
fn weighted_hub_loop_sink_graph() -> AdjacencyGraph {
    let edges: Vec<_> = hub_loop_sink_graph()
        .iter_edges()
        .map(|(u, v, _)| (u, v, [0.5, 1.0, 2.0, 0.0, 3.0][((3 * u + v) % 5) as usize]))
        .collect();
    AdjacencyGraph::from_edges(12, &edges)
}

fn hub_loop_sink_batch() -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    batch.delete(0, 5);
    batch.delete(2, 3);
    batch.delete(7, 8);
    batch.insert(4, 0, 1.0);
    batch.insert(8, 11, 1.0);
    batch.insert(10, 6, 1.0);
    batch
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step per byte of `x`, little end first.
fn fnv1a(h: u64, x: u64) -> u64 {
    x.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a over everything a [`Trace`](jetstream_core::trace::Trace)
/// records: phase labels, round boundaries, every op field, and the flat
/// target array.
fn trace_digest(trace: &jetstream_core::trace::Trace) -> u64 {
    use jetstream_core::trace::OpKind;
    let mut h = FNV_OFFSET;
    let mut eat = |x: u64| h = fnv1a(h, x);
    for phase in &trace.phases {
        phase.phase.label().bytes().for_each(|b| eat(u64::from(b)));
        for round in &phase.rounds {
            eat(u64::MAX); // round boundary
            for op in &round.ops {
                let kind = match op.kind {
                    OpKind::Apply => 0,
                    OpKind::Delete => 1,
                    OpKind::StreamRead => 2,
                    OpKind::RequestSetup => 3,
                    _ => 4,
                };
                for x in [
                    u64::from(op.vertex),
                    kind,
                    u64::from(op.changed),
                    u64::from(op.edges_read),
                    u64::from(op.targets_start),
                    u64::from(op.targets_len),
                ] {
                    eat(x);
                }
            }
        }
    }
    trace.targets.iter().for_each(|&t| eat(u64::from(t)));
    h
}

/// What one traced run (cold evaluation, then the batch) must reproduce.
struct Golden {
    initial: jetstream_core::RunStats,
    batch: jetstream_core::RunStats,
    ops: usize,
    targets: usize,
    digest: u64,
    impacted: &'static [VertexId],
    /// FNV-1a over the `to_bits` of every final value (captured at
    /// 56abb9f for every row).
    values: u64,
}

fn values_digest(values: &[f64]) -> u64 {
    values.iter().fold(FNV_OFFSET, |h, v| fnv1a(h, v.to_bits()))
}

fn check_golden(
    workload: Workload,
    strategy: DeleteStrategy,
    recovery: AccumulativeRecovery,
    graph: fn() -> AdjacencyGraph,
    want: &Golden,
) {
    let label = format!("{} ({strategy:?}, {recovery:?})", workload.name());
    let config =
        EngineConfig { delete_strategy: strategy, accumulative_recovery: recovery, num_bins: 4 };
    let mut engine = StreamingEngine::new(workload.instantiate(0), graph(), config);
    engine.set_tracing(true);
    let initial = engine.initial_compute();
    let batch = engine.apply_update_batch(&hub_loop_sink_batch()).unwrap();
    let trace = engine.take_trace();
    assert_eq!(initial, want.initial, "{label}: initial RunStats");
    assert_eq!(batch, want.batch, "{label}: batch RunStats");
    assert_eq!(trace.num_ops(), want.ops, "{label}: traced ops");
    assert_eq!(trace.targets.len(), want.targets, "{label}: traced targets");
    assert_eq!(trace_digest(&trace), want.digest, "{label}: trace digest");
    assert_eq!(engine.last_impacted(), want.impacted, "{label}: impacted order");
    assert_eq!(values_digest(engine.values()), want.values, "{label}: values digest");
}

// Values captured at d73234a, where the kernel emitted one event per edge
// through `ExecState::emit`: row emission must not move a single op,
// target or counter. `Dap` is the paper's DAP, with no restore
// step: the two DAP rows that reset a vertex (BFS and SSSP, vertex 5)
// trace exactly what they traced before the restore extension existed.
#[test]
fn row_emission_reproduces_the_per_edge_trace_and_stats() {
    use jetstream_core::RunStats;
    check_golden(
        Workload::PageRank,
        DeleteStrategy::Dap,
        AccumulativeRecovery::Coalesced,
        hub_loop_sink_graph,
        &Golden {
            initial: RunStats {
                events_processed: 509,
                events_generated: 1001,
                vertex_reads: 509,
                vertex_writes: 509,
                edge_reads: 1015,
                rounds: 43,
                events_coalesced: 492,
                ..RunStats::default()
            },
            batch: RunStats {
                events_processed: 247,
                events_generated: 495,
                vertex_reads: 259,
                vertex_writes: 247,
                edge_reads: 496,
                stream_reads: 36,
                rounds: 21,
                events_coalesced: 248,
                ..RunStats::default()
            },
            ops: 780,
            targets: 1496,
            digest: 0xf19e_d9ab_1887_7590,
            impacted: &[],
            values: 0xfe08_319d_27a6_2ed6,
        },
    );
    check_golden(
        Workload::Bfs,
        DeleteStrategy::Dap,
        AccumulativeRecovery::Coalesced,
        hub_loop_sink_graph,
        &Golden {
            initial: RunStats {
                events_processed: 24,
                events_generated: 25,
                vertex_reads: 24,
                vertex_writes: 12,
                edge_reads: 24,
                rounds: 3,
                events_coalesced: 1,
                ..RunStats::default()
            },
            batch: RunStats {
                events_processed: 14,
                events_generated: 14,
                vertex_reads: 20,
                vertex_writes: 2,
                edge_reads: 8,
                resets: 1,
                delete_events: 5,
                request_events: 1,
                stream_reads: 6,
                rounds: 5,
                ..RunStats::default()
            },
            ops: 46,
            targets: 39,
            digest: 0xa557_dc20_9c7b_5076,
            impacted: &[5],
            values: 0xf9f5_2798_ea57_2ac5,
        },
    );
    check_golden(
        Workload::Cc,
        DeleteStrategy::Tag,
        AccumulativeRecovery::Coalesced,
        hub_loop_sink_graph,
        &Golden {
            initial: RunStats {
                events_processed: 36,
                events_generated: 49,
                vertex_reads: 36,
                vertex_writes: 23,
                edge_reads: 37,
                rounds: 3,
                events_coalesced: 13,
                ..RunStats::default()
            },
            batch: RunStats {
                events_processed: 60,
                events_generated: 103,
                vertex_reads: 66,
                vertex_writes: 36,
                edge_reads: 88,
                resets: 12,
                delete_events: 23,
                request_events: 24,
                stream_reads: 6,
                rounds: 8,
                events_coalesced: 43,
                ..RunStats::default()
            },
            ops: 126,
            targets: 152,
            digest: 0x6450_9f73_4dc3_e37c,
            impacted: &[3, 5, 8, 0, 1, 4, 6, 2, 7, 9, 10, 11],
            values: 0x0243_cfa8_4518_5aa5,
        },
    ); // The accumulative set-up's other two shapes, captured at 56abb9f,
       // where it copied old rows out of the host graph and seeded event by
       // event: the per-edge loop (Adsorption's contribution is weighted) and
       // the literal two-phase flow, whose replay reads post-intermediate
       // values.
    check_golden(
        Workload::Adsorption,
        DeleteStrategy::Dap,
        AccumulativeRecovery::Coalesced,
        hub_loop_sink_graph,
        &Golden {
            initial: RunStats {
                events_processed: 515,
                events_generated: 1013,
                vertex_reads: 515,
                vertex_writes: 515,
                edge_reads: 1021,
                rounds: 43,
                events_coalesced: 498,
                ..RunStats::default()
            },
            batch: RunStats {
                events_processed: 251,
                events_generated: 499,
                vertex_reads: 263,
                vertex_writes: 251,
                edge_reads: 501,
                stream_reads: 36,
                rounds: 22,
                events_coalesced: 248,
                ..RunStats::default()
            },
            ops: 790,
            targets: 1512,
            digest: 0x8ecd_36c5_0a8f_872d,
            impacted: &[],
            values: 0xb85c_4495_acf2_7ea8,
        },
    );
    check_golden(
        Workload::PageRank,
        DeleteStrategy::Dap,
        AccumulativeRecovery::TwoPhase,
        hub_loop_sink_graph,
        &Golden {
            initial: RunStats {
                events_processed: 509,
                events_generated: 1001,
                vertex_reads: 509,
                vertex_writes: 509,
                edge_reads: 1015,
                rounds: 43,
                events_coalesced: 492,
                ..RunStats::default()
            },
            batch: RunStats {
                events_processed: 243,
                events_generated: 455,
                vertex_reads: 255,
                vertex_writes: 243,
                edge_reads: 456,
                stream_reads: 36,
                rounds: 22,
                events_coalesced: 212,
                ..RunStats::default()
            },
            ops: 776,
            targets: 1456,
            digest: 0x2943_349e_0f6a_daf9,
            impacted: &[],
            values: 0x553a_a10d_16d3_6e27,
        },
    );
    // The weighted rows and the delete rows, captured at 032f700, where
    // SSSP and SSWP called `propagate` and built an `Event` per out-edge
    // and every delete wave went out event by event: SSSP's `+` under DAP
    // (sourced rows, deletes straight to overflow), SSWP's `min` under
    // Tag (coalescing delete rows), SSSP under VAP (plain weighted rows,
    // per-edge deletes) and BFS under Tag (a uniform row's delete wave).
    check_golden(
        Workload::Sssp,
        DeleteStrategy::Dap,
        AccumulativeRecovery::Coalesced,
        weighted_hub_loop_sink_graph,
        &Golden {
            initial: RunStats {
                events_processed: 30,
                events_generated: 32,
                vertex_reads: 30,
                vertex_writes: 17,
                edge_reads: 31,
                rounds: 5,
                events_coalesced: 2,
                ..RunStats::default()
            },
            batch: RunStats {
                events_processed: 14,
                events_generated: 14,
                vertex_reads: 20,
                vertex_writes: 2,
                edge_reads: 8,
                resets: 1,
                delete_events: 5,
                request_events: 1,
                stream_reads: 6,
                rounds: 5,
                ..RunStats::default()
            },
            ops: 52,
            targets: 46,
            digest: 0x17bc_edac_d6a4_4ad1,
            impacted: &[5],
            values: 0x2916_0406_f336_7455,
        },
    );
    check_golden(
        Workload::Sswp,
        DeleteStrategy::Tag,
        AccumulativeRecovery::Coalesced,
        weighted_hub_loop_sink_graph,
        &Golden {
            initial: RunStats {
                events_processed: 27,
                events_generated: 28,
                vertex_reads: 27,
                vertex_writes: 14,
                edge_reads: 27,
                rounds: 4,
                events_coalesced: 1,
                ..RunStats::default()
            },
            batch: RunStats {
                events_processed: 56,
                events_generated: 76,
                vertex_reads: 62,
                vertex_writes: 24,
                edge_reads: 86,
                resets: 12,
                delete_events: 23,
                request_events: 24,
                stream_reads: 6,
                rounds: 8,
                events_coalesced: 20,
                ..RunStats::default()
            },
            ops: 102,
            targets: 104,
            digest: 0xabd6_2317_8117_9679,
            impacted: &[3, 5, 8, 0, 1, 4, 6, 2, 7, 9, 10, 11],
            values: 0x61bd_04d9_c85e_70d8,
        },
    );
    check_golden(
        Workload::Sssp,
        DeleteStrategy::Vap,
        AccumulativeRecovery::Coalesced,
        weighted_hub_loop_sink_graph,
        &Golden {
            initial: RunStats {
                events_processed: 30,
                events_generated: 32,
                vertex_reads: 30,
                vertex_writes: 17,
                edge_reads: 31,
                rounds: 5,
                events_coalesced: 2,
                ..RunStats::default()
            },
            batch: RunStats {
                events_processed: 14,
                events_generated: 14,
                vertex_reads: 20,
                vertex_writes: 2,
                edge_reads: 8,
                resets: 1,
                delete_events: 5,
                request_events: 1,
                stream_reads: 6,
                rounds: 5,
                ..RunStats::default()
            },
            ops: 52,
            targets: 46,
            digest: 0xc470_ea6b_5030_1157,
            impacted: &[5],
            values: 0x2916_0406_f336_7455,
        },
    );
    check_golden(
        Workload::Bfs,
        DeleteStrategy::Tag,
        AccumulativeRecovery::Coalesced,
        weighted_hub_loop_sink_graph,
        &Golden {
            initial: RunStats {
                events_processed: 24,
                events_generated: 25,
                vertex_reads: 24,
                vertex_writes: 12,
                edge_reads: 24,
                rounds: 3,
                events_coalesced: 1,
                ..RunStats::default()
            },
            batch: RunStats {
                events_processed: 55,
                events_generated: 76,
                vertex_reads: 61,
                vertex_writes: 24,
                edge_reads: 86,
                resets: 12,
                delete_events: 23,
                request_events: 24,
                stream_reads: 6,
                rounds: 8,
                events_coalesced: 21,
                ..RunStats::default()
            },
            ops: 98,
            targets: 101,
            digest: 0x323d_4350_2434_f1df,
            impacted: &[3, 5, 8, 0, 1, 4, 6, 2, 7, 9, 10, 11],
            values: 0xf9f5_2798_ea57_2ac5,
        },
    );
}

// Value-aware propagation under the `more_progressed` default, captured at
// 3bdb217, where SSWP (`Max`) and CC (labels) each hand-wrote it: VAP's
// reset guard must keep every op, counter and value bit. SSWP prunes all
// but two resets; every CC label is 0 here, so no delete is more
// progressed than its target and VAP resets exactly what Tag does.
#[test]
fn vap_reset_guard_reproduces_the_hand_written_comparisons() {
    use jetstream_core::RunStats;
    check_golden(
        Workload::Sswp,
        DeleteStrategy::Vap,
        AccumulativeRecovery::Coalesced,
        weighted_hub_loop_sink_graph,
        &Golden {
            initial: RunStats {
                events_processed: 27,
                events_generated: 28,
                vertex_reads: 27,
                vertex_writes: 14,
                edge_reads: 27,
                rounds: 4,
                events_coalesced: 1,
                ..RunStats::default()
            },
            batch: RunStats {
                events_processed: 21,
                events_generated: 24,
                vertex_reads: 27,
                vertex_writes: 3,
                edge_reads: 19,
                resets: 2,
                delete_events: 5,
                request_events: 3,
                stream_reads: 6,
                rounds: 5,
                events_coalesced: 3,
                ..RunStats::default()
            },
            ops: 57,
            targets: 52,
            digest: 0x4a2f_1830_220f_7339,
            impacted: &[3, 8],
            values: 0x61bd_04d9_c85e_70d8,
        },
    );
    check_golden(
        Workload::Cc,
        DeleteStrategy::Vap,
        AccumulativeRecovery::Coalesced,
        hub_loop_sink_graph,
        &Golden {
            initial: RunStats {
                events_processed: 36,
                events_generated: 49,
                vertex_reads: 36,
                vertex_writes: 23,
                edge_reads: 37,
                rounds: 3,
                events_coalesced: 13,
                ..RunStats::default()
            },
            batch: RunStats {
                events_processed: 60,
                events_generated: 103,
                vertex_reads: 66,
                vertex_writes: 36,
                edge_reads: 88,
                resets: 12,
                delete_events: 23,
                request_events: 24,
                stream_reads: 6,
                rounds: 8,
                events_coalesced: 43,
                ..RunStats::default()
            },
            ops: 126,
            targets: 152,
            digest: 0x6450_9f73_4dc3_e37c,
            impacted: &[3, 5, 8, 0, 1, 4, 6, 2, 7, 9, 10, 11],
            values: 0x0243_cfa8_4518_5aa5,
        },
    );
}

/// Deletions of edges neither SSSP's nor SSWP's dependence tree uses on
/// [`weighted_hub_loop_sink_graph`], and insertions that improve each.
fn safe_hub_loop_sink_batch() -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    batch.delete(5, 1).delete(4, 3).delete(5, 6);
    batch.insert(3, 9, 0.5).insert(8, 7, 0.25).insert(4, 2, 1.0); // SSSP
    batch.insert(4, 1, 3.0).insert(9, 6, 2.0).insert(2, 11, 2.0); // SSWP
    batch
}

// The admission fast path on an all-safe DAP batch, captured at 3bdb217,
// where it was a second flow body beside the selective flow: RunStats,
// trace digest and value bits.
#[test]
fn admitted_fast_path_reproduces_its_stats_trace_and_values() {
    use jetstream_core::RunStats;
    for (workload, want, digest, values) in [
        (
            Workload::Sssp,
            RunStats {
                events_processed: 12,
                events_generated: 12,
                vertex_reads: 18,
                vertex_writes: 3,
                edge_reads: 6,
                stream_reads: 6,
                rounds: 2,
                ..RunStats::default()
            },
            0x8ab6_bcf3_4745_7e44,
            0xc534_0822_bada_d795,
        ),
        (
            Workload::Sswp,
            RunStats {
                events_processed: 8,
                events_generated: 8,
                vertex_reads: 14,
                vertex_writes: 3,
                edge_reads: 2,
                stream_reads: 6,
                rounds: 2,
                ..RunStats::default()
            },
            0x1aa4_7e9e_eb18_dfbc,
            0xdd12_0878_888a_8470,
        ),
    ] {
        let label = workload.name();
        let mut engine =
            engine_for(workload, weighted_hub_loop_sink_graph(), DeleteStrategy::Dap, 0);
        engine.initial_compute();
        engine.set_tracing(true);
        let (stats, class) = engine.apply_admitted_batch(&safe_hub_loop_sink_batch()).unwrap();
        assert_eq!((class.unsafe_deletes, class.safe_deletes), (0, 3), "{label}");
        assert_eq!(stats, want, "{label}: batch RunStats");
        assert_eq!(trace_digest(&engine.take_trace()), digest, "{label}: trace digest");
        assert_eq!(values_digest(engine.values()), values, "{label}: values digest");
        assert!(engine.last_impacted().is_empty(), "{label}: a safe batch resets nothing");
    }
}

/// SSWP widths tied at 5 under vertex 1, the subtree's entry: the
/// Leads-To tree is 0 -> 1 -> {3 -> 4 -> 5, 6}, and 2's branch reaches 4
/// a round after 3 does, so it only ties there. `5 -> 1` closes a loop
/// too narrow to carry width 5 back to 1.
fn sswp_tie_graph() -> AdjacencyGraph {
    let edges = [
        (0, 1, 5.0),
        (0, 2, 5.0),
        (1, 3, 9.0),
        (3, 4, 9.0),
        (4, 5, 9.0),
        (1, 6, 9.0),
        (2, 7, 9.0),
        (7, 8, 9.0),
        (8, 4, 9.0),
        (5, 1, 3.0),
    ];
    AdjacencyGraph::from_edges(9, &edges)
}

/// SSSP distances tied where reset order cannot see them: the Leads-To
/// tree is 0 -> 1 -> {2, 3 -> 4, 8}, and 4, a grandchild of 1, also ties
/// at 3 through 0 -> 6 -> 7 -> 5 -> 4, a round later. 4 supplies 2 its
/// distance 6 exactly and 8 a 4 that beats 6's 4.5, but 8's 3 only
/// through 1.
fn sssp_late_supplier_graph() -> AdjacencyGraph {
    let edges = [
        (0, 1, 1.0),
        (1, 2, 5.0),
        (1, 3, 1.0),
        (1, 8, 2.0),
        (3, 4, 1.0),
        (4, 2, 3.0),
        (4, 8, 1.0),
        (0, 6, 0.5),
        (6, 7, 0.5),
        (6, 8, 4.0),
        (7, 5, 1.0),
        (5, 4, 1.0),
    ];
    AdjacencyGraph::from_edges(9, &edges)
}

// Deleting 0 -> 1 resets 1's whole subtree, and the restore step hands
// back what a valid in-neighbour still supplies exactly.
//
// SSWP: 4 and 5 keep width 5 through 2's branch: the scan hands both
// their widths back (4 from 8, then 5 from its old parent 4), and only 1,
// 3 and 6, whose widths fall to 3, stay reset; 1 pulls width 3 from 5,
// which the closure offers it, and no request event is sent.
//
// SSSP: reset order scans 2 and 8 before 4, their late supplier, which
// the scan restores from 5. The closure must then restore 2 (4 supplies
// its 6 exactly) and raise 8's recorded best from 6's 4.5 to 4's 4: 4 is
// restored silently and never re-sends its row, so a pull that missed it
// would leave 8 at 4.5.
//
// Kills jm-b257ab77 (the closure skips its identity guard: 8 is restored
// to 3, which nothing supplies).
#[test]
fn dap_restores_the_unchanged_part_of_a_tied_subtree() {
    let mut batch = UpdateBatch::new();
    batch.delete(0, 1);
    let cases = [
        (
            Workload::Sswp,
            sswp_tie_graph(),
            &[1, 3, 6, 4, 5][..],
            &[None, Some(5), Some(0), Some(1), Some(8), Some(4), Some(1), Some(2), Some(7)][..],
        ),
        (
            Workload::Sssp,
            sssp_late_supplier_graph(),
            &[1, 2, 3, 8, 4][..],
            &[None, None, Some(4), None, Some(5), Some(7), Some(0), Some(6), Some(4)][..],
        ),
    ];
    for (workload, graph, impacted, dependencies) in cases {
        let label = workload.name();
        let mut after = graph.clone();
        after.apply_batch(&batch).unwrap();
        let expected = oracle_values(workload, &after, 0);
        let mut seq = engine_for(workload, graph.clone(), DeleteStrategy::DapRestore, 0);
        seq.initial_compute();
        assert_eq!(seq.dependencies()[4], Some(3), "{label}: 3 reaches 4 a round first");
        let stats = seq.apply_update_batch(&batch).unwrap();
        assert_eq!(seq.values(), &expected[..], "{label}");
        assert_eq!(seq.last_impacted(), impacted, "{label}: the wave's resets, restored or not");
        assert_eq!((stats.resets, stats.restored), (5, 2), "{label}");
        // The three vertices left reset pull, and none sends a request.
        assert_eq!(stats.request_events, 0, "{label}");
        assert_eq!(seq.dependencies(), dependencies, "{label}");
        assert_eq!(seq.validate_converged(), Ok(()), "{label}");

        let mut sharded = ShardedEngine::new(workload.instantiate(0), graph, seq.config(), 2);
        sharded.initial_compute();
        let stats = sharded.apply_update_batch(&batch).unwrap();
        assert_eq!(sharded.values(), &expected[..], "{label}");
        // Whether 4 hangs under 3 or under its late tie is the schedule's
        // (DESIGN.md §16.3); either way exactly three vertices stay reset,
        // and none requests.
        assert_eq!((stats.resets - stats.restored, stats.request_events), (3, 0), "{label}");
        assert_eq!(sharded.validate_converged(), Ok(()), "{label}");
    }
}

fn value_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

// The restore extension must leave exactly the values the paper's literal
// flow reaches: DAP with restore (restoring, then pulling) against Tag
// (re-deriving every reset value), bit for bit, after each of 50 churn
// batches, on both executors, and so must the paper's DAP — on an R-MAT
// graph and a Wikipedia-profile (layered, narrow) graph with integer
// weights, the weights that make SSWP's widths and CC's labels tie.
#[test]
fn dap_with_restore_matches_tag_bit_for_bit_over_churn() {
    let graphs = [
        ("rmat", gen::rmat(300, 2400, gen::RmatParams::default(), 91)),
        ("wikipedia", gen::DatasetProfile::Wikipedia.generate(10_000)),
    ];
    for (name, full) in graphs {
        for w in Workload::SELECTIVE {
            let label = format!("{} on {name}", w.name());
            let mut stream = gen::EdgeStream::new(&full, 0.1, 17);
            let base = stream.graph().clone();
            let mut tag = engine_for(w, base.clone(), DeleteStrategy::Tag, 0);
            let mut dap = engine_for(w, base.clone(), DeleteStrategy::Dap, 0);
            let mut restore = engine_for(w, base.clone(), DeleteStrategy::DapRestore, 0);
            let mut sharded = ShardedEngine::new(w.instantiate(0), base, restore.config(), 3);
            tag.initial_compute();
            dap.initial_compute();
            restore.initial_compute();
            sharded.initial_compute();
            let mut restored = 0;
            for i in 0..50 {
                let batch = stream.next_batch(30, 0.5);
                tag.apply_update_batch(&batch).unwrap();
                dap.apply_update_batch(&batch).unwrap();
                restored += restore.apply_update_batch(&batch).unwrap().restored;
                sharded.apply_update_batch(&batch).unwrap();
                let want = value_bits(tag.values());
                assert_eq!(value_bits(dap.values()), want, "{label} batch {i}: the paper's DAP");
                assert_eq!(value_bits(restore.values()), want, "{label} batch {i}: sequential");
                assert_eq!(value_bits(sharded.values()), want, "{label} batch {i}: sharded");
                for e in [&dap, &restore] {
                    assert_eq!(e.validate_converged(), Ok(()), "{label} batch {i}");
                }
                assert_eq!(sharded.validate_converged(), Ok(()), "{label} batch {i}");
            }
            if w == Workload::Sswp {
                assert!(restored > 0, "{label}: no tie restored");
            }
        }
    }
}

// Under DAP with restore, request set-up sends no request event: each
// vertex still reset after the restore step seeds at most its one pulled
// supply and its initializer's replay, both to itself, on one traced op
// that read its whole in-row, and its old parent too when the batch
// deleted that edge. Churn on an R-MAT graph, every selective workload.
#[test]
fn dap_with_restore_pulls_one_supply_per_still_reset_vertex() {
    use jetstream_core::Phase;
    let full = gen::rmat(300, 2400, gen::RmatParams::default(), 91);
    let mut pulled = 0;
    for w in Workload::SELECTIVE {
        let alg = w.instantiate(0);
        let mut stream = gen::EdgeStream::new(&full, 0.1, 17);
        let mut engine = engine_for(w, stream.graph().clone(), DeleteStrategy::DapRestore, 0);
        engine.initial_compute();
        let mut still_reset = 0;
        for i in 0..20 {
            let label = format!("{} batch {i}", w.name());
            let parents = engine.dependencies().to_vec();
            engine.set_tracing(true);
            let stats = engine.apply_update_batch(&stream.next_batch(30, 0.5)).unwrap();
            let trace = engine.take_trace();
            assert_eq!(stats.request_events, 0, "{label}");
            let setup = trace.phases.iter().filter(|p| p.phase == Phase::RequestSetup);
            let mut seeded = 0;
            for op in setup.flat_map(|p| &p.rounds).flat_map(|r| &r.ops) {
                // Every scan, restored or seeding nothing alike, is charged
                // its row and write-back by the replay.
                assert!(op.changed || op.edges_read == 0, "{label}: {op:?}");
                let targets = trace.targets_of(op);
                assert!(targets.iter().all(|&t| t == op.vertex), "{label}: {op:?}");
                let replay = usize::from(alg.initial_event(op.vertex).is_some());
                assert!(targets.len() <= 1 + replay, "{label}: {op:?}");
                if !targets.is_empty() {
                    // A vertex left to the pull was scanned whole: its
                    // in-row, plus its old parent where that edge is gone.
                    let in_row = engine.csr().inc.neighbor_targets(op.vertex);
                    let parent = parents[op.vertex as usize];
                    let gone = parent.is_some_and(|p| !in_row.contains(&p));
                    assert_eq!(op.edges_read as usize, in_row.len() + usize::from(gone), "{label}");
                }
                pulled += targets.len().saturating_sub(replay);
                seeded += targets.len();
            }
            let resets_left = stats.resets - stats.restored;
            assert!(seeded as u64 <= 2 * resets_left, "{label}: {seeded} seeds");
            still_reset += resets_left;
        }
        assert!(still_reset > 0, "{}: every reset vertex restored", w.name());
    }
    assert!(pulled > 0, "nothing pulled");
}

/// What [`a_dap_delete_wave_keeps_its_trace_and_resets`] pins for one
/// workload over its four batches: `(trace digest, resets, FNV-1a over
/// every batch's last_impacted, values digest, rounds of the deepest
/// delete propagation)`.
type Wave = (u64, u64, u64, u64, usize);

/// [`Wave`]s per graph, for each of [`Workload::SELECTIVE`].
const DAP_WAVES: [[Wave; 4]; 2] = [
    [
        (0x2e6c_2050_30b3_2f01, 8, 0x0312_8c32_5b6e_52d2, 0xdcee_2f76_1159_9224, 4),
        (0xc587_640f_74e9_42f3, 17, 0xb69c_d6dd_834d_74df, 0xbd31_c1a5_dbfa_7fa4, 5),
        (0x635f_226c_e9c2_f2a6, 10, 0x3730_2497_ee97_b3f3, 0x872b_3cdd_aede_d5d8, 3),
        (0xa141_f588_8074_f494, 10, 0x3730_2497_ee97_b3f3, 0x47de_2f85_49a7_4913, 3),
    ],
    [
        (0xca13_9aea_48b5_d2f4, 12, 0x4bbf_ee86_895c_8050, 0x4923_bc45_3561_b1f7, 5),
        (0xe81f_8bc2_ea1e_e8f9, 129, 0xc55a_3703_a101_c535, 0x9e48_5611_4401_e56e, 12),
        (0x6c1b_c82f_1f07_9e72, 11, 0xcb92_f639_49b9_1c4b, 0xd01d_86bc_551c_c6df, 5),
        (0x6c1b_c82f_1f07_9e72, 11, 0xcb92_f639_49b9_1c4b, 0x2135_b6a0_21db_1a46, 5),
    ],
];

// Every selective workload under DAP with restore on an R-MAT graph and a
// Wikipedia-profile graph, traced over four churn batches: delete waves
// several rounds deep. Captured at 1ba9b5d, where the wave's delete
// events went one by one through the queue's overflow: the trace, the
// resets and their order, and the values must not move however the wave
// is scheduled. The traces were re-pinned when request set-up became a
// pull, and again when the restore step and the pull became one scan;
// resets, their order and the values did not move. The cycle simulator's
// §4.7 spill count on the SSSP trace is pinned in `jetstream-sim`'s
// `model_properties`.
#[test]
fn a_dap_delete_wave_keeps_its_trace_and_resets() {
    use jetstream_core::Phase;
    let graphs = [
        ("rmat", gen::rmat(600, 4800, gen::RmatParams::default(), 91)),
        ("wikipedia", gen::DatasetProfile::Wikipedia.generate(10_000)),
    ];
    for ((name, full), wants) in graphs.into_iter().zip(DAP_WAVES) {
        for (workload, want) in Workload::SELECTIVE.into_iter().zip(wants) {
            let label = format!("{} on {name}", workload.name());
            let mut stream = gen::EdgeStream::new(&full, 0.1, 17);
            let base = stream.graph().clone();
            let config = EngineConfig {
                delete_strategy: DeleteStrategy::DapRestore,
                num_bins: 4,
                ..EngineConfig::default()
            };
            let mut engine = StreamingEngine::new(workload.instantiate(0), base, config);
            engine.initial_compute();
            engine.set_tracing(true);
            let (mut resets, mut impacted) = (0, FNV_OFFSET);
            for _ in 0..4 {
                let stats = engine.apply_update_batch(&stream.next_batch(30, 0.5)).unwrap();
                resets += stats.resets;
                impacted =
                    engine.last_impacted().iter().fold(impacted, |h, &v| fnv1a(h, u64::from(v)));
            }
            let trace = engine.take_trace();
            let deepest = trace
                .phases
                .iter()
                .filter(|p| p.phase == Phase::DeletePropagation)
                .map(|p| p.rounds.len())
                .max()
                .unwrap_or(0);
            let values = values_digest(engine.values());
            let got = (trace_digest(&trace), resets, impacted, values, deepest);
            assert_eq!(got, want, "{label}");
            assert!(deepest >= 3, "{label}: a delete wave several rounds deep");
            assert_eq!(engine.validate_converged(), Ok(()), "{label}");
        }
    }
}

// Under DAP the flow runs the delete wave on the calling thread for both
// executors, so from one converged state a sharded engine resets exactly
// the sequential engine's vertices, in its order, with its delete events.
// Each batch remounts the sharded engine on the sequential state: ties in
// a sharded recompute leave a different Leads-To forest, which the next
// wave would walk.
#[test]
fn a_dap_delete_wave_is_one_wave_on_both_executors() {
    let full = gen::rmat(300, 2400, gen::RmatParams::default(), 91);
    let config = EngineConfig {
        delete_strategy: DeleteStrategy::Dap,
        num_bins: 4,
        ..EngineConfig::default()
    };
    for w in Workload::SELECTIVE {
        let mut stream = gen::EdgeStream::new(&full, 0.1, 17);
        let mut seq = StreamingEngine::new(w.instantiate(0), stream.graph().clone(), config);
        seq.initial_compute();
        let mut unsorted = false;
        for i in 0..8 {
            let batch = stream.next_batch(30, 0.5);
            let state = (seq.graph().clone(), seq.values().to_vec(), seq.dependencies().to_vec());
            let want = seq.apply_update_batch(&batch).unwrap();
            for shards in [1, 2, 4] {
                let label = format!("{} batch {i}, {shards} shards", w.name());
                let (graph, values, dependency) = state.clone();
                let mut sharded = ShardedEngine::from_checkpoint(
                    w.instantiate(0),
                    graph,
                    values,
                    dependency,
                    config,
                    shards,
                )
                .unwrap();
                let got = sharded.apply_update_batch(&batch).unwrap();
                assert_eq!(sharded.last_impacted(), seq.last_impacted(), "{label}");
                assert_eq!(
                    (got.resets, got.delete_events),
                    (want.resets, want.delete_events),
                    "{label}"
                );
                assert_eq!(value_bits(sharded.values()), value_bits(seq.values()), "{label}");
            }
            unsorted |= !seq.last_impacted().is_sorted();
        }
        assert!(unsorted, "{}: no wave out of id order", w.name());
    }
}
