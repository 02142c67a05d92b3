//! Property-based tests: for random graphs and random update batches, the
//! streaming engine's incremental result equals a from-scratch evaluation —
//! the paper's recoverable-approximation guarantee (§3.2) — for every
//! workload and every delete strategy. Plus structural invariants of the
//! substrate (CSR round trips, queue coalescing, batch validity).

use jetstream::algorithms::{oracle, oracle_values, Sssp, UpdateKind, Workload};
use jetstream::engine::{CoalescingQueue, DeleteStrategy, EngineConfig, Event, StreamingEngine};
use jetstream::graph::{Csr, UpdateBatch};
use jetstream_testkit::{run_cases, DetRng, EdgeModel};

const N: usize = 24;

/// A random raw edge list on `N` vertices: repeats and self-loops included.
fn arb_edges(rng: &mut DetRng) -> Vec<(u32, u32, f64)> {
    let num_edges = rng.gen_range(0, 80);
    (0..num_edges)
        .map(|_| {
            let u = rng.gen_range(0, N) as u32;
            let v = rng.gen_range(0, N) as u32;
            let w = rng.gen_range_inclusive(1, 16) as f64;
            (u, v, w)
        })
        .collect()
}

/// A random simple directed graph on `N` vertices.
fn arb_graph(rng: &mut DetRng) -> Csr {
    Csr::from_edges(N, &arb_edges(rng))
}

/// A random valid batch against `g`: deletions drawn from existing edges,
/// insertions from absent pairs.
fn arb_batch(g: &Csr, rng: &mut DetRng) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    let edges: Vec<(u32, u32)> = g.iter_edges().map(|(u, v, _)| (u, v)).collect();
    let mut deleted = std::collections::BTreeSet::new();
    for _ in 0..rng.gen_range(0, 8) {
        if edges.is_empty() {
            break;
        }
        let idx = rng.gen_index(edges.len());
        if deleted.insert(idx) {
            batch.delete(edges[idx].0, edges[idx].1);
        }
    }
    let mut inserted = std::collections::BTreeSet::new();
    for _ in 0..rng.gen_range(0, 8) {
        let u = rng.gen_range(0, N) as u32;
        let v = rng.gen_range(0, N) as u32;
        if u != v && !g.has_edge(u, v) && inserted.insert((u, v)) {
            batch.insert(u, v, rng.gen_range_inclusive(1, 16) as f64);
        }
    }
    batch
}

fn tolerance(workload: Workload) -> f64 {
    match workload.kind() {
        UpdateKind::Selective => oracle::VALUE_TOLERANCE,
        UpdateKind::Accumulative => oracle::accumulative_tolerance(1e-5),
    }
}

/// The headline invariant: streaming == from-scratch, everywhere.
#[test]
fn streaming_equals_from_scratch() {
    run_cases("streaming_equals_from_scratch", 48, |rng| {
        let g = arb_graph(rng);
        for w in Workload::ALL {
            for strategy in DeleteStrategy::ALL {
                let batch = arb_batch(&g, rng);
                let config = EngineConfig {
                    delete_strategy: strategy,
                    num_bins: 4,
                    ..EngineConfig::default()
                };
                let mut engine = StreamingEngine::new(w.instantiate(0), g.clone(), config);
                engine.initial_compute();
                engine.apply_update_batch(&batch).unwrap();
                assert_eq!(engine.validate_converged(), Ok(()), "{} ({strategy:?})", w.name());

                // The expected graph comes from the model, not from a
                // second run of the code under test.
                let mut model = EdgeModel::of(&g);
                model.apply(&batch);
                model.assert_matches(engine.csr(), w.name());
                let expected = oracle_values(w, &Csr::from_edges(N, &model.edges()), 0);
                assert!(
                    oracle::values_match_tol(engine.values(), &expected, tolerance(w)),
                    "{} ({:?}) diverged: got {:?} want {:?}",
                    w.name(),
                    strategy,
                    engine.values(),
                    expected
                );
            }
        }
    });
}

/// Two consecutive random batches keep the state recoverable.
#[test]
fn two_batches_stay_recoverable() {
    run_cases("two_batches_stay_recoverable", 32, |rng| {
        let g = arb_graph(rng);
        for w in [Workload::Sssp, Workload::Cc, Workload::PageRank] {
            let mut engine =
                StreamingEngine::new(w.instantiate(0), g.clone(), EngineConfig::default());
            engine.initial_compute();
            let mut model = EdgeModel::of(&g);
            for _ in 0..2 {
                let batch = arb_batch(engine.graph(), rng);
                engine.apply_update_batch(&batch).unwrap();
                model.apply(&batch);
            }
            model.assert_matches(engine.csr(), w.name());
            let expected = oracle_values(w, &Csr::from_edges(N, &model.edges()), 0);
            assert!(
                oracle::values_match_tol(engine.values(), &expected, tolerance(w)),
                "{} diverged after two batches",
                w.name()
            );
        }
    });
}

/// CSR construction reduces any edge list to the simple graph an ordered
/// map reduces it to (the first weight of a pair wins, self-loops go),
/// round-trips it, and stays structurally valid.
#[test]
fn csr_roundtrips() {
    run_cases("csr_roundtrips", 64, |rng| {
        let raw = arb_edges(rng);
        let mut simple = std::collections::BTreeMap::new();
        for &(u, v, w) in raw.iter().filter(|(u, v, _)| u != v) {
            simple.entry((u, v)).or_insert(w);
        }
        let orig: Vec<_> = simple.into_iter().map(|((u, v), w)| (u, v, w)).collect();
        let csr = Csr::from_edges(N, &raw);
        assert_eq!(csr.validate(), Ok(()));
        assert_eq!(csr.num_edges(), orig.len());
        for &(u, v, w) in &orig {
            assert_eq!(csr.edge_weight(u, v), Some(w));
        }
        let back: Vec<_> = csr.iter_edges().collect();
        assert_eq!(back, orig);
        assert_eq!(csr.transpose().transpose(), csr);
        assert_eq!(csr.snapshot_pair().validate(), Ok(()));
    });
}

/// Queue coalescing is insertion-order insensitive: any permutation of
/// the same events drains to the same per-vertex reduced payloads
/// (the Reordering property the hardware relies on, §3.1).
#[test]
fn queue_coalescing_is_order_insensitive() {
    run_cases("queue_coalescing_is_order_insensitive", 64, |rng| {
        let n = rng.gen_range(1, 40);
        let payloads: Vec<(u32, u32)> =
            (0..n).map(|_| (rng.gen_range(0, 16) as u32, rng.gen_range(1, 100) as u32)).collect();
        let rotation = rng.gen_index(payloads.len());
        let alg = Sssp::new(0);
        let drain = |events: &[(u32, u32)]| -> Vec<(u32, f64)> {
            let mut q = CoalescingQueue::new(16, 4);
            for &(v, p) in events {
                q.insert(Event::regular(v, f64::from(p)), &alg);
            }
            q.validate().unwrap();
            let mut out: Vec<_> =
                drain_bins(&mut q).iter().map(|e| (e.target, e.payload)).collect();
            out.sort_by_key(|&(target, _)| target);
            out
        };
        let mut rotated = payloads.clone();
        rotated.rotate_left(rotation);
        assert_eq!(drain(&payloads), drain(&rotated));
    });
}

/// Every queued slot event, drained bin by bin through `take_bin_into`.
fn drain_bins(q: &mut CoalescingQueue) -> Vec<Event> {
    let mut out = Vec::new();
    for bin in 0..q.num_bins() {
        q.take_bin_into(bin, &mut out);
    }
    out
}

/// Coalesced queue drains carry the reduce over all inserted payloads.
#[test]
fn queue_preserves_reduction() {
    run_cases("queue_preserves_reduction", 64, |rng| {
        let payloads: Vec<u32> =
            (0..rng.gen_range(1, 30)).map(|_| rng.gen_range(1, 100) as u32).collect();
        let alg = Sssp::new(0);
        let mut q = CoalescingQueue::new(4, 2);
        for &p in &payloads {
            q.insert(Event::regular(2, f64::from(p)), &alg);
        }
        let min = f64::from(*payloads.iter().min().unwrap());
        let found = drain_bins(&mut q).last().map(|e| e.payload);
        assert_eq!(found, Some(min));
    });
}

/// Empty batches never change anything, for any graph.
#[test]
fn empty_batch_is_identity() {
    run_cases("empty_batch_is_identity", 48, |rng| {
        let g = arb_graph(rng);
        let mut engine =
            StreamingEngine::new(Workload::Bfs.instantiate(0), g, EngineConfig::default());
        engine.initial_compute();
        let before = engine.values().to_vec();
        let stats = engine.apply_update_batch(&UpdateBatch::new()).unwrap();
        assert_eq!(engine.values(), &before[..]);
        assert_eq!(stats.resets, 0);
        assert_eq!(stats.events_processed, 0);
    });
}

/// Algorithm trait laws: identity never dominates, reduce is
/// commutative and idempotent-compatible for the selective workloads.
#[test]
fn algorithm_laws() {
    run_cases("algorithm_laws", 64, |rng| {
        let x = 0.1 + rng.gen_f64() * 999.9;
        let y = 0.1 + rng.gen_f64() * 999.9;
        for w in Workload::ALL {
            let a = w.instantiate(0);
            let id = a.identity();
            assert_eq!(a.reduce(x, id), x);
            assert_eq!(a.reduce(x, y), a.reduce(y, x));
            if w.kind() == UpdateKind::Selective {
                // Selection: reducing twice with the same value is stable.
                let r = a.reduce(x, y);
                assert_eq!(a.reduce(r, y), r);
            }
        }
    });
}

/// Deterministic regression: a dense cyclic graph with full teardown.
#[test]
fn cycle_teardown_regression() {
    let mut g = Csr::new(4);
    for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)] {
        g.insert_edge(u, v, 1.0).unwrap();
    }
    let mut batch = UpdateBatch::new();
    for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)] {
        batch.delete(u, v);
    }
    for strategy in DeleteStrategy::ALL {
        let mut engine = StreamingEngine::new(
            Workload::Cc.instantiate(0),
            g.clone(),
            EngineConfig { delete_strategy: strategy, num_bins: 2, ..EngineConfig::default() },
        );
        engine.initial_compute();
        engine.apply_update_batch(&batch).unwrap();
        // Everything disconnected: every vertex is its own component.
        let expected = oracle_values(Workload::Cc, &Csr::new(4), 0);
        assert!(oracle::values_match(engine.values(), &expected), "{strategy:?}");
    }
}
