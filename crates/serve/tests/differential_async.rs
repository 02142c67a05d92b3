//! Differential test for the sharded/async backend: the scripted
//! 4-client session of `differential.rs` runs once against a volatile
//! sequential backend and once against a [`Backend::Sharded`] engine in
//! barrier-free async mode (`--shards`, DESIGN.md §16), and every
//! converged query answer taken at the per-round flush barriers must
//! match across the two servers.
//!
//! The comparison follows the async equivalence contract (DESIGN.md
//! §16.3): SSSP values are bit-exact, PageRank values land within
//! `oracle::accumulative_tolerance`, and the schedule-dependent observables
//! (impacted sets, dependence paths) are checked for well-formedness on
//! the async side rather than equality — the engine-level differential
//! suite covers their contracts directly.

// Test code: aborting on setup failure is the right behavior here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use jetstream_algorithms::{oracle, Workload};
use jetstream_core::{EngineConfig, ShardedEngine, StreamingEngine};
use jetstream_graph::AdjacencyGraph;
use jetstream_serve::backend::Backend;
use jetstream_serve::client::Client;
use jetstream_serve::protocol::Response;
use jetstream_serve::server::{start, Endpoint, ServerConfig};

const CLIENTS: usize = 4;
const REGION: u32 = 32;
const ROUNDS: u64 = 6;
const SHARDS: usize = 4;
const EPSILON: f64 = 1e-5;

/// 1 global root + one 32-vertex line per client, all hanging off the
/// root — the same shape as `differential.rs`, so client updates stay in
/// disjoint regions and admission never sees cross-client conflicts.
fn base_graph() -> AdjacencyGraph {
    let num_vertices = 1 + CLIENTS as u32 * REGION;
    let mut g = AdjacencyGraph::new(num_vertices as usize);
    for k in 0..CLIENTS as u32 {
        let lo = 1 + k * REGION;
        g.insert_edge(0, lo, 1.0).unwrap();
        for v in lo..lo + REGION - 1 {
            g.insert_edge(v, v + 1, 1.0).unwrap();
        }
    }
    g
}

fn volatile_backend(workload: Workload) -> Backend {
    let mut engine = StreamingEngine::new(
        workload.instantiate_with_epsilon(0, EPSILON),
        base_graph(),
        EngineConfig::default(),
    );
    engine.initial_compute();
    Backend::Volatile(Box::new(engine))
}

fn sharded_async_backend(workload: Workload) -> Backend {
    let mut engine = ShardedEngine::new(
        workload.instantiate_with_epsilon(0, EPSILON),
        base_graph(),
        EngineConfig::default(),
        SHARDS,
    );
    engine.initial_compute();
    Backend::Sharded(Box::new(engine))
}

/// Everything one session observes: per-barrier value answers keyed by
/// round, the async-side well-formedness probes, and the final snapshot.
struct Observed {
    /// `(round, vertex, value)` for every barrier value query.
    values: Vec<(u64, u32, f64)>,
    /// Full converged snapshot after the last barrier.
    final_values: Vec<f64>,
    /// Total updates the server reported applying.
    updates_applied: u64,
}

fn assert_admitted(resp: &Response) {
    assert!(matches!(resp, Response::Admitted { .. }), "expected admission, got {resp:?}");
}

/// Drives the scripted 4-client session (same update script as
/// `differential.rs`) against `backend` and records every converged
/// query answer. `probe_schedule_dependent` additionally exercises the
/// impacted/path queries for shape (sortedness, termination) without
/// comparing them across backends.
fn run_session(backend: Backend, probe_schedule_dependent: bool) -> Observed {
    let handle =
        start(backend, ServerConfig::default(), &[Endpoint::Tcp("127.0.0.1:0".into())]).unwrap();
    let addr = handle.tcp_addr().expect("tcp endpoint").to_string();

    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|k| {
            let mut c = Client::connect_tcp(&addr).unwrap();
            let (num_vertices, _alg) = c.hello(&format!("adiff-{k}")).unwrap();
            assert_eq!(num_vertices, 1 + CLIENTS as u64 * u64::from(REGION));
            c
        })
        .collect();

    let mut values = Vec::new();
    for round in 0..ROUNDS {
        for (k, client) in clients.iter_mut().enumerate() {
            let lo = 1 + k as u32 * REGION;
            let hi = lo + REGION - 1;
            let updates = match round {
                0 | 3 => vec![jetstream_graph::EdgeUpdate::Insert {
                    source: lo,
                    target: hi - round as u32,
                    weight: 2.5 + round as f64,
                }],
                1 | 4 => vec![
                    jetstream_graph::EdgeUpdate::Delete {
                        source: lo,
                        target: hi - (round as u32 - 1),
                    },
                    jetstream_graph::EdgeUpdate::Delete { source: lo + 1, target: lo + 2 },
                ],
                _ => vec![jetstream_graph::EdgeUpdate::Insert {
                    source: lo + 1,
                    target: lo + 2,
                    weight: 1.5,
                }],
            };
            let resp = client.send_update(round * 10 + k as u64 + 1, &updates).unwrap();
            assert_admitted(&resp);
        }
        // Barrier: force the open batch to apply, then read converged
        // answers through the wire.
        let barrier = (round % CLIENTS as u64) as usize;
        clients[barrier].flush().unwrap();
        for (k, client) in clients.iter_mut().enumerate() {
            let lo = 1 + k as u32 * REGION;
            let hi = lo + REGION - 1;
            for vertex in [0, lo, lo + 2, hi] {
                values.push((round, vertex, client.query_value(vertex).unwrap()));
            }
        }
        if probe_schedule_dependent {
            let impacted = clients[0].query_impacted().unwrap();
            assert!(
                impacted.windows(2).all(|w| w[0] < w[1]),
                "async impacted answer must be sorted and deduplicated: {impacted:?}"
            );
            let probe = 1 + (round as u32 % CLIENTS as u32) * REGION + REGION - 1;
            let chain = clients[1].query_path(probe).unwrap();
            if let Some(&last) = chain.last() {
                assert_eq!(last, probe, "async path answer must end at the queried vertex");
            }
        }
    }

    let num_vertices = 1 + CLIENTS as u32 * REGION;
    let final_values =
        (0..num_vertices).map(|v| clients[0].query_value(v).unwrap()).collect::<Vec<_>>();
    for client in &mut clients {
        client.goodbye().unwrap();
    }
    let report = handle.shutdown();
    assert!(report.fatal.is_none(), "server fatal: {:?}", report.fatal);
    assert!(!report.applied.is_empty(), "session applied no batches");
    Observed { values, final_values, updates_applied: report.stats.updates_applied }
}

fn compare(workload: Workload, tag: &str, observed: &[f64], reference: &[f64]) {
    assert_eq!(observed.len(), reference.len(), "{tag}: answer count");
    for (i, (a, e)) in observed.iter().zip(reference).enumerate() {
        match workload {
            Workload::Sssp => assert_eq!(
                a.to_bits(),
                e.to_bits(),
                "{tag}: answer {i} diverged: async {a} vs sequential {e}"
            ),
            // The async contract's accumulative bound (derived on
            // `async_sharded_matches_sequential_fixpoints` in
            // `tests/differential_sharded.rs`).
            _ => assert!(
                (a - e).abs() <= oracle::accumulative_tolerance(EPSILON) * e.abs().max(1.0),
                "{tag}: answer {i} outside tolerance: async {a} vs sequential {e}"
            ),
        }
    }
}

fn run_differential(workload: Workload) {
    let sequential = run_session(volatile_backend(workload), false);
    let sharded = run_session(sharded_async_backend(workload), true);
    assert_eq!(
        sequential.updates_applied, sharded.updates_applied,
        "the two servers admitted different update totals"
    );
    // Both sessions flush-barrier every round, so at each recorded answer
    // both servers have converged on the same admitted updates; compare
    // positionally.
    let key = |(round, vertex, _): &(u64, u32, f64)| (*round, *vertex);
    assert_eq!(
        sequential.values.iter().map(key).collect::<Vec<_>>(),
        sharded.values.iter().map(key).collect::<Vec<_>>(),
        "the two sessions recorded different query schedules"
    );
    let seq_answers: Vec<f64> = sequential.values.iter().map(|r| r.2).collect();
    let sh_answers: Vec<f64> = sharded.values.iter().map(|r| r.2).collect();
    compare(workload, "barrier answers", &sh_answers, &seq_answers);
    compare(workload, "final snapshot", &sharded.final_values, &sequential.final_values);
}

#[test]
fn async_backend_answers_match_sequential_for_sssp() {
    run_differential(Workload::Sssp);
}

#[test]
fn async_backend_answers_match_sequential_for_pagerank() {
    run_differential(Workload::PageRank);
}
