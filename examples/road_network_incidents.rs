//! Road-network incident tracking: shortest travel times under edge-weight
//! changes.
//!
//! Weight modification is modelled — exactly as §2.1 of the paper
//! prescribes — as a deletion followed by an insertion of the same edge
//! with the new weight. A grid-shaped road network is queried for shortest
//! travel times from a depot; traffic incidents then multiply segment
//! costs, and road re-openings restore them. The example contrasts the two
//! delete-propagation optimizations (VAP vs DAP, §5) on identical incident
//! batches and validates both against Dijkstra.
//!
//! Run with: `cargo run --release --example road_network_incidents`

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code: aborting on a setup failure is the right behaviour here"
)]

use jetstream::algorithms::{oracle, Sssp};
use jetstream::engine::{DeleteStrategy, EngineConfig, StreamingEngine};
use jetstream::graph::{AdjacencyGraph, UpdateBatch, VertexId};

const SIDE: usize = 40;

fn grid_road_network() -> AdjacencyGraph {
    // SIDE×SIDE grid, bidirectional streets with mildly varying speeds.
    let mut g = AdjacencyGraph::new(SIDE * SIDE);
    let id = |r: usize, c: usize| (r * SIDE + c) as VertexId;
    for r in 0..SIDE {
        for c in 0..SIDE {
            let w = 1.0 + ((r * 7 + c * 13) % 5) as f64; // minutes per segment
            if c + 1 < SIDE {
                g.insert_edge(id(r, c), id(r, c + 1), w).unwrap();
                g.insert_edge(id(r, c + 1), id(r, c), w).unwrap();
            }
            if r + 1 < SIDE {
                g.insert_edge(id(r, c), id(r + 1, c), w).unwrap();
                g.insert_edge(id(r + 1, c), id(r, c), w).unwrap();
            }
        }
    }
    g
}

/// A rush-hour incident: the street from `u` to `v` becomes 8× slower.
fn incident(g: &AdjacencyGraph, u: VertexId, v: VertexId, batch: &mut UpdateBatch) {
    let old = g.edge_weight(u, v).expect("street exists");
    batch.delete(u, v);
    batch.insert(u, v, old * 8.0);
}

fn main() {
    let depot: VertexId = 0;
    let airport: VertexId = (SIDE * SIDE - 1) as VertexId;
    let network = grid_road_network();
    println!(
        "road network: {} intersections, {} street segments",
        network.num_vertices(),
        network.num_edges()
    );

    for strategy in [DeleteStrategy::Vap, DeleteStrategy::Dap] {
        let config = EngineConfig { delete_strategy: strategy, ..EngineConfig::default() };
        let mut engine = StreamingEngine::new(Box::new(Sssp::new(depot)), network.clone(), config);
        engine.initial_compute();
        let before = engine.values()[airport as usize];

        // A corridor of incidents across the middle of the grid.
        let mut batch = UpdateBatch::new();
        let row = SIDE / 2;
        for c in 0..SIDE - 1 {
            let u = (row * SIDE + c) as VertexId;
            let v = (row * SIDE + c + 1) as VertexId;
            incident(engine.graph(), u, v, &mut batch);
        }
        let stats = engine.apply_update_batch(&batch).expect("valid incidents");
        let after = engine.values()[airport as usize];

        // Ground truth on the mutated network.
        let mut mutated = network.clone();
        mutated.apply_batch(&batch).unwrap();
        let expected = oracle::sssp(&mutated.snapshot(), depot);
        assert!(
            oracle::values_match(engine.values(), &expected),
            "{strategy:?} result diverged from Dijkstra"
        );

        println!(
            "\n{strategy:?}: depot->airport {before} min -> {after} min after \
             {} incidents",
            batch.deletions().len()
        );
        println!(
            "  {} intersections reset, {} events processed, {} edges re-read",
            stats.resets, stats.events_processed, stats.edge_reads
        );
    }
    println!("\nboth strategies verified against Dijkstra");
}
