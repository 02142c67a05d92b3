//! Integration of the file formats with the full pipeline: a graph and an
//! update stream written to disk and read back must drive the engine to
//! exactly the same state as the in-memory originals.

use std::io::Cursor;

use jetstream::algorithms::{oracle, Workload};
use jetstream::engine::{EngineConfig, StreamingEngine};
use jetstream::graph::gen::{self, EdgeStream};
use jetstream::graph::io;

#[test]
fn graph_file_roundtrip_preserves_query_results() {
    let original = gen::rmat(200, 1200, gen::RmatParams::default(), 91);

    let mut buffer = Vec::new();
    io::write_edge_list(&original, &mut buffer).unwrap();
    // Trailing isolated vertices are not representable in an edge list;
    // pass the vertex count explicitly, as a loader would.
    let loaded = io::read_edge_list(Cursor::new(buffer), original.num_vertices()).unwrap();
    assert_eq!(loaded, original);

    for w in [Workload::Sssp, Workload::Cc] {
        let mut a =
            StreamingEngine::new(w.instantiate(0), original.clone(), EngineConfig::default());
        let mut b = StreamingEngine::new(w.instantiate(0), loaded.clone(), EngineConfig::default());
        a.initial_compute();
        b.initial_compute();
        assert_eq!(a.values(), b.values(), "{}", w.name());
    }
}

#[test]
fn update_stream_file_roundtrip_replays_identically() {
    let full = gen::rmat(150, 900, gen::RmatParams::default(), 92);
    let mut stream = EdgeStream::new(&full, 0.1, 93);
    let base = stream.graph().clone();
    let batches: Vec<_> = (0..4).map(|_| stream.next_batch(25, 0.6)).collect();

    // Serialize the stream and read it back.
    let mut buffer = Vec::new();
    io::write_update_batches(&batches, &mut buffer).unwrap();
    let replayed = io::read_update_batches(Cursor::new(buffer)).unwrap();
    assert_eq!(replayed, batches);

    // Drive two engines — one from originals, one from the file — and
    // compare final states.
    let mut direct =
        StreamingEngine::new(Workload::Sswp.instantiate(3), base.clone(), EngineConfig::default());
    let mut from_file =
        StreamingEngine::new(Workload::Sswp.instantiate(3), base, EngineConfig::default());
    direct.initial_compute();
    from_file.initial_compute();
    for (a, b) in batches.iter().zip(replayed.iter()) {
        direct.apply_update_batch(a).unwrap();
        from_file.apply_update_batch(b).unwrap();
    }
    assert!(oracle::values_match(direct.values(), from_file.values()));
}
