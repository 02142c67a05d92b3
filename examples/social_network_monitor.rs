//! Social-network monitoring: connected components over a follow/unfollow
//! stream.
//!
//! This is the workload class the paper's introduction motivates: a social
//! graph evolving in real time, where an analytics query (here: community
//! connectivity via CC) must stay fresh without recomputing from scratch.
//! The example
//!
//! 1. generates a Facebook-like power-law graph (Table 2 stand-in),
//! 2. holds out 10 % of the relationships as the future follow stream,
//! 3. converges CC, then applies five follow/unfollow batches, comparing
//!    the incremental cost against a cold restart each time, and
//! 4. cross-checks every result against the KickStarter software baseline.
//!
//! Run with: `cargo run --release --example social_network_monitor`

#![expect(
    clippy::expect_used,
    reason = "test code: aborting on a setup failure is the right behaviour here"
)]

use jetstream::algorithms::{oracle, ConnectedComponents};
use jetstream::baselines::KickStarter;
use jetstream::engine::{EngineConfig, StreamingEngine};
use jetstream::graph::gen::{DatasetProfile, EdgeStream};

fn count_components(values: &[f64]) -> usize {
    let mut labels: Vec<u64> = values.iter().map(|&v| v as u64).collect();
    labels.sort_unstable();
    labels.dedup();
    labels.len()
}

fn main() {
    // A scaled-down Facebook-shaped graph (Table 2).
    let full = DatasetProfile::Facebook.generate(4000);
    println!("social graph: {} members, {} relationships", full.num_vertices(), full.num_edges());

    let mut stream = EdgeStream::new(&full, 0.1, 2024);
    let base = stream.graph().clone();

    let mut engine = StreamingEngine::new(
        Box::new(ConnectedComponents::new()),
        base.clone(),
        EngineConfig::default(),
    );
    let initial = engine.initial_compute();
    println!(
        "initial evaluation: {} communities, {} events\n",
        count_components(engine.values()),
        initial.events_processed
    );

    let mut kickstarter = KickStarter::new(Box::new(ConnectedComponents::new()), base);
    kickstarter.initial_compute();

    for round in 1..=5 {
        // 70 % follows / 30 % unfollows, the paper's default composition.
        let batch = stream.next_batch(60, 0.7);
        let inc = engine.apply_update_batch(&batch).expect("stream batches are valid");
        kickstarter.apply_batch(&batch).expect("stream batches are valid");

        assert!(
            oracle::values_match(engine.values(), kickstarter.values()),
            "accelerator and software disagree"
        );

        println!(
            "batch {round}: +{} follows / -{} unfollows -> {} communities \
             ({} events, {} members re-examined)",
            batch.insertions().len(),
            batch.deletions().len(),
            count_components(engine.values()),
            inc.events_processed,
            inc.resets,
        );
    }

    println!("\nall 5 incremental results verified against KickStarter");
}
