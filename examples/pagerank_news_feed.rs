//! News-feed ranking: incremental PageRank over link churn, with simulated
//! accelerator timing.
//!
//! An accumulative workload (Algorithm 3 / Algorithm 6 of the paper): a
//! Twitter-like follower graph evolves as accounts follow and unfollow, and
//! a PageRank-based feed ranking is kept fresh incrementally. The example
//! also records operation traces and replays them through the cycle-level
//! simulator to report what the update stream would cost on the modelled
//! JetStream hardware versus a GraphPulse cold restart.
//!
//! Run with: `cargo run --release --example pagerank_news_feed`

#![expect(
    clippy::expect_used,
    reason = "test code: aborting on a setup failure is the right behaviour here"
)]

use jetstream::algorithms::PageRank;
use jetstream::engine::{DeleteStrategy, EngineConfig, StreamingEngine};
use jetstream::graph::gen::{DatasetProfile, EdgeStream};
use jetstream::sim::{AcceleratorSim, SimConfig};

fn top_accounts(values: &[f64], k: usize) -> Vec<(usize, f64)> {
    let mut ranked: Vec<(usize, f64)> = values.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("ranks are finite"));
    ranked.truncate(k);
    ranked
}

fn main() {
    let full = DatasetProfile::Twitter.generate(4000);
    println!("follower graph: {} accounts, {} follows", full.num_vertices(), full.num_edges());

    let mut stream = EdgeStream::new(&full, 0.1, 99);
    let base = stream.graph().clone();
    // A convergence threshold matched to the scaled graph's diameter (see
    // DESIGN.md): incremental deltas stay local, as they do at full scale
    // with the default threshold.
    let pagerank = PageRank::with_epsilon(0.85, 1e-4);
    let mut engine = StreamingEngine::new(Box::new(pagerank), base, EngineConfig::default());
    engine.initial_compute();
    println!("\ninitial top accounts:");
    for (account, rank) in top_accounts(engine.values(), 5) {
        println!("  @user{account}: {rank:.4}");
    }

    let mut jet_sim = AcceleratorSim::new(SimConfig::jetstream(DeleteStrategy::Dap));
    let mut gp_sim = AcceleratorSim::new(SimConfig::graphpulse());
    let mut jet_total_ms = 0.0;
    let mut cold_total_ms = 0.0;

    for round in 1..=3 {
        let batch = stream.next_batch(25, 0.7);

        // Incremental update, traced and timed on the JetStream datapath.
        engine.set_tracing(true);
        engine.apply_update_batch(&batch).expect("valid batch");
        let trace = engine.take_trace();
        let jet_ms = jet_sim.replay(&trace, engine.csr()).time_ms();
        jet_total_ms += jet_ms;

        // What a cold restart of the same graph version would cost.
        let mut cold = StreamingEngine::new(
            Box::new(pagerank),
            engine.graph().clone(),
            EngineConfig::default(),
        );
        cold.set_tracing(true);
        cold.initial_compute();
        let cold_trace = cold.take_trace();
        let cold_ms = gp_sim.replay(&cold_trace, cold.csr()).time_ms();
        cold_total_ms += cold_ms;

        println!(
            "\nbatch {round} (+{} / -{}): {jet_ms:.4} ms incremental vs \
             {cold_ms:.4} ms cold restart ({:.1}x)",
            batch.insertions().len(),
            batch.deletions().len(),
            cold_ms / jet_ms
        );
    }

    println!("\ntop accounts after the stream:");
    for (account, rank) in top_accounts(engine.values(), 5) {
        println!("  @user{account}: {rank:.4}");
    }
    println!(
        "\nstream total: {jet_total_ms:.4} ms on JetStream vs {cold_total_ms:.4} ms \
         cold-restarting GraphPulse ({:.1}x saved)",
        cold_total_ms / jet_total_ms
    );
}
