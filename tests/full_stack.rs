//! Cross-crate integration: the facade API, engine vs software baselines vs
//! oracles on shared streams, and trace → simulator round trips.

use jetstream::algorithms::{oracle, oracle_values, UpdateKind, Workload};
use jetstream::baselines::{GraphBolt, KickStarter};
use jetstream::engine::{DeleteStrategy, EngineConfig, StreamingEngine};
use jetstream::graph::gen::{self, DatasetProfile, EdgeStream};
use jetstream::hwmodel::{estimate, HwConfig};
use jetstream::sim::{AcceleratorSim, SimConfig};

fn tolerance(workload: Workload) -> f64 {
    match workload.kind() {
        UpdateKind::Selective => oracle::VALUE_TOLERANCE,
        UpdateKind::Accumulative => oracle::accumulative_tolerance(1e-5),
    }
}

/// All three systems (engine, matching software framework, oracle) agree on
/// a shared five-batch stream, for every workload.
#[test]
fn engine_software_and_oracle_agree_over_a_stream() {
    let full = gen::rmat(300, 2000, gen::RmatParams::default(), 77);
    for w in Workload::ALL {
        let mut stream = EdgeStream::new(&full, 0.15, 42);
        let base = stream.graph().clone();

        let mut engine =
            StreamingEngine::new(w.instantiate(0), base.clone(), EngineConfig::default());
        engine.initial_compute();

        enum Soft {
            Ks(KickStarter),
            Gb(GraphBolt),
        }
        let mut soft = match w.kind() {
            UpdateKind::Selective => {
                let mut ks = KickStarter::new(w.instantiate(0), base.clone());
                ks.initial_compute();
                Soft::Ks(ks)
            }
            UpdateKind::Accumulative => {
                let mut gb = GraphBolt::new(w.instantiate(0), base.clone());
                gb.initial_compute();
                Soft::Gb(gb)
            }
        };

        for round in 0..5 {
            let batch = stream.next_batch(40, 0.6);
            engine.apply_update_batch(&batch).unwrap();
            let soft_values: Vec<f64> = match &mut soft {
                Soft::Ks(ks) => {
                    ks.apply_batch(&batch).unwrap();
                    ks.values().to_vec()
                }
                Soft::Gb(gb) => {
                    gb.apply_batch(&batch).unwrap();
                    gb.values().to_vec()
                }
            };
            let expected = oracle_values(w, &stream.graph().snapshot(), 0);
            assert!(
                oracle::values_match_tol(engine.values(), &expected, tolerance(w)),
                "{} engine diverged at round {round}",
                w.name()
            );
            assert!(
                oracle::values_match_tol(&soft_values, &expected, tolerance(w)),
                "{} software baseline diverged at round {round}",
                w.name()
            );
        }
    }
}

/// The facade exposes a complete flow: profile dataset → engine → trace →
/// simulator → hardware model, with consistent numbers end to end.
#[test]
fn facade_full_pipeline() {
    let full = DatasetProfile::Wikipedia.generate(20_000);
    let mut stream = EdgeStream::new(&full, 0.1, 7);
    let base = stream.graph().clone();

    let mut engine = StreamingEngine::new(
        Workload::Sssp.instantiate(0),
        base,
        EngineConfig {
            delete_strategy: DeleteStrategy::Dap,
            num_bins: 16,
            ..EngineConfig::default()
        },
    );
    engine.initial_compute();
    engine.set_tracing(true);
    let batch = stream.next_batch(10, 0.7);
    let stats = engine.apply_update_batch(&batch).unwrap();
    let trace = engine.take_trace();

    let mut sim = AcceleratorSim::new(SimConfig::jetstream(DeleteStrategy::Dap));
    let report = sim.replay(&trace, engine.csr());
    assert!(report.cycles > 0);
    assert_eq!(
        report.events_generated, stats.events_generated,
        "simulator replays exactly what the engine generated"
    );

    let hw = estimate(&HwConfig::jetstream_dap());
    let energy =
        hw.energy_joules(report.cycles, report.events_processed, report.dram.bytes_transferred);
    assert!(energy > 0.0);
}

/// Determinism across the whole stack: same seeds, same everything.
#[test]
fn whole_stack_is_deterministic() {
    let run = || {
        let full = DatasetProfile::Facebook.generate(20_000);
        let mut stream = EdgeStream::new(&full, 0.1, 3);
        let base = stream.graph().clone();
        let mut engine =
            StreamingEngine::new(Workload::Sswp.instantiate(5), base, EngineConfig::default());
        engine.initial_compute();
        engine.set_tracing(true);
        let batch = stream.next_batch(15, 0.5);
        engine.apply_update_batch(&batch).unwrap();
        let trace = engine.take_trace();
        let mut sim = AcceleratorSim::new(SimConfig::jetstream(DeleteStrategy::Dap));
        let report = sim.replay(&trace, engine.csr());
        (engine.values().to_vec(), report.cycles, report.dram.bytes_transferred)
    };
    assert_eq!(run(), run());
}

/// The four delete strategies agree on results while differing in work.
#[test]
fn strategies_agree_on_results() {
    let full = gen::rmat(400, 3000, gen::RmatParams::default(), 13);
    let mut reference: Option<Vec<f64>> = None;
    for strategy in DeleteStrategy::ALL {
        let mut stream = EdgeStream::new(&full, 0.1, 21);
        let base = stream.graph().clone();
        let mut engine = StreamingEngine::new(
            Workload::Sssp.instantiate(0),
            base,
            EngineConfig { delete_strategy: strategy, num_bins: 8, ..EngineConfig::default() },
        );
        engine.initial_compute();
        for _ in 0..3 {
            let batch = stream.next_batch(30, 0.5);
            engine.apply_update_batch(&batch).unwrap();
        }
        match &reference {
            None => reference = Some(engine.values().to_vec()),
            Some(r) => assert!(oracle::values_match(engine.values(), r), "{strategy:?} disagreed"),
        }
    }
}
