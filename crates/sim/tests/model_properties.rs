//! Property-based tests on the timing substrate: conservation and
//! monotonicity laws the DRAM model must satisfy for any access pattern,
//! and the §4.7 spill count the replay prices.

use jetstream_algorithms::Workload;
use jetstream_core::{DeleteStrategy, EngineConfig, StreamingEngine};
use jetstream_graph::gen;
use jetstream_graph::partition::Partition;
use jetstream_sim::dram::Dram;
use jetstream_sim::{AcceleratorSim, SimConfig, LINE_BYTES};
use jetstream_testkit::{run_cases, DetRng};

fn arb_addrs(rng: &mut DetRng, max_len: usize, bits: u32) -> Vec<u64> {
    let n = rng.gen_range(1, max_len);
    (0..n).map(|_| rng.gen_range(0, 1usize << bits) as u64).collect()
}

/// Every access is counted once, bytes move in whole lines, and row
/// hits never exceed total accesses.
#[test]
fn dram_accounting_is_conserved() {
    run_cases("dram_accounting_is_conserved", 64, |rng| {
        let addrs = arb_addrs(rng, 200, 24);
        let write_mask: Vec<bool> = (0..addrs.len()).map(|_| rng.gen_bool(0.5)).collect();
        let mut dram = Dram::new(&SimConfig::graphpulse());
        let mut t = 0;
        for (i, &addr) in addrs.iter().enumerate() {
            let done = dram.access(addr & !(LINE_BYTES - 1), t, write_mask[i]);
            assert!(done > t, "completion must be after issue");
            t = done.saturating_sub(10); // overlapping issue stream
        }
        let stats = dram.stats();
        assert_eq!(stats.reads + stats.writes, addrs.len() as u64);
        assert_eq!(stats.bytes_transferred, addrs.len() as u64 * LINE_BYTES);
        assert!(stats.row_hits <= stats.reads + stats.writes);
    });
}

/// Completion times never precede the request time, and the channel
/// drain time bounds every completion.
#[test]
fn dram_time_is_monotone() {
    run_cases("dram_time_is_monotone", 64, |rng| {
        let addrs = arb_addrs(rng, 100, 20);
        let mut dram = Dram::new(&SimConfig::graphpulse());
        let mut last_done = 0;
        for (i, &addr) in addrs.iter().enumerate() {
            let at = i as u64 * 2;
            let done = dram.access(addr & !(LINE_BYTES - 1), at, false);
            assert!(done >= at);
            last_done = last_done.max(done);
        }
        assert!(dram.drain_cycle() >= last_done.saturating_sub(64));
    });
}

/// Sequential streams are at least as fast as random ones of the same
/// length (row-buffer locality can only help).
#[test]
fn dram_sequential_not_slower_than_random() {
    run_cases("dram_sequential_not_slower_than_random", 64, |rng| {
        let seed_addrs: Vec<u64> =
            (0..rng.gen_range(16, 64)).map(|_| rng.gen_range(0, 1 << 24) as u64).collect();
        let n = seed_addrs.len() as u64;
        let mut seq = Dram::new(&SimConfig::graphpulse());
        let mut t_seq = 0;
        for i in 0..n {
            t_seq = t_seq.max(seq.access(i * LINE_BYTES, 0, false));
        }
        let mut rnd = Dram::new(&SimConfig::graphpulse());
        let mut t_rnd = 0;
        for &a in &seed_addrs {
            t_rnd = t_rnd.max(rnd.access(a & !(LINE_BYTES - 1), 0, false));
        }
        assert!(
            seq.stats().row_hits >= rnd.stats().row_hits || t_seq <= t_rnd,
            "sequential ({t_seq}) should exploit at least as much locality as random ({t_rnd})"
        );
    });
}

/// The replay is the one place that counts §4.7 spills: over one DAP with
/// restore churn trace of SSSP (four batches on an R-MAT graph, the graph
/// and stream of core's `a_dap_delete_wave_keeps_its_trace_and_resets`),
/// replayed with a queue that cuts the graph into three slices,
/// `spilled_events` is every traced `(op.vertex, target)` pair that
/// `Partition::bfs_grow` puts in different slices. One slice spills
/// nothing.
#[test]
fn spilled_events_are_the_traced_cross_slice_pairs() {
    let full = gen::rmat(600, 4800, gen::RmatParams::default(), 91);
    let mut stream = gen::EdgeStream::new(&full, 0.1, 17);
    let config = EngineConfig {
        delete_strategy: DeleteStrategy::DapRestore,
        num_bins: 4,
        ..EngineConfig::default()
    };
    let base = stream.graph().clone();
    let mut engine = StreamingEngine::new(Workload::Sssp.instantiate(0), base, config);
    engine.initial_compute();
    engine.set_tracing(true);
    for _ in 0..4 {
        engine.apply_update_batch(&stream.next_batch(30, 0.5)).unwrap();
    }
    let trace = engine.take_trace();
    let csr = engine.csr();
    let n = csr.num_vertices();
    let jetstream = SimConfig::jetstream(DeleteStrategy::DapRestore);
    let replay = |slices: usize| {
        let queue_bytes = n.div_ceil(slices) as u64 * jetstream.event_bytes;
        let sim = SimConfig { queue_bytes, ..jetstream };
        assert_eq!(sim.slices_for(n), slices);
        AcceleratorSim::new(sim).replay(&trace, csr)
    };
    let partition = Partition::bfs_grow(&csr.out, 3);
    let ops = trace.phases.iter().flat_map(|p| &p.rounds).flat_map(|r| &r.ops);
    let recount: usize = ops
        .map(|op| {
            let slice = partition.slice_of(op.vertex);
            trace.targets_of(op).iter().filter(|&&t| partition.slice_of(t) != slice).count()
        })
        .sum();
    let sliced = replay(3);
    assert_eq!(sliced.spilled_events, recount as u64);
    assert_eq!(sliced.spilled_events, 187);
    assert_eq!(replay(1).spilled_events, 0);
}
