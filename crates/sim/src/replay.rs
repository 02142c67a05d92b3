//! Trace replay through the datapath timing model.
//!
//! [`AcceleratorSim`] replays an operation trace recorded by the functional
//! engine through transaction-level models of every component in Fig. 7 of
//! the paper: the scheduler's round-robin bin drain with round barriers, the
//! per-processor scratchpad prefetcher (vertex reads grouped by DRAM line),
//! the edge cache (sequential CSR line reads), the generation streams, the
//! 16×16 crossbar between generators and queue bins, the bin coalescer
//! pipelines, the Stream Reader, and the multi-channel DRAM of
//! [`Dram`]. For graphs larger than the on-chip queue it
//! adds the slice-partitioning spill traffic of §4.7.

use std::collections::BTreeMap;

use jetstream_core::trace::{OpKind, Trace, TraceOp};
use jetstream_graph::partition::Partition;
use jetstream_graph::CsrPair;

use crate::config::{SimConfig, CLOCK_HZ, LINE_BYTES};
use crate::dram::{Dram, DramStats};

/// Bytes per CSR edge record (u32 target + f32 weight).
const EDGE_BYTES: u64 = 8;
/// Bytes per CSR row-offset entry.
const OFFSET_BYTES: u64 = 8;
/// Bytes per streamed update record (source, target, weight).
const STREAM_BYTES: u64 = 12;

/// Result of replaying one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Total cycles from trace start to completion.
    pub cycles: u64,
    /// DRAM subsystem statistics.
    pub dram: DramStats,
    /// Bytes of fetched data actually consumed by the compute engines
    /// (numerator of the Fig. 11 utilization ratio).
    pub bytes_used: u64,
    /// Events applied to vertices.
    pub events_processed: u64,
    /// Events generated (crossbar traversals).
    pub events_generated: u64,
}

impl SimReport {
    /// Simulated milliseconds at the accelerator's clock ([`CLOCK_HZ`]).
    pub fn time_ms(&self) -> f64 {
        self.cycles as f64 / CLOCK_HZ * 1e3
    }

    /// Ratio of bytes consumed by the engines to bytes moved from DRAM
    /// (Fig. 11's off-chip transfer utilization).
    pub fn memory_utilization(&self) -> f64 {
        if self.dram.bytes_transferred == 0 {
            0.0
        } else {
            self.bytes_used as f64 / self.dram.bytes_transferred as f64
        }
    }
}

/// Memory-map of one graph version in accelerator DRAM.
#[derive(Debug, Clone, Copy)]
struct MemoryMap {
    vertex_base: u64,
    out_edges_base: u64,
    in_offsets_base: u64,
    in_edges_base: u64,
    stream_base: u64,
    spill_base: u64,
}

impl MemoryMap {
    fn new(num_vertices: usize, num_edges: usize, vertex_bytes: u64) -> Self {
        let align = |x: u64| (x + 4095) & !4095;
        let n = num_vertices as u64;
        let m = num_edges as u64;
        let vertex_base = 0;
        // Region reserved between vertex records and the edge array; the
        // edge pointer itself travels inside the prefetched vertex record
        // (§4.4), so no access targets this region directly.
        let out_offsets_base = align(vertex_base + n * vertex_bytes);
        let out_edges_base = align(out_offsets_base + (n + 1) * OFFSET_BYTES);
        let in_offsets_base = align(out_edges_base + m * EDGE_BYTES);
        let in_edges_base = align(in_offsets_base + (n + 1) * OFFSET_BYTES);
        let stream_base = align(in_edges_base + m * EDGE_BYTES);
        let spill_base = align(stream_base + (1 << 20));
        MemoryMap {
            vertex_base,
            out_edges_base,
            in_offsets_base,
            in_edges_base,
            stream_base,
            spill_base,
        }
    }
}

/// The cycle-level JetStream/GraphPulse datapath simulator.
///
/// # Example
///
/// ```
/// use jetstream_sim::{AcceleratorSim, SimConfig};
/// use jetstream_core::{StreamingEngine, EngineConfig, DeleteStrategy};
/// use jetstream_algorithms::Sssp;
/// use jetstream_graph::gen;
///
/// let g = gen::erdos_renyi(100, 400, 1);
/// let mut engine = StreamingEngine::new(
///     Box::new(Sssp::new(0)), g, EngineConfig::default());
/// engine.set_tracing(true);
/// engine.initial_compute();
/// let trace = engine.take_trace();
///
/// let config = SimConfig::jetstream(DeleteStrategy::Dap);
/// let mut sim = AcceleratorSim::new(config);
/// let report = sim.replay(&trace, engine.csr());
/// assert!(report.cycles > 0);
/// ```
#[derive(Debug)]
pub struct AcceleratorSim {
    config: SimConfig,
}

impl AcceleratorSim {
    /// Creates a simulator with the given hardware configuration.
    pub fn new(config: SimConfig) -> Self {
        AcceleratorSim { config }
    }

    /// Replays `trace` against the memory layout of `graph`, returning the
    /// timing and traffic report.
    pub fn replay(&mut self, trace: &Trace, graph: &CsrPair) -> SimReport {
        let n = graph.num_vertices();
        let mem = MemoryMap::new(n, graph.num_edges(), self.config.vertex_bytes);
        let mut dram = Dram::new(&self.config);
        let slices = self.config.slices_for(n);
        let partition = if slices > 1 {
            Partition::bfs_grow(&graph.out, slices as u32)
        } else {
            Partition::single(n)
        };
        let bins = self.config.num_bins;
        let bin_size = n.div_ceil(bins).max(1);
        let bin_of = |v: u32| (v as usize / bin_size).min(bins - 1);

        let mut state = ReplayState {
            cycle: 0,
            proc_busy: vec![0; self.config.num_processors],
            in_port_free: vec![0; bins],
            out_port_free: vec![0; bins],
            bin_free: vec![0; bins],
            bytes_used: 0,
            events_processed: 0,
            events_generated: 0,
            stream_cursor: mem.stream_base,
            spill_cursor: mem.spill_base,
        };

        for round in trace.phases.iter().flat_map(|phase| &phase.rounds) {
            self.replay_round(&round.ops, trace, &mem, &mut dram, &mut state, &partition, &bin_of);
        }
        // Account for in-flight DRAM traffic at the end.
        state.cycle = state.cycle.max(dram.drain_cycle());

        SimReport {
            cycles: state.cycle,
            dram: dram.stats(),
            bytes_used: state.bytes_used,
            events_processed: state.events_processed,
            events_generated: state.events_generated,
        }
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "single call site; the round genuinely consumes this many inputs"
    )]
    fn replay_round(
        &self,
        ops: &[TraceOp],
        trace: &Trace,
        mem: &MemoryMap,
        dram: &mut Dram,
        state: &mut ReplayState,
        partition: &Partition,
        bin_of: &dyn Fn(u32) -> usize,
    ) {
        let cfg = &self.config;
        let round_start = state.cycle;
        for p in state.proc_busy.iter_mut() {
            *p = round_start;
        }
        let mut round_spills = 0u64;

        for (chunk_idx, chunk) in ops.chunks(cfg.batch_size).enumerate() {
            let p = chunk_idx % cfg.num_processors;
            let t0 = state.proc_busy[p];

            // --- Scratchpad prefetch: distinct vertex-record lines for the
            // whole batch are fetched up front (§4.4); events in one queue
            // row share DRAM pages by construction. The vertex record
            // carries ⟨value, edge pointer, edge count⟩, so propagation
            // needs no separate pointer fetch.
            let mut line_ready: BTreeMap<u64, u64> = BTreeMap::new();
            for op in chunk {
                let (base, rec) = match op.kind {
                    OpKind::RequestSetup => (mem.in_offsets_base, OFFSET_BYTES),
                    _ => (mem.vertex_base, cfg.vertex_bytes),
                };
                let line = (base + op.vertex as u64 * rec) / LINE_BYTES;
                line_ready.entry(line).or_insert_with(|| dram.access(line * LINE_BYTES, t0, false));
            }

            // Two decoupled pipelines per processor (§4.4): the Apply unit
            // retires one event per cycle (stalling only on vertex data),
            // and the generation streams consume the Edge Buffer behind it.
            let mut apply_t = t0;
            let mut gen_t = t0;
            for op in chunk {
                state.events_processed += 1;
                let (base, rec) = match op.kind {
                    OpKind::RequestSetup => (mem.in_offsets_base, OFFSET_BYTES),
                    _ => (mem.vertex_base, cfg.vertex_bytes),
                };
                let line = (base + op.vertex as u64 * rec) / LINE_BYTES;
                let ready = line_ready[&line];
                state.bytes_used += cfg.vertex_bytes;

                // Stream Reader ops additionally consume the sequential
                // update list.
                if op.kind == OpKind::StreamRead {
                    let cursor_line = state.stream_cursor / LINE_BYTES;
                    state.stream_cursor += STREAM_BYTES;
                    if state.stream_cursor / LINE_BYTES != cursor_line {
                        dram.access(cursor_line * LINE_BYTES, apply_t, false);
                    }
                    state.bytes_used += STREAM_BYTES;
                }

                // Apply: one pipeline slot, stalled until the vertex line
                // arrived.
                apply_t = (apply_t + 1).max(ready);

                let mut edges_ready = apply_t;
                if op.changed && op.edges_read > 0 {
                    // Sequential edge-list lines through the edge-cache
                    // prefetcher; they gate the generation streams, not the
                    // apply pipeline.
                    let (edge_base, spread) = match op.kind {
                        OpKind::RequestSetup => (mem.in_edges_base, 4),
                        _ => (mem.out_edges_base, 4),
                    };
                    // Stable synthetic per-vertex offset: preserves row
                    // locality for neighboring vertices without tracking
                    // every graph version's CSR.
                    let edge_addr = edge_base + op.vertex as u64 * spread * EDGE_BYTES;
                    let edge_lines = (op.edges_read as u64 * EDGE_BYTES).div_ceil(LINE_BYTES);
                    for l in 0..edge_lines {
                        edges_ready = dram.access(edge_addr + l * LINE_BYTES, apply_t, false);
                    }
                    state.bytes_used += op.edges_read as u64 * EDGE_BYTES;
                }

                // Event generation: four streams per processor, one event
                // per stream per cycle, then crossbar and bin-coalescer
                // contention per event.
                let targets = trace.targets_of(op);
                if !targets.is_empty() {
                    state.events_generated += targets.len() as u64;
                    let streams = cfg.gen_streams_per_processor;
                    let start = gen_t.max(apply_t).max(edges_ready);
                    let mut last_accept = start;
                    for (k, &target) in targets.iter().enumerate() {
                        let gen_ready = start + (k / streams) as u64 + 1;
                        let in_port = (p * streams + k % streams) % cfg.num_bins;
                        let bin = bin_of(target);
                        let out_port = bin % cfg.num_bins;
                        let tx = gen_ready
                            .max(state.in_port_free[in_port])
                            .max(state.out_port_free[out_port])
                            + 1;
                        state.in_port_free[in_port] = tx;
                        state.out_port_free[out_port] = tx;
                        let ins = tx.max(state.bin_free[bin]) + 1;
                        state.bin_free[bin] = ins;
                        last_accept = last_accept.max(tx);
                        if partition.slice_of(op.vertex) != partition.slice_of(target) {
                            round_spills += 1;
                        }
                    }
                    // The generation unit is busy until the crossbar accepted
                    // its last event.
                    gen_t = last_accept;
                }

                // Write-back of a changed vertex state via the scratchpad
                // (posted; does not stall the pipeline).
                if op.changed && op.kind != OpKind::StreamRead {
                    dram.access(
                        (mem.vertex_base + op.vertex as u64 * cfg.vertex_bytes) & !(LINE_BYTES - 1),
                        apply_t,
                        true,
                    );
                    state.bytes_used += cfg.vertex_bytes;
                }
            }
            state.proc_busy[p] = apply_t.max(gen_t);
        }

        // Cross-slice events spill to off-chip memory and are read back when
        // their slice activates (§4.7): one write + one read per event. The
        // accesses are posted (sequential, pipelined); they consume channel
        // bandwidth that delays the next rounds' fetches rather than
        // stalling this round's barrier.
        let round_end = state.proc_busy.iter().copied().max().unwrap_or(round_start);
        if round_spills > 0 {
            let spill_lines = (round_spills * cfg.event_bytes).div_ceil(LINE_BYTES);
            for l in 0..spill_lines {
                let addr = state.spill_cursor + l * LINE_BYTES;
                dram.access(addr, round_end, true);
                dram.access(addr, round_end, false);
            }
            state.spill_cursor += spill_lines * LINE_BYTES;
        }
        state.cycle = round_end + cfg.round_barrier_cycles;
    }
}

#[derive(Debug)]
struct ReplayState {
    cycle: u64,
    proc_busy: Vec<u64>,
    in_port_free: Vec<u64>,
    out_port_free: Vec<u64>,
    bin_free: Vec<u64>,
    bytes_used: u64,
    events_processed: u64,
    events_generated: u64,
    stream_cursor: u64,
    spill_cursor: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetstream_algorithms::Workload;
    use jetstream_core::trace::{PhaseTrace, RoundTrace};
    use jetstream_core::{DeleteStrategy, EngineConfig, Phase, StreamingEngine};
    use jetstream_graph::{gen, Csr};

    fn traced_initial(
        workload: Workload,
        n: usize,
        m: usize,
        seed: u64,
    ) -> (Trace, jetstream_graph::CsrPair) {
        let g = gen::rmat(n, m, gen::RmatParams::default(), seed);
        let mut engine = StreamingEngine::new(workload.instantiate(0), g, EngineConfig::default());
        engine.set_tracing(true);
        engine.initial_compute();
        (engine.take_trace(), engine.csr().clone())
    }

    /// Replays one op of vertex 0 that generates an event to each of
    /// `targets`, alone in one round, on an edgeless 1,024-vertex graph.
    fn replay_one_op(targets: Vec<u32>) -> SimReport {
        let op = TraceOp {
            vertex: 0,
            kind: OpKind::Apply,
            changed: false,
            edges_read: 0,
            targets_start: 0,
            targets_len: targets.len() as u32,
        };
        let trace = Trace {
            phases: vec![PhaseTrace {
                phase: Phase::Initial,
                rounds: vec![RoundTrace { ops: vec![op] }],
            }],
            targets,
        };
        let graph = CsrPair::new(Csr::new(1024));
        AcceleratorSim::new(SimConfig::graphpulse()).replay(&trace, &graph)
    }

    #[test]
    fn a_hot_output_port_serialises_the_crossbar() {
        // 1,024 vertices over 16 bins: bin `b` holds vertices `64b..64b+64`.
        let hot = replay_one_op((0..64).collect());
        let spread = replay_one_op((0..64).map(|k| (k % 16) * 64 + k / 16).collect());
        // Spread over the 16 output ports, the 4 generation streams issue
        // one event each per cycle; sent to one port, the 64 events leave
        // one per cycle.
        let serialised = 64 - 64 / SimConfig::graphpulse().gen_streams_per_processor as u64;
        assert_eq!(hot.cycles, spread.cycles + serialised);
    }

    #[test]
    fn cycle_conversion() {
        let report = SimReport { cycles: 1_000_000, ..replay_one_op(Vec::new()) };
        assert!((report.time_ms() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replay_produces_nonzero_cycles_and_traffic() {
        let (trace, csr) = traced_initial(Workload::Sssp, 256, 1500, 1);
        let mut sim = AcceleratorSim::new(SimConfig::graphpulse());
        let report = sim.replay(&trace, &csr);
        assert!(report.cycles > 0);
        assert!(report.dram.reads > 0);
        assert!(report.events_processed > 0);
        assert!(report.memory_utilization() > 0.0);
        assert!(report.memory_utilization() <= 1.0);
    }

    #[test]
    fn replay_is_deterministic() {
        let (trace, csr) = traced_initial(Workload::Bfs, 200, 1000, 2);
        let mut sim = AcceleratorSim::new(SimConfig::jetstream(DeleteStrategy::Dap));
        let a = sim.replay(&trace, &csr);
        let b = sim.replay(&trace, &csr);
        assert_eq!(a, b);
    }

    #[test]
    fn more_events_cost_more_cycles() {
        let (small, csr_s) = traced_initial(Workload::Sssp, 128, 512, 3);
        let (big, csr_b) = traced_initial(Workload::Sssp, 1024, 8192, 3);
        let mut sim = AcceleratorSim::new(SimConfig::graphpulse());
        let rs = sim.replay(&small, &csr_s);
        let rb = sim.replay(&big, &csr_b);
        assert!(rb.cycles > rs.cycles);
    }

    #[test]
    fn event_counts_match_trace() {
        let (trace, csr) = traced_initial(Workload::Cc, 150, 800, 4);
        let mut sim = AcceleratorSim::new(SimConfig::graphpulse());
        let report = sim.replay(&trace, &csr);
        let ops: u64 =
            trace.phases.iter().flat_map(|p| p.rounds.iter()).map(|r| r.ops.len() as u64).sum();
        assert_eq!(report.events_processed, ops);
        assert_eq!(report.events_generated, trace.targets.len() as u64);
    }

    #[test]
    fn streaming_trace_is_cheaper_than_cold_trace() {
        // The headline claim: incremental reevaluation beats cold restart in
        // simulated time, not just operation counts.
        let g = gen::rmat(2048, 16384, gen::RmatParams::default(), 6);
        let batch = gen::batch_with_ratio(&g, 20, 0.7, 7);

        let config = EngineConfig::default();
        let mut engine = StreamingEngine::new(Workload::Sssp.instantiate(0), g.clone(), config);
        engine.initial_compute();
        engine.set_tracing(true);
        engine.apply_update_batch(&batch).unwrap();
        let streaming_trace = engine.take_trace();
        let csr = engine.csr().clone();

        let mut cold = StreamingEngine::new(Workload::Sssp.instantiate(0), g, config);
        cold.initial_compute();
        cold.set_tracing(true);
        cold.cold_restart(&batch).unwrap();
        let cold_trace = cold.take_trace();

        let mut js = AcceleratorSim::new(SimConfig::jetstream(DeleteStrategy::Dap));
        let mut gp = AcceleratorSim::new(SimConfig::graphpulse());
        let inc = js.replay(&streaming_trace, &csr);
        let full = gp.replay(&cold_trace, &csr);
        assert!(
            inc.cycles * 2 < full.cycles,
            "incremental {} vs cold {} cycles",
            inc.cycles,
            full.cycles
        );
    }
}
