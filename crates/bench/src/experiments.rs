//! Regenerators for every table and figure in the paper's evaluation (§6).
//!
//! Each function runs the corresponding experiment on the scaled synthetic
//! datasets and renders a markdown block with the measured values next to
//! the paper's reference numbers. `experiments all` (the binary in this
//! crate) strings them together into `EXPERIMENTS.md`.

use jetstream_algorithms::{UpdateKind, Workload};
use jetstream_core::{AccumulativeRecovery, DeleteStrategy, EngineConfig, StreamingEngine};
use jetstream_graph::gen::DatasetProfile;
use jetstream_hwmodel::{estimate, HwConfig};
use jetstream_sim::SimConfig;

use crate::harness::{
    dataset, run_graphpulse_cold, run_graphpulse_initial, run_jetstream, run_kickstarter,
    run_software, HarnessError, Scenario,
};

/// Geometric mean of a non-empty slice.
pub fn gmean(values: &[f64]) -> f64 {
    let ln_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (ln_sum / values.len() as f64).exp()
}

/// Table 1: experimental configurations.
pub fn table1() -> String {
    let gp = SimConfig::graphpulse();
    let dap = SimConfig::jetstream(DeleteStrategy::Dap);
    let mut out = String::from("## Table 1 — Experimental configuration\n\n");
    out.push_str("| Parameter | Modelled value (paper value) |\n|---|---|\n");
    out.push_str(&format!(
        "| Compute | {}× JetStream processors @ 1 GHz (8× @ 1 GHz) |\n",
        gp.num_processors
    ));
    out.push_str(&format!(
        "| Generation streams | {} per processor (4) |\n",
        gp.gen_streams_per_processor
    ));
    out.push_str(&format!(
        "| On-chip queue | {} KB scaled 1000× (64 MB eDRAM @22nm) |\n",
        gp.queue_bytes / 1024
    ));
    out.push_str(&format!(
        "| Off-chip memory | {}× DDR3 channel model, ~17 GB/s each (4× DDR3 17 GB/s) |\n",
        gp.dram_channels
    ));
    out.push_str(&format!(
        "| Event size | GraphPulse {} B, JetStream VAP {} B, DAP {} B |\n",
        gp.event_bytes,
        SimConfig::jetstream(DeleteStrategy::Vap).event_bytes,
        dap.event_bytes
    ));
    out.push_str(
        "| Software baselines | Rust KickStarter/GraphBolt reimplementations \
         (data-parallel rounds over the host's cores), wall-clock \
         (36× Xeon @3 GHz in the paper) |\n",
    );
    out
}

/// Table 2: input graphs (paper datasets vs generated stand-ins).
pub fn table2(scale: u32) -> String {
    let mut out = String::from("## Table 2 — Input graphs\n\n");
    out.push_str(&format!(
        "Synthetic stand-ins at scale 1/{scale} (see DESIGN.md §4).\n\n\
         | Graph | Paper nodes | Paper edges | Generated nodes | Generated edges | Regime |\n\
         |---|---|---|---|---|---|\n"
    ));
    for p in DatasetProfile::ALL {
        let g = dataset(p, scale);
        out.push_str(&format!(
            "| {} ({}) | {:.2}M | {:.2}M | {} | {} | {} |\n",
            p.name(),
            p.tag(),
            p.paper_nodes() as f64 / 1e6,
            p.paper_edges() as f64 / 1e6,
            g.num_vertices(),
            g.num_edges(),
            if p.is_narrow() { "narrow/long-path" } else { "power-law" }
        ));
    }
    out
}

/// Paper's Table 3 geometric-mean speedups, for side-by-side reporting.
fn paper_table3_gmeans(workload: Workload) -> (f64, f64) {
    match workload {
        Workload::Sswp => (21.6, 11.1),
        Workload::Sssp => (20.1, 12.9),
        Workload::Bfs => (6.9, 11.3),
        Workload::Cc => (16.0, 7.72),
        Workload::PageRank => (19.4, 165.0),
        Workload::Adsorption => (5.77, 17.1),
        _ => (f64::NAN, f64::NAN),
    }
}

/// Table 3: execution time per query and speedups over GraphPulse and the
/// software frameworks, for 100 K-equivalent batches (70 % insertions).
pub fn table3(scale: u32) -> Result<String, HarnessError> {
    let mut out = String::from("## Table 3 — Time per query and speedups\n\n");
    out.push_str(
        "JetStream time is simulated ms @ 1 GHz; GP = GraphPulse cold-start \
         speedup (simulated/simulated); KS/GB = software framework speedup \
         (wall-clock/simulated).\n\n",
    );
    out.push_str(
        "| Workload | Metric | WK | FB | LJ | UK | TW | GMean | Paper GMean |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for w in Workload::ALL {
        let mut jet_ms = Vec::new();
        let mut gp_speedup = Vec::new();
        let mut sw_speedup = Vec::new();
        for p in DatasetProfile::ALL {
            eprintln!("[table3] {} on {} ...", w.name(), p.tag());
            let s = Scenario::paper_default(w, p, scale);
            let jet = run_jetstream(&s)?;
            let cold = run_graphpulse_cold(&s)?;
            let soft = run_software(&s)?;
            jet_ms.push(jet.sim.time_ms());
            gp_speedup.push(cold.sim.time_ms() / jet.sim.time_ms());
            sw_speedup.push(soft.time_ms / jet.sim.time_ms());
        }
        let (paper_gp, paper_sw) = paper_table3_gmeans(w);
        let sw_label = match w.kind() {
            UpdateKind::Selective => "KS",
            UpdateKind::Accumulative => "GB",
        };
        out.push_str(&format!(
            "| {} | Jet (ms) | {} | | |\n",
            w.name(),
            jet_ms.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>().join(" | "),
        ));
        out.push_str(&format!(
            "| | GP× | {} | {:.1}× | {:.1}× |\n",
            gp_speedup.iter().map(|v| format!("{v:.1}×")).collect::<Vec<_>>().join(" | "),
            gmean(&gp_speedup),
            paper_gp
        ));
        out.push_str(&format!(
            "| | {sw_label}× | {} | {:.1}× | {:.1}× |\n",
            sw_speedup.iter().map(|v| format!("{v:.1}×")).collect::<Vec<_>>().join(" | "),
            gmean(&sw_speedup),
            paper_sw
        ));
    }
    Ok(out)
}

/// Fig. 9: vertex and edge accesses of JetStream normalized to GraphPulse.
pub fn fig9(scale: u32) -> Result<String, HarnessError> {
    let workloads =
        [Workload::Sswp, Workload::Sssp, Workload::Bfs, Workload::Cc, Workload::PageRank];
    let profiles = [
        DatasetProfile::Facebook,
        DatasetProfile::Wikipedia,
        DatasetProfile::LiveJournal,
        DatasetProfile::Uk2002,
    ];
    let mut out = String::from("## Fig. 9 — Vertex & edge accesses normalized to GraphPulse\n\n");
    out.push_str(
        "Paper: JetStream stays below 0.54 for vertex accesses (as low as \
         0.03) with under 30 % of the events.\n\n\
         | Workload | Graph | Vertex ratio | Edge ratio |\n|---|---|---|---|\n",
    );
    for w in workloads {
        for p in profiles {
            eprintln!("[fig9] {} on {} ...", w.name(), p.tag());
            let s = Scenario::paper_default(w, p, scale);
            let jet = run_jetstream(&s)?;
            let cold = run_graphpulse_cold(&s)?;
            out.push_str(&format!(
                "| {} | {} | {:.3} | {:.3} |\n",
                w.name(),
                p.tag(),
                jet.stats.vertex_accesses() as f64 / cold.stats.vertex_accesses() as f64,
                jet.stats.edge_accesses() as f64 / cold.stats.edge_accesses() as f64,
            ));
        }
    }
    Ok(out)
}

/// Fig. 10: vertices reset by a 30 K-equivalent deletion-only batch,
/// JetStream (DAP) vs KickStarter.
pub fn fig10(scale: u32) -> Result<String, HarnessError> {
    let mut out = String::from("## Fig. 10 — Vertices reset by 30 K-equivalent deletions\n\n");
    out.push_str(
        "Paper: JetStream's source-based DAP usually resets fewer vertices \
         than KickStarter.\n\n\
         | Workload | Graph | JetStream | KickStarter |\n|---|---|---|---|\n",
    );
    for w in Workload::SELECTIVE {
        for p in DatasetProfile::ALL {
            let s = Scenario {
                batch: p.scaled_batch(30_000, scale),
                insertion_fraction: 0.0,
                ..Scenario::paper_default(w, p, scale)
            };
            eprintln!("[fig10] {} on {} ...", w.name(), p.tag());
            let jet = run_jetstream(&s)?;
            let ks = run_kickstarter(&s)?;
            out.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                w.name(),
                p.tag(),
                jet.stats.resets,
                ks.stats.resets
            ));
        }
    }
    Ok(out)
}

/// Fig. 11: off-chip transfer utilization (bytes consumed / bytes moved).
pub fn fig11(scale: u32) -> Result<String, HarnessError> {
    let workloads =
        [Workload::PageRank, Workload::Sswp, Workload::Sssp, Workload::Bfs, Workload::Cc];
    let mut out = String::from("## Fig. 11 — Off-chip memory transfer utilization\n\n");
    out.push_str(
        "Paper: JetStream's sparse active set harvests less spatial \
         locality — about one-third of GraphPulse's utilization.\n\n\
         | Workload | Graph | JetStream | GraphPulse |\n|---|---|---|---|\n",
    );
    for w in workloads {
        for p in DatasetProfile::ALL {
            eprintln!("[fig11] {} on {} ...", w.name(), p.tag());
            let s = Scenario::paper_default(w, p, scale);
            let jet = run_jetstream(&s)?;
            let gp = run_graphpulse_initial(&s)?;
            out.push_str(&format!(
                "| {} | {} | {:.3} | {:.3} |\n",
                w.name(),
                p.tag(),
                jet.sim.memory_utilization(),
                gp.sim.memory_utilization(),
            ));
        }
    }
    Ok(out)
}

/// Fig. 12: speedup over GraphPulse for Base, +VAP and +DAP, and for the
/// restore extension (DESIGN.md §3.1), which the paper does not have.
pub fn fig12(scale: u32) -> Result<String, HarnessError> {
    let profiles = [DatasetProfile::LiveJournal, DatasetProfile::Uk2002];
    let mut out = String::from("## Fig. 12 — Base / +VAP / +DAP speedup over GraphPulse\n\n");
    out.push_str(
        "Paper: Base tags too many vertices (≈ cold-start work); VAP helps \
         SSSP/SSWP; DAP helps all four. +restore is DAP with this repo's \
         restore extension, not a paper configuration, and an upper bound \
         on its modelled gain: the timing model does not charge the source \
         values its set-up scan reads, one random vertex read each.\n\n\
         | Graph | Workload | Base | +VAP | +DAP | +restore |\n|---|---|---|---|---|---|\n",
    );
    for p in profiles {
        for w in Workload::SELECTIVE {
            let mut cells = Vec::new();
            for strategy in DeleteStrategy::ALL {
                let s = Scenario { strategy, ..Scenario::paper_default(w, p, scale) };
                let jet = run_jetstream(&s)?;
                let cold = run_graphpulse_cold(&s)?;
                cells.push(format!("{:.1}×", cold.sim.time_ms() / jet.sim.time_ms()));
            }
            out.push_str(&format!("| {} | {} | {} |\n", p.tag(), w.name(), cells.join(" | ")));
        }
    }
    Ok(out)
}

/// Fig. 13: sensitivity to batch size (SSSP and PageRank on LiveJournal).
///
/// Scaled batch `B` corresponds to the paper batch `B × scale`; runtimes are
/// reported as speedup over JetStream at the 100 K-equivalent batch, exactly
/// as in the paper.
pub fn fig13(scale: u32) -> Result<String, HarnessError> {
    let p = DatasetProfile::LiveJournal;
    let batches = [1usize, 3, 10, 30, 100];
    let mut out = String::from("## Fig. 13 — Sensitivity to batch size (LiveJournal)\n\n");
    out.push_str(
        "Speedup over JetStream at the 100 K-equivalent batch; paper: \
         JetStream's advantage grows orders of magnitude at small batches.\n\n\
         | Workload | System | 1K-eq | 3K-eq | 10K-eq | 30K-eq | 100K-eq |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for w in [Workload::Sssp, Workload::PageRank] {
        let baseline = {
            let s = Scenario { batch: 100, ..Scenario::paper_default(w, p, scale) };
            run_jetstream(&s)?.sim.time_ms()
        };
        let mut jet_row = Vec::new();
        let mut sw_row = Vec::new();
        for &b in &batches {
            let s = Scenario { batch: b, ..Scenario::paper_default(w, p, scale) };
            let jet = run_jetstream(&s)?;
            let soft = run_software(&s)?;
            jet_row.push(format!("{:.2}×", baseline / jet.sim.time_ms()));
            sw_row.push(format!("{:.4}×", baseline / soft.time_ms));
        }
        let sw_label = match w.kind() {
            UpdateKind::Selective => "KickStarter",
            UpdateKind::Accumulative => "GraphBolt",
        };
        out.push_str(&format!("| {} | JetStream | {} |\n", w.name(), jet_row.join(" | ")));
        out.push_str(&format!("| | {sw_label} | {} |\n", sw_row.join(" | ")));
    }
    Ok(out)
}

/// Fig. 14: sensitivity to batch composition (SSSP and CC on LiveJournal).
pub fn fig14(scale: u32) -> Result<String, HarnessError> {
    let p = DatasetProfile::LiveJournal;
    let compositions =
        [(1.0, "100:0"), (0.75, "75:25"), (0.5, "50:50"), (0.25, "25:75"), (0.0, "0:100")];
    let mut out = String::from("## Fig. 14 — Sensitivity to batch composition (LiveJournal)\n\n");
    out.push_str(
        "Run-time normalized to the 50:50 batch on JetStream; paper: \
         insertion-only converges ~3–4× faster than deletion-only.\n\n\
         | Workload | System | 100:0 | 75:25 | 50:50 | 25:75 | 0:100 |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for w in [Workload::Sssp, Workload::Cc] {
        let norm = {
            let s = Scenario {
                insertion_fraction: 0.5,
                rounds: 8,
                ..Scenario::paper_default(w, p, scale)
            };
            run_jetstream(&s)?.sim.time_ms()
        };
        let mut jet_row = Vec::new();
        let mut ks_row = Vec::new();
        for &(frac, _) in &compositions {
            eprintln!("[fig14] {} at {frac} insertions ...", w.name());
            let s = Scenario {
                insertion_fraction: frac,
                rounds: 8,
                ..Scenario::paper_default(w, p, scale)
            };
            let jet = run_jetstream(&s)?;
            let ks = run_kickstarter(&s)?;
            jet_row.push(format!("{:.2}", jet.sim.time_ms() / norm));
            ks_row.push(format!("{:.2}", ks.time_ms / norm));
        }
        out.push_str(&format!("| {} | JetStream | {} |\n", w.name(), jet_row.join(" | ")));
        out.push_str(&format!("| | KickStarter | {} |\n", ks_row.join(" | ")));
    }
    Ok(out)
}

/// Ablation: the accumulative-recovery design choice (DESIGN.md §3) —
/// the paper's literal two-phase Algorithm 6 versus the default coalesced
/// rollback+replay, measured as events processed and simulated time per
/// batch.
pub fn ablation_recovery(scale: u32) -> Result<String, HarnessError> {
    use crate::harness::{base_and_batches, root_for, ACCUMULATIVE_EPSILON};
    use jetstream_sim::AcceleratorSim;

    let mut out = String::from(
        "## Ablation — accumulative recovery flow\n\n\
         Two-phase is Algorithm 6 verbatim (rollback converges on the \
         intermediate graph before replay); coalesced queues rollback and \
         replay together so kept-edge contributions cancel in the queue. \
         Both produce identical results (tested); coalesced is the default.\n\n\
         | Workload | Graph | Two-phase events | Coalesced events | Two-phase ms | Coalesced ms |\n\
         |---|---|---|---|---|---|\n",
    );
    for w in [Workload::PageRank, Workload::Adsorption] {
        for p in [DatasetProfile::LiveJournal, DatasetProfile::Twitter] {
            eprintln!("[ablation] {} on {} ...", w.name(), p.tag());
            let scenario = Scenario { rounds: 1, ..Scenario::paper_default(w, p, scale) };
            let (base, batches) = base_and_batches(&scenario);
            let first = batches.first().ok_or_else(|| scenario.no_batches())?;
            let root = root_for(&base);
            let mut cells = Vec::new();
            for recovery in [AccumulativeRecovery::TwoPhase, AccumulativeRecovery::Coalesced] {
                let config =
                    EngineConfig { accumulative_recovery: recovery, ..EngineConfig::default() };
                let mut engine = StreamingEngine::new(
                    w.instantiate_with_epsilon(root, ACCUMULATIVE_EPSILON),
                    base.clone(),
                    config,
                );
                engine.initial_compute();
                engine.set_tracing(true);
                let stats =
                    engine.apply_update_batch(first).map_err(|e| scenario.graph_error(e))?;
                let trace = engine.take_trace();
                let mut sim = AcceleratorSim::new(SimConfig::jetstream(DeleteStrategy::Dap));
                let report = sim.replay(&trace, engine.csr());
                cells.push((stats.events_processed, report.time_ms()));
            }
            out.push_str(&format!(
                "| {} | {} | {} | {} | {:.4} | {:.4} |\n",
                w.name(),
                p.tag(),
                cells[0].0,
                cells[1].0,
                cells[0].1,
                cells[1].1
            ));
        }
    }
    Ok(out)
}

/// Ablation: queue capacity and graph slicing (§4.7) — one traced cold
/// evaluation of the scaled Twitter graph, replayed by the cycle simulator
/// at shrinking on-chip queue sizes: more slices, more spills.
pub fn ablation_slicing(scale: u32) -> String {
    use crate::harness::{base_and_batches, root_for};
    use jetstream_sim::AcceleratorSim;

    let mut out = String::from(
        "## Ablation — queue capacity and slicing\n\n\
         One traced cold SSSP evaluation of the scaled Twitter graph, \
         replayed by the cycle simulator at four on-chip queue sizes (§4.7): \
         a graph larger than the queue is cut into edge-cut slices, and every \
         generated event whose target lies in another slice than its source \
         spills to off-chip memory.\n\n\
         | Queue capacity (vertices) | Slices | Events generated | Spilled events | Spill fraction | Simulated ms |\n\
         |---|---|---|---|---|---|\n",
    );
    let scenario = Scenario {
        rounds: 1,
        ..Scenario::paper_default(Workload::Sssp, DatasetProfile::Twitter, scale)
    };
    let (base, _) = base_and_batches(&scenario);
    let root = root_for(&base);
    let n = base.num_vertices();
    let config = EngineConfig::default();
    let mut engine = StreamingEngine::new(Workload::Sssp.instantiate(root), base, config);
    engine.set_tracing(true);
    engine.initial_compute();
    let trace = engine.take_trace();
    let jetstream = SimConfig::jetstream(config.delete_strategy);
    for capacity in [None, Some(n.div_ceil(2)), Some(n.div_ceil(4)), Some(n.div_ceil(8))] {
        let queue_bytes = capacity.map_or(u64::MAX, |c| c as u64 * jetstream.event_bytes);
        let sim = SimConfig { queue_bytes, ..jetstream };
        let report = AcceleratorSim::new(sim).replay(&trace, engine.csr());
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.3} | {:.3} |\n",
            capacity.map_or("unbounded".to_string(), |c| c.to_string()),
            sim.slices_for(n),
            report.events_generated,
            report.spilled_events,
            report.spilled_events as f64 / report.events_generated.max(1) as f64,
            report.time_ms(),
        ));
    }
    out
}

/// Table 4: power and area of the accelerator components.
pub fn table4() -> String {
    let gp = estimate(&HwConfig::graphpulse());
    let js = estimate(&HwConfig::jetstream_dap());
    let mut out = String::from("## Table 4 — Power and area\n\n");
    out.push_str(
        "Analytic CACTI-substitute estimates; parenthesized deltas are \
         JetStream over GraphPulse (paper: +3 % area, +1 % power overall).\n\n\
         | Component | # | Static (mW) | Dynamic (mW) | Total (mW) | Area (mm²) |\n\
         |---|---|---|---|---|---|\n",
    );
    for (c, base) in js.components.iter().zip(gp.components.iter()) {
        out.push_str(&format!(
            "| {} | {} | {:.2} | {:.2} | {:.0} ({:+.0}%) | {:.2} ({:+.0}%) |\n",
            c.name,
            c.count,
            c.static_mw,
            c.dynamic_mw,
            c.total_mw(),
            (c.total_mw() / base.total_mw() - 1.0) * 100.0,
            c.area_mm2,
            (c.area_mm2 / base.area_mm2 - 1.0) * 100.0,
        ));
    }
    out.push_str(&format!(
        "| **Total** | | | | {:.0} ({:+.1}%) | {:.1} ({:+.1}%) |\n",
        js.total_mw(),
        (js.total_mw() / gp.total_mw() - 1.0) * 100.0,
        js.total_area_mm2(),
        (js.total_area_mm2() / gp.total_area_mm2() - 1.0) * 100.0,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_of_identical_values() {
        assert!((gmean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn gmean_mixes_ratios() {
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn static_tables_render() {
        let t1 = table1();
        assert!(t1.contains("1 GHz"));
        let t4 = table4();
        assert!(t4.contains("Queue"));
        assert!(t4.contains("Total"));
    }

    // The ablation reports are markdown: prose wrapped without runs of
    // spaces, no line indented (an indented table renders as code), and
    // every table row with its header's cell count.
    #[test]
    fn ablation_reports_render_as_markdown_tables() {
        let reports = [ablation_recovery(20_000).unwrap(), ablation_slicing(20_000)];
        for report in &reports {
            let mut header_cells = None;
            for line in report.lines() {
                assert!(!line.starts_with(char::is_whitespace), "indented: {line:?}");
                assert!(!line.contains("   "), "a run of spaces: {line:?}");
                if line.starts_with('|') {
                    let cells = line.matches('|').count();
                    assert_eq!(cells, *header_cells.get_or_insert(cells), "{line:?}");
                } else {
                    header_cells = None;
                }
            }
            assert!(report.lines().filter(|l| l.starts_with('|')).count() > 3, "{report}");
        }
    }

    #[test]
    fn table2_renders_all_profiles_at_coarse_scale() {
        let t2 = table2(20_000);
        for p in DatasetProfile::ALL {
            assert!(t2.contains(p.tag()), "missing {}", p.tag());
        }
    }
}
