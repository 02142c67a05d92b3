//! The benchmark's contract in one place: workload names, metric names,
//! units, directions and regression bounds. `BENCHMARK.json` at the repo
//! root is [`render_benchmark_json`] of this table (a test keeps the two
//! identical); the glossary lives in `README.md` beside this crate.

use std::fmt::Write as _;

use jetstream_algorithms::Workload;
use jetstream_graph::gen::DatasetProfile;

use crate::json::escape;

/// Seconds one run measures; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// Open-loop arrival rate of `serve_durable_fb`, update messages per
/// second. Fixed by the ladder (`-- ladder`, recorded in README.md): the
/// highest rung with an empty end-of-run backlog and a repeatable median.
pub const SERVE_RATE_MSGS_PER_S: f64 = 30.0;

/// Point queries per second issued beside the open-loop writes.
pub const QUERY_RATE_PER_S: f64 = 1000.0;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit, as printed with every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; per-layer metrics are not gated).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// What a user of the system sees; measured with tracing off, reported by
/// every workload (for `serve_durable_fb` a "batch" is one update message
/// and its latency runs from the due time to the `Converged` notice).
/// Bounds come from `-- calibrate --sets 10` on the seed commit: at least
/// three times the widest interquartile spread any workload showed, and
/// the contract's 0.25 where the shared host's speed shifts would
/// otherwise trip them (README.md, "Measured at the seed commit").
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("initial_compute_s", "s", Lower, 0.25),
    e2e("batch_p50_ms", "ms", Lower, 0.25),
    e2e("updates_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Single-layer numbers from the traced run; not gated.
pub const PER_LAYER: &[MetricDef] = &[
    layer("trace_overhead_ratio", "ratio", Lower),
    layer("layer_sum_ratio", "ratio", Higher),
    layer("graph.host_apply_us_per_batch", "us", Lower),
    layer("graph.dcsr_apply_us_per_batch", "us", Lower),
    layer("graph.dcsr_slack_ratio", "ratio", Lower),
    layer("graph.edges_live_end", "count", Lower),
    layer("core.apply_us_per_batch", "us", Lower),
    layer("core.self_us_per_batch", "us", Lower),
    layer("core.classify_us_per_batch", "us", Lower),
    layer("core.ns_per_event", "ns", Lower),
    layer("core.events_processed_per_update", "count", Lower),
    layer("core.events_generated_per_update", "count", Lower),
    layer("core.coalesce_ratio", "ratio", Higher),
    layer("core.edge_reads_per_update", "count", Lower),
    layer("core.vertex_writes_per_update", "count", Lower),
    layer("core.resets_per_update", "count", Lower),
    layer("core.delete_events_per_update", "count", Lower),
    layer("core.request_events_per_update", "count", Lower),
    layer("core.rounds_per_batch", "count", Lower),
    layer("core.spilled_events_per_batch", "count", Lower),
    layer("core.phase_ops_share.delete-setup", "ratio", Lower),
    layer("core.phase_ops_share.delete-propagation", "ratio", Lower),
    layer("core.phase_ops_share.request-setup", "ratio", Lower),
    layer("core.phase_ops_share.intermediate-compute", "ratio", Lower),
    layer("core.phase_ops_share.insert-setup", "ratio", Lower),
    layer("core.phase_ops_share.recompute", "ratio", Lower),
    layer("core.queue_replay_ns_per_event", "ns", Lower),
    layer("core.sharded.modeled_speedup", "ratio", Higher),
    layer("core.sharded.critical_path_share", "ratio", Lower),
    layer("core.sharded.cross_shard_sends_per_update", "count", Lower),
    layer("core.sharded.async_vs_seq_ratio", "ratio", Lower),
    layer("store.wal_append_us_per_batch", "us", Lower),
    layer("store.wal_sync_us_per_batch", "us", Lower),
    layer("store.checkpoint_ms", "ms", Lower),
    layer("store.wal_bytes_per_update", "B", Lower),
    layer("store.snapshot_bytes", "B", Lower),
    layer("store.recover_replayed_batches", "count", Lower),
    layer("serve.encode_ns_per_update", "ns", Lower),
    layer("serve.decode_ns_per_update", "ns", Lower),
    layer("serve.frame_rw_ns_per_msg", "ns", Lower),
    layer("serve.admit_ns_per_update", "ns", Lower),
    layer("serve.backend_apply_us_per_batch", "us", Lower),
    layer("serve.query_value_ns", "ns", Lower),
    layer("serve.query_path_ns", "ns", Lower),
    layer("serve.updates_per_sealed_batch", "count", Higher),
    layer("serve.fast_path_batch_share", "ratio", Higher),
    layer("serve.busy_share", "ratio", Lower),
    layer("serve.checkpoints", "count", Lower),
    layer("serve.generator_lag_p99_us", "us", Lower),
    layer("serve.backlog_end_msgs", "count", Lower),
    layer("sim.cycles_per_update", "count", Lower),
    layer("sim.dram_row_hit_ratio", "ratio", Higher),
    layer("sim.speedup_vs_cold", "ratio", Higher),
    layer("sim.host_ns_per_op", "ns", Lower),
    layer("algorithms.oracle_ms", "ms", Lower),
    layer("diag.batch_p95_ms", "ms", Lower),
    layer("diag.ingest_p50_ms", "ms", Lower),
    layer("diag.ingest_p99_ms", "ms", Lower),
    layer("diag.query_p50_us", "us", Lower),
    layer("diag.query_p99_us", "us", Lower),
    layer("diag.recover_s", "s", Lower),
];

/// How a scenario's batches reach convergence in the end-to-end run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `StreamingEngine::apply_update_batch`, one engine per algorithm.
    Sequential,
    /// `ShardedEngine`, 2 shards, `ExecutionMode::Async`.
    Async2,
    /// The serving stack over TCP loopback with a durable backend.
    Served,
}

/// One workload: a graph, the standing queries, a stream shape and the
/// path its end-to-end run exercises.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Workload name in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line: why the workload exists.
    pub why: &'static str,
    /// Graph profile, generated at 1/100 of the paper's size.
    pub profile: DatasetProfile,
    /// Standing queries kept up to date over the one stream.
    pub algorithms: &'static [Workload],
    /// Updates per batch (per message when served).
    pub batch_updates: usize,
    /// End-to-end path.
    pub path: Path,
    /// WAL records behind the snapshot in the recovery probe's directory.
    pub recover_tail: usize,
    /// Batches (closed-loop messages when served) a run applies per
    /// measured second: about what this host sustains, fixed so that a
    /// run's work and memory do not depend on how fast the host is today.
    pub nominal_per_s: f64,
}

/// Scale divisor of every graph: 10x the size `microbench` uses.
pub const GRAPH_SCALE: u32 = 100;

/// Fraction of edges held out of the base graph as the insertion pool.
pub const HOLDOUT: f64 = 0.1;

/// The four workloads.
pub const SCENARIOS: [Scenario; 4] = [
    Scenario {
        name: "pr_lj_seq",
        why: "PageRank on LiveJournal, sequential engine: kernel and queue do >90% of the work, so an engine hot-path change must show here",
        profile: DatasetProfile::LiveJournal,
        algorithms: &[Workload::PageRank],
        batch_updates: 1000,
        path: Path::Sequential,
        recover_tail: 8,
        nominal_per_s: 24.0,
    },
    Scenario {
        name: "sel4_wk_churn",
        why: "SSSP, SSWP, BFS and CC kept converged over one stream on narrow Wikipedia: few events per update, so graph maintenance and the delete/reset/request phases carry a large share",
        profile: DatasetProfile::Wikipedia,
        algorithms: &[Workload::Sssp, Workload::Sswp, Workload::Bfs, Workload::Cc],
        batch_updates: 1000,
        path: Path::Sequential,
        recover_tail: 8,
        nominal_per_s: 36.0,
    },
    Scenario {
        name: "pr_lj_async2",
        why: "pr_lj_seq's exact stream through the 2-shard async executor: isolates cross-shard folding, run exchange and quiescence probing from the kernel",
        profile: DatasetProfile::LiveJournal,
        algorithms: &[Workload::PageRank],
        batch_updates: 1000,
        path: Path::Async2,
        recover_tail: 8,
        nominal_per_s: 24.0,
    },
    Scenario {
        name: "serve_durable_fb",
        why: "SSSP on Facebook behind the shipped server and durable store over TCP: closed-loop saturation, then open-loop writes beside point queries; store and serve work here and nowhere else",
        profile: DatasetProfile::Facebook,
        algorithms: &[Workload::Sssp],
        batch_updates: 256,
        path: Path::Served,
        recover_tail: 32,
        nominal_per_s: 600.0,
    },
];

/// The scenario named `name`.
pub fn scenario(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// The command `BENCHMARK.json` names; the driver appends
/// `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// Renders `BENCHMARK.json` with the given end-to-end bounds (in
/// [`END_TO_END`] order).
pub fn render_benchmark_json(bounds: &[f64]) -> String {
    let mut out = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let _ = writeln!(out, "  \"command\": [{}],", command.join(", "));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, s) in SCENARIOS.iter().enumerate() {
        let comma = if i + 1 == SCENARIOS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            s.name,
            escape(s.why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (m, bound)) in END_TO_END.iter().zip(bounds).enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}",
            m.name,
            m.unit,
            m.better.word()
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.word()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for s in &SCENARIOS {
            assert!(name_ok(s.name) && seen.insert(s.name));
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("required metric");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let bounds: Vec<f64> = END_TO_END.iter().map(|m| m.bound).collect();
        let rendered = render_benchmark_json(&bounds);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, rendered, "regenerate with `-- spec > BENCHMARK.json`");
        let doc = parse(&rendered).expect("rendered file is JSON");
        let keys: Vec<&str> = doc.as_object().expect("object").keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        let Some(Json::Array(layers)) = doc.get("per_layer") else { panic!("per_layer array") };
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(rendered.len() < 64 * 1024);
    }
}
