//! Hand-rolled microbenchmark rig behind the `microbench` binary.
//!
//! Times the engine's components — queue insert, queue drain, kernel apply
//! via `initial_compute`, SSWP, CC and SSSP churn streams under DAP with
//! restore, CSR snapshot maintenance, graph generation and bulk
//! construction, and the serving layer's update admission — with warmup +
//! median-of-K sampling, and serializes the results to the `BENCH.json`
//! schema documented in DESIGN.md §12. Whole engines and the server are
//! measured by `benchmark/` (`BENCHMARK.json`), not here. Everything here
//! is std-only (the workspace builds offline); the JSON writer and the
//! line-oriented reader used by `--check` live here too so the regression
//! gate needs no external parser.

use std::fmt::Write as _;
use std::time::Instant;

use jetstream_algorithms::{Algorithm, EdgeOp, Reduce, Workload};
use jetstream_core::{
    Carry, CoalescingQueue, EngineConfig, Event, Executor, Row, ShardedEngine, StreamingEngine,
    StreamingFlow,
};
use jetstream_graph::gen::{DatasetProfile, DEFAULT_SCALE};
use jetstream_graph::{Csr, CsrPair, EdgeUpdate, VertexId};

use crate::harness::{self, HarnessError, Scenario, ACCUMULATIVE_EPSILON};

// The serving crate's admission front-end, compiled from its own source:
// `jetstream-serve` depends on this crate, so the rig cannot depend back
// on it, and the module needs nothing but `jetstream-graph`.
#[expect(dead_code, reason = "the rig drives `fresh` and `admit` only")]
#[path = "../../serve/src/admission.rs"]
mod admission;

use admission::{Admission, FlushPolicy};

/// One measured benchmark: the median and spread of K timed samples.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (the key in `BENCH.json`).
    pub name: &'static str,
    /// Median per-sample wall-clock nanoseconds.
    pub median_ns: u64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Slowest sample.
    pub max_ns: u64,
    /// Number of timed samples (after warmup).
    pub samples: usize,
}

/// Rig-wide knobs: sample counts and the dataset scale divisor.
#[derive(Debug, Clone, Copy)]
pub struct MicroConfig {
    /// Untimed warmup runs per benchmark.
    pub warmup: usize,
    /// Timed samples per benchmark (median-of-K).
    pub samples: usize,
    /// Scale divisor for the streaming scenarios (as in `experiments`).
    pub scale: u32,
    /// Vertex-space size for the queue benchmarks.
    pub queue_vertices: usize,
}

impl MicroConfig {
    /// Full run: the configuration the committed `BENCH.json` is built
    /// with.
    pub fn full() -> Self {
        MicroConfig { warmup: 2, samples: 9, scale: 1000, queue_vertices: 1 << 16 }
    }

    /// Reduced-K smoke run for CI: fewer samples, smaller instances. The
    /// one-sided `--check` gate stays meaningful because quick instances
    /// are never *slower* than the full ones.
    pub fn quick() -> Self {
        MicroConfig { warmup: 1, samples: 3, scale: 20_000, queue_vertices: 1 << 14 }
    }
}

/// Runs `setup` untimed then `routine` timed, `samples` times after
/// `warmup` discarded rounds, and reports the median/min/max nanoseconds
/// per routine invocation.
pub fn measure<S>(
    name: &'static str,
    warmup: usize,
    samples: usize,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(&mut S),
) -> BenchResult {
    assert!(samples > 0, "need at least one timed sample");
    for _ in 0..warmup {
        let mut state = setup();
        routine(&mut state);
    }
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let mut state = setup();
            let start = Instant::now();
            routine(&mut state);
            let ns = start.elapsed().as_nanos();
            u64::try_from(ns).unwrap_or(u64::MAX)
        })
        .collect();
    times.sort_unstable();
    BenchResult {
        name,
        median_ns: times[times.len() / 2],
        min_ns: times[0],
        max_ns: times[times.len() - 1],
        samples,
    }
}

/// Deterministic splitmix64 stream for benchmark inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Deterministic regular events touching `count` distinct vertices out of
/// `num_vertices` (targets deduplicated so occupancy is exact).
fn occupancy_events(num_vertices: usize, count: usize, seed: u64) -> Vec<Event> {
    let mut rng = Rng(seed);
    let mut taken = vec![false; num_vertices];
    let mut events = Vec::with_capacity(count);
    while events.len() < count {
        let v = (rng.next() % num_vertices as u64) as usize;
        if !taken[v] {
            taken[v] = true;
            let payload = (rng.next() % 1000) as f64 / 1000.0;
            events.push(Event::regular(v as VertexId, payload));
        }
    }
    events
}

fn pagerank_alg() -> Box<dyn Algorithm> {
    Workload::PageRank.instantiate_with_epsilon(0, ACCUMULATIVE_EPSILON)
}

fn bench_queue_insert(cfg: &MicroConfig) -> BenchResult {
    let alg = pagerank_alg();
    let events = occupancy_events(cfg.queue_vertices, cfg.queue_vertices / 4, 0x5eed);
    measure(
        "queue_insert_25pct",
        cfg.warmup,
        cfg.samples,
        || CoalescingQueue::new(cfg.queue_vertices, 16),
        |queue| {
            for &ev in &events {
                queue.insert(ev, alg.as_ref());
            }
        },
    )
}

/// Out-degree of the replayed rows: the 17 generated events per processed
/// event `pr_lj_seq` measures under `--trace 1`.
const ROW_LEN: usize = 17;
/// Replays of the row set. The first claims the slots, the rest coalesce:
/// 15/16 = 0.94, the ledger's `core.coalesce_ratio`.
const ROW_PASSES: usize = 16;

/// Ascending rows of [`ROW_LEN`] distinct targets, together covering about
/// one slot per vertex — the shape of the kernel's emissions in a
/// PageRank recompute phase.
fn coalescing_rows(num_vertices: usize) -> Vec<Vec<VertexId>> {
    let mut rng = Rng(0x5eed);
    (0..num_vertices / ROW_LEN)
        .map(|_| {
            let mut row: Vec<VertexId> = Vec::with_capacity(ROW_LEN);
            while row.len() < ROW_LEN {
                let v = (rng.next() % num_vertices as u64) as VertexId;
                if !row.contains(&v) {
                    row.push(v);
                }
            }
            row.sort_unstable();
            row
        })
        .collect()
}

/// The measured traffic, not the empty-slot corner `queue_insert_25pct`
/// times: sum-reduced rows replayed until 94 % of the inserts coalesce,
/// either a row at a time through `insert_row` or an event at a time
/// through `insert`. [`CROSS_CHECKS`] holds the first below the second.
fn bench_insert_coalescing(cfg: &MicroConfig, by_row: bool) -> BenchResult {
    let alg = pagerank_alg();
    let rows = coalescing_rows(cfg.queue_vertices);
    let delta = 0.125;
    measure(
        if by_row { "queue_insert_row_coalescing" } else { "queue_insert_event_coalescing" },
        cfg.warmup,
        cfg.samples,
        || CoalescingQueue::new(cfg.queue_vertices, 16),
        |queue| {
            for _ in 0..ROW_PASSES {
                for row in &rows {
                    if by_row {
                        let carry = Carry::Regular { delta, source: None };
                        queue.insert_row(0, Row { targets: row, carry }, Reduce::Sum);
                    } else {
                        for &v in row {
                            queue.insert(Event::regular(v, delta), alg.as_ref());
                        }
                    }
                }
            }
            std::hint::black_box(queue.len());
        },
    )
}

/// SSSP's emission shape on the same rows: each row carries a source and
/// a weight per target, folded with `Min` through `AddWeight`, and every
/// pass sends a smaller base so its arrivals dominate — the sourced fold,
/// where a coalesce also rewrites the slot's source.
fn bench_weighted_row_sourced(cfg: &MicroConfig) -> BenchResult {
    let rows = coalescing_rows(cfg.queue_vertices);
    let mut rng = Rng(0x5eed);
    let weights: Vec<Vec<f64>> = rows
        .iter()
        .map(|row| row.iter().map(|_| 1.0 + (rng.next() % 1000) as f64 / 1000.0).collect())
        .collect();
    measure(
        "queue_insert_weighted_row_sourced",
        cfg.warmup,
        cfg.samples,
        || CoalescingQueue::new(cfg.queue_vertices, 16),
        |queue| {
            let (op, reduce) = (EdgeOp::AddWeight, Reduce::Min);
            for pass in 0..ROW_PASSES {
                let delta = (ROW_PASSES - pass) as f64;
                for (source, (row, w)) in rows.iter().zip(&weights).enumerate() {
                    let source = Some(source as VertexId);
                    let carry = Carry::Weighted { weights: w, base: delta, op, source };
                    queue.insert_row(0, Row { targets: row, carry }, reduce);
                }
            }
            std::hint::black_box(queue.len());
        },
    )
}

/// The receiving side of the 2-shard exchange: the coalescing rows as
/// ascending runs of sum-reduced events, folded with `insert_run`.
fn bench_insert_run(cfg: &MicroConfig) -> BenchResult {
    let runs: Vec<Vec<Event>> = coalescing_rows(cfg.queue_vertices)
        .iter()
        .map(|row| row.iter().map(|&v| Event::regular(v, 0.125)).collect())
        .collect();
    measure(
        "queue_insert_run",
        cfg.warmup,
        cfg.samples,
        || CoalescingQueue::new(cfg.queue_vertices, 16),
        |queue| {
            for _ in 0..ROW_PASSES {
                for run in &runs {
                    queue.insert_run(run, Reduce::Sum);
                }
            }
            std::hint::black_box(queue.len());
        },
    )
}

fn bench_drain_bitmap(cfg: &MicroConfig, name: &'static str, occupancy: usize) -> BenchResult {
    let alg = pagerank_alg();
    let events = occupancy_events(cfg.queue_vertices, occupancy, 0x5eed);
    let mut scratch: Vec<Event> = Vec::with_capacity(occupancy);
    measure(
        name,
        cfg.warmup,
        cfg.samples,
        || {
            let mut queue = CoalescingQueue::new(cfg.queue_vertices, 16);
            for &ev in &events {
                queue.insert(ev, alg.as_ref());
            }
            queue
        },
        |queue| {
            scratch.clear();
            let drained = queue.take_all_into(&mut scratch);
            std::hint::black_box(drained);
        },
    )
}

fn pagerank_scenario(cfg: &MicroConfig) -> Scenario {
    Scenario::paper_default(Workload::PageRank, DatasetProfile::LiveJournal, cfg.scale)
}

fn engine_config() -> EngineConfig {
    EngineConfig { num_bins: 16, ..EngineConfig::default() }
}

/// Cold evaluation of `workload` on the PageRank scenario's base graph by
/// the engine `mount` builds: PageRank times uniform rows, SSSP weighted
/// rows, and the 2-shard engine its row splitting and run exchange.
fn bench_initial_compute<X: Executor>(
    cfg: &MicroConfig,
    name: &'static str,
    workload: Workload,
    mount: impl Fn(Box<dyn Algorithm>, Csr) -> StreamingFlow<X>,
) -> Result<BenchResult, HarnessError> {
    let (base, _) = harness::base_and_batches(&pagerank_scenario(cfg));
    let root = harness::root_for(&base);
    Ok(measure(
        name,
        cfg.warmup,
        cfg.samples,
        || mount(workload.instantiate_with_epsilon(root, ACCUMULATIVE_EPSILON), base.clone()),
        |engine| {
            std::hint::black_box(engine.initial_compute());
        },
    ))
}

/// The churn stream of `kernel_stream_sswp_churn`: 16 batches of the
/// paper-default shape (100 updates at [`DEFAULT_SCALE`], 70 % insertions)
/// on the Wikipedia profile, seed 1. Its first batch is a tie storm —
/// SSWP's delete wave resets 2403 of 3552 vertices and all but 44 keep
/// their width — and its 16th resets 2169 of which only 37 keep theirs.
fn sswp_churn_scenario() -> Scenario {
    let profile = DatasetProfile::Wikipedia;
    Scenario {
        seed: 1,
        rounds: 16,
        ..Scenario::paper_default(Workload::Sswp, profile, DEFAULT_SCALE)
    }
}

/// The churn stream of `kernel_stream_cc_churn`: 64 batches of
/// [`sswp_churn_scenario`]'s shape for CC. Nearly every batch's delete
/// wave resets a subtree of shared labels that the restore step then
/// hands back, so the wave and the restore are most of its work.
fn cc_churn_scenario() -> Scenario {
    Scenario { workload: Workload::Cc, rounds: 64, ..sswp_churn_scenario() }
}

/// The churn stream of `kernel_stream_sssp_churn`: 16 paper-default
/// batches (seed 1) of SSSP on the Facebook profile, the served
/// workload's graph. Its few resets have many valid in-neighbours, whose
/// request broadcasts are most of the paper's DAP's events; under DAP
/// with restore each vertex left reset pulls instead.
fn sssp_churn_scenario() -> Scenario {
    let profile = DatasetProfile::Facebook;
    Scenario {
        seed: 1,
        rounds: 16,
        ..Scenario::paper_default(Workload::Sssp, profile, DEFAULT_SCALE)
    }
}

/// The DAP engine streaming `scenario`'s batches from the converged base
/// state (mounted from a checkpoint, untimed): for SSWP
/// ([`sswp_churn_scenario`]) the delete waves, the restore step and the
/// recompute of both storms, for CC ([`cc_churn_scenario`]) many small
/// waves and their restores. The same instance in either mode, like the
/// graph builders'.
#[expect(
    clippy::expect_used,
    reason = "invariant: the state was read off an engine on the same graph"
)]
fn bench_stream_churn(
    cfg: &MicroConfig,
    name: &'static str,
    scenario: &Scenario,
) -> Result<BenchResult, HarnessError> {
    let (base, batches) = harness::base_and_batches(scenario);
    let root = harness::root_for(&base);
    let alg = || scenario.workload.instantiate(root);
    let mut engine = StreamingEngine::new(alg(), base.clone(), engine_config());
    engine.initial_compute();
    let (values, dependency) = (engine.values().to_vec(), engine.dependencies().to_vec());
    for batch in &batches {
        engine.apply_update_batch(batch).map_err(|e| scenario.graph_error(e))?;
    }
    Ok(measure(
        name,
        cfg.warmup,
        cfg.samples,
        || {
            let (values, dependency) = (values.clone(), dependency.clone());
            StreamingEngine::from_checkpoint(
                alg(),
                base.clone(),
                values,
                dependency,
                engine_config(),
            )
            .expect("invariant: the state was read off an engine on the same graph")
        },
        |engine| {
            for batch in &batches {
                std::hint::black_box(engine.apply_update_batch(batch)).ok();
            }
        },
    ))
}

/// One batch through `CsrPair::apply_batch` on a pair as a compaction
/// leaves it: checked once, then both views edited in place in
/// `O(batch · degree)`. Not on a clone: cloning trims the arenas' room to
/// grow, so the clone's first relocation would copy the whole arena.
#[expect(
    clippy::expect_used,
    reason = "invariant: the batch applied to the same pair before timing"
)]
fn bench_snapshot_maintain_incremental(cfg: &MicroConfig) -> Result<BenchResult, HarnessError> {
    let scenario = pagerank_scenario(cfg);
    let (base, batches) = harness::base_and_batches(&scenario);
    let Some(batch) = batches.first() else {
        return Err(scenario.no_batches());
    };
    CsrPair::new(base.snapshot()).apply_batch(batch).map_err(|e| scenario.graph_error(e))?;
    Ok(measure(
        "snapshot_maintain_incremental",
        cfg.warmup,
        cfg.samples,
        || CsrPair::new(base.snapshot()),
        |p| {
            p.apply_batch(batch)
                .expect("invariant: the batch applied to the same pair before timing");
            std::hint::black_box(p.num_edges());
        },
    ))
}

/// Scale of the graph-building benchmarks in either mode: the full
/// configuration's, so a quick run times the very instance the committed
/// baseline recorded and `--quick --check` holds the bulk builders to
/// their ratchet.
const GRAPH_SCALE: u32 = DEFAULT_SCALE;

/// The LiveJournal stand-in generated from its seed: the R-MAT draws,
/// the distinct-pair count after each chunk of attempts, and the bulk
/// build of every candidate.
fn bench_graph_generate(cfg: &MicroConfig) -> BenchResult {
    measure(
        "graph_generate_livejournal",
        cfg.warmup,
        cfg.samples,
        || (),
        |()| {
            std::hint::black_box(DatasetProfile::LiveJournal.generate(GRAPH_SCALE));
        },
    )
}

/// `Csr::from_edges` on the kind of list loaders and generators hand it:
/// the LiveJournal stand-in's edges shuffled, every fourth listed again
/// under another weight.
fn bench_csr_from_edges(cfg: &MicroConfig) -> BenchResult {
    let graph = DatasetProfile::LiveJournal.generate(GRAPH_SCALE);
    let mut edges: Vec<_> = graph.iter_edges().collect();
    let repeats: Vec<_> = edges.iter().step_by(4).map(|&(u, v, w)| (u, v, w + 1.0)).collect();
    edges.extend(repeats);
    let mut rng = Rng(0x5eed);
    for i in (1..edges.len()).rev() {
        edges.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    measure(
        "csr_from_edges",
        cfg.warmup,
        cfg.samples,
        || (),
        |()| {
            std::hint::black_box(Csr::from_edges(graph.num_vertices(), &edges));
        },
    )
}

/// Updates per message: the served workload's message size.
const MESSAGE_UPDATES: usize = 256;

/// The flush policy the admission bench seals under: the default's 4096
/// updates a batch at full size, a quarter of that in a quick run.
fn admission_policy(cfg: &MicroConfig) -> FlushPolicy {
    FlushPolicy { max_updates: cfg.queue_vertices / 16, ..FlushPolicy::default() }
}

/// Update messages valid against `graph` that together fill one batch of
/// `batch` updates: 70 % inserts of absent edges, 30 % deletes of present
/// ones, no edge named twice (so no conflict seal). A graph too small to
/// name that many edges gets as many as a bounded draw finds.
fn admission_messages(graph: &Csr, batch: usize) -> Vec<Vec<EdgeUpdate>> {
    let mut rng = Rng(0x5eed);
    let edges: Vec<(VertexId, VertexId)> = graph.iter_edges().map(|(u, v, _)| (u, v)).collect();
    let n = graph.num_vertices() as u64;
    let mut named = std::collections::BTreeSet::new();
    let mut updates = Vec::new();
    for _ in 0..16 * batch {
        if updates.len() == batch || edges.is_empty() {
            break;
        }
        let update = if rng.next() % 10 < 7 {
            let (source, target) = ((rng.next() % n) as VertexId, (rng.next() % n) as VertexId);
            if source == target || graph.has_edge(source, target) {
                continue;
            }
            EdgeUpdate::Insert { source, target, weight: 1.0 }
        } else {
            let (source, target) = edges[(rng.next() % edges.len() as u64) as usize];
            EdgeUpdate::Delete { source, target }
        };
        if named.insert((update.source(), update.target())) {
            updates.push(update);
        }
    }
    updates.chunks(MESSAGE_UPDATES).map(<[EdgeUpdate]>::to_vec).collect()
}

/// 256-update messages admitted into one open batch until it seals, on
/// the PageRank scenario's base graph: validation against the graph
/// overlaid with the open batch, then the append.
fn bench_admission_admit_message(cfg: &MicroConfig) -> Result<BenchResult, HarnessError> {
    let scenario = pagerank_scenario(cfg);
    let (base, _) = harness::base_and_batches(&scenario);
    let policy = admission_policy(cfg);
    let messages = admission_messages(&base, policy.max_updates);
    let mut admission = Admission::fresh(policy);
    for message in &messages {
        admission.admit(1, 0, message, &base, 0).map_err(|r| scenario.graph_error(r.error))?;
    }
    Ok(measure(
        "admission_admit_message",
        cfg.warmup,
        cfg.samples,
        || Admission::fresh(policy),
        |admission| {
            for (token, message) in messages.iter().enumerate() {
                std::hint::black_box(admission.admit(1, token as u64, message, &base, 0)).ok();
            }
        },
    ))
}

fn report(results: &mut Vec<BenchResult>, r: BenchResult) {
    eprintln!(
        "[microbench] {}: median {} ns (min {}, max {}, n={})",
        r.name, r.median_ns, r.min_ns, r.max_ns, r.samples
    );
    results.push(r);
}

/// Runs the whole rig, streaming a progress line per benchmark to stderr.
pub fn run_all(cfg: &MicroConfig) -> Result<Vec<BenchResult>, HarnessError> {
    let quarter = cfg.queue_vertices / 4;
    let percent = cfg.queue_vertices / 100;
    let mut results = Vec::new();
    report(&mut results, bench_queue_insert(cfg));
    report(&mut results, bench_insert_coalescing(cfg, true));
    report(&mut results, bench_insert_coalescing(cfg, false));
    report(&mut results, bench_weighted_row_sourced(cfg));
    report(&mut results, bench_insert_run(cfg));
    report(&mut results, bench_drain_bitmap(cfg, "queue_drain_bitmap_25pct", quarter));
    report(&mut results, bench_drain_bitmap(cfg, "queue_drain_bitmap_1pct", percent));
    for (name, workload) in [
        ("kernel_initial_compute_pagerank", Workload::PageRank),
        ("kernel_initial_compute_sssp", Workload::Sssp),
    ] {
        let sequential = |alg, g| StreamingEngine::new(alg, g, engine_config());
        report(&mut results, bench_initial_compute(cfg, name, workload, sequential)?);
    }
    let sharded2 = |alg, g| ShardedEngine::new(alg, g, engine_config(), 2);
    let name = "kernel_initial_compute_pagerank_sharded2";
    report(&mut results, bench_initial_compute(cfg, name, Workload::PageRank, sharded2)?);
    let sswp = sswp_churn_scenario();
    report(&mut results, bench_stream_churn(cfg, "kernel_stream_sswp_churn", &sswp)?);
    let cc = cc_churn_scenario();
    report(&mut results, bench_stream_churn(cfg, "kernel_stream_cc_churn", &cc)?);
    let sssp = sssp_churn_scenario();
    report(&mut results, bench_stream_churn(cfg, "kernel_stream_sssp_churn", &sssp)?);
    report(&mut results, bench_snapshot_maintain_incremental(cfg)?);
    report(&mut results, bench_graph_generate(cfg));
    report(&mut results, bench_csr_from_edges(cfg));
    report(&mut results, bench_admission_admit_message(cfg)?);
    Ok(results)
}

/// Serializes results to the `BENCH.json` schema (DESIGN.md §12): a flat
/// object of `name -> {median_ns, min_ns, max_ns, samples}` entries plus a
/// `_meta` record, one entry per line so [`parse_medians`] can read it
/// back without a JSON parser.
pub fn to_json(results: &[BenchResult], cfg: &MicroConfig, mode: &str) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"_meta\": {{\"mode\": \"{mode}\", \"warmup\": {}, \"samples\": {}, \
         \"scale\": {}, \"queue_vertices\": {}}},",
        cfg.warmup, cfg.samples, cfg.scale, cfg.queue_vertices
    );
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  \"{}\": {{\"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
             \"samples\": {}}}{comma}",
            r.name, r.median_ns, r.min_ns, r.max_ns, r.samples
        );
    }
    out.push_str("}\n");
    out
}

/// Reads `name -> median_ns` pairs back out of a `BENCH.json` produced by
/// [`to_json`] (one benchmark per line; `_meta` skipped). Lines that do
/// not look like benchmark entries are ignored, so hand-edits that keep
/// the one-entry-per-line shape still parse.
pub fn parse_medians(json: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix('"') else { continue };
        let Some((name, rest)) = rest.split_once('"') else { continue };
        if name == "_meta" {
            continue;
        }
        let Some(idx) = rest.find("\"median_ns\":") else { continue };
        let digits: String = rest[idx + "\"median_ns\":".len()..]
            .trim_start()
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if let Ok(median) = digits.parse() {
            out.push((name.to_string(), median));
        }
    }
    out
}

/// Per-benchmark ratchets: hard-won speedups whose gate is tighter than
/// the global `--factor`. A benchmark listed here is compared against
/// `min(factor, ratchet)` × its committed baseline, so re-running with a
/// loose global factor can never silently give the win back. Cold
/// evaluation is ratcheted because it is the purest reading of row
/// emission (DESIGN.md §12): PageRank's 19 queue inserts per processed
/// event go out as uniform rows, SSSP's as weighted rows, and on two
/// shards PageRank's rows are cut at the shard bound and exchanged as runs.
/// Admission is ratcheted because its hashed overlay is what the served
/// loop's engine thread saves per update (DESIGN.md §15.2). The sourced
/// weighted row and the run are ratcheted because they time the fold
/// compiled for `Min`/`AddWeight` and for a run, which no other entry
/// reads. Generation and `from_edges` are ratcheted because every set-up
/// and every store recovery builds its graph through them: a return to
/// edge-by-edge insertion or a global sort shows here first. Incremental
/// maintenance is ratcheted because the in-edge view shifts 4 bytes a
/// slot, not 12: a weight column back in it fails a full-mode check. The
/// SSWP churn stream is ratcheted because the DAP restore step is what
/// keeps its tie storm from re-deriving two thirds of the graph.
pub const RATCHETS: &[(&str, f64)] = &[
    ("queue_insert_weighted_row_sourced", 1.3),
    ("queue_insert_run", 1.3),
    ("kernel_initial_compute_pagerank", 1.3),
    ("kernel_initial_compute_sssp", 1.3),
    ("kernel_initial_compute_pagerank_sharded2", 1.3),
    ("kernel_stream_sswp_churn", 1.3),
    ("kernel_stream_cc_churn", 1.3),
    ("snapshot_maintain_incremental", 1.3),
    ("admission_admit_message", 1.3),
    ("graph_generate_livejournal", 1.3),
    ("csr_from_edges", 1.3),
];

/// Compares fresh results against a committed baseline: any benchmark
/// whose median exceeds `factor` × its baseline median is a regression
/// ([`RATCHETS`] entries use the tighter of `factor` and their ratchet).
/// Benchmarks missing on either side are reported too (a vanished
/// benchmark would otherwise silently stop being gated).
pub fn regressions(
    current: &[BenchResult],
    baseline: &[(String, u64)],
    factor: f64,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, base_median) in baseline {
        match current.iter().find(|r| r.name == name.as_str()) {
            None => problems.push(format!("benchmark {name} is in the baseline but did not run")),
            Some(r) => {
                let ratchet = RATCHETS
                    .iter()
                    .find(|(n, _)| *n == name.as_str())
                    .map_or(factor, |&(_, f)| f.min(factor));
                let limit = (*base_median as f64) * ratchet;
                if r.median_ns as f64 > limit {
                    problems.push(format!(
                        "{name} regressed: median {} ns > {ratchet}x baseline {} ns",
                        r.median_ns, base_median
                    ));
                }
            }
        }
    }
    for r in current {
        if !baseline.iter().any(|(name, _)| name == r.name) {
            problems.push(format!(
                "benchmark {} has no committed baseline (regenerate BENCH.json)",
                r.name
            ));
        }
    }
    problems
}

/// Same-run ordering constraints between benchmarks: each `(faster,
/// slower)` pair asserts that `faster`'s median is strictly below
/// `slower`'s in the same run. Both medians come from one process on one
/// machine, so machine-speed noise is correlated and largely cancels —
/// unlike the baseline-file comparison, these gates survive hardware
/// changes.
pub const CROSS_CHECKS: &[(&str, &str)] = &[
    // The same coalescing traffic a row at a time must beat an event at a
    // time, or the kernel's row emission has stopped paying for itself.
    ("queue_insert_row_coalescing", "queue_insert_event_coalescing"),
];

/// Evaluates [`CROSS_CHECKS`] against one run's results; returns one
/// problem line per violated or unevaluable constraint.
///
/// The comparison uses each benchmark's *minimum*, not its median: on a
/// contended single-core runner a preemption spike can inflate any
/// individual sample, and with quick-mode's 3 samples that flips median
/// ordering even when both sides ran in the same process. The minima
/// compare the two sides' uncontended capability within the run, which is
/// exactly what the ordering gate is about.
pub fn cross_regressions(current: &[BenchResult]) -> Vec<String> {
    let mut problems = Vec::new();
    for &(faster, slower) in CROSS_CHECKS {
        let f = current.iter().find(|r| r.name == faster);
        let s = current.iter().find(|r| r.name == slower);
        match (f, s) {
            (Some(f), Some(s)) => {
                if f.min_ns >= s.min_ns {
                    problems.push(format!(
                        "{faster} (min {} ns) is not faster than {slower} (min {} ns)",
                        f.min_ns, s.min_ns
                    ));
                }
            }
            _ => problems.push(format!("cross-check {faster} < {slower}: a benchmark did not run")),
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_checks_gate_same_run_ordering() {
        let ok = vec![
            BenchResult {
                name: "queue_insert_row_coalescing",
                median_ns: 3,
                min_ns: 3,
                max_ns: 3,
                samples: 1,
            },
            BenchResult {
                name: "queue_insert_event_coalescing",
                median_ns: 7,
                min_ns: 7,
                max_ns: 7,
                samples: 1,
            },
        ];
        assert!(cross_regressions(&ok).is_empty());

        // The row path losing to the per-event path trips its gate.
        let mut slow_rows = ok.clone();
        slow_rows[0].min_ns = 7;
        let problems = cross_regressions(&slow_rows);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("queue_insert_row_coalescing"));
        assert!(problems[0].contains("not faster"));

        let missing = vec![ok[0].clone()];
        assert_eq!(cross_regressions(&missing).len(), CROSS_CHECKS.len());
    }

    #[test]
    fn measure_orders_min_median_max() {
        let mut calls = 0u32;
        let r = measure("t", 1, 5, || (), |_| calls += 1);
        assert_eq!(calls, 6); // 1 warmup + 5 timed
        assert_eq!(r.samples, 5);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
    }

    #[test]
    fn json_roundtrips_medians() {
        let cfg = MicroConfig::quick();
        let results = vec![
            BenchResult { name: "a", median_ns: 10, min_ns: 9, max_ns: 12, samples: 3 },
            BenchResult { name: "b", median_ns: 7, min_ns: 7, max_ns: 7, samples: 3 },
        ];
        let json = to_json(&results, &cfg, "quick");
        let parsed = parse_medians(&json);
        assert_eq!(parsed, vec![("a".to_string(), 10), ("b".to_string(), 7)]);
        assert!(json.contains("\"_meta\""));
    }

    #[test]
    fn regression_gate_fires_and_passes() {
        let current =
            vec![BenchResult { name: "a", median_ns: 30, min_ns: 29, max_ns: 31, samples: 3 }];
        let fine = regressions(&current, &[("a".to_string(), 20)], 2.5);
        assert!(fine.is_empty(), "{fine:?}");
        let slow = regressions(&current, &[("a".to_string(), 10)], 2.5);
        assert_eq!(slow.len(), 1, "{slow:?}");
        let missing = regressions(&current, &[("gone".to_string(), 10)], 2.5);
        assert_eq!(missing.len(), 2, "{missing:?}"); // gone didn't run, a has no baseline
    }

    #[test]
    fn quick_rig_produces_every_benchmark() {
        let cfg = MicroConfig { warmup: 0, samples: 1, scale: 100_000, queue_vertices: 1 << 10 };
        let results = run_all(&cfg).expect("quick rig runs");
        let names: Vec<_> = results.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            [
                "queue_insert_25pct",
                "queue_insert_row_coalescing",
                "queue_insert_event_coalescing",
                "queue_insert_weighted_row_sourced",
                "queue_insert_run",
                "queue_drain_bitmap_25pct",
                "queue_drain_bitmap_1pct",
                "kernel_initial_compute_pagerank",
                "kernel_initial_compute_sssp",
                "kernel_initial_compute_pagerank_sharded2",
                "kernel_stream_sswp_churn",
                "kernel_stream_cc_churn",
                "kernel_stream_sssp_churn",
                "snapshot_maintain_incremental",
                "graph_generate_livejournal",
                "csr_from_edges",
                "admission_admit_message",
            ]
        );
    }

    #[test]
    fn the_sswp_churn_stream_holds_a_tie_storm_and_a_real_one() {
        let scenario = sswp_churn_scenario();
        let (base, batches) = harness::base_and_batches(&scenario);
        let n = base.num_vertices() as u64;
        let root = harness::root_for(&base);
        let mut engine =
            StreamingEngine::new(scenario.workload.instantiate(root), base, engine_config());
        engine.initial_compute();
        let stats: Vec<_> =
            batches.iter().map(|b| engine.apply_update_batch(b).expect("valid batch")).collect();
        let storms: Vec<_> = stats.iter().filter(|s| 2 * s.resets > n).collect();
        assert_eq!(storms.len(), 2, "{stats:?}");
        assert!(storms[0].restored * 10 > storms[0].resets * 9, "a tie storm: {:?}", storms[0]);
        assert!(storms[1].restored * 10 < storms[1].resets, "a real storm: {:?}", storms[1]);
    }

    #[test]
    fn the_cc_churn_stream_is_delete_waves_the_restore_hands_back() {
        let scenario = cc_churn_scenario();
        let (base, batches) = harness::base_and_batches(&scenario);
        let root = harness::root_for(&base);
        let mut engine =
            StreamingEngine::new(scenario.workload.instantiate(root), base, engine_config());
        engine.initial_compute();
        let mut total = jetstream_core::RunStats::default();
        for batch in &batches {
            let stats = engine.apply_update_batch(batch).expect("valid batch");
            total.delete_events += stats.delete_events;
            total.events_processed += stats.events_processed;
            total.resets += stats.resets;
            total.restored += stats.restored;
        }
        assert!(2 * total.delete_events > total.events_processed, "{total:?}");
        assert!(total.restored * 10 > total.resets * 9, "{total:?}");
    }

    #[test]
    fn the_sssp_churn_stream_is_mostly_request_broadcasts_unless_it_pulls() {
        use jetstream_core::DeleteStrategy;
        let scenario = sssp_churn_scenario();
        let (base, batches) = harness::base_and_batches(&scenario);
        let root = harness::root_for(&base);
        let totals = [DeleteStrategy::Dap, DeleteStrategy::DapRestore].map(|delete_strategy| {
            let config = EngineConfig { delete_strategy, ..engine_config() };
            let mut engine =
                StreamingEngine::new(scenario.workload.instantiate(root), base.clone(), config);
            engine.initial_compute();
            let mut total = jetstream_core::RunStats::default();
            for batch in &batches {
                total += engine.apply_update_batch(batch).expect("valid batch");
            }
            total
        });
        let [dap, restore] = totals;
        assert!(dap.request_events > 0, "{dap:?}");
        assert_eq!(restore.request_events, 0, "{restore:?}");
        assert!(restore.events_generated * 4 < dap.events_generated, "{dap:?} {restore:?}");
    }

    #[test]
    fn the_admission_messages_fill_exactly_one_batch() {
        assert_eq!(admission_policy(&MicroConfig::full()), FlushPolicy::default());
        let cfg = MicroConfig::quick();
        let (base, _) = harness::base_and_batches(&pagerank_scenario(&cfg));
        let policy = admission_policy(&cfg);
        let messages = admission_messages(&base, policy.max_updates);
        assert_eq!(messages.len(), policy.max_updates / MESSAGE_UPDATES);
        let mut admission = Admission::fresh(policy);
        let mut sealed = Vec::new();
        for message in &messages {
            sealed.extend(admission.admit(1, 0, message, &base, 0).expect("valid message").sealed);
        }
        assert_eq!(sealed.len(), 1, "only the last message seals, on size");
        assert_eq!(sealed[0].batch.len(), policy.max_updates);
    }

    #[test]
    fn the_coalescing_rows_coalesce_as_often_as_the_measured_traffic() {
        // pr_lj_seq's ledger reads core.coalesce_ratio 0.94; the two
        // coalescing rows must time that regime, not the empty-slot one.
        let cfg = MicroConfig::quick();
        let mut queue = CoalescingQueue::new(cfg.queue_vertices, 16);
        let rows = coalescing_rows(cfg.queue_vertices);
        assert!(rows.iter().all(|r| r.len() == ROW_LEN && r.windows(2).all(|w| w[0] < w[1])));
        for _ in 0..ROW_PASSES {
            for row in &rows {
                let carry = Carry::Regular { delta: 0.125, source: None };
                queue.insert_row(0, Row { targets: row, carry }, Reduce::Sum);
            }
        }
        let stats = queue.stats();
        assert!(
            stats.coalesced as f64 >= 0.9 * stats.inserts as f64,
            "{} of {} inserts coalesced",
            stats.coalesced,
            stats.inserts
        );
    }

    #[test]
    fn ratcheted_benchmarks_use_the_tighter_factor() {
        // 35 ns against a 20 ns baseline: inside the global 2.5x window,
        // outside the 1.3x ratchet.
        let current = vec![BenchResult {
            name: "kernel_initial_compute_pagerank",
            median_ns: 35,
            min_ns: 34,
            max_ns: 36,
            samples: 3,
        }];
        let baseline = vec![("kernel_initial_compute_pagerank".to_string(), 20)];
        let problems = regressions(&current, &baseline, 2.5);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("1.3x"), "{problems:?}");
        // Inside the ratchet: clean.
        let fine = vec![BenchResult { median_ns: 25, ..current[0].clone() }];
        assert!(regressions(&fine, &baseline, 2.5).is_empty());
        // A global factor tighter than the ratchet wins.
        let strict = regressions(&fine, &baseline, 1.1);
        assert_eq!(strict.len(), 1, "{strict:?}");
        assert!(strict[0].contains("1.1x"), "{strict:?}");
    }
}
