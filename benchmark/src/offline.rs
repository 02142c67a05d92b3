//! The end-to-end run of the three in-process workloads, tracing off:
//! set-up and cold evaluation repeated for their medians, then a fixed
//! number of batches applied back to back, then the output checks. Every
//! timed interval is scaled to the reference host (see
//! [`noise`](crate::noise)).

use std::time::{Duration, Instant};

use jetstream_graph::{AdjacencyGraph, UpdateBatch, VertexId};

use crate::check::{against_oracle, graph_agrees, replay_graph, Tally};
use crate::engines::{EngineSet, Inputs};
use crate::measure::{median, peak_rss_mib, Samples};
use crate::noise::{scale, Canary};
use crate::spec::Scenario;

/// Set-up and cold evaluation are each the median of this many repeats.
pub const REPEATS: usize = 7;

/// A run applies a fixed number of batches (`nominal_per_s` of the
/// scenario times the measured seconds), so memory and work do not depend
/// on the host's speed; it gives up once this multiple of the measured
/// seconds has passed.
pub const TIME_LIMIT_FACTOR: f64 = 1.5;

/// What one run hands back: metric values by name, and the tally.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Attempted / failed operations.
    pub tally: Tally,
    /// `(metric name, value)`; units come from the spec table.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Everything a set-up produces.
pub struct Built {
    /// Seeded inputs; the stream stands after the pre-generated batches.
    pub inputs: Inputs,
    /// The pre-generated batches.
    pub batches: Vec<UpdateBatch>,
    /// One converged engine per standing query.
    pub engines: EngineSet,
}

/// One set-up plus cold evaluation, timed into `setup` and `initial`.
pub fn build_once(
    scenario: &Scenario,
    seed: u64,
    num_batches: usize,
    canary: &mut Canary,
    setup: &mut Repeats,
    initial: &mut Repeats,
) -> Built {
    let ((inputs, batches, mut engines), raw, scaled) = canary.bracket(|| {
        let mut inputs = Inputs::generate(scenario, seed);
        let batches = inputs.take_batches(scenario, num_batches);
        let engines = EngineSet::cold(scenario, &inputs.base, inputs.root);
        (inputs, batches, engines)
    });
    setup.push(raw, scaled);
    let (stats, raw, scaled) = canary.bracket(|| engines.initial_compute());
    std::hint::black_box(stats);
    initial.push(raw, scaled);
    Built { inputs, batches, engines }
}

/// Raw and reference-host seconds of a repeated step.
#[derive(Debug, Default)]
pub struct Repeats {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Repeats {
    /// Records one repeat.
    pub fn push(&mut self, raw_s: f64, scaled_s: f64) {
        self.raw.push(raw_s);
        self.scaled.push(scaled_s);
    }

    /// Median of the scaled repeats.
    pub fn median(&self) -> Result<f64, String> {
        median(&mut self.scaled.clone()).ok_or_else(|| String::from("a repeated step never ran"))
    }
}

impl std::fmt::Display for Repeats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "raw {:.3?} s, scaled {:.3?} s", self.raw, self.scaled)
    }
}

/// Per-batch samples of one timed pass.
#[derive(Debug, Default)]
pub struct Timed {
    /// Milliseconds from the call to convergence of every query, per batch.
    pub batch_ms: Vec<f64>,
    /// Updates in each applied batch.
    pub updates: Vec<usize>,
    /// Canary readings: one before each batch and one after the last;
    /// empty when the pass ran without a canary.
    pub canaries_us: Vec<f64>,
}

/// Median, p95 and throughput of one pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub samples: usize,
    /// Median batch time, ms.
    pub p50_ms: f64,
    /// 95th-percentile batch time, ms.
    pub p95_ms: f64,
    /// Updates applied per second of batch time.
    pub updates_per_s: f64,
}

impl Timed {
    /// Batches applied.
    pub fn applied(&self) -> usize {
        self.batch_ms.len()
    }

    fn summarise(&self, what: &str, factor: impl Fn(usize) -> f64) -> Option<Summary> {
        let mut picked = Samples::default();
        let mut total_ms = 0.0f64;
        for (i, &ms) in self.batch_ms.iter().enumerate() {
            picked.push(ms * factor(i));
            total_ms += ms * factor(i);
        }
        Some(Summary {
            samples: picked.len(),
            p50_ms: picked.percentile(what, 50.0)?,
            p95_ms: picked.percentile(what, 95.0)?,
            updates_per_s: self.updates.iter().sum::<usize>() as f64 / (total_ms / 1e3),
        })
    }

    /// Summary of the samples as measured.
    pub fn raw(&self, what: &str) -> Option<Summary> {
        self.summarise(what, |_| 1.0)
    }

    /// Summary of the samples, each scaled to the reference host by the
    /// canary readings on either side of it.
    pub fn scaled(&self, what: &str) -> Option<Summary> {
        self.summarise(what, |i| scale(self.canaries_us.get(i..i + 2).unwrap_or_default()))
    }
}

/// Applies `batches` back to back, one sample per batch, stopping early
/// only if `limit` runs out. With a canary, every batch has a probe on
/// either side of it.
pub fn timed_batches(
    engines: &mut EngineSet,
    batches: &[UpdateBatch],
    limit: Duration,
    mut canary: Option<&mut Canary>,
    tally: &mut Tally,
) -> Timed {
    let mut timed = Timed::default();
    let start = Instant::now();
    for batch in batches {
        if start.elapsed() >= limit {
            eprintln!(
                "note: time limit {limit:?} reached after {} of {} batches",
                timed.applied(),
                batches.len()
            );
            break;
        }
        if let Some(canary) = canary.as_deref_mut() {
            timed.canaries_us.push(canary.probe_us());
        }
        let t = Instant::now();
        let result = engines.apply(batch);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(stats) => {
                std::hint::black_box(stats);
                tally.ok(1);
                timed.batch_ms.push(ms);
                timed.updates.push(batch.len());
            }
            Err(e) => {
                tally.fail(format!("batch {} refused: {e}", timed.applied()));
                break;
            }
        }
    }
    if let Some(canary) = canary {
        timed.canaries_us.push(canary.probe_us());
    }
    timed
}

/// Checks every engine of `engines` against the offline replay of
/// `applied` over `base` and the sequential oracle on it. Returns the
/// oracles' total wall time in milliseconds.
pub fn check_engines(
    base: &AdjacencyGraph,
    root: VertexId,
    applied: &[UpdateBatch],
    engines: &EngineSet,
    tally: &mut Tally,
) -> f64 {
    let replay = match replay_graph(base, applied) {
        Ok(graph) => graph,
        Err(e) => {
            tally.fail(e);
            return 0.0;
        }
    };
    let mut oracle_ms = 0.0;
    for (workload, engine) in &engines.members {
        tally.record(graph_agrees(engine.graph(), engine.csr(), &replay));
        let (verdict, ms) = against_oracle(*workload, engine.values(), engine.csr(), root);
        tally.record(verdict);
        oracle_ms += ms;
    }
    oracle_ms
}

/// The whole untraced run of an in-process scenario. The first set-up is
/// the one measured on; the other [`REPEATS`]` - 1`, wanted only for
/// their times, run after the peak resident set has been read, so that
/// figure is of one copy of the system and not of what repeats leave in
/// the allocator.
pub fn run(scenario: &Scenario, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let num_batches = (seconds * scenario.nominal_per_s).ceil() as usize;
    let mut canary = Canary::ready();
    let (mut setup, mut initial) = (Repeats::default(), Repeats::default());
    let mut built = build_once(scenario, seed, num_batches, &mut canary, &mut setup, &mut initial);
    let mut tally = Tally::default();
    let limit = Duration::from_secs_f64(seconds * TIME_LIMIT_FACTOR);
    let timed =
        timed_batches(&mut built.engines, &built.batches, limit, Some(&mut canary), &mut tally);
    // Before the checks: their replay graph and oracle vectors are the
    // harness's memory, not the system's.
    let peak_rss = peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
    let applied = built.batches.get(..timed.applied()).unwrap_or(&built.batches);
    check_engines(&built.inputs.base, built.inputs.root, applied, &built.engines, &mut tally);
    drop(built);
    for _ in 1..REPEATS {
        drop(build_once(scenario, seed, num_batches, &mut canary, &mut setup, &mut initial));
    }
    eprintln!("{}: set-up {setup}; cold evaluation {initial}", scenario.name);
    let raw = timed.raw("raw batch times").ok_or("no batch was applied")?;
    let scaled = timed.scaled("scaled batch times").ok_or("no batch was applied")?;
    let mut canaries = timed.canaries_us.clone();
    eprintln!(
        "{}: {} batches, canary median {:.0} us; raw p50 {:.3} ms, p95 {:.3} ms, {:.0} updates/s; scaled p50 {:.3} ms, p95 {:.3} ms, {:.0} updates/s",
        scenario.name,
        raw.samples,
        median(&mut canaries).unwrap_or(0.0),
        raw.p50_ms,
        raw.p95_ms,
        raw.updates_per_s,
        scaled.p50_ms,
        scaled.p95_ms,
        scaled.updates_per_s,
    );
    Ok(Outcome {
        tally,
        metrics: vec![
            ("setup_s", setup.median()?),
            ("initial_compute_s", initial.median()?),
            ("batch_p50_ms", scaled.p50_ms),
            ("updates_per_s", scaled.updates_per_s),
            ("peak_rss_mb", peak_rss),
        ],
    })
}
