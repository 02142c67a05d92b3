//! The end-to-end run of `serve_durable_fb`, tracing off: the closed-loop
//! and open-loop segments of [`live`](crate::live), sized for 40 % and
//! 60 % of the measured seconds, and server set-up and cold evaluation
//! repeated for their medians.

use std::path::Path as FsPath;

use jetstream_core::{EngineConfig, StreamingEngine};

use crate::check::Tally;
use crate::engines::{algorithm, Inputs};
use crate::live::{self, LivePlan, Served, Target};
use crate::noise::Canary;
use crate::offline::{Outcome, Repeats, REPEATS, TIME_LIMIT_FACTOR};
use crate::spec::{Scenario, QUERY_RATE_PER_S, SERVE_RATE_MSGS_PER_S};

/// Share of the measured seconds the closed loop is sized for; the open
/// loop takes the rest.
const CLOSED_SHARE: f64 = 0.4;

/// One server set-up with its cold evaluation, timed into `setup` and
/// `initial`.
pub fn serve_once(
    scenario: &Scenario,
    seed: u64,
    dir: &FsPath,
    canary: &mut Canary,
    setup: &mut Repeats,
    initial: &mut Repeats,
) -> Result<(Inputs, Served), String> {
    let workload = *scenario.algorithms.first().ok_or("scenario without a query")?;
    let ((inputs, mut engine), raw_before, scaled_before) = canary.bracket(|| {
        let inputs = Inputs::generate(scenario, seed);
        let engine = StreamingEngine::new(
            algorithm(workload, inputs.root),
            inputs.base.clone(),
            EngineConfig::default(),
        );
        (inputs, engine)
    });
    let (stats, raw, scaled) = canary.bracket(|| engine.initial_compute());
    std::hint::black_box(stats);
    initial.push(raw, scaled);
    let (served, raw_after, scaled_after) = canary.bracket(|| Served::start(engine, dir));
    setup.push(raw_before + raw_after, scaled_before + scaled_after);
    Ok((inputs, served?))
}

/// The whole untraced run of the served scenario. As in
/// [`offline::run`](crate::offline::run), the first set-up is the one
/// measured on and the timing-only repeats follow the measurement.
pub fn run(
    scenario: &Scenario,
    seed: u64,
    seconds: f64,
    out_dir: &FsPath,
) -> Result<Outcome, String> {
    let workload = *scenario.algorithms.first().ok_or("scenario without a query")?;
    let (mut setup, mut initial) = (Repeats::default(), Repeats::default());
    let mut canary = Canary::ready();
    let (mut inputs, served) =
        serve_once(scenario, seed, &out_dir.join("store"), &mut canary, &mut setup, &mut initial)?;
    let plan = LivePlan {
        closed_messages: (seconds * CLOSED_SHARE * scenario.nominal_per_s).ceil() as usize,
        closed_limit_s: seconds * CLOSED_SHARE * TIME_LIMIT_FACTOR,
        open_s: seconds * (1.0 - CLOSED_SHARE),
        open_rate: Some(SERVE_RATE_MSGS_PER_S),
        query_rate: QUERY_RATE_PER_S,
        message_updates: scenario.batch_updates,
    };
    let mut tally = Tally::default();
    let target = Target { workload, root: inputs.root, base: &inputs.base, seed };
    let mut live = live::drive(served, &target, &mut inputs.stream, &plan, &mut tally)?;
    drop(inputs);
    for repeat in 1..REPEATS {
        let dir = out_dir.join(format!("store-{repeat}"));
        serve_once(scenario, seed, &dir, &mut canary, &mut setup, &mut initial)?.1.discard();
    }
    eprintln!("{}: set-up {setup}; cold evaluation {initial}", scenario.name);
    let raw_p50 = live.ingest_raw_ms.percentile("raw ingest p50", 50.0).unwrap_or(0.0);
    let raw_p25 = live.ingest_raw_ms.percentile("raw ingest p25", 25.0).unwrap_or(0.0);
    let scaled_p50 = live.ingest_ms.percentile("scaled ingest p50", 50.0).unwrap_or(0.0);
    let lag_p99 = live.lag_us.percentile("generator lag p99", 99.0).unwrap_or(0.0);
    eprintln!(
        "{}: closed loop {} messages, raw {:.0} updates/s; open loop {} messages at {SERVE_RATE_MSGS_PER_S}/s, ingest raw p25 {raw_p25:.3} p50 {raw_p50:.3} ms, scaled p50 {scaled_p50:.3} ms, generator lag p99 {lag_p99:.0} us, backlog at end {}, {} queries, {} checkpoints, {} Busy",
        scenario.name,
        live.closed_messages,
        live.closed_raw_updates_per_s,
        live.open_messages,
        live.backlog_end,
        live.query_us.len(),
        live.stats.checkpoints,
        live.stats.busy_rejections,
    );
    // The lower quartile stands in for the median: see README.md, "Served
    // latency".
    let p50 = live.ingest_ms.percentile("batch_p50_ms", 25.0).ok_or("no message converged")?;
    Ok(Outcome {
        tally,
        metrics: vec![
            ("setup_s", setup.median()?),
            ("initial_compute_s", initial.median()?),
            ("batch_p50_ms", p50),
            ("updates_per_s", live.closed_updates_per_s),
            ("peak_rss_mb", live.peak_rss_mib.ok_or("cannot read VmHWM from /proc/self/status")?),
        ],
    })
}
