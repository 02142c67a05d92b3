//! `jetstream-benchmark`: four long-run workloads, open-loop serving and
//! a per-layer ledger for the streaming engine. `BENCHMARK.json` at the
//! repo root names this program; README.md beside this crate is the
//! glossary.
//!
//! ```text
//! run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--record]
//! trace ...            same as run --trace 1
//! calibrate [--sets K] [--seed N] [--seconds S]
//! repeat-check [--seed N] [--seconds S]
//! ladder [--seed N]
//! spec                 prints BENCHMARK.json from the metric table
//! ```
//!
//! `run --workload W` measures in this process and prints, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; without `--workload` every workload runs in a
//! fresh child process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod engines;
mod json;
mod ledger;
mod live;
mod measure;
mod noise;
mod offline;
mod openloop;
mod served;
mod spans;
mod spec;
mod stream;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::check::Tally;
use crate::json::Json;
use crate::live::{LivePlan, Target};
use crate::noise::Canary;
use crate::offline::{Outcome, Repeats};
use crate::spec::{MetricDef, Scenario, END_TO_END, PER_LAYER, RUN_SECONDS, SCENARIOS};

/// Parsed command line.
struct Options {
    workload: Option<&'static Scenario>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
    sets: usize,
}

fn parse_options(args: &[String], trace_default: bool) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: trace_default,
        record: false,
        sets: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            options.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                options.workload =
                    Some(spec::scenario(value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => options.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--sets" => options.sets = value.parse().map_err(|_| bad("a whole number"))?,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(options)
}

/// `benchmark/out`, where stores, span files and nothing else are written.
fn out_root() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest.join("out")
}

fn metric_table(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The result line: every metric of the mode's table, with its unit.
fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.tally.failed == 0,
        outcome.tally.attempted.max(1),
        outcome.tally.failed
    );
    for (i, def) in metric_table(trace).iter().enumerate() {
        let value = outcome.metrics.iter().find(|(name, _)| *name == def.name).map(|&(_, v)| v);
        let value = value.ok_or_else(|| format!("{} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("{} measured {value}", def.name));
        }
        let comma = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{comma}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    line.push_str("}}");
    Ok(line)
}

/// Runs one workload in this process.
fn run_here(scenario: &'static Scenario, options: &Options) -> Result<Outcome, String> {
    let dir = out_root().join(format!("run-{}-{}", scenario.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let outcome = if options.trace {
        let spans = out_root().join(format!("{}.spans.jsonl", scenario.name));
        ledger::run(scenario, options.seed, options.seconds, &dir, &spans)
    } else if scenario.path == spec::Path::Served {
        served::run(scenario, options.seed, options.seconds, &dir)
    } else {
        offline::run(scenario, options.seed, options.seconds)
    };
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// `run --workload W`: measure, describe on stderr, result line on stdout.
fn run_one(scenario: &'static Scenario, options: &Options) -> ExitCode {
    let outcome = match run_here(scenario, options) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: {e}", scenario.name);
            return ExitCode::FAILURE;
        }
    };
    for reason in &outcome.tally.reasons {
        eprintln!("{}: failed operation: {reason}", scenario.name);
    }
    match result_line(&outcome, options.trace) {
        Ok(line) => {
            println!("{line}");
            if outcome.tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", scenario.name);
            ExitCode::FAILURE
        }
    }
}

/// One child run's parsed result line: metric name to value.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs `scenario` in a fresh child process and parses its result line.
fn run_child(scenario: &Scenario, options: &Options) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["run", "--workload", scenario.name])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if options.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| {
        format!("{} printed no result (exit {:?})", scenario.name, output.status.code())
    })?;
    let doc = json::parse(line).map_err(|e| format!("{}: result line: {e}", scenario.name))?;
    let number = |key: &str| doc.get(key).and_then(Json::as_f64).map(|v| v as u64);
    let mut metrics = BTreeMap::new();
    for (name, entry) in doc.get("metrics").and_then(Json::as_object).into_iter().flatten() {
        if let Some(value) = entry.get("value").and_then(Json::as_f64) {
            metrics.insert(name.clone(), value);
        }
    }
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false)
            && output.status.success(),
        attempted: number("attempted").unwrap_or(0),
        failed: number("failed").unwrap_or(0),
        metrics,
    })
}

/// One set: every workload once, each in its own process.
fn run_set(options: &Options) -> Result<BTreeMap<&'static str, ChildResult>, String> {
    let mut set = BTreeMap::new();
    for scenario in &SCENARIOS {
        eprintln!(
            "== {} (seed {}, {} s, trace {})",
            scenario.name,
            options.seed,
            options.seconds,
            u8::from(options.trace)
        );
        set.insert(scenario.name, run_child(scenario, options)?);
    }
    Ok(set)
}

fn print_set(set: &BTreeMap<&'static str, ChildResult>, trace: bool) {
    for scenario in &SCENARIOS {
        let Some(result) = set.get(scenario.name) else { continue };
        println!(
            "{}: correct {}, {} operations attempted, {} failed",
            scenario.name, result.correct, result.attempted, result.failed
        );
        for def in metric_table(trace) {
            if let Some(value) = result.metrics.get(def.name) {
                println!("  {:<44} {value:>16.4} {}", def.name, def.unit);
            }
        }
    }
}

/// Appends `{commit, nproc, seed, seconds, medians}` to history.jsonl.
fn record_history(
    set: &BTreeMap<&'static str, ChildResult>,
    options: &Options,
) -> Result<(), String> {
    let commit = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || String::from("unknown"),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut line = format!(
        "{{\"commit\": \"{}\", \"nproc\": {nproc}, \"seed\": {}, \"seconds\": {}, \"medians\": {{",
        json::escape(&commit),
        options.seed,
        options.seconds
    );
    for (i, (name, result)) in set.iter().enumerate() {
        let comma = if i == 0 { "" } else { ", " };
        let _ = write!(line, "{comma}\"{name}\": {{");
        for (j, (metric, value)) in result.metrics.iter().enumerate() {
            let comma = if j == 0 { "" } else { ", " };
            let _ = write!(line, "{comma}\"{metric}\": {value}");
        }
        line.push('}');
    }
    line.push_str("}}\n");
    let path = out_root().with_file_name("history.jsonl");
    let mut history = std::fs::read_to_string(&path).unwrap_or_default();
    history.push_str(&line);
    std::fs::write(&path, history).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_all(options: &Options) -> Result<ExitCode, String> {
    let set = run_set(options)?;
    print_set(&set, options.trace);
    if options.record {
        record_history(&set, options)?;
    }
    let correct = set.values().all(|r| r.correct);
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `calibrate`: K sets on consecutive seeds, per-metric spread, and the
/// widen/demote rule applied to a proposed `BENCHMARK.json`. (ISSUE 11's
/// rule — twice the range, demote past 0.10 — would demote every timing
/// on this host; the interquartile spread is what acceptance measures.)
fn calibrate(options: &Options) -> Result<ExitCode, String> {
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut correct = true;
    for k in 0..options.sets {
        let set_options = Options { seed: options.seed + k as u64, trace: false, ..*options };
        for (workload, result) in run_set(&set_options)? {
            correct &= result.correct;
            for def in END_TO_END {
                if let Some(&value) = result.metrics.get(def.name) {
                    values.entry((def.name, workload)).or_default().push(value);
                }
            }
        }
    }
    println!(
        "{:<20} {:<18} {:>14} {:>10} {:>10}",
        "metric", "workload", "median", "range/med", "iqr/med"
    );
    let mut bounds = Vec::new();
    for def in END_TO_END {
        let (mut worst_range, mut worst_iqr) = (0.0f64, 0.0f64);
        for scenario in &SCENARIOS {
            let Some(v) = values.get(&(def.name, scenario.name)) else { continue };
            let range = measure::range_over_median(v).unwrap_or(0.0);
            let iqr = measure::iqr_over_median(v).unwrap_or(0.0);
            let med = measure::median(&mut v.clone()).unwrap_or(0.0);
            println!(
                "{:<20} {:<18} {med:>14.4} {range:>10.4} {iqr:>10.4}",
                def.name, scenario.name
            );
            worst_range = worst_range.max(range);
            worst_iqr = worst_iqr.max(iqr);
        }
        // At least three times the interquartile spread the acceptance
        // check looks at (so a run-to-run spread stays under a third of
        // the bound), never above the contract's 0.25. A metric whose
        // spread alone exceeds that cannot be gated at all and belongs on
        // the per-layer list under `diag.` instead.
        let bound = def.bound.max(3.0 * worst_iqr).min(0.25);
        let bound = (bound * 100.0).ceil() / 100.0;
        let verdict = if def.name != "setup_s" && worst_iqr > 0.25 {
            "DEMOTE: spread exceeds any allowed bound"
        } else if 3.0 * worst_iqr > 0.25 {
            "keep at the cap; spread is over a third of it"
        } else {
            "keep"
        };
        println!(
            "  -> {}: bound {} -> {bound} ({verdict}; worst range/median {worst_range:.3})",
            def.name, def.bound
        );
        bounds.push(bound);
    }
    println!("proposed BENCHMARK.json:\n{}", spec::render_benchmark_json(&bounds));
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `repeat-check`: two sets of the same code and seed must agree within
/// every end-to-end metric's own bound.
fn repeat_check(options: &Options) -> Result<ExitCode, String> {
    let options = Options { trace: false, ..*options };
    let (first, second) = (run_set(&options)?, run_set(&options)?);
    let mut agree = first.values().chain(second.values()).all(|r| r.correct);
    for scenario in &SCENARIOS {
        for def in END_TO_END {
            let pair = first
                .get(scenario.name)
                .and_then(|r| r.metrics.get(def.name))
                .zip(second.get(scenario.name).and_then(|r| r.metrics.get(def.name)));
            let Some((&a, &b)) = pair else {
                return Err(format!("{} {} missing from a set", scenario.name, def.name));
            };
            let differ = (a - b).abs() / a.abs().max(f64::MIN_POSITIVE);
            let ok = differ <= def.bound;
            agree &= ok;
            println!(
                "{:<18} {:<20} {a:>14.4} {b:>14.4}  differ {differ:.4}  bound {}  {}",
                scenario.name,
                def.name,
                def.bound,
                if ok { "ok" } else { "DISAGREE" }
            );
        }
    }
    Ok(if agree { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `ladder`: the served workload's open-loop latency at 10..80 % of its
/// closed-loop throughput, 5 s per rung; how `SERVE_RATE_MSGS_PER_S` was
/// fixed.
fn ladder(options: &Options) -> Result<ExitCode, String> {
    let scenario = spec::scenario("serve_durable_fb").ok_or("served scenario missing")?;
    let workload = *scenario.algorithms.first().ok_or("scenario without a query")?;
    let dir = out_root().join(format!("ladder-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut canary = Canary::ready();
    let (mut setup, mut initial) = (Repeats::default(), Repeats::default());
    let mut saturation = None;
    println!(
        "{:>5} {:>10} {:>10} {:>10} {:>10} {:>8} {:>12}",
        "rung", "msgs/s", "p50_ms", "p95_ms", "p99_ms", "backlog", "lag_p99_us"
    );
    for (i, percent) in [0u32, 10, 20, 40, 60, 80].into_iter().enumerate() {
        let rung_dir = dir.join(format!("rung-{i}"));
        let (mut inputs, served) = served::serve_once(
            scenario,
            options.seed,
            &rung_dir,
            &mut canary,
            &mut setup,
            &mut initial,
        )?;
        let rate = saturation.map(|s: f64| s * f64::from(percent) / 100.0);
        let plan = LivePlan {
            closed_messages: if rate.is_none() { 3000 } else { 300 },
            closed_limit_s: 8.0,
            open_s: if rate.is_none() { 0.5 } else { 5.0 },
            open_rate: Some(rate.unwrap_or(10.0)),
            query_rate: spec::QUERY_RATE_PER_S,
            message_updates: scenario.batch_updates,
        };
        let mut tally = Tally::default();
        let target = Target { workload, root: inputs.root, base: &inputs.base, seed: options.seed };
        let mut live = live::drive(served, &target, &mut inputs.stream, &plan, &mut tally)?;
        let Some(rate) = rate else {
            let msgs = live.closed_raw_updates_per_s / scenario.batch_updates as f64;
            println!(
                "closed loop: {:.0} updates/s = {msgs:.1} msgs/s (as measured)",
                live.closed_raw_updates_per_s
            );
            saturation = Some(msgs);
            continue;
        };
        let mut p = |q: f64| live.ingest_raw_ms.percentile("ladder", q).unwrap_or(0.0);
        let (p50, p95, p99) = (p(50.0), p(95.0), p(99.0));
        let lag = live.lag_us.percentile("ladder lag", 99.0).unwrap_or(0.0);
        println!(
            "{:>4}% {rate:>10.1} {p50:>10.3} {p95:>10.3} {p99:>10.3} {:>8} {lag:>12.1}  (failed {})",
            percent, live.backlog_end, tally.failed
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(ExitCode::SUCCESS)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: jetstream-benchmark run|trace [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--record]\n       jetstream-benchmark calibrate [--sets K] | repeat-check | ladder | spec\nworkloads: {}",
        SCENARIOS.map(|s| s.name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    let options = match parse_options(rest, command == "trace") {
        Ok(options) => options,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let result = match (command.as_str(), options.workload) {
        ("run" | "trace", Some(scenario)) => return run_one(scenario, &options),
        ("run" | "trace", None) => run_all(&options),
        ("calibrate", _) => calibrate(&options),
        ("repeat-check", _) => repeat_check(&options),
        ("ladder", _) => ladder(&options),
        ("spec", _) => {
            let bounds: Vec<f64> = END_TO_END.iter().map(|m| m.bound).collect();
            print!("{}", spec::render_benchmark_json(&bounds));
            Ok(ExitCode::SUCCESS)
        }
        _ => return usage(),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}
