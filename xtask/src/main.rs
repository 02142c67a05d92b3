//! `cargo xtask` — repository task runner.
//!
//! ```text
//! cargo xtask check              # jetlint the workspace, non-zero on findings
//! cargo xtask check --root DIR   # lint another tree (used by fixtures)
//! cargo xtask check --json       # machine-readable findings on stdout
//! cargo xtask check --sanitize   # lints + schedule/race sanitizers
//! cargo xtask check --self-test  # verify each lint against its fixtures
//! cargo xtask explain <LINT>     # what a lint means and how to satisfy it
//!                                # (also the MUTATION-WAIVER topic)
//! cargo xtask self-test          # same as `check --self-test`
//! cargo xtask bench [--iters N]  # time the lint engine and jetmut site discovery
//! cargo xtask mutate --list      # discover jetmut mutation sites
//! cargo xtask mutate [--check] [--all] [--shard i/N] [--out FILE]
//!                                # run the kill suite over the pinned
//!                                # corpus (--check gates CI)
//! ```

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use xtask::mutate::runner::{run_mutate, MutateOpts};
use xtask::mutate::sites::discover_workspace;
use xtask::{findings_to_json, run_check, run_self_test, Lint};

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is xtask/; the workspace root is its parent.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(PathBuf::from).unwrap_or(manifest)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask check [--root DIR] [--json] [--self-test] [--sanitize]\n       \
         cargo xtask explain <LINT|MUTATION-WAIVER>\n       \
         cargo xtask self-test\n       \
         cargo xtask bench [--iters N]\n       \
         cargo xtask mutate [--list] [--all] [--check] [--shard i/N] [--out FILE] [--root DIR]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut words = args.iter();
    match words.next().map(String::as_str) {
        Some("check") => {}
        Some("self-test") => return self_test(),
        Some("explain") => {
            return match words.next() {
                Some(id) => explain(id),
                None => {
                    eprintln!("explain needs a lint id; one of:");
                    for lint in Lint::ALL {
                        eprintln!("  {}", lint.id());
                    }
                    ExitCode::from(2)
                }
            };
        }
        Some("bench") => {
            let mut iters = 5usize;
            while let Some(arg) = words.next() {
                match arg.as_str() {
                    "--iters" => match words.next().and_then(|n| n.parse().ok()) {
                        Some(n) if n > 0 => iters = n,
                        _ => {
                            eprintln!("--iters needs a positive integer");
                            return ExitCode::from(2);
                        }
                    },
                    _ => return usage(),
                }
            }
            return bench(iters);
        }
        Some("mutate") => return mutate(words),
        _ => return usage(),
    }

    let mut root = workspace_root();
    let mut want_self_test = false;
    let mut want_sanitize = false;
    let mut want_json = false;
    while let Some(arg) = words.next() {
        match arg.as_str() {
            "--root" => match words.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--self-test" => want_self_test = true,
            "--sanitize" => want_sanitize = true,
            "--json" => want_json = true,
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    if want_self_test {
        return self_test();
    }

    let lint_status = match run_check(&root) {
        Ok(findings) => {
            if want_json {
                print!("{}", findings_to_json(&findings));
            } else if findings.is_empty() {
                println!("xtask check: clean");
            } else {
                for f in &findings {
                    println!("{f}");
                }
                println!("xtask check: {} finding(s)", findings.len());
            }
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask check failed to run: {e}");
            ExitCode::FAILURE
        }
    };
    if lint_status != ExitCode::SUCCESS || !want_sanitize {
        return lint_status;
    }
    sanitize()
}

/// Long-form explanation of the `// mutation-ok:` waiver for
/// `cargo xtask explain MUTATION-WAIVER`.
const MUTATION_WAIVER_EXPLAIN: &str =
    "MUTATION-WAIVER: `// mutation-ok: <reason>` waives a surviving jetmut mutant.\n\n\
     `cargo xtask mutate` injects small source edits (boundary flips, operator swaps, \
     off-by-ones — see DESIGN.md §18) and expects the kill suite to fail on each. A mutant \
     that survives marks a coverage hole; the triage contract for `crates/core` is that \
     every survivor either gets a new killing test or a `// mutation-ok: <reason>` waiver \
     on the mutated line (or the line above) stating why the mutation is unobservable \
     (e.g. a pure performance heuristic where both operand orders converge to the same \
     fixed point).\n\n\
     The waiver is policed like every other pragma: `pragma-justified` rejects an empty \
     reason, and `dead-waiver` fires when the comment no longer covers any discovered \
     mutation site — a waived line that was since rewritten cannot silently keep excusing \
     new code. `cargo xtask mutate --check` fails CI on any un-waived survivor in \
     `crates/core`, on a mutation score below 90%, and whenever the seeded known-killable \
     mutant (the `!`-marked corpus entry) is not killed, so the harness itself can never \
     go vacuous.";

fn explain(id: &str) -> ExitCode {
    if id == "MUTATION-WAIVER" {
        println!("{MUTATION_WAIVER_EXPLAIN}");
        return ExitCode::SUCCESS;
    }
    match Lint::from_id(id) {
        Some(lint) => {
            println!("{}", lint.explain());
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("unknown lint {id:?}; one of:");
            for lint in Lint::ALL {
                eprintln!("  {}", lint.id());
            }
            eprintln!("  MUTATION-WAIVER");
            ExitCode::from(2)
        }
    }
}

/// Parses `mutate` flags and runs the jetmut pipeline.
fn mutate(mut words: std::slice::Iter<'_, String>) -> ExitCode {
    let mut root = workspace_root();
    let mut opts = MutateOpts::default();
    while let Some(arg) = words.next() {
        match arg.as_str() {
            "--list" => opts.list = true,
            "--all" => opts.all = true,
            "--check" => opts.check = true,
            "--shard" => {
                let parsed = words.next().and_then(|s| {
                    let (i, n) = s.split_once('/')?;
                    Some((i.parse::<usize>().ok()?, n.parse::<usize>().ok()?))
                });
                match parsed {
                    Some((i, n)) if i >= 1 && i <= n => opts.shard = Some((i, n)),
                    _ => {
                        eprintln!("--shard needs i/N with 1 <= i <= N");
                        return ExitCode::from(2);
                    }
                }
            }
            "--out" => match words.next() {
                Some(path) => opts.out = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::from(2);
                }
            },
            "--root" => match words.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root needs a directory");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    match run_mutate(&root, &opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask mutate failed to run: {e}");
            ExitCode::FAILURE
        }
    }
}

fn self_test() -> ExitCode {
    let fixtures = workspace_root().join("xtask").join("fixtures");
    match run_self_test(&fixtures) {
        Ok(results) => {
            let mut failed = 0;
            for r in &results {
                match &r.outcome {
                    Ok(()) => println!("fixture {}: ok", r.name),
                    Err(why) => {
                        failed += 1;
                        println!("fixture {}: FAILED — {why}", r.name);
                    }
                }
            }
            println!("{} fixtures, {failed} failed", results.len());
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("self-test failed to run: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the dynamic sanitizers: the `ScheduleFuzzer` differential sweep
/// plus the vector-clock race checker over the sharded engine's recorded
/// sync traces, and the seeded-ordering-bug detection self-test
/// (DESIGN.md §13/§14). All live in the `schedule-sanitizer` binary in
/// `crates/testkit`.
fn sanitize() -> ExitCode {
    println!("xtask check: running schedule + race sanitizers…");
    let status = Command::new(env!("CARGO"))
        .args(["run", "--release", "-q", "-p", "jetstream-testkit", "--bin", "schedule-sanitizer"])
        .current_dir(workspace_root())
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(s) => {
            eprintln!("sanitizer failed: {s}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("sanitizer failed to launch: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Times the lint engine and jetmut site discovery over the real
/// workspace (median of `iters` runs after one warmup each).
fn bench(iters: usize) -> ExitCode {
    let root = workspace_root();
    let time = |f: &dyn Fn() -> bool| -> Option<f64> {
        if !f() {
            return None;
        }
        let mut samples: Vec<f64> = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t0 = Instant::now();
            if !f() {
                return None;
            }
            samples.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        Some(samples[samples.len() / 2])
    };
    let jetlint = time(&|| run_check(&root).is_ok());
    let site_count = std::cell::Cell::new(0usize);
    let jetmut = time(&|| match discover_workspace(&root) {
        Ok(sites) => {
            site_count.set(sites.len());
            true
        }
        Err(_) => false,
    });
    match (jetlint, jetmut) {
        (Some(lint_ms), Some(mut_ms)) => {
            println!("xtask bench ({iters} iters, median, full workspace):");
            println!("  jetlint (tokens + call graph, {} lints): {lint_ms:.1} ms", Lint::ALL.len());
            println!("  jetmut site discovery ({} sites):       {mut_ms:.1} ms", site_count.get());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("xtask bench: a check run failed");
            ExitCode::FAILURE
        }
    }
}
