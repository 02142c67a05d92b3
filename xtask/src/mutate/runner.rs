//! The jetmut runner: builds each mutant, drives the curated kill suite
//! against it, and classifies the outcome (DESIGN.md §18).
//!
//! The kill suite is the checked-in `xtask/kill_suite.toml` manifest —
//! an ordered list of test targets (cheapest first, so most kills cost
//! one library-test run) with the measured median runtime of each.
//! Before any mutant runs, the runner replays the whole suite against
//! the pristine tree: every entry must pass and finish under its budget
//! (10× median + 2 s), which is the manifest's liveness self-test, and
//! the measured times seed the per-suite timeouts (4× the slower of
//! measured/median + 3 s) used to classify runaway mutants as `timeout`.
//!
//! Classification per mutant: patch → `cargo test --no-run` (build
//! failure ⇒ `unviable`, the discovery over-approximation the compiler
//! filters out) → suites in manifest order (first failing suite ⇒
//! `killed`, exceeded timeout ⇒ `timeout`, all green ⇒ `survived`).
//!
//! `--check` gates the pinned corpus (`xtask/mutation_corpus.txt`):
//! the seeded known-killable mutant must die (vacuity self-test — a
//! kill suite that stops killing anything fails CI), every survivor in
//! `crates/core` must carry a `// mutation-ok:` waiver, and ≥90% of
//! viable unwaived mutants must be detected (killed + timeout).

use std::collections::BTreeSet;
use std::fs;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use super::patch::PatchGuard;
use super::report;
use super::sites::{self, MutationSite};

/// Wall-clock ceiling for one mutant build; a compile that runs this
/// long is pathological and classified `timeout`.
const BUILD_TIMEOUT_MS: u64 = 600_000;

/// One entry of `xtask/kill_suite.toml`.
pub struct Suite {
    /// Display name (also `killed_by` in MUTATION.json).
    pub name: String,
    /// Cargo package the target lives in.
    pub package: String,
    /// `lib` for the package's unit tests, else an integration-test
    /// target name (`tests/<target>.rs`).
    pub target: String,
    /// Optional test-name filter passed to the harness.
    pub filter: String,
    /// Committed median runtime of a green run, in milliseconds.
    pub median_ms: u64,
}

impl Suite {
    /// The manifest budget: a green baseline run slower than this fails
    /// the self-test (the committed median has rotted).
    pub fn budget_ms(&self) -> u64 {
        self.median_ms * 10 + 2000
    }
}

/// How one mutant fared against the kill suite.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// A suite failed: the tests see the injected bug.
    Killed,
    /// Every suite passed: a coverage hole (or an equivalent mutant).
    Survived,
    /// A suite (or the build) exceeded its timeout.
    Timeout,
    /// The mutant does not compile; excluded from the score.
    Unviable,
}

impl Status {
    /// Stable lowercase name used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Killed => "killed",
            Status::Survived => "survived",
            Status::Timeout => "timeout",
            Status::Unviable => "unviable",
        }
    }
}

/// One classified mutant.
pub struct MutantResult {
    /// The mutated site.
    pub site: MutationSite,
    /// Outcome.
    pub status: Status,
    /// Suite that killed/timed out the mutant (`build` for compile
    /// timeouts), when applicable.
    pub killed_by: Option<String>,
    /// Marked as the seeded known-killable mutant in the corpus.
    pub seeded: bool,
}

/// Options for `cargo xtask mutate`.
#[derive(Default)]
pub struct MutateOpts {
    /// Print discovered sites and exit without building anything.
    pub list: bool,
    /// Run every discovered site instead of the pinned corpus.
    pub all: bool,
    /// Enforce the corpus gates (CI mode).
    pub check: bool,
    /// `(index, count)`, 1-based: run only sites where
    /// `position % count == index - 1`.
    pub shard: Option<(usize, usize)>,
    /// Where to write MUTATION.json (default: `<root>/MUTATION.json`).
    pub out: Option<PathBuf>,
}

/// Entry point for `cargo xtask mutate`. Returns `Ok(true)` when the run
/// (and, under `--check`, every gate) passed.
///
/// # Errors
///
/// Returns a description of the first infrastructure failure: discovery
/// I/O, a stale corpus id, a kill-suite baseline failure, or a patch
/// that no longer matches the tree.
pub fn run_mutate(root: &Path, opts: &MutateOpts) -> Result<bool, String> {
    let all_sites = sites::discover_workspace(root).map_err(|e| format!("discovery: {e}"))?;
    if opts.list {
        return Ok(list_sites(&all_sites));
    }

    let selected: Vec<(MutationSite, bool)> = if opts.all {
        all_sites.into_iter().map(|s| (s, false)).collect()
    } else {
        select_corpus(root, all_sites)?
    };
    let selected: Vec<(MutationSite, bool)> = match opts.shard {
        None => selected,
        Some((index, count)) => selected
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % count == index - 1)
            .map(|(_, s)| s)
            .collect(),
    };
    if selected.is_empty() {
        return Err("no mutants selected (empty corpus or shard)".into());
    }

    let suites = load_kill_suite(&root.join("xtask").join("kill_suite.toml"))?;
    let timeouts = baseline(root, &suites)?;

    let mut results: Vec<MutantResult> = Vec::with_capacity(selected.len());
    let total = selected.len();
    let t0 = Instant::now();
    for (i, (site, seeded)) in selected.into_iter().enumerate() {
        let tm = Instant::now();
        let (status, killed_by) = classify(root, &site, &suites, &timeouts)?;
        println!(
            "[{}/{}] {} {} {}:{} {} … {}{} ({:.1}s)",
            i + 1,
            total,
            site.id,
            site.op,
            site.file.display(),
            site.line,
            site.edit(),
            status.as_str(),
            killed_by.as_deref().map(|s| format!(" by {s}")).unwrap_or_default(),
            tm.elapsed().as_secs_f64(),
        );
        results.push(MutantResult { site, status, killed_by, seeded });
    }
    println!("mutation run: {} mutants in {:.1}s", total, t0.elapsed().as_secs_f64());

    let json = report::mutation_json(&results, opts.shard);
    let out = opts.out.clone().unwrap_or_else(|| root.join("MUTATION.json"));
    fs::write(&out, json).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("report: {}", out.display());

    report::print_summary(&results);
    if opts.check {
        check_gates(&results)
    } else {
        Ok(true)
    }
}

fn list_sites(sites: &[MutationSite]) -> bool {
    for s in sites {
        let waived = if s.waived.is_some() { "  [mutation-ok]" } else { "" };
        println!("{} {} {}:{} {}{}", s.id, s.op, s.file.display(), s.line, s.edit(), waived);
    }
    let mut by_op: Vec<(&str, usize)> = Vec::new();
    for s in sites {
        match by_op.iter_mut().find(|(op, _)| *op == s.op) {
            Some((_, n)) => *n += 1,
            None => by_op.push((s.op, 1)),
        }
    }
    println!("{} mutation sites:", sites.len());
    for (op, n) in by_op {
        println!("  {op:<22} {n}");
    }
    true
}

/// Loads `xtask/mutation_corpus.txt` and resolves each id against the
/// discovered sites. A `!` prefix marks the seeded known-killable mutant.
fn select_corpus(
    root: &Path,
    all_sites: Vec<MutationSite>,
) -> Result<Vec<(MutationSite, bool)>, String> {
    let path = root.join("xtask").join("mutation_corpus.txt");
    let text = fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut by_id: std::collections::BTreeMap<String, MutationSite> =
        all_sites.into_iter().map(|s| (s.id.clone(), s)).collect();
    let mut selected = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let word = line.split_whitespace().next().unwrap_or_default();
        let (seeded, id) = match word.strip_prefix('!') {
            Some(rest) => (true, rest),
            None => (false, word),
        };
        if !seen.insert(id.to_string()) {
            return Err(format!("{}:{}: duplicate corpus id {id}", path.display(), lineno + 1));
        }
        let Some(site) = by_id.remove(id) else {
            return Err(format!(
                "{}:{}: corpus id {id} matches no discovered mutation site — the mutated \
                 code changed; re-pin with `cargo xtask mutate --list`",
                path.display(),
                lineno + 1
            ));
        };
        selected.push((site, seeded));
    }
    if !selected.iter().any(|(_, seeded)| *seeded) {
        return Err(format!(
            "{}: no seeded mutant (`!` prefix) — the harness-vacuity self-test needs one \
             known-killable mutant",
            path.display()
        ));
    }
    Ok(selected)
}

/// Parses the `[[suite]]` entries of `kill_suite.toml` (a hand-rolled
/// subset parser: the build is offline and std-only).
pub fn load_kill_suite(path: &Path) -> Result<Vec<Suite>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut suites: Vec<Suite> = Vec::new();
    let mut current: Option<Suite> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or_default().trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: &str| format!("{}:{}: {msg}", path.display(), lineno + 1);
        if line == "[[suite]]" {
            if let Some(s) = current.take() {
                suites.push(validate_suite(s, path)?);
            }
            current = Some(Suite {
                name: String::new(),
                package: String::new(),
                target: String::new(),
                filter: String::new(),
                median_ms: 0,
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(at("expected `key = value`"));
        };
        let Some(s) = current.as_mut() else {
            return Err(at("key outside a [[suite]] block"));
        };
        let key = key.trim();
        let value = value.trim();
        let unquote = |v: &str| -> Result<String, String> {
            v.strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .map(str::to_string)
                .ok_or_else(|| at("expected a quoted string"))
        };
        match key {
            "name" => s.name = unquote(value)?,
            "package" => s.package = unquote(value)?,
            "target" => s.target = unquote(value)?,
            "filter" => s.filter = unquote(value)?,
            "median_ms" => {
                s.median_ms = value.parse().map_err(|_| at("median_ms must be an integer"))?;
            }
            other => return Err(at(&format!("unknown key {other:?}"))),
        }
    }
    if let Some(s) = current.take() {
        suites.push(validate_suite(s, path)?);
    }
    if suites.is_empty() {
        return Err(format!("{}: no [[suite]] entries", path.display()));
    }
    Ok(suites)
}

fn validate_suite(s: Suite, path: &Path) -> Result<Suite, String> {
    for (field, value) in [("name", &s.name), ("package", &s.package), ("target", &s.target)] {
        if value.is_empty() {
            return Err(format!("{}: suite is missing `{field}`", path.display()));
        }
    }
    if s.median_ms == 0 {
        return Err(format!("{}: suite {} is missing `median_ms`", path.display(), s.name));
    }
    Ok(s)
}

fn cargo_bin() -> PathBuf {
    std::env::var_os("CARGO").map(PathBuf::from).unwrap_or_else(|| PathBuf::from("cargo"))
}

fn build_cmd(root: &Path, suites: &[Suite]) -> Command {
    let mut cmd = Command::new(cargo_bin());
    cmd.current_dir(root).env("CARGO_TERM_COLOR", "never");
    cmd.args(["test", "--no-run", "-q"]);
    let packages: BTreeSet<&str> = suites.iter().map(|s| s.package.as_str()).collect();
    for p in packages {
        cmd.args(["-p", p]);
    }
    cmd
}

fn suite_cmd(root: &Path, suite: &Suite) -> Command {
    let mut cmd = Command::new(cargo_bin());
    cmd.current_dir(root).env("CARGO_TERM_COLOR", "never");
    cmd.args(["test", "-q", "-p", &suite.package]);
    if suite.target == "lib" {
        cmd.arg("--lib");
    } else {
        cmd.args(["--test", &suite.target]);
    }
    if !suite.filter.is_empty() {
        cmd.arg(&suite.filter);
    }
    cmd
}

/// Runs `cmd` with stdio discarded; `Ok(Some(success))` on exit,
/// `Ok(None)` on timeout.
///
/// The command runs in its own process group, and a timeout kills the
/// whole group: the process stuck in a mutant's infinite loop is the test
/// binary `cargo test` spawned, not `cargo` itself.
fn run_cmd(mut cmd: Command, timeout_ms: u64) -> Result<Option<bool>, String> {
    let program = cmd.get_program().to_string_lossy().into_owned();
    cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::null()).process_group(0);
    let mut child = cmd.spawn().map_err(|e| format!("spawning {program}: {e}"))?;
    let t0 = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(Some(status.success())),
            Ok(None) => {}
            Err(e) => return Err(format!("waiting on {program}: {e}")),
        }
        if t0.elapsed() >= Duration::from_millis(timeout_ms) {
            // The child leads its group, so its pid is the group id.
            let group = format!("-{}", child.id());
            let _ = Command::new("kill").args(["-KILL", "--", &group]).status();
            let _ = child.kill();
            let _ = child.wait();
            return Ok(None);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Builds the pristine tree, then replays every suite once: the manifest
/// self-test (each listed target must exist, pass, and finish under its
/// budget). Returns the per-suite timeout for mutant runs, derived from
/// the measured baseline.
fn baseline(root: &Path, suites: &[Suite]) -> Result<Vec<u64>, String> {
    println!("baseline: building test targets…");
    match run_cmd(build_cmd(root, suites), BUILD_TIMEOUT_MS)? {
        Some(true) => {}
        Some(false) => return Err("baseline build failed on the pristine tree".into()),
        None => return Err("baseline build timed out".into()),
    }
    let mut timeouts = Vec::with_capacity(suites.len());
    for suite in suites {
        let t0 = Instant::now();
        let outcome = run_cmd(suite_cmd(root, suite), suite.budget_ms())?;
        let ms = t0.elapsed().as_millis() as u64;
        match outcome {
            Some(true) => {}
            Some(false) => {
                return Err(format!(
                    "kill-suite baseline: suite {} failed on the pristine tree — fix the \
                     tests (or the manifest target) before mutating",
                    suite.name
                ));
            }
            None => {
                return Err(format!(
                    "kill-suite baseline: suite {} exceeded its budget of {} ms — re-measure \
                     `median_ms` in kill_suite.toml",
                    suite.name,
                    suite.budget_ms()
                ));
            }
        }
        let timeout = 4 * ms.max(suite.median_ms) + 3000;
        println!("baseline: suite {:<20} {:>6} ms (timeout {} ms)", suite.name, ms, timeout);
        timeouts.push(timeout);
    }
    Ok(timeouts)
}

/// Applies one mutant and runs the pipeline: build, then suites in
/// manifest order until one fails or times out.
fn classify(
    root: &Path,
    site: &MutationSite,
    suites: &[Suite],
    timeouts: &[u64],
) -> Result<(Status, Option<String>), String> {
    let _guard = PatchGuard::apply(root, site).map_err(|e| format!("patch {}: {e}", site.id))?;
    match run_cmd(build_cmd(root, suites), BUILD_TIMEOUT_MS)? {
        Some(true) => {}
        Some(false) => return Ok((Status::Unviable, None)),
        None => return Ok((Status::Timeout, Some("build".into()))),
    }
    for (suite, &timeout) in suites.iter().zip(timeouts) {
        match run_cmd(suite_cmd(root, suite), timeout)? {
            Some(true) => {}
            Some(false) => return Ok((Status::Killed, Some(suite.name.clone()))),
            None => return Ok((Status::Timeout, Some(suite.name.clone()))),
        }
    }
    Ok((Status::Survived, None))
}

/// The `--check` gates (CI mode). Prints each failure; returns whether
/// all gates passed.
fn check_gates(results: &[MutantResult]) -> Result<bool, String> {
    let mut ok = true;
    for r in results {
        if r.seeded && r.status != Status::Killed {
            ok = false;
            println!(
                "GATE: seeded known-killable mutant {} was {} — the kill suite has gone \
                 vacuous (harness self-test)",
                r.site.id,
                r.status.as_str()
            );
        }
        let in_core = r.site.file.starts_with("crates/core");
        if r.status == Status::Survived && r.site.waived.is_none() && in_core {
            ok = false;
            println!(
                "GATE: un-triaged survivor {} at {}:{} {} — add a killing test or a \
                 `// mutation-ok: <reason>` waiver",
                r.site.id,
                r.site.file.display(),
                r.site.line,
                r.site.edit()
            );
        }
    }
    let detected =
        results.iter().filter(|r| matches!(r.status, Status::Killed | Status::Timeout)).count();
    let waived_survivors =
        results.iter().filter(|r| r.status == Status::Survived && r.site.waived.is_some()).count();
    let viable = results.iter().filter(|r| r.status != Status::Unviable).count();
    let denom = viable - waived_survivors;
    if denom > 0 && detected * 10 < denom * 9 {
        ok = false;
        println!(
            "GATE: mutation score {detected}/{denom} ({:.0}%) is below the 90% floor",
            100.0 * detected as f64 / denom as f64
        );
    }
    println!("mutate --check: {}", if ok { "all gates passed" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_timeout_kills_the_whole_process_group() {
        // The shell records its pid (= the group id, as group leader),
        // then parks behind a grandchild the way `cargo test` parks behind
        // a spinning test binary.
        let pid_file = std::env::temp_dir().join(format!("jetmut-pgid-{}", std::process::id()));
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(format!("echo $$ > {}; sleep 30 & wait", pid_file.display()));
        assert_eq!(run_cmd(cmd, 200), Ok(None));
        let pgid = fs::read_to_string(&pid_file).expect("the shell wrote its pid");
        let _ = fs::remove_file(&pid_file);
        // SIGKILL is delivered at once, but the orphaned grandchild stays a
        // (signalable) zombie until init reaps it: poll for that briefly.
        let group = format!("-{}", pgid.trim());
        let deadline = Instant::now() + Duration::from_secs(5);
        let gone = loop {
            let probe = Command::new("kill")
                .args(["-0", "--", &group])
                .stderr(Stdio::null())
                .status()
                .expect("kill runs");
            if !probe.success() || Instant::now() >= deadline {
                break !probe.success();
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(gone, "process group {group} outlived the timeout");
    }
}
