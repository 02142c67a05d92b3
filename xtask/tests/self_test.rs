//! Regression tests for the lint engine: every fixture must behave exactly
//! as its `expect.txt` demands, and the real workspace must be clean.

use std::path::{Path, PathBuf};

use xtask::{run_check, run_self_test, Lint};

fn xtask_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn every_fixture_behaves_as_expected() {
    let results = run_self_test(&xtask_dir().join("fixtures")).unwrap();
    assert!(!results.is_empty(), "no fixtures found");
    let names: Vec<&str> = results.iter().map(|r| r.name.as_str()).collect();
    for lint in [
        "paper-ref",
        "hot-path-alloc",
        "determinism",
        "determinism-sim",
        "determinism-clean",
        "cast-truncation",
        "cast-truncation-clean",
        "concurrency-discipline",
        "concurrency-discipline-clean",
        "pragma-justified",
        "pragma-justified-clean",
        "panic-reachability",
        "panic-reachability-clean",
        "hot-path-alloc-interproc",
        "dead-waiver",
        "strings-and-comments",
        "mutation-waiver",
        "mutation-waiver-clean",
        "mutation-waiver-stale",
        "clean",
    ] {
        assert!(names.contains(&lint), "missing fixture {lint}");
    }
    for r in &results {
        assert!(r.outcome.is_ok(), "fixture {}: {:?}", r.name, r.outcome);
    }
}

/// Every lint has a fixture that expects it and fires it alone, so a
/// lint cannot lose its last trigger unnoticed.
#[test]
fn every_lint_has_a_firing_fixture() {
    let fixtures = xtask_dir().join("fixtures");
    let mut expected: Vec<(String, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(&fixtures).unwrap() {
        let dir = entry.unwrap().path();
        if let Ok(expect) = std::fs::read_to_string(dir.join("expect.txt")) {
            expected.push((expect.trim().to_string(), dir));
        }
    }
    for lint in Lint::ALL {
        let fires = expected.iter().filter(|(id, _)| id == lint.id()).any(|(_, dir)| {
            let findings = run_check(dir).unwrap();
            !findings.is_empty() && findings.iter().all(|f| f.lint == lint)
        });
        assert!(fires, "no fixture fires [{}] on its own", lint.id());
    }
}

#[test]
fn clean_fixtures_are_clean() {
    for dir in [
        "clean",
        "determinism-clean",
        "cast-truncation-clean",
        "concurrency-discipline-clean",
        "pragma-justified-clean",
        "panic-reachability-clean",
        "strings-and-comments",
        "mutation-waiver-clean",
    ] {
        let findings = run_check(&xtask_dir().join("fixtures").join(dir)).unwrap();
        assert!(findings.is_empty(), "{dir}: {findings:?}");
    }
}

/// `panic-reachability` must propagate through the whole chain — the
/// fixture's panic site is two hops (a cross-module free call, then a
/// method call through an `impl` block) from the `// hot-path` root, and
/// the finding must land on the site with the full chain in the message.
/// The fixture's `.unwrap_err()` and `.expect_err(..)` are flagged too.
#[test]
fn panic_reachability_reports_the_deep_chain_at_the_site() {
    let findings = run_check(&xtask_dir().join("fixtures").join("panic-reachability")).unwrap();
    let f = findings
        .iter()
        .find(|f| {
            f.lint == Lint::PanicReachability && f.file.to_string_lossy().ends_with("table.rs")
        })
        .unwrap_or_else(|| panic!("no panic-reachability finding in table.rs: {findings:?}"));
    assert!(
        f.message.contains("drain_round → lookup_sum → Table::slot"),
        "chain missing from message: {}",
        f.message
    );
    for what in ["`.unwrap_err()`", "`.expect_err(..)`"] {
        assert!(
            findings.iter().any(|f| f.message.starts_with(what)),
            "{what} missed: {findings:?}"
        );
    }
    assert_eq!(findings.len(), 3, "{findings:?}");
}

/// The strings-and-comments fixture is the regression suite for the PR 1
/// false-positive class: every ported lint's trigger pattern appears there
/// inside string literals and comments, and none may fire. Prove the
/// fixture actually contains the patterns, so a future edit cannot
/// hollow the test out.
#[test]
fn strings_and_comments_fixture_really_contains_the_triggers() {
    let file = xtask_dir()
        .join("fixtures")
        .join("strings-and-comments")
        .join("crates")
        .join("core")
        .join("src")
        .join("lib.rs");
    let text = std::fs::read_to_string(file).unwrap();
    for pattern in [
        ".unwrap()",
        "panic!(",
        "HashMap",
        "Instant",
        "Mutex",
        "vec![",
        ".clone()",
        "as u32",
        "hot-path",
    ] {
        assert!(text.contains(pattern), "fixture lost trigger pattern {pattern:?}");
    }
}

/// The store crate is the newest addition to the workspace; prove the
/// walker actually lints `crates/store` rather than skipping it, by
/// planting violations there in a scratch tree and expecting findings.
#[test]
fn the_store_crate_is_covered_by_the_walker() {
    let root = std::env::temp_dir().join(format!("xtask-store-coverage-{}", std::process::id()));
    let src = root.join("crates").join("store").join("src");
    std::fs::create_dir_all(&src).unwrap();
    // An unwrap on a hot path, and a lock outside the approved modules:
    // both lints must fire on this file.
    std::fs::write(
        src.join("lib.rs"),
        "// hot-path\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
         pub fn lock() -> std::sync::Mutex<u8> { std::sync::Mutex::new(0) }\n",
    )
    .unwrap();

    let findings = run_check(&root).unwrap();
    std::fs::remove_dir_all(&root).unwrap();

    let in_store = |lint: Lint| {
        findings.iter().any(|f| f.lint == lint && f.file.to_string_lossy().contains("store"))
    };
    assert!(
        in_store(Lint::PanicReachability),
        "panic-reachability did not fire in crates/store: {findings:?}"
    );
    assert!(
        in_store(Lint::ConcurrencyDiscipline),
        "concurrency-discipline did not fire in crates/store: {findings:?}"
    );
}

/// jetmut discovery passes over shapes whose mutants can never compile —
/// the `+` joining trait bounds, the `..` before a functional update's
/// lowercase base, macro bangs, `#![..]` and `!=` — and keeps the
/// arithmetic, the range and every negation, a keyword before it or not.
#[test]
fn mutation_discovery_skips_bound_plus_and_update_base() {
    let root = std::env::temp_dir().join(format!("xtask-mutate-shapes-{}", std::process::id()));
    let src = root.join("crates").join("core").join("src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        src.join("lib.rs"),
        "pub struct S { a: u32, b: u32 }\n\
         pub fn bound<W: Copy + Default>(w: W) -> Box<dyn Fn() -> W + Send> { todo!() }\n\
         pub fn sum(lo: u32, n: u32) -> u32 { (lo..n).map(|i| i + 1).sum() }\n\
         pub fn update(s: &S) -> S { S { a: s.a + 1, ..s.base() } }\n\
         pub fn path(n: f64) -> f64 { n + Weight::MAX }\n\
         #![doc = \"x\"]\n\
         pub fn neg(c: bool) -> bool { if !c { return !c; } while !c {} !c }\n\
         pub fn bang(x: u32) -> bool { assert!(x != 1); vec![x]; m! {} x != 2 }\n",
    )
    .unwrap();
    let sites = xtask::mutate::sites::discover_workspace(&root).unwrap();
    std::fs::remove_dir_all(&root).unwrap();
    let at = |line: usize, op: &str| sites.iter().filter(|s| s.line == line && s.op == op).count();
    assert_eq!(at(2, "arith-swap"), 0, "trait bounds are not sums");
    assert_eq!((at(3, "arith-swap"), at(3, "range-flip")), (1, 1), "i + 1 and lo..n");
    assert_eq!(at(4, "arith-swap"), 1, "s.a + 1");
    assert_eq!(at(4, "range-flip"), 0, "a functional update's base is not a range end");
    assert_eq!(at(5, "arith-swap"), 1, "a path operand after `+` is still a sum");
    assert_eq!(at(6, "negate-drop"), 0, "an inner attribute is not a negation");
    assert_eq!(at(7, "negate-drop"), 4, "if !c, return !c, while !c and a bare !c");
    assert_eq!(at(8, "negate-drop"), 0, "macro bangs and `!=` are not negations");
}

/// Same proof for the serving layer: `crates/serve` is inside the
/// walker's net, including the determinism scope (a bare `Instant` in
/// serve library code must be flagged — only the waivered clock module
/// may read one).
#[test]
fn the_serve_crate_is_covered_by_the_walker() {
    let root = std::env::temp_dir().join(format!("xtask-serve-coverage-{}", std::process::id()));
    let src = root.join("crates").join("serve").join("src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        src.join("lib.rs"),
        "// hot-path\npub fn f(x: Option<u8>) -> u8 {\n    \
         let _t = std::time::Instant::now();\n    x.unwrap()\n}\n",
    )
    .unwrap();

    let findings = run_check(&root).unwrap();
    std::fs::remove_dir_all(&root).unwrap();

    let in_serve = |lint: Lint| {
        findings.iter().any(|f| f.lint == lint && f.file.to_string_lossy().contains("serve"))
    };
    assert!(
        in_serve(Lint::PanicReachability),
        "panic-reachability did not fire in crates/serve: {findings:?}"
    );
    assert!(
        in_serve(Lint::Determinism),
        "determinism did not fire on a bare Instant in crates/serve: {findings:?}"
    );
}

/// Static half of the kill-suite self-test: the manifest must parse,
/// and every entry must name a package and test target that exist on
/// disk, so a renamed test file cannot silently hollow out the jetmut
/// kill pipeline. (The dynamic half is the runner's baseline, which
/// replays each suite green and under budget before any mutant runs.)
#[test]
fn the_kill_suite_manifest_names_real_targets() {
    let xtask = xtask_dir();
    let root = xtask.parent().unwrap();
    let suites = xtask::mutate::runner::load_kill_suite(&xtask.join("kill_suite.toml")).unwrap();
    assert!(!suites.is_empty(), "empty kill suite");

    // Map workspace package names to their crate directories.
    let crates_dir = root.join("crates");
    let mut dirs: Vec<(String, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(&crates_dir).unwrap() {
        let dir = entry.unwrap().path();
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else { continue };
        if let Some(line) = manifest.lines().find(|l| l.trim_start().starts_with("name")) {
            if let Some(name) = line.split('"').nth(1) {
                dirs.push((name.to_string(), dir));
            }
        }
    }

    for s in &suites {
        let (_, dir) = dirs
            .iter()
            .find(|(name, _)| *name == s.package)
            .unwrap_or_else(|| panic!("suite {}: package {} is not in crates/", s.name, s.package));
        let target = if s.target == "lib" {
            dir.join("src").join("lib.rs")
        } else {
            dir.join("tests").join(format!("{}.rs", s.target))
        };
        assert!(target.is_file(), "suite {}: missing test target {}", s.name, target.display());
        assert!(s.median_ms > 0, "suite {}: zero median", s.name);
    }
}

/// The pinned mutation corpus must resolve: every id matches a site the
/// current tree discovers (ids are content-hashed, so touched code rots
/// them loudly here instead of at mutate time), and exactly one entry
/// is the `!`-seeded vacuity mutant.
#[test]
fn the_mutation_corpus_resolves_against_discovery() {
    let xtask = xtask_dir();
    let root = xtask.parent().unwrap();
    let sites = xtask::mutate::sites::discover_workspace(root).unwrap();
    let ids: std::collections::BTreeSet<&str> = sites.iter().map(|s| s.id.as_str()).collect();
    let corpus = std::fs::read_to_string(xtask.join("mutation_corpus.txt")).unwrap();
    let mut seeded = 0;
    let mut pinned = 0;
    for line in corpus.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let word = line.split_whitespace().next().unwrap();
        let id = match word.strip_prefix('!') {
            Some(rest) => {
                seeded += 1;
                rest
            }
            None => word,
        };
        pinned += 1;
        assert!(
            ids.contains(id),
            "corpus id {id} matches no discovered site — re-pin with `cargo xtask mutate --list`"
        );
    }
    assert!(pinned >= 40, "corpus shrank to {pinned} mutants");
    assert_eq!(seeded, 1, "exactly one seeded (`!`) mutant expected, found {seeded}");
}

#[test]
fn the_workspace_itself_is_clean() {
    let root = xtask_dir();
    let root: &Path = root.parent().unwrap();
    let findings = run_check(root).unwrap();
    assert!(
        findings.is_empty(),
        "`cargo xtask check` fails on the workspace:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}

/// `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Vertex-id conversions go through `jetstream_graph::{ix, vid}`, which
/// carry the only copy of the two id-width invariants; everything else
/// under `crates/` and `src/` shares a fixed budget of `cast-ok` /
/// `panic-ok` waivers. Raising the ceiling is a reviewed decision: prefer
/// a conversion helper or a checked accessor to a new annotation.
#[test]
fn inline_waivers_stay_under_their_ceiling() {
    const CEILING: usize = 43;
    const RETIRED: [&str; 2] = ["VertexId is u32 -> usize", "index < num_vertices <= u32::MAX"];
    let root = xtask_dir();
    let root: &Path = root.parent().unwrap();
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files).unwrap();
    rust_files(&root.join("src"), &mut files).unwrap();
    let home = root.join("crates/graph/src/lib.rs");
    let mut waivers = 0;
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        waivers += text
            .lines()
            .filter(|l| l.contains("// cast-ok:") || l.contains("// panic-ok:"))
            .count();
        for sentence in RETIRED {
            let expected = usize::from(*path == home);
            assert_eq!(
                text.matches(sentence).count(),
                expected,
                "{}: the id-width invariant {sentence:?} lives once, on `ix`/`vid` in \
                 crates/graph/src/lib.rs — call those instead of annotating a cast",
                path.display()
            );
        }
    }
    assert!(
        waivers <= CEILING,
        "{waivers} cast-ok/panic-ok waivers under crates/ and src/ (ceiling {CEILING})"
    );
}
