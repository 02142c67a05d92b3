//! `jetlint` — repo-native static analysis for the JetStream workspace.
//!
//! `cargo xtask check` lexes every Rust file in the tree with the
//! hand-rolled lexer in [`lex`](mod@lex) (std only; the build is offline)
//! and runs eight lints, each with one detector. Because detectors match
//! lexer tokens rather than raw lines, a pattern inside a string literal or
//! a comment never fires. Rules the compiler can state are not here: clippy
//! and rustc own the panic, `unsafe`, docs and `#[expect]` policy
//! (DESIGN.md §9).
//!
//! Five lints read one file's token stream:
//!
//! * **paper-ref** — every `§x.y` reference exists in PAPER.md or DESIGN.md.
//! * **determinism** — no clock, entropy source or hash collection in the
//!   code whose two runs must be bit-identical (DESIGN.md §13).
//! * **cast-truncation** — a narrowing `as` cast in `crates/core` or
//!   `crates/graph` states why it fits (DESIGN.md §9).
//! * **concurrency-discipline** — threads, locks and channels only in the
//!   approved modules.
//! * **pragma-justified** — every waiver pragma gives a reason.
//!
//! Three run on the workspace call graph built by [`parse`] (DESIGN.md
//! §14): **panic-reachability** (no panic-capable operation reachable from
//! a `// hot-path` function or a kernel entry), **hot-path-alloc** (no
//! allocation in a `// hot-path` function or anything it calls) and
//! **dead-waiver** (a waiver pragma that suppresses nothing is an error).
//!
//! Test code (`#[cfg(test)]` items and files under `tests/`, `benches/`
//! or `examples/`) is exempt from the code lints; `pragma-justified` and
//! `paper-ref` apply everywhere.

pub mod lex;
pub mod mutate;
pub mod parse;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lex::{lex, Token, TokenKind};

/// The individual policies `cargo xtask check` enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// A `§x.y` reference that is in neither PAPER.md nor DESIGN.md.
    PaperRef,
    /// An allocation (`Vec::new()` / `vec![..]` / `.clone()`) in a
    /// `// hot-path`-marked function or in anything it calls.
    HotPathAlloc,
    /// A nondeterminism source (clock, entropy, hash collection) in the
    /// bit-determinism-critical crates.
    Determinism,
    /// A narrowing `as` cast without a `// cast-ok:` invariant.
    CastTruncation,
    /// A concurrency primitive outside the approved module list.
    ConcurrencyDiscipline,
    /// A waiver pragma without a written reason.
    PragmaJustified,
    /// A panic-capable operation reachable (through the call graph) from
    /// a `// hot-path` function or the kernel entry point.
    PanicReachability,
    /// A waiver pragma that no longer suppresses any diagnostic.
    DeadWaiver,
}

impl Lint {
    /// Stable identifier used in report lines and fixture expectations.
    pub fn id(self) -> &'static str {
        match self {
            Lint::PaperRef => "paper-ref",
            Lint::HotPathAlloc => "hot-path-alloc",
            Lint::Determinism => "determinism",
            Lint::CastTruncation => "cast-truncation",
            Lint::ConcurrencyDiscipline => "concurrency-discipline",
            Lint::PragmaJustified => "pragma-justified",
            Lint::PanicReachability => "panic-reachability",
            Lint::DeadWaiver => "dead-waiver",
        }
    }

    /// Parses a lint id (as spelled in a fixture's `expect.txt`).
    pub fn from_id(id: &str) -> Option<Lint> {
        Lint::ALL.into_iter().find(|lint| lint.id() == id)
    }

    /// Every lint, in report order.
    pub const ALL: [Lint; 8] = [
        Lint::PaperRef,
        Lint::HotPathAlloc,
        Lint::Determinism,
        Lint::CastTruncation,
        Lint::ConcurrencyDiscipline,
        Lint::PragmaJustified,
        Lint::PanicReachability,
        Lint::DeadWaiver,
    ];

    /// Long-form explanation for `cargo xtask explain <LINT>`: what the
    /// policy is, why it exists, and how to satisfy or waive it.
    pub fn explain(self) -> &'static str {
        match self {
            Lint::PaperRef => {
                "paper-ref: every `§x.y` section reference in source text must exist in \
                 PAPER.md or DESIGN.md.\n\nPaper citations rot silently when sections are \
                 renumbered; this lint makes a dangling reference a build failure. Fix the \
                 reference or add the section to DESIGN.md."
            }
            Lint::HotPathAlloc => {
                "hot-path-alloc: no `Vec::new()`, `vec![..]`, or `.clone()` inside a \
                 `// hot-path`-marked function, nor in any function it transitively calls \
                 (read off the workspace call graph, DESIGN.md §14).\n\n\
                 DESIGN.md §12 commits the steady state to zero allocations: scratch \
                 buffers are preallocated and reused across rounds. Move the allocation to \
                 setup, or thread a scratch buffer in."
            }
            Lint::Determinism => {
                "determinism: no wall-clock (`Instant`, `SystemTime`), entropy \
                 (`thread_rng`, `from_entropy`, `RandomState`), or hash collections \
                 (`HashMap`, `HashSet`) in `crates/core`, `crates/algorithms`, \
                 `crates/graph`, `crates/sim`, `crates/serve`, or the store replay path.\n\n\
                 Two sequential runs of the same batch stream must produce bit-identical \
                 state (DESIGN.md §13): recovery replays the log and diffs against the \
                 live engine, the sharded engine is diffed against the sequential one, and \
                 hash iteration order is randomized per process. Use `BTreeMap`/`BTreeSet`; \
                 a justified exception (say, a map that is never iterated) takes \
                 `// nondeterminism-ok: <reason>`."
            }
            Lint::CastTruncation => {
                "cast-truncation: every narrowing `as` cast (`as u8/u16/u32/i8/i16/i32/\
                 usize/isize/VertexId`) in `crates/core`/`crates/graph` must carry \
                 `// cast-ok: <invariant>` on the same line or the line above.\n\nNarrowing \
                 casts silently truncate; the pragma states the invariant that makes the \
                 cast lossless (e.g. \"vertex ids fit u32 by construction\"). The \
                 dead-waiver lint deletes the pragma when the cast goes away."
            }
            Lint::ConcurrencyDiscipline => {
                "concurrency-discipline: `Mutex`/`RwLock`/`Condvar`/`mpsc`/`spawn` are \
                 allowed only in approved modules (in the engine: \
                 `crates/core/src/sharded.rs` and `crates/core/src/async_mode.rs`).\n\n\
                 Concurrency enters the engine only through reviewed modules whose \
                 interleavings are argued deterministic (DESIGN.md §15.4) or \
                 value-equivalent under quiescence (DESIGN.md §16). Data races are the \
                 compiler's to reject: shard state moves into threads as disjoint `&mut` \
                 borrows and the workspace forbids `unsafe` (DESIGN.md §14.3). What the \
                 compiler cannot see, a schedule-dependent value, the schedule fuzzer \
                 hunts (`cargo xtask check --sanitize`). Adding a module to the approved \
                 list is a reviewed decision."
            }
            Lint::PragmaJustified => {
                "pragma-justified: every waiver pragma (`// cast-ok:`, \
                 `// nondeterminism-ok:`, `// panic-ok:`, `// mutation-ok:`) must carry a \
                 written reason.\n\nA waiver is a claim about an invariant; an unexplained \
                 claim cannot be reviewed or retired. Append the reason after the key. \
                 (Compiler lint waivers are `#[expect(<lint>, reason = \"..\")]`, which \
                 clippy's `allow_attributes_without_reason` polices.)"
            }
            Lint::PanicReachability => {
                "panic-reachability: no panic-capable operation — `.unwrap()`, \
                 non-invariant `.expect(..)`, the `panic!`/`unreachable!`/`todo!`/\
                 `unimplemented!` macros, or slice indexing `x[i]` — may be reachable \
                 through the call graph from a `// hot-path` function or from the kernel \
                 entry point (`process_event`).\n\nThe event kernel runs millions of times \
                 per batch; a panic deep in a helper is a crash no per-site lint can see \
                 (clippy's `unwrap_used` has no notion of calls, nor of indexing), and \
                 slice indexing is the most common hidden panic. Prove a site in-bounds \
                 with `// panic-ok: <why it cannot fire>` on its line or the line above, \
                 or restructure with \
                 `.get(..)`. `assert!` and `.expect(\"invariant: ...\")` are the \
                 sanctioned loud-crash mechanisms and are exempt. The call graph is \
                 name-resolved and over-approximates: see DESIGN.md §14 for the soundness \
                 gaps."
            }
            Lint::DeadWaiver => {
                "dead-waiver: a waiver pragma (`// cast-ok:`, `// nondeterminism-ok:`, \
                 `// panic-ok:`, `// mutation-ok:`) that no longer suppresses any \
                 diagnostic is itself an error (rustc's `unfulfilled_lint_expectations` \
                 does the same for `#[expect]`).\n\nA stale waiver is wrong documentation: \
                 it asserts an invariant about code that has moved or been fixed, and it \
                 will silently excuse the *next* \
                 violation that lands on its line. Delete it, or move it next to the \
                 operation it is meant to cover. A `// mutation-ok:` waiver counts as used \
                 when it covers a jetmut mutation site (`cargo xtask explain \
                 MUTATION-WAIVER`)."
            }
        }
    }
}

/// One policy violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which policy fired.
    pub lint: Lint,
    /// File the violation is in, relative to the checked root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.lint.id(), self.message)
    }
}

/// Directory names never descended into.
pub(crate) const SKIP_DIRS: [&str; 4] = ["target", "fixtures", ".git", ".github"];

/// Path components marking test-like code exempt from the code lints.
pub(crate) const TEST_DIRS: [&str; 3] = ["tests", "benches", "examples"];

/// Paths covered by `determinism`: the engine, the algorithms it runs, the
/// graph structures both read, the simulator (whose event order feeds its
/// cycle counts), the store's replay path, and the serving layer (whose
/// applied-batch log must replay bit-identically) — everything whose two
/// executions must be bit-identical. The serve crate's flush timer is
/// clock-driven by design; its single `Instant` reader carries a justified
/// `// nondeterminism-ok:` waiver (`crates/serve/src/clock.rs`).
const DETERMINISM_SCOPE: [&str; 6] = [
    "crates/core/src",
    "crates/algorithms/src",
    "crates/graph/src",
    "crates/sim/src",
    "crates/store/src/recovery",
    "crates/serve/src",
];

/// Paths covered by `cast-truncation`.
const CAST_SCOPE: [&str; 2] = ["crates/core/src", "crates/graph/src"];

/// Paths covered by `concurrency-discipline` (the engine-side crates; the
/// bench harness and baselines may thread freely).
const CONCURRENCY_SCOPE: [&str; 6] = [
    "crates/core/src",
    "crates/graph/src",
    "crates/algorithms/src",
    "crates/store/src",
    "crates/sim/src",
    "crates/serve/src",
];

/// Modules allowed to use concurrency primitives. Adding a file here is a
/// reviewed decision: it means its interleavings have been argued
/// deterministic (see DESIGN.md §15.4 for the serve threading model:
/// per-connection reader/writer threads feed one engine thread over
/// channels; the engine applies batches serially, so engine state never
/// sees concurrent mutation) or value-equivalent under quiescence
/// (DESIGN.md §16 for `sharded.rs` and `async_mode.rs`: barrier-free
/// workers over disjoint shard state, fenced by the differential matrix
/// and the schedule fuzzer; DESIGN.md §10 for
/// `store.rs`: one checkpoint writer that shares nothing with the apply
/// thread but the directory, joined before either touches the manifest
/// again, fenced by the single-thread crash matrix).
const CONCURRENCY_APPROVED: [&str; 5] = [
    "crates/core/src/sharded.rs",
    "crates/core/src/async_mode.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/session.rs",
    "crates/store/src/store.rs",
];

/// Cast target types the `cast-truncation` lint treats as narrowing.
/// `VertexId` is `u32` (`crates/graph/src/lib.rs`), so it narrows too;
/// `usize` is listed because `u64 as usize` truncates on 32-bit hosts.
const NARROWING_TARGETS: [&str; 9] =
    ["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize", "VertexId"];

/// Identifiers banned by `determinism` everywhere in its scope: clocks,
/// entropy sources, and the collections whose iteration order is seeded
/// per process.
const NONDETERMINISM_IDENTS: [&str; 7] =
    ["Instant", "SystemTime", "thread_rng", "from_entropy", "RandomState", "HashMap", "HashSet"];

/// Identifiers banned by `concurrency-discipline` outside approved modules.
const CONCURRENCY_IDENTS: [&str; 4] = ["Mutex", "RwLock", "Condvar", "mpsc"];

/// Runs every lint — the token layer and the interprocedural layer —
/// over the workspace rooted at `root` and returns the findings, ordered
/// by file path and line.
///
/// # Errors
///
/// Returns any I/O error raised while walking the tree or reading files.
pub fn run_check(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rust_files(root, root, &mut files)?;
    files.sort();
    let sources = files.into_iter().map(|rel| {
        let text = fs::read_to_string(root.join(&rel))?;
        Ok((rel, text))
    });
    check_sources(sources, &known_sections(root)?, &parse::workspace_visibility(root))
}

/// Both layers over `(path, text)` sources, each read as it is reached:
/// the token lints per file, then the call-graph lints over every non-test
/// file, then the waivers nothing consulted.
fn check_sources(
    sources: impl IntoIterator<Item = io::Result<(PathBuf, String)>>,
    sections: &[String],
    visibility: &parse::Visibility,
) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut waivers = WaiverLog::default();
    let mut parsed: Vec<parse::ParsedFile> = Vec::new();
    for source in sources {
        let (rel, raw) = source?;
        let rel = rel.as_path();
        let file = SourceFile::new(rel, &raw);
        check_file(&file, sections, &mut findings, &mut waivers);
        if !is_test_path(rel) {
            waivers.collect_present(&file);
            if in_scope(rel, &mutate::MUTATION_SCOPE) {
                mutate::sites::mark_mutation_waivers(&file, &mut waivers);
            }
            parsed.push(parse::parse_file(&file));
        }
    }
    parse::check_interprocedural(&parsed, visibility, &mut findings, &mut waivers);
    waivers.report_dead(&mut findings);
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    // Several panic sites on one line produce byte-identical findings;
    // keep one.
    findings.dedup_by(|a, b| {
        a.lint == b.lint && a.file == b.file && a.line == b.line && a.message == b.message
    });
    Ok(findings)
}

/// Tracks every well-formed waiver pragma seen in non-test code and every
/// waiver a lint actually consulted to suppress a finding; the difference
/// is the `dead-waiver` report.
#[derive(Default)]
pub(crate) struct WaiverLog {
    /// `(file, line, key)` of each waiver pragma with a non-empty reason
    /// (empty reasons are `pragma-justified`'s finding, not a waiver).
    present: Vec<(PathBuf, usize, &'static str)>,
    /// `(file, line, key)` of each waiver that suppressed a diagnostic.
    used: BTreeSet<(PathBuf, usize, &'static str)>,
}

/// The waiver pragma keys `dead-waiver` audits, as spelled in comments.
/// `mutation-ok` waives a surviving jetmut mutant (DESIGN.md §18); it is
/// "used" when it covers a discovered mutation site, so a waiver whose
/// site moved or was fixed rots into a `dead-waiver` finding like the
/// others.
const WAIVER_KEYS: [&str; 4] = ["cast-ok", "nondeterminism-ok", "panic-ok", "mutation-ok"];

impl WaiverLog {
    /// Records that the waiver on `line` of `file` suppressed a finding.
    pub(crate) fn mark_used(&mut self, file: &Path, line: usize, key: &'static str) {
        self.used.insert((file.to_path_buf(), line, key));
    }

    /// Scans a (non-test-path) file for well-formed waiver pragmas.
    /// Pragmas inside `#[cfg(test)]` spans are skipped: the lints never
    /// consult them, so they can never be "used".
    fn collect_present(&mut self, file: &SourceFile<'_>) {
        for &(line, tok) in &file.comment_lines {
            let t = &file.tokens[tok];
            if file.in_test(t.start) {
                continue;
            }
            let Some(text) = plain_comment_text(t.text(file.text)) else { continue };
            for key in WAIVER_KEYS {
                if let Some(rest) = text.strip_prefix(key) {
                    if !pragma_reason(rest).is_empty() {
                        self.present.push((file.rel.to_path_buf(), line, key));
                    }
                }
            }
        }
    }

    /// Emits a `dead-waiver` finding for every present-but-unused pragma.
    fn report_dead(&self, findings: &mut Vec<Finding>) {
        for &(ref file, line, key) in &self.present {
            if self.used.contains(&(file.clone(), line, key)) {
                continue;
            }
            findings.push(Finding {
                lint: Lint::DeadWaiver,
                file: file.clone(),
                line,
                message: format!(
                    "`// {key}` waiver no longer suppresses any diagnostic — the \
                     operation it excused has moved or been fixed; delete the pragma (or \
                     move it back next to the operation it covers)"
                ),
            });
        }
    }
}

/// Serializes findings as the stable machine-readable report consumed by
/// CI (`cargo xtask check --json`). The schema is versioned: bump
/// `version` on any incompatible change. Version 2 adds the `tool`
/// header and the per-entry stable `id`, shared with jetmut's
/// MUTATION.json (`mutate::report`) so downstream tooling parses one
/// envelope for lints and mutants.
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"version\": 2,\n  \"tool\": \"jetlint\",\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"id\": \"");
        out.push_str(f.lint.id());
        out.push_str("\", \"lint\": \"");
        out.push_str(f.lint.id());
        out.push_str("\", \"file\": \"");
        json_escape_into(&f.file.to_string_lossy().replace('\\', "/"), &mut out);
        out.push_str("\", \"line\": ");
        out.push_str(&f.line.to_string());
        out.push_str(", \"message\": \"");
        json_escape_into(&f.message, &mut out);
        out.push_str("\"}");
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"count\": ");
    out.push_str(&findings.len().to_string());
    out.push_str("\n}\n");
    out
}

pub(crate) fn json_escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

pub(crate) fn collect_rust_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<PathBuf>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rust_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Section ids (e.g. `§4.6.1`) present in PAPER.md / DESIGN.md.
pub(crate) fn known_sections(root: &Path) -> io::Result<Vec<String>> {
    let mut sections = Vec::new();
    for doc in ["PAPER.md", "DESIGN.md"] {
        let path = root.join(doc);
        if !path.exists() {
            continue;
        }
        let text = fs::read_to_string(path)?;
        for (_, sec) in section_refs(&text) {
            if !sections.contains(&sec) {
                sections.push(sec);
            }
        }
    }
    Ok(sections)
}

/// Extracts `§x[.y[.z]]` tokens with their 1-based line numbers.
pub(crate) fn section_refs(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let mut rest = line;
        while let Some(pos) = rest.find('§') {
            let after = &rest[pos + '§'.len_utf8()..];
            let digits: String =
                after.chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
            let digits = digits.trim_end_matches('.');
            if !digits.is_empty() && digits.starts_with(|c: char| c.is_ascii_digit()) {
                out.push((lineno + 1, format!("§{digits}")));
            }
            rest = after;
        }
    }
    out
}

pub(crate) fn is_test_path(rel: &Path) -> bool {
    rel.components().any(|c| c.as_os_str().to_str().is_some_and(|s| TEST_DIRS.contains(&s)))
}

pub(crate) fn in_scope(rel: &Path, scope: &[&str]) -> bool {
    let s = rel.to_string_lossy().replace('\\', "/");
    scope.iter().any(|p| s.starts_with(p))
}

// ---------------------------------------------------------------------
// The token-stream view of one source file
// ---------------------------------------------------------------------

/// A lexed source file plus the derived views the lints share: the
/// comment-free code token sequence, the byte spans of `#[cfg(test)]`
/// items, and a line → trailing-comment index for pragma lookups.
pub(crate) struct SourceFile<'a> {
    pub(crate) rel: &'a Path,
    pub(crate) text: &'a str,
    pub(crate) tokens: Vec<Token>,
    /// Indices into `tokens` of every non-comment token, in order.
    pub(crate) code: Vec<usize>,
    /// Byte ranges (start inclusive, end exclusive) of `#[cfg(test)]`
    /// items; code inside is invisible to the code lints.
    test_spans: Vec<(usize, usize)>,
    /// `(line, token index)` of the last line comment on each line that
    /// has one; sorted by line.
    comment_lines: Vec<(usize, usize)>,
}

impl<'a> SourceFile<'a> {
    pub(crate) fn new(rel: &'a Path, text: &'a str) -> Self {
        let tokens = lex(text);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let mut comment_lines: Vec<(usize, usize)> = Vec::new();
        for (i, t) in tokens.iter().enumerate() {
            if t.kind == TokenKind::LineComment {
                match comment_lines.last_mut() {
                    Some((line, idx)) if *line == t.line => *idx = i,
                    _ => comment_lines.push((t.line, i)),
                }
            }
        }
        let test_spans = find_test_spans(&tokens, &code, text);
        SourceFile { rel, text, tokens, code, test_spans, comment_lines }
    }

    /// The `i`-th code token.
    pub(crate) fn ct(&self, i: usize) -> &Token {
        &self.tokens[self.code[i]]
    }

    /// Text of the `i`-th code token.
    pub(crate) fn ctext(&self, i: usize) -> &str {
        self.ct(i).text(self.text)
    }

    /// True when code token `i` exists and is the punctuation byte `p`.
    pub(crate) fn is_punct(&self, i: usize, p: &str) -> bool {
        i < self.code.len() && self.ct(i).kind == TokenKind::Punct && self.ctext(i) == p
    }

    /// True when code token `i` exists and is the identifier `name`.
    pub(crate) fn is_ident(&self, i: usize, name: &str) -> bool {
        i < self.code.len() && self.ct(i).kind == TokenKind::Ident && self.ctext(i) == name
    }

    /// How `panic-reachability` names the panic-capable call code token
    /// `i` starts, if it starts one. An `.expect(..)` or `.expect_err(..)`
    /// whose message is `"invariant: "` followed by some text documents a
    /// structural invariant and is not a panic site.
    pub(crate) fn panic_op(&self, i: usize) -> Option<&'static str> {
        if self.ct(i).kind != TokenKind::Ident {
            return None;
        }
        let method = || i > 0 && self.is_punct(i - 1, ".") && self.is_punct(i + 1, "(");
        let invariant = || {
            i + 2 < self.code.len()
                && self.ct(i + 2).kind == TokenKind::Str
                && self
                    .ctext(i + 2)
                    .strip_prefix("\"invariant: ")
                    .is_some_and(|rest| !rest.trim_end_matches('"').trim().is_empty())
        };
        match self.ctext(i) {
            "unwrap" if method() && self.is_punct(i + 2, ")") => Some("`.unwrap()`"),
            "unwrap_err" if method() && self.is_punct(i + 2, ")") => Some("`.unwrap_err()`"),
            "expect" if method() && !invariant() => Some("`.expect(..)`"),
            "expect_err" if method() && !invariant() => Some("`.expect_err(..)`"),
            "panic" | "unreachable" | "todo" | "unimplemented" if self.is_punct(i + 1, "!") => {
                Some("panic-family macro")
            }
            _ => None,
        }
    }

    pub(crate) fn in_test(&self, byte: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| byte >= s && byte < e)
    }

    /// The text of a *plain* (non-doc) line comment on `line`, `//`
    /// stripped and trimmed; `None` if the line has no such comment.
    fn plain_comment_on(&self, line: usize) -> Option<&str> {
        let idx = self.comment_lines.binary_search_by_key(&line, |&(l, _)| l).ok()?;
        let (_, tok) = self.comment_lines[idx];
        plain_comment_text(self.tokens[tok].text(self.text))
    }

    /// Looks for a waiver pragma starting with `key` on `line` or the line
    /// directly above; returns the line the pragma comment sits on (so
    /// `dead-waiver` can track which pragmas earned their keep) and the
    /// reason text after the key (possibly empty — `pragma-justified`
    /// polices emptiness).
    pub(crate) fn waiver_at(&self, line: usize, key: &str) -> Option<(usize, &str)> {
        for l in [line, line.saturating_sub(1)] {
            if l == 0 {
                continue;
            }
            if let Some(text) = self.plain_comment_on(l) {
                if let Some(rest) = text.strip_prefix(key) {
                    return Some((l, pragma_reason(rest)));
                }
            }
        }
        None
    }
}

/// Strips `//` and rejects doc comments (`///`, `//!`): pragmas and
/// justification comments must be plain comments, so a doc sentence can
/// never accidentally waive a lint.
pub(crate) fn plain_comment_text(raw: &str) -> Option<&str> {
    let rest = raw.strip_prefix("//")?;
    if rest.starts_with('/') || rest.starts_with('!') {
        return None;
    }
    Some(rest.trim())
}

/// Trims the separator between a pragma key and its reason
/// (`// cast-ok: reason`, `// panic-ok — reason`).
fn pragma_reason(rest: &str) -> &str {
    rest.trim_matches(|c: char| c == ':' || c == '-' || c == '—' || c.is_whitespace())
}

/// Byte spans of `#[cfg(test)]`-gated items, computed over code tokens so
/// braces inside strings or comments can never unbalance the scan (the
/// false-positive class the line-based walker had).
fn find_test_spans(tokens: &[Token], code: &[usize], text: &str) -> Vec<(usize, usize)> {
    let ct = |i: usize| -> &Token { &tokens[code[i]] };
    let ctext = |i: usize| -> &str { ct(i).text(text) };
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 1 < code.len() {
        if !(ctext(i) == "#" && ctext(i + 1) == "[") {
            i += 1;
            continue;
        }
        // Scan the attribute body for `cfg` + `test` (rejecting `not`):
        // covers `#[cfg(test)]` and `#[cfg(all(test, ...))]`.
        let mut j = i + 2;
        let mut depth = 1usize;
        let (mut has_cfg, mut has_test, mut has_not) = (false, false, false);
        while j < code.len() && depth > 0 {
            match ctext(j) {
                "[" => depth += 1,
                "]" => depth -= 1,
                "cfg" => has_cfg = true,
                "test" => has_test = true,
                "not" => has_not = true,
                _ => {}
            }
            j += 1;
        }
        if !(has_cfg && has_test && !has_not) {
            i = j;
            continue;
        }
        // Skip any further attributes on the same item.
        while j + 1 < code.len() && ctext(j) == "#" && ctext(j + 1) == "[" {
            let mut depth = 1usize;
            j += 2;
            while j < code.len() && depth > 0 {
                match ctext(j) {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        // The item ends at the matching `}` of its first brace block, or
        // at the first `;` seen before any brace (`mod tests;`).
        let mut depth = 0usize;
        let mut k = j;
        let mut end = text.len();
        while k < code.len() {
            match ctext(k) {
                ";" if depth == 0 => {
                    end = ct(k).end;
                    k += 1;
                    break;
                }
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = ct(k).end;
                        k += 1;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        spans.push((ct(i).start, end));
        i = k.max(i + 1);
    }
    spans
}

// ---------------------------------------------------------------------
// The lints
// ---------------------------------------------------------------------

fn check_file(
    file: &SourceFile<'_>,
    sections: &[String],
    findings: &mut Vec<Finding>,
    waivers: &mut WaiverLog,
) {
    check_paper_refs(file, sections, findings);
    check_pragma_justified(file, findings);

    if is_test_path(file.rel) {
        return;
    }

    if in_scope(file.rel, &DETERMINISM_SCOPE) {
        check_determinism(file, findings, waivers);
    }
    if in_scope(file.rel, &CAST_SCOPE) {
        check_cast_truncation(file, findings, waivers);
    }
    if in_scope(file.rel, &CONCURRENCY_SCOPE) && !in_scope(file.rel, &CONCURRENCY_APPROVED) {
        check_concurrency(file, findings);
    }
}

fn push(findings: &mut Vec<Finding>, lint: Lint, file: &SourceFile<'_>, line: usize, msg: String) {
    findings.push(Finding { lint, file: file.rel.to_path_buf(), line, message: msg });
}

fn check_paper_refs(file: &SourceFile<'_>, sections: &[String], findings: &mut Vec<Finding>) {
    for (lineno, sec) in section_refs(file.text) {
        if !sections.iter().any(|s| s == &sec) {
            push(
                findings,
                Lint::PaperRef,
                file,
                lineno,
                format!("{sec} is referenced here but defined in neither PAPER.md nor DESIGN.md"),
            );
        }
    }
}

fn check_determinism(file: &SourceFile<'_>, findings: &mut Vec<Finding>, waivers: &mut WaiverLog) {
    for i in 0..file.code.len() {
        let tok = file.ct(i);
        if tok.kind != TokenKind::Ident || file.in_test(tok.start) {
            continue;
        }
        let name = file.ctext(i);
        if !NONDETERMINISM_IDENTS.contains(&name) {
            continue;
        }
        if let Some((wline, _)) = file.waiver_at(tok.line, "nondeterminism-ok") {
            waivers.mark_used(file.rel, wline, "nondeterminism-ok");
            continue;
        }
        push(
            findings,
            Lint::Determinism,
            file,
            tok.line,
            format!(
                "`{name}` in bit-determinism-critical code — two runs of the same batch \
                 stream must produce identical state (DESIGN.md §13); justify a deliberate \
                 exception with `// nondeterminism-ok: <reason>`"
            ),
        );
    }
}

fn check_cast_truncation(
    file: &SourceFile<'_>,
    findings: &mut Vec<Finding>,
    waivers: &mut WaiverLog,
) {
    for i in 0..file.code.len() {
        if !file.is_ident(i, "as") {
            continue;
        }
        let tok = file.ct(i);
        if file.in_test(tok.start) || i + 1 >= file.code.len() {
            continue;
        }
        let target = file.ctext(i + 1);
        if file.ct(i + 1).kind != TokenKind::Ident || !NARROWING_TARGETS.contains(&target) {
            continue;
        }
        // `use path as Name` renames, it does not cast.
        if in_use_statement(file, i) {
            continue;
        }
        if let Some((wline, _)) = file.waiver_at(tok.line, "cast-ok") {
            waivers.mark_used(file.rel, wline, "cast-ok");
            continue;
        }
        push(
            findings,
            Lint::CastTruncation,
            file,
            tok.line,
            format!(
                "narrowing `as {target}` cast — state the invariant that makes it lossless \
                 with `// cast-ok: <invariant>` (or restructure to avoid the cast)"
            ),
        );
    }
}

/// True when code token `i` sits inside a `use` statement (no `;` between
/// the `use` keyword and `i`), where `as` renames rather than casts.
fn in_use_statement(file: &SourceFile<'_>, i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if file.is_punct(j, ";") {
            return false;
        }
        if file.is_ident(j, "use") {
            return true;
        }
    }
    false
}

fn check_concurrency(file: &SourceFile<'_>, findings: &mut Vec<Finding>) {
    for i in 0..file.code.len() {
        let tok = file.ct(i);
        if tok.kind != TokenKind::Ident || file.in_test(tok.start) {
            continue;
        }
        let name = file.ctext(i);
        let banned = CONCURRENCY_IDENTS.contains(&name)
            || (name == "spawn"
                && i > 0
                && (file.is_punct(i - 1, ".") || file.is_punct(i - 1, ":")));
        if !banned {
            continue;
        }
        push(
            findings,
            Lint::ConcurrencyDiscipline,
            file,
            tok.line,
            format!(
                "`{name}` outside the approved concurrency modules ({}) — concurrency enters \
                 the engine only through reviewed modules whose interleavings are argued \
                 deterministic or value-equivalent (DESIGN.md §15.4, §16)",
                CONCURRENCY_APPROVED.join(", ")
            ),
        );
    }
}

fn check_pragma_justified(file: &SourceFile<'_>, findings: &mut Vec<Finding>) {
    for &(line, tok) in &file.comment_lines {
        let Some(text) = plain_comment_text(file.tokens[tok].text(file.text)) else { continue };
        for key in WAIVER_KEYS {
            if let Some(rest) = text.strip_prefix(key) {
                if pragma_reason(rest).is_empty() {
                    push(
                        findings,
                        Lint::PragmaJustified,
                        file,
                        line,
                        format!("`// {key}:` pragma carries no justification — state why"),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fixture self-test
// ---------------------------------------------------------------------

/// Outcome of one fixture in `--self-test` mode.
#[derive(Debug)]
pub struct FixtureResult {
    /// Fixture directory name.
    pub name: String,
    /// `Ok(())` when the fixture behaved as its `expect.txt` demands.
    pub outcome: Result<(), String>,
}

/// Runs every fixture under `fixtures_dir`. A fixture is a directory with
/// an `expect.txt` naming the single lint that must fire (or `clean` for
/// zero findings); the check must also report nothing *but* that lint.
///
/// # Errors
///
/// Returns any I/O error raised while reading fixtures.
pub fn run_self_test(fixtures_dir: &Path) -> io::Result<Vec<FixtureResult>> {
    let mut results = Vec::new();
    let mut dirs: Vec<PathBuf> = fs::read_dir(fixtures_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let name = dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let expect = fs::read_to_string(dir.join("expect.txt"))?;
        let expect = expect.trim();
        let findings = run_check(&dir)?;
        let outcome = judge_fixture(expect, &findings);
        results.push(FixtureResult { name, outcome });
    }
    Ok(results)
}

fn judge_fixture(expect: &str, findings: &[Finding]) -> Result<(), String> {
    if expect == "clean" {
        return if findings.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "expected no findings, got {}: {}",
                findings.len(),
                findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("; ")
            ))
        };
    }
    let Some(lint) = Lint::from_id(expect) else {
        return Err(format!("unknown lint id {expect:?} in expect.txt"));
    };
    if findings.is_empty() {
        return Err(format!("expected [{}] to fire, but the check passed", lint.id()));
    }
    if let Some(stray) = findings.iter().find(|f| f.lint != lint) {
        return Err(format!("unexpected extra finding: {stray}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both layers over a one-file workspace.
    fn check_str(rel: &str, src: &str) -> Vec<Finding> {
        let source = Ok((PathBuf::from(rel), src.to_string()));
        check_sources([source], &[], &parse::Visibility::new()).expect("in-memory source")
    }

    fn lints_of(findings: &[Finding]) -> Vec<Lint> {
        findings.iter().map(|f| f.lint).collect()
    }

    #[test]
    fn patterns_inside_strings_and_comments_never_fire() {
        // Every trigger sits in a `// hot-path` body in the engine crate, so
        // each code lint would fire if the lexer let one out.
        let src = r##"
// .unwrap() panic!( HashMap Instant::now() Mutex vec![ as u32
// hot-path
pub fn f() -> usize {
    let a = "x.unwrap() panic!(oh) HashMap Instant thread::spawn(x) as u32 vec![1]";
    let b = r#"HashSet Mutex .clone() as usize SystemTime Vec::new()"#;
    /* multi
       line .unwrap() as u32 Mutex */
    a.len() + b.len()
}
"##;
        let findings = check_str("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cfg_test_modules_are_invisible_to_code_lints() {
        let src = "pub fn a() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { \
                   let m = HashMap::new(); let l = Mutex::new(m); let y = 3usize as u32; }\n}\n";
        let findings = check_str("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn braces_in_test_strings_do_not_unbalance_the_span() {
        // A `}` inside a test string would end the cfg(test) span early for
        // a line walker; the lexer keeps it inside the string token.
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"}\";\n    fn t() { \
                   HashMap::new(); }\n}\npub fn lib() { HashSet::new(); }\n";
        let findings = check_str("crates/core/src/x.rs", src);
        assert_eq!(lints_of(&findings), vec![Lint::Determinism]);
        assert_eq!(findings[0].line, 6, "only the library hash set fires");
    }

    #[test]
    fn determinism_bans_clocks_and_entropy() {
        let src = "pub fn f() { let t = Instant::now(); }\n";
        let findings = check_str("crates/algorithms/src/x.rs", src);
        assert_eq!(lints_of(&findings), vec![Lint::Determinism]);
        // Outside the scope, no finding.
        assert!(check_str("crates/bench/src/x.rs", src).is_empty());
        // A justified pragma waives it.
        let waived = "pub fn f() {\n    // nondeterminism-ok: diagnostic only, not in replay\n    \
                      let t = Instant::now();\n}\n";
        assert!(check_str("crates/algorithms/src/x.rs", waived).is_empty());
    }

    #[test]
    fn hash_collections_are_determinism_findings() {
        let src = "use std::collections::HashMap;\npub fn f() {}\n";
        for rel in ["crates/core/src/x.rs", "crates/sim/src/x.rs", "crates/graph/src/x.rs"] {
            assert_eq!(lints_of(&check_str(rel, src)), vec![Lint::Determinism], "{rel}");
        }
        assert!(check_str("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn narrowing_casts_need_an_invariant() {
        let src = "pub fn f(x: u64) -> u32 { x as u32 }\n";
        assert_eq!(lints_of(&check_str("crates/core/src/x.rs", src)), vec![Lint::CastTruncation]);
        let annotated =
            "pub fn f(x: u64) -> u32 {\n    x as u32 // cast-ok: x < 2^32 by construction\n}\n";
        assert!(check_str("crates/core/src/x.rs", annotated).is_empty());
        // Widening casts are fine.
        let widening = "pub fn f(x: u32) -> u64 { x as u64 }\n";
        assert!(check_str("crates/core/src/x.rs", widening).is_empty());
        // `use .. as name` renames are not casts.
        let rename = "use std::vec::Vec as VertexId;\n";
        assert!(check_str("crates/core/src/x.rs", rename).is_empty());
    }

    #[test]
    fn concurrency_only_in_approved_modules() {
        let src = "use std::sync::Mutex;\npub fn f() { std::thread::spawn(|| {}); }\n";
        let findings = check_str("crates/graph/src/x.rs", src);
        assert_eq!(lints_of(&findings), vec![Lint::ConcurrencyDiscipline; 2]);
        assert!(check_str("crates/core/src/sharded.rs", src).is_empty());
        assert!(check_str("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn empty_pragmas_are_flagged() {
        let src = "pub fn f(x: u64) -> u32 {\n    x as u32 // cast-ok:\n}\n";
        let findings = check_str("crates/core/src/x.rs", src);
        assert_eq!(lints_of(&findings), vec![Lint::PragmaJustified]);
        let src = "// nondeterminism-ok:\nuse std::collections::HashMap;\npub fn f() {}\n";
        let findings = check_str("crates/sim/src/x.rs", src);
        assert_eq!(lints_of(&findings), vec![Lint::PragmaJustified]);
    }

    #[test]
    fn hot_path_marker_binds_to_the_next_fn_only() {
        let src = "// hot-path\npub fn fast(buf: &mut Vec<u8>) { buf.push(1); }\n\
                   pub fn slow() -> Vec<u8> { Vec::new() }\n";
        assert!(check_str("crates/core/src/x.rs", src).is_empty());
        let src = "// hot-path\npub fn fast() -> Vec<u8> { let v = Vec::new(); v.clone() }\n";
        let findings = check_str("crates/core/src/x.rs", src);
        assert_eq!(lints_of(&findings), vec![Lint::HotPathAlloc; 2]);
        assert_eq!(findings[0].line, 2);
        // The marker is the opt-in, wherever it sits: the admission path
        // in front of the engine, and any other crate.
        assert_eq!(lints_of(&check_str("crates/serve/src/x.rs", src)), vec![Lint::HotPathAlloc; 2]);
        assert_eq!(lints_of(&check_str("crates/bench/src/x.rs", src)), vec![Lint::HotPathAlloc; 2]);
    }

    #[test]
    fn a_bare_invariant_prefix_is_a_reachable_panic() {
        let src =
            "// hot-path\npub fn fast(x: Option<u8>) -> u8 {\n    x.expect(\"invariant: \")\n}\n";
        let findings = check_str("crates/core/src/x.rs", src);
        assert_eq!(lints_of(&findings), vec![Lint::PanicReachability]);
        assert!(findings.iter().all(|f| f.line == 3), "{findings:?}");
    }

    #[test]
    fn hot_path_marker_in_doc_text_is_inert() {
        let src = "/// Functions marked `// hot-path` are special.\n\
                   pub fn slow() -> Vec<u8> { Vec::new() }\n";
        assert!(check_str("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn section_refs_are_parsed() {
        let refs = section_refs("see §4.6.1 and §5, not §x");
        let secs: Vec<&str> = refs.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(secs, vec!["§4.6.1", "§5"]);
    }
}
