//! Item-level parser and workspace call graph for the call-graph lints
//! (DESIGN.md §14).
//!
//! A linear scan over the token stream from [`crate::lex`] recovers
//! `impl`/`trait` blocks (method containers) and `fn` items (name,
//! receiver, test status, `// hot-path` marker, body span), and records
//! each body's call sites, panic sites ([`crate::SourceFile::panic_op`]
//! plus slice indexing) and allocation sites. Calls resolve *by name and
//! shape* (no type inference) into a workspace call graph. From the
//! `// hot-path` functions and the kernel entries, a reachability pass
//! runs `panic-reachability`; from the `// hot-path` functions alone, it
//! runs `hot-path-alloc`, the only detector of allocations.
//!
//! ## Scope and known soundness gaps
//!
//! The resolver deliberately over-approximates: a method call `.name(..)`
//! edges to *every* method named `name`, a free call `name(..)` to every
//! free function named `name` (falling back to associated functions), and
//! `Type::name(..)` to the `impl Type` block's `name` when one exists.
//! Over-approximation can only produce extra `panic-ok` annotations,
//! never missed panics *within the parsed universe*. The gaps that can
//! under-approximate, accepted and documented here:
//!
//! * calls through function pointers, closures passed as values, and
//!   `(expr)(..)` are invisible;
//! * macro bodies are not expanded (`assert!` internals, `vec![..]`
//!   contents);
//! * panic sources other than the tracked operations — arithmetic
//!   overflow in debug builds, explicit `divide` by zero, allocator
//!   failure — are out of scope;
//! * `expr.0[i]` tuple-field indexing and `self[i]` receiver indexing
//!   are not recognized as indexing sites;
//! * a nested `fn` defined inside another body is parsed as its own
//!   item, and its tokens are excluded from the enclosing body's facts,
//!   but closures remain attributed to the enclosing function.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::lex::TokenKind;
use crate::{Finding, Lint, SourceFile, WaiverLog};

/// Which workspace packages each package can see (itself plus its
/// transitive `[dependencies]`), keyed by package directory relative to
/// the root (`crates/core`, `xtask`). Files in directories not listed
/// (fixture trees, scratch roots) resolve against everything.
pub(crate) type Visibility = BTreeMap<String, BTreeSet<String>>;

/// Derives [`Visibility`] from the workspace `Cargo.toml`s, best-effort:
/// any parse or I/O hiccup just leaves a package out of the map, which
/// degrades to allow-all for its files. Only a tiny TOML subset is read
/// (`name = "..."` under `[package]`, dependency keys under
/// `[dependencies]`), which is all our manifests use.
pub(crate) fn workspace_visibility(root: &Path) -> Visibility {
    let mut candidate_dirs: Vec<PathBuf> = Vec::new();
    for base in [root.to_path_buf(), root.join("crates")] {
        let Ok(entries) = std::fs::read_dir(&base) else { continue };
        for entry in entries.flatten() {
            let dir = entry.path();
            if dir.is_dir() && dir.join("Cargo.toml").is_file() {
                candidate_dirs.push(dir);
            }
        }
    }
    let mut dir_of_pkg: BTreeMap<String, String> = BTreeMap::new();
    let mut deps_of_dir: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for dir in &candidate_dirs {
        let Ok(toml) = std::fs::read_to_string(dir.join("Cargo.toml")) else { continue };
        let Ok(rel) = dir.strip_prefix(root) else { continue };
        let rel = rel.to_string_lossy().replace('\\', "/");
        let mut section = String::new();
        let mut pkg_name = None;
        let mut deps: Vec<String> = Vec::new();
        for line in toml.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                section = line.trim_matches(|c| c == '[' || c == ']').to_string();
                continue;
            }
            if section == "package" {
                if let Some(rest) = line.strip_prefix("name") {
                    let rest = rest.trim_start().trim_start_matches('=').trim();
                    pkg_name = Some(rest.trim_matches('"').to_string());
                }
            } else if section == "dependencies" {
                if let Some((key, _)) = line.split_once('=') {
                    let key = key.trim().trim_end_matches(".workspace").trim();
                    if !key.is_empty() {
                        deps.push(key.to_string());
                    }
                }
            }
        }
        if let Some(name) = pkg_name {
            dir_of_pkg.insert(name, rel.clone());
            deps_of_dir.insert(rel, deps);
        }
    }
    // Transitive closure by fixpoint (the graph is tiny).
    let mut visible: Visibility =
        deps_of_dir.keys().map(|dir| (dir.clone(), BTreeSet::from([dir.clone()]))).collect();
    loop {
        let mut changed = false;
        for (dir, deps) in &deps_of_dir {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for dep in deps {
                if let Some(dep_dir) = dir_of_pkg.get(dep) {
                    if let Some(dep_vis) = visible.get(dep_dir) {
                        add.extend(dep_vis.iter().cloned());
                    }
                }
            }
            let entry = visible.entry(dir.clone()).or_default();
            let before = entry.len();
            entry.extend(add);
            changed |= entry.len() != before;
        }
        if !changed {
            break;
        }
    }
    visible
}

/// The package directory a source path belongs to (`crates/core` for
/// `crates/core/src/queue.rs`, `xtask` for `xtask/src/lex.rs`).
fn crate_dir_of(rel: &Path) -> String {
    let s = rel.to_string_lossy().replace('\\', "/");
    let mut parts = s.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => format!("crates/{name}"),
        (Some(first), _) => first.to_string(),
        _ => String::new(),
    }
}

/// Files whose functions listed in [`KERNEL_ENTRIES`] are
/// `panic-reachability` roots even without a `// hot-path` marker: the
/// event kernel is entered once per event and must never panic, and the
/// serve wire decoders face attacker-controlled bytes on every frame.
const KERNEL_ENTRIES: [(&str, &str); 3] = [
    ("crates/core/src/kernel.rs", "process_event"),
    ("crates/serve/src/protocol.rs", "decode_request"),
    ("crates/serve/src/protocol.rs", "decode_response"),
];

/// Rust keywords, used to reject `if (..)` / `let [a, b]`-style token
/// shapes that would otherwise look like calls or indexing, and by jetmut
/// to tell `if !c` from a `name!(..)` macro bang.
pub(crate) const KEYWORDS: [&str; 40] = [
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "unsafe", "use", "where", "while", "yield",
];

/// One parsed source file: everything the interprocedural passes need,
/// owned (the lexed text is dropped after parsing).
pub struct ParsedFile {
    /// Path relative to the checked root, `/`-separated.
    pub rel: PathBuf,
    /// Every `fn` item found, in source order.
    pub fns: Vec<FnItem>,
}

/// How a call site is spelled, which constrains resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallShape {
    /// `recv.name(..)` — resolves to methods only.
    Method,
    /// `name(..)` — resolves to free functions, then associated fns.
    Free,
    /// `Qual::name(..)` — resolves within `impl Qual` when one exists;
    /// a lowercase qualifier is treated as a module path.
    Qualified(String),
}

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as spelled.
    pub callee: String,
    /// Spelling shape, see [`CallShape`].
    pub shape: CallShape,
}

/// A panic-capable operation inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Human description (`` `.unwrap()` ``, `` `[..]` indexing ``, …).
    pub what: &'static str,
    /// 1-based line.
    pub line: usize,
    /// Line of the `// panic-ok:` pragma covering this site, if any.
    pub waiver_line: Option<usize>,
}

/// An allocation site inside a function body (`hot-path-alloc`'s
/// patterns).
#[derive(Debug, Clone)]
pub struct AllocSite {
    /// Which pattern matched (`Vec::new()`, `vec![..]`, `.clone()`).
    pub what: &'static str,
    /// 1-based line.
    pub line: usize,
}

/// One `fn` item.
pub struct FnItem {
    /// Name as spelled (raw identifiers keep their `r#`).
    pub name: String,
    /// Self type of the enclosing `impl`/`trait` block, if any.
    pub container: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the first parameter is (some form of) `self`.
    pub is_method: bool,
    /// Inside a `#[cfg(test)]` span or under a test directory.
    pub is_test: bool,
    /// Marked `// hot-path`.
    pub hot_path: bool,
    /// Call sites in the body.
    pub calls: Vec<CallSite>,
    /// Panic-capable operations in the body.
    pub panics: Vec<PanicSite>,
    /// Allocation sites in the body.
    pub allocs: Vec<AllocSite>,
}

/// Extents (in code-token indices) used during parsing.
struct RawFn {
    fn_ci: usize,
    name: String,
    body: Option<(usize, usize)>,
    /// One past the last code token of the item (body `}` or the `;`).
    end_ci: usize,
    is_method: bool,
}

/// Parses one lexed file into its function items and per-body facts.
pub(crate) fn parse_file(file: &SourceFile<'_>) -> ParsedFile {
    let n = file.code.len();

    // Containers: (self-type name, start ci, end ci exclusive).
    let mut containers: Vec<(String, usize, usize)> = Vec::new();
    let mut i = 0;
    while i < n {
        if file.is_ident(i, "impl") && impl_in_item_position(file, i) {
            if let Some((name, body_open)) = impl_self_type(file, i) {
                containers.push((name, i, match_brace(file, body_open)));
            }
        } else if file.is_ident(i, "trait") && i + 1 < n && file.ct(i + 1).kind == TokenKind::Ident
        {
            let name = file.ctext(i + 1).to_string();
            if let Some(open) = (i + 2..n).find(|&j| file.is_punct(j, "{")) {
                containers.push((name, i, match_brace(file, open)));
            }
        }
        i += 1;
    }

    // A `// hot-path` marker binds to the next `fn` in the code stream.
    let mut hot_fn_cis: BTreeSet<usize> = BTreeSet::new();
    for (ti, t) in file.tokens.iter().enumerate() {
        if t.kind != TokenKind::LineComment
            || crate::plain_comment_text(t.text(file.text)) != Some("hot-path")
        {
            continue;
        }
        let first = file.code.partition_point(|&idx| idx < ti);
        if let Some(ci) = (first..n).find(|&ci| file.is_ident(ci, "fn")) {
            hot_fn_cis.insert(ci);
        }
    }

    // Function items.
    let mut raw: Vec<RawFn> = Vec::new();
    let mut i = 0;
    while i < n {
        if !file.is_ident(i, "fn") || i + 1 >= n || file.ct(i + 1).kind != TokenKind::Ident {
            // `fn(..)` pointer types have no name ident and are skipped.
            i += 1;
            continue;
        }
        let name = file.ctext(i + 1).to_string();
        let params_open = skip_angles(file, i + 2);
        if !file.is_punct(params_open, "(") {
            i += 1;
            continue;
        }
        let params_close = match_paren(file, params_open);
        let is_method = first_param_is_self(file, params_open, params_close);
        // Scan to the body `{` or the terminating `;` (trait method
        // declaration). `;` inside `[u8; 4]` array types does not
        // terminate.
        let mut k = params_close;
        let mut brackets = 0usize;
        let mut body = None;
        while k < n {
            match file.ctext(k) {
                "[" => brackets += 1,
                "]" => brackets = brackets.saturating_sub(1),
                ";" if brackets == 0 => break,
                "{" => {
                    body = Some((k, match_brace(file, k)));
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let end_ci = body.map_or_else(|| (k + 1).min(n), |(_, e)| e);
        raw.push(RawFn { fn_ci: i, name, body, end_ci, is_method });
        // Continue scanning *inside* the body so nested items are found.
        i += 2;
    }

    let is_test_file = crate::is_test_path(file.rel);
    let mut fns = Vec::with_capacity(raw.len());
    for (ri, rf) in raw.iter().enumerate() {
        let fn_tok = file.ct(rf.fn_ci);
        let container = containers
            .iter()
            .filter(|&&(_, s, e)| s < rf.fn_ci && rf.fn_ci < e)
            .min_by_key(|&&(_, s, e)| e - s)
            .map(|(name, _, _)| name.clone());
        // Exclude every other fn item nested inside this body from the
        // fact scan, so a helper's panics are attributed to the helper.
        let nested: Vec<(usize, usize)> = raw
            .iter()
            .enumerate()
            .filter(|&(rj, other)| {
                rj != ri && rf.body.is_some_and(|(bs, be)| other.fn_ci > bs && other.fn_ci < be)
            })
            .map(|(_, other)| (other.fn_ci, other.end_ci))
            .collect();
        let mut item = FnItem {
            name: rf.name.clone(),
            container,
            line: fn_tok.line,
            is_method: rf.is_method,
            is_test: is_test_file || file.in_test(fn_tok.start),
            hot_path: hot_fn_cis.contains(&rf.fn_ci),
            calls: Vec::new(),
            panics: Vec::new(),
            allocs: Vec::new(),
        };
        if let Some((bs, be)) = rf.body {
            collect_facts(file, bs + 1, be.saturating_sub(1), &nested, &mut item);
        }
        fns.push(item);
    }

    ParsedFile { rel: PathBuf::from(file.rel.to_string_lossy().replace('\\', "/")), fns }
}

/// True when the `impl` at code index `i` starts an impl *item* rather
/// than appearing in type position (`-> impl Iterator`, `(impl Trait)`).
fn impl_in_item_position(file: &SourceFile<'_>, i: usize) -> bool {
    if i == 0 {
        return true;
    }
    let prev = file.ctext(i - 1);
    matches!(prev, "}" | "{" | ";" | "]") || prev == "unsafe"
}

/// Extracts the self-type name of an impl block and the code index of
/// its opening `{`. `impl<T> Trait for Type<T> { .. }` yields `Type`;
/// `impl Type { .. }` yields `Type`.
fn impl_self_type(file: &SourceFile<'_>, impl_ci: usize) -> Option<(String, usize)> {
    let mut j = skip_angles(file, impl_ci + 1);
    let (first, after_first) = read_type_path(file, j)?;
    j = skip_angles(file, after_first);
    let name = if file.is_ident(j, "for") {
        let (second, after_second) = read_type_path(file, j + 1)?;
        j = skip_angles(file, after_second);
        second
    } else {
        first
    };
    let open = (j..file.code.len()).find(|&k| file.is_punct(k, "{"))?;
    Some((name, open))
}

/// Reads a type path (`a::b::C`, skipping leading `&`/`mut`/`dyn` and
/// lifetimes) and returns its last segment plus the index just past it.
fn read_type_path(file: &SourceFile<'_>, mut j: usize) -> Option<(String, usize)> {
    let n = file.code.len();
    while j < n
        && (file.is_punct(j, "&")
            || file.is_ident(j, "mut")
            || file.is_ident(j, "dyn")
            || file.ct(j).kind == TokenKind::Lifetime)
    {
        j += 1;
    }
    if j >= n || file.ct(j).kind != TokenKind::Ident {
        return None;
    }
    let mut last = file.ctext(j).to_string();
    j += 1;
    while j + 1 < n
        && file.is_punct(j, ":")
        && file.is_punct(j + 1, ":")
        && j + 2 < n
        && file.ct(j + 2).kind == TokenKind::Ident
    {
        last = file.ctext(j + 2).to_string();
        j += 3;
    }
    Some((last, j))
}

/// Skips a balanced `<...>` group starting at `j`, if one starts there.
/// `->` arrows inside (e.g. `Fn(u32) -> u64` bounds) do not close the
/// group; `>>` is two tokens and closes two levels, as in real generics.
fn skip_angles(file: &SourceFile<'_>, j: usize) -> usize {
    if !file.is_punct(j, "<") {
        return j;
    }
    let n = file.code.len();
    let mut depth = 1usize;
    let mut k = j + 1;
    while k < n && depth > 0 {
        if file.is_punct(k, "<") {
            depth += 1;
        } else if file.is_punct(k, ">") && !file.is_punct(k - 1, "-") {
            depth -= 1;
        }
        k += 1;
    }
    k
}

/// Index one past the `}` matching the `{` at `open` (or `code.len()`).
fn match_brace(file: &SourceFile<'_>, open: usize) -> usize {
    let mut depth = 0usize;
    for k in open..file.code.len() {
        match file.ctext(k) {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
    }
    file.code.len()
}

/// Index one past the `)` matching the `(` at `open` (or `code.len()`).
fn match_paren(file: &SourceFile<'_>, open: usize) -> usize {
    let mut depth = 0usize;
    for k in open..file.code.len() {
        match file.ctext(k) {
            "(" => depth += 1,
            ")" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
    }
    file.code.len()
}

/// True when the first parameter of the list `(open .. close)` contains
/// `self` (covers `self`, `&self`, `&'a mut self`, `self: Box<Self>`).
fn first_param_is_self(file: &SourceFile<'_>, open: usize, close: usize) -> bool {
    let mut depth = 1usize;
    for k in open + 1..close.saturating_sub(1) {
        match file.ctext(k) {
            "(" | "[" | "{" | "<" => depth += 1,
            // `>` as part of a `->` arrow (in an `impl Fn(..) -> T`
            // parameter type) does not close a group.
            ">" if file.is_punct(k - 1, "-") => {}
            ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
            "," if depth == 1 => return false,
            "self" if file.ct(k).kind == TokenKind::Ident => return true,
            _ => {}
        }
    }
    false
}

/// Scans `[from, to)` (code-token indices), skipping nested fn extents,
/// and records call, panic, and allocation sites into `item`.
fn collect_facts(
    file: &SourceFile<'_>,
    from: usize,
    to: usize,
    nested: &[(usize, usize)],
    item: &mut FnItem,
) {
    let mut ci = from;
    while ci < to {
        if let Some(&(_, end)) = nested.iter().find(|&&(s, e)| ci >= s && ci < e) {
            ci = end;
            continue;
        }
        let tok = file.ct(ci);
        match tok.kind {
            TokenKind::Ident => {
                let name = file.ctext(ci);
                let prev_dot = ci > from && file.is_punct(ci - 1, ".");
                if let Some(what) = file.panic_op(ci) {
                    push_panic(file, item, what, tok.line);
                }
                if name == "Vec"
                    && file.is_punct(ci + 1, ":")
                    && file.is_punct(ci + 2, ":")
                    && file.is_ident(ci + 3, "new")
                    && file.is_punct(ci + 4, "(")
                    && file.is_punct(ci + 5, ")")
                {
                    item.allocs.push(AllocSite { what: "Vec::new()", line: tok.line });
                } else if name == "vec" && file.is_punct(ci + 1, "!") {
                    item.allocs.push(AllocSite { what: "vec![..]", line: tok.line });
                } else if name == "clone"
                    && prev_dot
                    && file.is_punct(ci + 1, "(")
                    && file.is_punct(ci + 2, ")")
                {
                    item.allocs.push(AllocSite { what: ".clone()", line: tok.line });
                }
                // Call sites: `name(` that is not a macro and not a
                // keyword; the shape depends on what precedes the name.
                if file.is_punct(ci + 1, "(") && !KEYWORDS.contains(&name) {
                    let shape = if prev_dot {
                        CallShape::Method
                    } else if ci >= from + 3
                        && file.is_punct(ci - 1, ":")
                        && file.is_punct(ci - 2, ":")
                        && file.ct(ci - 3).kind == TokenKind::Ident
                    {
                        match file.ctext(ci - 3) {
                            // Module-relative paths resolve like free calls.
                            "self" | "crate" | "super" => CallShape::Free,
                            q => CallShape::Qualified(q.to_string()),
                        }
                    } else {
                        CallShape::Free
                    };
                    item.calls.push(CallSite { callee: name.to_string(), shape });
                }
            }
            TokenKind::Punct if file.ctext(ci) == "[" && ci > from => {
                // Indexing: `expr[..]` where the expression ends in an
                // identifier, `)`, or `]`. Attributes (`#[`), macros
                // (`![`), slice literals (`&[`), and patterns
                // (`let [a, b]`) all fail this shape.
                let p = ci - 1;
                let prev = file.ct(p);
                let is_index = match prev.kind {
                    TokenKind::Ident => !KEYWORDS.contains(&file.ctext(p)),
                    TokenKind::Punct => matches!(file.ctext(p), ")" | "]"),
                    _ => false,
                };
                if is_index {
                    push_panic(file, item, "`[..]` indexing", file.ct(ci).line);
                }
            }
            _ => {}
        }
        ci += 1;
    }
}

fn push_panic(file: &SourceFile<'_>, item: &mut FnItem, what: &'static str, line: usize) {
    let waiver_line = file.waiver_at(line, "panic-ok").map(|(l, _)| l);
    item.panics.push(PanicSite { what, line, waiver_line });
}

// ---------------------------------------------------------------------
// Call graph + interprocedural lints
// ---------------------------------------------------------------------

/// A node index into the flattened workspace function list.
type Node = usize;

/// The resolved workspace call graph over non-test functions.
pub struct CallGraph<'a> {
    files: &'a [ParsedFile],
    /// `(file index, fn index)` per node.
    nodes: Vec<(usize, usize)>,
    /// Resolved callee nodes per node.
    edges: Vec<Vec<Node>>,
}

impl<'a> CallGraph<'a> {
    /// Builds the graph: nodes are non-test functions; edges resolve
    /// each call site by name and shape. Name-based resolution is scoped
    /// by `visibility`: a call in package X only resolves into X or
    /// packages X depends on, which kills reverse-dependency ghosts like
    /// `core::drain_bits → xtask::Lexer::push`. Files whose package is
    /// absent from the map (fixture trees) resolve against everything.
    pub fn build(files: &'a [ParsedFile], visibility: &Visibility) -> Self {
        let mut nodes = Vec::new();
        let mut index: BTreeMap<(usize, usize), Node> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (gi, g) in f.fns.iter().enumerate() {
                if !g.is_test {
                    index.insert((fi, gi), nodes.len());
                    nodes.push((fi, gi));
                }
            }
        }
        let item = |node: Node| -> &FnItem {
            let (fi, gi) = nodes[node];
            &files[fi].fns[gi]
        };

        let mut methods: BTreeMap<&str, Vec<Node>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<Node>> = BTreeMap::new();
        let mut assoc: BTreeMap<&str, Vec<Node>> = BTreeMap::new();
        let mut by_container: BTreeMap<(&str, &str), Vec<Node>> = BTreeMap::new();
        for node in 0..nodes.len() {
            let f = item(node);
            if f.is_method {
                methods.entry(&f.name).or_default().push(node);
            } else if f.container.is_none() {
                free.entry(&f.name).or_default().push(node);
            } else {
                assoc.entry(&f.name).or_default().push(node);
            }
            if let Some(c) = &f.container {
                by_container.entry((c, &f.name)).or_default().push(node);
            }
        }

        let crate_dirs: Vec<String> = files.iter().map(|f| crate_dir_of(&f.rel)).collect();
        let mut edges: Vec<Vec<Node>> = vec![Vec::new(); nodes.len()];
        for node in 0..nodes.len() {
            let caller = item(node);
            let caller_vis = visibility.get(&crate_dirs[nodes[node].0]);
            let visible = |t: &Node| match caller_vis {
                Some(vis) => vis.contains(&crate_dirs[nodes[*t].0]),
                None => true,
            };
            let mut out: BTreeSet<Node> = BTreeSet::new();
            for call in &caller.calls {
                let name = call.callee.as_str();
                let pick = |m: &BTreeMap<&str, Vec<Node>>| -> Vec<Node> {
                    m.get(name)
                        .map(|v| v.iter().copied().filter(|t| visible(t)).collect())
                        .unwrap_or_default()
                };
                let free_then_assoc = || -> Vec<Node> {
                    let v = pick(&free);
                    if v.is_empty() {
                        pick(&assoc)
                    } else {
                        v
                    }
                };
                let targets: Vec<Node> = match &call.shape {
                    CallShape::Method => pick(&methods),
                    CallShape::Free => free_then_assoc(),
                    CallShape::Qualified(q) => {
                        let qual =
                            if q == "Self" { caller.container.as_deref().unwrap_or(q) } else { q };
                        let by_ty: Vec<Node> = by_container
                            .get(&(qual, name))
                            .map(|v| v.iter().copied().filter(|t| visible(t)).collect())
                            .unwrap_or_default();
                        if !by_ty.is_empty() {
                            by_ty
                        } else if q.starts_with(|c: char| c.is_ascii_lowercase()) {
                            // A module path: `kernel::process_event(..)`.
                            free_then_assoc()
                        } else {
                            // Unknown type (std or generated): no edge.
                            Vec::new()
                        }
                    }
                };
                out.extend(targets);
            }
            edges[node] = out.into_iter().collect();
        }
        CallGraph { files, nodes, edges }
    }

    fn item(&self, node: Node) -> &FnItem {
        let (fi, gi) = self.nodes[node];
        &self.files[fi].fns[gi]
    }

    fn rel(&self, node: Node) -> &std::path::Path {
        &self.files[self.nodes[node].0].rel
    }

    /// Display name (`Type::name` for methods and associated fns).
    fn label(&self, node: Node) -> String {
        let f = self.item(node);
        match &f.container {
            Some(c) => format!("{c}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// BFS from `roots`; returns the reachable set and a parent map for
    /// sample-chain reconstruction.
    fn reach(&self, roots: &[Node]) -> (BTreeSet<Node>, BTreeMap<Node, Node>) {
        let mut seen: BTreeSet<Node> = roots.iter().copied().collect();
        let mut parent: BTreeMap<Node, Node> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<Node> = roots.iter().copied().collect();
        while let Some(node) = queue.pop_front() {
            for &next in &self.edges[node] {
                if seen.insert(next) {
                    parent.insert(next, node);
                    queue.push_back(next);
                }
            }
        }
        (seen, parent)
    }

    /// `root → … → node` sample chain for a finding message.
    fn chain(&self, node: Node, parent: &BTreeMap<Node, Node>) -> String {
        let mut labels = vec![self.label(node)];
        let mut cur = node;
        while let Some(&p) = parent.get(&cur) {
            labels.push(self.label(p));
            cur = p;
        }
        labels.reverse();
        labels.join(" → ")
    }
}

/// Runs the call-graph lints over the parsed workspace:
/// `panic-reachability` and `hot-path-alloc`. It marks the `panic-ok`
/// waivers it consulted, so [`WaiverLog::report_dead`] runs after it.
pub(crate) fn check_interprocedural(
    files: &[ParsedFile],
    visibility: &Visibility,
    findings: &mut Vec<Finding>,
    waivers: &mut WaiverLog,
) {
    let graph = CallGraph::build(files, visibility);

    let is_kernel_entry = |node: Node| -> bool {
        let rel = graph.rel(node).to_string_lossy().replace('\\', "/");
        KERNEL_ENTRIES
            .iter()
            .any(|&(path, name)| rel.ends_with(path) && graph.item(node).name == name)
    };
    let hot_roots: Vec<Node> = (0..graph.nodes.len()).filter(|&n| graph.item(n).hot_path).collect();
    let panic_roots: Vec<Node> =
        (0..graph.nodes.len()).filter(|&n| graph.item(n).hot_path || is_kernel_entry(n)).collect();

    // panic-reachability: every panic site in a reachable function needs
    // a `// panic-ok:` waiver. Consulted waivers count as used even on
    // root functions themselves.
    let (reach, parent) = graph.reach(&panic_roots);
    for &node in &reach {
        let f = graph.item(node);
        for site in &f.panics {
            if let Some(wline) = site.waiver_line {
                waivers.mark_used(graph.rel(node), wline, "panic-ok");
                continue;
            }
            findings.push(Finding {
                lint: Lint::PanicReachability,
                file: graph.rel(node).to_path_buf(),
                line: site.line,
                message: format!(
                    "{what} is panic-capable and reachable from a panic-free root: \
                     `{chain}` — restructure (e.g. `.get(..)`) or prove it cannot fire \
                     with `// panic-ok: <why>`",
                    what = site.what,
                    chain = graph.chain(node, &parent),
                ),
            });
        }
    }
    // Waivers on *unreachable* panic sites still count as used when the
    // site exists: they document a local invariant and will matter the
    // moment the function becomes reachable. (Waivers with no panic
    // site on their line at all fall through to dead-waiver.)
    for f in files {
        for g in &f.fns {
            for site in &g.panics {
                if let Some(wline) = site.waiver_line {
                    waivers.mark_used(&f.rel, wline, "panic-ok");
                }
            }
        }
    }

    // hot-path-alloc: allocations in a `// hot-path` function or in
    // anything reachable from one.
    let (hot_reach, hot_parent) = graph.reach(&hot_roots);
    for &node in &hot_reach {
        let f = graph.item(node);
        for site in &f.allocs {
            findings.push(Finding {
                lint: Lint::HotPathAlloc,
                file: graph.rel(node).to_path_buf(),
                line: site.line,
                message: format!(
                    "`{what}` allocates in `{name}`, on the `// hot-path` chain \
                     `{chain}` — hot paths must not allocate in steady state (DESIGN.md \
                     §12); reuse a scratch buffer or move the allocation out of the chain",
                    what = site.what,
                    name = graph.label(node),
                    chain = graph.chain(node, &hot_parent),
                ),
            });
        }
    }
}
