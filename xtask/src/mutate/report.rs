//! MUTATION.json serialization and the per-crate summary table.
//!
//! The report shares the diagnostics envelope of `cargo xtask check
//! --json` (version 2): a `version` + `tool` header and a `findings`
//! array whose entries all carry the stable-id triple `id` / `file` /
//! `line` plus a human `message` — downstream tooling parses one schema
//! for lints (`tool: "jetlint"`, `id` = lint id) and mutants
//! (`tool: "jetmut"`, `id` = mutant id). Mutant entries add their
//! structured classification fields on top.
//!
//! The report is deterministic: no wall-clock times, entries in corpus
//! order, so two CI runs over the same tree diff byte-identically.

use crate::json_escape_into;

use super::runner::{MutantResult, Status};

/// Serializes classified mutants as MUTATION.json.
pub(crate) fn mutation_json(results: &[MutantResult], shard: Option<(usize, usize)>) -> String {
    let mut out = String::from("{\n  \"version\": 2,\n  \"tool\": \"jetmut\",\n");
    if let Some((index, count)) = shard {
        out.push_str(&format!("  \"shard\": \"{index}/{count}\",\n"));
    }
    out.push_str("  \"findings\": [");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"id\": \"");
        out.push_str(&r.site.id);
        out.push_str("\", \"file\": \"");
        json_escape_into(&r.site.file.to_string_lossy().replace('\\', "/"), &mut out);
        out.push_str("\", \"line\": ");
        out.push_str(&r.site.line.to_string());
        out.push_str(", \"message\": \"");
        let by = r.killed_by.as_deref().map(|s| format!(" by {s}")).unwrap_or_default();
        json_escape_into(
            &format!("{} ({}): {}{}", r.site.edit(), r.site.op, r.status.as_str(), by),
            &mut out,
        );
        out.push_str("\", \"op\": \"");
        out.push_str(r.site.op);
        out.push_str("\", \"original\": \"");
        json_escape_into(&r.site.orig, &mut out);
        out.push_str("\", \"replacement\": \"");
        json_escape_into(&r.site.repl, &mut out);
        out.push_str("\", \"status\": \"");
        out.push_str(r.status.as_str());
        out.push('"');
        if let Some(by) = &r.killed_by {
            out.push_str(", \"killed_by\": \"");
            json_escape_into(by, &mut out);
            out.push('"');
        }
        if r.site.waived.is_some() {
            out.push_str(", \"waived\": true");
        }
        if r.seeded {
            out.push_str(", \"seeded\": true");
        }
        out.push('}');
    }
    if !results.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"count\": ");
    out.push_str(&results.len().to_string());
    let (killed, survived, timeout, unviable) = tally(results);
    out.push_str(&format!(
        ",\n  \"summary\": {{\"killed\": {killed}, \"survived\": {survived}, \
         \"timeout\": {timeout}, \"unviable\": {unviable}}}\n}}\n"
    ));
    out
}

fn tally(results: &[MutantResult]) -> (usize, usize, usize, usize) {
    let count = |s: Status| results.iter().filter(|r| r.status == s).count();
    (
        count(Status::Killed),
        count(Status::Survived),
        count(Status::Timeout),
        count(Status::Unviable),
    )
}

/// Prints the per-crate classification table and the overall score.
pub(crate) fn print_summary(results: &[MutantResult]) {
    println!("            crate  killed  survived  timeout  unviable  (waived)");
    let mut crates: Vec<&str> = Vec::new();
    for r in results {
        let c = crate_of(r);
        if !crates.contains(&c) {
            crates.push(c);
        }
    }
    crates.sort_unstable();
    for c in crates {
        let rows: Vec<&MutantResult> = results.iter().filter(|r| crate_of(r) == c).collect();
        let n = |s: Status| rows.iter().filter(|r| r.status == s).count();
        let waived =
            rows.iter().filter(|r| r.status == Status::Survived && r.site.waived.is_some()).count();
        println!(
            "{c:>17}  {:>6}  {:>8}  {:>7}  {:>8}  {waived:>8}",
            n(Status::Killed),
            n(Status::Survived),
            n(Status::Timeout),
            n(Status::Unviable),
        );
    }
    let (killed, survived, timeout, unviable) = tally(results);
    let waived =
        results.iter().filter(|r| r.status == Status::Survived && r.site.waived.is_some()).count();
    let denom = (killed + survived + timeout).saturating_sub(waived);
    let detected = killed + timeout;
    print!(
        "total: {killed} killed, {survived} survived ({waived} waived), {timeout} timeout, \
         {unviable} unviable"
    );
    if denom > 0 {
        println!("; score {detected}/{denom} = {:.0}%", 100.0 * detected as f64 / denom as f64);
    } else {
        println!();
    }
}

/// The `crates/<name>` prefix a mutant's file lives under.
fn crate_of(r: &MutantResult) -> &str {
    let s = r.site.file.to_str().unwrap_or_default();
    let Some(rest) = s.strip_prefix("crates/") else { return "other" };
    match rest.split('/').next() {
        Some("core") => "crates/core",
        Some("graph") => "crates/graph",
        Some("serve") => "crates/serve",
        Some("store") => "crates/store",
        _ => "other",
    }
}
