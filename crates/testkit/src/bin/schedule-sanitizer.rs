//! CI entry point for the dynamic sanitizers (DESIGN.md §13.3 + §14.3).
//!
//! Two phases, exiting non-zero on the first failure:
//!
//! 1. the default [`ScheduleFuzzer`] sweep — 24 schedules (seeded
//!    per-worker yield and chunk plans) over SSSP/BFS/PageRank × Tag/Dap —
//!    differentially against the sequential oracle under the sharded
//!    equivalence contract (DESIGN.md §16.3), with every run's sync trace
//!    replayed through the vector-clock race checker;
//! 2. the race checker's self-test: the deliberately seeded ordering bug
//!    in [`race::seeded_ordering_bug_trace`] **must** be detected (a
//!    sanitizer that cannot find a planted race proves nothing).
//!
//! Invoked by `cargo xtask check --sanitize`.

use jetstream_testkit::race::{self, TraceError};
use jetstream_testkit::schedule::ScheduleFuzzer;

fn main() {
    match ScheduleFuzzer::default().run() {
        Ok(report) => {
            println!(
                "schedule sanitizer: {} schedules, {} differential runs, {} step comparisons \
                 — all within the equivalence contract of the sequential oracle",
                report.schedules, report.runs, report.comparisons
            );
            println!(
                "race sanitizer: {} trace events across all runs — zero unordered \
                 conflicting accesses",
                report.trace_events
            );
        }
        Err(failure) => {
            eprintln!("schedule sanitizer FAILED: {failure}");
            std::process::exit(1);
        }
    }

    // Detection self-test: the checker must flag the planted race.
    match race::check_trace(&race::seeded_ordering_bug_trace()) {
        Err(TraceError::Race(found)) => {
            println!("race sanitizer self-test: seeded ordering bug detected ({found})");
        }
        Err(other) => {
            eprintln!("race sanitizer self-test FAILED: seeded trace reported {other}, not a race");
            std::process::exit(1);
        }
        Ok(_) => {
            eprintln!(
                "race sanitizer self-test FAILED: the seeded ordering bug was NOT detected — \
                 the checker proves nothing"
            );
            std::process::exit(1);
        }
    }
}
