//! CI entry point for the schedule sanitizer (DESIGN.md §13.3).
//!
//! Runs the default [`ScheduleFuzzer`] sweep — 24 schedules (seeded
//! per-worker yield and chunk plans) over SSSP/BFS/PageRank ×
//! Tag/Dap/DapRestore — differentially against the sequential oracle
//! under the sharded equivalence contract (DESIGN.md §16.3), and exits
//! non-zero on the first failure.
//!
//! Invoked by `cargo xtask check --sanitize`.

use jetstream_testkit::schedule::ScheduleFuzzer;

fn main() {
    match ScheduleFuzzer::default().run() {
        Ok(report) => {
            println!(
                "schedule sanitizer: {} schedules, {} differential runs, {} step comparisons \
                 — all within the equivalence contract of the sequential oracle",
                report.schedules, report.runs, report.comparisons
            );
        }
        Err(failure) => {
            eprintln!("schedule sanitizer FAILED: {failure}");
            std::process::exit(1);
        }
    }
}
