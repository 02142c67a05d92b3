//! `jetmut` — a std-only mutation-testing harness built on the jetlint
//! token stream (`cargo xtask mutate`, DESIGN.md §18).
//!
//! The pipeline has three stages, one module each plus shared plumbing:
//!
//! * [`sites`] walks the lexed token stream of every non-test source file
//!   in [`MUTATION_SCOPE`] and discovers mutation sites with the operator
//!   set in [`ops`] — small, type-preserving source edits drawn from this
//!   codebase's real bug classes (boundary flips, arithmetic and bit-op
//!   swaps, range flips, negation deletion, delete-strategy swaps, …).
//! * [`patch`] applies one site at a time as a byte-span splice and
//!   restores the original file through a drop guard, so an interrupted
//!   run can never leave a mutant in the tree.
//! * [`runner`] rebuilds the workspace per mutant and runs the curated
//!   kill suite from `xtask/kill_suite.toml` under per-suite timeouts
//!   derived from a measured baseline, classifying each mutant as
//!   killed / survived / timeout / unviable; [`report`] serializes the
//!   outcome as the deterministic `MUTATION.json` under the same
//!   versioned envelope as `cargo xtask check --json`.
//!
//! Survivor triage is enforced by jetlint itself: a surviving mutant is
//! either killed by a new test or waived with `// mutation-ok: <reason>`
//! on its line (or the line above), and a `mutation-ok` waiver that does
//! not cover any discovered mutation site is a `dead-waiver` finding
//! (see `cargo xtask explain MUTATION-WAIVER`).

pub mod ops;
pub mod patch;
pub mod report;
pub mod runner;
pub mod sites;

/// Source trees mutated by jetmut: the engine, the algorithms' edge
/// operators it folds rows with, the graph structures, the serving layer,
/// and the durable store. Test paths and `#[cfg(test)]` spans inside these
/// trees are never mutated (mutating a test mutates the oracle).
pub const MUTATION_SCOPE: [&str; 5] = [
    "crates/core/src",
    "crates/algorithms/src",
    "crates/graph/src",
    "crates/serve/src",
    "crates/store/src",
];
