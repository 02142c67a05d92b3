//! Benchmark harness regenerating every table and figure of the JetStream
//! paper's evaluation (§6).
//!
//! * [`harness`] — one `run_*` function per system (JetStream, GraphPulse
//!   cold-start, KickStarter, GraphBolt) over a shared [`harness::Scenario`]
//!   description, with dataset caching.
//! * [`experiments`] — one regenerator per table/figure, producing markdown
//!   blocks with measured values next to the paper's reference numbers.
//!
//! Run `cargo run --release -p jetstream-bench --bin experiments -- all`
//! to regenerate everything (writes `EXPERIMENTS.md` at the workspace
//! root when invoked there), or name an individual artifact:
//! `experiments table3`, `experiments fig12`, …
//!
//! The `microbench` binary ([`micro`]) times the engine's components
//! (queue, kernel, CSR snapshot) with warmup + median-of-K sampling and
//! owns `BENCH.json` at the repo root (schema in DESIGN.md §12).

pub mod experiments;
pub mod harness;
pub mod micro;
