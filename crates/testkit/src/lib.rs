//! Minimal in-repo property-testing runner.
//!
//! The workspace builds fully offline, so instead of an external property
//! testing framework the test suites use this runner: each property is a
//! closure over a [`DetRng`], executed for a configurable number of
//! deterministically-seeded cases. On failure the runner reports the
//! case's seed so it can be replayed in isolation:
//!
//! ```text
//! JETSTREAM_PROP_SEED=0xdeadbeef cargo test -p jetstream-core queue_props
//! ```
//!
//! There is no shrinking; properties should generate *small* inputs (tens
//! of vertices, dozens of events) so a failing case is directly readable.
//!
//! # Example
//!
//! ```
//! use jetstream_testkit::{run_cases, DetRng};
//!
//! run_cases("addition commutes", 64, |rng| {
//!     let a = rng.next_u64() >> 1;
//!     let b = rng.next_u64() >> 1;
//!     assert_eq!(a + b, b + a);
//! });
//! ```

pub use jetstream_graph::rng::DetRng;

mod model;
pub mod schedule;

pub use model::EdgeModel;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Environment variable that replays a single failing case by seed.
pub const SEED_ENV: &str = "JETSTREAM_PROP_SEED";

/// Environment variable that overrides the number of cases per property.
pub const CASES_ENV: &str = "JETSTREAM_PROP_CASES";

/// FNV-1a hash of the property name; namespaces seeds so two properties
/// with the same case index still see different inputs.
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn parse_u64(value: &str) -> Option<u64> {
    let v = value.trim();
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

/// Runs `property` for `cases` deterministically-seeded random cases.
///
/// Honors [`SEED_ENV`] (run exactly one case with that seed) and
/// [`CASES_ENV`] (override the case count). On a panic inside the
/// property, prints the failing seed and re-raises the panic so the test
/// harness reports it normally.
///
/// # Panics
///
/// Re-raises whatever the property panicked with.
pub fn run_cases(name: &str, cases: u64, property: impl Fn(&mut DetRng)) {
    if let Some(seed) = std::env::var(SEED_ENV).ok().as_deref().and_then(parse_u64) {
        eprintln!("[testkit] replaying '{name}' with {SEED_ENV}={seed:#x}");
        let mut rng = DetRng::seed_from_u64(seed);
        property(&mut rng);
        return;
    }
    let cases = std::env::var(CASES_ENV).ok().as_deref().and_then(parse_u64).unwrap_or(cases);
    let base = fnv1a(name);
    for case in 0..cases {
        // Golden-ratio stride decorrelates consecutive case seeds.
        let seed = base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = DetRng::seed_from_u64(seed);
            property(&mut rng);
        }));
        if let Err(payload) = outcome {
            eprintln!(
                "[testkit] property '{name}' failed on case {case}/{cases}; \
                 replay with {SEED_ENV}={seed:#x}"
            );
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_executes_every_case() {
        let mut count = 0u64;
        let counter = std::cell::Cell::new(0u64);
        run_cases("counting", 10, |_| counter.set(counter.get() + 1));
        count += counter.get();
        assert_eq!(count, 10);
    }

    #[test]
    fn failing_property_reports_and_panics() {
        let result = catch_unwind(|| {
            run_cases("always fails", 3, |_| panic!("boom"));
        });
        assert!(result.is_err());
    }

    #[test]
    fn parse_u64_accepts_hex_and_decimal() {
        assert_eq!(parse_u64("0x10"), Some(16));
        assert_eq!(parse_u64("42"), Some(42));
        assert_eq!(parse_u64("nope"), None);
    }
}
