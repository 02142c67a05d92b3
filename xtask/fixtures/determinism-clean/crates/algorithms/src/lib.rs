//! Fixture: deterministic code, plus one justified wall-clock exception.

use std::collections::BTreeMap;

/// Ordered state map — deterministic iteration, no waiver needed.
pub fn state_map() -> BTreeMap<u32, f64> {
    BTreeMap::new()
}

/// Progress logging may read the wall clock: it never feeds replayed state.
pub fn log_stamp_ms() -> u128 {
    // nondeterminism-ok: diagnostic timestamp only, never enters engine state
    let start = std::time::Instant::now();
    start.elapsed().as_millis()
}
