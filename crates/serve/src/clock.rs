//! Time source for the admission flush timer.
//!
//! Everything time-dependent in the server flows through the [`Clock`]
//! trait so tests can drive the admission deadline logic deterministically
//! with [`ManualClock`]; only [`MonotonicClock`] touches the OS clock, in
//! this one module, under the repo determinism lint's justified-waiver
//! rule (DESIGN.md §15.2).

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic nanosecond counter. `0` is an arbitrary origin; only
/// differences are meaningful.
pub trait Clock: Send {
    /// Nanoseconds since the clock's origin.
    fn now_ns(&self) -> u64;
}

/// The production clock, backed by the OS monotonic clock.
#[derive(Debug)]
pub struct MonotonicClock {
    // nondeterminism-ok: the serving layer's flush timer is wall-clock-driven by design; every use is confined to this Clock impl so the engine stays deterministic
    origin: std::time::Instant,
}

impl MonotonicClock {
    /// A clock whose origin is the moment of construction.
    pub fn fresh() -> Self {
        // nondeterminism-ok: sole OS-clock read point backing the Clock trait; see the module doc
        MonotonicClock { origin: std::time::Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::fresh()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        let d = self.origin.elapsed();
        d.as_secs().saturating_mul(1_000_000_000).saturating_add(u64::from(d.subsec_nanos()))
    }
}

/// A hand-cranked clock for deterministic tests: time only moves when
/// [`ManualClock::advance_ns`] is called.
#[derive(Debug, Default)]
pub struct ManualClock {
    ns: AtomicU64,
}

impl ManualClock {
    /// A clock stopped at 0 ns.
    pub fn at_zero() -> Self {
        ManualClock::default()
    }

    /// Moves time forward by `delta` nanoseconds.
    pub fn advance_ns(&self, delta: u64) {
        self.ns.fetch_add(delta, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_only_moves_when_advanced() {
        let c = ManualClock::at_zero();
        assert_eq!(c.now_ns(), 0);
        c.advance_ns(5);
        c.advance_ns(7);
        assert_eq!(c.now_ns(), 12);
    }

    #[test]
    fn monotonic_clock_does_not_go_backwards() {
        let c = MonotonicClock::fresh();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
