//! Open-loop pacing: operations are *due* on a fixed schedule that does
//! not slow down when the system under test does.
//!
//! Operation `i` is due at `start + i / rate`. The pacer sleeps until then
//! and hands back the **due** time, never the time the caller actually got
//! to run: latency counted from the due time includes the wait a stall
//! imposes on every operation queued behind it, which is what an
//! independent arrival process would see and what a closed loop hides
//! (coordinated omission). How late the generator itself ran — wake-up
//! slack, or a blocked previous send — is recorded per operation as *lag*.

use std::time::{Duration, Instant};

use crate::measure::Samples;

/// Time source and sleeper, so tests can drive the pacer with a fake.
pub trait Clock {
    /// Nanoseconds since an arbitrary origin.
    fn now_ns(&self) -> u64;
    /// Blocks until `now_ns() >= deadline_ns` (or returns at once).
    fn sleep_until(&self, deadline_ns: u64);
}

/// The OS monotonic clock.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        WallClock { origin: Instant::now() }
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn sleep_until(&self, deadline_ns: u64) {
        let now = self.now_ns();
        if deadline_ns > now {
            std::thread::sleep(Duration::from_nanos(deadline_ns - now));
        }
    }
}

/// One paced operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tick {
    /// 0-based position in the schedule.
    pub index: u64,
    /// When the operation was due; count latency from here.
    pub due_ns: u64,
}

/// A fixed-rate schedule.
#[derive(Debug)]
pub struct Pacer {
    start_ns: u64,
    period_ns: u64,
    next: u64,
    lag_us: Samples,
}

impl Pacer {
    /// A schedule of `rate_per_s` operations per second whose first
    /// operation is due at `start_ns`.
    pub fn starting_at(start_ns: u64, rate_per_s: f64) -> Self {
        let period_ns = (1e9 / rate_per_s.max(1e-3)) as u64;
        Pacer { start_ns, period_ns: period_ns.max(1), next: 0, lag_us: Samples::default() }
    }

    /// When operation `index` is due.
    pub fn due_ns(&self, index: u64) -> u64 {
        self.start_ns + index * self.period_ns
    }

    /// Waits for the next operation's due time — returning at once when it
    /// has already passed — and records how late the generator is.
    pub fn wait_next(&mut self, clock: &impl Clock) -> Tick {
        let tick = Tick { index: self.next, due_ns: self.due_ns(self.next) };
        self.next += 1;
        clock.sleep_until(tick.due_ns);
        self.lag_us.push(clock.now_ns().saturating_sub(tick.due_ns) as f64 / 1e3);
        tick
    }

    /// Operations handed out so far.
    pub fn issued(&self) -> u64 {
        self.next
    }

    /// Generator lag per operation, microseconds.
    pub fn into_lag_us(self) -> Samples {
        self.lag_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Time moves only when slept or advanced; every sleep overshoots by
    /// `slack` like a real timer.
    struct FakeClock {
        now: Cell<u64>,
        slack: u64,
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }

        fn sleep_until(&self, deadline_ns: u64) {
            if deadline_ns > self.now.get() {
                self.now.set(deadline_ns + self.slack);
            }
        }
    }

    #[test]
    fn stamps_due_time_not_send_time_and_reports_lag_through_a_stall() {
        let clock = FakeClock { now: Cell::new(1_000), slack: 50 };
        // 1000 ops/s: one per millisecond, first due at t = 1 ms.
        let mut pacer = Pacer::starting_at(1_000_000, 1000.0);
        let a = pacer.wait_next(&clock);
        assert_eq!(a, Tick { index: 0, due_ns: 1_000_000 });
        assert_eq!(clock.now_ns(), 1_000_050, "slept to the due time plus slack");
        // The caller's send blocks for 3.5 periods.
        clock.now.set(clock.now_ns() + 3_500_000);
        let stamps: Vec<u64> = (0..5).map(|_| pacer.wait_next(&clock).due_ns).collect();
        // Due times keep the schedule; they do not slide with the stall.
        assert_eq!(stamps, [2_000_000, 3_000_000, 4_000_000, 5_000_000, 6_000_000]);
        assert_eq!(pacer.issued(), 6);
        let mut lag = pacer.into_lag_us();
        assert_eq!(lag.len(), 6);
        // Ops 1-3 were already overdue when asked for (no sleep): their lag
        // is the stall; ops 0, 4 and 5 only show the timer slack.
        assert_eq!(lag.percentile("lag", 100.0), Some(2500.05));
        assert_eq!(lag.percentile("lag", 50.0), Some(0.05));
        assert_eq!(lag.percentile("lag", 80.0), Some(1500.05));
    }

    #[test]
    fn wall_clock_sleeps_at_least_to_the_deadline() {
        let clock = WallClock::start();
        let deadline = clock.now_ns() + 2_000_000;
        clock.sleep_until(deadline);
        assert!(clock.now_ns() >= deadline);
        clock.sleep_until(0);
    }
}
