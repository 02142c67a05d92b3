//! Telling the host's speed from the program's time.
//!
//! The benchmark runs on a shared 2-core virtual machine. CPU-bound work
//! there repeats within 2 %, but the memory system is shared with other
//! tenants: for minutes at a time every cache-missing load gets slower,
//! and the streaming engines on 500 k-edge graphs are made of such loads.
//! The median batch time of one binary on one seed ranged from 28 to 52 ms
//! between runs a few minutes apart.
//!
//! So every timed interval carries a reading of a *canary*: a fixed burst
//! of random read-modify-writes over a 16 MiB buffer, which does no work
//! for the program under test and whose time depends on the host alone.
//! Run over the same batches in three host states, 40-batch medians of
//! engine time followed the canary with correlation 0.88 and slope 1.24
//! (log-log). Each sample is therefore scaled by
//! `CANARY_REFERENCE_US / canary`, i.e. reported as the time it would
//! have taken on a host whose canary reads the reference value; scaled
//! medians of those runs agreed within 5 % where the raw ones differed by
//! 40 %. Raw figures are printed beside the scaled ones, always.
//!
//! In-process workloads take a probe on the measuring thread before and
//! after each sample, while the engine is idle. The served workload cannot
//! be interleaved with, so a [`HostMonitor`] thread probes every 10 ms
//! (2.5 % of one core) and samples are scaled by the readings nearest them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::measure::median;
use crate::openloop::{Clock, WallClock};

/// The canary reading of a quiet host of this class, microseconds: what
/// every timing is scaled to. Changing it rescales every timing metric by
/// the same factor.
pub const CANARY_REFERENCE_US: f64 = 260.0;

/// Random accesses per probe (about a quarter millisecond).
const PROBE_ACCESSES: usize = 20_000;

/// Probes on each side of a bracketed interval.
const BRACKET_PROBES: usize = 15;

/// Canary buffer: 16 MiB, several times the private cache of a core.
const BUFFER_WORDS: usize = 2 << 20;

/// The memory-system probe.
#[derive(Debug)]
pub struct Canary {
    buffer: Vec<u64>,
    state: u64,
}

impl Canary {
    /// Allocates and touches the probe buffer.
    pub fn ready() -> Self {
        Canary { buffer: (0..BUFFER_WORDS as u64).collect(), state: 0x9e37_79b9_7f4a_7c15 }
    }

    /// One probe: microseconds for [`PROBE_ACCESSES`] random
    /// read-modify-writes at independent addresses.
    pub fn probe_us(&mut self) -> f64 {
        let start = std::time::Instant::now();
        let mut x = self.state;
        for _ in 0..PROBE_ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if let Some(slot) = self.buffer.get_mut(x as usize % BUFFER_WORDS) {
                *slot = slot.wrapping_add(x);
            }
        }
        self.state = x;
        start.elapsed().as_secs_f64() * 1e6
    }

    /// The median of [`BRACKET_PROBES`] probes: a steadier reading for the
    /// few long intervals that get only one on each side.
    fn steady_us(&mut self) -> f64 {
        let mut readings: Vec<f64> = (0..BRACKET_PROBES).map(|_| self.probe_us()).collect();
        median(&mut readings).unwrap_or(CANARY_REFERENCE_US)
    }

    /// Runs `work` between two steady readings and returns its result, its
    /// wall time in seconds, and that time scaled to the reference host.
    pub fn bracket<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.steady_us();
        let start = std::time::Instant::now();
        let out = work();
        let seconds = start.elapsed().as_secs_f64();
        let after = self.steady_us();
        (out, seconds, seconds * scale(&[before, after]))
    }
}

/// The factor that takes a time measured beside `readings` (microseconds)
/// to the reference host: `CANARY_REFERENCE_US / mean(readings)`; 1 when
/// there is no reading.
pub fn scale(readings: &[f64]) -> f64 {
    if readings.is_empty() {
        return 1.0;
    }
    CANARY_REFERENCE_US / (readings.iter().sum::<f64>() / readings.len() as f64)
}

/// Interval between the monitor's probes.
const MONITOR_PERIOD: Duration = Duration::from_millis(10);

/// How far outside an interval the monitor's readings still count for it.
const MONITOR_PAD_NS: u64 = 50_000_000;

/// A thread that probes the host on a fixed period while something else
/// is being measured.
#[derive(Debug)]
pub struct HostMonitor {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<HostReadings>,
}

/// What a [`HostMonitor`] saw: `(time, canary microseconds)` in time order.
#[derive(Debug, Default, Clone)]
pub struct HostReadings {
    at_ns: Vec<u64>,
    us: Vec<f64>,
}

impl HostMonitor {
    /// Starts probing; readings are stamped on `clock`.
    pub fn start(clock: WallClock) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut canary = Canary::ready();
            let mut seen = HostReadings::default();
            while !flag.load(Ordering::Relaxed) {
                let at = clock.now_ns();
                seen.us.push(canary.probe_us());
                seen.at_ns.push(at);
                std::thread::sleep(MONITOR_PERIOD);
            }
            seen
        });
        HostMonitor { stop, thread }
    }

    /// Stops the thread and hands back what it saw (nothing, should the
    /// thread have died).
    pub fn finish(self) -> HostReadings {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().unwrap_or_default()
    }
}

impl HostReadings {
    /// The factor that takes a time measured during `[from_ns, to_ns]` to
    /// the reference host: [`scale`] of the median reading taken within
    /// 50 ms of the interval, or of all readings when none was.
    pub fn scale(&self, from_ns: u64, to_ns: u64) -> f64 {
        let lo = self.at_ns.partition_point(|&t| t + MONITOR_PAD_NS < from_ns);
        let hi = self.at_ns.partition_point(|&t| t <= to_ns + MONITOR_PAD_NS);
        let mut near = self.us.get(lo..hi).unwrap_or_default().to_vec();
        if near.is_empty() {
            near = self.us.clone();
        }
        median(&mut near).map_or(1.0, |level| scale(&[level]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_time_and_moves_its_state() {
        let mut canary = Canary::ready();
        let before = canary.state;
        assert!(canary.probe_us() > 0.0);
        assert_ne!(canary.state, before);
        let (out, raw, scaled) = canary.bracket(|| 7);
        assert_eq!(out, 7);
        assert!(raw >= 0.0 && scaled >= 0.0);
    }

    #[test]
    fn scale_is_reference_over_mean_reading() {
        assert_eq!(scale(&[]), 1.0);
        assert_eq!(scale(&[CANARY_REFERENCE_US]), 1.0);
        // A host reading twice the reference halves every time.
        assert_eq!(scale(&[2.0 * CANARY_REFERENCE_US, 2.0 * CANARY_REFERENCE_US]), 0.5);
        assert_eq!(scale(&[130.0, 390.0]), 1.0);
    }

    #[test]
    fn readings_scale_by_what_was_seen_near_the_interval() {
        // One reading every 10 ms for a second: quiet, except 400..600 ms.
        let mut seen = HostReadings::default();
        for i in 0..100u64 {
            seen.at_ns.push(i * 10_000_000);
            seen.us.push(if (40..60).contains(&i) { 520.0 } else { 260.0 });
        }
        assert_eq!(seen.scale(100_000_000, 200_000_000), 1.0);
        assert_eq!(seen.scale(460_000_000, 540_000_000), 0.5);
        // An interval beyond every reading falls back to the overall median.
        assert_eq!(seen.scale(5_000_000_000, 6_000_000_000), 1.0);
        assert_eq!(HostReadings::default().scale(0, 1), 1.0);
    }

    #[test]
    fn monitor_collects_readings_until_finished() {
        let clock = WallClock::start();
        let monitor = HostMonitor::start(clock);
        std::thread::sleep(Duration::from_millis(60));
        let seen = monitor.finish();
        assert!(seen.us.len() >= 2, "{} readings", seen.us.len());
        assert!(seen.at_ns.windows(2).all(|w| w[0] < w[1]));
        assert!(seen.scale(0, clock.now_ns()) > 0.0);
    }
}
