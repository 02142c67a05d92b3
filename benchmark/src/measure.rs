//! The arithmetic behind every reported number: medians, nearest-rank
//! percentiles and which of them a sample count can support, spread
//! measures for calibration, and the peak-RSS reader.

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that the "tail" is a handful of outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The percentiles the benchmark may name, ascending.
pub const PERCENTILE_LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Sorts `values` and returns the median (mean of the middle pair for an
/// even count), or `None` when empty.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    let upper = *values.get(mid)?;
    if values.len() % 2 == 1 {
        return Some(upper);
    }
    Some((*values.get(mid - 1)? + upper) / 2.0)
}

/// Nearest-rank 1-based rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at rank 9990, not 9991.
    let r = ((p.clamp(0.0, 100.0) / 100.0) * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Number of samples strictly beyond percentile `p` among `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// True when `n` samples support reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
}

/// The highest percentile of [`PERCENTILE_LADDER`] that `n` samples
/// support, or `None` when not even the median has ten samples beyond it.
pub fn highest_supported(n: usize) -> Option<f64> {
    PERCENTILE_LADDER.iter().copied().rfind(|&p| supports(n, p))
}

/// Nearest-rank percentile `p` of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    sorted.get(rank(sorted.len(), p).checked_sub(1)?).copied()
}

/// Latency samples of one kind, summarised on demand.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Percentile `p`, or `None` when empty. Warns on stderr when the
    /// count does not support it (the number is still reported: a refused
    /// run would hide a slow host behind a missing metric).
    pub fn percentile(&mut self, what: &str, p: f64) -> Option<f64> {
        self.values.sort_by(f64::total_cmp);
        if !supports(self.values.len(), p) {
            eprintln!(
                "warning: {what}: p{p} from {} samples has only {} beyond it (highest supported: {:?})",
                self.values.len(),
                samples_beyond(self.values.len(), p),
                highest_supported(self.values.len()),
            );
        }
        percentile_sorted(&self.values, p)
    }
}

/// `(max − min) / median` of `values`; the calibration rule's spread.
pub fn range_over_median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    let med = median(&mut v)?;
    Some((v.last()? - v.first()?) / med)
}

/// Interquartile range over median, with quartiles as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them —
/// the spread the acceptance check computes over ten seeds.
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    let med = median(&mut v)?;
    if v.len() < 2 {
        return None;
    }
    let quantile = |k: usize| {
        let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - pos.floor();
        Some(v.get(j - 1)? + frac * (v.get(j)? - v.get(j - 1)?))
    };
    Some((quantile(3)? - quantile(1)?) / med)
}

/// Extracts `VmHWM` (peak resident set, kB) from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.split_whitespace().next()?.parse().ok()
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_vm_hwm_kb(&status)? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn picker_needs_ten_samples_beyond() {
        // p50 of 20 is rank 10: exactly ten beyond.
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        // p95 of 200 is rank 190: ten beyond; 199 leaves nine.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert!(!supports(999, 99.0));
    }

    #[test]
    fn percentiles_follow_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), Some(50.0));
        assert_eq!(percentile_sorted(&sorted, 95.0), Some(95.0));
        assert_eq!(percentile_sorted(&sorted, 100.0), Some(100.0));
        assert_eq!(percentile_sorted(&sorted, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&[], 50.0), None);
        let mut s = Samples::default();
        for v in [5.0, 1.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.percentile("t", 50.0), Some(3.0));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn spreads_match_the_reference_definitions() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let iqr = iqr_over_median(&v).expect("ten values");
        assert!((iqr - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{iqr}");
        assert_eq!(range_over_median(&v), Some(9.0 / 5.5));
        assert_eq!(iqr_over_median(&[1.0]), None);
    }

    #[test]
    fn vm_hwm_parser_reads_the_kernel_format() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    123456 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
