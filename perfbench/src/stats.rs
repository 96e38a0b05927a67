//! The harness's own arithmetic: medians, the tail-percentile rule, and
//! failure accounting.

/// Samples that must lie strictly beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `samples` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`: the smallest
/// sample with at least `p`% of all samples at or below it.
///
/// # Panics
/// Panics on an empty slice, a NaN sample or `p` outside (0, 100].
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    let s = sorted(samples);
    s[rank(s.len(), p) - 1]
}

/// Percentile `p` of `samples` when at least [`TAIL_SAMPLES`] samples lie
/// beyond its nearest rank, so that the value rests on more than a handful
/// of outliers; `None` otherwise.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let k = rank(samples.len(), p);
    (samples.len() - k >= TAIL_SAMPLES).then(|| nearest_rank(samples, p))
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    // Exact for the integer percentiles the harness asks for: p·n is an
    // integer product before the division.
    let k = (p * n as f64 / 100.0).ceil() as usize;
    k.clamp(1, n)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "statistic of no samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    s
}

/// Operations attempted and failed. One operation counts as failed at most
/// once, however many of its checks fail.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation; `failures` lists its failed checks (a nonzero
    /// exit, a wrong output, an error reply, a missing reply, a retry).
    pub fn record(&mut self, failures: &[bool]) {
        self.attempted += 1;
        if failures.iter().any(|&f| f) {
            self.failed += 1;
        }
    }

    /// Records `n` operations that never got an answer (a connection that
    /// died before them): each is attempted and failed.
    pub fn record_missing(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted operations; 1 when nothing was attempted, so
    /// an empty run never reads as a clean one.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // n = 100: rank 90, samples 91..=100 lie beyond it.
        assert_eq!(tail_percentile(&one_to(100), 90.0), Some(90.0));
        // n = 99: rank ceil(89.1) = 90 leaves only 9 beyond.
        assert_eq!(tail_percentile(&one_to(99), 90.0), None);
        // n = 110: rank 99, 11 beyond.
        assert_eq!(tail_percentile(&one_to(110), 90.0), Some(99.0));
        // p50 needs n ≥ 20.
        assert_eq!(tail_percentile(&one_to(20), 50.0), Some(10.0));
        assert_eq!(tail_percentile(&one_to(19), 50.0), None);
        // p99 needs n ≥ 1000.
        assert_eq!(tail_percentile(&one_to(1000), 99.0), Some(990.0));
        assert_eq!(tail_percentile(&one_to(999), 99.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn nearest_rank_ignores_input_order() {
        let mut v = one_to(10);
        v.reverse();
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
        assert_eq!(nearest_rank(&v, 1.0), 1.0);
    }

    #[test]
    fn failed_ratio_counts_each_operation_once() {
        let mut t = Tally::default();
        t.record(&[false, false]);
        // A nonzero exit that also produced wrong bytes is one failure.
        t.record(&[true, true]);
        t.record(&[]);
        t.record(&[false, true]);
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.failed_ratio(), 0.5);
        // Replies lost to a dead connection are attempted and failed.
        t.record_missing(4);
        assert_eq!((t.attempted, t.failed), (8, 6));
        assert_eq!(t.failed_ratio(), 0.75);
        let mut sum = Tally::default();
        sum.add(t);
        sum.add(Tally {
            attempted: 2,
            failed: 0,
        });
        assert_eq!(sum.failed_ratio(), 0.6);
    }

    #[test]
    fn an_empty_run_is_not_a_clean_run() {
        assert_eq!(Tally::default().failed_ratio(), 1.0);
    }
}
