//! Order statistics for latency samples.
//!
//! A tail percentile is only reported where the sample supports it: at
//! least [`MIN_BEYOND`] samples must lie beyond it. A run too short for
//! p99 reports the highest percentile it does support and says so.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `q` among `n >= 1` samples. The
/// epsilon keeps `q = k / n` on rank `k` despite binary rounding.
fn rank(n: usize, q: f64) -> usize {
    let r = (q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted slice (`q` in `[0, 1]`).
/// Returns `None` for an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n` samples.
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The highest percentile, no higher than `want`, that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it. `None` when even the median
/// would not (fewer than about twenty samples).
#[must_use]
pub fn supported_tail(n: usize, want: f64) -> Option<f64> {
    if beyond(n, want) >= MIN_BEYOND {
        return Some(want);
    }
    if n <= MIN_BEYOND {
        return None;
    }
    // Rank n - MIN_BEYOND leaves exactly MIN_BEYOND samples beyond it.
    let q = (n - MIN_BEYOND) as f64 / n as f64;
    (q >= 0.5).then_some(q)
}

/// A latency sample summary: median, supported tail, and how it was
/// obtained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile actually reported (0.99 unless the sample was
    /// too small).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
    /// Samples beyond `tail`.
    pub beyond: usize,
    /// Largest sample.
    pub max: f64,
}

/// Summarises `samples` (sorted in place) with p50 and the p99 the sample
/// supports. `None` when there are too few samples for any tail.
pub fn summarize(samples: &mut [f64]) -> Option<Summary> {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let tail_q = supported_tail(n, 0.99)?;
    Some(Summary {
        n,
        p50: percentile(samples, 0.5)?,
        tail_q,
        tail: percentile(samples, tail_q)?,
        beyond: beyond(n, tail_q),
        max: *samples.last()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn beyond_counts_samples_past_the_rank() {
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(1001, 0.99), 10);
        assert_eq!(beyond(2000, 0.5), 1000);
        assert_eq!(beyond(0, 0.99), 0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples leave exactly ten beyond p99: p99 stands.
        assert_eq!(supported_tail(1000, 0.99), Some(0.99));
        assert_eq!(supported_tail(26_000, 0.99), Some(0.99));
        // 999 would leave nine: fall back to the highest percentile with
        // ten beyond.
        let q = supported_tail(999, 0.99).expect("supported");
        assert!(q < 0.99);
        assert_eq!(beyond(999, q), MIN_BEYOND);
        let q = supported_tail(200, 0.99).expect("supported");
        assert!((q - 0.95).abs() < 1e-12);
        assert_eq!(beyond(200, q), 10);
        // Too few samples for any tail at or above the median.
        assert_eq!(supported_tail(10, 0.99), None);
        assert_eq!(supported_tail(19, 0.99), None);
        assert!(supported_tail(20, 0.99).is_some());
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&mut v).expect("summary");
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.beyond, 10);
        assert_eq!(s.max, 1000.0);

        let mut short: Vec<f64> = (1..=500).map(f64::from).collect();
        let s = summarize(&mut short).expect("summary");
        assert!(s.tail_q < 0.99);
        assert_eq!(s.tail, 490.0);
        assert_eq!(s.beyond, 10);
        assert!(summarize(&mut [1.0, 2.0]).is_none());
    }
}
