//! The benchmark's own arithmetic: percentiles, medians and ratios.

/// Percentiles considered for a latency tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`p` in 0..=100): the smallest
/// sample with at least `p`% of the samples at or below it.  0 for no
/// samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (the 50th nearest-rank percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, for `n` samples.  `None` when even
/// the median has fewer than that many samples above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND as f64 - 1e-9)
}

/// The `want` percentile of `samples`, lowered to the highest percentile
/// that still has [`TAIL_MIN_BEYOND`] samples beyond it (the median when
/// there are too few samples for any tail).
pub fn tail(samples: &[f64], want: f64) -> f64 {
    let p = tail_percentile(samples.len()).map_or(50.0, |p| p.min(want));
    percentile(samples, p)
}

/// A ratio that is always reported together with its base (the number of
/// attempts it is taken over).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Useful outcomes.
    pub hits: u64,
    /// Attempts: the base of the ratio.
    pub base: u64,
}

impl Ratio {
    /// `hits` out of `hits + misses`.
    pub fn of_hits(hits: u64, misses: u64) -> Ratio {
        Ratio {
            hits,
            base: hits + misses,
        }
    }

    /// `hits / base`, or 0 when nothing was attempted.
    pub fn value(self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.hits as f64 / self.base as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn tail_never_reports_a_percentile_without_its_samples() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        // p99 of 200 samples would rest on 2 samples: p95 is reported.
        assert_eq!(tail(&samples, 99.0), 190.0);
        assert_eq!(tail(&samples, 90.0), 180.0);
        assert_eq!(tail(&samples[..5], 99.0), 3.0);
    }

    #[test]
    fn ratios_carry_their_base() {
        let r = Ratio::of_hits(3, 1);
        assert_eq!(r.base, 4);
        assert_eq!(r.value(), 0.75);
        let empty = Ratio::of_hits(0, 0);
        assert_eq!(empty.base, 0);
        assert_eq!(empty.value(), 0.0);
    }
}
