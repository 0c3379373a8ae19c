//! Summaries of timing samples: a median plus the highest tail
//! percentile the sample count can support.

/// Tail percentiles considered, highest first. A percentile is reported
/// only when at least [`MIN_BEYOND`] samples lie beyond it, so a "p99"
/// is never the maximum of a handful of samples in disguise.
const TAILS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: f64 = 10.0;

/// A timing distribution as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// Which percentile `tail` is; 100 means the maximum, used when too
    /// few samples exist for any percentile in [`TAILS`].
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
}

impl Summary {
    /// Label of the tail, e.g. `p99` or `max`.
    pub fn tail_label(&self) -> String {
        if self.tail_pct >= 100.0 {
            "max".to_string()
        } else {
            format!("p{}", self.tail_pct)
        }
    }

    /// One human-readable line: `p50=.. p99=.. (n=..)`.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50={:.4}{unit} {}={:.4}{unit} (n={})",
            self.median,
            self.tail_label(),
            self.tail,
            self.n
        )
    }
}

/// The highest percentile in [`TAILS`] with at least [`MIN_BEYOND`] of
/// `n` samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // The tolerance absorbs rounding in `100 - p` (100 - 99.9 is not 0.1).
    TAILS
        .into_iter()
        .find(|&p| n as f64 * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9)
}

/// Percentile `p` (0..=100) of ascending `sorted`, interpolating
/// linearly between the closest ranks.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `samples` (any order).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Summarizes `samples` (any order).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (tail_pct, tail) = match tail_percentile(sorted.len()) {
        Some(p) => (p, percentile(&sorted, p)),
        None => (100.0, sorted[sorted.len() - 1]),
    };
    Summary {
        n: sorted.len(),
        median: percentile(&sorted, 50.0),
        tail_pct,
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_samples() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 51.0);
        assert_eq!(percentile(&xs, 90.0), 91.0);
        assert_eq!(percentile(&xs, 100.0), 101.0);
        // Interpolation between ranks.
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summaries_fall_back_to_the_maximum() {
        let few = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!((few.n, few.median, few.tail), (3, 3.0, 5.0));
        assert_eq!(few.tail_label(), "max");

        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = summarize(&many);
        assert_eq!(s.tail_label(), "p99");
        assert!((s.tail - 989.01).abs() < 1e-9, "{}", s.tail);
        assert_eq!(s.median, 499.5);
    }
}
