//! Order statistics for timing samples.
//!
//! Every timing the benchmark reports is a [`Summary`]: the median, the
//! first and third quartiles and the sample count. A tail percentile is
//! only meaningful when enough samples lie beyond it, so
//! [`percentile_supported`] refuses to report a percentile with fewer than
//! [`MIN_TAIL_SAMPLES`] samples above it.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Linear-interpolation quantile of an ascending slice (`q` in `[0, 1]`),
/// the same rule as NumPy's default and Python's
/// `statistics.quantiles(method="inclusive")`.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` lies outside `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let position = q * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    let weight = position - below as f64;
    sorted[below] + (sorted[above] - sorted[below]) * weight
}

/// Sorts a sample ascending (NaNs are a bug in the caller).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    sorted
}

/// Median of an unsorted sample.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The `p`-th percentile (`p` in `[0, 100]`) of an unsorted sample, or
/// `None` when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it: with
/// `n` samples, a percentile `p` leaves about `n * (100 - p) / 100` samples
/// above it, so p90 needs at least 100 samples and the median at least 20.
pub fn percentile_supported(samples: &[f64], p: f64) -> Option<f64> {
    let beyond = samples.len() as f64 * (100.0 - p) / 100.0;
    if samples.is_empty() || beyond < MIN_TAIL_SAMPLES as f64 {
        return None;
    }
    Some(quantile(&sorted(samples), p / 100.0))
}

/// Median, quartiles and count of a timing sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes an unsorted sample.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Summary {
        let sorted = sorted(samples);
        Summary {
            n: sorted.len(),
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
        }
    }

    /// One JSON object with the four fields (numbers at full precision).
    pub fn to_json(self) -> String {
        format!(
            "{{\"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}}}",
            self.n, self.q1, self.median, self.q3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_interpolate_linearly() {
        let summary = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(summary.n, 5);
        assert_eq!(summary.q1, 2.0);
        assert_eq!(summary.median, 3.0);
        assert_eq!(summary.q3, 4.0);
        let even = Summary::of(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(even.q1, 17.5);
        assert_eq!(even.q3, 32.5);
    }

    #[test]
    fn quantile_endpoints_are_min_and_max() {
        let sample = sorted(&[5.0, -1.0, 9.0, 2.0]);
        assert_eq!(quantile(&sample, 0.0), -1.0);
        assert_eq!(quantile(&sample, 1.0), 9.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile_supported(&hundred, 90.0).expect("100 samples carry p90");
        assert!((p90 - 90.1).abs() < 1e-9, "{p90}");
        assert_eq!(percentile_supported(&hundred[..99], 90.0), None);
        // The median needs 20 samples, p99 a thousand.
        assert!(percentile_supported(&hundred[..20], 50.0).is_some());
        assert_eq!(percentile_supported(&hundred[..19], 50.0), None);
        assert_eq!(percentile_supported(&hundred, 99.0), None);
        assert_eq!(percentile_supported(&[], 50.0), None);
    }

    #[test]
    fn summary_json_carries_every_field() {
        let json = Summary::of(&[1.0, 2.0]).to_json();
        for key in ["\"n\": 2", "\"q1\"", "\"median\": 1.5", "\"q3\""] {
            assert!(json.contains(key), "{json} lacks {key}");
        }
    }
}
