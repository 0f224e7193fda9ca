//! Order statistics used by the error-distribution figures.

use serde::Serialize;

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of `values` using linear
/// interpolation between order statistics, or `None` for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be within [0, 1]");
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values must not be NaN"));
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    if low == high {
        Some(sorted[low])
    } else {
        let fraction = position - low as f64;
        Some(sorted[low] * (1.0 - fraction) + sorted[high] * fraction)
    }
}

/// The five summary statistics reported for each sample instant in Figure 7:
/// 10th percentile, median, mean, 90th percentile, plus the sample count.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// 10th percentile.
    pub p10: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl Summary {
    /// Computes the summary of a sample; all fields are zero for an empty
    /// sample.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Summary::default();
        }
        Summary {
            count: values.len(),
            p10: percentile(values, 0.10).expect("non-empty"),
            median: percentile(values, 0.50).expect("non-empty"),
            mean: values.iter().sum::<f64>() / values.len() as f64,
            p90: percentile(values, 0.90).expect("non-empty"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_empty_is_none() {
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_interpolates() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&values, 0.0), Some(1.0));
        assert_eq!(percentile(&values, 1.0), Some(5.0));
        assert_eq!(percentile(&values, 0.5), Some(3.0));
        assert_eq!(percentile(&values, 0.25), Some(2.0));
        // Quantile falling between order statistics.
        let values = [0.0, 10.0];
        assert_eq!(percentile(&values, 0.75), Some(7.5));
    }

    #[test]
    fn percentile_is_order_insensitive() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&a, 0.9), percentile(&b, 0.9));
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn out_of_range_quantile_panics() {
        let _ = percentile(&[1.0], 1.5);
    }

    #[test]
    fn summary_matches_hand_computation() {
        let values = [-10.0, 0.0, 10.0, 20.0];
        let s = Summary::of(&values);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.median, 5.0);
        assert!(s.p10 < s.median && s.median < s.p90);
    }

    #[test]
    fn summary_of_empty_is_zero() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }
}
