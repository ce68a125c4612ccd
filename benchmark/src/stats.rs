//! Order statistics over wall-clock samples.

/// The median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// The highest percentile that still has [`TAIL_SUPPORT`] samples beyond
/// it, as `(value, percentile in 0..1)`. With too few samples no tail is
/// supported and the median is returned (as percentile 0.5).
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n <= TAIL_SUPPORT {
        return (median(values), 0.5);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = n - 1 - TAIL_SUPPORT;
    (v[idx], (idx + 1) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1..=1000: ten samples (991..=1000) lie beyond 990 = p99.
        let v: Vec<f64> = (1..=1000).rev().map(|i| i as f64).collect();
        assert_eq!(tail(&v), (990.0, 0.99));
        // 11 samples: only the smallest has ten beyond it.
        let v: Vec<f64> = (1..=11).map(|i| i as f64).collect();
        assert_eq!(tail(&v), (1.0, 1.0 / 11.0));
        // 100 samples: p90.
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(tail(&v), (90.0, 0.9));
    }

    #[test]
    fn tail_falls_back_to_the_median_without_support() {
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(tail(&v), (5.5, 0.5));
    }
}
