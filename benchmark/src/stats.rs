//! Exact order statistics on raw samples.

/// The `q`-quantile (0..=1) of `sorted` by the nearest-rank rule: the
/// smallest sample with at least `q` of the samples at or below it. Exact,
/// no interpolation, so a failed request's +inf stand-in surfaces as soon
/// as failures exceed `1 - q` of the window.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a small set of per-slice or per-batch values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_on_raw_samples() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.50), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 0.999), 100);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
        // 1,000 samples: p99 is the 990th, and 10 lie beyond it.
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(quantile_sorted(&v, 0.99), 989);
    }

    #[test]
    fn a_failed_request_counts_as_infinitely_slow() {
        let mut v = vec![10u64; 99];
        v.push(u64::MAX);
        v.sort_unstable();
        assert_eq!(quantile_sorted(&v, 0.99), 10);
        v[97] = u64::MAX;
        v.sort_unstable();
        assert_eq!(quantile_sorted(&v, 0.99), u64::MAX);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1, 2, 3]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
