//! Order statistics over per-round samples.

/// The median of `values` (the mean of the two middle values for an even
/// count); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// The value at fraction `q` of `values` (nearest rank); `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

/// Samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `values`: the highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it, as `(value, percentile)`. With too few
/// samples for that, the maximum at percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return (f64::NAN, 100.0);
    }
    if n <= TAIL_BEYOND {
        return (sorted[n - 1], 100.0);
    }
    let at = n - 1 - TAIL_BEYOND;
    (sorted[at], 100.0 * (at + 1) as f64 / n as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, percentile) = tail(&values);
        assert_eq!(value, 90.0);
        assert_eq!(percentile, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > value).count(), TAIL_BEYOND);
        assert_eq!(tail(&[5.0, 1.0]), (5.0, 100.0));
    }

    #[test]
    fn quantile_picks_the_nearest_rank() {
        let values = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&values, 0.0), 10.0);
        assert_eq!(quantile(&values, 0.5), 30.0);
        assert_eq!(quantile(&values, 1.0), 50.0);
    }
}
