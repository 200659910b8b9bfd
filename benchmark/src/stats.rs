//! Order statistics for latency samples, and the rule for which
//! percentile a sample of a given size can support.

/// Percentile levels a tail may be reported at, ascending.
pub const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest rank (1-based) of `pct` among `n > 0` samples. The small
/// slack keeps a product that is a whole number in exact arithmetic
/// (99.9 % of 10 000) from rounding up to the next rank.
fn rank(n: usize, pct: f64) -> usize {
    let exact = pct * n as f64 / 100.0;
    ((exact - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice (`pct` in 0..=100).
/// An empty slice has no percentiles; it reads as 0.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `pct`.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, pct)
}

/// The highest ladder level with at least [`MIN_BEYOND`] samples beyond
/// it, or `None` when even the median has fewer.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&pct| samples_beyond(n, pct) >= MIN_BEYOND)
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Ascending copy of a latency sample, in milliseconds.
pub fn sorted_ms(samples: &[std::time::Duration]) -> Vec<f64> {
    let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_known_sample() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn beyond_counts_the_strict_tail() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(14, 50.0), 7);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(9_999), Some(99.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(40), Some(75.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
