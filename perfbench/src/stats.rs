//! Order statistics for timings: medians, nearest-rank percentiles, and
//! the rule that picks the highest percentile a sample can support.

/// Percentiles tried, highest first, when reporting a tail.
pub const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
/// Integer arithmetic on thousandths of a percent, so `p = 99` over
/// 1000 samples is rank 990 exactly, not 991 after a rounding error.
pub fn rank(n: usize, p: f64) -> usize {
    let milli = (p * 1000.0).round() as u128;
    let r = (milli * n as u128).div_ceil(100_000) as usize;
    r.clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, and that count. `None` when even
/// the median has fewer than ten samples above it.
pub fn tail_percentile(n: usize) -> Option<(f64, usize)> {
    TAIL_LADDER
        .iter()
        .map(|&p| (p, beyond(n, p)))
        .find(|&(_, b)| b >= MIN_BEYOND)
}

/// Nearest-rank percentile of an unsorted sample (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// Median of an unsorted sample: the mean of the two middle values for
/// an even count (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some((99.0, 100)));
        assert_eq!(tail_percentile(1_000), Some((99.0, 10)));
        assert_eq!(tail_percentile(999), Some((90.0, 99)));
        assert_eq!(tail_percentile(100), Some((90.0, 10)));
        assert_eq!(tail_percentile(99), Some((50.0, 49)));
        assert_eq!(tail_percentile(20), Some((50.0, 10)));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&[3.0], 99.9), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
