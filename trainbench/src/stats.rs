//! The benchmark's own statistics: medians, quartiles, the tail
//! percentile it reports, and the steadiness bound check.

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads this benchmark prints match any re-check done in Python.
/// `None` for fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    Some((q3 - q1) / median(xs).abs())
}

/// The percentiles the tail metric may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of `n` samples that leaves at least ten
/// samples beyond it (nearest-rank), falling back to the median when
/// fewer than 40 samples leave no real tail.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER.iter().copied().find(|&p| n >= 40 && n - nearest_rank(p, n) >= 10).unwrap_or(50.0)
}

/// One-based nearest rank of percentile `p` (to a tenth of a percent)
/// among `n` samples, in integer arithmetic so 99.9 % of 10 000 is
/// exactly rank 9 990.
fn nearest_rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `xs`; `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return f64::NAN;
    }
    s[nearest_rank(p, s.len()) - 1]
}

/// Whether a metric's spread stays within its bound: the interquartile
/// range, as a share of the median, may not exceed `bound`. Fewer than
/// two values give no spread and pass.
pub fn within_bound(xs: &[f64], bound: f64) -> bool {
    iqr_share(xs).is_none_or(|s| s <= bound)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // Few values extrapolate past the ends: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), 50.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        for n in 40..3000 {
            let p = tail_percentile(n);
            assert!(n - nearest_rank(p, n) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.9), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn bound_check_uses_iqr_over_median() {
        // quartiles 2.75 / 8.25 around median 5.5: spread exactly 1.0
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&xs), Some(1.0));
        assert!(within_bound(&xs, 1.0));
        assert!(!within_bound(&xs, 0.99));
        assert!(within_bound(&[5.0; 10], 0.0));
        assert!(within_bound(&[5.0], 0.0));
    }
}
