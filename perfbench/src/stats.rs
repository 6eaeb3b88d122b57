//! Order statistics for latency samples and for run-to-run spreads.
//!
//! A tail percentile is reported only when at least [`MIN_BEYOND`] samples
//! lie beyond it; with fewer it would describe a handful of outliers, not a
//! tail.

/// Samples that must lie strictly beyond a percentile for it to be printed.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `v` ascending (NaN-free input).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    s
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones a Python reader computes.
/// Needs at least two samples.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(v);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median (0 when undefined).
pub fn iqr_share(v: &[f64]) -> f64 {
    match quartiles(v) {
        Some([q1, _, q3]) => {
            let m = median(v);
            if m == 0.0 {
                0.0
            } else {
                (q3 - q1) / m.abs()
            }
        }
        None => 0.0,
    }
}

/// Nearest-rank percentile `p` (in `(0, 1)`) of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The highest of p99.9 / p99 / p90 that has enough samples beyond it.
pub fn best_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    [0.999, 0.99, 0.9]
        .into_iter()
        .find_map(|p| tail_percentile(sorted, p).map(|v| (p, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0; 10]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990 and exactly 10 lie beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        // 999 samples: rank 990 leaves only 9 beyond, so p99 is withheld.
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&short, 0.99), None);
        // p90 of 100 samples has exactly 10 beyond it.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&hundred, 0.99), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn best_tail_picks_highest_supported_percentile() {
        let v: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(best_tail(&v), Some((0.999, 19_980.0)));
        let v: Vec<f64> = (1..=2_000).map(f64::from).collect();
        assert_eq!(best_tail(&v), Some((0.99, 1_980.0)));
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(best_tail(&v), None);
    }
}
