//! Order statistics used by the benchmark's metrics and by `compare`.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` % of the samples at or below it. `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// One-based nearest rank of the `p`-th percentile among `n >= 1`
/// samples. The epsilon keeps products such as `90 × 100 / 100` from
/// rounding up past an exact rank.
fn rank(n: usize, p: f64) -> usize {
    let r = (p * n as f64 / 100.0 - 1e-9).ceil();
    (r.max(1.0) as usize).min(n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of `candidates` (ascending percentiles) that has at least
/// ten samples beyond it among `n` samples: the tail a run of that size
/// can support.
pub fn supported_tail(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .rfind(|&p| samples_beyond(n, p) >= 10)
}

/// Sorts a copy of `values` ascending (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some(0.5 * (s[n / 2 - 1] + s[n / 2])),
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here match the
/// ones computed from a set of result files with that function. `None`
/// below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&s, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&s, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let tails = [50.0, 90.0, 99.0, 99.9];
        // 19 samples: p50 is the 10th, only 9 lie beyond it.
        assert_eq!(supported_tail(19, &tails), None);
        assert_eq!(supported_tail(20, &tails), Some(50.0));
        // p90 of 100 is the 90th sample: exactly 10 beyond.
        assert_eq!(supported_tail(99, &tails), Some(50.0));
        assert_eq!(supported_tail(100, &tails), Some(90.0));
        assert_eq!(supported_tail(1_000, &tails), Some(99.0));
        assert_eq!(supported_tail(200_000, &tails), Some(99.9));
        assert_eq!(supported_tail(0, &tails), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }
}
