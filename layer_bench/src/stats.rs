//! Order statistics: nearest-rank percentiles with the "ten samples
//! beyond" honesty rule, and the quartile spread the repeatability
//! check (`--repeat`) and the benchmark driver both use.

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((n as f64 * q).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly beyond the `q` percentile's rank. A
/// percentile is only worth reporting with at least ten of them: with
/// fewer, one slow request moves it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Does `n` samples support reporting the `q` percentile?
pub fn supports(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

/// Sort a copy and take the nearest-rank percentile.
pub fn percentile_of(values: &[u64], q: f64) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    percentile(&v, q)
}

/// Median of floats (mean of the middle two when even); 0 when empty.
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

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) gives them — the driver judges spreads with that function,
/// so `--repeat` must agree with it digit for digit. Needs ≥2 values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Run-to-run spread of one metric over repeated runs.
#[derive(Clone, Copy, Debug)]
pub struct Spread {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// Interquartile distance as a share of the median — the figure the
    /// driver compares with the metric's bound.
    pub iqr_ratio: f64,
    /// (max − min) ÷ median.
    pub range_ratio: f64,
}

pub fn spread(values: &[f64]) -> Spread {
    let [q1, q2, q3] = quartiles(values);
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    let base = if q2 == 0.0 { 1.0 } else { q2.abs() };
    Spread {
        q1,
        median: q2,
        q3,
        iqr_ratio: (q3 - q1) / base,
        range_ratio: (max - min) / base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile_of(&[9, 1, 5], 0.5), 5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1,000 requests: rank 990, ten beyond — the smallest run that
        // supports p99, which is why every workload is sized to it.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(!supports(390, 0.99), "the old sub-second runs did not");
        assert!(supports(390, 0.90));
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 30.0, 20.0, 40.0]),
            [15.0, 30.0, 45.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn spread_ratios_are_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v);
        assert_eq!(s.median, 5.5);
        assert!((s.iqr_ratio - 1.0).abs() < 1e-12);
        assert!((s.range_ratio - 9.0 / 5.5).abs() < 1e-12);
    }
}
