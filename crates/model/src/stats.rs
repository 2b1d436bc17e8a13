//! Small statistics helpers shared by the evaluation harness: empirical
//! CDFs, percentiles, and histogram binning (Figure 4 uses 0.05-wide bins).

/// An empirical distribution over `f64` samples.
#[derive(Clone, Debug, Default)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from samples (NaNs are rejected with a panic — they indicate a
    /// bug upstream, not a data property).
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "NaN sample passed to Ecdf"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Ecdf { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x`.
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples `>= x`.
    pub fn fraction_at_least(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v < x);
        (self.sorted.len() - n) as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 <= q <= 1) by nearest-rank.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty Ecdf");
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() as f64 - 1.0) * q).round() as usize;
        self.sorted[idx]
    }

    /// Median, by nearest rank.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

/// Histogram with fixed-width bins over `[lo, hi]`; values outside are
/// clamped into the edge bins. Used for Figure 4's 0.05-wide similarity
/// bins.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    width: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0 && hi > lo, "invalid histogram bounds");
        Histogram {
            lo,
            width: (hi - lo) / bins as f64,
            counts: vec![0; bins],
            total: 0,
        }
    }

    pub fn add(&mut self, value: f64) {
        let idx = ((value - self.lo) / self.width).floor();
        let idx = (idx.max(0.0) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    /// (bin lower edge, fraction of samples) rows.
    pub fn fractions(&self) -> Vec<(f64, f64)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let frac = if self.total == 0 {
                    0.0
                } else {
                    c as f64 / self.total as f64
                };
                (self.lo + i as f64 * self.width, frac)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_fractions() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.fraction_at_most(2.0), 0.5);
        assert_eq!(e.fraction_at_most(0.5), 0.0);
        assert_eq!(e.fraction_at_most(10.0), 1.0);
        assert_eq!(e.fraction_at_least(3.0), 0.5);
        assert_eq!(e.fraction_at_least(1.0), 1.0);
    }

    #[test]
    fn ecdf_quantiles() {
        let e = Ecdf::new(vec![5.0, 1.0, 3.0]);
        assert_eq!(e.median(), 3.0);
        assert!((e.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ecdf_handles_duplicates() {
        let e = Ecdf::new(vec![2.0, 2.0, 2.0, 7.0]);
        assert_eq!(e.fraction_at_most(2.0), 0.75);
        assert_eq!(e.median(), 2.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn ecdf_rejects_nan() {
        let _ = Ecdf::new(vec![f64::NAN]);
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let mut h = Histogram::new(0.0, 1.0, 20);
        h.add(0.0);
        h.add(0.04);
        h.add(0.96);
        h.add(1.0); // clamps into last bin
        h.add(2.0); // clamps into last bin
        let f = h.fractions();
        assert_eq!(f.len(), 20);
        assert!((f[0].1 - 0.4).abs() < 1e-12);
        assert!((f[19].1 - 0.6).abs() < 1e-12);
        assert_eq!(h.total(), 5);
    }
}
