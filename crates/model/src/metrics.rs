//! Path performance metrics: latency and loss rate, with the composition
//! rules iNano uses to turn per-link annotations into end-to-end estimates
//! (§3: "composes the properties of the inter-cluster links on the
//! predicted paths").

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// One-way latency (or RTT, by context) in milliseconds.
///
/// Latencies compose additively along a path. Stored as `f64`; the atlas
/// codec quantises to 0.1 ms when serialising.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct LatencyMs(pub f64);

impl LatencyMs {
    pub const ZERO: LatencyMs = LatencyMs(0.0);

    pub fn new(ms: f64) -> Self {
        debug_assert!(
            ms.is_finite() && ms >= 0.0,
            "latency must be finite and >= 0"
        );
        LatencyMs(ms)
    }

    pub fn ms(self) -> f64 {
        self.0
    }

    /// Absolute difference, used for estimation-error CDFs.
    pub fn abs_diff(self, other: LatencyMs) -> LatencyMs {
        LatencyMs((self.0 - other.0).abs())
    }
}

impl Add for LatencyMs {
    type Output = LatencyMs;
    fn add(self, rhs: LatencyMs) -> LatencyMs {
        LatencyMs(self.0 + rhs.0)
    }
}

impl AddAssign for LatencyMs {
    fn add_assign(&mut self, rhs: LatencyMs) {
        self.0 += rhs.0;
    }
}

impl Sum for LatencyMs {
    fn sum<I: Iterator<Item = LatencyMs>>(iter: I) -> LatencyMs {
        LatencyMs(iter.map(|l| l.0).sum())
    }
}

impl fmt::Debug for LatencyMs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}ms", self.0)
    }
}

impl fmt::Display for LatencyMs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A loss rate in `[0, 1]`.
///
/// Loss rates compose multiplicatively: the probability a packet survives a
/// path is the product of the per-link survival probabilities, assuming
/// independent losses (the same assumption iNano makes).
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct LossRate(pub f64);

impl LossRate {
    pub const ZERO: LossRate = LossRate(0.0);

    /// Create a loss rate, clamping into `[0, 1]`.
    pub fn new(p: f64) -> Self {
        debug_assert!(p.is_finite(), "loss rate must be finite");
        LossRate(p.clamp(0.0, 1.0))
    }

    pub fn rate(self) -> f64 {
        self.0
    }

    /// Probability a packet survives this hop/path.
    pub fn survival(self) -> f64 {
        1.0 - self.0
    }

    /// Compose two loss rates in series: `1 - (1-a)(1-b)`.
    #[must_use]
    pub fn compose(self, other: LossRate) -> LossRate {
        LossRate(1.0 - self.survival() * other.survival())
    }

    /// Compose a whole sequence of per-link loss rates.
    pub fn compose_all<I: IntoIterator<Item = LossRate>>(iter: I) -> LossRate {
        let survival: f64 = iter.into_iter().map(|l| l.survival()).product();
        LossRate(1.0 - survival)
    }

    /// Absolute difference, used for estimation-error CDFs.
    pub fn abs_diff(self, other: LossRate) -> f64 {
        (self.0 - other.0).abs()
    }

    /// True when any loss at all is present (with a small epsilon so that
    /// binomially-estimated zero-loss paths compare clean).
    pub fn is_lossy(self) -> bool {
        self.0 > 1e-9
    }
}

impl fmt::Debug for LossRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}%", self.0 * 100.0)
    }
}

impl fmt::Display for LossRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Mean Opinion Score for a VoIP call, from the ITU-T E-model simplification
/// used in the relay-selection literature (the paper cites the MOS metric
/// [5] as the quantity a Skype-like system optimises).
///
/// `rtt` is the round-trip time and `loss` the end-to-end loss rate. The
/// returned score lies in roughly `[1, 4.5]`, higher is better.
pub fn mean_opinion_score(rtt: LatencyMs, loss: LossRate) -> f64 {
    // One-way delay including typical jitter-buffer and codec delay.
    let d = rtt.ms() / 2.0 + 25.0;
    // Delay impairment.
    let id = 0.024 * d + if d > 177.3 { 0.11 * (d - 177.3) } else { 0.0 };
    // Equipment (loss) impairment for a G.729-like codec.
    let ie = 11.0 + 40.0 * (1.0 + 10.0 * loss.rate()).ln();
    let r = (94.2 - id - ie).clamp(0.0, 100.0);
    1.0 + 0.035 * r + 7.0e-6 * r * (r - 60.0) * (100.0 - r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_adds() {
        let total: LatencyMs = [LatencyMs::new(1.5), LatencyMs::new(2.5)].into_iter().sum();
        assert!((total.ms() - 4.0).abs() < 1e-12);
        assert_eq!(LatencyMs::new(3.0).abs_diff(LatencyMs::new(5.0)).ms(), 2.0);
    }

    #[test]
    fn loss_composes_multiplicatively() {
        let a = LossRate::new(0.1);
        let b = LossRate::new(0.2);
        let c = a.compose(b);
        assert!((c.rate() - 0.28).abs() < 1e-12);
        // Composition order must not matter.
        assert!((b.compose(a).rate() - c.rate()).abs() < 1e-12);
    }

    #[test]
    fn loss_compose_all_matches_pairwise() {
        let rates = [0.01, 0.05, 0.0, 0.2].map(LossRate::new);
        let all = LossRate::compose_all(rates);
        let pairwise = rates.iter().fold(LossRate::ZERO, |acc, &l| acc.compose(l));
        assert!((all.rate() - pairwise.rate()).abs() < 1e-12);
    }

    #[test]
    fn loss_clamps() {
        assert_eq!(LossRate::new(1.5).rate(), 1.0);
        assert_eq!(LossRate::new(-0.5).rate(), 0.0);
    }

    #[test]
    fn zero_loss_is_identity() {
        let l = LossRate::new(0.37);
        assert!((l.compose(LossRate::ZERO).rate() - l.rate()).abs() < 1e-12);
        assert!(!LossRate::ZERO.is_lossy());
        assert!(l.is_lossy());
    }

    #[test]
    fn mos_prefers_better_paths() {
        let good = mean_opinion_score(LatencyMs::new(40.0), LossRate::new(0.0));
        let mid = mean_opinion_score(LatencyMs::new(40.0), LossRate::new(0.05));
        let bad = mean_opinion_score(LatencyMs::new(400.0), LossRate::new(0.2));
        assert!(good > mid, "loss must hurt MOS: {good} vs {mid}");
        assert!(mid > bad, "delay+loss must hurt MOS more: {mid} vs {bad}");
        assert!(good <= 4.6 && bad >= 0.9, "MOS range sanity: {good} {bad}");
    }
}
