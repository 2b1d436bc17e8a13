//! The log₂ latency histogram and its exact-merge quantile math: a
//! first-class metric kind of the registry, recorded into by every
//! layer above this crate (service, net).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two latency buckets: bucket `i` covers
/// `[2^i, 2^(i+1))` microseconds, so 40 buckets reach ~12 days.
pub const BUCKETS: usize = 40;

/// The quantile's bucket over a raw log₂ count vector, reported as the
/// bucket's geometric midpoint (`1.5 × 2^i` µs) — bucket-resolution,
/// which is all a power-of-two histogram can honestly claim. Shared by
/// the live histogram and by aggregators merging snapshots from many
/// engines (shards, fleet members): summing bucket vectors element-wise
/// and calling this is exact, unlike averaging percentiles.
pub fn quantile_from_counts(counts: &[u64], q: f64) -> u64 {
    // A bucket index beyond u64's shift range can only come from a
    // malformed foreign histogram (ours has 40 buckets); saturate
    // rather than overflow the shift.
    let midpoint = |i: usize| {
        let base = 1u64 << i.min(63);
        base.saturating_add(base / 2)
    };
    // Foreign counts are unvalidated: the sums saturate.
    let total = counts.iter().fold(0u64, |t, &c| t.saturating_add(c));
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen = seen.saturating_add(c);
        if seen >= rank {
            return midpoint(i);
        }
    }
    midpoint(counts.len().max(1) - 1)
}

/// The bucket a sample of `us` microseconds lands in.
pub fn bucket_of(us: u64) -> usize {
    (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1)
}

/// Lock-free latency histogram over microseconds.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Add counts tallied elsewhere (by [`bucket_of`]) in one go: one
    /// atomic add per non-empty bucket, however many samples.
    pub fn add_counts(&self, counts: &[u64; BUCKETS]) {
        for (bucket, &n) in self.buckets.iter().zip(counts) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// A point-in-time copy of the raw bucket counts, in bucket order.
    pub fn snapshot(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = LatencyHistogram::default();
        for us in [10u64, 10, 10, 10, 10, 10, 10, 10, 10, 5000] {
            h.record_us(us);
        }
        let p50 = quantile_from_counts(&h.snapshot(), 0.5);
        assert!((8..=16).contains(&p50), "p50 bucket ~10us, got {p50}");
        let p99 = quantile_from_counts(&h.snapshot(), 0.99);
        assert!((4096..=8192).contains(&p99), "p99 bucket ~5ms, got {p99}");
        assert_eq!(h.count(), 10);
    }

    #[test]
    fn added_counts_equal_recorded_samples() {
        let (recorded, added) = (LatencyHistogram::default(), LatencyHistogram::default());
        let mut counts = [0u64; BUCKETS];
        for us in [0u64, 1, 3, 10, 10, 5000, u64::MAX] {
            recorded.record_us(us);
            counts[bucket_of(us)] += 1;
        }
        added.add_counts(&counts);
        assert_eq!(added.snapshot(), recorded.snapshot());
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(quantile_from_counts(&h.snapshot(), 0.5), 0);
    }

    #[test]
    fn quantile_saturates_on_foreign_bucket_counts() {
        // 80 buckets is double ours; the shift must saturate, not wrap.
        let mut counts = vec![0u64; 80];
        counts[79] = 1;
        assert!(quantile_from_counts(&counts, 0.99) >= 1 << 62);
    }

    #[test]
    fn quantile_saturates_on_foreign_bucket_sums() {
        assert_eq!(quantile_from_counts(&[1, u64::MAX], 0.5), 3);
        assert_eq!(quantile_from_counts(&[u64::MAX, u64::MAX, 5], 0.5), 1);
    }
}
