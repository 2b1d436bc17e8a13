//! Service metrics: the engine's live registers ([`EngineMetrics`],
//! registry handles the serving layer exports as `shardN.*`), the one
//! vocabulary for what an engine counts, and the per-batch tally that
//! writes them: a batch counts in locals and adds each series once, so
//! the shared atomics see a handful of adds per batch, not several per
//! pair.

use inano_obs::{bucket_of, Counter, Gauge, LatencyHistogram, MetricsRegistry, BUCKETS};
use std::sync::Arc;

/// Every count the engine keeps, each in one atomic behind an
/// `inano-obs` handle. The engine (and its cache, for the four
/// `cache_*` counters they share) is the only writer;
/// [`crate::QueryEngine::register_metrics`] exports the same atomics,
/// so a dump and a test reading `.get()` can never disagree about a
/// quiesced engine.
#[derive(Clone, Debug, Default)]
pub struct EngineMetrics {
    /// Pairs answered (including errors).
    pub queries: Counter,
    /// Pairs answered with an error (unroutable address, no path...).
    pub errors: Counter,
    /// Generations swapped in since start (deltas and full replaces).
    pub swaps: Counter,
    /// Per-pair service latency, µs: a pair answered in the batch's
    /// probe pass (a hit, a resolve error) takes the pass's mean time
    /// per pair; a miss takes the time of the batch's one planner call,
    /// which predicted every miss at once.
    pub latency_us: Arc<LatencyHistogram>,
    pub cache_hits: Counter,
    pub cache_misses: Counter,
    pub cache_evictions: Counter,
    pub cache_inserts: Counter,
    /// Deltas applied by `update` (all mirror series stay zero on an
    /// origin that never calls it).
    pub mirror_deltas_applied: Counter,
    /// Full-atlas swaps via `replace_atlas` (broken delta chains).
    pub mirror_full_resyncs: Counter,
    /// `VersionRaced`/`ChunkOutOfRange` restarts the fetch path
    /// recovered from.
    pub mirror_races_recovered: Counter,
    /// Upstream head day minus local day at the last `update` — the
    /// convergence lag, ~0 on a healthy mirror.
    pub mirror_lag_days: Gauge,
    /// Upstream head day observed at the last `update`.
    pub mirror_upstream_day: Gauge,
    /// Serving generation's epoch and day, set under the swap lock.
    pub epoch: Gauge,
    pub day: Gauge,
}

impl EngineMetrics {
    /// Export every handle into `obs` as `{label}.*`; see
    /// [`crate::QueryEngine::register_metrics`].
    pub(crate) fn register(&self, obs: &MetricsRegistry, label: &str) {
        let m = self.clone();
        let name = |series: &str| format!("{label}.{series}");
        obs.attach(&name("queries"), m.queries);
        obs.attach(&name("errors"), m.errors);
        obs.attach(&name("swaps"), m.swaps);
        obs.attach(&name("latency_us"), m.latency_us);
        obs.attach(&name("cache.hits"), m.cache_hits);
        obs.attach(&name("cache.misses"), m.cache_misses);
        obs.attach(&name("cache.evictions"), m.cache_evictions);
        obs.attach(&name("cache.inserts"), m.cache_inserts);
        obs.attach(&name("mirror.deltas_applied"), m.mirror_deltas_applied);
        obs.attach(&name("mirror.full_resyncs"), m.mirror_full_resyncs);
        obs.attach(&name("mirror.races_recovered"), m.mirror_races_recovered);
        obs.attach(&name("mirror.lag_days"), m.mirror_lag_days);
        obs.attach(&name("mirror.upstream_day"), m.mirror_upstream_day);
        obs.attach(&name("epoch"), m.epoch);
        obs.attach(&name("day"), m.day);
    }
}

/// One batch's counts, kept in locals until [`Tally::flush`] adds each
/// to its [`EngineMetrics`] series with one atomic add.
pub(crate) struct Tally {
    queries: u64,
    errors: u64,
    latency_us: [u64; BUCKETS],
}

impl Default for Tally {
    fn default() -> Tally {
        Tally {
            queries: 0,
            errors: 0,
            latency_us: [0; BUCKETS],
        }
    }
}

impl Tally {
    /// One answered pair: its latency sample, and whether it failed.
    pub(crate) fn answer(&mut self, us: u64, ok: bool) {
        self.queries += 1;
        self.errors += u64::from(!ok);
        self.latency_us[bucket_of(us)] += 1;
    }

    /// Add everything tallied to `m`; a series with nothing to add is
    /// not touched.
    pub(crate) fn flush(&self, m: &EngineMetrics) {
        for (series, n) in [(&m.queries, self.queries), (&m.errors, self.errors)] {
            if n > 0 {
                series.add(n);
            }
        }
        m.latency_us.add_counts(&self.latency_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_obs::{quantile_from_counts, MetricValue, MetricsDump};

    #[test]
    fn metrics_record() {
        let m = EngineMetrics::default();
        let mut tally = Tally::default();
        tally.answer(100, true);
        tally.answer(200, false);
        tally.flush(&m);
        assert_eq!(m.queries.get(), 2);
        assert_eq!(m.errors.get(), 1);
        assert_eq!(m.latency_us.count(), 2);
    }

    #[test]
    fn aggregate_merges_buckets_not_percentiles() {
        let fast = EngineMetrics::default();
        let slow = EngineMetrics::default();
        let (mut fast_tally, mut slow_tally) = (Tally::default(), Tally::default());
        for _ in 0..90 {
            fast_tally.answer(10, true);
        }
        for _ in 0..10 {
            slow_tally.answer(5000, false);
        }
        fast_tally.flush(&fast);
        slow_tally.flush(&slow);
        // Two engines, each exported as shard0 of its own server.
        let dump = |m: &EngineMetrics| {
            let obs = MetricsRegistry::new();
            m.register(&obs, "shard0");
            obs.dump()
        };
        let merged = MetricsDump::merged([&dump(&fast), &dump(&slow)]);
        assert_eq!(merged.counter("shard0.queries"), 100);
        assert_eq!(merged.counter("shard0.errors"), 10);
        let Some(MetricValue::Histogram(buckets)) = merged.value("shard0.latency_us") else {
            panic!("merged dump lost the latency histogram");
        };
        // The true p99 over the merged population is the slow bucket;
        // averaging the two per-part p99s could never say so.
        let p99 = quantile_from_counts(buckets, 0.99);
        let p50 = quantile_from_counts(buckets, 0.50);
        assert!((4096..=8192).contains(&p99), "{p99}");
        assert!((8..=16).contains(&p50), "{p50}");
        assert_eq!(buckets.iter().sum::<u64>(), 100);
    }
}
