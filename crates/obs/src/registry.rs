//! The unified metrics registry: one named map of counters, gauges and
//! latency histograms per process, snapshotted into a [`MetricsDump`]
//! that merges exactly across servers.
//!
//! ## Handles, not lookups
//!
//! The hot path never touches the registry. [`MetricsRegistry::counter`]
//! hands back a [`Counter`] — a clonable `Arc<AtomicU64>` wrapper — and
//! incrementing it is one relaxed `fetch_add`, the same cost as the
//! ad-hoc atomics it replaces. The registry's map is only walked at
//! [`MetricsRegistry::dump`] time (a scrape, once a second at most).
//!
//! ## Attaching
//!
//! A subsystem built before the registry that exports it (a
//! `QueryEngine` and its cache — both older than the server in front
//! of them) creates its handles with `default()` and
//! hands clones to [`MetricsRegistry::attach`] later. Either way every
//! count lives in exactly one atomic, the dump reads that atomic, and
//! nothing is computed at dump time.
//!
//! ## Merge semantics
//!
//! Counters and histogram buckets sum element-wise (exact — never
//! average percentiles), while gauges take the **max** — a gauge is a
//! level or watermark (queue depth, convergence lag, peak memory), and
//! the merged fleet view reports the worst member.

use crate::hist::LatencyHistogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A named monotone counter. Cloning shares the underlying atomic.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named level (queue depth, lag, watermark). Cloning shares the
/// underlying atomic.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is higher — the watermark pattern.
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Raise the level by `n`, returning the level before — so a level
    /// that is also functional state (a byte budget, a connection
    /// count) *is* its gauge.
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    /// Lower the level by `n`.
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One registered metric: the live handle the registry snapshots.
/// Built from a handle by `into()` at [`MetricsRegistry::attach`].
#[derive(Clone)]
pub enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Arc<LatencyHistogram>),
}

impl Metric {
    fn snapshot(&self) -> MetricValue {
        match self {
            Metric::Counter(c) => MetricValue::Counter(c.get()),
            Metric::Gauge(g) => MetricValue::Gauge(g.get()),
            Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
        }
    }

    /// True when both are the same kind over the same atomic(s).
    fn same_handle(&self, other: &Metric) -> bool {
        match (self, other) {
            (Metric::Counter(a), Metric::Counter(b)) => Arc::ptr_eq(&a.0, &b.0),
            (Metric::Gauge(a), Metric::Gauge(b)) => Arc::ptr_eq(&a.0, &b.0),
            (Metric::Histogram(a), Metric::Histogram(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl From<Counter> for Metric {
    fn from(c: Counter) -> Metric {
        Metric::Counter(c)
    }
}

impl From<Gauge> for Metric {
    fn from(g: Gauge) -> Metric {
        Metric::Gauge(g)
    }
}

impl From<Arc<LatencyHistogram>> for Metric {
    fn from(h: Arc<LatencyHistogram>) -> Metric {
        Metric::Histogram(h)
    }
}

/// A snapshotted metric value, as it travels in a [`MetricsDump`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotone count; merges by summing.
    Counter(u64),
    /// Level or watermark; merges by max (fleet-worst).
    Gauge(u64),
    /// Raw log₂ bucket counts; merges element-wise (exact).
    Histogram(Vec<u64>),
}

/// The process-wide metric map. See the module docs for the contract.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Whatever is exported under `name` — `fresh`, if the name was
    /// free. The one rule every entry point follows: the first handle
    /// keeps the name, a live series is never evicted.
    fn export(&self, name: &str, fresh: Metric) -> Metric {
        let mut map = self.metrics.write().expect("metrics lock");
        map.entry(name.to_string()).or_insert(fresh).clone()
    }

    /// The counter named `name`, created on first use. Repeat calls
    /// (any clone holder) share one atomic. If the name is already
    /// taken by a different kind, a detached handle is returned — the
    /// registry never panics over a naming bug, the dump just won't
    /// show the detached writer.
    pub fn counter(&self, name: &str) -> Counter {
        match self.export(name, Counter::default().into()) {
            Metric::Counter(c) => c,
            _ => {
                debug_assert!(false, "metric {name} registered with another kind");
                Counter::default()
            }
        }
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.export(name, Gauge::default().into()) {
            Metric::Gauge(g) => g,
            _ => {
                debug_assert!(false, "metric {name} registered with another kind");
                Gauge::default()
            }
        }
    }

    /// Export an existing handle — a [`Counter`], a [`Gauge`] or an
    /// `Arc<LatencyHistogram>` — under `name`. Attaching the handle
    /// that already holds the name is a no-op, so a subsystem may be
    /// registered again (a shard registry fronted by a second server).
    /// A name held by any *other* handle follows the [`counter`] rule:
    /// the live entry stays, the newcomer goes unexported.
    ///
    /// [`counter`]: MetricsRegistry::counter
    pub fn attach(&self, name: &str, handle: impl Into<Metric>) {
        let handle = handle.into();
        let held = self.export(name, handle.clone());
        debug_assert!(
            held.same_handle(&handle),
            "metric {name} is already exported from another handle"
        );
    }

    /// Snapshot every registered metric into a sorted, stable-named
    /// dump.
    pub fn dump(&self) -> MetricsDump {
        let map = self.metrics.read().expect("metrics lock");
        MetricsDump {
            entries: map
                .iter()
                .map(|(name, m)| (name.clone(), m.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time snapshot of a registry: sorted `(name, value)`
/// pairs, ready for the wire or a fleet merge.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsDump {
    /// Sorted by name.
    pub entries: Vec<(String, MetricValue)>,
}

impl MetricsDump {
    /// The value under `name`, if present.
    pub fn value(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// The counter under `name`, or 0 (absent counters merge as 0).
    pub fn counter(&self, name: &str) -> u64 {
        match self.value(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The gauge under `name`, or 0.
    pub fn gauge(&self, name: &str) -> u64 {
        match self.value(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Sum of every counter whose name ends with `suffix` — the fleet
    /// aggregation shorthand for per-shard names (`shard0.queries`,
    /// `shard1.queries`, ...). Saturates, like [`MetricsDump::merge`]:
    /// a foreign dump's counters are unvalidated.
    pub fn counter_sum(&self, suffix: &str) -> u64 {
        self.entries
            .iter()
            .filter_map(|(n, v)| match v {
                MetricValue::Counter(c) if n.ends_with(suffix) => Some(*c),
                _ => None,
            })
            .fold(0, u64::saturating_add)
    }

    /// Merge `other` into `self` per the registry's merge semantics:
    /// counters sum, histogram buckets sum element-wise, gauges take
    /// the max. A name that is one kind here and another there keeps
    /// this dump's value — a kind mismatch is a bug, never a panic.
    pub fn merge(&mut self, other: &MetricsDump) {
        for (name, theirs) in &other.entries {
            match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => {
                    let ours = &mut self.entries[i].1;
                    match (ours, theirs) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                            *a = a.saturating_add(*b);
                        }
                        (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(*b),
                        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                            if a.len() < b.len() {
                                a.resize(b.len(), 0);
                            }
                            for (acc, &c) in a.iter_mut().zip(b) {
                                *acc = acc.saturating_add(c);
                            }
                        }
                        _ => {} // kind mismatch: keep ours
                    }
                }
                Err(i) => self.entries.insert(i, (name.clone(), theirs.clone())),
            }
        }
    }

    /// The exact merge of many dumps (fleet members, scrape ticks).
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a MetricsDump>) -> MetricsDump {
        let mut out = MetricsDump::default();
        for p in parts {
            out.merge(p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_one_atomic_and_dump_sees_them() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("srv.accepted");
        let b = reg.counter("srv.accepted");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = reg.gauge("srv.active");
        g.set(5);
        g.raise(3); // lower: no-op
        g.raise(9);
        let dump = reg.dump();
        assert_eq!(dump.counter("srv.accepted"), 3);
        assert_eq!(dump.gauge("srv.active"), 9);
        assert_eq!(dump.counter("srv.missing"), 0);
    }

    #[test]
    fn kind_mismatch_is_detached_not_a_panic() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x");
        c.inc();
        // Release builds: a gauge request for a counter name returns a
        // detached handle and the registered counter is untouched.
        if !cfg!(debug_assertions) {
            let g = reg.gauge("x");
            g.set(99);
            assert_eq!(reg.dump().counter("x"), 1);
        }
    }

    #[test]
    fn attached_handles_are_read_live_at_dump_time() {
        // The owner made its handles before any registry existed.
        let queries = Counter::default();
        let lag = Gauge::default();
        queries.add(7);
        let reg = MetricsRegistry::new();
        reg.attach("shard0.queries", queries.clone());
        reg.attach("shard0.mirror.lag_days", lag.clone());
        assert_eq!(reg.dump().counter("shard0.queries"), 7);
        queries.add(4);
        assert_eq!(lag.add(3), 0, "add returns the level before");
        lag.sub(1);
        let dump = reg.dump();
        assert_eq!(dump.counter("shard0.queries"), 11);
        assert_eq!(dump.gauge("shard0.mirror.lag_days"), 2);
    }

    #[test]
    fn reattaching_the_same_handle_is_idempotent() {
        let reg = MetricsRegistry::new();
        let c = Counter::default();
        reg.attach("shard0.swaps", c.clone());
        c.inc();
        reg.attach("shard0.swaps", c.clone());
        c.inc();
        assert_eq!(reg.dump().counter("shard0.swaps"), 2);
        assert_eq!(reg.dump().entries.len(), 1);
    }

    #[test]
    fn one_handle_exports_live_from_two_registries() {
        // Two servers fronting one engine: each has its own registry,
        // both attach the engine's handle, both read the one atomic.
        let c = Counter::default();
        let (a, b) = (MetricsRegistry::new(), MetricsRegistry::new());
        a.attach("shard0.queries", c.clone());
        b.attach("shard0.queries", c.clone());
        c.add(5);
        assert_eq!(a.dump().counter("shard0.queries"), 5);
        assert_eq!(b.dump(), a.dump());
    }

    #[test]
    fn attach_never_evicts_a_live_entry() {
        let reg = MetricsRegistry::new();
        let live = reg.counter("x");
        live.add(3);
        // Release builds: a clash — another kind, or another handle of
        // the same kind — leaves the live entry exported and the
        // newcomer detached. Debug builds assert on the naming bug.
        if !cfg!(debug_assertions) {
            let h = Arc::new(LatencyHistogram::default());
            h.record_us(10);
            reg.attach("x", h);
            let stray = Counter::default();
            stray.add(99);
            reg.attach("x", stray);
            live.inc();
            assert_eq!(reg.dump().value("x"), Some(&MetricValue::Counter(4)));
        }
    }

    #[test]
    fn attached_histograms_dump_their_buckets() {
        let reg = MetricsRegistry::new();
        let h = Arc::new(LatencyHistogram::default());
        reg.attach("shard0.latency_us", Arc::clone(&h));
        h.record_us(10);
        h.record_us(5000);
        match reg.dump().value("shard0.latency_us") {
            Some(MetricValue::Histogram(b)) => assert_eq!(b.iter().sum::<u64>(), 2),
            other => panic!("want histogram, got {other:?}"),
        }
    }

    #[test]
    fn merge_sums_counters_maxes_gauges_sums_buckets() {
        let a = MetricsDump {
            entries: vec![
                ("c".into(), MetricValue::Counter(3)),
                ("g".into(), MetricValue::Gauge(5)),
                ("h".into(), MetricValue::Histogram(vec![1, 0, 2])),
                ("only_a".into(), MetricValue::Counter(1)),
            ],
        };
        let b = MetricsDump {
            entries: vec![
                ("c".into(), MetricValue::Counter(4)),
                ("g".into(), MetricValue::Gauge(2)),
                ("h".into(), MetricValue::Histogram(vec![0, 1, 0, 9])),
                ("only_b".into(), MetricValue::Gauge(8)),
            ],
        };
        let m = MetricsDump::merged([&a, &b]);
        assert_eq!(m.counter("c"), 7);
        assert_eq!(m.gauge("g"), 5);
        assert_eq!(
            m.value("h"),
            Some(&MetricValue::Histogram(vec![1, 1, 2, 9]))
        );
        assert_eq!(m.counter("only_a"), 1);
        assert_eq!(m.gauge("only_b"), 8);
        // Entries stay sorted so `value` can binary-search.
        let names: Vec<_> = m.entries.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn counter_sum_aggregates_per_shard_names() {
        let d = MetricsDump {
            entries: vec![
                ("shard0.queries".into(), MetricValue::Counter(10)),
                ("shard1.queries".into(), MetricValue::Counter(5)),
                ("shard1.errors".into(), MetricValue::Counter(2)),
            ],
        };
        assert_eq!(d.counter_sum(".queries"), 15);
        assert_eq!(d.counter_sum(".errors"), 2);
    }

    #[test]
    fn counter_sum_saturates_on_foreign_counters() {
        let d = MetricsDump {
            entries: vec![
                ("shard0.queries".into(), MetricValue::Counter(u64::MAX)),
                ("shard1.queries".into(), MetricValue::Counter(u64::MAX)),
            ],
        };
        assert_eq!(d.counter_sum(".queries"), u64::MAX);
    }
}
