//! The sharded LRU result cache.
//!
//! Keyed on `(src_cluster, dst_cluster, epoch)`: the paper observes that
//! predictions are stable within a measurement day (§6.2.1 — path
//! stationarity is what makes a daily atlas useful at all), so a result
//! computed once for a cluster pair can be replayed for every (src, dst)
//! address pair attaching to those clusters until the next daily delta
//! bumps the epoch. Stale-epoch entries are never served (the epoch is
//! part of the key) and age out of the LRU naturally.
//!
//! Sharding: the key hash picks one of `shards` independent
//! mutex-protected LRU maps, so concurrent callers contend only when
//! they collide on a shard, not on a single global lock.

use inano_core::PredictedPath;
use inano_model::ClusterId;
use inano_obs::Counter;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// `(src_cluster, dst_cluster, config_epoch)`.
pub type CacheKey = (ClusterId, ClusterId, u64);

/// One shard: an LRU map from key to shared result.
///
/// Recency is tracked with a monotone tick per entry plus a
/// `BTreeMap<tick, key>` recency index — O(log n) per touch, and the
/// eviction victim is simply the first index entry.
struct Shard {
    map: HashMap<CacheKey, (Arc<PredictedPath>, u64)>,
    recency: BTreeMap<u64, CacheKey>,
    tick: u64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            map: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
        }
    }

    fn touch(&mut self, key: &CacheKey) -> Option<Arc<PredictedPath>> {
        self.tick += 1;
        let tick = self.tick;
        let (value, old_tick) = self.map.get_mut(key)?;
        let value = Arc::clone(value);
        let old = std::mem::replace(old_tick, tick);
        self.recency.remove(&old);
        self.recency.insert(tick, *key);
        Some(value)
    }

    /// Insert, evicting the least-recently-used entries past `capacity`.
    /// Returns how many entries were evicted.
    fn insert(&mut self, key: CacheKey, value: Arc<PredictedPath>, capacity: usize) -> u64 {
        self.tick += 1;
        let tick = self.tick;
        if let Some((_, old_tick)) = self.map.get(&key) {
            let old = *old_tick;
            self.recency.remove(&old);
        }
        self.map.insert(key, (value, tick));
        self.recency.insert(tick, key);
        let mut evicted = 0;
        while self.map.len() > capacity {
            let (&oldest, &victim) = self.recency.iter().next().expect("recency tracks map");
            self.recency.remove(&oldest);
            self.map.remove(&victim);
            evicted += 1;
        }
        evicted
    }
}

/// A sharded LRU cache of prediction results.
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard capacity (total capacity / shard count, at least 1).
    shard_capacity: usize,
    /// Monotone counters, updated lock-free by every caller; an owning
    /// engine shares these handles as its `cache_*` metrics.
    pub hits: Counter,
    pub misses: Counter,
    pub evictions: Counter,
    pub inserts: Counter,
}

impl ShardedCache {
    /// `capacity` is the total entry budget; `shards` is rounded up to a
    /// power of two.
    pub fn new(capacity: usize, shards: usize) -> ShardedCache {
        let shards = shards.max(1).next_power_of_two();
        let shard_capacity = (capacity / shards).max(1);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_capacity,
            hits: Counter::default(),
            misses: Counter::default(),
            evictions: Counter::default(),
            inserts: Counter::default(),
        }
    }

    fn shard_of(&self, key: &CacheKey) -> &Mutex<Shard> {
        // Cheap avalanche over the three key words; shards.len() is a
        // power of two.
        let mut h = (key.0.raw() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (key.1.raw() as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)
            ^ key.2.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 29;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 32;
        &self.shards[(h as usize) & (self.shards.len() - 1)]
    }

    pub fn get(&self, key: &CacheKey) -> Option<Arc<PredictedPath>> {
        let hit = self.shard_of(key).lock().touch(key);
        match &hit {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        hit
    }

    pub fn insert(&self, key: CacheKey, value: Arc<PredictedPath>) {
        let evicted = self
            .shard_of(&key)
            .lock()
            .insert(key, value, self.shard_capacity);
        self.inserts.inc();
        if evicted > 0 {
            self.evictions.add(evicted);
        }
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_model::{AsPath, LatencyMs, LossRate};

    fn path(rtt: f64) -> Arc<PredictedPath> {
        Arc::new(PredictedPath {
            fwd_clusters: vec![],
            rev_clusters: vec![],
            fwd_as_path: AsPath::new(vec![]),
            rev_as_path: AsPath::new(vec![]),
            rtt: LatencyMs::new(rtt),
            loss: LossRate::new(0.0),
        })
    }

    fn key(s: u32, d: u32, e: u64) -> CacheKey {
        (ClusterId::new(s), ClusterId::new(d), e)
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = ShardedCache::new(16, 4);
        assert!(c.get(&key(1, 2, 0)).is_none());
        c.insert(key(1, 2, 0), path(1.0));
        let hit = c.get(&key(1, 2, 0)).expect("cached");
        assert!((hit.rtt.ms() - 1.0).abs() < 1e-12);
        assert_eq!((c.hits.get(), c.misses.get()), (1, 1));
    }

    #[test]
    fn epoch_is_part_of_the_key() {
        let c = ShardedCache::new(16, 1);
        c.insert(key(1, 2, 0), path(1.0));
        assert!(c.get(&key(1, 2, 1)).is_none(), "next epoch never sees it");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = ShardedCache::new(2, 1);
        c.insert(key(1, 1, 0), path(1.0));
        c.insert(key(2, 2, 0), path(2.0));
        assert!(c.get(&key(1, 1, 0)).is_some(), "refresh 1");
        c.insert(key(3, 3, 0), path(3.0));
        assert!(c.get(&key(1, 1, 0)).is_some(), "recently used survives");
        assert!(c.get(&key(2, 2, 0)).is_none(), "LRU victim evicted");
        assert_eq!(c.evictions.get(), 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_same_key_does_not_grow() {
        let c = ShardedCache::new(4, 1);
        for i in 0..10 {
            c.insert(key(1, 2, 0), path(i as f64));
        }
        assert_eq!(c.len(), 1);
        assert!((c.get(&key(1, 2, 0)).unwrap().rtt.ms() - 9.0).abs() < 1e-12);
    }
}
