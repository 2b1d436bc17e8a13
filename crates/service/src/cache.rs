//! The sharded LRU result cache.
//!
//! Keyed on `(src_cluster, dst_cluster, epoch)`: the paper observes that
//! predictions are stable within a measurement day (§6.2.1 — path
//! stationarity is what makes a daily atlas useful at all), so a result
//! computed once for a cluster pair can be replayed for every (src, dst)
//! address pair attaching to those clusters until the next daily delta
//! bumps the epoch. An endpoint whose answer is not its cluster's takes
//! its prefix id in the cluster slot, tagged in the epoch word (the
//! engine builds every key). Stale-epoch entries are never served (the
//! epoch is part of the key) and age out of the LRU naturally.
//!
//! Sharding: the key hash picks one of `shards` independent
//! mutex-protected LRU maps, so concurrent callers contend only when
//! they collide on a shard, not on a single global lock.
//!
//! Each shard is an [`inano_model::Lru`], an exact LRU whose hit is an
//! O(1) relink — this is the server's hot path — probing with this
//! module's `KeyHasher` rather than SipHash. The predictor's search
//! cache, which only this cache's misses reach, evicts by rebuild cost
//! instead ([`inano_core::gdsf`]).

use inano_core::PredictedPath;
use inano_model::{ClusterId, Lru};
use inano_obs::Counter;
use parking_lot::Mutex;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// `(src_cluster, dst_cluster, config_epoch)`, where a side may instead
/// hold a prefix id, flagged by a tag bit of the epoch word.
pub type CacheKey = (ClusterId, ClusterId, u64);

/// The key hash [`ShardedCache`] picks a shard with and each shard's
/// map probes with: every key word times its own odd constant, folded,
/// then avalanched. The shard index takes the mix's low bits, so all
/// keys of one shard share them; `finish` therefore hands the map the
/// mix rotated by half a word. No SipHash: a client picks addresses,
/// not keys — those are cluster and prefix ids of the served atlas —
/// and a shard never holds more than its capacity.
#[derive(Default)]
struct KeyHasher {
    folded: u64,
    words: usize,
}

const WORD_MIX: [u64; 3] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
];

impl KeyHasher {
    /// The mix of `key`: what the shard index is cut from.
    fn mix(key: &CacheKey) -> u64 {
        let mut hasher = KeyHasher::default();
        key.hash(&mut hasher);
        hasher.avalanche()
    }

    fn avalanche(&self) -> u64 {
        let mut h = self.folded;
        h ^= h >> 29;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 32)
    }
}

impl Hasher for KeyHasher {
    fn write_u64(&mut self, word: u64) {
        self.folded ^= word.wrapping_mul(WORD_MIX[self.words % WORD_MIX.len()]);
        self.words += 1;
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(word.into());
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn finish(&self) -> u64 {
        self.avalanche().rotate_left(32)
    }
}

/// One shard: an LRU map from key to shared result.
type Shard = Lru<CacheKey, Arc<PredictedPath>, BuildHasherDefault<KeyHasher>>;

/// A sharded LRU cache of prediction results.
pub struct ShardedCache {
    /// Each holds at most `capacity / shards` entries (at least 1).
    shards: Vec<Mutex<Shard>>,
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
        let shard = || Mutex::new(Shard::with_hasher(capacity / shards, Default::default()));
        ShardedCache {
            shards: (0..shards).map(|_| shard()).collect(),
            hits: Counter::default(),
            misses: Counter::default(),
            evictions: Counter::default(),
            inserts: Counter::default(),
        }
    }

    fn shard_of(&self, key: &CacheKey) -> &Mutex<Shard> {
        // shards.len() is a power of two.
        &self.shards[(KeyHasher::mix(key) as usize) & (self.shards.len() - 1)]
    }

    pub fn get(&self, key: &CacheKey) -> Option<Arc<PredictedPath>> {
        let hit = self.lookup(key);
        match &hit {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        hit
    }

    /// [`ShardedCache::get`] without counting: the engine tallies a
    /// batch's hits and misses itself and adds them to `hits` and
    /// `misses` once.
    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<Arc<PredictedPath>> {
        self.shard_of(key).lock().get(key).cloned()
    }

    pub fn insert(&self, key: CacheKey, value: Arc<PredictedPath>) {
        let evicted = self.shard_of(&key).lock().insert(key, value);
        self.inserts.inc();
        if evicted {
            self.evictions.inc();
        }
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
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
    fn the_shard_index_is_cut_from_the_word_mix() {
        // The shard mapping predates the shards' own hasher; keys keep
        // landing where they did.
        for k in [key(0, 0, 0), key(1, 2, 3), key(77, 5, 1 << 40)] {
            let mut h = (k.0.raw() as u64).wrapping_mul(WORD_MIX[0])
                ^ (k.1.raw() as u64).wrapping_mul(WORD_MIX[1])
                ^ k.2.wrapping_mul(WORD_MIX[2]);
            h ^= h >> 29;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 32;
            assert_eq!(KeyHasher::mix(&k), h);
        }
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
