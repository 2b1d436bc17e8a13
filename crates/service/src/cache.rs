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
//! mutex-protected LRU maps. Every probe, hit or miss, takes its shard's
//! lock and relinks that shard's recency list, so the lock's cache line
//! moves between the cores of concurrent callers even when their keys
//! never collide. Probed one pair at a time, a warm 512-pair batch on a
//! `test(1)` world cost 130–155 ns per pair alone and 380–435 ns per
//! pair for each of two concurrent callers (2 vCPUs). A batch therefore
//! probes through [`ShardedCache::get_batch`] and stores through
//! [`ShardedCache::insert_batch`], which group its keys by shard and
//! take each shard's lock once: 130–145 ns per pair alone and 130–165
//! ns with two callers on the same host. The grouping is stable, so
//! every shard sees the same `get`s and `insert`s in the same order as
//! one call per key would make.
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
use std::cell::RefCell;
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

    /// Which of the cache's shards holds `key`: one of
    /// `0..shards`, the same for every call.
    pub fn shard_index(&self, key: &CacheKey) -> usize {
        // shards.len() is a power of two.
        (KeyHasher::mix(key) as usize) & (self.shards.len() - 1)
    }

    fn shard_of(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[self.shard_index(key)]
    }

    pub fn get(&self, key: &CacheKey) -> Option<Arc<PredictedPath>> {
        let hit = self.shard_of(key).lock().get(key).cloned();
        match &hit {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        hit
    }

    pub fn insert(&self, key: CacheKey, value: Arc<PredictedPath>) {
        let evicted = self.shard_of(&key).lock().insert(key, value);
        self.inserts.inc();
        if evicted {
            self.evictions.inc();
        }
    }

    /// [`ShardedCache::get`] for every key of `keys`, taking each
    /// shard's lock once: `found(i, hit)` is called for `keys[i]`, one
    /// shard at a time and in `keys` order within a shard, with that
    /// shard locked (so it must not call back into the cache). Hits and
    /// misses are counted with one add each.
    pub fn get_batch(
        &self,
        keys: &[CacheKey],
        mut found: impl FnMut(usize, Option<&Arc<PredictedPath>>),
    ) {
        let mut hits = 0;
        self.by_shard(keys.iter(), |shard, at| {
            for &i in at {
                let hit = shard.get(&keys[i]);
                hits += u64::from(hit.is_some());
                found(i, hit);
            }
        });
        add(&self.hits, hits);
        add(&self.misses, keys.len() as u64 - hits);
    }

    /// [`ShardedCache::insert`] for every entry, taking each shard's
    /// lock once and inserting in `entries` order within a shard.
    /// Inserts and evictions are counted with one add each.
    pub fn insert_batch(&self, entries: &[(CacheKey, Arc<PredictedPath>)]) {
        let mut evictions = 0;
        self.by_shard(entries.iter().map(|(key, _)| key), |shard, at| {
            for &i in at {
                let (key, value) = &entries[i];
                evictions += u64::from(shard.insert(*key, Arc::clone(value)));
            }
        });
        add(&self.inserts, entries.len() as u64);
        add(&self.evictions, evictions);
    }

    /// Group the positions of `keys` by shard (a stable counting sort
    /// into this thread's [`Groups`]) and hand each shard the batch
    /// touches to `visit` once, locked, with its positions in order.
    fn by_shard<'k>(
        &self,
        keys: impl Iterator<Item = &'k CacheKey> + Clone,
        mut visit: impl FnMut(&mut Shard, &[usize]),
    ) {
        GROUPS.with_borrow_mut(|Groups { ends, order }| {
            // ends[s]: first the count of shard s, then where its run
            // starts, and once every position is placed, where it ends.
            ends.clear();
            ends.resize(self.shards.len(), 0);
            for key in keys.clone() {
                ends[self.shard_index(key)] += 1;
            }
            let mut start = 0;
            for end in ends.iter_mut() {
                (start, *end) = (start + *end, start);
            }
            order.resize(start, 0);
            for (i, key) in keys.enumerate() {
                let end = &mut ends[self.shard_index(key)];
                order[*end] = i;
                *end += 1;
            }
            let mut start = 0;
            for (shard, &end) in self.shards.iter().zip(ends.iter()) {
                if end > start {
                    visit(&mut shard.lock(), &order[start..end]);
                }
                start = end;
            }
        });
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Add `n` to `counter`; nothing to add touches nothing.
fn add(counter: &Counter, n: u64) {
    if n > 0 {
        counter.add(n);
    }
}

/// A batch's positions grouped by shard ([`ShardedCache::by_shard`]),
/// kept per thread so a warm batch allocates nothing here.
#[derive(Default)]
struct Groups {
    ends: Vec<usize>,
    order: Vec<usize>,
}

thread_local! {
    static GROUPS: RefCell<Groups> = RefCell::default();
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
