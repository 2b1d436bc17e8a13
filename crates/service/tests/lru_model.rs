//! The result cache's shard against a reference model: the
//! tick-ordered LRU it replaced (a hash map of `(value, tick)` plus a
//! `BTreeMap<tick, key>` recency index, O(log n) per touch), moved here
//! unchanged. Driven by the same random `get`/`insert` sequence, a
//! one-shard `ShardedCache` must hit and miss where the model does,
//! keep the same keys with the same values, and count the same
//! inserts and evictions.

use inano_core::PredictedPath;
use inano_model::{AsPath, ClusterId, LatencyMs, LossRate};
use inano_service::{CacheKey, ShardedCache};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The pre-slab shard.
struct Reference {
    map: HashMap<CacheKey, (Arc<PredictedPath>, u64)>,
    recency: BTreeMap<u64, CacheKey>,
    tick: u64,
    capacity: usize,
    evictions: u64,
    inserts: u64,
}

impl Reference {
    fn new(capacity: usize) -> Reference {
        Reference {
            map: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            capacity,
            evictions: 0,
            inserts: 0,
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<Arc<PredictedPath>> {
        self.tick += 1;
        let tick = self.tick;
        let (value, old_tick) = self.map.get_mut(key)?;
        let value = Arc::clone(value);
        let old = std::mem::replace(old_tick, tick);
        self.recency.remove(&old);
        self.recency.insert(tick, *key);
        Some(value)
    }

    fn insert(&mut self, key: CacheKey, value: Arc<PredictedPath>) {
        self.tick += 1;
        let tick = self.tick;
        if let Some((_, old_tick)) = self.map.get(&key) {
            let old = *old_tick;
            self.recency.remove(&old);
        }
        self.map.insert(key, (value, tick));
        self.recency.insert(tick, key);
        self.inserts += 1;
        while self.map.len() > self.capacity {
            let (&oldest, &victim) = self.recency.iter().next().expect("recency tracks map");
            self.recency.remove(&oldest);
            self.map.remove(&victim);
            self.evictions += 1;
        }
    }
}

/// A distinct value per insert, told apart by its RTT.
fn path(stamp: usize) -> Arc<PredictedPath> {
    Arc::new(PredictedPath {
        fwd_clusters: vec![],
        rev_clusters: vec![],
        fwd_as_path: AsPath::new(vec![]),
        rev_as_path: AsPath::new(vec![]),
        rtt: LatencyMs::new(stamp as f64),
        loss: LossRate::new(0.0),
    })
}

fn key(k: u32) -> CacheKey {
    (
        ClusterId::new(k),
        ClusterId::new(k ^ 0x5a5a),
        u64::from(k % 3),
    )
}

fn rtt(hit: Option<Arc<PredictedPath>>) -> Option<f64> {
    hit.map(|p| p.rtt.ms())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_shard_matches_the_tick_ordered_lru(
        capacity in 1usize..9,
        spread in 2usize..4,
        ops in proptest::collection::vec((any::<bool>(), any::<u32>()), 0..200),
    ) {
        let keys = (capacity * spread) as u32;
        let cache = ShardedCache::new(capacity, 1);
        let mut model = Reference::new(capacity);
        for (i, &(insert, k)) in ops.iter().enumerate() {
            let k = key(k % keys);
            if insert {
                cache.insert(k, path(i));
                model.insert(k, path(i));
            } else {
                prop_assert_eq!(rtt(cache.get(&k)), rtt(model.get(&k)), "op {}", i);
            }
            prop_assert_eq!(cache.len(), model.map.len(), "op {}", i);
        }
        prop_assert_eq!(cache.inserts.get(), model.inserts);
        prop_assert_eq!(cache.evictions.get(), model.evictions);
        // The survivors, with the values last inserted under them.
        for k in (0..keys).map(key) {
            let want = model.map.get(&k).map(|(p, _)| p.rtt.ms());
            prop_assert_eq!(rtt(cache.get(&k)), want, "{:?}", k);
        }
    }
}
