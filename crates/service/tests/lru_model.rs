//! The result cache's shard against a reference model: the
//! tick-ordered LRU it replaced (a hash map of `(value, tick)` plus a
//! `BTreeMap<tick, key>` recency index, O(log n) per touch), moved here
//! unchanged. Driven by the same random `get`/`insert` sequence, a
//! one-shard `ShardedCache` must hit and miss where the model does,
//! keep the same keys with the same values, and count the same
//! inserts and evictions.
//!
//! The batched forms the engine uses take each shard's lock once per
//! batch and group a batch's keys by shard, keeping their order within
//! a shard. Driven by random batches, a many-shard `ShardedCache` must
//! answer as one model per shard does when fed the same keys one at a
//! time in input order, and then the answers to the batch's misses.

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn batches_match_one_tick_ordered_lru_per_shard(
        capacity in 1usize..40,
        shards in 1usize..9,
        spread in 1usize..4,
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<u32>(), any::<bool>()), 0..48),
            0..24,
        ),
    ) {
        let keys = (capacity * spread) as u32 + 1;
        let cache = ShardedCache::new(capacity, shards);
        let shards = shards.next_power_of_two();
        let mut models: Vec<Reference> =
            (0..shards).map(|_| Reference::new((capacity / shards).max(1))).collect();
        let (mut hits, mut misses, mut stamp) = (0, 0, 0);
        for (b, batch) in batches.iter().enumerate() {
            let batch_keys: Vec<CacheKey> = batch.iter().map(|&(k, _)| key(k % keys)).collect();
            let mut got = vec![None; batch_keys.len()];
            let mut calls = 0;
            cache.get_batch(&batch_keys, |i, hit| {
                got[i] = Some(rtt(hit.cloned()));
                calls += 1;
            });
            prop_assert_eq!(calls, batch_keys.len(), "batch {}: one call per key", b);
            // The batch's misses owe one answer per distinct key, in
            // first-miss order; a failed prediction (the flag) is not
            // cached.
            let mut owed: Vec<CacheKey> = Vec::new();
            let mut entries = Vec::new();
            for (i, (k, &(_, fails))) in batch_keys.iter().zip(batch).enumerate() {
                let want = rtt(models[cache.shard_index(k)].get(k));
                prop_assert_eq!(got[i], Some(want), "batch {} key {}", b, i);
                match want {
                    Some(_) => hits += 1,
                    None => {
                        misses += 1;
                        if !owed.contains(k) {
                            owed.push(*k);
                            stamp += 1;
                            if !fails {
                                entries.push((*k, path(stamp)));
                            }
                        }
                    }
                }
            }
            cache.insert_batch(&entries);
            for (k, value) in &entries {
                models[cache.shard_index(k)].insert(*k, Arc::clone(value));
            }
            let held: usize = models.iter().map(|m| m.map.len()).sum();
            prop_assert_eq!(cache.len(), held, "batch {}", b);
        }
        prop_assert_eq!(cache.hits.get(), hits);
        prop_assert_eq!(cache.misses.get(), misses);
        prop_assert_eq!(cache.inserts.get(), models.iter().map(|m| m.inserts).sum::<u64>());
        prop_assert_eq!(cache.evictions.get(), models.iter().map(|m| m.evictions).sum::<u64>());
        // The survivors, with the values last inserted under them.
        for k in (0..keys).map(key) {
            let want = models[cache.shard_index(&k)].map.get(&k).map(|(p, _)| p.rtt.ms());
            prop_assert_eq!(rtt(cache.get(&k)), want, "{:?}", k);
        }
    }
}
