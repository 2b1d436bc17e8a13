//! An exact least-recently-used map at O(1) per operation.
//!
//! Both of the serving path's caches evict by it: the predictor's search
//! cache (one tree per destination key, §5's destination-rooted search)
//! and each shard of the engine's result cache (one prediction per
//! cluster pair and epoch, replayed for a day by §6.2.1's path
//! stationarity).
//!
//! A hash map takes a key to a slot of an entry slab, and the slots are
//! threaded on a doubly linked recency list by `u32` links. A hit
//! unlinks its entry and pushes it to the front; an insert into a full
//! map evicts the tail and reuses its slot, so the slab never grows past
//! the capacity.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// End of the recency list.
const NIL: u32 = u32::MAX;

/// One entry on the recency list.
struct Entry<K, V> {
    key: K,
    value: V,
    /// The next more recently used slot, or `NIL` at the head.
    prev: u32,
    /// The next less recently used slot, or `NIL` at the tail.
    next: u32,
}

/// A map of at most `capacity` entries that evicts the least recently
/// used. [`Lru::get`] and [`Lru::insert`] both count as a use.
pub struct Lru<K, V, S = RandomState> {
    map: HashMap<K, u32, S>,
    /// Every live entry; never longer than `capacity`.
    slab: Vec<Entry<K, V>>,
    capacity: usize,
    /// Most and least recently used slots, `NIL` while empty.
    head: u32,
    tail: u32,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty map of at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Lru<K, V> {
        Lru::with_hasher(capacity, RandomState::new())
    }
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher> Lru<K, V, S> {
    /// [`Lru::new`] with the map's hasher given.
    pub fn with_hasher(capacity: usize, hasher: S) -> Lru<K, V, S> {
        Lru {
            map: HashMap::with_hasher(hasher),
            slab: Vec::new(),
            capacity: capacity.max(1),
            head: NIL,
            tail: NIL,
        }
    }

    /// How many entries it holds.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// The most entries it holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The value of `key`, now the most recently used.
    #[inline]
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = *self.map.get(key)?;
        self.promote(slot);
        Some(&self.slab[slot as usize].value)
    }

    /// Put `value` under `key` as the most recently used, replacing the
    /// value of a key already there. A new key in a full map evicts the
    /// least recently used entry; `true` when it did.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> bool {
        if let Some(&slot) = self.map.get(&key) {
            self.slab[slot as usize].value = value;
            self.promote(slot);
            return false;
        }
        let entry = Entry {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let (slot, evicted) = if self.slab.len() < self.capacity {
            let slot = u32::try_from(self.slab.len()).expect("an LRU holds under 2^32 entries");
            self.slab.push(entry);
            (slot, false)
        } else {
            let slot = self.tail;
            self.unlink(slot);
            let victim = std::mem::replace(&mut self.slab[slot as usize], entry);
            self.map.remove(&victim.key);
            (slot, true)
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        evicted
    }

    fn unlink(&mut self, slot: u32) {
        let Entry { prev, next, .. } = self.slab[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let head = self.head;
        let entry = &mut self.slab[slot as usize];
        entry.prev = NIL;
        entry.next = head;
        match head {
            NIL => self.tail = slot,
            h => self.slab[h as usize].prev = slot,
        }
        self.head = slot;
    }

    /// Make `slot` the most recently used.
    fn promote(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_insert_evicts_the_least_recently_used() {
        let mut lru = Lru::new(2);
        assert!(!lru.insert(1, "a"));
        assert!(!lru.insert(2, "b"));
        assert_eq!(lru.get(&1), Some(&"a"), "1 is now the most recent");
        assert!(lru.insert(3, "c"), "2 evicted");
        assert_eq!(lru.get(&2), None);
        assert_eq!((lru.len(), lru.capacity()), (2, 2));
    }

    #[test]
    fn reinserting_a_key_replaces_its_value_and_promotes_it() {
        let mut lru = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert!(!lru.insert(1, 11), "no eviction, no growth");
        assert_eq!(lru.len(), 2);
        assert!(lru.insert(3, 30));
        assert_eq!(lru.get(&2), None, "1 was promoted, 2 evicted");
        assert_eq!(lru.get(&1), Some(&11));
    }

    #[test]
    fn a_capacity_of_one_keeps_the_last_key() {
        let mut lru = Lru::new(0);
        assert_eq!(lru.capacity(), 1);
        for k in 0..5 {
            lru.insert(k, k);
        }
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&3), None);
        assert_eq!(lru.get(&4), Some(&4));
    }
}
