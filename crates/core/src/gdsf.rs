//! The search cache's eviction: GreedyDual-Size-Frequency (Cherkasova,
//! HP Labs 1998, after Cao and Irani's GreedyDual-Size, USITS 1997),
//! without the size term.
//!
//! A search tree costs what its search labelled to rebuild, and trees
//! differ: at `experiment(1)` a relaxed one labels 2,355 of 2,480 nodes
//! (~215 µs), a strict one 909 (~78 µs). An LRU evicts either as
//! readily, and a tree read forty times as readily as one read once.
//! [`Gdsf`] keeps the trees that would cost most to rebuild: an entry's
//! priority is `clock + reads × cost`, a full map evicts the entry of
//! least priority (the least recently touched of equals), and `clock`
//! rises to each evicted priority, so a tree not read for long is
//! overtaken by newer ones however much it cost. The size term, were
//! the cache ever bounded in bytes, would divide `reads × cost` by the
//! tree's bytes.
//!
//! A read *holds* its entry: [`Gdsf::get`] and [`Gdsf::insert`] leave it
//! unpriced until its reader prices it ([`Gdsf::price`]), and an unpriced
//! entry is the victim only when every entry is unpriced, the least
//! recently touched first. The predictor prices the slots a planning
//! round took once the round has read their trees, so a round never
//! evicts a slot it took, as the LRU's recency once guaranteed, and a
//! tree is priced by the cost its search reported.
//!
//! Entries sit in a slab, as in [`inano_model::Lru`], and the hash map
//! takes a key to its slot; a binary min-heap of slots by `(priority,
//! last touch)` sits beside them, its root the next victim, and each
//! entry knows its place in it. So a get, an insert, an eviction and a
//! pricing each cost one hash probe and an O(log capacity) sift of `u32`
//! slots, and none allocates once the map has reached its capacity. An
//! entry carries 24 bytes of bookkeeping, its heap slot included.
//!
//! The engine's result cache and the strict graph's
//! [`crate::reach::AncestorSets`] stay on [`inano_model::Lru`]: a
//! result-cache hit is the server's hot path and must stay an O(1)
//! relink, and an ancestor set, read on every strict miss, costs a walk
//! of the condensation to rebuild, not a search.

use std::collections::HashMap;
use std::hash::Hash;

/// The priority of an unpriced entry: above every priced one.
const HELD: u64 = u64::MAX;

/// One entry: 20 bytes besides its key and value, and its slot's 4 in
/// the heap.
struct Entry<K, V> {
    key: K,
    value: V,
    /// `clock + reads × cost` when last priced, else `HELD`.
    priority: u64,
    /// When it was last read or inserted; unique per entry, so no two
    /// entries rank alike.
    touched: u32,
    reads: u32,
    /// Its slot's place in the heap.
    at: u32,
}

/// A map of at most `capacity` entries that evicts the one of least
/// `clock + reads × cost` (see the module docs).
pub struct Gdsf<K, V> {
    map: HashMap<K, u32>,
    /// Every live entry; never longer than `capacity`.
    slab: Vec<Entry<K, V>>,
    /// The slots of `slab`, a binary min-heap by `(priority, touched)`.
    heap: Vec<u32>,
    capacity: usize,
    /// The priority of the last priced entry evicted.
    clock: u64,
    /// The last touch handed out.
    ticks: u32,
}

impl<K: Hash + Eq + Clone, V> Gdsf<K, V> {
    /// An empty map of at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Gdsf<K, V> {
        let capacity = capacity.max(1);
        Gdsf {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            heap: Vec::with_capacity(capacity),
            capacity,
            clock: 0,
            ticks: 0,
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

    /// The value of `key`, read once more and held until priced.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = *self.map.get(key)?;
        self.hold(slot);
        Some(&self.slab[slot as usize].value)
    }

    /// Put `value` under `key`, read once and held until priced. A key
    /// already there keeps its reads, gains this one and takes the new
    /// value. A new key in a full map evicts the entry of least priority,
    /// whose key it returns.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        if let Some(&slot) = self.map.get(&key) {
            self.hold(slot);
            self.slab[slot as usize].value = value;
            return None;
        }
        let entry = Entry {
            key: key.clone(),
            value,
            priority: HELD,
            touched: self.tick(),
            reads: 1,
            at: 0,
        };
        if self.slab.len() < self.capacity {
            // Held and the newest, it ranks after every entry: a leaf.
            let slot = u32::try_from(self.slab.len()).expect("a cache holds under 2^32 entries");
            self.map.insert(key, slot);
            self.slab.push(Entry { at: slot, ..entry });
            self.heap.push(slot);
            return None;
        }
        let slot = self.heap[0];
        let victim = std::mem::replace(&mut self.slab[slot as usize], entry);
        if victim.priority != HELD {
            self.clock = victim.priority;
        }
        self.map.remove(&victim.key);
        self.map.insert(key, slot);
        self.sift_down(0);
        Some(victim.key)
    }

    /// Price `key`'s entry, if it is there, at `clock + reads × cost`:
    /// from now on it may be evicted.
    pub fn price(&mut self, key: &K, cost: u32) {
        let Some(&slot) = self.map.get(key) else {
            return;
        };
        let entry = &mut self.slab[slot as usize];
        let worth = u64::from(entry.reads) * u64::from(cost);
        entry.priority = self.clock.saturating_add(worth).min(HELD - 1);
        let at = entry.at as usize;
        let at = self.sift_up(at);
        self.sift_down(at);
    }

    /// Count a read of the entry in `slot` and hold it.
    fn hold(&mut self, slot: u32) {
        let touched = self.tick();
        let entry = &mut self.slab[slot as usize];
        entry.reads = entry.reads.saturating_add(1);
        entry.priority = HELD;
        entry.touched = touched;
        let at = entry.at as usize;
        self.sift_down(at);
    }

    /// A touch later than every entry's.
    fn tick(&mut self) -> u32 {
        if self.ticks == u32::MAX {
            self.renumber();
        }
        self.ticks += 1;
        self.ticks
    }

    /// Number the entries' touches 1, 2, ... in their order, so that the
    /// counter restarts at the entry count and no rank changes.
    fn renumber(&mut self) {
        let slab = &mut self.slab;
        self.heap
            .sort_unstable_by_key(|&slot| slab[slot as usize].touched);
        for (i, &slot) in self.heap.iter().enumerate() {
            let entry = &mut slab[slot as usize];
            (entry.touched, entry.at) = (i as u32 + 1, i as u32);
        }
        self.ticks = self.heap.len() as u32;
        for at in (0..self.heap.len() / 2).rev() {
            self.sift_down(at);
        }
    }

    fn rank(&self, slot: u32) -> (u64, u32) {
        let entry = &self.slab[slot as usize];
        (entry.priority, entry.touched)
    }

    /// Put `slot` at `at` in the heap.
    fn place(&mut self, at: usize, slot: u32) {
        self.heap[at] = slot;
        self.slab[slot as usize].at = at as u32;
    }

    /// Move the slot at `at` down past every child that ranks before it;
    /// where it ends.
    fn sift_down(&mut self, mut at: usize) -> usize {
        let slot = self.heap[at];
        let rank = self.rank(slot);
        loop {
            let left = 2 * at + 1;
            let Some(&first) = self.heap.get(left) else {
                break;
            };
            let child = match self.heap.get(left + 1) {
                Some(&second) if self.rank(second) < self.rank(first) => left + 1,
                _ => left,
            };
            if rank < self.rank(self.heap[child]) {
                break;
            }
            self.place(at, self.heap[child]);
            at = child;
        }
        self.place(at, slot);
        at
    }

    /// Move the slot at `at` up past every parent that ranks after it;
    /// where it ends.
    fn sift_up(&mut self, mut at: usize) -> usize {
        let slot = self.heap[at];
        let rank = self.rank(slot);
        while at > 0 {
            let parent = (at - 1) / 2;
            if self.rank(self.heap[parent]) < rank {
                break;
            }
            self.place(at, self.heap[parent]);
            at = parent;
        }
        self.place(at, slot);
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_entry_is_bookkept_in_24_bytes() {
        use std::mem::size_of;
        // A search key's 20 bytes and a slot's pointer, as the predictor
        // stores them, plus the entry's slot in the heap.
        let (key, value) = (size_of::<[u32; 5]>(), size_of::<usize>());
        let entry = size_of::<Entry<[u32; 5], usize>>();
        assert_eq!(entry - key - value + size_of::<u32>(), 24);
    }

    #[test]
    fn the_cheapest_of_the_priced_entries_goes_first() {
        let mut cache = Gdsf::new(3);
        for (key, cost) in [(1, 50), (2, 10), (3, 30)] {
            assert_eq!(cache.insert(key, ()), None);
            cache.price(&key, cost);
        }
        assert_eq!(cache.insert(4, ()), Some(2), "cost 10 is the least");
        cache.price(&4, 5);
        // The clock stands at 10: 4 is worth 15, 3 is worth 30.
        assert_eq!(cache.insert(5, ()), Some(4));
        cache.price(&5, 5);
        assert_eq!(cache.insert(6, ()), Some(5), "15 + 5 = 20 < 30");
        assert_eq!((cache.len(), cache.capacity()), (3, 3));
    }

    #[test]
    fn reads_multiply_the_cost_and_ties_go_to_the_least_recent() {
        let mut cache = Gdsf::new(2);
        cache.insert(1, 'a');
        cache.insert(2, 'b');
        assert_eq!(cache.get(&1), Some(&'a'));
        cache.price(&1, 10); // two reads: 20
        cache.price(&2, 20); // one read: 20, last touched before 1
        assert_eq!(cache.insert(3, 'c'), Some(2));
        cache.price(&3, 1); // the clock is 20: 21
        assert_eq!(cache.insert(4, 'd'), Some(1));
        assert_eq!(cache.get(&3), Some(&'c'));
    }

    #[test]
    fn renumbering_the_touches_keeps_every_rank() {
        let mut cache = Gdsf::new(4);
        cache.ticks = u32::MAX - 5;
        for key in 0..4 {
            cache.insert(key, ());
            cache.price(&key, 5);
        }
        cache.get(&0);
        cache.price(&0, 5); // two reads: the others, one each, tie below it
        cache.get(&2); // held: newer than every touch before the wrap
        assert_eq!(cache.ticks, 5, "four renumbered, then this touch");
        assert_eq!(cache.insert(4, ()), Some(1), "the oldest of the ties");
        assert_eq!(cache.insert(5, ()), Some(3));
        assert_eq!(cache.insert(6, ()), Some(0), "only the held are left");
        assert_eq!(cache.insert(7, ()), Some(2));
    }

    #[test]
    fn an_unpriced_entry_outlives_priced_ones_and_the_oldest_goes_when_all_are() {
        let mut cache = Gdsf::new(2);
        cache.insert(1, ());
        cache.price(&1, 1_000);
        cache.insert(2, ());
        assert_eq!(cache.insert(3, ()), Some(1), "2 is held, 1 is not");
        assert_eq!(cache.insert(4, ()), Some(2), "all held: the oldest");
        cache.get(&3);
        assert_eq!(cache.insert(5, ()), Some(4), "3 was read after 4");
    }
}
