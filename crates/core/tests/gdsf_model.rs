//! The search cache's eviction against a brute-force reference: the
//! same GreedyDual-Size-Frequency rule kept in a plain list and a scan
//! for the least `(priority, last touch)`, an unpriced entry ranking
//! above every priced one. Driven by the same random `get`/`insert`/
//! `price` sequence, `Gdsf` must hit and miss where the model does,
//! evict the same victims and end with the same keys and values.

use inano_core::gdsf::Gdsf;
use proptest::prelude::*;

struct Entry {
    key: u32,
    value: usize,
    /// `None` until priced, and again after each read.
    priority: Option<u64>,
    touched: u64,
    reads: u32,
}

struct Reference {
    entries: Vec<Entry>,
    capacity: usize,
    clock: u64,
    ticks: u64,
}

impl Reference {
    fn new(capacity: usize) -> Reference {
        Reference {
            entries: Vec::new(),
            capacity: capacity.max(1),
            clock: 0,
            ticks: 0,
        }
    }

    fn find(&mut self, key: u32) -> Option<&mut Entry> {
        self.entries.iter_mut().find(|e| e.key == key)
    }

    fn read(&mut self, key: u32) -> Option<&mut Entry> {
        self.ticks += 1;
        let ticks = self.ticks;
        let entry = self.find(key)?;
        entry.reads += 1;
        entry.priority = None;
        entry.touched = ticks;
        Some(entry)
    }

    fn get(&mut self, key: u32) -> Option<usize> {
        self.read(key).map(|e| e.value)
    }

    fn insert(&mut self, key: u32, value: usize) -> Option<u32> {
        if let Some(entry) = self.read(key) {
            entry.value = value;
            return None;
        }
        let mut victim = None;
        if self.entries.len() == self.capacity {
            let rank = |e: &Entry| (e.priority.unwrap_or(u64::MAX), e.touched);
            let (at, _) = (self.entries.iter().enumerate())
                .min_by_key(|(_, e)| rank(e))
                .expect("a full cache holds an entry");
            let gone = self.entries.swap_remove(at);
            if let Some(priority) = gone.priority {
                self.clock = priority;
            }
            victim = Some(gone.key);
        }
        self.entries.push(Entry {
            key,
            value,
            priority: None,
            touched: self.ticks,
            reads: 1,
        });
        victim
    }

    fn price(&mut self, key: u32, cost: u32) {
        let clock = self.clock;
        if let Some(entry) = self.find(key) {
            entry.priority = Some(clock + u64::from(entry.reads) * u64::from(cost));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_cache_matches_a_scan_for_the_least_priority(
        capacity in 1usize..9,
        spread in 2usize..4,
        // (get, insert or price; key; cost / 7): few distinct costs, so
        // equal priorities and the tie-break are common.
        ops in proptest::collection::vec((0u8..3, any::<u32>(), 0u32..6), 0..300),
    ) {
        let keys = (capacity * spread) as u32;
        let mut cache = Gdsf::new(capacity);
        let mut model = Reference::new(capacity);
        for (i, &(op, k, cost)) in ops.iter().enumerate() {
            let k = k % keys;
            match op {
                0 => prop_assert_eq!(cache.get(&k).copied(), model.get(k), "op {}", i),
                1 => prop_assert_eq!(cache.insert(k, i), model.insert(k, i), "op {}", i),
                _ => {
                    cache.price(&k, cost * 7);
                    model.price(k, cost * 7);
                }
            }
            prop_assert_eq!(cache.len(), model.entries.len(), "op {}", i);
        }
        // The survivors, with the values last inserted under them.
        for k in 0..keys {
            let want = model.find(k).map(|e| e.value);
            prop_assert_eq!(cache.get(&k).copied(), want, "key {}", k);
        }
    }
}
