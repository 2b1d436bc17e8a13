//! A warm batch's heap cost, counted: once every pair of a batch is in
//! the result cache, `QueryEngine::query_batch_shared` allocates exactly
//! once, the answers it returns, at any batch size, and runs no search.
//!
//! The count is per thread (the allocator bumps a thread-local), so the
//! test harness and any sibling test cannot move it.

use inano_model::Ipv4;
use inano_service::{QueryEngine, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

#[path = "common/ring.rs"]
mod ring;
use ring::{ring_atlas, ring_ip};

/// The system allocator, counting this thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.get();
    let out = f();
    (ALLOCATIONS.get() - before, out)
}

/// Ring size: the 512-pair batch is 512 distinct cluster pairs.
const RING: u32 = 24;

/// `n` distinct routable pairs of ring clusters.
fn pairs(n: usize) -> Vec<(Ipv4, Ipv4)> {
    let all = (0..RING).flat_map(|s| (0..RING).filter(move |&d| d != s).map(move |d| (s, d)));
    all.take(n).map(|(s, d)| (ring_ip(s), ring_ip(d))).collect()
}

#[test]
fn a_warm_batch_allocates_only_its_answers_and_searches_nothing() {
    let engine = QueryEngine::new(Arc::new(ring_atlas(RING, 0)), ServiceConfig::default());
    for n in [1, 8, 64, 512] {
        let batch = pairs(n);
        assert_eq!(batch.len(), n);
        let cold = engine.query_batch_shared(&batch);
        assert!(cold.iter().all(Result::is_ok), "every ring pair routes");
        let predictor = Arc::clone(&engine.generation().predictor);
        let searched = predictor.search_counts();
        let hits = engine.metrics().cache_hits.get();
        let (allocated, warm) = allocations(|| engine.query_batch_shared(&batch));
        assert_eq!(allocated, 1, "a warm batch of {n}");
        assert_eq!(predictor.search_counts(), searched, "a warm batch of {n}");
        assert_eq!(engine.metrics().cache_hits.get(), hits + n as u64);
        for (w, c) in warm.iter().zip(&cold) {
            let (w, c) = (w.as_ref().unwrap(), c.as_ref().unwrap());
            assert!(Arc::ptr_eq(w, c), "a hit is the cached Arc");
        }
    }
}

#[test]
fn a_warm_probe_answered_whole_allocates_only_its_answers() {
    // The half a server runs on its event loop: the same one allocation
    // as the whole batch, and nothing owed.
    let engine = QueryEngine::new(Arc::new(ring_atlas(RING, 0)), ServiceConfig::default());
    for n in [1, 8, 64, 512] {
        let batch = pairs(n);
        engine.query_batch_shared(&batch);
        let (allocated, probed) = allocations(|| engine.probe_batch(&batch));
        assert_eq!(allocated, 1, "a warm probe of {n}");
        assert!(
            probed.is_ok_and(|answers| answers.len() == n),
            "a warm probe of {n}"
        );
    }
}
