//! The heap cost of encoding a served batch, counted: a batch whose
//! answers already carry their rows encodes with exactly one
//! allocation, its buffer, at any size; the first encode of `N` fresh
//! distinct answers makes `1 + N`, the buffer and one row each.
//!
//! The count is per thread (the allocator bumps a thread-local), so the
//! test harness cannot move it; the binary holds this one test.

use inano_core::PredictedPath;
use inano_model::{AsPath, Asn, ClusterId, LatencyMs, LossRate};
use inano_net::wire::encode_path_batch;
use inano_service::{Answer, SharedResult};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

/// `n` distinct answers, none encoded yet, of a few hops each.
fn fresh_answers(n: usize) -> Vec<SharedResult> {
    (0..n as u32)
        .map(|i| {
            let hops = 2 + i % 5;
            let clusters = |base: u32| (base..base + hops).map(ClusterId::new).collect();
            let ases = |base: u32| AsPath::new((base..base + hops / 2 + 1).map(Asn::new));
            Ok(Arc::new(Answer::new(PredictedPath {
                fwd_clusters: clusters(i),
                rev_clusters: clusters(i + 1),
                fwd_as_path: ases(i),
                rev_as_path: ases(i + 2),
                rtt: LatencyMs::new(1.0 + i as f64),
                loss: LossRate::new(0.01),
            })))
        })
        .collect()
}

#[test]
fn an_encode_allocates_its_buffer_and_each_row_it_writes() {
    for n in [1, 8, 64, 512] {
        let answers = fresh_answers(n);
        let (first, cold) = allocations(|| encode_path_batch(7, &answers));
        assert_eq!(first, 1 + n as u64, "the first encode of {n} fresh answers");
        for round in 0..2 {
            let (allocated, warm) = allocations(|| encode_path_batch(7, &answers));
            assert_eq!(allocated, 1, "a warm encode of {n}, round {round}");
            assert_eq!(warm, cold, "a copied row is the written one");
        }
    }
}
