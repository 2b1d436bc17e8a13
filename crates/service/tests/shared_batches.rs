//! Concurrent batches against a cache too small to hold them: two
//! callers run overlapping warm and cold batches (in-batch repeats and
//! unroutable addresses among them) on an engine whose 8 entries over 4
//! shards evict in the middle of a batch's inserts. Every answer must
//! equal per-pair `PathPredictor::query` bit for bit, and the counters
//! must account for every pair exactly: each pair that resolves is one
//! cache hit or one miss, so `hits + misses + resolve errors ==
//! queries`.

use inano_core::{PathPredictor, PredictedPath, PredictorConfig};
use inano_model::{Ipv4, ModelError};
use inano_service::{QueryEngine, ServiceConfig, SharedResult};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Barrier};
use std::thread;

#[path = "common/ring.rs"]
mod ring;
use ring::{ring_atlas, ring_ip};

const RING: u32 = 16;
const CALLERS: u64 = 2;
const ROUNDS: usize = 200;
/// An address no ring prefix covers: its pair fails to resolve.
const NOWHERE: Ipv4 = Ipv4(0xff00_0007);

/// The same answer, every float compared by its bits.
fn same(got: &SharedResult, want: &Result<PredictedPath, ModelError>) -> bool {
    match (got, want) {
        (Ok(a), Ok(b)) => {
            a.fwd_clusters == b.fwd_clusters
                && a.rev_clusters == b.rev_clusters
                && a.fwd_as_path == b.fwd_as_path
                && a.rev_as_path == b.rev_as_path
                && a.rtt.ms().to_bits() == b.rtt.ms().to_bits()
                && a.loss.rate().to_bits() == b.loss.rate().to_bits()
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// One caller's next batch: up to 40 pairs, each drawn from a hot set
/// of 6 cluster pairs both callers share, from the whole ring, or with
/// an unroutable end.
fn batch(rng: &mut SmallRng) -> Vec<(Ipv4, Ipv4)> {
    let len = rng.gen_range(1..=40);
    (0..len)
        .map(|_| match rng.gen_range(0..10) {
            0..=4 => {
                let hot = rng.gen_range(0..6);
                (ring_ip(hot), ring_ip(hot + 5))
            }
            5..=8 => (
                ring_ip(rng.gen_range(0..RING)),
                ring_ip(rng.gen_range(0..RING)),
            ),
            _ if rng.gen() => (NOWHERE, ring_ip(rng.gen_range(0..RING))),
            _ => (ring_ip(rng.gen_range(0..RING)), NOWHERE),
        })
        .collect()
}

#[test]
fn concurrent_batches_through_an_evicting_cache_answer_and_count_exactly() {
    let atlas = Arc::new(ring_atlas(RING, 0));
    let cfg = ServiceConfig {
        cache_capacity: 8,
        cache_shards: 4,
        ..ServiceConfig::default()
    };
    let engine = QueryEngine::new(Arc::clone(&atlas), cfg);
    let library = PathPredictor::new(atlas, PredictorConfig::full());
    let start = Barrier::new(CALLERS as usize);
    let (sent, unresolved) = thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|seed| {
                let (engine, library, start) = (&engine, &library, &start);
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let (mut sent, mut unresolved) = (0, 0);
                    start.wait();
                    let mut last = Vec::new();
                    for round in 0..ROUNDS {
                        // Every third batch repeats the one before:
                        // warm, unless the other caller evicted it.
                        if round % 3 != 2 {
                            last = batch(&mut rng);
                        }
                        let answers = engine.query_batch_shared(&last);
                        assert_eq!(answers.len(), last.len());
                        for (&(src, dst), got) in last.iter().zip(&answers) {
                            let want = library.query(src, dst);
                            assert!(same(got, &want), "{src} -> {dst}: {got:?} vs {want:?}");
                            let resolves = library.resolve(src).and(library.resolve(dst));
                            unresolved += u64::from(resolves.is_err());
                        }
                        sent += last.len() as u64;
                    }
                    (sent, unresolved)
                })
            })
            .collect();
        let counts = callers.into_iter().map(|c| c.join().expect("caller"));
        counts.fold((0, 0), |(s, u), (sent, unresolved)| {
            (s + sent, u + unresolved)
        })
    });
    let m = engine.metrics();
    let (hits, misses) = (m.cache_hits.get(), m.cache_misses.get());
    assert_eq!(m.queries.get(), sent);
    assert_eq!(hits + misses + unresolved, sent);
    assert_eq!(
        m.errors.get(),
        unresolved,
        "every ring pair that resolves routes"
    );
    assert!(
        hits > 0 && unresolved > 0,
        "hits {hits}, unresolved {unresolved}"
    );
    assert!(m.cache_evictions.get() > 0, "the cache must evict");
}
