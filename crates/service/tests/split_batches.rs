//! A batch split across threads: `probe_batch` on one, `finish` on
//! another, with a generation swap landing between them. The batch must
//! still be answered from the generation it was probed on, bit for bit
//! what that generation's `PathPredictor::query` says, and every pair
//! must be counted exactly once: `hits + misses + resolve errors ==
//! queries`, one latency sample per query.

use inano_core::{PathPredictor, PredictedPath, PredictorConfig};
use inano_model::{Ipv4, ModelError};
use inano_service::{QueryEngine, ServiceConfig, SharedResult};
use std::sync::Arc;
use std::thread;

#[path = "common/ring.rs"]
mod ring;
use ring::{ring_atlas, ring_ip, ring_shortcut_delta};

const RING: u32 = 12;
const FAR: u32 = RING / 2;
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

/// `queries`, `hits + misses` and the latency histogram's total.
fn counts(engine: &QueryEngine) -> (u64, u64, u64) {
    let m = engine.metrics();
    (
        m.queries.get(),
        m.cache_hits.get() + m.cache_misses.get(),
        m.latency_us.count(),
    )
}

#[test]
fn a_batch_probed_on_one_thread_is_finished_on_another_from_its_generation() {
    let atlas = Arc::new(ring_atlas(RING, 0));
    let engine = QueryEngine::new(Arc::clone(&atlas), ServiceConfig::default());
    let day0 = PathPredictor::new(atlas, PredictorConfig::full());
    let warm = [(ring_ip(1), ring_ip(3)), (ring_ip(2), ring_ip(9))];
    assert!(engine.query_batch_shared(&warm).iter().all(Result::is_ok));

    // Hits, misses the shortcut will change, an in-batch repeat of a
    // miss, and a resolve error on either side.
    let batch = [
        warm[0],
        (ring_ip(0), ring_ip(FAR)),
        (NOWHERE, ring_ip(4)),
        (ring_ip(FAR), ring_ip(0)),
        warm[1],
        (ring_ip(0), ring_ip(FAR)),
        (ring_ip(5), NOWHERE),
        (ring_ip(7), ring_ip(8)),
    ];
    let before = counts(&engine);
    let Err(owed) = engine.probe_batch(&batch) else {
        panic!("a batch with misses is owed");
    };
    engine
        .apply_delta(&ring_shortcut_delta(RING, 0))
        .expect("the delta lands between the halves");
    let answers = thread::scope(|scope| {
        let engine = &engine;
        scope
            .spawn(move || engine.finish(owed))
            .join()
            .expect("finisher")
    });

    for (i, (&(s, d), got)) in batch.iter().zip(&answers).enumerate() {
        assert!(same(got, &day0.query(s, d)), "pair {i}: not day 0's answer");
    }
    let day1 = engine.query(ring_ip(0), ring_ip(FAR)).expect("routable");
    let probed = answers[1].as_ref().expect("routable");
    assert!(
        day1.fwd_clusters.len() < probed.fwd_clusters.len(),
        "the swapped generation serves the shortcut, not the probed answer"
    );

    // Counted once each: the probe counted hits and misses, `finish`
    // everything else, and the day-1 query above is one more of each.
    let (queries, probes, latency) = counts(&engine);
    let unresolved = 2;
    assert_eq!(queries - before.0, batch.len() as u64 + 1);
    assert_eq!(probes - before.1 + unresolved, queries - before.0);
    assert_eq!(latency, queries);
    let m = engine.metrics();
    assert_eq!(m.cache_hits.get(), 2, "the two warm pairs");
    assert_eq!(m.errors.get(), unresolved);
}

#[test]
fn a_warm_probe_is_answered_whole_and_counted_on_the_spot() {
    let engine = QueryEngine::new(Arc::new(ring_atlas(RING, 0)), ServiceConfig::default());
    let batch = [(ring_ip(0), ring_ip(2)), (NOWHERE, ring_ip(1))];
    let cold = engine.query_batch_shared(&batch);
    let before = counts(&engine);
    let Ok(warm) = engine.probe_batch(&batch) else {
        panic!("every pair hits or fails to resolve");
    };
    let (cold0, warm0) = (cold[0].as_ref().unwrap(), warm[0].as_ref().unwrap());
    assert!(Arc::ptr_eq(cold0, warm0), "a hit is the cached Arc");
    assert!(same(&warm[1], &Err(cold[1].clone().unwrap_err())));
    assert_eq!(counts(&engine), (before.0 + 2, before.1 + 1, before.2 + 2));
}
