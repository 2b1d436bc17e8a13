//! Integration tests for the query engine: concurrency under hot swap,
//! cache-hit correctness against the bare predictor, and serving
//! updates through an in-memory `AtlasSource`.

use inano_atlas::{codec, Atlas, AtlasDelta, LinkAnnotation, Plane};
use inano_core::{
    content_tag, AtlasSource, ChainLink, OfferedBody, OfferedDelta, PathPredictor, PredictedPath,
    PredictorConfig, Scripted, StaticSource, Step, DEFAULT_CHUNK_SIZE,
};
use inano_model::{ClusterId, Ipv4, LatencyMs, ModelError};
use inano_service::{QueryEngine, ServiceConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

#[path = "common/ring.rs"]
mod ring;
use ring::{ring_atlas, ring_ip, ring_shortcut_delta};

/// The chain of deltas `engine`'s head names for its peers.
fn chain(engine: &QueryEngine) -> Vec<ChainLink> {
    let head = engine.offer(DEFAULT_CHUNK_SIZE).head();
    head.expect("an engine always has a head").chain
}

fn tag_of(atlas: &Atlas) -> u64 {
    content_tag(&codec::encode(atlas).0)
}

#[test]
fn every_ring_pair_is_routable() {
    let n = 8;
    let p = PathPredictor::new(Arc::new(ring_atlas(n, 0)), PredictorConfig::full());
    for s in 0..n {
        for d in 0..n {
            if s != d {
                p.query(ring_ip(s), ring_ip(d)).expect("ring pair routable");
            }
        }
    }
}

#[test]
fn shortcut_delta_halves_the_far_path() {
    let n = 8;
    let base = ring_atlas(n, 0);
    let next = ring_shortcut_delta(n, 0).apply(&base).expect("applies");
    assert_eq!(next.day, 1);
    let p = PathPredictor::new(Arc::new(next), PredictorConfig::full());
    let path = p.query(ring_ip(0), ring_ip(n / 2)).expect("routable");
    assert_eq!(path.fwd_clusters.len(), 2, "shortcut is the new route");
}

fn engine_over(atlas: Atlas) -> QueryEngine {
    let cfg = ServiceConfig {
        cache_capacity: 4096,
        cache_shards: 8,
        ..ServiceConfig::default()
    };
    QueryEngine::new(Arc::new(atlas), cfg)
}

fn assert_same_path(a: &PredictedPath, b: &PredictedPath) {
    assert_eq!(a.fwd_clusters, b.fwd_clusters);
    assert_eq!(a.rev_clusters, b.rev_clusters);
    assert_eq!(a.fwd_as_path, b.fwd_as_path);
    assert_eq!(a.rev_as_path, b.rev_as_path);
    assert!((a.rtt.ms() - b.rtt.ms()).abs() < 1e-12);
    assert!((a.loss.rate() - b.loss.rate()).abs() < 1e-12);
}

fn same_route(a: &PredictedPath, b: &PredictedPath) -> bool {
    a.fwd_clusters == b.fwd_clusters && a.rev_clusters == b.rev_clusters && a.rtt == b.rtt
}

#[test]
fn batches_fan_across_workers_in_order() {
    let n = 10;
    let engine = engine_over(ring_atlas(n, 0));
    let pairs: Vec<(Ipv4, Ipv4)> = (0..n)
        .flat_map(|s| {
            (0..n)
                .filter(move |&d| d != s)
                .map(move |d| (ring_ip(s), ring_ip(d)))
        })
        .collect();
    let batched = engine.query_batch(&pairs);
    assert_eq!(batched.len(), pairs.len());
    for (i, &(s, d)) in pairs.iter().enumerate() {
        let inline = engine.query(s, d).expect("ring is fully routable");
        assert_same_path(batched[i].as_ref().expect("batch result ok"), &inline);
    }
    let m = engine.metrics();
    assert_eq!(m.errors.get(), 0);
    assert!(m.queries.get() >= pairs.len() as u64 * 2);
}

#[test]
fn cache_hit_equals_fresh_predictor_query() {
    let n = 12;
    let atlas = ring_atlas(n, 0);
    let engine = engine_over(atlas.clone());
    let fresh = PathPredictor::new(Arc::new(atlas), PredictorConfig::full());
    for s in 0..n {
        for d in 0..n {
            if s == d {
                continue;
            }
            let cold = engine.query(ring_ip(s), ring_ip(d)).expect("routable");
            let warm = engine.query(ring_ip(s), ring_ip(d)).expect("routable");
            let reference = fresh.query(ring_ip(s), ring_ip(d)).expect("routable");
            assert_same_path(&cold, &reference);
            assert_same_path(&warm, &reference);
        }
    }
    let m = engine.metrics();
    assert!(m.cache_hits.get() > 0, "second pass must hit: {m:?}");
}

#[test]
fn zipf_mix_sees_positive_hit_rate() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let n = 16u32;
    let engine = engine_over(ring_atlas(n, 0));
    let mut rng = SmallRng::seed_from_u64(42);
    // Zipf(s≈1) over destination clusters: weight 1/(rank+1).
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / (r as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut pairs = Vec::new();
    for _ in 0..2000 {
        let src = rng.gen_range(0..n);
        let mut pick = rng.gen_range(0.0..total);
        let mut dst = 0;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                dst = i as u32;
                break;
            }
            pick -= w;
        }
        if src != dst {
            pairs.push((ring_ip(src), ring_ip(dst)));
        }
    }
    // The mix arrives as a stream of batches: a batch probes the cache
    // before it searches, so only what earlier batches left behind can
    // hit (in-batch repeats of a cold key share one search, and each
    // counts the miss it probed).
    for batch in pairs.chunks(100) {
        for r in engine.query_batch(batch) {
            r.expect("ring is fully routable");
        }
    }
    let m = engine.metrics();
    let (hits, misses) = (m.cache_hits.get(), m.cache_misses.get());
    assert!(
        hits > misses,
        "zipf mix over {} cluster pairs must mostly hit: {m:?}",
        n * (n - 1)
    );
}

#[test]
fn hammering_queries_while_applying_deltas_never_errors() {
    let n = 12u32;
    let day0 = ring_atlas(n, 0);
    // Day 1 adds a direct shortcut 0 ↔ n/2, halving that path.
    let far = n / 2;
    let delta = ring_shortcut_delta(n, 0);

    let pairs: Vec<(Ipv4, Ipv4)> = (0..n)
        .flat_map(|s| {
            (0..n)
                .filter(move |&d| d != s)
                .map(move |d| (ring_ip(s), ring_ip(d)))
        })
        .collect();
    // What each day answers for every pair. A batch is served from one
    // generation, so it must agree with one of these from end to end —
    // never day 0 for some pairs and day 1 for others.
    let oracles: Arc<Vec<Vec<PredictedPath>>> = Arc::new(
        // Day 1 as served: through the delta, like the engine's copy.
        [day0.clone(), delta.apply(&day0).expect("delta applies")]
            .into_iter()
            .map(|atlas| {
                let fresh = PathPredictor::new(Arc::new(atlas), PredictorConfig::full());
                pairs
                    .iter()
                    .map(|&(s, d)| fresh.query(s, d).expect("routable"))
                    .collect()
            })
            .collect(),
    );
    assert!(
        oracles[0]
            .iter()
            .zip(&oracles[1])
            .any(|(a, b)| !same_route(a, b)),
        "the days must differ for a mixed batch to be detectable"
    );

    let engine = Arc::new(engine_over(day0));
    let before = engine.query(ring_ip(0), ring_ip(far)).expect("routable");
    assert_eq!(
        before.fwd_clusters.len(),
        far as usize + 1,
        "pre-swap: the long way around"
    );

    let stop = Arc::new(AtomicBool::new(false));
    let issued = Arc::new(AtomicU64::new(0));
    let hammers: Vec<_> = (0..6)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let issued = Arc::clone(&issued);
            let pairs = pairs.clone();
            let oracles = Arc::clone(&oracles);
            thread::spawn(move || {
                let mut failures = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let results = engine.query_batch(&pairs);
                    failures += results.iter().filter(|r| r.is_err()).count() as u64;
                    let one_day = oracles.iter().any(|day| {
                        results
                            .iter()
                            .zip(day)
                            .all(|(r, want)| r.as_ref().is_ok_and(|got| same_route(got, want)))
                    });
                    assert!(one_day, "a batch mixed two generations");
                    issued.fetch_add(pairs.len() as u64, Ordering::Relaxed);
                }
                failures
            })
        })
        .collect();

    // Let the hammers warm up, then swap mid-load.
    thread::sleep(Duration::from_millis(50));
    let day = engine.apply_delta(&delta).expect("delta applies");
    assert_eq!(day, 1);
    thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    let failures: u64 = hammers.into_iter().map(|h| h.join().unwrap()).sum();

    assert_eq!(failures, 0, "no query may error across the swap");
    assert!(issued.load(Ordering::Relaxed) > 0);
    let m = engine.metrics();
    assert_eq!(m.errors.get(), 0);
    assert_eq!(m.swaps.get(), 1);
    assert_eq!(m.epoch.get(), 1);
    assert_eq!(m.day.get(), 1);

    // Post-swap queries must reflect the new day, not a stale cache
    // entry: the shortcut is now the route.
    let after = engine.query(ring_ip(0), ring_ip(far)).expect("routable");
    assert_eq!(after.fwd_clusters.len(), 2, "post-swap: the day-1 shortcut");
    let day1 = delta.apply(&ring_atlas(n, 0)).expect("delta applies");
    let reference = PathPredictor::new(Arc::new(day1), PredictorConfig::full());
    assert_same_path(&after, &reference.query(ring_ip(0), ring_ip(far)).unwrap());
}

/// Bootstrap and one daily update through an in-memory source, the
/// stand-in for however the atlas reaches a peer (§5's swarm).
#[test]
fn serves_and_updates_through_the_swarm() {
    let day0 = ring_atlas(8, 0);
    let mut day1 = ring_atlas(8, 1);
    day1.links.insert(
        (ClusterId::new(0), ClusterId::new(4)),
        LinkAnnotation {
            latency: Some(LatencyMs::new(0.5)),
            plane: Plane::TO_DST,
        },
    );
    let full = codec::encode(&day0).0;
    let mut at_day0 = StaticSource::new(full.clone(), vec![]);
    let cfg = ServiceConfig::default();
    let engine = QueryEngine::bootstrap(&mut at_day0, cfg).expect("bootstrap");
    assert_eq!(engine.day(), 0);
    engine
        .query(ring_ip(1), ring_ip(5))
        .expect("routable at day 0");
    let mut source = StaticSource::new(full, vec![AtlasDelta::between(&day0, &day1).encode().0]);
    assert_eq!(engine.update(&mut source).expect("update"), 1);
    assert_eq!(engine.day(), 1);
    assert_eq!(engine.epoch(), 1);
    assert_eq!(engine.update(&mut source).expect("in step"), 0);
    assert_eq!(chain(&engine), source.head().expect("head").chain);
    let r = engine
        .query(ring_ip(0), ring_ip(4))
        .expect("routable at day 1");
    assert_eq!(r.fwd_clusters.len(), 2, "served from the day-1 atlas");
}

/// A source whose chain leaves the engine's body by a delta that lands
/// on its day again: `update` refuses it instead of applying it. It
/// runs on a helper thread so that a regression fails here instead of
/// hanging the suite.
#[test]
fn update_refuses_a_delta_that_does_not_advance_the_day() {
    let stuck = AtlasDelta {
        from_day: 0,
        to_day: 0,
        ..AtlasDelta::default()
    };
    let day0 = ring_atlas(8, 0);
    let mut source = StaticSource {
        full: OfferedBody::new(codec::encode(&ring_atlas(8, 1)).0),
        chain: vec![OfferedDelta::new(tag_of(&day0), stuck.encode().0)],
        chunk_size: DEFAULT_CHUNK_SIZE,
    };
    let engine = Arc::new(QueryEngine::new(Arc::new(day0), ServiceConfig::default()));
    let (done, outcome) = std::sync::mpsc::channel();
    let updater = {
        let engine = Arc::clone(&engine);
        thread::spawn(move || {
            let _ = done.send(engine.update(&mut source));
        })
    };
    let result = outcome
        .recv_timeout(Duration::from_secs(10))
        .expect("update returns instead of re-applying the 0→0 delta");
    updater.join().expect("the updater thread");
    match result {
        Err(ModelError::PatchMismatch(msg)) => {
            assert_eq!(msg, "delta 0→0 does not advance the day")
        }
        other => panic!("want the 0→0 delta refused, got {other:?}"),
    }
    assert_eq!((engine.day(), engine.epoch()), (0, 0));
    assert_eq!(engine.metrics().swaps.get(), 0);
    assert!(chain(&engine).is_empty(), "nothing was logged");
}

/// A chain whose second delta does not decode: the first stays
/// applied, and every record of it agrees — the swap, the retained
/// blob, the journal and `mirror.deltas_applied`.
#[test]
fn a_chain_failing_midway_counts_the_delta_it_applied() {
    use inano_obs::{EventJournal, EventKind};
    let day0 = codec::encode(&ring_atlas(8, 0)).0;
    let mut source = StaticSource::new(day0.clone(), vec![ring_shortcut_delta(8, 0).encode().0]);
    source.publish(codec::encode(&ring_atlas(8, 2)).0, Some(vec![0xff; 40]));
    let mut at_day0 = StaticSource::new(day0, vec![]);
    let engine = QueryEngine::bootstrap(&mut at_day0, ServiceConfig::default()).expect("bootstrap");
    let journal = Arc::new(EventJournal::new(64));
    engine.set_journal(Arc::clone(&journal), "shard0");
    match engine.update(&mut source) {
        Err(ModelError::Decode(msg)) => assert_eq!(msg, "bad delta magic"),
        other => panic!("want the broken delta's decode error, got {other:?}"),
    }
    let m = engine.metrics();
    assert_eq!((engine.day(), m.swaps.get()), (1, 1));
    assert_eq!(chain(&engine).len(), 1, "the 0→1 delta is retained");
    let journaled = journal
        .since(0)
        .events
        .iter()
        .filter(|e| e.kind == EventKind::DeltaApplied)
        .count();
    assert_eq!(m.mirror_deltas_applied.get(), 1);
    assert_eq!(journaled, 1);
}

#[test]
fn replace_atlas_swaps_a_whole_generation_without_logging_a_delta() {
    let engine = QueryEngine::new(Arc::new(ring_atlas(8, 0)), ServiceConfig::default());
    let before_tag = engine.export().tag();
    engine
        .query(ring_ip(0), ring_ip(3))
        .expect("day-0 world serves");
    // A delta applied first is retained for downstream mirrors, named
    // by the body it leaves...
    engine
        .apply_delta(&AtlasDelta::between(&ring_atlas(8, 0), &ring_atlas(8, 1)))
        .expect("delta applies");
    assert_eq!(
        chain(&engine).iter().map(|l| l.base).collect::<Vec<_>>(),
        [before_tag]
    );

    // A full replace models a monthly refresh or a mirror resync: the
    // new world may be days ahead with no bridging delta at all.
    let day = engine.replace_atlas(Arc::new(ring_atlas(12, 9)));
    assert_eq!(day, 9);
    assert_eq!(engine.day(), 9);
    assert_eq!(engine.epoch(), 2, "a replace bumps the epoch like a swap");
    assert_eq!(engine.metrics().swaps.get(), 2);
    // The export snapshot re-encodes the new generation...
    let head = engine.offer(DEFAULT_CHUNK_SIZE).head().expect("head");
    assert_eq!(head.day, 9);
    assert_ne!(head.epoch_tag, before_tag);
    // ...queries land in the new (bigger) world...
    let r = engine
        .query(ring_ip(0), ring_ip(10))
        .expect("ring-12 pair routable");
    assert!(!r.fwd_clusters.is_empty());
    // ...and the chain is empty: the retained 0→1 delta belongs to the
    // abandoned body, and no delta leads to this one.
    assert!(head.chain.is_empty());
}

/// The catch-up rule, without a socket: the full body when the head's
/// tag differs and its chain does not leave the body the engine holds,
/// and each outcome where the counters and the journal say it is.
#[test]
fn update_bridges_a_broken_chain_with_one_full_resync() {
    use inano_obs::{EventJournal, EventKind};
    let mut upstream = Scripted::new(StaticSource {
        // Small chunks: the body is several, so a race can land
        // mid-body.
        chunk_size: 64,
        ..StaticSource::new(codec::encode(&ring_atlas(8, 1)).0, vec![])
    });
    let cfg = ServiceConfig::default();
    let engine = QueryEngine::bootstrap(&mut upstream, cfg).expect("bootstrap");
    let journal = Arc::new(EventJournal::new(64));
    engine.set_journal(Arc::clone(&journal), "shard0");
    let m = engine.metrics();
    let resyncs_journaled = || {
        let page = journal.since(0);
        let n = page
            .events
            .iter()
            .filter(|e| e.kind == EventKind::FullResync);
        n.count()
    };

    // In step with the upstream: a tick compares tags and moves no body.
    let bootstrap_chunks = upstream.served.full_chunks;
    assert!(bootstrap_chunks > 2, "the body spans several chunks");
    assert_eq!(engine.update(&mut upstream).expect("idle tick"), 0);
    assert_eq!(upstream.served.full_chunks, bootstrap_chunks);
    assert_eq!(
        (m.mirror_full_resyncs.get(), m.mirror_lag_days.get()),
        (0, 0)
    );

    // The upstream replaces its atlas (day 5, no bridging delta) and
    // its body cannot be fetched: the error surfaces, the gauges say
    // how far behind the engine is, and day 1 keeps serving.
    upstream
        .inner
        .publish(codec::encode(&ring_atlas(8, 5)).0, None);
    let down = ModelError::Decode("upstream body unavailable".into());
    upstream.chunks.push_back(Step::Down(down));
    assert!(engine.update(&mut upstream).is_err());
    assert_eq!(m.mirror_upstream_day.get(), 5);
    assert_eq!(m.mirror_lag_days.get(), 4);
    assert_eq!((engine.day(), m.mirror_full_resyncs.get()), (1, 0));
    engine
        .query(ring_ip(0), ring_ip(3))
        .expect("day 1 still serves");

    // The body comes back, racing once mid-fetch: one update bridges
    // the gap and returns 0 — no delta was applied.
    upstream.clear();
    let race = ModelError::VersionRaced("upstream swapped".into());
    upstream
        .chunks
        .extend([Step::Pass, Step::Answer(Err(race))]);
    assert_eq!(engine.update(&mut upstream).expect("resync"), 0);
    assert_eq!(engine.day(), 5);
    assert_eq!(
        engine.export().tag(),
        upstream.inner.full.tag(),
        "converged on the upstream's bytes"
    );
    assert_eq!(m.mirror_full_resyncs.get(), 1);
    assert_eq!(m.mirror_races_recovered.get(), 1);
    assert_eq!(m.mirror_deltas_applied.get(), 0);
    assert_eq!(m.mirror_lag_days.get(), 0);
    assert_eq!(resyncs_journaled(), 1);
    assert!(chain(&engine).is_empty(), "no delta leads here");

    // Idle again: the next tick fetches nothing and resyncs nothing.
    let after = upstream.served.full_chunks;
    assert_eq!(engine.update(&mut upstream).expect("idle tick"), 0);
    assert_eq!(upstream.served.full_chunks, after);
    assert_eq!((m.mirror_full_resyncs.get(), resyncs_journaled()), (1, 1));
}

/// A head and its chain are one snapshot: while one thread applies five
/// deltas, every head another thread reads lists a chain that, applied
/// from the generation its first base names, lands on the head's body.
#[test]
fn a_head_and_its_chain_come_from_one_snapshot() {
    const DAYS: u32 = 5;
    let n = 8;
    let deltas: Vec<AtlasDelta> = (0..DAYS).map(|day| ring_shortcut_delta(n, day)).collect();
    // Every generation the engine serves, by the tag of its body.
    let mut generations = vec![ring_atlas(n, 0)];
    for delta in &deltas {
        let next = delta
            .apply(generations.last().expect("day 0"))
            .expect("applies");
        generations.push(next);
    }
    let by_tag: HashMap<u64, Atlas> = generations.iter().map(|a| (tag_of(a), a.clone())).collect();
    let engine = QueryEngine::new(Arc::new(ring_atlas(n, 0)), ServiceConfig::default());
    let done = AtomicBool::new(false);
    let heads = AtomicU64::new(0);
    thread::scope(|scope| {
        scope.spawn(|| {
            for delta in &deltas {
                // At least one head is read on every generation (the
                // deadline only frees this thread if the reader failed).
                let seen = heads.load(Ordering::Acquire);
                let deadline = Instant::now() + Duration::from_secs(5);
                while heads.load(Ordering::Acquire) == seen && Instant::now() < deadline {
                    thread::yield_now();
                }
                engine.apply_delta(delta).expect("applies");
            }
            done.store(true, Ordering::Release);
        });
        loop {
            let finished = done.load(Ordering::Acquire);
            let mut offer = engine.offer(DEFAULT_CHUNK_SIZE);
            let head = offer.head().expect("head");
            let start = head.chain.first().map_or(head.epoch_tag, |link| link.base);
            let mut atlas = by_tag[&start].clone();
            for link in &head.chain {
                assert_eq!(tag_of(&atlas), link.base, "{head:?}");
                let chunk = offer
                    .fetch_chunk(link.tag, 0)
                    .expect("a listed delta is offered");
                assert_eq!(chunk.bytes.len() as u64, link.len);
                let delta = AtlasDelta::decode(&chunk.bytes).expect("decodes");
                atlas = delta.apply(&atlas).expect("applies");
            }
            assert_eq!(tag_of(&atlas), head.epoch_tag, "{head:?}");
            heads.fetch_add(1, Ordering::Release);
            if finished {
                assert_eq!(head.chain.len(), DAYS as usize);
                break;
            }
        }
    });
    assert!(
        heads.into_inner() > DAYS as u64,
        "heads were read while the deltas landed"
    );
}
