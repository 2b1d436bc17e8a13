//! `QueryEngine::query_batch` against its specification: whatever the
//! batch holds — cached pairs, cold pairs, in-batch repeats of a cold
//! key, cache-bypassing prefixes, unroutable addresses — and whichever
//! side of the inline/fan-out threshold its misses land on, the answers
//! equal per-pair `PathPredictor::query`, in input order, and every
//! counter moves by exactly what the batch held.

use inano_atlas::{Atlas, LinkAnnotation, Plane};
use inano_core::{PathPredictor, PredictedPath, PredictorConfig};
use inano_model::{Asn, ClusterId, Ipv4, LatencyMs, ModelError, Prefix, PrefixId};
use inano_service::{EngineMetrics, QueryEngine, ServiceConfig, FANOUT_CHUNK};
use std::collections::HashSet;
use std::sync::Arc;

/// Ring size: large enough that the longest batch's cold pairs are all
/// distinct cluster pairs, so its misses span several chunks.
const N: u32 = 32;
const CHUNK: usize = FANOUT_CHUNK;
/// Prefix ids (and /16s) of the two prefixes whose origin AS disagrees
/// with their cluster's: they resolve and route, but bypass the cache.
const BYPASS: [u32; 2] = [100, 101];

/// A bidirectional ring of `N` single-prefix clusters, plus the two
/// non-canonical prefixes on clusters 2 and 5.
fn atlas() -> Atlas {
    let mut a = Atlas::default();
    for i in 0..N {
        let j = (i + 1) % N;
        for (x, y) in [(i, j), (j, i)] {
            a.links.insert(
                (ClusterId::new(x), ClusterId::new(y)),
                LinkAnnotation {
                    latency: Some(LatencyMs::new(1.0 + x as f64 * 0.1)),
                    plane: Plane::TO_DST,
                },
            );
        }
        a.cluster_as.insert(ClusterId::new(i), Asn::new(i));
        a.as_degree.insert(Asn::new(i), 2);
        a.prefix_cluster.insert(PrefixId::new(i), ClusterId::new(i));
        a.prefix_as.insert(
            PrefixId::new(i),
            (Prefix::new(Ipv4(i << 16), 16), Asn::new(i)),
        );
    }
    for (id, cluster) in BYPASS.into_iter().zip([2, 5]) {
        a.prefix_cluster
            .insert(PrefixId::new(id), ClusterId::new(cluster));
        a.prefix_as.insert(
            PrefixId::new(id),
            (Prefix::new(Ipv4(id << 16), 16), Asn::new(cluster + 1)),
        );
    }
    a
}

fn engine() -> QueryEngine {
    QueryEngine::new(
        Arc::new(atlas()),
        ServiceConfig {
            cache_capacity: 4096,
            cache_shards: 4,
            ..ServiceConfig::default()
        },
    )
}

fn ip(slash16: u32, host: u32) -> Ipv4 {
    Ipv4((slash16 << 16) | host)
}

/// The pairs every engine under test has answered before the batch.
fn warm_pairs() -> Vec<(Ipv4, Ipv4)> {
    (0..N).map(|s| (ip(s, 1), ip((s + 1) % N, 1))).collect()
}

#[derive(Clone, Copy)]
enum Kind {
    /// A warmed cluster pair, asked from other addresses.
    Cached,
    /// A cluster pair nothing has asked yet.
    Cold,
    /// The batch's latest cold cluster pair again, from other addresses.
    Repeat,
    /// A source behind a non-canonical prefix.
    Bypass,
    /// A source no prefix covers.
    Unroutable,
}

/// `len` pairs cycling through `kinds`.
fn batch_of(kinds: &[Kind], len: usize) -> Vec<(Ipv4, Ipv4)> {
    let mut cold = 0u32;
    (0..len as u32)
        .map(|i| match kinds[i as usize % kinds.len()] {
            Kind::Cached => (ip(i % N, 2 + i), ip((i + 1) % N, 2 + i)),
            Kind::Cold => {
                cold += 1;
                (ip(cold % N, 1), ip((cold % N + 2 + cold / N) % N, 1))
            }
            Kind::Repeat => (
                ip(cold % N, 2 + i),
                ip((cold % N + 2 + cold / N) % N, 2 + i),
            ),
            Kind::Bypass => (ip(BYPASS[i as usize % 2], 1), ip(i % N, 1)),
            Kind::Unroutable => (ip(200 + i, 1), ip(i % N, 1)),
        })
        .collect()
}

fn same(got: &Result<PredictedPath, ModelError>, want: &Result<PredictedPath, ModelError>) -> bool {
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

/// What one batch must add to each counter, derived from the pairs
/// themselves.
#[derive(Debug, Default, PartialEq)]
struct Deltas {
    hits: u64,
    misses: u64,
    inserts: u64,
    errors: u64,
    /// Pairs that resolve but sit behind a non-canonical prefix.
    bypass: u64,
    /// Pairs with an endpoint no prefix covers (a subset of `errors`).
    unresolved: u64,
}

/// The engine counters a batch moves, read once from its registers.
struct Counts {
    queries: u64,
    hits: u64,
    misses: u64,
    inserts: u64,
    errors: u64,
    bypass: u64,
    /// Latency samples: one per pair.
    samples: u64,
}

impl Counts {
    fn of(m: &EngineMetrics) -> Counts {
        Counts {
            queries: m.queries.get(),
            hits: m.cache_hits.get(),
            misses: m.cache_misses.get(),
            inserts: m.cache_inserts.get(),
            errors: m.errors.get(),
            bypass: m.cache_bypass.get(),
            samples: m.latency_us.count(),
        }
    }
}

fn expected_deltas(fresh: &PathPredictor, batch: &[(Ipv4, Ipv4)]) -> Deltas {
    // `None`: does not resolve; `Some(None)`: resolves, bypasses the
    // cache; `Some(Some(key))`: cacheable.
    let key_of = |s: Ipv4, d: Ipv4| {
        let (s, d) = (fresh.resolve(s).ok()?, fresh.resolve(d).ok()?);
        Some((s.canonical() && d.canonical()).then_some((s.cluster, d.cluster)))
    };
    let warm: HashSet<_> = warm_pairs()
        .into_iter()
        .map(|(s, d)| key_of(s, d).flatten().expect("warm pairs are cacheable"))
        .collect();
    let mut want = Deltas::default();
    let mut missed = HashSet::new();
    for &(s, d) in batch {
        let routed = fresh.query(s, d).is_ok();
        want.errors += u64::from(!routed);
        match key_of(s, d) {
            Some(Some(key)) if warm.contains(&key) => want.hits += 1,
            Some(Some(key)) => {
                want.misses += 1;
                want.inserts += u64::from(missed.insert(key) && routed);
            }
            Some(None) => want.bypass += 1,
            None => want.unresolved += 1,
        }
    }
    want
}

#[test]
fn every_batch_shape_equals_per_pair_queries_with_exact_counters() {
    use Kind::*;
    let fresh = PathPredictor::new(Arc::new(atlas()), PredictorConfig::full());
    let mixes: [(&str, &[Kind]); 6] = [
        ("cached", &[Cached]),
        ("cold", &[Cold]),
        ("cold with repeats", &[Cold, Repeat, Repeat]),
        ("bypassing", &[Bypass]),
        ("unroutable", &[Unroutable]),
        (
            "everything",
            &[Cached, Cold, Repeat, Bypass, Unroutable, Cold],
        ),
    ];
    // The mixes hold what they say: the largest has hits, misses that
    // share a key, more distinct misses than one chunk takes, and errors.
    let d = expected_deltas(&fresh, &batch_of(mixes[5].1, 8 * CHUNK));
    assert!(d.hits > 0 && d.errors > 0 && d.misses > d.inserts && d.inserts as usize > CHUNK);
    assert!(d.bypass > 0 && d.unresolved > 0);
    // The bypassing mix is exactly that: every pair resolves, routes,
    // and touches no cache counter but `bypass`.
    let bypassing = batch_of(mixes[3].1, CHUNK);
    assert_eq!(
        expected_deltas(&fresh, &bypassing),
        Deltas {
            bypass: CHUNK as u64,
            ..Deltas::default()
        }
    );

    for (name, kinds) in mixes {
        for len in [1, CHUNK, CHUNK + 1, 8 * CHUNK] {
            let what = format!("{name} × {len}");
            let engine = engine();
            for r in engine.query_batch(&warm_pairs()) {
                r.expect("ring pair routes");
            }
            let batch = batch_of(kinds, len);
            let m = engine.metrics();
            let before = Counts::of(m);

            let got = engine.query_batch(&batch);

            assert_eq!(got.len(), batch.len(), "{what}");
            for (i, &(s, d)) in batch.iter().enumerate() {
                let want = fresh.query(s, d);
                assert!(
                    same(&got[i], &want),
                    "{what}: pair {i} got {:?}, want {want:?}",
                    got[i]
                );
            }
            let want = expected_deltas(&fresh, &batch);
            let after = Counts::of(m);
            let got_deltas = Deltas {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
                inserts: after.inserts - before.inserts,
                errors: after.errors - before.errors,
                bypass: after.bypass - before.bypass,
                unresolved: want.unresolved,
            };
            assert_eq!(got_deltas, want, "{what}");
            assert_eq!(
                m.cache_evictions.get(),
                0,
                "{what}: the cache is large enough"
            );
            assert_eq!(
                after.queries - before.queries,
                len as u64,
                "{what}: queries"
            );
            // Every pair is accounted for exactly once: probed (a hit
            // or a miss), bypassed, or refused at resolve.
            assert_eq!(
                m.cache_hits.get() + m.cache_misses.get() + m.cache_bypass.get() + want.unresolved,
                after.queries,
                "{what}: hits + misses + bypass + resolve errors == queries"
            );
            assert_eq!(
                after.samples - before.samples,
                len as u64,
                "{what}: one latency sample per pair"
            );

            // The shared form is the same answer without the copy, and
            // a second pass finds every cacheable key where the first
            // left it: no further insert.
            let shared = engine.query_batch_shared(&batch);
            for (i, r) in shared.iter().enumerate() {
                let owned = r.as_ref().map(|p| (**p).clone()).map_err(Clone::clone);
                assert!(same(&owned, &got[i]), "{what}: shared pair {i}");
            }
            assert_eq!(
                m.cache_inserts.get(),
                after.inserts,
                "{what}: nothing left to insert"
            );
        }
    }
}

#[test]
fn a_hit_is_the_cached_arc_itself() {
    let engine = engine();
    let pair = warm_pairs()[0];
    let first = engine.query_shared(pair.0, pair.1).expect("routes");
    let again = engine.query_batch_shared(&[pair, pair]);
    for r in &again {
        assert!(
            Arc::ptr_eq(r.as_ref().expect("routes"), &first),
            "a hit shares the cached path instead of copying it"
        );
    }
}
