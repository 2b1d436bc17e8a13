//! `QueryEngine::query_batch` against its specification: whatever the
//! batch holds — cached pairs, cold pairs, in-batch repeats of a cold
//! key, non-canonical prefixes (cached under their own prefix),
//! unroutable addresses — whether its misses owe no search, one (run
//! inline) or several (fanned out), and however many one-way
//! predictions they plan, the answers equal per-pair
//! `PathPredictor::query`, in input order, every counter moves by
//! exactly what the batch held, the predictor counts the searches the
//! library's own batch would, and a second pass of the same batch never
//! reaches the planner.

use inano_atlas::{Atlas, LinkAnnotation, Plane};
use inano_core::{PathPredictor, PredictedPath, PredictorConfig, Resolution};
use inano_model::{Asn, ClusterId, Ipv4, LatencyMs, ModelError, Prefix, PrefixId};
use inano_service::{EngineMetrics, QueryEngine, ServiceConfig};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// Ring size: large enough that the longest batch's cold pairs are all
/// distinct cluster pairs.
const N: u32 = 32;
/// One-way predictions the predictor plans at a time: its search cache's
/// capacity in trees.
const WINDOW: usize = 512;
/// The longest batch: its cold pairs plan more one-way predictions than
/// one window holds.
const LONG: usize = WINDOW + 1;
/// Prefix ids (and /16s) of the two prefixes whose origin AS disagrees
/// with their cluster's: they resolve and route, and the cache keys
/// them by prefix, not by cluster.
const NON_CANONICAL: [u32; 2] = [100, 101];
/// Prefix id (and /16) of a canonical prefix on a cluster no link
/// touches: it resolves, but no path leads to it or away from it.
const ISLAND: u32 = 102;

/// A bidirectional ring of `N` single-prefix clusters, plus the two
/// non-canonical prefixes on clusters 2 and 5 and the island prefix on
/// cluster `N + 8`.
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
    for (id, cluster) in NON_CANONICAL.into_iter().zip([2, 5]) {
        a.prefix_cluster
            .insert(PrefixId::new(id), ClusterId::new(cluster));
        a.prefix_as.insert(
            PrefixId::new(id),
            (Prefix::new(Ipv4(id << 16), 16), Asn::new(cluster + 1)),
        );
    }
    let island = N + 8;
    a.cluster_as
        .insert(ClusterId::new(island), Asn::new(island));
    a.prefix_cluster
        .insert(PrefixId::new(ISLAND), ClusterId::new(island));
    a.prefix_as.insert(
        PrefixId::new(ISLAND),
        (Prefix::new(Ipv4(ISLAND << 16), 16), Asn::new(island)),
    );
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
    NonCanonical,
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
            Kind::NonCanonical => (ip(NON_CANONICAL[i as usize % 2], 1), ip(i % N, 1)),
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
    /// Latency samples: one per pair.
    samples: u64,
}

impl Counts {
    /// What moved since `before`, as [`Deltas`]; `unresolved` is not a
    /// counter of its own, so the caller names it.
    fn minus(&self, before: &Counts, unresolved: u64) -> Deltas {
        Deltas {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            inserts: self.inserts - before.inserts,
            errors: self.errors - before.errors,
            unresolved,
        }
    }

    fn of(m: &EngineMetrics) -> Counts {
        Counts {
            queries: m.queries.get(),
            hits: m.cache_hits.get(),
            misses: m.cache_misses.get(),
            inserts: m.cache_inserts.get(),
            errors: m.errors.get(),
            samples: m.latency_us.count(),
        }
    }
}

/// How the engine names one endpoint in a cache key: a canonical
/// endpoint by its cluster, any other by its own prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Side {
    Cluster(ClusterId),
    Prefix(PrefixId),
}

/// The key the engine caches a pair's answer under, for one generation;
/// `None` when an endpoint does not resolve.
fn key_of(fresh: &PathPredictor, s: Ipv4, d: Ipv4) -> Option<(Side, Side)> {
    let side = |r: Resolution| match r.canonical() {
        true => Side::Cluster(r.cluster),
        false => Side::Prefix(r.prefix),
    };
    Some((side(fresh.resolve(s).ok()?), side(fresh.resolve(d).ok()?)))
}

/// The keys an engine warmed with [`warm_pairs`] holds.
fn warm_keys(fresh: &PathPredictor) -> HashSet<(Side, Side)> {
    (warm_pairs().into_iter())
        .map(|(s, d)| key_of(fresh, s, d).expect("warm pairs resolve"))
        .collect()
}

/// The distinct one-way predictions the engine plans for `batch` on an
/// engine warmed with [`warm_pairs`]: both ways of the first pair of
/// each cold key.
fn planned_ways(fresh: &PathPredictor, batch: &[(Ipv4, Ipv4)]) -> usize {
    let warm = warm_keys(fresh);
    let (mut keys, mut ways) = (HashSet::new(), HashSet::new());
    for &(s, d) in batch {
        let Some(key) = key_of(fresh, s, d) else {
            continue;
        };
        if !warm.contains(&key) && keys.insert(key) {
            let (s, d) = (fresh.resolve(s).unwrap(), fresh.resolve(d).unwrap());
            ways.extend([(s.prefix, d.prefix), (d.prefix, s.prefix)]);
        }
    }
    ways.len()
}

fn expected_deltas(fresh: &PathPredictor, batch: &[(Ipv4, Ipv4)]) -> Deltas {
    let warm = warm_keys(fresh);
    let mut want = Deltas::default();
    let mut missed = HashSet::new();
    for &(s, d) in batch {
        let routed = fresh.query(s, d).is_ok();
        want.errors += u64::from(!routed);
        match key_of(fresh, s, d) {
            Some(key) if warm.contains(&key) => want.hits += 1,
            Some(key) => {
                want.misses += 1;
                want.inserts += u64::from(missed.insert(key) && routed);
            }
            None => want.unresolved += 1,
        }
    }
    want
}

/// What a second pass of `batch` must add to each counter: every pair
/// the first pass answered is a hit, and a pair it refused is refused
/// again.
fn expected_repeat(fresh: &PathPredictor, batch: &[(Ipv4, Ipv4)]) -> Deltas {
    let mut want = Deltas::default();
    for &(s, d) in batch {
        let routed = fresh.query(s, d).is_ok();
        want.errors += u64::from(!routed);
        match key_of(fresh, s, d) {
            Some(_) if routed => want.hits += 1,
            Some(_) => want.misses += 1,
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
        ("non-canonical", &[NonCanonical]),
        ("unroutable", &[Unroutable]),
        (
            "everything",
            &[Cached, Cold, Repeat, NonCanonical, Unroutable, Cold],
        ),
    ];
    // The mixes hold what they say: the largest has hits, misses that
    // share a key, several distinct misses, errors, and pairs keyed by
    // prefix; the longest cold batch plans more one-way predictions than
    // one window holds.
    let everything = batch_of(mixes[5].1, LONG);
    let d = expected_deltas(&fresh, &everything);
    assert!(d.hits > 0 && d.errors > 0 && d.misses > d.inserts && d.inserts > 1);
    assert!(d.unresolved > 0);
    assert!(everything
        .iter()
        .any(|&(s, d)| matches!(key_of(&fresh, s, d), Some((Side::Prefix(_), _)))));
    assert!(planned_ways(&fresh, &batch_of(mixes[1].1, LONG)) > WINDOW);
    // The non-canonical mix is exactly that: every pair resolves and
    // routes, and its 64 pairs are 32 prefix keys, each missed twice and
    // inserted once; a second pass hits all 64 (and, below, reaches no
    // search).
    let non_canonical = batch_of(mixes[3].1, 64);
    assert_eq!(
        expected_deltas(&fresh, &non_canonical),
        Deltas {
            misses: 64,
            inserts: 32,
            ..Deltas::default()
        }
    );
    assert_eq!(
        expected_repeat(&fresh, &non_canonical),
        Deltas {
            hits: 64,
            ..Deltas::default()
        }
    );

    // How many searches each first pass owed: the warm-up left a tree
    // toward every ring cluster, so only a non-canonical prefix's own
    // search is new.
    let mut owed = BTreeSet::new();
    for (name, kinds) in mixes {
        for len in [1, 2, 64, LONG] {
            let what = format!("{name} × {len}");
            let engine = engine();
            for r in engine.query_batch(&warm_pairs()) {
                r.expect("ring pair routes");
            }
            let batch = batch_of(kinds, len);
            let m = engine.metrics();
            let before = Counts::of(m);
            let runs = || engine.generation().predictor.search_counts().runs;
            let runs_before = runs();

            let got = engine.query_batch(&batch);
            owed.insert(runs() - runs_before);

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
            assert_eq!(after.minus(&before, want.unresolved), want, "{what}");
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
            // or a miss) or refused at resolve.
            assert_eq!(
                after.hits + after.misses + want.unresolved,
                after.queries,
                "{what}: hits + misses + resolve errors == queries"
            );
            assert_eq!(
                after.samples - before.samples,
                len as u64,
                "{what}: one latency sample per pair"
            );

            // The shared form is the same answer without the copy, and
            // a second pass finds every answer where the first left it:
            // every routed pair hits, nothing is inserted, and with
            // every resolved pair routed the planner is not reached.
            let searched = engine.generation().predictor.search_counts();
            let shared = engine.query_batch_shared(&batch);
            for (i, r) in shared.iter().enumerate() {
                let owned = r.as_ref().map(|p| (**p).clone()).map_err(Clone::clone);
                assert!(same(&owned, &got[i]), "{what}: shared pair {i}");
            }
            let repeat = expected_repeat(&fresh, &batch);
            assert_eq!(
                Counts::of(m).minus(&after, repeat.unresolved),
                repeat,
                "{what}: second pass"
            );
            assert_eq!(repeat.misses, 0, "{what}: every resolved pair routes");
            assert_eq!(
                engine.generation().predictor.search_counts(),
                searched,
                "{what}: a second pass reaches no search"
            );
        }
    }
    // No search, one on the caller, and several fanned out.
    assert!(owed.contains(&0) && owed.contains(&1), "{owed:?}");
    assert!(owed.last() >= Some(&2), "{owed:?}");
}

#[test]
fn a_cold_batch_counts_what_the_library_planner_counts() {
    let pairs = [
        (ip(0, 1), ip(5, 1)),
        // The reverse of the pair before: a key of its own, but no new
        // one-way prediction.
        (ip(5, 1), ip(0, 1)),
        // Resolves, but its forward way cannot be routed; its reverse
        // is still planned, and skips the strict graph.
        (ip(3, 1), ip(ISLAND, 1)),
        (ip(7, 1), ip(20, 1)),
        (ip(9, 1), ip(9, 2)),
    ];
    let engine = engine();
    let got = engine.query_batch_shared(&pairs);
    let library = PathPredictor::new(Arc::new(atlas()), PredictorConfig::full());
    let want = library.query_batch(&pairs);
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        let got = got.as_ref().map(|p| (**p).clone()).map_err(Clone::clone);
        assert!(same(&got, want), "pair {i}: got {got:?}, want {want:?}");
    }
    assert!(want[2].is_err(), "the island pair cannot be routed");
    let counts = library.search_counts();
    assert!(counts.runs >= 2 && counts.strict_skipped > 0, "{counts:?}");
    assert_eq!(engine.generation().predictor.search_counts(), counts);
    assert_eq!(engine.metrics().cache_misses.get(), pairs.len() as u64);
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
