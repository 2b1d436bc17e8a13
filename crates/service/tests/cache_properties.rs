//! Property test for the satellite requirement: a cache hit must be
//! indistinguishable from a fresh `PathPredictor::query` — over random
//! (ring + chords) atlases, every repeated engine query agrees bit for
//! bit with a predictor built directly over the same atlas.
//!
//! Each atlas also holds non-canonical siblings on clusters a canonical
//! prefix shares: a prefix announced by a foreign origin AS, and one with
//! a per-prefix provider set. The engine caches them under their own
//! prefix; keyed by their cluster they would be served a sibling's
//! answer. Their prefix ids are cluster ids too, so a prefix-keyed side
//! must also never equal a cluster-keyed one.

use inano_atlas::{Atlas, LinkAnnotation, Plane};
use inano_core::{PathPredictor, PredictorConfig};
use inano_model::{Asn, ClusterId, Ipv4, LatencyMs, Prefix, PrefixId};
use inano_service::{QueryEngine, ServiceConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// Cluster `c`'s canonical prefix is `CANONICAL + c`; ids below it are
/// the siblings'.
const CANONICAL: u32 = 32;

/// Announce prefix `id` (and /16 `id`) from `origin` on `cluster`.
fn home(a: &mut Atlas, id: u32, cluster: u32, origin: u32) {
    a.prefix_cluster
        .insert(PrefixId::new(id), ClusterId::new(cluster));
    a.prefix_as.insert(
        PrefixId::new(id),
        (Prefix::new(Ipv4(id << 16), 16), Asn::new(origin)),
    );
}

prop_compose! {
    fn arb_atlas()(
        n in 4u32..14,
        chords in proptest::collection::vec((0u32..14, 0u32..14), 0..10),
        lat in 0.5f64..20.0,
        siblings in proptest::collection::vec((0u32..14, 1u32..14, any::<bool>()), 1..5),
    ) -> Atlas {
        let mut a = Atlas::default();
        let add = |a: &mut Atlas, x: u32, y: u32| {
            if x == y {
                return;
            }
            for (f, t) in [(x, y), (y, x)] {
                a.links.insert(
                    (ClusterId::new(f), ClusterId::new(t)),
                    LinkAnnotation {
                        latency: Some(LatencyMs::new(lat + f as f64 * 0.25)),
                        plane: Plane::TO_DST,
                    },
                );
            }
        };
        for i in 0..n {
            add(&mut a, i, (i + 1) % n);
        }
        for (x, y) in chords {
            add(&mut a, x % n, y % n);
        }
        for c in 0..n {
            a.cluster_as.insert(ClusterId::new(c), Asn::new(c));
            a.as_degree.insert(Asn::new(c), 2);
            home(&mut a, CANONICAL + c, c, c);
        }
        // Sibling k sits on a cluster with a canonical prefix, and either
        // is announced by another cluster's AS or is entered only from
        // one ring neighbour's.
        for (k, (cluster, other, refined)) in siblings.into_iter().enumerate() {
            let (k, cluster) = (k as u32, cluster % n);
            let other = (cluster + other % (n - 1) + 1) % n;
            if refined {
                home(&mut a, k, cluster, cluster);
                let entry = match other % 2 {
                    0 => (cluster + 1) % n,
                    _ => (cluster + n - 1) % n,
                };
                a.prefix_providers
                    .insert(PrefixId::new(k), [Asn::new(entry)].into_iter().collect());
            } else {
                home(&mut a, k, cluster, other);
            }
        }
        a
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cache_hits_equal_fresh_queries(atlas in arb_atlas()) {
        let prefixes: Vec<u32> = atlas.prefix_as.keys().map(|p| p.raw()).collect();
        let fresh = PathPredictor::new(Arc::new(atlas.clone()), PredictorConfig::full());
        let engine = QueryEngine::new(
            Arc::new(atlas),
            ServiceConfig {
                cache_capacity: 4096,
                cache_shards: 4,
                ..ServiceConfig::default()
            },
        );
        let mut routed = 0;
        for &s in &prefixes {
            for &d in &prefixes {
                if s == d {
                    continue;
                }
                let src = Ipv4((s << 16) | 3);
                let dst = Ipv4((d << 16) | 9);
                let reference = fresh.query(src, dst);
                routed += u64::from(reference.is_ok());
                // Twice: the second serve is a cache hit for every
                // pair that routes.
                for _ in 0..2 {
                    match (engine.query(src, dst), &reference) {
                        (Ok(got), Ok(want)) => {
                            prop_assert_eq!(&got.fwd_clusters, &want.fwd_clusters);
                            prop_assert_eq!(&got.rev_clusters, &want.rev_clusters);
                            prop_assert_eq!(&got.fwd_as_path, &want.fwd_as_path);
                            prop_assert_eq!(&got.rev_as_path, &want.rev_as_path);
                            prop_assert_eq!(got.rtt.ms().to_bits(), want.rtt.ms().to_bits());
                            prop_assert_eq!(got.loss.rate().to_bits(), want.loss.rate().to_bits());
                        }
                        (Err(_), Err(_)) => {}
                        (got, want) => {
                            prop_assert!(
                                false,
                                "engine and fresh predictor disagree: {:?} vs {:?}",
                                got.is_ok(),
                                want.is_ok()
                            );
                        }
                    }
                }
            }
        }
        // Every pair has a key of its own (one canonical prefix per
        // cluster), so each routed pair misses once and then hits once.
        let m = engine.metrics();
        prop_assert_eq!(m.cache_evictions.get(), 0);
        prop_assert_eq!(m.cache_hits.get(), routed);
        prop_assert!(routed > 0, "repeat queries must hit the cache");
    }
}
