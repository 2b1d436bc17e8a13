//! Property test for the satellite requirement: a cache hit must be
//! indistinguishable from a fresh `PathPredictor::query` — over random
//! (ring + chords) atlases, every repeated engine query agrees with a
//! predictor built directly over the same atlas.

use inano_atlas::{Atlas, LinkAnnotation, Plane};
use inano_core::{PathPredictor, PredictorConfig};
use inano_model::{Asn, ClusterId, Ipv4, LatencyMs, Prefix, PrefixId};
use inano_service::{QueryEngine, ServiceConfig};
use proptest::prelude::*;
use std::sync::Arc;

prop_compose! {
    fn arb_atlas()(
        n in 4u32..14,
        chords in proptest::collection::vec((0u32..14, 0u32..14), 0..10),
        lat in 0.5f64..20.0,
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
            a.prefix_cluster.insert(PrefixId::new(c), ClusterId::new(c));
            a.prefix_as.insert(
                PrefixId::new(c),
                (Prefix::new(Ipv4(c << 16), 16), Asn::new(c)),
            );
        }
        a
    }
}

fn cfg() -> PredictorConfig {
    let mut cfg = PredictorConfig::full();
    cfg.use_tuples = false;
    cfg.use_prefs = false;
    cfg.use_providers = false;
    cfg.use_from_src = false;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cache_hits_equal_fresh_queries(atlas in arb_atlas()) {
        let n = atlas.prefix_cluster.len() as u32;
        let fresh = PathPredictor::new(Arc::new(atlas.clone()), cfg());
        let engine = QueryEngine::new(
            Arc::new(atlas),
            ServiceConfig {
                cache_capacity: 1024,
                cache_shards: 4,
                predictor: cfg(),
            },
        );
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let src = Ipv4((s << 16) | 3);
                let dst = Ipv4((d << 16) | 9);
                let reference = fresh.query(src, dst);
                // Twice: the second serve is a cache hit for every
                // canonical pair.
                for _ in 0..2 {
                    match (engine.query(src, dst), &reference) {
                        (Ok(got), Ok(want)) => {
                            prop_assert_eq!(&got.fwd_clusters, &want.fwd_clusters);
                            prop_assert_eq!(&got.rev_clusters, &want.rev_clusters);
                            prop_assert_eq!(&got.fwd_as_path, &want.fwd_as_path);
                            prop_assert_eq!(&got.rev_as_path, &want.rev_as_path);
                            prop_assert!((got.rtt.ms() - want.rtt.ms()).abs() < 1e-12);
                            prop_assert!((got.loss.rate() - want.loss.rate()).abs() < 1e-12);
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
        prop_assert!(engine.metrics().cache_hits.get() > 0, "repeat queries must hit the cache");
    }
}
