//! A tiny self-contained demo topology: a bidirectional ring of
//! clusters, one AS and one /16 prefix per cluster, so every pair of
//! addresses is routable.
//!
//! `inano-serve --ring N` serves one of these, and the integration
//! tests use them as a deterministic world where the correct answer
//! (shortest way around the ring) is obvious by construction. Real
//! deployments load a measured atlas instead (`inano-serve --atlas`).

use inano_atlas::{Atlas, AtlasDelta, LinkAnnotation, Plane};
use inano_core::PredictorConfig;
use inano_model::{Asn, ClusterId, Ipv4, LatencyMs, Prefix, PrefixId};

/// A bidirectional ring of `n` clusters stamped with `day`.
pub fn ring_atlas(n: u32, day: u32) -> Atlas {
    assert!(n >= 3, "a ring needs at least 3 clusters");
    let mut a = Atlas {
        day,
        ..Atlas::default()
    };
    for i in 0..n {
        let j = (i + 1) % n;
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
    a
}

/// An address inside ring cluster `cluster`'s /16.
pub fn ring_ip(cluster: u32) -> Ipv4 {
    Ipv4((cluster << 16) | 7)
}

/// Predictor settings matching what a ring atlas records: no AS-policy
/// refinements (the synthetic world has no policy evidence) and no
/// FROM_SRC plane.
pub fn ring_predictor_config() -> PredictorConfig {
    let mut cfg = PredictorConfig::full();
    cfg.use_tuples = false;
    cfg.use_prefs = false;
    cfg.use_providers = false;
    cfg.use_from_src = false;
    cfg
}

/// The delta from the day-`day` ring to a day-`day+1` ring with an
/// added 0 ↔ n/2 shortcut (latency 0.5ms each way): applying it halves
/// the 0 → n/2 path, which makes swap visibility easy to assert.
pub fn ring_shortcut_delta(n: u32, day: u32) -> AtlasDelta {
    let base = ring_atlas(n, day);
    let mut next = ring_atlas(n, day + 1);
    let far = n / 2;
    for (x, y) in [(0, far), (far, 0)] {
        next.links.insert(
            (ClusterId::new(x), ClusterId::new(y)),
            LinkAnnotation {
                latency: Some(LatencyMs::new(0.5)),
                plane: Plane::TO_DST,
            },
        );
    }
    AtlasDelta::between(&base, &next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_core::PathPredictor;
    use std::sync::Arc;

    #[test]
    fn every_ring_pair_is_routable() {
        let n = 8;
        let p = PathPredictor::new(Arc::new(ring_atlas(n, 0)), ring_predictor_config());
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
        let p = PathPredictor::new(Arc::new(next), ring_predictor_config());
        let path = p.query(ring_ip(0), ring_ip(n / 2)).expect("routable");
        assert_eq!(path.fwd_clusters.len(), 2, "shortcut is the new route");
    }
}
