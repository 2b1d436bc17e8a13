//! Property-based tests on the prediction engine over randomly generated
//! (but structurally valid) atlases: predictions are deterministic,
//! well-formed, and respect the structural invariants the search
//! guarantees by construction.

use inano::atlas::{Atlas, LinkAnnotation, Plane};
use inano::core::{PathPredictor, PredictedPath, PredictorConfig};
use inano::model::{Asn, ClusterId, Ipv4, LatencyMs, ModelError, Prefix, PrefixId};
use proptest::prelude::*;
use std::sync::Arc;

// A random connected-ish atlas: clusters 0..n on a ring plus random
// chords, each cluster its own AS, one prefix per cluster.
prop_compose! {
    fn arb_routed_atlas()(
        n in 4usize..20,
        chords in proptest::collection::vec((0u32..20, 0u32..20), 0..15),
        lat in 0.5f64..30.0,
    ) -> Atlas {
        let mut a = Atlas::default();
        let n = n as u32;
        let add = |a: &mut Atlas, x: u32, y: u32| {
            if x == y { return; }
            a.links.insert(
                (ClusterId::new(x), ClusterId::new(y)),
                LinkAnnotation { latency: Some(LatencyMs::new(lat)), plane: Plane::TO_DST },
            );
            a.links.insert(
                (ClusterId::new(y), ClusterId::new(x)),
                LinkAnnotation { latency: Some(LatencyMs::new(lat)), plane: Plane::TO_DST },
            );
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
            let pid = PrefixId::new(c);
            a.prefix_cluster.insert(pid, ClusterId::new(c));
            a.prefix_as.insert(
                pid,
                (Prefix::new(Ipv4(c << 16), 16), Asn::new(c)),
            );
        }
        a
    }
}

fn ip(cluster: u32) -> Ipv4 {
    Ipv4((cluster << 16) | 7)
}

/// Field by field, floats by bits, errors by text.
fn same_answer(
    a: &Result<PredictedPath, ModelError>,
    b: &Result<PredictedPath, ModelError>,
) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.fwd_clusters == b.fwd_clusters
                && a.rev_clusters == b.rev_clusters
                && a.fwd_as_path == b.fwd_as_path
                && a.rev_as_path == b.rev_as_path
                && a.rtt.ms().to_bits() == b.rtt.ms().to_bits()
                && a.loss.rate().to_bits() == b.loss.rate().to_bits()
        }
        (Err(a), Err(b)) => a.to_string() == b.to_string(),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On these atlases the full model answers exactly as the profile
    /// with all four refinements off: every AS has degree 2, below
    /// `tuple_min_degree`, and the atlas records no preferences,
    /// providers or FROM_SRC links. Servers answer with `full()` alone
    /// because of this; the policy-off profile lives on only here, as
    /// the reference.
    #[test]
    fn full_model_equals_the_policy_off_profile(atlas in arb_routed_atlas()) {
        let atlas = Arc::new(atlas);
        let mut policy_off = PredictorConfig::full();
        policy_off.use_tuples = false;
        policy_off.use_prefs = false;
        policy_off.use_providers = false;
        policy_off.use_from_src = false;
        let n = atlas.prefix_cluster.len() as u32;
        // One address past the last prefix: an unresolvable end.
        let pairs: Vec<(Ipv4, Ipv4)> = (0..=n)
            .flat_map(|s| (0..=n).map(move |d| (ip(s), ip(d))))
            .collect();
        let full = PathPredictor::new(Arc::clone(&atlas), PredictorConfig::full());
        let off = PathPredictor::new(Arc::clone(&atlas), policy_off.clone());
        for &(s, d) in &pairs {
            prop_assert!(
                same_answer(&full.query(s, d), &off.query(s, d)),
                "{} -> {} differs", s, d
            );
        }
        prop_assert_eq!(full.search_counts(), off.search_counts());

        let full = PathPredictor::new(Arc::clone(&atlas), PredictorConfig::full());
        let off = PathPredictor::new(Arc::clone(&atlas), policy_off);
        for (i, (a, b)) in full.query_batch(&pairs).iter().zip(&off.query_batch(&pairs)).enumerate() {
            prop_assert!(same_answer(a, b), "batched pair {} differs", i);
        }
        prop_assert_eq!(full.search_counts(), off.search_counts());
    }

    #[test]
    fn predictions_are_deterministic(atlas in arb_routed_atlas()) {
        let atlas = Arc::new(atlas);
        let p1 = PathPredictor::new(Arc::clone(&atlas), PredictorConfig::full());
        let p2 = PathPredictor::new(Arc::clone(&atlas), PredictorConfig::full());
        let n = atlas.prefix_cluster.len() as u32;
        for s in 0..n.min(6) {
            for d in 0..n.min(6) {
                if s == d { continue; }
                let a = p1.predict_forward(PrefixId::new(s), PrefixId::new(d)).ok();
                let b = p2.predict_forward(PrefixId::new(s), PrefixId::new(d)).ok();
                prop_assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn predicted_paths_are_wellformed(atlas in arb_routed_atlas()) {
        let atlas = Arc::new(atlas);
        let p = PathPredictor::new(Arc::clone(&atlas), PredictorConfig::full());
        let n = atlas.prefix_cluster.len() as u32;
        for s in 0..n.min(8) {
            for d in 0..n.min(8) {
                if s == d { continue; }
                let Ok(path) = p.predict_forward(PrefixId::new(s), PrefixId::new(d)) else {
                    continue;
                };
                // Endpoints are right.
                prop_assert_eq!(path.first(), Some(&ClusterId::new(s)));
                prop_assert_eq!(path.last(), Some(&ClusterId::new(d)));
                // Every consecutive pair is an atlas link (in one of the
                // two directions — reversed traversal is legal).
                for w in path.windows(2) {
                    let fwd = atlas.links.contains_key(&(w[0], w[1]));
                    let rev = atlas.links.contains_key(&(w[1], w[0]));
                    prop_assert!(fwd || rev, "phantom link {:?}", w);
                }
                // No cluster repeats (simple path on a ring+chords graph).
                let mut seen = std::collections::HashSet::new();
                for c in &path {
                    prop_assert!(seen.insert(*c), "loop through {c}");
                }
                // Latency estimate is positive and finite.
                let l = p.latency_of(&path);
                prop_assert!(l.ms() > 0.0 && l.ms().is_finite());
            }
        }
    }

    #[test]
    fn ring_paths_take_the_short_way(n in 5usize..16) {
        // Pure ring, no chords: the predictor must take the shorter arc
        // (fewer AS hops == fewer clusters here).
        let mut atlas = Atlas::default();
        let n = n as u32;
        for i in 0..n {
            let j = (i + 1) % n;
            for (x, y) in [(i, j), (j, i)] {
                atlas.links.insert(
                    (ClusterId::new(x), ClusterId::new(y)),
                    LinkAnnotation { latency: Some(LatencyMs::new(1.0)), plane: Plane::TO_DST },
                );
            }
            atlas.cluster_as.insert(ClusterId::new(i), Asn::new(i));
            atlas.prefix_cluster.insert(PrefixId::new(i), ClusterId::new(i));
            atlas.prefix_as.insert(
                PrefixId::new(i),
                (Prefix::new(Ipv4(i << 16), 16), Asn::new(i)),
            );
        }
        let p = PathPredictor::new(Arc::new(atlas), PredictorConfig::full());
        for d in 1..n {
            let path = p.predict_forward(PrefixId::new(0), PrefixId::new(d)).unwrap();
            let clockwise = d as usize + 1;
            let counter = (n - d) as usize + 1;
            prop_assert_eq!(path.len(), clockwise.min(counter));
        }
    }
}
