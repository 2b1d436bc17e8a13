//! Property-based tests on the atlas codec and delta machinery: for any
//! atlas (not just measured ones), encode→decode is the identity after
//! quantisation, and deltas reconstruct the daily datasets exactly.

use inano::atlas::{codec, Atlas, AtlasDelta, LinkAnnotation, Plane, Triple};
use inano::model::{Asn, ClusterId, Ipv4, LatencyMs, LossRate, Prefix, PrefixId};
use proptest::prelude::*;

fn arb_plane() -> impl Strategy<Value = Plane> {
    (any::<bool>(), any::<bool>()).prop_map(|(t, f)| Plane {
        to_dst: t || !f, // at least one plane set
        from_src: f,
    })
}

fn arb_link() -> impl Strategy<Value = ((ClusterId, ClusterId), LinkAnnotation)> {
    (
        0u32..500,
        0u32..500,
        proptest::option::of(0.0f64..1000.0),
        arb_plane(),
    )
        .prop_map(|(a, b, lat, plane)| {
            (
                (ClusterId::new(a), ClusterId::new(b)),
                LinkAnnotation {
                    latency: lat.map(LatencyMs::new),
                    plane,
                },
            )
        })
}

prop_compose! {
    fn arb_atlas()(
        day in 0u32..400,
        links in proptest::collection::vec(arb_link(), 0..60),
        loss in proptest::collection::vec((0u32..500, 0u32..500, 0.0f64..0.5), 0..20),
        tuples in proptest::collection::vec((0u32..200, 0u32..200, 0u32..200), 0..40),
        prefs in proptest::collection::vec((0u32..200, 0u32..200, 0u32..200), 0..20),
        prefixes in proptest::collection::vec((0u32..300, 0u8..25, 0u32..200), 0..30),
        degrees in proptest::collection::vec((0u32..200, 0u32..1000), 0..30),
        providers in proptest::collection::vec(
            (0u32..200, proptest::collection::vec(0u32..200, 0..5)),
            0..20,
        ),
        prefix_providers in proptest::collection::vec(
            (0u32..30, proptest::collection::vec(0u32..200, 0..5)),
            0..20,
        ),
    ) -> Atlas {
        let mut a = Atlas { day, ..Atlas::default() };
        for (k, ann) in links {
            a.links.insert(k, ann);
            a.cluster_as.insert(k.0, Asn::new(k.0.raw() % 97));
            a.cluster_as.insert(k.1, Asn::new(k.1.raw() % 97));
        }
        for (x, y, l) in loss {
            let key = (ClusterId::new(x), ClusterId::new(y));
            if a.links.contains_key(&key) {
                a.loss.insert(key, LossRate::new(l));
            }
        }
        for (x, y, z) in tuples {
            a.tuples.insert(Triple::canonical(Asn::new(x), Asn::new(y), Asn::new(z)));
        }
        for (x, y, z) in prefs {
            if y != z {
                a.prefs.insert((Asn::new(x), Asn::new(y), Asn::new(z)));
            }
        }
        for (i, (addr, len, origin)) in prefixes.into_iter().enumerate() {
            let pid = PrefixId::new(i as u32);
            a.prefix_as.insert(
                pid,
                (Prefix::new(Ipv4(addr << 8), 8 + len), Asn::new(origin)),
            );
            a.prefix_cluster.insert(pid, ClusterId::new(addr % 500));
        }
        for (asn, d) in degrees {
            a.as_degree.insert(Asn::new(asn), d);
        }
        let asns = |set: Vec<u32>| set.into_iter().map(Asn::new).collect();
        for (asn, set) in providers {
            a.providers.insert(Asn::new(asn), asns(set));
        }
        for (pid, set) in prefix_providers {
            a.prefix_providers.insert(PrefixId::new(pid), asns(set));
        }
        a
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_roundtrip_is_identity_after_quantise(atlas in arb_atlas()) {
        let q = codec::quantise(&atlas);
        let (bytes, sizes) = codec::encode(&q);
        prop_assert!(sizes.total() <= bytes.len());
        let d = codec::decode(&bytes).expect("decode");
        prop_assert_eq!(&q.links, &d.links);
        prop_assert_eq!(&q.loss, &d.loss);
        prop_assert_eq!(&q.prefix_cluster, &d.prefix_cluster);
        prop_assert_eq!(&q.prefix_as, &d.prefix_as);
        prop_assert_eq!(&q.as_degree, &d.as_degree);
        prop_assert_eq!(&q.tuples, &d.tuples);
        prop_assert_eq!(&q.prefs, &d.prefs);
        prop_assert_eq!(&q.providers, &d.providers);
        prop_assert_eq!(&q.prefix_providers, &d.prefix_providers);
        prop_assert_eq!(&q.cluster_as, &d.cluster_as);
        prop_assert_eq!(q.day, d.day);
    }

    #[test]
    fn delta_apply_reconstructs_daily_datasets(a in arb_atlas(), b in arb_atlas()) {
        let mut b = b;
        b.day = a.day.wrapping_add(1);
        let delta = AtlasDelta::between(&a, &b);
        let rebuilt = delta.apply(&a).expect("apply");
        let qb = codec::quantise(&b);
        prop_assert_eq!(&rebuilt.links, &qb.links);
        prop_assert_eq!(&rebuilt.loss, &qb.loss);
        prop_assert_eq!(&rebuilt.tuples, &qb.tuples);
    }

    #[test]
    fn delta_encode_roundtrip(a in arb_atlas(), b in arb_atlas()) {
        let mut b = b;
        b.day = a.day.wrapping_add(1);
        let delta = AtlasDelta::between(&a, &b);
        let (bytes, _) = delta.encode();
        let decoded = AtlasDelta::decode(&bytes).expect("delta decode");
        let r1 = delta.apply(&a).unwrap();
        let r2 = decoded.apply(&a).unwrap();
        prop_assert_eq!(r1.links, r2.links);
        prop_assert_eq!(r1.loss, r2.loss);
        prop_assert_eq!(r1.tuples, r2.tuples);
        prop_assert_eq!(r1.cluster_as, r2.cluster_as);
    }

    #[test]
    fn truncated_atlases_never_panic(atlas in arb_atlas(), cut in 0usize..200) {
        let (bytes, _) = codec::encode(&atlas);
        let cut = cut.min(bytes.len());
        // Must error or succeed, never panic.
        let _ = codec::decode(&bytes[..cut]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn corrupted_atlases_and_deltas_never_panic(
        a in arb_atlas(),
        b in arb_atlas(),
        hits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let corrupt = |mut bytes: Vec<u8>| {
            let n = bytes.len();
            for &(at, v) in &hits {
                bytes[at % n] = v;
            }
            bytes
        };
        // Must error or succeed, never panic (nor overflow, in either
        // profile).
        let _ = codec::decode(&corrupt(codec::encode(&a).0));
        let _ = AtlasDelta::decode(&corrupt(AtlasDelta::between(&a, &b).encode().0));
    }
}
