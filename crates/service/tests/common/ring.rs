//! The ring world the engine, registry, thread-budget and network tests
//! share: a bidirectional ring of clusters, one AS and one /16 prefix
//! per cluster, so every pair of addresses is routable and the right
//! answer (the shorter way round) is obvious by construction.
//!
//! Test support only. The service tests pull it in with
//! `#[path = "common/ring.rs"] mod ring;`, the network tests through
//! their own `common` module and `client.rs`'s unit tests. A server
//! serves a measured atlas (`inano-serve --atlas FILE`), and every
//! answer is `PredictorConfig::full()`'s: the ring's degree-2 ASes sit
//! below the 3-tuple threshold and it records no routes, preferences,
//! providers or FROM_SRC links, so the refinements pass it untouched.

// Each includer uses only part.
#![allow(dead_code)]

use inano_atlas::{Atlas, AtlasDelta, LinkAnnotation, Plane};
use inano_model::{Asn, ClusterId, Ipv4, LatencyMs, Prefix, PrefixId};

/// A bidirectional ring of `n` clusters stamped with `day`; the link
/// out of cluster `x` costs `1.0 + 0.1·x` ms.
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
