//! Differential test: `PathPredictor::resolve` answers from the table it
//! builds per generation exactly what it computed before it kept one —
//! a trie walk to the prefix, then four map lookups into the atlas.
//!
//! Checked on a measured world's day-0 atlas and on the atlas one daily
//! delta later (every generation builds its own table): the first and
//! last address of every prefix and the addresses either side of them,
//! an address no prefix covers, a prefix the atlas attaches to no
//! cluster, and a /16 laid over the world's /24s.
//!
//! No measured world nests prefixes, so the address ranges the table is
//! searched by are also held to the trie's longest match on drawn prefix
//! sets: nested, adjacent and repeated, /0 and /32 included.

use inano_atlas::{Atlas, AtlasDelta};
use inano_bench::{Scenario, ScenarioConfig};
use inano_core::{PathPredictor, PredictorConfig, Resolution};
use inano_model::{Ipv4, ModelError, Prefix, PrefixId, PrefixTrie};
use proptest::prelude::*;
use std::sync::Arc;

/// The oracle: `resolve` as it read the atlas before the table.
fn four_maps(atlas: &Atlas, trie: &PrefixTrie, ip: Ipv4) -> Result<Resolution, ModelError> {
    let prefix = trie
        .lookup(ip)
        .ok_or_else(|| ModelError::UnroutableAddress(ip.to_string()))?;
    let cluster = *atlas
        .prefix_cluster
        .get(&prefix)
        .ok_or_else(|| ModelError::NoPath(format!("{prefix} has no known cluster")))?;
    Ok(Resolution {
        prefix,
        cluster,
        origin_as: atlas.prefix_as.get(&prefix).map(|&(_, asn)| asn),
        cluster_as: atlas.as_of_cluster(cluster),
        refined_providers: atlas.prefix_providers.contains_key(&prefix),
    })
}

/// Compare the shipped `resolve` with the oracle over `atlas`; returns
/// how many of the compared addresses resolved to `NoPath`.
fn assert_same_as_four_maps(atlas: &Atlas, what: &str) -> usize {
    let trie = atlas.build_trie();
    let predictor = PathPredictor::new(Arc::new(atlas.clone()), PredictorConfig::full());
    let uncovered = (0..=u8::MAX)
        .map(|octet| Ipv4::from_octets(octet, 0, 0, 1))
        .find(|&ip| trie.lookup(ip).is_none())
        .expect("some /8 holds no prefix");
    let mut unhomed = 0;
    let edges = atlas.prefix_as.values().flat_map(|&(net, _)| {
        let (first, last) = (net.addr().raw(), net.nth(net.size() - 1).raw());
        [first.wrapping_sub(1), first, last, last.wrapping_add(1)].map(Ipv4)
    });
    for ip in edges.chain([uncovered]) {
        let want = four_maps(atlas, &trie, ip);
        assert_eq!(predictor.resolve(ip), want, "{what}: {ip}");
        unhomed += usize::from(matches!(want, Err(ModelError::NoPath(_))));
    }
    assert!(matches!(
        predictor.resolve(uncovered),
        Err(ModelError::UnroutableAddress(_))
    ));
    unhomed
}

#[test]
fn the_resolution_table_equals_the_four_map_lookups() {
    let s = Scenario::build(ScenarioConfig::test(1));
    // Of what `resolve` reads, a delta carries only a new cluster's AS.
    // Start from a day 0 that lacks one, so the next generation's table
    // must say something this one does not.
    let mut day0 = s.atlas.clone();
    let (&prefix, &cluster) = day0.prefix_cluster.iter().next().expect("a homed prefix");
    day0.cluster_as.remove(&cluster);
    let day1 = AtlasDelta::between(&day0, &s.atlas_for_day(1).1)
        .apply(&day0)
        .expect("the delta applies to its own base");
    assert!(
        day1.cluster_as.contains_key(&cluster),
        "the delta names {cluster}'s AS"
    );

    for (what, atlas) in [("day 0", &day0), ("day 1", &day1)] {
        assert_same_as_four_maps(atlas, what);
        // The same atlas with one prefix no longer attached to a cluster.
        let mut unhomed = atlas.clone();
        unhomed.prefix_cluster.remove(&prefix);
        let no_path = assert_same_as_four_maps(&unhomed, what);
        assert!(no_path > 0, "{what}: {prefix} resolves to NoPath");
    }

    // A homed /16 over the /16 that holds the most of the world's /24s
    // without being filled by them: each /24 keeps its own row, the rest
    // of the /16 is the /16's.
    let mut nested = s.atlas.clone();
    let mut per_16: Vec<(Prefix, Vec<(PrefixId, Prefix)>)> = Vec::new();
    for (&id, &(net, _)) in &nested.prefix_as {
        let wide = Prefix::new(net.addr(), 16);
        match per_16.iter_mut().find(|(w, _)| *w == wide) {
            Some((_, inner)) => inner.push((id, net)),
            None => per_16.push((wide, vec![(id, net)])),
        }
    }
    let (wide, inner) = per_16
        .into_iter()
        .filter(|(_, inner)| inner.len() < 256)
        .max_by_key(|(_, inner)| inner.len())
        .expect("some /16 is not all /24s");
    assert!(inner.len() > 1, "some /16 holds several /24s");
    let (&last, _) = nested.prefix_as.last_key_value().expect("a prefix");
    let wide_id = PrefixId::new(last.raw() + 1);
    let (_, origin) = nested.prefix_as[&inner[0].0];
    nested.prefix_as.insert(wide_id, (wide, origin));
    nested.prefix_cluster.insert(wide_id, cluster);
    assert_same_as_four_maps(&nested, "a /16 over /24s");
    let predictor = PathPredictor::new(Arc::new(nested), PredictorConfig::full());
    let prefix_of = |ip| predictor.prefix_of(ip).expect("covered");
    for &(id, net) in &inner {
        assert_eq!(prefix_of(net.addr()), id, "{net}");
        assert_eq!(prefix_of(net.nth(net.size() - 1)), id, "{net}");
    }
    let slash_24s = (0..wide.size()).step_by(256).map(|i| wide.nth(i));
    for ip in slash_24s.filter(|&ip| inner.iter().all(|&(_, net)| !net.contains(ip))) {
        assert_eq!(prefix_of(ip), wide_id, "{ip}");
    }
}

/// Drawn prefix sets: addresses whose octets are 0, 1, 128 or 255, so
/// prefixes nest in, adjoin and repeat each other.
fn prefixes() -> impl Strategy<Value = Vec<(u32, u8, u32)>> {
    let octets = (0usize..4, 0usize..4, 0usize..4, 0usize..4);
    let addr = octets.prop_map(|(a, b, c, d)| {
        let o = [0u8, 1, 128, 255];
        Ipv4::from_octets(o[a], o[b], o[c], o[d]).raw()
    });
    // Few values, so equal values often adjoin and must merge.
    proptest::collection::vec((addr, 0u8..=32, 0u32..4), 0..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_address_ranges_answer_the_tries_longest_match(
        drawn in prefixes(),
        random in proptest::collection::vec(any::<u32>(), 0..32),
    ) {
        let mut trie = PrefixTrie::new();
        for &(addr, len, value) in &drawn {
            trie.insert(Prefix::new(Ipv4(addr), len), value);
        }
        let ranges = trie.ranges();
        let starts: Vec<u32> = ranges.starts().map(Ipv4::raw).collect();
        prop_assert_eq!(starts.first().copied(), Some(0));
        for pair in starts.windows(2) {
            prop_assert!(pair[0] < pair[1], "ascending: {:?}", pair);
            let (a, b) = (Ipv4(pair[0]), Ipv4(pair[1]));
            prop_assert!(ranges.lookup(a) != ranges.lookup(b), "unmerged: {} {}", a, b);
        }
        let edges = drawn.iter().flat_map(|&(addr, len, _)| {
            let net = Prefix::new(Ipv4(addr), len);
            [net.addr().raw(), net.nth(net.size() - 1).raw()]
        });
        let probes = starts
            .iter()
            .copied()
            .chain(edges)
            .flat_map(|b| [b.wrapping_sub(1), b, b.wrapping_add(1)])
            .chain([0, u32::MAX])
            .chain(random);
        for ip in probes.map(Ipv4) {
            prop_assert_eq!(ranges.lookup(ip), trie.lookup(ip), "{}", ip);
        }
    }
}
