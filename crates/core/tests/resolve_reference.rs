//! Differential test: `PathPredictor::resolve` answers from the table it
//! builds per generation exactly what it computed before it kept one —
//! a trie walk to the prefix, then four map lookups into the atlas.
//!
//! Checked on a measured world's day-0 atlas and on the atlas one daily
//! delta later (every generation builds its own table): the first and
//! last address of every prefix, an address no prefix covers, and a
//! prefix the atlas attaches to no cluster.

use inano_atlas::{Atlas, AtlasDelta};
use inano_bench::{Scenario, ScenarioConfig};
use inano_core::{PathPredictor, PredictorConfig, Resolution};
use inano_model::{Ipv4, ModelError, PrefixTrie};
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
    let edges = atlas
        .prefix_as
        .values()
        .flat_map(|&(net, _)| [net.addr(), net.nth(net.size() - 1)]);
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
}
