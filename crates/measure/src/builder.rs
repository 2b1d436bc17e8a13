//! Distilling a measurement day into the compact atlas.
//!
//! This is the aggregation §5's central server runs before it ships the
//! atlas: traceroutes and BGP feeds go in, the eight datasets come out.
//! Everything here uses only *measured* artefacts (hop IPs mapped through
//! the clustering, feed AS paths) — never the ground-truth policy tables,
//! which is the entire point of the reproduction.

use crate::{Clustering, MeasurementDay, Traceroute};
use inano_atlas::{Atlas, Plane, Triple};
use inano_model::{AsPath, Asn, ClusterId, PrefixId};
use inano_topology::Internet;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// A preference is kept only when observed at least this many times in
/// absolute terms (noise floor).
const PREF_MIN_COUNT: u32 = 2;

/// Builder knobs.
#[derive(Clone, Debug)]
pub struct AtlasConfig {
    /// A preference (a, b > c) is kept only when observed at least this
    /// many times as often as its reverse (the paper uses 3×), and at
    /// least twice in all.
    pub pref_dominance: f64,
}

impl Default for AtlasConfig {
    fn default() -> Self {
        AtlasConfig {
            pref_dominance: 3.0,
        }
    }
}

/// Build the atlas for one measurement day.
pub fn build_atlas(
    net: &Internet,
    clustering: &Clustering,
    day: &MeasurementDay,
    cfg: &AtlasConfig,
) -> Atlas {
    let mut atlas = Atlas {
        day: day.day,
        ..Atlas::default()
    };

    // --- dataset 4: prefix → AS, from the BGP feeds ---
    for r in &day.bgp.routes {
        if let Some(origin) = r.path.last() {
            atlas
                .prefix_as
                .entry(r.prefix)
                .or_insert((net.prefix(r.prefix).prefix, origin));
        }
    }

    // --- dataset 1: links, from traceroute hop clusters ---
    let mut pfx_cluster_votes: HashMap<PrefixId, HashMap<ClusterId, u32>> = HashMap::new();
    // (dest prefix, AS path, plane, complete): `complete` means every
    // router hop responded, so consecutive ASes on the inferred path are
    // really adjacent — required for provider inference (a silent hop at
    // an AS boundary would fabricate an upstream).
    let mut as_paths: Vec<(PrefixId, AsPath, Plane, bool)> = Vec::new();

    let mut ingest = |tr: &Traceroute, plane: Plane, atlas: &mut Atlas| {
        let clusters = hop_clusters(net, clustering, tr);
        // Links between adjacent responsive hops only (a gap hides the
        // real link).
        for w in clusters.windows(2) {
            if let (Some(a), Some(b)) = (w[0], w[1]) {
                if a != b {
                    let e = atlas.links.entry((a, b)).or_default();
                    e.plane = e.plane.union(plane);
                    atlas
                        .cluster_as
                        .entry(a)
                        .or_insert(clustering.cluster_as[a.index()]);
                    atlas
                        .cluster_as
                        .entry(b)
                        .or_insert(clustering.cluster_as[b.index()]);
                }
            }
        }
        // Prefix-attachment vote: the last router cluster of a reached
        // traceroute.
        if tr.reached {
            if let Some(Some(last)) = clusters.last() {
                *pfx_cluster_votes
                    .entry(tr.dst_prefix)
                    .or_default()
                    .entry(*last)
                    .or_default() += 1;
            }
        }
        // AS path (known origin required to terminate the path).
        if tr.reached {
            if let Some(&(_, origin)) = atlas.prefix_as.get(&tr.dst_prefix) {
                let complete = clusters.iter().all(|c| c.is_some());
                let mut ases: Vec<Asn> = Vec::with_capacity(clusters.len() + 1);
                for c in clusters.iter().flatten() {
                    ases.push(clustering.cluster_as[c.index()]);
                }
                ases.push(origin);
                let path = AsPath::new(ases);
                if !path.has_loop() {
                    as_paths.push((tr.dst_prefix, path, plane, complete));
                }
            }
        }
    };

    for tr in &day.vp_traceroutes {
        ingest(tr, Plane::TO_DST, &mut atlas);
    }
    for tr in &day.agent_traceroutes {
        ingest(tr, Plane::FROM_SRC, &mut atlas);
    }

    // Latency annotations (dataset 1) and loss (dataset 2), intersected
    // with the links actually in the atlas.
    for (key, ann) in atlas.links.iter_mut() {
        if let Some(&lat) = day.link_latency.get(key) {
            ann.latency = Some(lat);
        }
    }
    for (key, &loss) in &day.link_loss {
        if atlas.links.contains_key(key) {
            atlas.loss.insert(*key, loss);
        }
    }

    // --- dataset 3: prefix → cluster by majority vote ---
    for (pfx, votes) in pfx_cluster_votes {
        if let Some((&cluster, _)) = votes.iter().max_by_key(|(c, &n)| (n, c.raw())) {
            atlas.prefix_cluster.insert(pfx, cluster);
        }
    }

    // --- dataset 5: AS degrees from links + feeds ---
    let mut adj: HashMap<Asn, BTreeSet<Asn>> = HashMap::new();
    for &(a, b) in atlas.links.keys() {
        let (aa, ab) = (
            clustering.cluster_as[a.index()],
            clustering.cluster_as[b.index()],
        );
        if aa != ab {
            adj.entry(aa).or_default().insert(ab);
            adj.entry(ab).or_default().insert(aa);
        }
    }
    for r in &day.bgp.routes {
        for w in r.path.as_slice().windows(2) {
            adj.entry(w[0]).or_default().insert(w[1]);
            adj.entry(w[1]).or_default().insert(w[0]);
        }
    }
    for (a, s) in &adj {
        atlas.as_degree.insert(*a, s.len() as u32);
    }

    // --- dataset 6: AS 3-tuples from traceroute AS paths + feeds ---
    for (_, path, _, _) in &as_paths {
        for (a, b, c) in path.triples() {
            atlas.tuples.insert(Triple::canonical(a, b, c));
        }
    }
    for r in &day.bgp.routes {
        for (a, b, c) in r.path.triples() {
            atlas.tuples.insert(Triple::canonical(a, b, c));
        }
    }

    // --- datasets 7 & 8: preferences and providers ---
    infer_preferences(&mut atlas, &as_paths, &day_feed_paths(day), &adj, cfg);
    infer_providers(&mut atlas, &as_paths, &day_feed_paths(day));

    // --- auxiliary: Gao relationship inference for the GRAPH baseline ---
    let complete_paths: Vec<&AsPath> = as_paths
        .iter()
        .filter(|(_, _, _, complete)| *complete)
        .map(|(_, p, _, _)| p)
        .chain(day.bgp.routes.iter().map(|r| &r.path))
        .collect();
    atlas.inferred_rels = crate::relinfer::infer_relationships(complete_paths, &atlas.as_degree);

    atlas
}

/// Feed routes as (prefix, path) pairs.
fn day_feed_paths(day: &MeasurementDay) -> Vec<(PrefixId, AsPath)> {
    day.bgp
        .routes
        .iter()
        .map(|r| (r.prefix, r.path.clone()))
        .collect()
}

/// Map traceroute hops to clusters: index 0 is the source's own cluster
/// (a host knows where it attaches), then one entry per *router* hop
/// (`None` for unresponsive hops); the destination-host hop is dropped.
fn hop_clusters(
    net: &Internet,
    clustering: &Clustering,
    tr: &Traceroute,
) -> Vec<Option<ClusterId>> {
    let src_pop = net.prefix(net.host(tr.src).prefix).home_pop;
    let mut out = vec![Some(clustering.cluster_of_pop(src_pop))];
    let n = tr.hops.len();
    for (i, hop) in tr.hops.iter().enumerate() {
        if tr.reached && i + 1 == n {
            break; // destination host reply, not a router
        }
        out.push(hop.ip.and_then(|ip| clustering.cluster_of_ip(net, ip)));
    }
    // Collapse immediate duplicates (several routers of one cluster).
    out.dedup_by(|a, b| a.is_some() && a == b);
    out
}

/// §4.3.3: relationship-agnostic preference inference. For each observed
/// route and each hop a→b toward destination d, any observed neighbor x of
/// a at the same observed distance to d as b is an equally-long
/// alternative a declined — evidence for (a, b > x). Preferences are kept
/// only with 3× dominance over their reverse, dropping the "wavering"
/// choices of load-balancing ASes.
fn infer_preferences(
    atlas: &mut Atlas,
    tr_paths: &[(PrefixId, AsPath, Plane, bool)],
    feed_paths: &[(PrefixId, AsPath)],
    adj: &HashMap<Asn, BTreeSet<Asn>>,
    cfg: &AtlasConfig,
) {
    // Group observed paths by destination prefix.
    let mut by_dest: HashMap<PrefixId, Vec<&AsPath>> = HashMap::new();
    for (p, path, _, _) in tr_paths {
        by_dest.entry(*p).or_default().push(path);
    }
    for (p, path) in feed_paths {
        by_dest.entry(*p).or_default().push(path);
    }

    let mut counts: HashMap<(Asn, Asn, Asn), u32> = HashMap::new();
    for paths in by_dest.values() {
        // Observed next hop and distance-to-destination per AS; BGP picks
        // one route per destination, so these are consistent per prefix.
        let mut next: HashMap<Asn, Asn> = HashMap::new();
        let mut dist: HashMap<Asn, u16> = HashMap::new();
        for path in paths {
            let s = path.as_slice();
            for (i, &a) in s.iter().enumerate() {
                let d = (s.len() - 1 - i) as u16;
                dist.entry(a).or_insert(d);
                if i + 1 < s.len() {
                    next.entry(a).or_insert(s[i + 1]);
                }
            }
        }
        for (&a, &b) in &next {
            let Some(&db) = dist.get(&b) else { continue };
            let Some(neighbors) = adj.get(&a) else {
                continue;
            };
            for &x in neighbors {
                if x != b && dist.get(&x) == Some(&db) {
                    *counts.entry((a, b, x)).or_default() += 1;
                }
            }
        }
    }

    // Dominance filter.
    let keys: Vec<(Asn, Asn, Asn)> = counts.keys().copied().collect();
    let mut done: HashSet<(Asn, Asn, Asn)> = HashSet::new();
    for (a, b, c) in keys {
        let canon = if b < c { (a, b, c) } else { (a, c, b) };
        if !done.insert(canon) {
            continue;
        }
        let fwd = counts.get(&(a, b, c)).copied().unwrap_or(0);
        let rev = counts.get(&(a, c, b)).copied().unwrap_or(0);
        let (hi, lo, win, alt) = if fwd >= rev {
            (fwd, rev, b, c)
        } else {
            (rev, fwd, c, b)
        };
        if hi >= PREF_MIN_COUNT && (hi as f64) >= cfg.pref_dominance * (lo as f64).max(1.0) {
            atlas.prefs.insert((a, win, alt));
        }
    }
}

/// §4.3.4: the set of ASes observed immediately upstream of an origin on
/// routes terminating at it — per AS, refined per prefix when a prefix's
/// set differs (traffic engineering).
fn infer_providers(
    atlas: &mut Atlas,
    tr_paths: &[(PrefixId, AsPath, Plane, bool)],
    feed_paths: &[(PrefixId, AsPath)],
) {
    let mut per_as: BTreeMap<Asn, BTreeSet<Asn>> = BTreeMap::new();
    let mut per_prefix: BTreeMap<PrefixId, BTreeSet<Asn>> = BTreeMap::new();
    let mut note = |prefix: PrefixId, path: &AsPath| {
        let s = path.as_slice();
        if s.len() < 2 {
            return;
        }
        let origin = s[s.len() - 1];
        let upstream = s[s.len() - 2];
        per_as.entry(origin).or_default().insert(upstream);
        per_prefix.entry(prefix).or_default().insert(upstream);
    };
    for (p, path, _, complete) in tr_paths {
        if *complete {
            note(*p, path);
        }
    }
    for (p, path) in feed_paths {
        note(*p, path);
    }

    // Keep per-prefix sets only where they refine the per-AS set.
    let origin_of: HashMap<PrefixId, Asn> =
        atlas.prefix_as.iter().map(|(&p, &(_, a))| (p, a)).collect();
    for (prefix, set) in per_prefix {
        if let Some(origin) = origin_of.get(&prefix) {
            if per_as.get(origin).map(|s| s != &set).unwrap_or(false) {
                atlas.prefix_providers.insert(prefix, set);
            }
        }
    }
    atlas.providers = per_as;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_campaign, CampaignConfig, ClusteringConfig, VantagePoints};
    use inano_model::rng::rng_for;
    use inano_routing::RoutingOracle;
    use inano_topology::{build_internet, DayState, TopologyConfig};

    fn build(seed: u64) -> (Internet, Clustering, Atlas) {
        let net = build_internet(&TopologyConfig::tiny(seed)).unwrap();
        let clustering = Clustering::derive(&net, &ClusteringConfig::default());
        let vps = VantagePoints::choose(&net, 10, 12, &mut rng_for(seed, "vp"));
        let oracle = RoutingOracle::new(&net, DayState::default());
        let day = run_campaign(
            &oracle,
            &clustering,
            &vps,
            &CampaignConfig {
                traceroutes_per_agent: 15,
                ..CampaignConfig::default()
            },
        );
        let atlas = build_atlas(&net, &clustering, &day, &AtlasConfig::default());
        (net, clustering, atlas)
    }

    #[test]
    fn atlas_has_all_datasets() {
        let (_, _, atlas) = build(171);
        assert!(!atlas.links.is_empty(), "links");
        assert!(!atlas.prefix_cluster.is_empty(), "prefix->cluster");
        assert!(!atlas.prefix_as.is_empty(), "prefix->AS");
        assert!(!atlas.as_degree.is_empty(), "degrees");
        assert!(!atlas.tuples.is_empty(), "tuples");
        assert!(!atlas.providers.is_empty(), "providers");
        // Loss entries are a strict subset of links and all lossy.
        for (k, l) in &atlas.loss {
            assert!(atlas.links.contains_key(k));
            assert!(l.is_lossy());
        }
    }

    #[test]
    fn links_correspond_to_physical_adjacency() {
        let (net, clustering, atlas) = build(172);
        for (&(a, b), _) in atlas.links.iter().take(300) {
            let pa = clustering.cluster_pop[a.index()];
            let pb = clustering.cluster_pop[b.index()];
            if pa == pb {
                continue; // split cluster inside one PoP
            }
            let adjacent = net.pop_adj[pa.index()].iter().any(|&(_, o)| o == pb);
            assert!(adjacent, "atlas link {a}->{b} has no physical link");
        }
    }

    #[test]
    fn prefix_cluster_mostly_correct() {
        let (net, clustering, atlas) = build(173);
        let mut right = 0;
        let mut total = 0;
        for (&pfx, &cl) in &atlas.prefix_cluster {
            total += 1;
            let truth = clustering.cluster_of_pop(net.prefix(pfx).home_pop);
            // The voted cluster should be the home cluster or at least in
            // the same AS (last-hop router just before the edge).
            if cl == truth || clustering.cluster_as[cl.index()] == net.prefix(pfx).origin {
                right += 1;
            }
        }
        assert!(total > 10);
        assert!(
            right as f64 / total as f64 > 0.9,
            "{right}/{total} attachments plausible"
        );
    }

    #[test]
    fn degrees_match_observed_adjacency_shape() {
        let (net, _, atlas) = build(174);
        // Tier-1 ASes must have the highest observed degrees.
        let t1_deg: Vec<u32> = net
            .ases
            .iter()
            .filter(|a| a.tier == inano_topology::Tier::Tier1)
            .map(|a| atlas.degree(a.asn))
            .collect();
        let stub_deg: Vec<u32> = net
            .ases
            .iter()
            .filter(|a| a.tier == inano_topology::Tier::Stub)
            .map(|a| atlas.degree(a.asn))
            .collect();
        let avg = |v: &[u32]| v.iter().sum::<u32>() as f64 / v.len().max(1) as f64;
        assert!(avg(&t1_deg) > avg(&stub_deg) * 2.0);
    }

    #[test]
    fn tuples_reflect_observed_paths_only() {
        let (net, _, atlas) = build(175);
        // A (stub, stub, stub) triple should never exist: stubs don't
        // provide transit in ground truth, so no observed path crosses one.
        for t in &atlas.tuples {
            let mid_tier = net.as_info(t.1).tier;
            assert_ne!(
                mid_tier,
                inano_topology::Tier::Stub,
                "stub {} observed as transit in {:?}",
                t.1,
                t
            );
        }
    }

    #[test]
    fn providers_are_true_neighbors() {
        let (net, _, atlas) = build(176);
        for (origin, provs) in &atlas.providers {
            for p in provs {
                assert!(
                    net.as_info(*origin).rel_to(*p).is_some(),
                    "provider {p} of {origin} is not even adjacent"
                );
            }
        }
    }

    #[test]
    fn preferences_do_not_contradict() {
        let (_, _, atlas) = build(177);
        for &(a, b, c) in &atlas.prefs {
            assert!(
                !atlas.prefs.contains(&(a, c, b)),
                "contradictory preferences for {a}: {b} vs {c}"
            );
        }
    }

    #[test]
    fn builder_is_deterministic() {
        let (_, _, a1) = build(178);
        let (_, _, a2) = build(178);
        assert_eq!(a1.links.len(), a2.links.len());
        assert_eq!(a1.tuples, a2.tuples);
        assert_eq!(a1.prefs, a2.prefs);
    }
}
