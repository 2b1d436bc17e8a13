//! iPlane's atlas of measured *paths* — the representation iNano set out
//! to shrink. Stored paths keep their per-hop RTTs so segment latencies
//! can be estimated by RTT subtraction (with exactly the asymmetric-
//! reply-path error the paper discusses in §6.3.2).

use inano_measure::{Clustering, MeasurementDay, Traceroute};
use inano_model::{ClusterId, HostId, PrefixId};
use inano_topology::Internet;
use std::collections::HashMap;

/// One measured cluster-level path with hop RTTs.
#[derive(Clone, Debug)]
pub struct StoredPath {
    pub src: HostId,
    pub src_cluster: ClusterId,
    pub dst_prefix: PrefixId,
    /// Cluster sequence, source cluster first (gaps skipped).
    pub clusters: Vec<ClusterId>,
    /// Measured RTT from the source to each cluster in `clusters`
    /// (`None` for the source itself and unmeasured hops).
    pub rtts: Vec<Option<f64>>,
    /// RTT to the destination host.
    pub dest_rtt: Option<f64>,
}

/// The path-level atlas: measured paths indexed by destination prefix and
/// by source cluster.
#[derive(Clone, Debug, Default)]
pub struct PathAtlas {
    pub paths: Vec<StoredPath>,
    pub by_dst: HashMap<PrefixId, Vec<usize>>,
    pub by_src_cluster: HashMap<ClusterId, Vec<usize>>,
}

impl PathAtlas {
    /// Build from a measurement day (both VP and end-host traceroutes).
    pub fn build(net: &Internet, clustering: &Clustering, day: &MeasurementDay) -> PathAtlas {
        let mut atlas = PathAtlas::default();
        for tr in day.all_traceroutes() {
            if !tr.reached {
                continue;
            }
            if let Some(p) = stored_path(net, clustering, tr) {
                let idx = atlas.paths.len();
                atlas.by_dst.entry(p.dst_prefix).or_default().push(idx);
                atlas
                    .by_src_cluster
                    .entry(p.src_cluster)
                    .or_default()
                    .push(idx);
                atlas.paths.push(p);
            }
        }
        atlas
    }

    /// Paths out of a source cluster.
    pub fn from_cluster(&self, c: ClusterId) -> impl Iterator<Item = &StoredPath> {
        self.by_src_cluster
            .get(&c)
            .into_iter()
            .flatten()
            .map(move |&i| &self.paths[i])
    }

    /// Paths into a destination prefix.
    pub fn to_prefix(&self, p: PrefixId) -> impl Iterator<Item = &StoredPath> {
        self.by_dst
            .get(&p)
            .into_iter()
            .flatten()
            .map(move |&i| &self.paths[i])
    }

    /// Storage accounting for the iNano-vs-iPlane size comparison:
    /// (total path-hop entries, encoded bytes). Encoding: varint cluster
    /// ids + quantised RTTs, comparable to the link-atlas codec.
    pub fn storage_size(&self) -> (usize, usize) {
        let mut entries = 0usize;
        let mut bytes = 0usize;
        for p in &self.paths {
            entries += p.clusters.len();
            bytes += 6; // src cluster + dst prefix headers
            for (c, r) in p.clusters.iter().zip(&p.rtts) {
                bytes += varint_len(c.raw() as u64);
                bytes += match r {
                    Some(ms) => varint_len((ms * 10.0) as u64),
                    None => 1,
                };
            }
        }
        (entries, bytes)
    }
}

fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
}

/// Convert a traceroute into a stored path (the source cluster is known
/// to the measuring host; unresponsive hops are dropped).
fn stored_path(net: &Internet, clustering: &Clustering, tr: &Traceroute) -> Option<StoredPath> {
    let src_cluster = clustering.cluster_of_pop(net.prefix(net.host(tr.src).prefix).home_pop);
    let mut clusters = vec![src_cluster];
    let mut rtts: Vec<Option<f64>> = vec![None];
    let n = tr.hops.len();
    for (i, hop) in tr.hops.iter().enumerate() {
        if i + 1 == n {
            break; // destination host hop
        }
        let Some(ip) = hop.ip else { continue };
        let Some(c) = clustering.cluster_of_ip(net, ip) else {
            continue;
        };
        if clusters.last() == Some(&c) {
            continue;
        }
        clusters.push(c);
        rtts.push(hop.rtt_ms);
    }
    Some(StoredPath {
        src: tr.src,
        src_cluster,
        dst_prefix: tr.dst_prefix,
        clusters,
        rtts,
        dest_rtt: tr.dest_rtt_ms(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_measure::{run_campaign, CampaignConfig, ClusteringConfig, VantagePoints};
    use inano_model::rng::rng_for;
    use inano_routing::RoutingOracle;
    use inano_topology::{build_internet, DayState, TopologyConfig};

    fn build(seed: u64) -> (Internet, Clustering, MeasurementDay) {
        let net = build_internet(&TopologyConfig::tiny(seed)).unwrap();
        let clustering = Clustering::derive(&net, &ClusteringConfig::default());
        let vps = VantagePoints::choose(&net, 8, 8, &mut rng_for(seed, "vp"));
        let oracle = RoutingOracle::new(&net, DayState::default());
        let day = run_campaign(
            &oracle,
            &clustering,
            &vps,
            &CampaignConfig {
                traceroutes_per_agent: 10,
                ..CampaignConfig::default()
            },
        );
        (net, clustering, day)
    }

    #[test]
    fn atlas_indexes_are_consistent() {
        let (net, clustering, day) = build(201);
        let pa = PathAtlas::build(&net, &clustering, &day);
        assert!(!pa.paths.is_empty());
        for (pfx, idxs) in &pa.by_dst {
            for &i in idxs {
                assert_eq!(pa.paths[i].dst_prefix, *pfx);
            }
        }
        for (c, idxs) in &pa.by_src_cluster {
            for &i in idxs {
                assert_eq!(pa.paths[i].src_cluster, *c);
            }
        }
    }

    #[test]
    fn paths_start_at_source_cluster() {
        let (net, clustering, day) = build(202);
        let pa = PathAtlas::build(&net, &clustering, &day);
        for p in pa.paths.iter().take(200) {
            assert_eq!(p.clusters[0], p.src_cluster);
            assert_eq!(p.clusters.len(), p.rtts.len());
        }
    }

    #[test]
    fn path_atlas_much_larger_than_link_atlas() {
        // The size claim at our scale: the path atlas must be much larger
        // than the link atlas built from the same measurements.
        let (net, clustering, day) = build(203);
        let pa = PathAtlas::build(&net, &clustering, &day);
        let (entries, bytes) = pa.storage_size();
        let link_atlas = inano_measure::build_atlas(
            &net,
            &clustering,
            &day,
            &inano_measure::AtlasConfig::default(),
        );
        let (link_bytes, _) = inano_atlas::codec::encode(&link_atlas);
        assert!(entries > link_atlas.links.len() * 3);
        assert!(
            bytes > link_bytes.len(),
            "path atlas {bytes}B vs link atlas {}B",
            link_bytes.len()
        );
    }
}
