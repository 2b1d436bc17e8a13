//! Link-latency inference from traceroute RTTs.
//!
//! Subtracting consecutive hop RTTs gives `lat + (reply(k+1) − reply(k))`,
//! which equals `2·lat` only when the two reply paths share a route
//! through hop k (the symmetric case). The paper's techniques (\[28\])
//! identify symmetric traversals and propagate from them; we implement the
//! same idea statistically: across many traceroutes through a link, the
//! symmetric samples concentrate at `2·lat` while asymmetric ones scatter
//! (including below zero), so a trimmed median of the positive samples is
//! a robust estimate — good in the common case, imperfect in the tail,
//! matching Figure 6's observed behaviour.

use crate::cluster::Clustering;
use crate::traceroute::Traceroute;
use inano_model::{ClusterId, LatencyMs};
use inano_topology::Internet;
use std::collections::HashMap;

/// Accumulates RTT-difference samples per directed cluster link and
/// produces latency estimates.
#[derive(Clone, Debug, Default)]
pub struct LinkLatencyEstimator {
    samples: HashMap<(ClusterId, ClusterId), Vec<f64>>,
}

/// Floor for estimates: a link cannot be faster than its serialisation
/// cost (keeps estimates sane when asymmetric noise dominates).
const MIN_LATENCY_MS: f64 = 0.1;

impl LinkLatencyEstimator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Extract per-link RTT deltas from one traceroute.
    pub fn add_traceroute(&mut self, net: &Internet, clustering: &Clustering, tr: &Traceroute) {
        let hops = &tr.hops;
        for w in hops.windows(2) {
            let (Some(ip_a), Some(rtt_a)) = (w[0].ip, w[0].rtt_ms) else {
                continue;
            };
            let (Some(ip_b), Some(rtt_b)) = (w[1].ip, w[1].rtt_ms) else {
                continue;
            };
            let (Some(ca), Some(cb)) = (
                clustering.cluster_of_ip(net, ip_a),
                clustering.cluster_of_ip(net, ip_b),
            ) else {
                continue; // destination hop or unknown address
            };
            if ca == cb {
                continue;
            }
            self.samples
                .entry((ca, cb))
                .or_default()
                .push(rtt_b - rtt_a);
        }
    }

    /// Number of links with at least one sample.
    pub fn links_sampled(&self) -> usize {
        self.samples.len()
    }

    /// Produce per-link latency estimates.
    pub fn estimate(&self) -> HashMap<(ClusterId, ClusterId), LatencyMs> {
        let mut out = HashMap::with_capacity(self.samples.len());
        for (&link, deltas) in &self.samples {
            let mut pos: Vec<f64> = deltas.iter().copied().filter(|d| *d > 0.0).collect();
            if pos.is_empty() {
                // Only asymmetric negative samples: all we can say is the
                // link is fast.
                out.insert(link, LatencyMs::new(MIN_LATENCY_MS));
                continue;
            }
            pos.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = pos[pos.len() / 2];
            out.insert(link, LatencyMs::new((median / 2.0).max(MIN_LATENCY_MS)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusteringConfig;
    use crate::traceroute::{simulate_traceroute, ProbeNoise};
    use inano_model::rng::rng_for;
    use inano_model::HostId;
    use inano_routing::RoutingOracle;
    use inano_topology::{build_internet, DayState, TopologyConfig};

    #[test]
    fn estimates_are_positive_and_bounded() {
        let net = build_internet(&TopologyConfig::tiny(151)).unwrap();
        let oracle = RoutingOracle::new(&net, DayState::default());
        let clustering = Clustering::derive(&net, &ClusteringConfig::perfect(1));
        let mut rng = rng_for(151, "ll");
        let mut est = LinkLatencyEstimator::new();
        for i in 0..30.min(net.hosts.len()) {
            for j in 0..10 {
                let dst = net.hosts[(i * 7 + j * 13) % net.hosts.len()].prefix;
                let tr = simulate_traceroute(
                    &oracle,
                    HostId::from_index(i),
                    dst,
                    &ProbeNoise::none(),
                    &mut rng,
                );
                est.add_traceroute(&net, &clustering, &tr);
            }
        }
        assert!(est.links_sampled() > 10, "too few links sampled");
        let max_true = net
            .links
            .iter()
            .map(|l| l.latency.ms())
            .fold(0.0f64, f64::max);
        for (_, lat) in est.estimate() {
            assert!(lat.ms() >= MIN_LATENCY_MS);
            assert!(lat.ms() <= max_true * 2.0 + 5.0, "estimate {lat} too big");
        }
    }

    #[test]
    fn median_error_is_small_relative_to_truth() {
        // With enough coverage, most link estimates should be near truth.
        let net = build_internet(&TopologyConfig::tiny(152)).unwrap();
        let oracle = RoutingOracle::new(&net, DayState::default());
        let clustering = Clustering::derive(&net, &ClusteringConfig::perfect(2));
        let mut rng = rng_for(152, "ll");
        let mut est = LinkLatencyEstimator::new();
        for i in 0..net.hosts.len().min(60) {
            for j in 0..8 {
                let dst = net.hosts[(i * 11 + j * 29) % net.hosts.len()].prefix;
                let tr = simulate_traceroute(
                    &oracle,
                    HostId::from_index(i),
                    dst,
                    &ProbeNoise::none(),
                    &mut rng,
                );
                est.add_traceroute(&net, &clustering, &tr);
            }
        }
        let estimates = est.estimate();
        // Map cluster pairs back to true pop-level links for scoring.
        let mut errs: Vec<f64> = Vec::new();
        for (&(ca, cb), &lat) in &estimates {
            let pa = clustering.cluster_pop[ca.index()];
            let pb = clustering.cluster_pop[cb.index()];
            if let Some(&(lid, _)) = net.pop_adj[pa.index()]
                .iter()
                .find(|&&(_, other)| other == pb)
            {
                errs.push((lat.ms() - net.link(lid).latency.ms()).abs());
            }
        }
        assert!(errs.len() > 10);
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median_err = errs[errs.len() / 2];
        assert!(median_err < 3.0, "median link-latency error {median_err}ms");
    }

    #[test]
    fn skips_unresponsive_and_same_cluster() {
        let net = build_internet(&TopologyConfig::tiny(153)).unwrap();
        let clustering = Clustering::derive(&net, &ClusteringConfig::perfect(3));
        let mut est = LinkLatencyEstimator::new();
        let tr = Traceroute {
            src: HostId::new(0),
            dst_prefix: net.prefixes[0].id,
            dst_ip: net.hosts[0].ip,
            hops: vec![
                crate::traceroute::Hop {
                    ip: None,
                    rtt_ms: None,
                },
                crate::traceroute::Hop {
                    ip: Some(net.ifaces[0].ip),
                    rtt_ms: Some(5.0),
                },
            ],
            reached: false,
        };
        est.add_traceroute(&net, &clustering, &tr);
        assert_eq!(est.links_sampled(), 0);
    }
}
