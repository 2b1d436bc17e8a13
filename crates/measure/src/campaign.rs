//! A full measurement day: the orchestration the iNano *server side* runs
//! (§5) — traceroutes from every infrastructure VP to a destination in
//! every edge prefix, end-host agent traceroutes to random prefixes, BGP
//! feed collection, frontier assignment, and link loss/latency
//! measurement. The output is the raw material for the atlas builder.

use crate::bgp_feed::BgpFeedSet;
use crate::cluster::Clustering;
use crate::frontier::LinkAssignment;
use crate::linklat::LinkLatencyEstimator;
use crate::lossprobe;
use crate::traceroute::{simulate_traceroute, ProbeNoise, Traceroute};
use crate::vantage::VantagePoints;
use inano_model::rng::rng_for;
use inano_model::{ClusterId, HostId, LatencyMs, LossRate};
use inano_routing::RoutingOracle;
use rand::seq::SliceRandom;
use std::collections::HashMap;

/// Number of BGP feed ASes a day collects.
const N_FEEDS: usize = 6;

/// How many observers the frontier assigns each link to.
const REDUNDANCY: usize = 2;

/// Knobs of a measurement day. Each loss measurement sends
/// [`lossprobe::PROBES_PER_MEASUREMENT`] probes.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    pub seed: u64,
    /// Traceroutes per end-host agent per day ("a few hundred prefixes,
    /// chosen at random", §5 — we default lower to match our scale).
    pub traceroutes_per_agent: usize,
    pub noise: ProbeNoise,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 1,
            traceroutes_per_agent: 60,
            noise: ProbeNoise::default(),
        }
    }
}

/// Everything measured in one day.
#[derive(Clone, Debug)]
pub struct MeasurementDay {
    pub day: u32,
    pub vp_traceroutes: Vec<Traceroute>,
    pub agent_traceroutes: Vec<Traceroute>,
    pub bgp: BgpFeedSet,
    /// Inferred latency per directed cluster link.
    pub link_latency: HashMap<(ClusterId, ClusterId), LatencyMs>,
    /// Measured loss per directed cluster link; only lossy links are
    /// recorded (lossless links are implicit zeros, as in the paper where
    /// the loss dataset is ~1/7 the size of the link dataset).
    pub link_loss: HashMap<(ClusterId, ClusterId), LossRate>,
}

/// Run the full measurement day against an oracle bound to that day.
pub fn run_campaign(
    oracle: &RoutingOracle<'_>,
    clustering: &Clustering,
    vps: &VantagePoints,
    cfg: &CampaignConfig,
) -> MeasurementDay {
    let net = oracle.internet();
    let day = oracle.day().day;
    let mut rng = rng_for(cfg.seed, &format!("campaign-day-{day}"));

    // --- VP traceroutes: every infra VP to every edge prefix ---
    let edge_prefixes: Vec<_> = net.edge_prefixes().map(|p| p.id).collect();
    let mut vp_traceroutes = Vec::with_capacity(vps.infra.len() * edge_prefixes.len());
    for &vp in &vps.infra {
        for &p in &edge_prefixes {
            if net.host(vp).prefix == p {
                continue;
            }
            vp_traceroutes.push(simulate_traceroute(oracle, vp, p, &cfg.noise, &mut rng));
        }
    }

    // --- agent traceroutes: each agent to random prefixes ---
    let mut agent_traceroutes = Vec::new();
    for &agent in &vps.agents {
        let mut dests = edge_prefixes.clone();
        dests.shuffle(&mut rng);
        for &p in dests.iter().take(cfg.traceroutes_per_agent) {
            if net.host(agent).prefix == p {
                continue;
            }
            agent_traceroutes.push(simulate_traceroute(oracle, agent, p, &cfg.noise, &mut rng));
        }
    }

    // --- BGP feeds ---
    let bgp = BgpFeedSet::collect(oracle, N_FEEDS, &mut rng);

    // --- link latency inference from all traceroutes ---
    let mut estimator = LinkLatencyEstimator::new();
    for tr in vp_traceroutes.iter().chain(agent_traceroutes.iter()) {
        estimator.add_traceroute(net, clustering, tr);
    }
    let link_latency = estimator.estimate();

    // --- loss measurement over the frontier assignment ---
    // Observers per directed cluster link, plus the underlying pop-level
    // direction needed to probe it.
    let mut observers: HashMap<(ClusterId, ClusterId), Vec<HostId>> = HashMap::new();
    let mut phys: HashMap<(ClusterId, ClusterId), (inano_topology::LinkId, inano_model::PopId)> =
        HashMap::new();
    for tr in vp_traceroutes.iter().chain(agent_traceroutes.iter()) {
        for w in tr.hops.windows(2) {
            let (Some(ip_a), Some(ip_b)) = (w[0].ip, w[1].ip) else {
                continue;
            };
            let (Some(ca), Some(cb)) = (
                clustering.cluster_of_ip(net, ip_a),
                clustering.cluster_of_ip(net, ip_b),
            ) else {
                continue;
            };
            if ca == cb {
                continue;
            }
            observers.entry((ca, cb)).or_default().push(tr.src);
            if let Some(&ifc) = net.iface_by_ip.get(&ip_b) {
                let link = net.ifaces[ifc.index()].link;
                let to_pop = net.routers[net.ifaces[ifc.index()].router.index()].pop;
                let from_pop = net.link(link).other(to_pop);
                phys.entry((ca, cb)).or_insert((link, from_pop));
            }
        }
    }
    let assignment = LinkAssignment::assign(&observers, REDUNDANCY);
    let mut link_loss = HashMap::new();
    for (key, measurers) in &assignment.per_link {
        let Some(&(link, from_pop)) = phys.get(key) else {
            continue;
        };
        // Each assigned VP measures; the aggregator keeps the median
        // (robustness to "measurement noise", §3).
        let mut samples: Vec<f64> = measurers
            .iter()
            .map(|_| {
                lossprobe::measure_link_loss(
                    oracle,
                    link,
                    from_pop,
                    lossprobe::PROBES_PER_MEASUREMENT,
                    &mut rng,
                )
                .rate()
            })
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = LossRate::new(samples[samples.len() / 2]);
        if median.is_lossy() {
            link_loss.insert(*key, median);
        }
    }

    MeasurementDay {
        day,
        vp_traceroutes,
        agent_traceroutes,
        bgp,
        link_latency,
        link_loss,
    }
}

impl MeasurementDay {
    /// All traceroutes, VP first.
    pub fn all_traceroutes(&self) -> impl Iterator<Item = &Traceroute> {
        self.vp_traceroutes
            .iter()
            .chain(self.agent_traceroutes.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusteringConfig;
    use inano_model::rng::rng_for as rf;
    use inano_topology::{build_internet, DayState, TopologyConfig};

    fn campaign(seed: u64) -> (inano_topology::Internet, Clustering, MeasurementDay) {
        let net = build_internet(&TopologyConfig::tiny(seed)).unwrap();
        let clustering = Clustering::derive(&net, &ClusteringConfig::default());
        let vps = VantagePoints::choose(&net, 8, 10, &mut rf(seed, "vp"));
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
    fn campaign_produces_all_datasets() {
        let (_, _, day) = campaign(161);
        assert!(!day.vp_traceroutes.is_empty());
        assert!(!day.agent_traceroutes.is_empty());
        assert!(!day.bgp.routes.is_empty());
        assert!(!day.link_latency.is_empty());
        // Loss dataset much smaller than latency dataset (paper Table 2:
        // 47K loss entries vs 309K link entries).
        assert!(day.link_loss.len() < day.link_latency.len());
    }

    #[test]
    fn most_vp_traceroutes_reach() {
        let (_, _, day) = campaign(162);
        let reached = day.vp_traceroutes.iter().filter(|t| t.reached).count();
        let frac = reached as f64 / day.vp_traceroutes.len() as f64;
        assert!(frac > 0.95, "only {frac} of traceroutes reached");
    }

    #[test]
    fn loss_entries_are_lossy() {
        let (_, _, day) = campaign(163);
        for l in day.link_loss.values() {
            assert!(l.is_lossy());
        }
    }
}
