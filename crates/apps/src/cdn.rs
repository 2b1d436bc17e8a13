//! Client-based CDN replica selection (§7.1, Figure 9).
//!
//! Each client holds a set of candidate replicas and must pick one
//! locally. Strategies under test: ground-truth optimal, measured
//! latency, iNano (latency for short transfers; latency+loss through the
//! PFTK model for long ones), Vivaldi coordinates, OASIS-style
//! geo-anycast, and random. Downloads are then "performed" against the
//! ground-truth path properties through the TCP transfer-time model.

use crate::oasis::oasis_pick;
use crate::tcp_model::{pftk_throughput, transfer_time_secs};
use inano_coords::VivaldiSystem;
use inano_core::PathPredictor;
use inano_measure::ping::ping_median;
use inano_measure::traceroute::ProbeNoise;
use inano_model::rng::DeterministicRng;
use inano_model::HostId;
use inano_routing::RoutingOracle;
use rand::seq::SliceRandom;
use std::collections::HashMap;

/// The replica-selection strategies of Figure 9.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplicaStrategy {
    /// Hindsight optimum: the replica with the smallest actual download
    /// time.
    Optimal,
    /// Lowest measured RTT (median of pings).
    MeasuredLatency,
    /// iNano predictions: latency for short files, PFTK(latency, loss)
    /// for long ones.
    INano,
    /// Vivaldi coordinate distance.
    Vivaldi,
    /// OASIS-style geo-closest.
    Oasis,
    /// Uniformly random replica.
    Random,
}

impl ReplicaStrategy {
    pub fn all() -> [ReplicaStrategy; 6] {
        [
            ReplicaStrategy::Optimal,
            ReplicaStrategy::MeasuredLatency,
            ReplicaStrategy::INano,
            ReplicaStrategy::Vivaldi,
            ReplicaStrategy::Oasis,
            ReplicaStrategy::Random,
        ]
    }

    pub fn name(&self) -> &'static str {
        match self {
            ReplicaStrategy::Optimal => "optimal",
            ReplicaStrategy::MeasuredLatency => "measured",
            ReplicaStrategy::INano => "iNano",
            ReplicaStrategy::Vivaldi => "Vivaldi",
            ReplicaStrategy::Oasis => "OASIS",
            ReplicaStrategy::Random => "random",
        }
    }
}

/// Everything a CDN selection needs to consult.
pub struct CdnExperiment<'a> {
    pub oracle: &'a RoutingOracle<'a>,
    pub predictor: &'a PathPredictor,
    /// Vivaldi system with its HostId → node-index mapping.
    pub vivaldi: &'a VivaldiSystem,
    pub vivaldi_index: &'a HashMap<HostId, usize>,
    /// File size under test, bytes.
    pub file_bytes: f64,
}

impl<'a> CdnExperiment<'a> {
    /// Actual download time from ground truth (`None` when unreachable).
    pub fn download_time(&self, client: HostId, replica: HostId) -> Option<f64> {
        let rtt = self.oracle.rtt(client, replica)?;
        let loss = self.oracle.round_trip_loss(client, replica)?;
        Some(transfer_time_secs(self.file_bytes, rtt, loss))
    }

    /// The replica a strategy picks among `candidates`.
    pub fn pick(
        &self,
        strategy: ReplicaStrategy,
        client: HostId,
        candidates: &[HostId],
        rng: &mut DeterministicRng,
    ) -> Option<HostId> {
        let net = self.oracle.internet();
        match strategy {
            ReplicaStrategy::Optimal => candidates
                .iter()
                .copied()
                .filter_map(|r| self.download_time(client, r).map(|t| (r, t)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .map(|(r, _)| r),
            ReplicaStrategy::MeasuredLatency => candidates
                .iter()
                .copied()
                .filter_map(|r| {
                    ping_median(self.oracle, client, r, 3, &ProbeNoise::default(), rng)
                        .map(|l| (r, l.ms()))
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .map(|(r, _)| r),
            ReplicaStrategy::INano => {
                let src_pfx = net.host(client).prefix;
                // Short transfers: latency only (paper, 30KB). Long
                // transfers: maximise PFTK throughput from predicted
                // latency + loss (paper, 1.5MB).
                let latency_only = self.file_bytes <= 100_000.0;
                candidates
                    .iter()
                    .copied()
                    .filter_map(|r| {
                        let p = self.predictor.predict(src_pfx, net.host(r).prefix).ok()?;
                        let score = if latency_only {
                            p.rtt.ms()
                        } else {
                            -pftk_throughput(p.rtt, p.loss)
                        };
                        Some((r, score))
                    })
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .map(|(r, _)| r)
            }
            ReplicaStrategy::Vivaldi => {
                let ci = *self.vivaldi_index.get(&client)?;
                candidates
                    .iter()
                    .copied()
                    .filter_map(|r| {
                        let ri = *self.vivaldi_index.get(&r)?;
                        Some((r, self.vivaldi.estimate(ci, ri)))
                    })
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .map(|(r, _)| r)
            }
            ReplicaStrategy::Oasis => oasis_pick(net, client, candidates, 500.0, rng),
            ReplicaStrategy::Random => candidates.choose(rng).copied(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_coords::VivaldiConfig;
    use inano_core::PredictorConfig;
    use inano_measure::{
        build_atlas, run_campaign, AtlasConfig, CampaignConfig, Clustering, ClusteringConfig,
        VantagePoints,
    };
    use inano_model::rng::rng_for;
    use inano_topology::{build_internet, DayState, TopologyConfig};
    use std::sync::Arc;

    #[allow(clippy::type_complexity)]
    fn setup() -> (
        inano_topology::Internet,
        Vec<HostId>,
        Vec<HostId>,
        Arc<inano_atlas::Atlas>,
        VivaldiSystem,
        HashMap<HostId, usize>,
    ) {
        let net = build_internet(&TopologyConfig::tiny(221)).unwrap();
        let clustering = Clustering::derive(&net, &ClusteringConfig::default());
        let vps = VantagePoints::choose(&net, 8, 20, &mut rng_for(221, "vp"));
        let oracle = RoutingOracle::new(&net, DayState::default());
        let day = run_campaign(
            &oracle,
            &clustering,
            &vps,
            &CampaignConfig {
                traceroutes_per_agent: 12,
                ..CampaignConfig::default()
            },
        );
        let atlas = Arc::new(build_atlas(
            &net,
            &clustering,
            &day,
            &AtlasConfig::default(),
        ));

        let clients: Vec<HostId> = vps.agents.iter().take(8).copied().collect();
        let replicas: Vec<HostId> = vps.agents.iter().skip(8).take(6).copied().collect();
        let all: Vec<HostId> = clients.iter().chain(replicas.iter()).copied().collect();
        let index: HashMap<HostId, usize> = all.iter().enumerate().map(|(i, &h)| (h, i)).collect();
        let sys = VivaldiSystem::run(
            all.len(),
            &VivaldiConfig {
                rounds: 10,
                ..VivaldiConfig::default()
            },
            |i, j, rng| {
                inano_measure::ping::ping(&oracle, all[i], all[j], &ProbeNoise::default(), rng)
                    .map(|l| l.ms())
            },
        );
        (net, clients, replicas, atlas, sys, index)
    }

    #[test]
    fn all_strategies_pick_some_replica() {
        let (net, clients, replicas, atlas, sys, index) = setup();
        let oracle = RoutingOracle::new(&net, DayState::default());
        let predictor = PathPredictor::new(atlas, PredictorConfig::full());
        let exp = CdnExperiment {
            oracle: &oracle,
            predictor: &predictor,
            vivaldi: &sys,
            vivaldi_index: &index,
            file_bytes: 30_000.0,
        };
        let mut rng = rng_for(221, "pick");
        for strategy in ReplicaStrategy::all() {
            let mut picked = 0;
            for &c in &clients {
                if exp.pick(strategy, c, &replicas, &mut rng).is_some() {
                    picked += 1;
                }
            }
            assert!(
                picked >= clients.len() - 1,
                "{} picked only {picked}",
                strategy.name()
            );
        }
    }

    #[test]
    fn optimal_is_lower_bound() {
        let (net, clients, replicas, atlas, sys, index) = setup();
        let oracle = RoutingOracle::new(&net, DayState::default());
        let predictor = PathPredictor::new(atlas, PredictorConfig::full());
        let exp = CdnExperiment {
            oracle: &oracle,
            predictor: &predictor,
            vivaldi: &sys,
            vivaldi_index: &index,
            file_bytes: 1_500_000.0,
        };
        let mut rng = rng_for(222, "pick");
        for &c in &clients {
            let Some(opt) = exp.pick(ReplicaStrategy::Optimal, c, &replicas, &mut rng) else {
                continue;
            };
            let t_opt = exp.download_time(c, opt).unwrap();
            for strategy in ReplicaStrategy::all() {
                if let Some(r) = exp.pick(strategy, c, &replicas, &mut rng) {
                    if let Some(t) = exp.download_time(c, r) {
                        assert!(t_opt <= t + 1e-9, "optimal beaten by {}", strategy.name());
                    }
                }
            }
        }
    }
}
