//! VoIP relay selection (§7.2, Figure 10): NATed endpoints relay calls
//! through a third host; "picking the right relay is vital". iNano's
//! policy: take the 10 candidates with the lowest predicted end-to-end
//! loss, then the one with the lowest predicted latency among them.

use inano_core::PathPredictor;
use inano_measure::ping::ping_median;
use inano_measure::traceroute::ProbeNoise;
use inano_model::metrics::mean_opinion_score;
use inano_model::rng::DeterministicRng;
use inano_model::{HostId, LatencyMs, LossRate};
use inano_routing::RoutingOracle;
use rand::seq::SliceRandom;

/// The relay-selection strategies of Figure 10.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RelayStrategy {
    /// iNano: min predicted loss (top 10), then min predicted latency.
    INano,
    /// Relay with the lowest measured RTT to the source.
    ClosestToSrc,
    /// Relay with the lowest measured RTT to the destination.
    ClosestToDst,
    /// Random relay.
    Random,
}

impl RelayStrategy {
    pub fn all() -> [RelayStrategy; 4] {
        [
            RelayStrategy::INano,
            RelayStrategy::ClosestToSrc,
            RelayStrategy::ClosestToDst,
            RelayStrategy::Random,
        ]
    }

    pub fn name(&self) -> &'static str {
        match self {
            RelayStrategy::INano => "iNano",
            RelayStrategy::ClosestToSrc => "closest-to-src",
            RelayStrategy::ClosestToDst => "closest-to-dst",
            RelayStrategy::Random => "random",
        }
    }
}

/// The measured outcome of one relayed call.
#[derive(Clone, Debug)]
pub struct VoipCall {
    pub src: HostId,
    pub dst: HostId,
    pub relay: HostId,
    /// Ground-truth one-way loss of the relayed stream (src→relay→dst).
    pub loss: LossRate,
    /// Ground-truth RTT over the relay.
    pub rtt: LatencyMs,
    /// Mean opinion score of the call.
    pub mos: f64,
}

/// Ground-truth quality of a relayed call.
pub fn call_quality(
    oracle: &RoutingOracle<'_>,
    src: HostId,
    relay: HostId,
    dst: HostId,
) -> Option<VoipCall> {
    let net = oracle.internet();
    let leg1 = oracle.host_to_prefix(src, net.host(relay).prefix)?;
    let leg2 = oracle.host_to_prefix(relay, net.host(dst).prefix)?;
    let loss = leg1.loss.compose(leg2.loss);
    let rtt = oracle.rtt(src, relay)? + oracle.rtt(relay, dst)?;
    Some(VoipCall {
        src,
        dst,
        relay,
        loss,
        rtt,
        mos: mean_opinion_score(rtt, loss),
    })
}

/// Select a relay under a strategy.
pub fn pick_relay(
    strategy: RelayStrategy,
    oracle: &RoutingOracle<'_>,
    predictor: &PathPredictor,
    src: HostId,
    dst: HostId,
    candidates: &[HostId],
    rng: &mut DeterministicRng,
) -> Option<HostId> {
    let net = oracle.internet();
    match strategy {
        RelayStrategy::INano => {
            let sp = net.host(src).prefix;
            let dp = net.host(dst).prefix;
            let mut scored: Vec<(HostId, f64, f64)> = candidates
                .iter()
                .copied()
                .filter_map(|r| {
                    let rp = net.host(r).prefix;
                    let leg1 = predictor.predict(sp, rp).ok()?;
                    let leg2 = predictor.predict(rp, dp).ok()?;
                    let loss = leg1.loss.compose(leg2.loss);
                    let rtt = leg1.rtt + leg2.rtt;
                    Some((r, loss.rate(), rtt.ms()))
                })
                .collect();
            // Lowest predicted loss first; keep ten, then lowest latency.
            scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            scored.truncate(10);
            scored
                .into_iter()
                .min_by(|a, b| a.2.partial_cmp(&b.2).unwrap())
                .map(|(r, _, _)| r)
        }
        RelayStrategy::ClosestToSrc => closest_to(oracle, src, candidates, rng),
        RelayStrategy::ClosestToDst => closest_to(oracle, dst, candidates, rng),
        RelayStrategy::Random => candidates.choose(rng).copied(),
    }
}

fn closest_to(
    oracle: &RoutingOracle<'_>,
    anchor: HostId,
    candidates: &[HostId],
    rng: &mut DeterministicRng,
) -> Option<HostId> {
    candidates
        .iter()
        .copied()
        .filter_map(|r| {
            ping_median(oracle, anchor, r, 3, &ProbeNoise::default(), rng).map(|l| (r, l.ms()))
        })
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .map(|(r, _)| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_core::PredictorConfig;
    use inano_measure::{
        build_atlas, run_campaign, AtlasConfig, CampaignConfig, Clustering, ClusteringConfig,
        VantagePoints,
    };
    use inano_model::rng::rng_for;
    use inano_topology::{build_internet, DayState, TopologyConfig};
    use std::sync::Arc;

    #[test]
    fn relay_selection_end_to_end() {
        let net = build_internet(&TopologyConfig::tiny(231)).unwrap();
        let clustering = Clustering::derive(&net, &ClusteringConfig::default());
        let vps = VantagePoints::choose(&net, 8, 25, &mut rng_for(231, "vp"));
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
        let predictor = PathPredictor::new(atlas, PredictorConfig::full());

        let hosts = &vps.agents;
        let (src, dst) = (hosts[0], hosts[1]);
        let candidates: Vec<HostId> = hosts[2..14].to_vec();
        let mut rng = rng_for(231, "relay");
        for strategy in RelayStrategy::all() {
            let r = pick_relay(
                strategy,
                &oracle,
                &predictor,
                src,
                dst,
                &candidates,
                &mut rng,
            );
            let relay = r.unwrap_or_else(|| panic!("{} found no relay", strategy.name()));
            let call = call_quality(&oracle, src, relay, dst).expect("relayed call works");
            assert!(call.rtt.ms() > 0.0);
            assert!(call.mos > 0.5 && call.mos < 5.0);
        }
    }

    #[test]
    fn mos_orders_with_quality() {
        // A lossless short call must out-MOS a lossy long one.
        let good = mean_opinion_score(LatencyMs::new(60.0), LossRate::ZERO);
        let bad = mean_opinion_score(LatencyMs::new(500.0), LossRate::new(0.15));
        assert!(good > bad + 0.5);
    }
}
