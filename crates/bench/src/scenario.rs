//! Scenario construction: everything the experiments share.

use inano_atlas::Atlas;
use inano_measure::{
    build_atlas, run_campaign, AtlasConfig, CampaignConfig, Clustering, ClusteringConfig,
    MeasurementDay, VantagePoints,
};
use inano_model::rng::rng_for;
use inano_routing::RoutingOracle;
use inano_topology::{build_internet, ChurnModel, Internet, TopologyConfig};

/// Scenario knobs: topology scale plus measurement-campaign sizing.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    pub seed: u64,
    pub topo: TopologyConfig,
    pub clustering: ClusteringConfig,
    pub campaign: CampaignConfig,
    /// Infrastructure (PlanetLab-like) vantage points.
    pub n_vps: usize,
    /// End-host (DIMES-like) agents.
    pub n_agents: usize,
}

impl ScenarioConfig {
    /// Tiny scenario for unit/integration tests (runs in < 1 s).
    pub fn test(seed: u64) -> Self {
        ScenarioConfig {
            seed,
            topo: TopologyConfig::tiny(seed),
            clustering: ClusteringConfig {
                seed,
                ..ClusteringConfig::default()
            },
            campaign: CampaignConfig {
                seed,
                traceroutes_per_agent: 15,
                ..CampaignConfig::default()
            },
            n_vps: 10,
            n_agents: 12,
        }
    }

    /// The default experiment scale: a paper-shaped Internet at
    /// `TopologyConfig::scaled(0.5)`, measured by 60 VPs over about 2,087
    /// edge prefixes. That is 0.029 VPs per prefix, about 20 times the
    /// paper's 0.0014 (197 VPs over ~140K prefixes).
    pub fn experiment(seed: u64) -> Self {
        let mut topo = TopologyConfig::scaled(0.5);
        topo.seed = seed;
        ScenarioConfig {
            seed,
            topo,
            clustering: ClusteringConfig {
                seed,
                ..ClusteringConfig::default()
            },
            campaign: CampaignConfig {
                seed,
                traceroutes_per_agent: 100,
                ..CampaignConfig::default()
            },
            n_vps: 60,
            n_agents: 80,
        }
    }
}

/// A fully-built scenario: ground truth + one measured day + its atlas.
pub struct Scenario {
    pub cfg: ScenarioConfig,
    pub net: Internet,
    pub churn: ChurnModel,
    pub clustering: Clustering,
    pub vps: VantagePoints,
    pub day0: MeasurementDay,
    pub atlas: Atlas,
}

impl Scenario {
    /// Build the scenario: generate the Internet, derive the clustering,
    /// pick vantage points, run day 0's campaign and build its atlas.
    pub fn build(cfg: ScenarioConfig) -> Scenario {
        let net = build_internet(&cfg.topo).expect("valid topology config");
        let churn = ChurnModel::new(&net);
        let clustering = Clustering::derive(&net, &cfg.clustering);
        let mut rng = rng_for(cfg.seed, "scenario-vps");
        let vps = VantagePoints::choose(&net, cfg.n_vps, cfg.n_agents, &mut rng);
        let oracle = RoutingOracle::new(&net, churn.day_state(0));
        let day0 = run_campaign(&oracle, &clustering, &vps, &cfg.campaign);
        let atlas = build_atlas(&net, &clustering, &day0, &AtlasConfig::default());
        Scenario {
            cfg,
            net,
            churn,
            clustering,
            vps,
            day0,
            atlas,
        }
    }

    /// An oracle for a given day of this scenario.
    pub fn oracle(&self, day: u32) -> RoutingOracle<'_> {
        RoutingOracle::new(&self.net, self.churn.day_state(day))
    }

    /// Run the campaign and build the atlas for another day (same VPs and
    /// clustering — cluster ids stay stable across days).
    pub fn atlas_for_day(&self, day: u32) -> (MeasurementDay, Atlas) {
        let oracle = self.oracle(day);
        let md = run_campaign(&oracle, &self.clustering, &self.vps, &self.cfg.campaign);
        let atlas = build_atlas(&self.net, &self.clustering, &md, &AtlasConfig::default());
        (md, atlas)
    }

    /// Quick summary line for reports.
    pub fn summary(&self) -> String {
        format!(
            "{}; atlas: {} links / {} tuples / {} prefs / {} providers",
            self.net.summary(),
            self.atlas.links.len(),
            self.atlas.tuples.len(),
            self.atlas.prefs.len(),
            self.atlas.providers.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_atlas::codec;

    #[test]
    fn a_seed_reproduces_its_world() {
        let a = Scenario::build(ScenarioConfig::test(7));
        let b = Scenario::build(ScenarioConfig::test(7));
        assert_eq!(codec::encode(&a.atlas).0, codec::encode(&b.atlas).0);
        // The codec quantises loss and skips the GRAPH-only relationships.
        assert_eq!(a.atlas.loss, b.atlas.loss);
        assert_eq!(a.atlas.inferred_rels, b.atlas.inferred_rels);
    }
}
