//! Top-level assembly: world → AS graph → infrastructure → policies →
//! base loss, producing a ready [`Internet`].

use crate::as_graph::generate_as_graph;
use crate::config::TopologyConfig;
use crate::geo::generate_world;
use crate::infra;
use crate::internet::Internet;
use crate::loss::assign_base_loss;
use crate::policy::generate_policies;
use inano_model::rng::rng_for;
use inano_model::ModelError;

/// Build the complete ground-truth Internet from a configuration.
///
/// Deterministic in `cfg.seed`. Returns `ModelError::Config` on invalid
/// configurations.
pub fn build_internet(cfg: &TopologyConfig) -> Result<Internet, ModelError> {
    cfg.validate().map_err(ModelError::Config)?;

    let mut rng = rng_for(cfg.seed, "topology");
    let cities = generate_world(cfg.continents, cfg.cities_per_continent, &mut rng);
    let mut ases = generate_as_graph(cfg, &mut rng);
    let infra = infra::generate(cfg, &mut ases, &cities, &mut rng);
    let policy = generate_policies(cfg, &ases, &infra.prefixes, &mut rng);

    let mut net = Internet {
        cfg: cfg.clone(),
        ases,
        pops: infra.pops,
        links: infra.links,
        pop_adj: infra.pop_adj,
        prefixes: infra.prefixes,
        hosts: infra.hosts,
        routers: infra.routers,
        ifaces: infra.ifaces,
        iface_by_ip: infra.iface_by_ip,
        host_by_ip: infra.host_by_ip,
        policy,
    };
    assign_base_loss(&mut net);

    debug_assert_eq!(net.check_invariants(), Ok(()));
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::internet::Tier;

    #[test]
    fn tiny_internet_builds_and_validates() {
        let net = build_internet(&TopologyConfig::tiny(1)).unwrap();
        net.check_invariants().unwrap();
        assert_eq!(net.ases.len(), net.cfg.total_ases());
        assert!(!net.hosts.is_empty());
        assert!(!net.links.is_empty());
    }

    #[test]
    fn build_is_deterministic() {
        let a = build_internet(&TopologyConfig::tiny(5)).unwrap();
        let b = build_internet(&TopologyConfig::tiny(5)).unwrap();
        assert_eq!(a.pops.len(), b.pops.len());
        assert_eq!(a.links.len(), b.links.len());
        for (x, y) in a.links.iter().zip(&b.links) {
            assert_eq!(x.a, y.a);
            assert_eq!(x.b, y.b);
            assert_eq!(x.latency, y.latency);
            assert_eq!(x.loss_ab, y.loss_ab);
        }
        assert_eq!(a.policy.export_deny, b.policy.export_deny);
    }

    #[test]
    fn different_seeds_differ() {
        let a = build_internet(&TopologyConfig::tiny(1)).unwrap();
        let b = build_internet(&TopologyConfig::tiny(2)).unwrap();
        // Same sizes are possible but identical link tables are not.
        let same = a.links.len() == b.links.len()
            && a.links
                .iter()
                .zip(&b.links)
                .all(|(x, y)| x.a == y.a && x.b == y.b);
        assert!(!same, "seeds 1 and 2 generated identical internets");
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = TopologyConfig::tiny(1);
        cfg.p_lossy_link = 2.0;
        assert!(build_internet(&cfg).is_err());
    }

    #[test]
    fn default_scale_smoke() {
        // The full default config is used by the experiment harness; make
        // sure it builds in test time and has paper-like proportions.
        let cfg = TopologyConfig::scaled(0.25);
        let net = build_internet(&cfg).unwrap();
        net.check_invariants().unwrap();
        let stubs = net.ases.iter().filter(|a| a.tier == Tier::Stub).count();
        assert!(stubs * 2 > net.ases.len(), "stubs should dominate");
        assert!(net.pops.len() > net.ases.len(), "PoPs outnumber ASes");
        assert!(net.links.len() > net.pops.len() / 2);
    }
}
