//! Vantage point selection: a PlanetLab-like set of infrastructure
//! vantage points (hosts in distinct, well-connected edge ASes —
//! universities and labs), and a DIMES-like population of volunteer
//! end-host agents used to study atlas growth (§6.1.2) and to fill the
//! `FROM_SRC` plane.

use inano_model::rng::DeterministicRng;
use inano_model::{Asn, HostId};
use inano_topology::Internet;
use rand::seq::SliceRandom;
use std::collections::HashSet;

/// The measurement host population.
#[derive(Clone, Debug, Default)]
pub struct VantagePoints {
    /// PlanetLab-like infrastructure vantage points, in distinct ASes.
    pub infra: Vec<HostId>,
    /// DIMES-like end-host agents.
    pub agents: Vec<HostId>,
}

impl VantagePoints {
    /// Choose `n_infra` infrastructure VPs (one per AS, spread across the
    /// topology) and `n_agents` end-host agents from the remaining hosts.
    pub fn choose(
        net: &Internet,
        n_infra: usize,
        n_agents: usize,
        rng: &mut DeterministicRng,
    ) -> VantagePoints {
        let mut hosts: Vec<HostId> = net.hosts.iter().map(|h| h.id).collect();
        hosts.shuffle(rng);

        let mut used_as: HashSet<Asn> = HashSet::new();
        let mut infra = Vec::with_capacity(n_infra.min(hosts.len()));
        for &h in &hosts {
            if infra.len() >= n_infra {
                break;
            }
            let asn = net.host(h).asn;
            if used_as.insert(asn) {
                infra.push(h);
            }
        }

        let infra_set: HashSet<HostId> = infra.iter().copied().collect();
        let agents: Vec<HostId> = hosts
            .iter()
            .copied()
            .filter(|h| !infra_set.contains(h))
            .take(n_agents)
            .collect();

        VantagePoints { infra, agents }
    }

    /// Every measurement host.
    pub fn all(&self) -> impl Iterator<Item = HostId> + '_ {
        self.infra.iter().chain(self.agents.iter()).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_model::rng::rng_for;
    use inano_topology::{build_internet, TopologyConfig};

    #[test]
    fn infra_vps_in_distinct_ases() {
        let net = build_internet(&TopologyConfig::tiny(131)).unwrap();
        let mut rng = rng_for(131, "vp");
        let vps = VantagePoints::choose(&net, 20, 30, &mut rng);
        assert_eq!(vps.infra.len(), 20);
        let ases: HashSet<Asn> = vps.infra.iter().map(|&h| net.host(h).asn).collect();
        assert_eq!(ases.len(), 20);
    }

    #[test]
    fn agents_disjoint_from_infra() {
        let net = build_internet(&TopologyConfig::tiny(132)).unwrap();
        let mut rng = rng_for(132, "vp");
        let vps = VantagePoints::choose(&net, 10, 40, &mut rng);
        let infra: HashSet<HostId> = vps.infra.iter().copied().collect();
        assert!(vps.agents.iter().all(|a| !infra.contains(a)));
        assert_eq!(vps.agents.len(), 40);
    }

    #[test]
    fn selection_is_deterministic() {
        let net = build_internet(&TopologyConfig::tiny(133)).unwrap();
        let a = VantagePoints::choose(&net, 10, 10, &mut rng_for(1, "vp"));
        let b = VantagePoints::choose(&net, 10, 10, &mut rng_for(1, "vp"));
        assert_eq!(a.infra, b.infra);
        assert_eq!(a.agents, b.agents);
    }

    #[test]
    fn caps_at_available_hosts() {
        let net = build_internet(&TopologyConfig::tiny(134)).unwrap();
        let mut rng = rng_for(134, "vp");
        let vps = VantagePoints::choose(&net, usize::MAX, usize::MAX, &mut rng);
        assert!(vps.infra.len() <= net.hosts.len());
        assert_eq!(vps.infra.len() + vps.agents.len(), net.hosts.len());
    }
}
