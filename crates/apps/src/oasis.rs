//! An OASIS-like server-selection baseline (\[18\]): OASIS maps clients to
//! replicas primarily by geographic coordinates (inferred once, coarsely)
//! with infrequent background latency probes. We model its essential
//! behaviour: geo-closest selection on *noisy, stale* position estimates
//! — good on average, blind to routing pathologies and loss.

use inano_model::rng::DeterministicRng;
use inano_model::HostId;
use inano_topology::Internet;
use rand::Rng;

/// Pick a replica for a client: geographically closest under noisy
/// coordinates (`noise_km` of position error models OASIS's coarse
/// geolocation; the paper found it clearly worse than measured latency).
pub fn oasis_pick(
    net: &Internet,
    client: HostId,
    replicas: &[HostId],
    noise_km: f64,
    rng: &mut DeterministicRng,
) -> Option<HostId> {
    let c = net.pop(net.host(client).pop).loc;
    replicas
        .iter()
        .copied()
        .map(|r| {
            let loc = net.pop(net.host(r).pop).loc;
            let jitter = rng.gen_range(-noise_km..noise_km);
            (r, c.distance_km(loc) + jitter)
        })
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .map(|(r, _)| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_model::rng::rng_for;
    use inano_topology::{build_internet, TopologyConfig};

    #[test]
    fn picks_geographically_close_replica_without_noise() {
        let net = build_internet(&TopologyConfig::tiny(211)).unwrap();
        let mut rng = rng_for(211, "oasis");
        let client = HostId::new(0);
        let replicas: Vec<HostId> = (1..20).map(HostId::new).collect();
        let pick = oasis_pick(&net, client, &replicas, 1e-6, &mut rng).unwrap();
        let c = net.pop(net.host(client).pop).loc;
        let picked_d = c.distance_km(net.pop(net.host(pick).pop).loc);
        for &r in &replicas {
            let d = c.distance_km(net.pop(net.host(r).pop).loc);
            assert!(picked_d <= d + 1e-6);
        }
    }

    #[test]
    fn noise_changes_some_picks() {
        let net = build_internet(&TopologyConfig::tiny(212)).unwrap();
        let replicas: Vec<HostId> = (1..15).map(HostId::new).collect();
        let mut changed = 0;
        for i in 0..30 {
            let client = HostId::new(i % net.hosts.len() as u32);
            let clean = oasis_pick(&net, client, &replicas, 1e-6, &mut rng_for(1, "a")).unwrap();
            let noisy =
                oasis_pick(&net, client, &replicas, 3000.0, &mut rng_for(i as u64, "b")).unwrap();
            if clean != noisy {
                changed += 1;
            }
        }
        assert!(changed > 0, "3000km of noise must change some selections");
    }
}
