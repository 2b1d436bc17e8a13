//! Traceroute simulation.
//!
//! A traceroute from host `s` to a destination prefix walks the oracle's
//! forward path hop by hop. The RTT reported for hop `k` is
//!
//! ```text
//!   fwd_latency(s .. hop_k)  +  reply_latency(hop_k → s's prefix)  + jitter
//! ```
//!
//! with the reply path routed independently by the oracle — so subtracting
//! consecutive hop RTTs does *not* in general give the link latency. This
//! is exactly the asymmetry headache the paper's link-latency techniques
//! (\[28\], §6.3.2) wrestle with, reproduced faithfully.

use inano_model::rng::DeterministicRng;
use inano_model::{HostId, Ipv4, PrefixId};
use inano_routing::RoutingOracle;
use rand::Rng;

/// One traceroute hop.
#[derive(Clone, Copy, Debug)]
pub struct Hop {
    /// Responding interface IP; `None` when the router didn't answer.
    pub ip: Option<Ipv4>,
    /// Measured RTT in ms (None when unresponsive).
    pub rtt_ms: Option<f64>,
}

/// A completed traceroute.
#[derive(Clone, Debug)]
pub struct Traceroute {
    pub src: HostId,
    pub dst_prefix: PrefixId,
    /// The probed address inside the destination prefix.
    pub dst_ip: Ipv4,
    /// Router hops, source side first. Does not include the source itself;
    /// when the destination replies, the last hop is the destination.
    pub hops: Vec<Hop>,
    /// Did the probe reach the destination?
    pub reached: bool,
}

/// Measurement-noise knobs for traceroute/ping simulation.
#[derive(Clone, Copy, Debug)]
pub struct ProbeNoise {
    /// Uniform per-response jitter bound in ms (queueing, scheduling).
    pub jitter_ms: f64,
    /// Probability any given router hop doesn't respond.
    pub p_unresponsive: f64,
}

impl Default for ProbeNoise {
    fn default() -> Self {
        ProbeNoise {
            jitter_ms: 0.5,
            p_unresponsive: 0.03,
        }
    }
}

impl ProbeNoise {
    /// No noise at all (for tests needing exact values).
    pub fn none() -> Self {
        ProbeNoise {
            jitter_ms: 0.0,
            p_unresponsive: 0.0,
        }
    }

    fn jitter(&self, rng: &mut DeterministicRng) -> f64 {
        if self.jitter_ms == 0.0 {
            0.0
        } else {
            rng.gen_range(0.0..self.jitter_ms)
        }
    }
}

/// Simulate a traceroute from `src` to (a host address inside) `dst_prefix`.
pub fn simulate_traceroute(
    oracle: &RoutingOracle<'_>,
    src: HostId,
    dst_prefix: PrefixId,
    noise: &ProbeNoise,
    rng: &mut DeterministicRng,
) -> Traceroute {
    let net = oracle.internet();
    let src_info = net.host(src);
    let dst_ip = net.prefix(dst_prefix).prefix.nth(10); // the probed host
    let mut tr = Traceroute {
        src,
        dst_prefix,
        dst_ip,
        hops: Vec::new(),
        reached: false,
    };

    let Some(path) = oracle.host_to_prefix(src, dst_prefix) else {
        return tr; // unreachable: empty, not reached
    };

    // Forward cumulative latency along the path; hop k is entered over
    // links[k] into pops[k+1].
    let mut fwd = 0.0;
    for (k, &lid) in path.links.iter().enumerate() {
        let link = net.link(lid);
        fwd += link.latency.ms();
        let hop_pop = path.pops[k + 1];
        let responds = !rng.gen_bool(noise.p_unresponsive);
        if !responds {
            tr.hops.push(Hop {
                ip: None,
                rtt_ms: None,
            });
            continue;
        }
        let iface = link.iface_at(hop_pop);
        let ip = net.ifaces[iface.index()].ip;
        let reply = oracle.reply_latency(hop_pop, src_info.prefix);
        let rtt = reply.map(|r| fwd + r.ms() + noise.jitter(rng));
        tr.hops.push(Hop {
            ip: Some(ip),
            // A hop whose reply path is broken looks unresponsive.
            rtt_ms: rtt,
        });
        if rtt.is_none() {
            tr.hops.last_mut().unwrap().ip = None;
        }
    }

    // Destination reply.
    let dst_pop = *path.pops.last().unwrap();
    if let Some(reply) = oracle.reply_latency(dst_pop, src_info.prefix) {
        tr.hops.push(Hop {
            ip: Some(dst_ip),
            rtt_ms: Some(fwd + reply.ms() + noise.jitter(rng)),
        });
        tr.reached = true;
    }
    tr
}

impl Traceroute {
    /// RTT to the destination (the last hop), if reached.
    pub fn dest_rtt_ms(&self) -> Option<f64> {
        if self.reached {
            self.hops.last().and_then(|h| h.rtt_ms)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_model::rng::rng_for;
    use inano_topology::{build_internet, DayState, TopologyConfig};

    #[test]
    fn traceroute_reaches_and_rtts_increase_noiselessly() {
        let net = build_internet(&TopologyConfig::tiny(101)).unwrap();
        let oracle = RoutingOracle::new(&net, DayState::default());
        let mut rng = rng_for(101, "tr");
        let src = HostId::new(0);
        let dst = net.hosts[25].prefix;
        let tr = simulate_traceroute(&oracle, src, dst, &ProbeNoise::none(), &mut rng);
        assert!(tr.reached, "expected to reach {dst:?}");
        assert!(tr.hops.iter().any(|h| h.ip.is_some()));
        // Hop IPs resolve to interfaces or the destination.
        for h in &tr.hops[..tr.hops.len() - 1] {
            if let Some(ip) = h.ip {
                assert!(net.iface_by_ip.contains_key(&ip), "unknown hop ip {ip}");
            }
        }
        assert_eq!(tr.hops.last().unwrap().ip, Some(tr.dst_ip));
    }

    #[test]
    fn rtt_includes_reply_path_asymmetry() {
        // With zero noise, hop RTT must equal fwd+reply computed from the
        // oracle — validating against an independent reconstruction.
        let net = build_internet(&TopologyConfig::tiny(102)).unwrap();
        let oracle = RoutingOracle::new(&net, DayState::default());
        let mut rng = rng_for(102, "tr");
        let src = HostId::new(2);
        let dst = net.hosts[40].prefix;
        let tr = simulate_traceroute(&oracle, src, dst, &ProbeNoise::none(), &mut rng);
        if !tr.reached {
            return;
        }
        let path = oracle.host_to_prefix(src, dst).unwrap();
        let mut fwd = 0.0;
        for (k, &lid) in path.links.iter().enumerate() {
            fwd += net.link(lid).latency.ms();
            let reply = oracle
                .reply_latency(path.pops[k + 1], net.host(src).prefix)
                .unwrap();
            assert!((tr.hops[k].rtt_ms.unwrap() - (fwd + reply.ms())).abs() < 1e-9);
        }
    }

    #[test]
    fn unresponsive_hops_appear_with_noise() {
        let net = build_internet(&TopologyConfig::tiny(103)).unwrap();
        let oracle = RoutingOracle::new(&net, DayState::default());
        let mut rng = rng_for(103, "tr");
        let noise = ProbeNoise {
            jitter_ms: 0.5,
            p_unresponsive: 0.5,
        };
        let mut missing = 0;
        let mut total = 0;
        for i in 0..20 {
            let src = HostId::new(i);
            let dst = net.hosts[(i as usize + 30) % net.hosts.len()].prefix;
            let tr = simulate_traceroute(&oracle, src, dst, &noise, &mut rng);
            total += tr.hops.len();
            missing += tr.hops.iter().filter(|h| h.ip.is_none()).count();
        }
        assert!(total > 0);
        assert!(missing > 0, "expected unresponsive hops at p=0.5");
    }

    #[test]
    fn deterministic_given_seed() {
        let net = build_internet(&TopologyConfig::tiny(104)).unwrap();
        let oracle = RoutingOracle::new(&net, DayState::default());
        let t1 = simulate_traceroute(
            &oracle,
            HostId::new(1),
            net.hosts[7].prefix,
            &ProbeNoise::default(),
            &mut rng_for(5, "x"),
        );
        let t2 = simulate_traceroute(
            &oracle,
            HostId::new(1),
            net.hosts[7].prefix,
            &ProbeNoise::default(),
            &mut rng_for(5, "x"),
        );
        assert_eq!(t1.hops.len(), t2.hops.len());
        for (a, b) in t1.hops.iter().zip(&t2.hops) {
            assert_eq!(a.ip, b.ip);
            assert_eq!(a.rtt_ms, b.rtt_ms);
        }
    }
}
