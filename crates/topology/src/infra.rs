//! Physical infrastructure generation: PoPs at cities, intra-AS backbones,
//! inter-AS interconnects, routers, interfaces with IP addresses, BGP
//! prefixes, and end-hosts.

use crate::config::TopologyConfig;
use crate::geo::{link_latency, City};
use crate::internet::{
    AsInfo, HostInfo, IfaceInfo, Link, LinkId, LinkKind, PopInfo, PrefixInfo, RouterInfo, Tier,
};
use inano_model::rng::DeterministicRng;
use inano_model::{HostId, IfaceId, Ipv4, LossRate, PopId, Prefix, PrefixId, RouterId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;

/// Everything `generate` produces besides the AS table it mutates.
pub struct InfraTables {
    pub pops: Vec<PopInfo>,
    pub links: Vec<Link>,
    pub pop_adj: Vec<Vec<(LinkId, PopId)>>,
    pub routers: Vec<RouterInfo>,
    pub ifaces: Vec<IfaceInfo>,
    pub prefixes: Vec<PrefixInfo>,
    pub hosts: Vec<HostInfo>,
    pub iface_by_ip: HashMap<Ipv4, IfaceId>,
    pub host_by_ip: HashMap<Ipv4, HostId>,
}

/// Generate all physical infrastructure. Fills in `pops` and `prefixes`
/// of each [`AsInfo`].
pub fn generate(
    cfg: &TopologyConfig,
    ases: &mut [AsInfo],
    cities: &[City],
    rng: &mut DeterministicRng,
) -> InfraTables {
    let mut pops: Vec<PopInfo> = Vec::new();
    let mut routers: Vec<RouterInfo> = Vec::new();

    // --- PoPs: pick cities per continent of presence, by tier ---
    let cities_of: Vec<Vec<u32>> = (0..cfg.continents)
        .map(|c| {
            cities
                .iter()
                .filter(|ct| ct.continent == c as u8)
                .map(|ct| ct.id)
                .collect()
        })
        .collect();

    for a in ases.iter_mut() {
        for &cont in &a.presence {
            let pool = &cities_of[cont as usize];
            let n = match a.tier {
                Tier::Tier1 => rng.gen_range(2..=4usize),
                Tier::Tier2 => rng.gen_range(1..=3usize),
                Tier::Tier3 => rng.gen_range(1..=3usize),
                Tier::Stub => {
                    if rng.gen_bool(0.2) {
                        2
                    } else {
                        1
                    }
                }
            }
            .min(pool.len());
            let mut chosen = pool.clone();
            chosen.shuffle(rng);
            for &city in chosen.iter().take(n) {
                let id = PopId::from_index(pops.len());
                let loc = cities[city as usize].loc;
                let rtrs: Vec<RouterId> = (0..cfg.routers_per_pop)
                    .map(|_| {
                        let rid = RouterId::from_index(routers.len());
                        routers.push(RouterInfo { id: rid, pop: id });
                        rid
                    })
                    .collect();
                pops.push(PopInfo {
                    id,
                    asn: a.asn,
                    city,
                    loc,
                    routers: rtrs,
                });
                a.pops.push(id);
            }
        }
    }

    // --- links ---
    let mut links: Vec<Link> = Vec::new();
    let mut pop_adj: Vec<Vec<(LinkId, PopId)>> = vec![Vec::new(); pops.len()];
    let dummy_iface = IfaceId::new(u32::MAX);

    let push_link = |links: &mut Vec<Link>,
                     pop_adj: &mut Vec<Vec<(LinkId, PopId)>>,
                     a: PopId,
                     b: PopId,
                     kind: LinkKind,
                     km: f64| {
        debug_assert_ne!(a, b);
        let id = LinkId(links.len() as u32);
        links.push(Link {
            id,
            a,
            b,
            kind,
            latency: link_latency(km),
            loss_ab: LossRate::ZERO,
            loss_ba: LossRate::ZERO,
            iface_a: dummy_iface,
            iface_b: dummy_iface,
        });
        pop_adj[a.index()].push((id, b));
        pop_adj[b.index()].push((id, a));
        id
    };

    // Intra-AS backbone: nearest-neighbour spanning tree plus extra chords
    // for larger ASes (redundant backbones).
    for a in ases.iter() {
        let ps = &a.pops;
        if ps.len() < 2 {
            continue;
        }
        let mut in_tree = vec![ps[0]];
        let mut rest: Vec<PopId> = ps[1..].to_vec();
        while let Some((ri, ti, km)) = rest
            .iter()
            .enumerate()
            .flat_map(|(ri, &r)| {
                in_tree
                    .iter()
                    .enumerate()
                    .map(move |(ti, &t)| (ri, ti, r, t))
            })
            .map(|(ri, ti, r, t)| (ri, ti, pops[r.index()].loc.distance_km(pops[t.index()].loc)))
            .min_by(|x, y| x.2.partial_cmp(&y.2).unwrap())
        {
            let r = rest.remove(ri);
            let t = in_tree[ti];
            push_link(&mut links, &mut pop_adj, t, r, LinkKind::Intra, km);
            in_tree.push(r);
        }
        // Extra chords: one per three PoPs beyond the tree.
        let extra = ps.len() / 3;
        for _ in 0..extra {
            let x = *ps.choose(rng).unwrap();
            let y = *ps.choose(rng).unwrap();
            if x != y && !pop_adj[x.index()].iter().any(|&(_, o)| o == y) {
                let km = pops[x.index()].loc.distance_km(pops[y.index()].loc);
                push_link(&mut links, &mut pop_adj, x, y, LinkKind::Intra, km);
            }
        }
    }

    // Inter-AS interconnects: at shared cities when possible, otherwise the
    // closest PoP pair (a private long-haul interconnect).
    for a in ases.iter() {
        for &(b, rel) in &a.neighbors {
            if b <= a.asn {
                continue; // handle each pair once, from the lower ASN
            }
            let pa = &ases[a.asn.index()].pops;
            let pb = &ases[b.index()].pops;
            let mut shared: Vec<(PopId, PopId)> = Vec::new();
            for &x in pa {
                for &y in pb {
                    if pops[x.index()].city == pops[y.index()].city {
                        shared.push((x, y));
                    }
                }
            }
            let n_links = match (a.tier, ases[b.index()].tier) {
                (Tier::Tier1, Tier::Tier1) => 3,
                (Tier::Tier1, Tier::Tier2) | (Tier::Tier2, Tier::Tier1) => 2,
                _ => {
                    if rel == inano_model::Relationship::Sibling {
                        2
                    } else {
                        1
                    }
                }
            };
            if !shared.is_empty() {
                shared.shuffle(rng);
                for &(x, y) in shared.iter().take(n_links) {
                    // Same city: metro cross-connect, a few km.
                    let km = rng.gen_range(2.0..30.0);
                    push_link(&mut links, &mut pop_adj, x, y, LinkKind::Inter, km);
                }
            } else {
                // Closest pair across the two ASes.
                let (&x, &y, km) = pa
                    .iter()
                    .flat_map(|x| pb.iter().map(move |y| (x, y)))
                    .map(|(x, y)| (x, y, pops[x.index()].loc.distance_km(pops[y.index()].loc)))
                    .min_by(|p, q| p.2.partial_cmp(&q.2).unwrap())
                    .unwrap();
                push_link(&mut links, &mut pop_adj, x, y, LinkKind::Inter, km);
            }
        }
    }

    // --- prefixes ---
    let mut alloc = IpAllocator::new();
    let mut prefixes: Vec<PrefixInfo> = Vec::new();

    // Interface count per AS decides its infrastructure prefix size.
    let mut endpoints_per_as: Vec<usize> = vec![0; ases.len()];
    for l in &links {
        endpoints_per_as[pops[l.a.index()].asn.index()] += 1;
        endpoints_per_as[pops[l.b.index()].asn.index()] += 1;
    }

    for a in ases.iter_mut() {
        // Infrastructure prefix, sized to the interface count.
        let need = (endpoints_per_as[a.asn.index()] + 2)
            .next_power_of_two()
            .max(256);
        let len = 32 - need.trailing_zeros() as u8;
        let infra = alloc.alloc(len);
        let pid = PrefixId::from_index(prefixes.len());
        prefixes.push(PrefixInfo {
            id: pid,
            prefix: infra,
            origin: a.asn,
            home_pop: a.pops[0],
            is_infrastructure: true,
        });
        a.prefixes.push(pid);

        // Edge prefixes: stubs several, transit tiers a couple (their
        // enterprise customers), tier-1 one.
        let n_edge = match a.tier {
            Tier::Stub => rng.gen_range(1..=cfg.max_stub_prefixes),
            Tier::Tier3 => rng.gen_range(1..=2),
            Tier::Tier2 => rng.gen_range(1..=2),
            Tier::Tier1 => 1,
        };
        for k in 0..n_edge {
            let p = alloc.alloc(24);
            let pid = PrefixId::from_index(prefixes.len());
            prefixes.push(PrefixInfo {
                id: pid,
                prefix: p,
                origin: a.asn,
                home_pop: a.pops[k % a.pops.len()],
                is_infrastructure: false,
            });
            a.prefixes.push(pid);
        }
    }

    // --- interfaces ---
    // Each link endpoint gets an interface on the least-loaded router of
    // its PoP, numbered out of the AS's infrastructure prefix.
    let mut ifaces: Vec<IfaceInfo> = Vec::new();
    let mut iface_by_ip: HashMap<Ipv4, IfaceId> = HashMap::new();
    let mut router_load: Vec<usize> = vec![0; routers.len()];
    let mut infra_next: Vec<u64> = vec![1; ases.len()]; // skip network address

    let infra_prefix_of: Vec<Prefix> = ases
        .iter()
        .map(|a| prefixes[a.prefixes[0].index()].prefix)
        .collect();

    for (li, link) in links.iter_mut().enumerate() {
        let (a, b) = (link.a, link.b);
        let ia = make_iface(
            a,
            LinkId(li as u32),
            &pops,
            &infra_prefix_of,
            &mut infra_next,
            &mut router_load,
            &mut ifaces,
            &mut iface_by_ip,
        );
        let ib = make_iface(
            b,
            LinkId(li as u32),
            &pops,
            &infra_prefix_of,
            &mut infra_next,
            &mut router_load,
            &mut ifaces,
            &mut iface_by_ip,
        );
        link.iface_a = ia;
        link.iface_b = ib;
    }

    // --- hosts ---
    let mut hosts: Vec<HostInfo> = Vec::new();
    let mut host_by_ip: HashMap<Ipv4, HostId> = HashMap::new();
    for p in &prefixes {
        if p.is_infrastructure {
            continue;
        }
        for i in 0..cfg.hosts_per_prefix {
            let ip = p.prefix.nth(10 + i as u64);
            let id = HostId::from_index(hosts.len());
            hosts.push(HostInfo {
                id,
                ip,
                prefix: p.id,
                asn: p.origin,
                pop: p.home_pop,
            });
            host_by_ip.insert(ip, id);
        }
    }

    InfraTables {
        pops,
        links,
        pop_adj,
        routers,
        ifaces,
        prefixes,
        hosts,
        iface_by_ip,
        host_by_ip,
    }
}

#[allow(clippy::too_many_arguments)]
fn make_iface(
    pop: PopId,
    link: LinkId,
    pops: &[PopInfo],
    infra_prefix_of: &[Prefix],
    infra_next: &mut [u64],
    router_load: &mut [usize],
    ifaces: &mut Vec<IfaceInfo>,
    iface_by_ip: &mut HashMap<Ipv4, IfaceId>,
) -> IfaceId {
    let pinfo = &pops[pop.index()];
    // Least-loaded router in the PoP.
    let router = *pinfo
        .routers
        .iter()
        .min_by_key(|r| router_load[r.index()])
        .expect("pop has routers");
    router_load[router.index()] += 1;

    let asn = pinfo.asn;
    let ip = infra_prefix_of[asn.index()].nth(infra_next[asn.index()]);
    infra_next[asn.index()] += 1;

    let id = IfaceId::from_index(ifaces.len());
    ifaces.push(IfaceInfo {
        id,
        router,
        ip,
        link,
    });
    let prev = iface_by_ip.insert(ip, id);
    debug_assert!(prev.is_none(), "duplicate interface IP {ip}");
    id
}

/// Sequential, alignment-respecting IPv4 block allocator.
struct IpAllocator {
    next: u32,
}

impl IpAllocator {
    fn new() -> Self {
        // Start at 11.0.0.0 to stay clear of 0/8 and 10/8.
        IpAllocator { next: 0x0B00_0000 }
    }

    fn alloc(&mut self, len: u8) -> Prefix {
        let size = 1u32 << (32 - len);
        // Align up.
        let aligned = (self.next + size - 1) & !(size - 1);
        self.next = aligned + size;
        Prefix::new(Ipv4(aligned), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::as_graph::generate_as_graph;
    use crate::geo::generate_world;
    use inano_model::rng::rng_for;
    use inano_model::PrefixTrie;

    fn build(seed: u64) -> (TopologyConfig, Vec<AsInfo>, InfraTables) {
        let cfg = TopologyConfig::tiny(seed);
        let mut rng = rng_for(seed, "test-infra");
        let cities = generate_world(cfg.continents, cfg.cities_per_continent, &mut rng);
        let mut ases = generate_as_graph(&cfg, &mut rng);
        let infra = generate(&cfg, &mut ases, &cities, &mut rng);
        (cfg, ases, infra)
    }

    /// Longest-prefix match over every generated prefix.
    fn trie(infra: &InfraTables) -> PrefixTrie {
        let mut trie = PrefixTrie::new();
        for p in &infra.prefixes {
            trie.insert(p.prefix, p.id);
        }
        trie
    }

    #[test]
    fn every_as_has_pops_and_prefixes() {
        let (_, ases, _) = build(11);
        for a in &ases {
            assert!(!a.pops.is_empty(), "{} has no PoPs", a.asn);
            assert!(a.prefixes.len() >= 2, "{} needs infra+edge prefix", a.asn);
        }
    }

    #[test]
    fn adjacent_ases_are_physically_linked() {
        let (_, ases, infra) = build(12);
        for a in &ases {
            for &(b, _) in &a.neighbors {
                let linked = infra.links.iter().any(|l| {
                    let (x, y) = (infra.pops[l.a.index()].asn, infra.pops[l.b.index()].asn);
                    (x == a.asn && y == b) || (x == b && y == a.asn)
                });
                assert!(linked, "{} ~ {} adjacency has no link", a.asn, b);
            }
        }
    }

    #[test]
    fn interfaces_are_assigned_and_unique() {
        let (_, _, infra) = build(13);
        for l in &infra.links {
            assert_ne!(l.iface_a.raw(), u32::MAX);
            assert_ne!(l.iface_b.raw(), u32::MAX);
            assert_ne!(l.iface_a, l.iface_b);
        }
        assert_eq!(infra.iface_by_ip.len(), infra.ifaces.len());
    }

    #[test]
    fn iface_ips_map_back_to_owner_as() {
        let (_, ases, infra) = build(14);
        let trie = trie(&infra);
        for ifc in infra.ifaces.iter().take(200) {
            let pid = trie.lookup(ifc.ip).expect("iface ip in trie");
            let owner = infra.prefixes[pid.index()].origin;
            let router_pop = infra.routers[ifc.router.index()].pop;
            assert_eq!(owner, infra.pops[router_pop.index()].asn);
            assert!(infra.prefixes[pid.index()].is_infrastructure);
            let _ = &ases; // silence unused
        }
    }

    #[test]
    fn hosts_live_in_their_prefix() {
        let (_, _, infra) = build(15);
        let trie = trie(&infra);
        for h in infra.hosts.iter().take(200) {
            let p = &infra.prefixes[h.prefix.index()];
            assert!(p.prefix.contains(h.ip));
            assert!(!p.is_infrastructure);
            assert_eq!(trie.lookup(h.ip), Some(h.prefix));
        }
    }

    #[test]
    fn intra_as_backbone_is_connected() {
        let (_, ases, infra) = build(16);
        for a in &ases {
            if a.pops.len() < 2 {
                continue;
            }
            // BFS over intra-AS links only.
            let mut seen = std::collections::HashSet::new();
            let mut queue = vec![a.pops[0]];
            seen.insert(a.pops[0]);
            while let Some(p) = queue.pop() {
                for &(lid, other) in &infra.pop_adj[p.index()] {
                    if infra.links[lid.index()].kind == LinkKind::Intra
                        && infra.pops[other.index()].asn == a.asn
                        && seen.insert(other)
                    {
                        queue.push(other);
                    }
                }
            }
            assert_eq!(seen.len(), a.pops.len(), "{} backbone disconnected", a.asn);
        }
    }

    #[test]
    fn allocator_respects_alignment() {
        let mut a = IpAllocator::new();
        let p1 = a.alloc(24);
        let p2 = a.alloc(22);
        let p3 = a.alloc(24);
        for p in [p1, p2, p3] {
            assert_eq!(p.addr().raw() & (p.size() as u32 - 1), 0, "{p} misaligned");
        }
        // No overlap.
        assert!(!p1.contains(p2.addr()));
        assert!(!p2.contains(p3.addr()));
    }
}
