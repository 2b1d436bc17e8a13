//! The `Internet` struct: the complete generated ground-truth topology,
//! with dense tables for every entity and the accessors the routing oracle
//! and measurement pipeline need.

use crate::config::TopologyConfig;
use crate::geo::GeoPoint;
use crate::policy::PolicySet;
use inano_model::{
    Asn, HostId, IfaceId, Ipv4, LatencyMs, LossRate, PopId, Prefix, PrefixId, Relationship,
    RouterId,
};
use std::collections::HashMap;
use std::fmt;

/// AS tier in the generated hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    Tier1,
    Tier2,
    Tier3,
    Stub,
}

/// A directed link identifier into [`Internet::links`]. Links are stored
/// once (undirected); direction is expressed at use sites.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link{}", self.0)
    }
}

/// Intra-AS backbone link or inter-AS interconnect.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkKind {
    Intra,
    Inter,
}

/// One AS and everything it owns.
#[derive(Clone, Debug)]
pub struct AsInfo {
    pub asn: Asn,
    pub tier: Tier,
    /// Continents where this AS has PoPs.
    pub presence: Vec<u8>,
    pub pops: Vec<PopId>,
    /// Adjacent ASes with the relationship *from this AS's point of view*
    /// (`Customer` means the neighbor is our customer).
    pub neighbors: Vec<(Asn, Relationship)>,
    /// Prefixes originated by this AS (first is the infrastructure prefix).
    pub prefixes: Vec<PrefixId>,
}

impl AsInfo {
    /// Relationship to a specific neighbor, if adjacent.
    pub fn rel_to(&self, other: Asn) -> Option<Relationship> {
        self.neighbors
            .iter()
            .find(|(a, _)| *a == other)
            .map(|(_, r)| *r)
    }

    /// This AS's degree in the AS-level graph.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// The providers of this AS (ground truth).
    pub fn providers(&self) -> impl Iterator<Item = Asn> + '_ {
        self.neighbors
            .iter()
            .filter(|(_, r)| *r == Relationship::Provider)
            .map(|(a, _)| *a)
    }
}

/// A Point-of-Presence: routers of one AS in one city.
#[derive(Clone, Debug)]
pub struct PopInfo {
    pub id: PopId,
    pub asn: Asn,
    pub city: u32,
    pub loc: GeoPoint,
    pub routers: Vec<RouterId>,
}

/// An undirected physical link between two PoPs. Loss may differ per
/// direction; latency is symmetric (propagation).
#[derive(Clone, Debug)]
pub struct Link {
    pub id: LinkId,
    pub a: PopId,
    pub b: PopId,
    pub kind: LinkKind,
    pub latency: LatencyMs,
    /// Base loss in the a→b direction.
    pub loss_ab: LossRate,
    /// Base loss in the b→a direction.
    pub loss_ba: LossRate,
    /// Interface at `a` facing `b` (the hop IP reported when entering `a`
    /// from `b`).
    pub iface_a: IfaceId,
    /// Interface at `b` facing `a`.
    pub iface_b: IfaceId,
}

impl Link {
    /// The other endpoint, given one endpoint.
    pub fn other(&self, p: PopId) -> PopId {
        if p == self.a {
            self.b
        } else {
            debug_assert_eq!(p, self.b);
            self.a
        }
    }

    /// Loss in the `from → to` direction.
    pub fn loss_from(&self, from: PopId) -> LossRate {
        if from == self.a {
            self.loss_ab
        } else {
            self.loss_ba
        }
    }

    /// Ingress interface when entering PoP `to` over this link.
    pub fn iface_at(&self, to: PopId) -> IfaceId {
        if to == self.a {
            self.iface_a
        } else {
            self.iface_b
        }
    }
}

/// A BGP prefix with its origin and attachment point.
#[derive(Clone, Debug)]
pub struct PrefixInfo {
    pub id: PrefixId,
    pub prefix: Prefix,
    pub origin: Asn,
    /// The PoP this prefix hangs off.
    pub home_pop: PopId,
    /// Infrastructure prefixes number router interfaces; edge prefixes
    /// contain end-hosts and are what iNano predicts paths *to*.
    pub is_infrastructure: bool,
}

/// An end-host inside an edge prefix.
#[derive(Clone, Debug)]
pub struct HostInfo {
    pub id: HostId,
    pub ip: Ipv4,
    pub prefix: PrefixId,
    pub asn: Asn,
    pub pop: PopId,
}

/// A router inside a PoP.
#[derive(Clone, Debug)]
pub struct RouterInfo {
    pub id: RouterId,
    pub pop: PopId,
}

/// A router interface with its IP address.
#[derive(Clone, Debug)]
pub struct IfaceInfo {
    pub id: IfaceId,
    pub router: RouterId,
    pub ip: Ipv4,
    pub link: LinkId,
}

/// The fully generated ground-truth Internet.
#[derive(Clone, Debug)]
pub struct Internet {
    pub cfg: TopologyConfig,
    pub ases: Vec<AsInfo>,
    pub pops: Vec<PopInfo>,
    pub links: Vec<Link>,
    /// Adjacency: for each PoP, (link, neighbor PoP).
    pub pop_adj: Vec<Vec<(LinkId, PopId)>>,
    pub prefixes: Vec<PrefixInfo>,
    pub hosts: Vec<HostInfo>,
    pub routers: Vec<RouterInfo>,
    pub ifaces: Vec<IfaceInfo>,
    pub iface_by_ip: HashMap<Ipv4, IfaceId>,
    pub host_by_ip: HashMap<Ipv4, HostId>,
    pub policy: PolicySet,
}

impl Internet {
    pub fn as_info(&self, a: Asn) -> &AsInfo {
        &self.ases[a.index()]
    }

    pub fn pop(&self, p: PopId) -> &PopInfo {
        &self.pops[p.index()]
    }

    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.index()]
    }

    pub fn prefix(&self, p: PrefixId) -> &PrefixInfo {
        &self.prefixes[p.index()]
    }

    pub fn host(&self, h: HostId) -> &HostInfo {
        &self.hosts[h.index()]
    }

    /// The AS owning a PoP.
    pub fn pop_as(&self, p: PopId) -> Asn {
        self.pops[p.index()].asn
    }

    /// All edge (non-infrastructure) prefixes.
    pub fn edge_prefixes(&self) -> impl Iterator<Item = &PrefixInfo> {
        self.prefixes.iter().filter(|p| !p.is_infrastructure)
    }

    /// All inter-AS links.
    pub fn inter_as_links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter().filter(|l| l.kind == LinkKind::Inter)
    }

    /// Count of ASes / PoPs / links — handy summary for reports.
    pub fn summary(&self) -> String {
        format!(
            "{} ASes, {} PoPs, {} links ({} inter-AS), {} prefixes, {} hosts, {} ifaces",
            self.ases.len(),
            self.pops.len(),
            self.links.len(),
            self.links
                .iter()
                .filter(|l| l.kind == LinkKind::Inter)
                .count(),
            self.prefixes.len(),
            self.hosts.len(),
            self.ifaces.len(),
        )
    }

    /// Verify structural invariants; used by tests and debug builds.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, a) in self.ases.iter().enumerate() {
            if a.asn.index() != i {
                return Err(format!("AS table out of order at {i}"));
            }
            for &(n, r) in &a.neighbors {
                let back = self.ases[n.index()]
                    .rel_to(a.asn)
                    .ok_or_else(|| format!("{} -> {} not symmetric", a.asn, n))?;
                if back != r.reverse() {
                    return Err(format!("{} -> {} relationship mismatch", a.asn, n));
                }
            }
        }
        for l in &self.links {
            let (pa, pb) = (self.pop(l.a), self.pop(l.b));
            match l.kind {
                LinkKind::Intra if pa.asn != pb.asn => {
                    return Err(format!("{:?} intra but crosses ASes", l.id));
                }
                LinkKind::Inter if pa.asn == pb.asn => {
                    return Err(format!("{:?} inter but within one AS", l.id));
                }
                _ => {}
            }
        }
        for (p, adj) in self.pop_adj.iter().enumerate() {
            for &(lid, other) in adj {
                let l = self.link(lid);
                let here = PopId::from_index(p);
                if l.other(here) != other {
                    return Err(format!("adjacency of pop{p} inconsistent"));
                }
            }
        }
        Ok(())
    }
}
