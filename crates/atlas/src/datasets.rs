//! The atlas datasets and their in-memory representation.

use inano_model::{
    Asn, ClusterId, LatencyMs, LossRate, Prefix, PrefixId, PrefixTrie, Relationship,
};
use std::collections::{BTreeMap, BTreeSet};

/// Which measurement plane(s) a link was observed in (§4.3.1): `TO_DST`
/// holds links from the infrastructure vantage points' traceroutes,
/// `FROM_SRC` links contributed by end-hosts. Both may apply.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Plane {
    pub to_dst: bool,
    pub from_src: bool,
}

impl Plane {
    pub const TO_DST: Plane = Plane {
        to_dst: true,
        from_src: false,
    };
    pub const FROM_SRC: Plane = Plane {
        to_dst: false,
        from_src: true,
    };

    #[must_use]
    pub fn union(self, other: Plane) -> Plane {
        Plane {
            to_dst: self.to_dst || other.to_dst,
            from_src: self.from_src || other.from_src,
        }
    }

    pub fn bits(self) -> u8 {
        u8::from(self.to_dst) | (u8::from(self.from_src) << 1)
    }

    pub fn from_bits(b: u8) -> Plane {
        Plane {
            to_dst: b & 1 != 0,
            from_src: b & 2 != 0,
        }
    }
}

/// Annotation of one directed inter-cluster link.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkAnnotation {
    /// Inferred one-way latency; `None` when never measured symmetrically.
    pub latency: Option<LatencyMs>,
    pub plane: Plane,
}

/// An AS triple as observed in routes (canonicalised: forward and reverse
/// are the same entry, per the paper's commutativity assumption).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Triple(pub Asn, pub Asn, pub Asn);

impl Triple {
    /// Canonical form: the lexicographically smaller of (a,b,c)/(c,b,a).
    pub fn canonical(a: Asn, b: Asn, c: Asn) -> Triple {
        if (a, c) <= (c, a) {
            Triple(a, b, c)
        } else {
            Triple(c, b, a)
        }
    }
}

/// The complete compact atlas.
#[derive(Clone, Debug, Default)]
pub struct Atlas {
    /// Day this atlas was built on.
    pub day: u32,
    /// Directed inter-cluster links with annotations (dataset 1).
    pub links: BTreeMap<(ClusterId, ClusterId), LinkAnnotation>,
    /// Measured loss of lossy links (dataset 2).
    pub loss: BTreeMap<(ClusterId, ClusterId), LossRate>,
    /// Prefix → attachment cluster (dataset 3).
    pub prefix_cluster: BTreeMap<PrefixId, ClusterId>,
    /// Prefix → origin AS, with the CIDR needed for IP lookup (dataset 4).
    pub prefix_as: BTreeMap<PrefixId, (Prefix, Asn)>,
    /// Observed AS degree (dataset 5).
    pub as_degree: BTreeMap<Asn, u32>,
    /// Observed AS 3-tuples, canonicalised (dataset 6).
    pub tuples: BTreeSet<Triple>,
    /// AS preferences: (a, b, c) means "a prefers next-hop b over c"
    /// (dataset 7). Directional, unlike tuples.
    pub prefs: BTreeSet<(Asn, Asn, Asn)>,
    /// Providers of each AS as destination (dataset 8a).
    pub providers: BTreeMap<Asn, BTreeSet<Asn>>,
    /// Per-prefix provider refinement (dataset 8b).
    pub prefix_providers: BTreeMap<PrefixId, BTreeSet<Asn>>,
    /// Owning AS per cluster (carried with the links dataset; clusters are
    /// meaningless without their AS).
    pub cluster_as: BTreeMap<ClusterId, Asn>,
    /// Gao-inferred AS relationships — auxiliary dataset used only by the
    /// `GRAPH` baseline; not shipped in the iNano atlas (and therefore not
    /// encoded by the codec or counted in Table 2). The final iNano
    /// predictor replaces this with 3-tuples + preferences (§4.3.2-4.3.3).
    pub inferred_rels: BTreeMap<(Asn, Asn), Relationship>,
}

impl Atlas {
    /// A longest-prefix-match trie from each prefix of dataset 4 to its
    /// id: the longest-match oracle tests hold `PathPredictor`'s address
    /// resolution to. Builds the whole trie on every call.
    pub fn build_trie(&self) -> PrefixTrie {
        let mut t = PrefixTrie::new();
        for (&pid, &(pfx, _)) in &self.prefix_as {
            t.insert(pfx, pid);
        }
        t
    }

    /// The AS owning a cluster (if the cluster appears in the atlas).
    pub fn as_of_cluster(&self, c: ClusterId) -> Option<Asn> {
        self.cluster_as.get(&c).copied()
    }

    /// Degree of an AS, 0 when unobserved.
    pub fn degree(&self, a: Asn) -> u32 {
        self.as_degree.get(&a).copied().unwrap_or(0)
    }

    /// Is the (canonicalised) triple present?
    pub fn has_triple(&self, a: Asn, b: Asn, c: Asn) -> bool {
        self.tuples.contains(&Triple::canonical(a, b, c))
    }

    /// Does `a` prefer next-hop `b` over `c`?
    pub fn prefers(&self, a: Asn, b: Asn, c: Asn) -> bool {
        self.prefs.contains(&(a, b, c))
    }

    /// Provider set to use for a destination prefix: per-prefix when
    /// known, else per-AS, else `None` (no constraint).
    pub fn providers_for(&self, prefix: PrefixId, origin: Asn) -> Option<&BTreeSet<Asn>> {
        self.prefix_providers
            .get(&prefix)
            .or_else(|| self.providers.get(&origin))
    }

    /// Merge additional FROM_SRC links measured locally by a client
    /// (§5, "Client-side Measurements").
    pub fn add_from_src_links<I>(&mut self, links: I)
    where
        I: IntoIterator<Item = ((ClusterId, ClusterId), Option<LatencyMs>)>,
    {
        for ((from, to), latency) in links {
            let e = self.links.entry((from, to)).or_default();
            e.plane = e.plane.union(Plane::FROM_SRC);
            if e.latency.is_none() {
                e.latency = latency;
            }
        }
    }

    /// Total number of entries across all datasets (sanity metric).
    pub fn total_entries(&self) -> usize {
        self.links.len()
            + self.loss.len()
            + self.prefix_cluster.len()
            + self.prefix_as.len()
            + self.as_degree.len()
            + self.tuples.len()
            + self.prefs.len()
            + self.providers.len()
            + self.prefix_providers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_model::Ipv4;

    #[test]
    fn plane_union_and_bits() {
        let both = Plane::TO_DST.union(Plane::FROM_SRC);
        assert!(both.to_dst && both.from_src);
        assert_eq!(Plane::from_bits(both.bits()), both);
        assert_eq!(Plane::from_bits(Plane::TO_DST.bits()), Plane::TO_DST);
    }

    #[test]
    fn triple_canonicalisation() {
        let t1 = Triple::canonical(Asn::new(3), Asn::new(2), Asn::new(1));
        let t2 = Triple::canonical(Asn::new(1), Asn::new(2), Asn::new(3));
        assert_eq!(t1, t2);
        // Middle stays the middle.
        assert_eq!(t1.1, Asn::new(2));
    }

    #[test]
    fn has_triple_checks_both_directions() {
        let mut a = Atlas::default();
        a.tuples
            .insert(Triple::canonical(Asn::new(5), Asn::new(6), Asn::new(7)));
        assert!(a.has_triple(Asn::new(5), Asn::new(6), Asn::new(7)));
        assert!(a.has_triple(Asn::new(7), Asn::new(6), Asn::new(5)));
        assert!(!a.has_triple(Asn::new(5), Asn::new(7), Asn::new(6)));
    }

    #[test]
    fn providers_for_prefers_prefix_granularity() {
        let mut a = Atlas::default();
        let origin = Asn::new(9);
        a.providers
            .insert(origin, [Asn::new(1)].into_iter().collect());
        a.prefix_providers
            .insert(PrefixId::new(4), [Asn::new(2)].into_iter().collect());
        assert!(a
            .providers_for(PrefixId::new(4), origin)
            .unwrap()
            .contains(&Asn::new(2)));
        assert!(a
            .providers_for(PrefixId::new(5), origin)
            .unwrap()
            .contains(&Asn::new(1)));
        assert!(a.providers_for(PrefixId::new(5), Asn::new(8)).is_none());
    }

    #[test]
    fn from_src_augmentation_unions_planes() {
        let mut a = Atlas::default();
        let key = (ClusterId::new(1), ClusterId::new(2));
        a.links.insert(
            key,
            LinkAnnotation {
                latency: Some(LatencyMs::new(3.0)),
                plane: Plane::TO_DST,
            },
        );
        a.add_from_src_links([
            (key, None),
            (
                (ClusterId::new(2), ClusterId::new(3)),
                Some(LatencyMs::new(1.0)),
            ),
        ]);
        assert!(a.links[&key].plane.to_dst && a.links[&key].plane.from_src);
        assert_eq!(a.links[&key].latency, Some(LatencyMs::new(3.0)));
        let new = a.links[&(ClusterId::new(2), ClusterId::new(3))];
        assert!(new.plane.from_src && !new.plane.to_dst);
    }

    #[test]
    fn trie_built_from_prefix_as() {
        let mut a = Atlas::default();
        let p = Prefix::new(Ipv4::from_octets(10, 0, 0, 0), 8);
        a.prefix_as.insert(PrefixId::new(3), (p, Asn::new(7)));
        let trie = a.build_trie();
        assert_eq!(
            trie.lookup(Ipv4::from_octets(10, 1, 2, 3)),
            Some(PrefixId::new(3))
        );
    }
}
