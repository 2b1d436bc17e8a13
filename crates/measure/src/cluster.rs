//! Alias resolution and PoP clustering.
//!
//! iNano clusters router interfaces such that interfaces in the same PoP
//! of an AS fall in one cluster (§3), using alias resolution, DNS-derived
//! locations and reverse-path-length similarity. We simulate the *outcome*
//! of that pipeline: interfaces are grouped by their true router and PoP,
//! with two configurable error modes observed in real clustering —
//! failed alias resolution (an interface ends up in a singleton cluster)
//! and PoP splits (one router's interfaces separate from its PoP).
//!
//! Cluster ids are stable across days: cluster `k < n_pops` is PoP `k`'s
//! primary cluster, and error clusters get ids `>= n_pops`. This stability
//! is what makes daily atlas deltas small.

use inano_model::rng::rng_for;
use inano_model::{Asn, ClusterId, IfaceId, Ipv4, PopId};
use inano_topology::Internet;
use rand::Rng;

/// Error knobs for the clustering pipeline.
#[derive(Clone, Debug)]
pub struct ClusteringConfig {
    /// Probability an interface's alias resolution fails, leaving it in a
    /// singleton cluster.
    pub p_alias_failure: f64,
    /// Probability a PoP is split: one of its routers becomes a separate
    /// cluster.
    pub p_pop_split: f64,
    pub seed: u64,
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        ClusteringConfig {
            p_alias_failure: 0.02,
            p_pop_split: 0.02,
            seed: 1,
        }
    }
}

impl ClusteringConfig {
    /// Perfect clustering (for ablations isolating clustering error).
    pub fn perfect(seed: u64) -> Self {
        ClusteringConfig {
            p_alias_failure: 0.0,
            p_pop_split: 0.0,
            seed,
        }
    }
}

/// The derived interface → cluster mapping.
#[derive(Clone, Debug)]
pub struct Clustering {
    /// Cluster of each interface, indexed by `IfaceId`.
    pub iface_cluster: Vec<ClusterId>,
    /// Owning AS of each cluster, indexed by `ClusterId`.
    pub cluster_as: Vec<Asn>,
    /// The PoP each cluster lives in (error clusters point at their true
    /// PoP too — they are spurious subdivisions, not mislocations).
    pub cluster_pop: Vec<PopId>,
    /// Number of PoPs (= number of primary clusters).
    pub n_pops: usize,
}

impl Clustering {
    /// Derive a clustering for an Internet.
    pub fn derive(net: &Internet, cfg: &ClusteringConfig) -> Clustering {
        let mut rng = rng_for(cfg.seed, "clustering");
        let n_pops = net.pops.len();
        let mut cluster_as: Vec<Asn> = net.pops.iter().map(|p| p.asn).collect();
        let mut cluster_pop: Vec<PopId> = net.pops.iter().map(|p| p.id).collect();

        // Split PoPs: victim router of a split PoP maps to a fresh cluster.
        let mut router_cluster: Vec<Option<ClusterId>> = vec![None; net.routers.len()];
        for pop in &net.pops {
            if pop.routers.len() >= 2 && rng.gen_bool(cfg.p_pop_split) {
                let victim = pop.routers[rng.gen_range(0..pop.routers.len())];
                let cid = ClusterId::from_index(cluster_as.len());
                cluster_as.push(pop.asn);
                cluster_pop.push(pop.id);
                router_cluster[victim.index()] = Some(cid);
            }
        }

        let mut iface_cluster: Vec<ClusterId> = Vec::with_capacity(net.ifaces.len());
        for ifc in &net.ifaces {
            let pop = net.routers[ifc.router.index()].pop;
            let cid = if rng.gen_bool(cfg.p_alias_failure) {
                // Alias failure: singleton cluster.
                let cid = ClusterId::from_index(cluster_as.len());
                cluster_as.push(net.pops[pop.index()].asn);
                cluster_pop.push(pop);
                cid
            } else if let Some(split) = router_cluster[ifc.router.index()] {
                split
            } else {
                ClusterId::new(pop.raw())
            };
            iface_cluster.push(cid);
        }

        Clustering {
            iface_cluster,
            cluster_as,
            cluster_pop,
            n_pops,
        }
    }

    pub fn n_clusters(&self) -> usize {
        self.cluster_as.len()
    }

    /// The primary cluster of a PoP (where its prefixes attach).
    pub fn cluster_of_pop(&self, pop: PopId) -> ClusterId {
        ClusterId::new(pop.raw())
    }

    /// Cluster of an interface.
    pub fn cluster_of_iface(&self, iface: IfaceId) -> ClusterId {
        self.iface_cluster[iface.index()]
    }

    /// Cluster owning an IP, if it is a known router interface.
    pub fn cluster_of_ip(&self, net: &Internet, ip: Ipv4) -> Option<ClusterId> {
        net.iface_by_ip
            .get(&ip)
            .map(|&ifc| self.cluster_of_iface(ifc))
    }

    /// Map a ground-truth PoP path to the cluster-level view used by both
    /// the atlas and the evaluation.
    pub fn pops_to_clusters(&self, pops: &[PopId]) -> Vec<ClusterId> {
        let mut out: Vec<ClusterId> = pops.iter().map(|&p| self.cluster_of_pop(p)).collect();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_topology::{build_internet, TopologyConfig};

    fn net(seed: u64) -> Internet {
        build_internet(&TopologyConfig::tiny(seed)).unwrap()
    }

    #[test]
    fn perfect_clustering_equals_pops() {
        let n = net(91);
        let c = Clustering::derive(&n, &ClusteringConfig::perfect(1));
        assert_eq!(c.n_clusters(), n.pops.len());
        for ifc in &n.ifaces {
            let pop = n.routers[ifc.router.index()].pop;
            assert_eq!(c.cluster_of_iface(ifc.id), ClusterId::new(pop.raw()));
        }
    }

    #[test]
    fn erroneous_clustering_only_adds_clusters() {
        let n = net(92);
        let c = Clustering::derive(&n, &ClusteringConfig::default());
        assert!(c.n_clusters() >= n.pops.len());
        // Every cluster still belongs to the right AS.
        for (i, ifc) in n.ifaces.iter().enumerate() {
            let cid = c.iface_cluster[i];
            let pop = n.routers[ifc.router.index()].pop;
            assert_eq!(c.cluster_as[cid.index()], n.pops[pop.index()].asn);
            assert_eq!(c.cluster_pop[cid.index()], pop);
        }
    }

    #[test]
    fn derivation_is_deterministic() {
        let n = net(93);
        let a = Clustering::derive(&n, &ClusteringConfig::default());
        let b = Clustering::derive(&n, &ClusteringConfig::default());
        assert_eq!(a.iface_cluster, b.iface_cluster);
    }

    #[test]
    fn ip_lookup_roundtrip() {
        let n = net(94);
        let c = Clustering::derive(&n, &ClusteringConfig::perfect(2));
        let ifc = &n.ifaces[5];
        assert_eq!(
            c.cluster_of_ip(&n, ifc.ip),
            Some(c.cluster_of_iface(ifc.id))
        );
        // A host IP is not a router interface.
        assert_eq!(c.cluster_of_ip(&n, n.hosts[0].ip), None);
    }

    #[test]
    fn pops_to_clusters_dedups() {
        let n = net(95);
        let c = Clustering::derive(&n, &ClusteringConfig::perfect(3));
        let p0 = n.pops[0].id;
        let p1 = n.pops[1].id;
        let v = c.pops_to_clusters(&[p0, p0, p1]);
        assert_eq!(v.len(), 2);
    }
}
