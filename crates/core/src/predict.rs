//! The query layer: (source, destination) pairs in, predicted PoP-level
//! paths with latency and loss estimates out.
//!
//! Searches are destination-rooted, so one search answers queries from
//! *every* source to that destination; results are cached per destination
//! prefix, which is exactly the access pattern of the application studies
//! (many clients evaluating one replica, one client evaluating many
//! relays, ...).

use crate::config::PredictorConfig;
use crate::graph::PredictionGraph;
use crate::search::{search, SearchResult};
use inano_atlas::Atlas;
use inano_model::{
    AsPath, Asn, ClusterId, Ipv4, LatencyMs, LossRate, ModelError, PrefixId, PrefixTrie,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A full bidirectional prediction.
#[derive(Clone, Debug)]
pub struct PredictedPath {
    pub fwd_clusters: Vec<ClusterId>,
    pub rev_clusters: Vec<ClusterId>,
    pub fwd_as_path: AsPath,
    pub rev_as_path: AsPath,
    /// Estimated round-trip time (forward + reverse composition).
    pub rtt: LatencyMs,
    /// Estimated round-trip loss rate.
    pub loss: LossRate,
}

/// Maximum cached destination searches before the cache is cleared.
const CACHE_CAP: usize = 512;

/// Where an IP address attaches to the atlas — enough to compute a
/// result-cache key without running the search itself. Produced by
/// [`PathPredictor::resolve`]; consumed by the serving layer
/// (`inano-service`), whose cache is keyed on cluster pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Resolution {
    /// The atlas prefix covering the address.
    pub prefix: PrefixId,
    /// The cluster that prefix attaches to.
    pub cluster: ClusterId,
    /// The prefix's origin AS, if the atlas records one.
    pub origin_as: Option<Asn>,
    /// The AS of the attachment cluster, if the atlas records one.
    pub cluster_as: Option<Asn>,
    /// True when the atlas carries a *per-prefix* provider refinement
    /// for this prefix (Table 2's eighth dataset): the provider
    /// constraint then depends on the prefix, not just its cluster.
    pub refined_providers: bool,
}

impl Resolution {
    /// True when a prediction toward (or from) this endpoint is a pure
    /// function of its cluster, so it may safely be served from a
    /// cluster-keyed cache. Requires both that the prefix's origin AS
    /// agrees with its cluster's AS (the origin feeds the provider
    /// check and the AS-path suffix) and that the prefix has no
    /// per-prefix provider refinement (which would make two prefixes on
    /// the same cluster search differently). Non-canonical prefixes
    /// must bypass such a cache rather than poison it.
    pub fn canonical(&self) -> bool {
        if self.refined_providers {
            return false;
        }
        match (self.origin_as, self.cluster_as) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }
}

/// The iNano path predictor.
///
/// Holds two graphs: a *strict* one using links only in their observed
/// direction, and (when [`PredictorConfig::allow_reversed_links`] is on)
/// a *relaxed* one that also traverses links backwards. Queries try the
/// strict graph first and fall back to the relaxed one — the same
/// philosophy as §4.3.1's FROM_SRC → TO_DST fallback: prefer the
/// best-evidenced route, but still answer.
pub struct PathPredictor {
    atlas: Arc<Atlas>,
    cfg: PredictorConfig,
    graph: PredictionGraph,
    /// Fallback graph with reversed links (None in GRAPH mode or when
    /// reversed links are disabled).
    relaxed: Option<PredictionGraph>,
    trie: PrefixTrie,
    cache: Mutex<HashMap<(ClusterId, PrefixId, bool), Arc<SearchResult>>>,
}

impl PathPredictor {
    /// Build a predictor over an atlas. Compiling the atlas into the
    /// graphs and their shared index is the only heavy step (linear in
    /// the atlas size).
    pub fn new(atlas: Arc<Atlas>, cfg: PredictorConfig) -> PathPredictor {
        let (graph, relaxed) = PredictionGraph::build_pair(&atlas, &cfg);
        let trie = atlas.build_trie();
        PathPredictor {
            atlas,
            cfg,
            graph,
            relaxed,
            trie,
            cache: Mutex::new(HashMap::new()),
        }
    }

    pub fn atlas(&self) -> &Atlas {
        &self.atlas
    }

    pub fn config(&self) -> &PredictorConfig {
        &self.cfg
    }

    /// Map an IP address to its atlas prefix.
    pub fn prefix_of(&self, ip: Ipv4) -> Result<PrefixId, ModelError> {
        self.trie
            .lookup(ip)
            .ok_or_else(|| ModelError::UnroutableAddress(ip.to_string()))
    }

    /// Map an IP address to the cluster it attaches to.
    pub fn cluster_of(&self, ip: Ipv4) -> Result<ClusterId, ModelError> {
        Ok(self.resolve(ip)?.cluster)
    }

    /// Resolve an IP address to its atlas attachment point (prefix,
    /// cluster, origin/cluster AS) without running a search.
    pub fn resolve(&self, ip: Ipv4) -> Result<Resolution, ModelError> {
        let prefix = self.prefix_of(ip)?;
        let cluster = *self
            .atlas
            .prefix_cluster
            .get(&prefix)
            .ok_or_else(|| ModelError::NoPath(format!("{prefix} has no known cluster")))?;
        Ok(Resolution {
            prefix,
            cluster,
            origin_as: self.atlas.prefix_as.get(&prefix).map(|&(_, asn)| asn),
            cluster_as: self.atlas.as_of_cluster(cluster),
            refined_providers: self.atlas.prefix_providers.contains_key(&prefix),
        })
    }

    /// The (cached) destination-rooted search toward a prefix, over the
    /// strict or relaxed graph.
    fn search_to(
        &self,
        dst_prefix: PrefixId,
        relaxed: bool,
    ) -> Result<Arc<SearchResult>, ModelError> {
        let graph = if relaxed {
            self.relaxed.as_ref().expect("relaxed graph exists")
        } else {
            &self.graph
        };
        let dst_cluster = *self
            .atlas
            .prefix_cluster
            .get(&dst_prefix)
            .ok_or_else(|| ModelError::NoPath(format!("{dst_prefix} has no known cluster")))?;
        let key = (dst_cluster, dst_prefix, relaxed);
        if let Some(r) = self.cache.lock().get(&key) {
            return Ok(Arc::clone(r));
        }
        let (_, dst_as) = *self
            .atlas
            .prefix_as
            .get(&dst_prefix)
            .ok_or_else(|| ModelError::NoPath(format!("{dst_prefix} has no origin AS")))?;
        let result = search(
            graph,
            &self.atlas,
            &self.cfg,
            dst_cluster,
            dst_prefix,
            dst_as,
        )
        .ok_or_else(|| ModelError::NoPath(format!("{dst_prefix}: destination not in graph")))?;
        let result = Arc::new(result);
        let mut cache = self.cache.lock();
        if cache.len() >= CACHE_CAP {
            cache.clear();
        }
        cache.insert(key, Arc::clone(&result));
        Ok(result)
    }

    /// Predict the one-way cluster-level path between two prefixes:
    /// observed-direction graph first, reversed-link fallback second.
    pub fn predict_forward(
        &self,
        src_prefix: PrefixId,
        dst_prefix: PrefixId,
    ) -> Result<Vec<ClusterId>, ModelError> {
        let src_cluster = *self
            .atlas
            .prefix_cluster
            .get(&src_prefix)
            .ok_or_else(|| ModelError::NoPath(format!("{src_prefix} has no known cluster")))?;
        let result = self.search_to(dst_prefix, false)?;
        for node in self.graph.source_nodes(src_cluster) {
            if let Some(path) = result.cluster_path(&self.graph, node) {
                return Ok(path);
            }
        }
        if let Some(relaxed) = &self.relaxed {
            let result = self.search_to(dst_prefix, true)?;
            for node in relaxed.source_nodes(src_cluster) {
                if let Some(path) = result.cluster_path(relaxed, node) {
                    return Ok(path);
                }
            }
        }
        Err(ModelError::NoPath(format!(
            "no route {src_prefix} → {dst_prefix}"
        )))
    }

    /// The AS-level view of a predicted cluster path, terminated at the
    /// destination prefix's origin AS.
    pub fn as_path_of(&self, clusters: &[ClusterId], dst_prefix: PrefixId) -> AsPath {
        let mut ases: Vec<Asn> = clusters
            .iter()
            .filter_map(|c| self.atlas.as_of_cluster(*c))
            .collect();
        if let Some(&(_, origin)) = self.atlas.prefix_as.get(&dst_prefix) {
            ases.push(origin);
        }
        AsPath::new(ases)
    }

    /// One-way latency estimate: composed link latencies (§3).
    pub fn latency_of(&self, clusters: &[ClusterId]) -> LatencyMs {
        let mut total = 0.0;
        for w in clusters.windows(2) {
            total += self.link_latency(w[0], w[1]);
        }
        LatencyMs::new(total)
    }

    fn link_latency(&self, a: ClusterId, b: ClusterId) -> f64 {
        let get = |x, y| {
            self.atlas
                .links
                .get(&(x, y))
                .and_then(|ann| ann.latency.map(|l| l.ms()))
        };
        get(a, b)
            .or_else(|| get(b, a))
            .unwrap_or(self.cfg.default_link_latency_ms)
    }

    /// One-way loss estimate: composed link loss rates.
    pub fn loss_of(&self, clusters: &[ClusterId]) -> LossRate {
        LossRate::compose_all(clusters.windows(2).map(|w| {
            self.atlas
                .loss
                .get(&(w[0], w[1]))
                .copied()
                .unwrap_or(LossRate::ZERO)
        }))
    }

    /// Full bidirectional prediction between two prefixes: forward and
    /// reverse paths predicted independently (§4.3.1), properties
    /// composed over both.
    pub fn predict(
        &self,
        src_prefix: PrefixId,
        dst_prefix: PrefixId,
    ) -> Result<PredictedPath, ModelError> {
        let fwd = self.predict_forward(src_prefix, dst_prefix)?;
        let rev = self.predict_forward(dst_prefix, src_prefix)?;
        let rtt = self.latency_of(&fwd) + self.latency_of(&rev);
        let loss = self.loss_of(&fwd).compose(self.loss_of(&rev));
        Ok(PredictedPath {
            fwd_as_path: self.as_path_of(&fwd, dst_prefix),
            rev_as_path: self.as_path_of(&rev, src_prefix),
            fwd_clusters: fwd,
            rev_clusters: rev,
            rtt,
            loss,
        })
    }

    /// Predict between two IP addresses (the library API of §5: queries
    /// are (src, dst) IP pairs).
    pub fn query(&self, src: Ipv4, dst: Ipv4) -> Result<PredictedPath, ModelError> {
        let s = self.prefix_of(src)?;
        let d = self.prefix_of(dst)?;
        self.predict(s, d)
    }

    /// Batched queries ("batches of arbitrary sizes", §5).
    pub fn query_batch(&self, pairs: &[(Ipv4, Ipv4)]) -> Vec<Result<PredictedPath, ModelError>> {
        pairs.iter().map(|&(s, d)| self.query(s, d)).collect()
    }

    /// Graph diagnostics: (nodes, edges).
    pub fn graph_size(&self) -> (usize, usize) {
        (self.graph.n_nodes(), self.graph.n_edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_atlas::{LinkAnnotation, Plane};
    use inano_model::Prefix;

    /// Tiny atlas: prefixes P10 at cluster 1 (AS1), P20 at cluster 3
    /// (AS3); chain 1→2→3 forward, 3→2→1 reverse, with loss on 2→3.
    fn toy() -> Arc<Atlas> {
        let mut a = Atlas::default();
        let cl = ClusterId::new;
        for (f, t, lat) in [(1u32, 2u32, 2.0), (2, 3, 3.0), (3, 2, 3.0), (2, 1, 2.0)] {
            a.links.insert(
                (cl(f), cl(t)),
                LinkAnnotation {
                    latency: Some(LatencyMs::new(lat)),
                    plane: Plane::TO_DST,
                },
            );
        }
        for (c, asn) in [(1u32, 1u32), (2, 2), (3, 3)] {
            a.cluster_as.insert(cl(c), Asn::new(asn));
        }
        a.loss.insert((cl(2), cl(3)), LossRate::new(0.1));
        a.prefix_cluster.insert(PrefixId::new(10), cl(1));
        a.prefix_cluster.insert(PrefixId::new(20), cl(3));
        a.prefix_as.insert(
            PrefixId::new(10),
            (Prefix::new(Ipv4::from_octets(10, 0, 0, 0), 24), Asn::new(1)),
        );
        a.prefix_as.insert(
            PrefixId::new(20),
            (Prefix::new(Ipv4::from_octets(20, 0, 0, 0), 24), Asn::new(3)),
        );
        Arc::new(a)
    }

    fn predictor() -> PathPredictor {
        let mut cfg = PredictorConfig::with_tuples();
        cfg.use_tuples = false;
        cfg.use_from_src = false;
        PathPredictor::new(toy(), cfg)
    }

    #[test]
    fn predicts_path_latency_and_loss() {
        let p = predictor();
        let r = p.predict(PrefixId::new(10), PrefixId::new(20)).unwrap();
        assert_eq!(
            r.fwd_clusters,
            vec![ClusterId::new(1), ClusterId::new(2), ClusterId::new(3)]
        );
        assert_eq!(r.rev_clusters.len(), 3);
        // RTT: fwd 2+3 plus rev 3+2 = 10ms.
        assert!((r.rtt.ms() - 10.0).abs() < 1e-9);
        // Loss: only 2→3 lossy at 10%.
        assert!((r.loss.rate() - 0.1).abs() < 1e-9);
        assert_eq!(r.fwd_as_path.as_slice().len(), 3);
    }

    #[test]
    fn query_by_ip_uses_trie() {
        let p = predictor();
        let r = p
            .query(
                Ipv4::from_octets(10, 0, 0, 5),
                Ipv4::from_octets(20, 0, 0, 9),
            )
            .unwrap();
        assert_eq!(r.fwd_clusters.len(), 3);
        let err = p.query(
            Ipv4::from_octets(99, 0, 0, 1),
            Ipv4::from_octets(20, 0, 0, 9),
        );
        assert!(matches!(err, Err(ModelError::UnroutableAddress(_))));
    }

    #[test]
    fn resolution_reports_attachment_and_canonicality() {
        let p = predictor();
        let r = p.resolve(Ipv4::from_octets(10, 0, 0, 1)).unwrap();
        assert_eq!(r.prefix, PrefixId::new(10));
        assert_eq!(r.cluster, ClusterId::new(1));
        assert_eq!(r.origin_as, Some(Asn::new(1)));
        assert_eq!(r.cluster_as, Some(Asn::new(1)));
        assert!(!r.refined_providers);
        assert!(r.canonical());
        assert_eq!(
            p.cluster_of(Ipv4::from_octets(20, 0, 0, 9)).unwrap(),
            ClusterId::new(3)
        );
    }

    #[test]
    fn refined_provider_prefixes_are_not_canonical() {
        // A per-prefix provider refinement makes the search depend on
        // the prefix, not just its cluster — cluster-keyed caches must
        // not serve it.
        let mut atlas = (*toy()).clone();
        atlas
            .prefix_providers
            .insert(PrefixId::new(10), [Asn::new(2)].into_iter().collect());
        let mut cfg = PredictorConfig::with_tuples();
        cfg.use_tuples = false;
        cfg.use_from_src = false;
        let p = PathPredictor::new(Arc::new(atlas), cfg);
        let r = p.resolve(Ipv4::from_octets(10, 0, 0, 1)).unwrap();
        assert!(r.refined_providers);
        assert!(!r.canonical());
        // The sibling prefix without a refinement stays canonical.
        assert!(p
            .resolve(Ipv4::from_octets(20, 0, 0, 1))
            .unwrap()
            .canonical());
    }

    #[test]
    fn cache_hits_are_consistent() {
        let p = predictor();
        let a = p.predict(PrefixId::new(10), PrefixId::new(20)).unwrap();
        let b = p.predict(PrefixId::new(10), PrefixId::new(20)).unwrap();
        assert_eq!(a.fwd_clusters, b.fwd_clusters);
        assert!((a.rtt.ms() - b.rtt.ms()).abs() < 1e-12);
    }

    #[test]
    fn unknown_prefix_is_no_path() {
        let p = predictor();
        let r = p.predict(PrefixId::new(10), PrefixId::new(99));
        assert!(matches!(r, Err(ModelError::NoPath(_))));
    }

    #[test]
    fn missing_latency_uses_default() {
        let mut atlas = (*toy()).clone();
        // Clear both directions: the predictor falls back to the reverse
        // direction's latency before resorting to the default.
        atlas
            .links
            .get_mut(&(ClusterId::new(1), ClusterId::new(2)))
            .unwrap()
            .latency = None;
        atlas
            .links
            .get_mut(&(ClusterId::new(2), ClusterId::new(1)))
            .unwrap()
            .latency = None;
        let mut cfg = PredictorConfig::with_tuples();
        cfg.use_tuples = false;
        cfg.use_from_src = false;
        cfg.default_link_latency_ms = 7.0;
        let p = PathPredictor::new(Arc::new(atlas), cfg);
        let fwd = p
            .predict_forward(PrefixId::new(10), PrefixId::new(20))
            .unwrap();
        // 7 (default) + 3.
        assert!((p.latency_of(&fwd).ms() - 10.0).abs() < 1e-9);
    }
}
