//! The compiled atlas index: everything the search asks the atlas, laid
//! out so that asking is an array read or a binary search over a short
//! sorted row.
//!
//! Built once per predictor and shared by its strict and relaxed graphs.
//! ASes and clusters get dense ids; the policy datasets (degrees,
//! 3-tuples, preferences) are re-keyed by those ids. An entry naming an
//! AS that owns no graph node is dropped at build time: the search only
//! ever asks about ASes it reached through a node.

use crate::config::PredictorConfig;
use crate::reach::Sccs;
use inano_atlas::Atlas;
use inano_model::{Asn, ClusterId};
use std::collections::HashMap;

/// "No AS" in a dense-AS slot (a path that ends before leaving its AS, or
/// an AS that owns no graph node).
pub(crate) const NO_AS: u32 = u32::MAX;

/// Node space plus policy tables for one `(atlas, config)` pair.
pub(crate) struct AtlasIndex {
    pub(crate) n_planes: usize,
    pub(crate) n_sides: usize,
    /// Dense index per cluster, in first-appearance order over the link
    /// set (node ids break search ties, so this order is part of every
    /// answer).
    pub(crate) cluster_idx: HashMap<ClusterId, u32>,
    pub(crate) clusters: Vec<ClusterId>,
    pub(crate) cluster_as: Vec<Asn>,
    /// Every AS owning a cluster, sorted; the position is the dense id.
    ases: Vec<Asn>,
    /// Dense AS per node.
    pub(crate) node_as: Vec<u32>,
    /// Per dense AS: degree at most `tuple_min_degree` (§4.3.2's
    /// exemption from the 3-tuple check).
    pub(crate) low_degree: Vec<bool>,
    /// 3-tuples as CSR rows keyed by the middle AS; a row holds the
    /// sorted packed `(min, max)` outer pairs.
    triple_off: Vec<u32>,
    triples: Vec<u64>,
    /// Preferences as CSR rows keyed by the preferring AS; a row holds
    /// the sorted packed `(preferred, over)` pairs.
    pref_off: Vec<u32>,
    prefs: Vec<u64>,
    /// Per dense cluster: some observed-direction edge goes from one of its
    /// nodes to a node of another cluster. One of the two entries that
    /// need the edges: `PredictionGraph::build_pair` fills them once they
    /// are emitted.
    pub(crate) strict_exit: Vec<bool>,
    /// The strict graph's components and condensation (`reach.rs`).
    pub(crate) strict_sccs: Sccs,
}

fn pack(hi: u32, lo: u32) -> u64 {
    u64::from(hi) << 32 | u64::from(lo)
}

fn dense_in(ases: &[Asn], a: Asn) -> Option<u32> {
    ases.binary_search(&a).ok().map(|i| i as u32)
}

/// Group `(row, item)` pairs into CSR form — `items[off[r]..off[r + 1]]`
/// is row `r` — keeping each row's items in the order given.
pub(crate) fn csr<T: Copy + Default>(
    n_rows: usize,
    pairs: impl Iterator<Item = (u32, T)> + Clone,
) -> (Vec<u32>, Vec<T>) {
    let mut off = vec![0u32; n_rows + 1];
    for (row, _) in pairs.clone() {
        off[row as usize + 1] += 1;
    }
    for row in 0..n_rows {
        off[row + 1] += off[row];
    }
    let mut cursor = off.clone();
    let mut items = vec![T::default(); off[n_rows] as usize];
    for (row, item) in pairs {
        items[cursor[row as usize] as usize] = item;
        cursor[row as usize] += 1;
    }
    (off, items)
}

impl AtlasIndex {
    pub(crate) fn build(atlas: &Atlas, cfg: &PredictorConfig) -> AtlasIndex {
        // Dense-index every cluster that appears in the link set.
        let mut cluster_idx: HashMap<ClusterId, u32> = HashMap::new();
        let mut clusters: Vec<ClusterId> = Vec::new();
        let mut intern = |c: ClusterId| {
            cluster_idx.entry(c).or_insert_with(|| {
                clusters.push(c);
                (clusters.len() - 1) as u32
            });
        };
        for &(a, b) in atlas.links.keys() {
            intern(a);
            intern(b);
        }
        // Clusters referenced only by prefix attachments still need nodes.
        for &c in atlas.prefix_cluster.values() {
            intern(c);
        }
        let cluster_as: Vec<Asn> = clusters
            .iter()
            .map(|&c| atlas.as_of_cluster(c).unwrap_or_default())
            .collect();

        let mut ases = cluster_as.clone();
        ases.sort_unstable();
        ases.dedup();
        let dense = |a: Asn| dense_in(&ases, a);

        let (n_planes, n_sides) = (cfg.n_planes(), cfg.n_sides());
        let per_cluster = n_planes * n_sides;
        let mut node_as = Vec::with_capacity(clusters.len() * per_cluster);
        for &a in &cluster_as {
            let d = dense(a).expect("every cluster AS was interned");
            node_as.extend(std::iter::repeat_n(d, per_cluster));
        }

        let low_degree = ases
            .iter()
            .map(|&a| atlas.degree(a) <= cfg.tuple_min_degree)
            .collect();

        // Both sets iterate in `(a, b, c)` order and dense ids preserve
        // AS order, so every row fills already sorted: canonical tuples
        // have `a <= c`, and within one middle AS their `(a, c)` ascend.
        // A non-canonical tuple (`a > c`) can never equal a canonicalised
        // probe: skipped.
        let by_middle: Vec<(u32, u64)> = (atlas.tuples.iter())
            .filter(|t| t.0 <= t.2)
            .filter_map(|t| Some((dense(t.1)?, pack(dense(t.0)?, dense(t.2)?))))
            .collect();
        let (triple_off, triples) = csr(ases.len(), by_middle.into_iter());
        let by_preferrer: Vec<(u32, u64)> = (atlas.prefs.iter())
            .filter_map(|&(a, b, c)| Some((dense(a)?, pack(dense(b)?, dense(c)?))))
            .collect();
        let (pref_off, prefs) = csr(ases.len(), by_preferrer.into_iter());

        // Both lookups binary-search their row.
        let sorted = |off: &[u32], rows: &[u64]| {
            (off.windows(2)).all(|r| rows[r[0] as usize..r[1] as usize].is_sorted())
        };
        debug_assert!(sorted(&triple_off, &triples) && sorted(&pref_off, &prefs));

        AtlasIndex {
            n_planes,
            n_sides,
            cluster_idx,
            clusters,
            cluster_as,
            ases,
            node_as,
            low_degree,
            triple_off,
            triples,
            pref_off,
            prefs,
            strict_exit: Vec::new(),
            strict_sccs: Sccs::default(),
        }
    }

    /// Dense id of an AS; `None` when it owns no graph node.
    pub(crate) fn dense_as(&self, a: Asn) -> Option<u32> {
        dense_in(&self.ases, a)
    }

    /// Flatten (cluster, plane, side) to a node id.
    pub(crate) fn node(&self, cluster_dense: u32, plane: usize, side: usize) -> u32 {
        ((cluster_dense as usize * self.n_planes + plane) * self.n_sides + side) as u32
    }

    /// Dense cluster index of a node.
    pub(crate) fn cluster_of(&self, node: u32) -> usize {
        node as usize / (self.n_planes * self.n_sides)
    }

    /// Was the AS triple `(a, b, c)` observed, in either direction?
    pub(crate) fn has_triple(&self, a: u32, b: u32, c: u32) -> bool {
        let row = &self.triples
            [self.triple_off[b as usize] as usize..self.triple_off[b as usize + 1] as usize];
        row.binary_search(&pack(a.min(c), a.max(c))).is_ok()
    }

    /// Does AS `a` prefer next-hop `b` over `c`?
    pub(crate) fn prefers(&self, a: u32, b: u32, c: u32) -> bool {
        let row =
            &self.prefs[self.pref_off[a as usize] as usize..self.pref_off[a as usize + 1] as usize];
        row.binary_search(&pack(b, c)).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_atlas::{LinkAnnotation, Plane, Triple};

    /// Clusters 1..=4, cluster `c` in AS `10 * c`; AS 99 owns no cluster.
    fn atlas() -> Atlas {
        let mut a = Atlas::default();
        for c in 1..=3u32 {
            a.links.insert(
                (ClusterId::new(c), ClusterId::new(c + 1)),
                LinkAnnotation {
                    latency: None,
                    plane: Plane::TO_DST,
                },
            );
        }
        for c in 1..=4u32 {
            a.cluster_as.insert(ClusterId::new(c), Asn::new(10 * c));
        }
        a
    }

    fn dense(idx: &AtlasIndex, asn: u32) -> u32 {
        idx.dense_as(Asn::new(asn)).unwrap()
    }

    #[test]
    fn triple_lookup_is_symmetric_in_its_outer_pair() {
        let mut a = atlas();
        a.tuples
            .insert(Triple::canonical(Asn::new(30), Asn::new(20), Asn::new(10)));
        let idx = AtlasIndex::build(&a, &PredictorConfig::full());
        let (d10, d20, d30) = (dense(&idx, 10), dense(&idx, 20), dense(&idx, 30));
        assert!(idx.has_triple(d10, d20, d30));
        assert!(idx.has_triple(d30, d20, d10));
        // The middle AS is not interchangeable with an outer one.
        assert!(!idx.has_triple(d10, d30, d20));
        assert!(!idx.has_triple(d20, d10, d30));
    }

    #[test]
    fn non_canonical_triple_is_never_matched() {
        // `Atlas::has_triple` canonicalises the probe, so a raw
        // descending entry is dead weight there too.
        let mut a = atlas();
        a.tuples
            .insert(Triple(Asn::new(30), Asn::new(20), Asn::new(10)));
        assert!(!a.has_triple(Asn::new(10), Asn::new(20), Asn::new(30)));
        let idx = AtlasIndex::build(&a, &PredictorConfig::full());
        assert!(!idx.has_triple(dense(&idx, 10), dense(&idx, 20), dense(&idx, 30)));
    }

    #[test]
    fn entries_naming_a_node_less_as_are_ignored() {
        let mut a = atlas();
        a.tuples
            .insert(Triple::canonical(Asn::new(10), Asn::new(20), Asn::new(99)));
        a.tuples
            .insert(Triple::canonical(Asn::new(10), Asn::new(99), Asn::new(30)));
        a.tuples
            .insert(Triple::canonical(Asn::new(10), Asn::new(20), Asn::new(40)));
        a.prefs.insert((Asn::new(10), Asn::new(99), Asn::new(20)));
        a.prefs.insert((Asn::new(99), Asn::new(10), Asn::new(20)));
        a.prefs.insert((Asn::new(10), Asn::new(30), Asn::new(20)));
        let idx = AtlasIndex::build(&a, &PredictorConfig::full());
        assert_eq!(idx.dense_as(Asn::new(99)), None);
        assert_eq!(idx.triples.len(), 1);
        assert_eq!(idx.prefs.len(), 1);
        assert!(idx.has_triple(dense(&idx, 40), dense(&idx, 20), dense(&idx, 10)));
        assert!(idx.prefers(dense(&idx, 10), dense(&idx, 30), dense(&idx, 20)));
        // Preferences are directional.
        assert!(!idx.prefers(dense(&idx, 10), dense(&idx, 20), dense(&idx, 30)));
    }

    #[test]
    fn low_degree_follows_the_configured_threshold() {
        let mut a = atlas();
        a.as_degree.insert(Asn::new(10), 5);
        a.as_degree.insert(Asn::new(20), 6);
        let idx = AtlasIndex::build(&a, &PredictorConfig::full());
        assert!(idx.low_degree[dense(&idx, 10) as usize]);
        assert!(!idx.low_degree[dense(&idx, 20) as usize]);
        // Unobserved degree counts as 0.
        assert!(idx.low_degree[dense(&idx, 30) as usize]);
    }

    #[test]
    fn node_as_is_flat_over_planes_and_sides() {
        let idx = AtlasIndex::build(&atlas(), &PredictorConfig::graph_asym());
        assert_eq!(idx.node_as.len(), 4 * 2 * 2);
        for (c, chunk) in idx.node_as.chunks(4).enumerate() {
            let want = idx.dense_as(idx.cluster_as[c]).unwrap();
            assert!(chunk.iter().all(|&d| d == want));
        }
    }
}
