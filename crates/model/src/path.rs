//! AS-level and cluster(PoP)-level path types, and the path-similarity
//! metric from the paper's stationarity study (Figure 4).

use crate::ids::{Asn, ClusterId};
use std::collections::HashSet;
use std::fmt;

/// An AS-level path, source first. Consecutive duplicates (AS prepending)
/// are collapsed on construction, matching the paper's "discounting
/// prepending".
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct AsPath(Vec<Asn>);

impl AsPath {
    /// Build from a hop sequence, collapsing consecutive duplicates.
    pub fn new<I: IntoIterator<Item = Asn>>(hops: I) -> Self {
        let mut v: Vec<Asn> = Vec::new();
        for h in hops {
            if v.last() != Some(&h) {
                v.push(h);
            }
        }
        AsPath(v)
    }

    pub fn as_slice(&self) -> &[Asn] {
        &self.0
    }

    /// Number of ASes on the path.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn first(&self) -> Option<Asn> {
        self.0.first().copied()
    }

    pub fn last(&self) -> Option<Asn> {
        self.0.last().copied()
    }

    /// Does the path visit the same AS twice (an AS-level loop)? Validation
    /// traceroutes with loops are discarded in §6.3.
    pub fn has_loop(&self) -> bool {
        let mut seen = HashSet::with_capacity(self.0.len());
        self.0.iter().any(|a| !seen.insert(*a))
    }

    /// All consecutive AS triples on the path, for the 3-tuple dataset.
    pub fn triples(&self) -> impl Iterator<Item = (Asn, Asn, Asn)> + '_ {
        self.0.windows(3).map(|w| (w[0], w[1], w[2]))
    }

    pub fn iter(&self) -> impl Iterator<Item = Asn> + '_ {
        self.0.iter().copied()
    }
}

impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, a) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", a.raw())?;
        }
        write!(f, "]")
    }
}

impl FromIterator<Asn> for AsPath {
    fn from_iter<I: IntoIterator<Item = Asn>>(iter: I) -> Self {
        AsPath::new(iter)
    }
}

/// A cluster (PoP)-level path, source first.
#[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
pub struct ClusterPath(pub Vec<ClusterId>);

impl ClusterPath {
    pub fn new(hops: Vec<ClusterId>) -> Self {
        ClusterPath(hops)
    }

    pub fn as_slice(&self) -> &[ClusterId] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The directed cluster-level links traversed.
    pub fn links(&self) -> impl Iterator<Item = (ClusterId, ClusterId)> + '_ {
        self.0.windows(2).map(|w| (w[0], w[1]))
    }

    /// The set of distinct clusters visited.
    pub fn cluster_set(&self) -> HashSet<ClusterId> {
        self.0.iter().copied().collect()
    }
}

/// The path-similarity metric of Figure 4 ([22, 29]): the ratio of the size
/// of the intersection to the size of the union of the *sets* of clusters on
/// each path; ordering is ignored. Two identical paths score 1.0, disjoint
/// paths 0.0. Two empty paths are defined as identical (1.0).
pub fn path_similarity(a: &ClusterPath, b: &ClusterPath) -> f64 {
    let sa = a.cluster_set();
    let sb = b.cluster_set();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asp(v: &[u32]) -> AsPath {
        AsPath::new(v.iter().map(|&x| Asn::new(x)))
    }

    fn cp(v: &[u32]) -> ClusterPath {
        ClusterPath::new(v.iter().map(|&x| ClusterId::new(x)).collect())
    }

    #[test]
    fn as_path_collapses_prepending() {
        let p = asp(&[1, 1, 2, 2, 2, 3]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.as_slice(), &[Asn::new(1), Asn::new(2), Asn::new(3)]);
    }

    #[test]
    fn as_path_loop_detection() {
        assert!(!asp(&[1, 2, 3]).has_loop());
        assert!(asp(&[1, 2, 1]).has_loop());
        // Prepending is not a loop.
        assert!(!asp(&[1, 1, 2]).has_loop());
    }

    #[test]
    fn as_path_triples() {
        let p = asp(&[1, 2, 3, 4]);
        let t: Vec<_> = p.triples().collect();
        assert_eq!(
            t,
            vec![
                (Asn::new(1), Asn::new(2), Asn::new(3)),
                (Asn::new(2), Asn::new(3), Asn::new(4)),
            ]
        );
        assert_eq!(asp(&[1, 2]).triples().count(), 0);
    }

    #[test]
    fn similarity_identical_is_one() {
        let p = cp(&[1, 2, 3]);
        assert_eq!(path_similarity(&p, &p), 1.0);
        // Ordering does not matter.
        assert_eq!(path_similarity(&cp(&[3, 2, 1]), &p), 1.0);
    }

    #[test]
    fn similarity_disjoint_is_zero() {
        assert_eq!(path_similarity(&cp(&[1, 2]), &cp(&[3, 4])), 0.0);
    }

    #[test]
    fn similarity_partial() {
        // {1,2,3} vs {2,3,4}: intersection 2, union 4.
        let s = path_similarity(&cp(&[1, 2, 3]), &cp(&[2, 3, 4]));
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn similarity_empty_paths() {
        assert_eq!(path_similarity(&cp(&[]), &cp(&[])), 1.0);
        assert_eq!(path_similarity(&cp(&[]), &cp(&[1])), 0.0);
    }

    #[test]
    fn cluster_path_links() {
        let p = cp(&[5, 6, 7]);
        let links: Vec<_> = p.links().collect();
        assert_eq!(
            links,
            vec![
                (ClusterId::new(5), ClusterId::new(6)),
                (ClusterId::new(6), ClusterId::new(7)),
            ]
        );
    }
}
