//! iPlane's path-composition predictor (\[30\], §3 of the iNano paper):
//! "To predict the path from a source to a destination, the path
//! composition technique composes two path segments that intersect with
//! each other. The first segment is from a path out from the source...
//! The second segment is from a path measured from one of iPlane's
//! vantage points to the destination's prefix."

use crate::path_atlas::{PathAtlas, StoredPath};
use inano_atlas::Atlas;
use inano_model::{AsPath, ClusterId, LatencyMs, LossRate, ModelError, PrefixId};
use std::collections::HashMap;

/// A composed prediction.
#[derive(Clone, Debug)]
pub struct ComposedPath {
    pub clusters: Vec<ClusterId>,
    /// One-way latency estimate from RTT subtraction on the two segments.
    pub latency: LatencyMs,
    /// Index of the intersection on the source path (diagnostics).
    pub splice_at: usize,
}

/// The iPlane-style composer. Holds the path atlas plus the link atlas
/// (for loss annotations and AS mapping — iPlane has the same link-level
/// measurements available).
pub struct PathComposer<'a> {
    pub paths: &'a PathAtlas,
    pub atlas: &'a Atlas,
}

impl<'a> PathComposer<'a> {
    pub fn new(paths: &'a PathAtlas, atlas: &'a Atlas) -> Self {
        PathComposer { paths, atlas }
    }

    /// Predict the one-way path from `src_cluster` (with `src_prefix`'s
    /// own measured paths forming the out-segments) to `dst_prefix`.
    pub fn predict_forward(
        &self,
        src_cluster: ClusterId,
        dst_prefix: PrefixId,
    ) -> Result<ComposedPath, ModelError> {
        let candidates = self.candidate_compositions(src_cluster, dst_prefix);
        candidates
            .into_iter()
            .min_by(|a, b| {
                (a.splice_at, a.latency.ms())
                    .partial_cmp(&(b.splice_at, b.latency.ms()))
                    .unwrap()
            })
            .ok_or_else(|| {
                ModelError::NoPath(format!(
                    "no intersecting segments {src_cluster} → {dst_prefix}"
                ))
            })
    }

    /// All valid compositions of a source segment with a destination
    /// segment (shared by the improved composer, which filters them).
    pub fn candidate_compositions(
        &self,
        src_cluster: ClusterId,
        dst_prefix: PrefixId,
    ) -> Vec<ComposedPath> {
        let mut out = Vec::new();
        // Direct hit: a measured path from this very cluster to the
        // destination prefix dominates any composition.
        for p2 in self.paths.to_prefix(dst_prefix) {
            if p2.src_cluster == src_cluster {
                out.push(ComposedPath {
                    clusters: p2.clusters.clone(),
                    latency: LatencyMs::new(p2.dest_rtt.unwrap_or(0.0) / 2.0),
                    splice_at: 0,
                });
            }
        }

        for p2 in self.paths.to_prefix(dst_prefix) {
            // Positions of each cluster on p2.
            let pos: HashMap<ClusterId, usize> = p2
                .clusters
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, i))
                .collect();
            for p1 in self.paths.from_cluster(src_cluster) {
                // Earliest intersection of p1 with p2.
                for (i, c) in p1.clusters.iter().enumerate() {
                    if let Some(&j) = pos.get(c) {
                        if let Some(cp) = compose(p1, i, p2, j) {
                            out.push(cp);
                        }
                        break;
                    }
                }
            }
        }
        out
    }

    /// AS-level view of a composed path.
    pub fn as_path_of(&self, clusters: &[ClusterId], dst_prefix: PrefixId) -> AsPath {
        let mut ases: Vec<_> = clusters
            .iter()
            .filter_map(|c| self.atlas.as_of_cluster(*c))
            .collect();
        if let Some(&(_, origin)) = self.atlas.prefix_as.get(&dst_prefix) {
            ases.push(origin);
        }
        AsPath::new(ases)
    }

    /// Loss estimate along a composed path (same link-loss dataset iNano
    /// composes; iPlane has the equivalent measurements).
    pub fn loss_of(&self, clusters: &[ClusterId]) -> LossRate {
        LossRate::compose_all(clusters.windows(2).map(|w| {
            self.atlas
                .loss
                .get(&(w[0], w[1]))
                .copied()
                .unwrap_or(LossRate::ZERO)
        }))
    }

    /// Bidirectional RTT estimate: forward + reverse composition.
    pub fn predict_rtt(
        &self,
        src_cluster: ClusterId,
        src_prefix: PrefixId,
        dst_cluster: ClusterId,
        dst_prefix: PrefixId,
    ) -> Result<LatencyMs, ModelError> {
        let fwd = self.predict_forward(src_cluster, dst_prefix)?;
        let rev = self.predict_forward(dst_cluster, src_prefix)?;
        Ok(fwd.latency + rev.latency)
    }
}

/// Splice `p1[..=i]` with `p2[j..]`, estimating the one-way latency by
/// RTT subtraction: half of `RTT(p1, i)` for the head plus half of
/// `RTT(p2, dst) − RTT(p2, j)` for the tail (§6.3.2: "our latency
/// estimates for path segments are obtained by just subtracting RTTs
/// measured in traceroutes" — with all the asymmetry error that implies).
fn compose(p1: &StoredPath, i: usize, p2: &StoredPath, j: usize) -> Option<ComposedPath> {
    let mut clusters = p1.clusters[..=i].to_vec();
    clusters.extend_from_slice(&p2.clusters[j + 1..]);

    let head_rtt = if i == 0 { Some(0.0) } else { p1.rtts[i] };
    let head = head_rtt? / 2.0;
    let tail_end = p2.dest_rtt?;
    let tail_start = if j == 0 { 0.0 } else { p2.rtts[j]? };
    let tail = ((tail_end - tail_start) / 2.0).max(0.0);
    Some(ComposedPath {
        clusters,
        latency: LatencyMs::new(head + tail),
        splice_at: i,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_model::{Asn, HostId};

    fn sp(src_cluster: u32, dst: u32, clusters: &[u32], rtts: &[f64]) -> StoredPath {
        StoredPath {
            src: HostId::new(0),
            src_cluster: ClusterId::new(src_cluster),
            dst_prefix: PrefixId::new(dst),
            clusters: clusters.iter().map(|&c| ClusterId::new(c)).collect(),
            rtts: std::iter::once(None)
                .chain(rtts.iter().map(|&r| Some(r)))
                .collect(),
            dest_rtt: rtts.last().map(|&r| r + 2.0),
        }
    }

    fn atlas_with_ases(n: u32) -> Atlas {
        let mut a = Atlas::default();
        for c in 0..=n {
            a.cluster_as.insert(ClusterId::new(c), Asn::new(c));
        }
        a
    }

    fn pa(paths: Vec<StoredPath>) -> PathAtlas {
        let mut atlas = PathAtlas::default();
        for p in paths {
            let idx = atlas.paths.len();
            atlas.by_dst.entry(p.dst_prefix).or_default().push(idx);
            atlas
                .by_src_cluster
                .entry(p.src_cluster)
                .or_default()
                .push(idx);
            atlas.paths.push(p);
        }
        atlas
    }

    #[test]
    fn composes_intersecting_segments() {
        // p1: 1→2→3 (out of source cluster 1), p2: 9→2→5 (to prefix 77).
        // Intersection at cluster 2: predicted 1→2→5.
        let paths = pa(vec![
            sp(1, 50, &[1, 2, 3], &[10.0, 20.0]),
            sp(9, 77, &[9, 2, 5], &[8.0, 30.0]),
        ]);
        let atlas = atlas_with_ases(10);
        let comp = PathComposer::new(&paths, &atlas);
        let r = comp
            .predict_forward(ClusterId::new(1), PrefixId::new(77))
            .unwrap();
        let got: Vec<u32> = r.clusters.iter().map(|c| c.raw()).collect();
        assert_eq!(got, vec![1, 2, 5]);
        // Latency: head 10/2 + tail (32 - 8)/2 = 5 + 12 = 17.
        assert!((r.latency.ms() - 17.0).abs() < 1e-9);
    }

    #[test]
    fn direct_measurement_wins() {
        let paths = pa(vec![
            sp(1, 77, &[1, 4, 5], &[6.0, 12.0]),
            sp(9, 77, &[9, 4, 5], &[8.0, 30.0]),
            sp(1, 50, &[1, 4, 8], &[6.0, 40.0]),
        ]);
        let atlas = atlas_with_ases(10);
        let comp = PathComposer::new(&paths, &atlas);
        let r = comp
            .predict_forward(ClusterId::new(1), PrefixId::new(77))
            .unwrap();
        let got: Vec<u32> = r.clusters.iter().map(|c| c.raw()).collect();
        assert_eq!(got, vec![1, 4, 5], "own measured path dominates");
        assert_eq!(r.splice_at, 0);
    }

    #[test]
    fn no_intersection_is_no_path() {
        let paths = pa(vec![
            sp(1, 50, &[1, 2], &[10.0]),
            sp(9, 77, &[9, 5], &[8.0]),
        ]);
        let atlas = atlas_with_ases(10);
        let comp = PathComposer::new(&paths, &atlas);
        assert!(comp
            .predict_forward(ClusterId::new(1), PrefixId::new(77))
            .is_err());
    }

    #[test]
    fn as_path_terminates_at_origin() {
        let paths = pa(vec![]);
        let mut atlas = atlas_with_ases(5);
        atlas.prefix_as.insert(
            PrefixId::new(7),
            (
                inano_model::Prefix::new(inano_model::Ipv4(0), 24),
                Asn::new(42),
            ),
        );
        let comp = PathComposer::new(&paths, &atlas);
        let ap = comp.as_path_of(&[ClusterId::new(1), ClusterId::new(2)], PrefixId::new(7));
        assert_eq!(ap.last(), Some(Asn::new(42)));
    }
}
