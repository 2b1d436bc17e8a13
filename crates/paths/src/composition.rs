//! iPlane's path-composition predictor (\[30\], §3 of the iNano paper):
//! "To predict the path from a source to a destination, the path
//! composition technique composes two path segments that intersect with
//! each other. The first segment is from a path out from the source...
//! The second segment is from a path measured from one of iPlane's
//! vantage points to the destination's prefix."
//!
//! Its improved variant bolts iNano's checks on (§6.3.1): "When two path
//! segments are being spliced together, we check whether the sequence of
//! ASes prior to, at, and after the point of intersection exists in our
//! database of 3-tuples. We also ensure that AS preferences are enforced
//! when multiple candidate intersections pass the 3-tuple check." In the
//! paper this lifts path composition from 70% to 81% exact AS paths —
//! the best predictor evaluated.

use crate::path_atlas::{PathAtlas, StoredPath};
use inano_atlas::Atlas;
use inano_model::{AsPath, Asn, ClusterId, LatencyMs, LossRate, ModelError, PrefixId};
use std::cmp::Ordering;
use std::collections::HashMap;

/// The improved composer checks an AS triple only when its middle AS
/// has a degree above this (5, as iNano's own 3-tuple check, §4.3.2).
const TUPLE_MIN_DEGREE: u32 = 5;

/// A composed prediction.
#[derive(Clone, Debug)]
pub struct ComposedPath {
    pub clusters: Vec<ClusterId>,
    /// One-way latency estimate from RTT subtraction on the two segments.
    pub latency: LatencyMs,
    /// Index of the intersection on the source path (diagnostics).
    pub splice_at: usize,
}

/// iPlane's path composition and its improved variant, asked by prefix:
/// a source prefix composes from the measured paths out of the cluster
/// the link atlas attaches it to. The link atlas also gives the AS
/// mapping, the 3-tuples, the preferences and the loss annotations
/// (iPlane has the same link-level measurements available).
pub struct Composer<'a> {
    pub paths: &'a PathAtlas,
    pub atlas: &'a Atlas,
}

impl<'a> Composer<'a> {
    pub fn new(paths: &'a PathAtlas, atlas: &'a Atlas) -> Self {
        Composer { paths, atlas }
    }

    /// Plain composition's one-way path from `src` to `dst`: the
    /// earliest splice, then the lowest latency.
    pub fn forward(&self, src: PrefixId, dst: PrefixId) -> Result<ComposedPath, ModelError> {
        let src_cluster = self.cluster(src)?;
        best(self.candidates(src_cluster, dst)).ok_or_else(|| no_intersection(src_cluster, dst))
    }

    /// The improved composer's one-way path from `src` to `dst`: plain
    /// composition's candidates filtered by the 3-tuple check, the
    /// survivors at the earliest splice arbitrated by preferences.
    pub fn improved_forward(
        &self,
        src: PrefixId,
        dst: PrefixId,
    ) -> Result<ComposedPath, ModelError> {
        let src_cluster = self.cluster(src)?;
        // 3-tuple check on every AS triple of the composed path (the
        // splice point is where violations appear; checking the whole
        // path subsumes it).
        let (mut cands, failed): (Vec<_>, Vec<_>) = self
            .candidates(src_cluster, dst)
            .into_iter()
            .partition(|c| self.passes_tuples(&c.clusters));
        if cands.is_empty() {
            // Fall back to unfiltered composition rather than failing:
            // iPlane always answers; the checks only arbitrate.
            return best(failed).ok_or_else(|| no_intersection(src_cluster, dst));
        }
        // Baseline quality order first (earliest splice, then latency);
        // preferences arbitrate only among the equally-good candidates,
        // as the paper enforces them "when multiple candidate
        // intersections pass the 3-tuple check".
        cands.sort_by(by_quality);
        let best_splice = cands[0].splice_at;
        let mut pool: Vec<ComposedPath> = cands
            .into_iter()
            .filter(|c| c.splice_at == best_splice)
            .collect();
        pool.truncate(8);
        Ok(pool
            .into_iter()
            .reduce(|a, b| self.arbitrate(a, b))
            .expect("non-empty"))
    }

    /// AS-level view of a composed path to `dst`.
    pub fn as_path_of(&self, c: &ComposedPath, dst: PrefixId) -> AsPath {
        let mut ases: Vec<_> = c
            .clusters
            .iter()
            .filter_map(|c| self.atlas.as_of_cluster(*c))
            .collect();
        if let Some(&(_, origin)) = self.atlas.prefix_as.get(&dst) {
            ases.push(origin);
        }
        AsPath::new(ases)
    }

    /// Bidirectional RTT estimate: forward + reverse composition.
    pub fn rtt(&self, src: PrefixId, dst: PrefixId) -> Result<LatencyMs, ModelError> {
        Ok(self.forward(src, dst)?.latency + self.forward(dst, src)?.latency)
    }

    /// Round-trip loss along the composed forward and reverse paths (the
    /// same link-loss dataset iNano composes).
    pub fn loss(&self, src: PrefixId, dst: PrefixId) -> Result<LossRate, ModelError> {
        let (fwd, rev) = (self.forward(src, dst)?, self.forward(dst, src)?);
        Ok(self
            .loss_of(&fwd.clusters)
            .compose(self.loss_of(&rev.clusters)))
    }

    /// The cluster the link atlas attaches `prefix` to.
    fn cluster(&self, prefix: PrefixId) -> Result<ClusterId, ModelError> {
        let cluster = self.atlas.prefix_cluster.get(&prefix).copied();
        cluster.ok_or_else(|| ModelError::NoPath(format!("{prefix} has no known cluster")))
    }

    /// All valid compositions of a segment out of `src_cluster` with a
    /// segment into `dst_prefix`.
    fn candidates(&self, src_cluster: ClusterId, dst_prefix: PrefixId) -> Vec<ComposedPath> {
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

    /// The AS sequence of a cluster path, repeats collapsed.
    fn as_seq(&self, clusters: &[ClusterId]) -> Vec<Asn> {
        let mut v: Vec<Asn> = clusters
            .iter()
            .filter_map(|c| self.atlas.as_of_cluster(*c))
            .collect();
        v.dedup();
        v
    }

    fn passes_tuples(&self, clusters: &[ClusterId]) -> bool {
        let atlas = self.atlas;
        self.as_seq(clusters)
            .windows(3)
            .all(|w| atlas.degree(w[1]) <= TUPLE_MIN_DEGREE || atlas.has_triple(w[0], w[1], w[2]))
    }

    /// Pick between two candidates: observed preference at the first AS
    /// where they diverge, then earliest splice, then latency.
    fn arbitrate(&self, a: ComposedPath, b: ComposedPath) -> ComposedPath {
        let atlas = self.atlas;
        let asa = self.as_seq(&a.clusters);
        let asb = self.as_seq(&b.clusters);
        for i in 0..asa.len().min(asb.len()).saturating_sub(1) {
            if asa[i] == asb[i] && asa[i + 1] != asb[i + 1] {
                if atlas.prefers(asa[i], asa[i + 1], asb[i + 1]) {
                    return a;
                }
                if atlas.prefers(asa[i], asb[i + 1], asa[i + 1]) {
                    return b;
                }
                break;
            }
        }
        if by_quality(&a, &b).is_le() {
            a
        } else {
            b
        }
    }

    /// Loss estimate along a composed path.
    fn loss_of(&self, clusters: &[ClusterId]) -> LossRate {
        LossRate::compose_all(clusters.windows(2).map(|w| {
            self.atlas
                .loss
                .get(&(w[0], w[1]))
                .copied()
                .unwrap_or(LossRate::ZERO)
        }))
    }
}

/// Candidates in quality order, best first: earliest splice, then
/// lowest latency.
fn by_quality(a: &ComposedPath, b: &ComposedPath) -> Ordering {
    (a.splice_at, a.latency.ms())
        .partial_cmp(&(b.splice_at, b.latency.ms()))
        .expect("a composed latency is never NaN")
}

/// The first of the best candidates.
fn best(cands: Vec<ComposedPath>) -> Option<ComposedPath> {
    cands.into_iter().min_by(by_quality)
}

fn no_intersection(src_cluster: ClusterId, dst_prefix: PrefixId) -> ModelError {
    ModelError::NoPath(format!(
        "no intersecting segments {src_cluster} → {dst_prefix}"
    ))
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
    use inano_atlas::Triple;
    use inano_model::HostId;

    /// The source prefix every test composes from; it attaches to
    /// cluster 1.
    const SRC: PrefixId = PrefixId::new(10);

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

    /// Clusters `0..=n`, each in its own AS, and the source prefix
    /// attached to cluster 1.
    fn atlas_with_ases(n: u32) -> Atlas {
        let mut a = Atlas::default();
        for c in 0..=n {
            a.cluster_as.insert(ClusterId::new(c), Asn::new(c));
        }
        a.prefix_cluster.insert(SRC, ClusterId::new(1));
        a
    }

    /// ... with every AS's degree above [`TUPLE_MIN_DEGREE`], so every
    /// triple is checked.
    fn atlas_with_degrees(n: u32) -> Atlas {
        let mut a = atlas_with_ases(n);
        for c in 0..=n {
            a.as_degree.insert(Asn::new(c), 10);
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
        let comp = Composer::new(&paths, &atlas);
        let r = comp.forward(SRC, PrefixId::new(77)).unwrap();
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
        let comp = Composer::new(&paths, &atlas);
        let r = comp.forward(SRC, PrefixId::new(77)).unwrap();
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
        let comp = Composer::new(&paths, &atlas);
        assert!(comp.forward(SRC, PrefixId::new(77)).is_err());
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
        let comp = Composer::new(&paths, &atlas);
        let composed = ComposedPath {
            clusters: vec![ClusterId::new(1), ClusterId::new(2)],
            latency: LatencyMs::new(0.0),
            splice_at: 0,
        };
        let ap = comp.as_path_of(&composed, PrefixId::new(7));
        assert_eq!(ap.last(), Some(Asn::new(42)));
    }

    #[test]
    fn unattached_source_prefix_gets_no_answer() {
        // Prefix 11 composes with prefix 77 both ways once it attaches to
        // cluster 1; until then it gets no answer of any kind.
        let paths = pa(vec![
            sp(1, 50, &[1, 2, 3], &[10.0, 20.0]),
            sp(9, 77, &[9, 2, 5], &[8.0, 30.0]),
            sp(5, 11, &[5, 2, 1], &[8.0, 30.0]),
        ]);
        let mut atlas = atlas_with_ases(10);
        atlas
            .prefix_cluster
            .insert(PrefixId::new(77), ClusterId::new(5));
        let (src, dst) = (PrefixId::new(11), PrefixId::new(77));
        let comp = Composer::new(&paths, &atlas);
        assert!(comp.forward(src, dst).is_err());
        assert!(comp.improved_forward(src, dst).is_err());
        assert!(comp.rtt(src, dst).is_err());
        assert!(comp.loss(src, dst).is_err());

        atlas.prefix_cluster.insert(src, ClusterId::new(1));
        let comp = Composer::new(&paths, &atlas);
        assert!(comp.forward(src, dst).is_ok());
        assert!(comp.improved_forward(src, dst).is_ok());
        assert!(comp.rtt(src, dst).is_ok());
        assert!(comp.loss(src, dst).is_ok());
    }

    #[test]
    fn tuple_check_rejects_bad_splice() {
        // Two compositions from cluster 1 to prefix 77: via cluster 2
        // (earlier splice) and via cluster 3. Only the via-3 triples are
        // observed; plain composition would pick via-2.
        let paths = pa(vec![
            sp(1, 50, &[1, 2, 9], &[5.0, 20.0]),
            sp(8, 77, &[8, 2, 6, 7], &[4.0, 9.0, 14.0]),
            sp(1, 51, &[1, 3, 9], &[5.0, 20.0]),
            sp(8, 77, &[8, 3, 7], &[4.0, 14.0]),
        ]);
        let mut atlas = atlas_with_degrees(10);
        for (a, b, c) in [(1u32, 3u32, 7u32), (3, 7, 77)] {
            atlas
                .tuples
                .insert(Triple::canonical(Asn::new(a), Asn::new(b), Asn::new(c)));
        }
        let comp = Composer::new(&paths, &atlas);
        // Plain composition picks the via-2 splice.
        let p = comp.forward(SRC, PrefixId::new(77)).unwrap();
        assert!(p.clusters.contains(&ClusterId::new(2)));
        // Improved composition rejects it (triple (1,2,6) unobserved).
        let q = comp.improved_forward(SRC, PrefixId::new(77)).unwrap();
        assert!(q.clusters.contains(&ClusterId::new(3)), "{:?}", q.clusters);
    }

    #[test]
    fn falls_back_when_everything_filtered() {
        let paths = pa(vec![
            sp(1, 50, &[1, 2, 9], &[5.0, 20.0]),
            sp(8, 77, &[8, 2, 7], &[4.0, 14.0]),
        ]);
        let atlas = atlas_with_degrees(10); // no tuples at all observed
        let comp = Composer::new(&paths, &atlas);
        // All candidates fail the check, but prediction still answers.
        assert!(comp.improved_forward(SRC, PrefixId::new(77)).is_ok());
    }

    #[test]
    fn preferences_arbitrate_between_valid_candidates() {
        let paths = pa(vec![
            sp(1, 50, &[1, 2, 9], &[5.0, 20.0]),
            sp(8, 77, &[8, 2, 7], &[4.0, 14.0]),
            sp(1, 51, &[1, 3, 9], &[5.0, 20.0]),
            sp(8, 77, &[8, 3, 7], &[4.0, 14.0]),
        ]);
        let mut atlas = atlas_with_degrees(10);
        for (a, b, c) in [(1u32, 2u32, 7u32), (2, 7, 77), (1, 3, 7), (3, 7, 77)] {
            atlas
                .tuples
                .insert(Triple::canonical(Asn::new(a), Asn::new(b), Asn::new(c)));
        }
        // AS1 prefers 3 over 2.
        atlas.prefs.insert((Asn::new(1), Asn::new(3), Asn::new(2)));
        let comp = Composer::new(&paths, &atlas);
        let q = comp.improved_forward(SRC, PrefixId::new(77)).unwrap();
        assert!(q.clusters.contains(&ClusterId::new(3)));
    }
}
