//! Detouring around failures (§7.3, Figure 11).
//!
//! When the direct path fails, the source retries through detour hosts.
//! iNano's policy ranks candidate detours by the *disjointness* of their
//! predicted paths from the predicted direct path: "We choose the
//! (k+1)-th detour node in this ranking to be the one that minimizes
//! first the number of PoPs and second the number of ASes in common with
//! the direct path and the k previously chosen detours."

use inano_core::PathPredictor;
use inano_model::{Asn, ClusterId, PrefixId};
use std::collections::HashSet;

/// Outcome of a recovery attempt with a budget of N detours.
#[derive(Clone, Copy, Debug)]
pub struct DetourOutcome {
    /// Detours tried (≤ the budget).
    pub tried: usize,
    /// Did any tried detour restore connectivity?
    pub recovered: bool,
}

/// The predicted footprint of a detour path (clusters and ASes on
/// src→detour→dst).
struct Footprint {
    prefix: PrefixId,
    clusters: HashSet<ClusterId>,
    ases: HashSet<Asn>,
}

/// Rank candidate detour prefixes by predicted disjointness from the
/// predicted direct path, greedily diversifying against already-chosen
/// detours. Returns up to `n` detour prefixes, best first.
pub fn rank_detours(
    predictor: &PathPredictor,
    src: PrefixId,
    dst: PrefixId,
    candidates: &[PrefixId],
    n: usize,
) -> Vec<PrefixId> {
    let direct = footprint_of_path(predictor, src, dst);

    let mut pool: Vec<Footprint> = candidates
        .iter()
        .filter_map(|&c| {
            let leg1 = predictor.predict_forward(src, c).ok()?;
            let leg2 = predictor.predict_forward(c, dst).ok()?;
            let mut clusters: HashSet<ClusterId> = leg1.iter().copied().collect();
            clusters.extend(leg2.iter().copied());
            let ases: HashSet<Asn> = clusters
                .iter()
                .filter_map(|cl| predictor.atlas().as_of_cluster(*cl))
                .collect();
            Some(Footprint {
                prefix: c,
                clusters,
                ases,
            })
        })
        .collect();

    // Accumulated comparison set: direct path ∪ chosen detours.
    let mut used_clusters: HashSet<ClusterId> = direct.0;
    let mut used_ases: HashSet<Asn> = direct.1;
    let mut chosen = Vec::with_capacity(n.min(pool.len()));
    while chosen.len() < n && !pool.is_empty() {
        let (idx, _) = pool
            .iter()
            .enumerate()
            .min_by_key(|(_, f)| {
                (
                    f.clusters.intersection(&used_clusters).count(),
                    f.ases.intersection(&used_ases).count(),
                    f.prefix,
                )
            })
            .expect("pool non-empty");
        let f = pool.swap_remove(idx);
        used_clusters.extend(f.clusters.iter().copied());
        used_ases.extend(f.ases.iter().copied());
        chosen.push(f.prefix);
    }
    chosen
}

/// The predicted direct path's footprint ((clusters, ases); empty when
/// unpredictable — ranking then just diversifies among detours).
fn footprint_of_path(
    predictor: &PathPredictor,
    src: PrefixId,
    dst: PrefixId,
) -> (HashSet<ClusterId>, HashSet<Asn>) {
    let Ok(path) = predictor.predict_forward(src, dst) else {
        return (HashSet::new(), HashSet::new());
    };
    let clusters: HashSet<ClusterId> = path.iter().copied().collect();
    let ases = clusters
        .iter()
        .filter_map(|c| predictor.atlas().as_of_cluster(*c))
        .collect();
    (clusters, ases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_atlas::{Atlas, LinkAnnotation, Plane};
    use inano_core::PredictorConfig;
    use inano_model::{Ipv4, LatencyMs, Prefix};
    use std::sync::Arc;

    /// Diamond topology: src cluster 0 → {1, 2, 3} → dst cluster 4, and a
    /// detour candidate prefix behind each middle cluster. Cluster 1 is on
    /// the direct path.
    fn predictor() -> PathPredictor {
        let mut a = Atlas::default();
        let cl = ClusterId::new;
        let link = |f: u32, t: u32, lat: f64, a: &mut Atlas| {
            a.links.insert(
                (cl(f), cl(t)),
                LinkAnnotation {
                    latency: Some(LatencyMs::new(lat)),
                    plane: Plane::TO_DST,
                },
            );
            a.links.insert(
                (cl(t), cl(f)),
                LinkAnnotation {
                    latency: Some(LatencyMs::new(lat)),
                    plane: Plane::TO_DST,
                },
            );
        };
        link(0, 1, 1.0, &mut a); // direct path goes via 1 (cheapest)
        link(1, 4, 1.0, &mut a);
        link(0, 2, 5.0, &mut a);
        link(2, 4, 5.0, &mut a);
        link(0, 3, 9.0, &mut a);
        link(3, 4, 9.0, &mut a);
        for c in 0..=4u32 {
            a.cluster_as.insert(cl(c), inano_model::Asn::new(c));
        }
        // Prefixes: 100 at src, 104 at dst, 101..103 at middles.
        for (p, c) in [(100u32, 0u32), (101, 1), (102, 2), (103, 3), (104, 4)] {
            a.prefix_cluster.insert(PrefixId::new(p), cl(c));
            a.prefix_as.insert(
                PrefixId::new(p),
                (
                    Prefix::new(Ipv4::from_octets(p as u8, 0, 0, 0), 24),
                    inano_model::Asn::new(c),
                ),
            );
        }
        let mut cfg = PredictorConfig::with_tuples();
        cfg.use_tuples = false;
        cfg.use_from_src = false;
        PathPredictor::new(Arc::new(a), cfg)
    }

    #[test]
    fn ranking_prefers_disjoint_detours() {
        let p = predictor();
        let candidates = [PrefixId::new(101), PrefixId::new(102), PrefixId::new(103)];
        let ranked = rank_detours(&p, PrefixId::new(100), PrefixId::new(104), &candidates, 3);
        assert_eq!(ranked.len(), 3);
        // Detour via prefix 101 shares cluster 1 with the direct path, so
        // it must NOT come first.
        assert_ne!(ranked[0], PrefixId::new(101));
    }

    #[test]
    fn greedy_diversifies_across_choices() {
        let p = predictor();
        let candidates = [PrefixId::new(102), PrefixId::new(103)];
        let ranked = rank_detours(&p, PrefixId::new(100), PrefixId::new(104), &candidates, 2);
        // Both are disjoint from the direct path; the second pick must
        // differ from the first.
        assert_eq!(ranked.len(), 2);
        assert_ne!(ranked[0], ranked[1]);
    }

    #[test]
    fn unpredictable_candidates_skipped() {
        let p = predictor();
        let candidates = [PrefixId::new(999), PrefixId::new(102)];
        let ranked = rank_detours(&p, PrefixId::new(100), PrefixId::new(104), &candidates, 2);
        assert_eq!(ranked, vec![PrefixId::new(102)]);
    }
}
