//! RouteScope (Mao et al. \[32\]): AS-path inference from the AS-level
//! graph alone — "computes the set of shortest AS paths determined to be
//! valley-free between the AS of src and the AS of dst". For iNano's
//! problem setting a single path is required, so "we choose one path at
//! random from the set of paths returned" (§6.3.1).

use inano_atlas::Atlas;
use inano_model::rng::DeterministicRng;
use inano_model::{AsPath, Asn, Relationship};
use rand::Rng;
use std::collections::{HashMap, VecDeque};

/// The RouteScope predictor: valley-free BFS over the observed AS graph
/// with inferred relationships.
pub struct RouteScope {
    /// AS adjacency with inferred relationships.
    adj: HashMap<Asn, Vec<(Asn, Relationship)>>,
}

/// Node state in the up/down BFS: (AS, has the path already gone down or
/// crossed a peering?).
type State = (Asn, bool);

impl RouteScope {
    /// Build from the atlas (observed AS adjacency + inferred rels).
    pub fn new(atlas: &Atlas) -> RouteScope {
        let mut adj: HashMap<Asn, Vec<(Asn, Relationship)>> = HashMap::new();
        let mut seen: HashMap<(Asn, Asn), ()> = HashMap::new();
        // AS-level adjacency from the link dataset.
        let mut note = |a: Asn, b: Asn, adj: &mut HashMap<Asn, Vec<(Asn, Relationship)>>| {
            if a == b || seen.insert((a, b), ()).is_some() {
                return;
            }
            let rel = atlas
                .inferred_rels
                .get(&(a, b))
                .copied()
                .unwrap_or(Relationship::Peer);
            adj.entry(a).or_default().push((b, rel));
        };
        for &(x, y) in atlas.links.keys() {
            let (Some(a), Some(b)) = (atlas.as_of_cluster(x), atlas.as_of_cluster(y)) else {
                continue;
            };
            note(a, b, &mut adj);
            note(b, a, &mut adj);
        }
        RouteScope { adj }
    }

    /// All shortest valley-free AS paths from `src` to `dst`, up to a cap
    /// (the path *set* can be exponential; RouteScope samples from it).
    pub fn shortest_valley_free(&self, src: Asn, dst: Asn, cap: usize) -> Vec<AsPath> {
        if src == dst {
            return vec![AsPath::new([src])];
        }
        // BFS over (AS, down?) states from the source; a state goes
        // "down" after traversing a peer or customer edge and may then
        // only continue through customer edges.
        let mut dist: HashMap<State, u32> = HashMap::new();
        let mut preds: HashMap<State, Vec<State>> = HashMap::new();
        let start: State = (src, false);
        dist.insert(start, 0);
        let mut q = VecDeque::from([start]);
        let mut best: Option<u32> = None;
        while let Some(st) = q.pop_front() {
            let d = dist[&st];
            if let Some(b) = best {
                if d >= b {
                    continue;
                }
            }
            let (asn, down) = st;
            for &(next, rel) in self.adj.get(&asn).into_iter().flatten() {
                let nstate: Option<State> = match rel {
                    Relationship::Provider if !down => Some((next, false)),
                    Relationship::Peer if !down => Some((next, true)),
                    Relationship::Customer => Some((next, true)),
                    Relationship::Sibling => Some((next, down)),
                    _ => None,
                };
                let Some(ns) = nstate else { continue };
                let nd = d + 1;
                match dist.get(&ns) {
                    None => {
                        dist.insert(ns, nd);
                        preds.insert(ns, vec![st]);
                        if ns.0 == dst {
                            best = Some(best.map_or(nd, |b: u32| b.min(nd)));
                        } else {
                            q.push_back(ns);
                        }
                    }
                    Some(&existing) if existing == nd => {
                        preds.get_mut(&ns).expect("pred entry").push(st);
                    }
                    _ => {}
                }
            }
        }

        // Enumerate paths backward from both destination states.
        let mut out: Vec<AsPath> = Vec::new();
        let target_len = match best {
            Some(b) => b,
            None => return out,
        };
        for end_down in [false, true] {
            let end: State = (dst, end_down);
            if dist.get(&end) != Some(&target_len) {
                continue;
            }
            let mut stack: Vec<(State, Vec<Asn>)> = vec![(end, vec![dst])];
            while let Some((st, path)) = stack.pop() {
                if out.len() >= cap {
                    return out;
                }
                if st == start {
                    let mut p = path.clone();
                    p.reverse();
                    out.push(AsPath::new(p));
                    continue;
                }
                for &prev in preds.get(&st).into_iter().flatten() {
                    let mut p = path.clone();
                    p.push(prev.0);
                    stack.push((prev, p));
                }
            }
        }
        out
    }

    /// The RouteScope answer used in Figure 5: one of the shortest
    /// valley-free paths, chosen uniformly at random.
    pub fn predict(&self, src: Asn, dst: Asn, rng: &mut DeterministicRng) -> Option<AsPath> {
        let set = self.shortest_valley_free(src, dst, 64);
        if set.is_empty() {
            return None;
        }
        let idx = rng.gen_range(0..set.len());
        Some(set[idx].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_atlas::{Atlas, LinkAnnotation, Plane};
    use inano_model::rng::rng_for;
    use inano_model::ClusterId;

    /// Build an atlas whose AS graph is given by (a, b, rel-of-a-to-b).
    fn atlas_of(edges: &[(u32, u32, Relationship)]) -> Atlas {
        let mut a = Atlas::default();
        for (i, &(x, y, rel)) in edges.iter().enumerate() {
            // One cluster per AS, one link per edge.
            let (cx, cy) = (ClusterId::new(x), ClusterId::new(y));
            a.links.insert(
                (cx, cy),
                LinkAnnotation {
                    latency: None,
                    plane: Plane::TO_DST,
                },
            );
            a.cluster_as.insert(cx, Asn::new(x));
            a.cluster_as.insert(cy, Asn::new(y));
            a.inferred_rels.insert((Asn::new(x), Asn::new(y)), rel);
            a.inferred_rels
                .insert((Asn::new(y), Asn::new(x)), rel.reverse());
            let _ = i;
        }
        a
    }

    #[test]
    fn finds_valley_free_shortest_path() {
        use Relationship::*;
        // 1 —cust→ 2 (provider), 2 peers 3, 3 —prov→ 4 (customer).
        let atlas = atlas_of(&[
            (1, 2, Provider), // 2 is 1's provider
            (2, 3, Peer),
            (3, 4, Customer), // 4 is 3's customer
        ]);
        let rs = RouteScope::new(&atlas);
        let paths = rs.shortest_valley_free(Asn::new(1), Asn::new(4), 10);
        assert_eq!(paths.len(), 1);
        assert_eq!(
            paths[0].as_slice(),
            &[Asn::new(1), Asn::new(2), Asn::new(3), Asn::new(4)]
        );
    }

    #[test]
    fn rejects_valley_paths() {
        use Relationship::*;
        // 1 —prov→ 2 (2 is customer), then 2 —prov?— no: path through a
        // customer back up to a provider is a valley: 1→2 (customer),
        // 2→3 (provider) must be rejected.
        let atlas = atlas_of(&[
            (1, 2, Customer), // 2 is 1's customer
            (2, 3, Provider), // 3 is 2's provider
        ]);
        let rs = RouteScope::new(&atlas);
        let paths = rs.shortest_valley_free(Asn::new(1), Asn::new(3), 10);
        assert!(paths.is_empty(), "valley must be rejected: {paths:?}");
    }

    #[test]
    fn multiple_shortest_paths_enumerated() {
        use Relationship::*;
        // Diamond: 1's providers 2 and 3, both providers of... both have
        // customer 4.
        let atlas = atlas_of(&[
            (1, 2, Provider),
            (1, 3, Provider),
            (2, 4, Customer),
            (3, 4, Customer),
        ]);
        let rs = RouteScope::new(&atlas);
        let paths = rs.shortest_valley_free(Asn::new(1), Asn::new(4), 10);
        assert_eq!(paths.len(), 2);
        let mut rng = rng_for(1, "rs");
        let p = rs.predict(Asn::new(1), Asn::new(4), &mut rng).unwrap();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn at_most_one_peer_crossing() {
        use Relationship::*;
        // 1 peers 2, 2 peers 3: a two-peering path is not valley-free.
        let atlas = atlas_of(&[(1, 2, Peer), (2, 3, Peer)]);
        let rs = RouteScope::new(&atlas);
        let paths = rs.shortest_valley_free(Asn::new(1), Asn::new(3), 10);
        assert!(paths.is_empty());
    }

    #[test]
    fn same_as_is_trivial() {
        let atlas = atlas_of(&[]);
        let rs = RouteScope::new(&atlas);
        let p = rs.shortest_valley_free(Asn::new(5), Asn::new(5), 10);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].len(), 1);
    }
}
