//! The layered prediction graph built from the atlas.
//!
//! Node space: `(cluster, plane, side)` flattened to a dense `u32`.
//! Planes model asymmetry (§4.3.1): plane 0 is `TO_DST`, plane 1 is
//! `FROM_SRC`; a forward path may cross from `FROM_SRC` into `TO_DST`
//! exactly once (edges only exist in that direction). Sides implement the
//! valley-free up/down construction of §4.2.3 in GRAPH mode: side 0 is
//! "up", side 1 is "down".
//!
//! Edges are stored as *incoming-forward* adjacency: for a forward edge
//! `u → v`, `in_edges[v]` holds `u`, because the search backtracks from
//! the destination (settling `v` relaxes `u`).

use crate::config::{PredictorConfig, DEFAULT_LINK_LATENCY_MS};
use crate::index::{csr, AtlasIndex};
use crate::reach::{AncestorSets, Sccs};
use inano_atlas::Atlas;
use inano_model::{Asn, ClusterId, Relationship};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One reverse-stored edge (16 bytes).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct InEdge {
    /// The forward-source node (relaxed when the edge's target settles).
    pub src: u32,
    /// Link latency in ms (the configured default when unannotated).
    pub latency: f64,
    /// Crosses an AS boundary.
    pub inter: bool,
    /// Minimum search phase that may traverse this edge (GRAPH mode).
    pub phase: u8,
    /// The link was only observed in the opposite direction; traversing
    /// it this way is a fallback and is deprioritised by the search.
    pub reversed: bool,
}

/// The prediction graph: a node space and policy tables (the shared
/// `AtlasIndex`) plus this graph's in-edges in CSR form.
///
/// The search is label-correcting, so the order of a node's in-edges is
/// the order its neighbours are relaxed in and therefore part of the
/// answer: it is the order the atlas's sorted link set emits them.
pub struct PredictionGraph {
    index: Arc<AtlasIndex>,
    /// `edges[edge_off[v]..edge_off[v + 1]]` are the in-edges of `v`.
    edge_off: Vec<u32>,
    edges: Vec<InEdge>,
}

/// Edges in emission order, each with its forward-target node.
type Emitted = Vec<(u32, InEdge)>;

impl PredictionGraph {
    pub fn n_planes(&self) -> usize {
        self.index.n_planes
    }

    pub fn n_sides(&self) -> usize {
        self.index.n_sides
    }

    pub fn n_nodes(&self) -> usize {
        self.index.node_as.len()
    }

    /// ClusterId per dense cluster index.
    pub fn clusters(&self) -> &[ClusterId] {
        &self.index.clusters
    }

    pub(crate) fn index(&self) -> &AtlasIndex {
        &self.index
    }

    /// Flatten (cluster, plane, side) to a node id.
    pub fn node(&self, cluster_dense: u32, plane: usize, side: usize) -> u32 {
        self.index.node(cluster_dense, plane, side)
    }

    /// The cluster of a node.
    pub fn node_cluster(&self, node: u32) -> ClusterId {
        self.index.clusters[self.index.cluster_of(node)]
    }

    /// The AS of a node.
    pub fn node_as(&self, node: u32) -> Asn {
        self.index.cluster_as[self.index.cluster_of(node)]
    }

    /// Destination entry node for a cluster: `TO_DST` plane, down side.
    pub fn dest_node(&self, cluster: ClusterId) -> Option<u32> {
        let &c = self.index.cluster_idx.get(&cluster)?;
        Some(self.node(c, 0, self.index.n_sides - 1))
    }

    /// Source nodes to try, in order: `FROM_SRC` up node first when the
    /// plane exists, then the `TO_DST` up node (§4.3.1's fallback).
    pub fn source_nodes(&self, cluster: ClusterId) -> impl Iterator<Item = u32> + '_ {
        let c = self.index.cluster_idx.get(&cluster).copied();
        (0..self.index.n_planes)
            .rev()
            .filter_map(move |plane| Some(self.node(c?, plane, 0)))
    }

    /// Does any observed-direction edge lead out of `cluster` into another
    /// one? Where none does, the strict graph (this one, or the one built
    /// beside this relaxed one) holds no route from the cluster to any
    /// other: a node is only ever labelled through an in-edge whose `src`
    /// it is, so a successor chain from a node of the cluster to a
    /// destination outside it contains an edge that leaves the cluster.
    pub fn has_strict_exit(&self, cluster: ClusterId) -> bool {
        let c = self.index.cluster_idx.get(&cluster);
        c.is_some_and(|&c| self.index.strict_exit[c as usize])
    }

    /// Can some source node of `src` reach `dst`'s destination node along
    /// observed-direction edges (the strict graph: this one, or the one
    /// built beside this relaxed one), policy aside? Where it cannot, no
    /// strict search toward `dst` labels a source node of `src`, for the
    /// reason [`PredictionGraph::has_strict_exit`] gives. The component
    /// numbers settle most pairs; the rest read `dst`'s ancestor set,
    /// which `sets` keeps (`reach.rs`).
    pub fn strict_reaches(&self, src: ClusterId, dst: ClusterId, sets: &mut AncestorSets) -> bool {
        let sccs = &self.index.strict_sccs;
        let Some(to) = self.dest_node(dst).map(|node| sccs.of(node)) else {
            return false;
        };
        (self.source_nodes(src)).any(|node| sets.reaches(sccs, sccs.of(node), to))
    }

    /// Incoming-forward adjacency of a node, in relax order.
    pub fn in_edges(&self, node: u32) -> &[InEdge] {
        &self.edges
            [self.edge_off[node as usize] as usize..self.edge_off[node as usize + 1] as usize]
    }

    /// Every edge, grouped by target node.
    pub fn edges(&self) -> &[InEdge] {
        &self.edges
    }

    /// Total edge count (diagnostics).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Build the one graph a config describes: with reversed links when
    /// it allows them (and is not GRAPH mode), observed directions only
    /// otherwise.
    pub fn build(atlas: &Atlas, cfg: &PredictorConfig) -> PredictionGraph {
        let (strict, relaxed) = PredictionGraph::build_pair(atlas, cfg);
        relaxed.unwrap_or(strict)
    }

    /// Build a predictor's graphs over one shared index and one pass over
    /// the links: the strict graph (observed directions only) and, when
    /// the config allows reversed links outside GRAPH mode, the relaxed
    /// one (strict plus every link's unobserved direction). The same pass
    /// notes which clusters a strict edge leaves
    /// ([`PredictionGraph::has_strict_exit`]) and numbers the strict
    /// graph's components ([`PredictionGraph::strict_reaches`]).
    pub fn build_pair(
        atlas: &Atlas,
        cfg: &PredictorConfig,
    ) -> (PredictionGraph, Option<PredictionGraph>) {
        let mut index = AtlasIndex::build(atlas, cfg);
        let mut emitted = if cfg.use_rel_graph {
            rel_edges(&index, atlas)
        } else {
            directed_edges(&index, atlas)
        };
        plane_cross_edges(&index, &mut emitted);
        let mut strict_exit = vec![false; index.clusters.len()];
        for (target, e) in emitted.iter().filter(|(_, e)| !e.reversed) {
            let from = index.cluster_of(e.src);
            strict_exit[from] |= from != index.cluster_of(*target);
        }
        index.strict_exit = strict_exit;
        // Grouped by target node; a node's in-edges keep emission order.
        let n_nodes = index.node_as.len();
        let rows = |keep_reversed: bool| {
            let kept = (emitted.iter().copied()).filter(|(_, e)| keep_reversed || !e.reversed);
            csr(n_nodes, kept)
        };
        let (edge_off, edges) = rows(false);
        index.strict_sccs = Sccs::new(&edge_off, &edges);
        let index = Arc::new(index);
        let graph = |(edge_off, edges)| PredictionGraph {
            index: Arc::clone(&index),
            edge_off,
            edges,
        };
        let relaxed = (cfg.allow_reversed_links && !cfg.use_rel_graph).then(|| graph(rows(true)));
        (graph((edge_off, edges)), relaxed)
    }
}

/// iNano mode: observed links, per plane.
///
/// Links are stored with their observed direction but traversable in
/// both: predictions must also *leave* clusters that measurements only
/// ever entered (an arbitrary destination's stub is only seen inbound
/// by the vantage points, yet reverse paths out of it must still be
/// predicted — §4.3.1 composes forward *and* reverse paths for every
/// pair). The 3-tuple, preference and provider checks carry the
/// export-policy directionality that raw direction encoded. The
/// unobserved direction is emitted marked `reversed`; the strict graph
/// filters it out.
fn directed_edges(index: &AtlasIndex, atlas: &Atlas) -> Emitted {
    let mut emitted = Emitted::with_capacity(4 * atlas.links.len());
    for (&(from, to), ann) in &atlas.links {
        let (cf, ct) = (index.cluster_idx[&from], index.cluster_idx[&to]);
        let inter = index.cluster_as[cf as usize] != index.cluster_as[ct as usize];
        let latency = ann
            .latency
            .map(|l| l.ms())
            .unwrap_or(DEFAULT_LINK_LATENCY_MS);
        let opposite = atlas.links.get(&(to, from)).map(|r| r.plane);
        for (plane, present) in [(0usize, ann.plane.to_dst), (1, ann.plane.from_src)] {
            if !present || plane >= index.n_planes {
                continue;
            }
            let opposite_observed = opposite.is_some_and(|p| match plane {
                0 => p.to_dst,
                _ => p.from_src,
            });
            // Each direction of a cluster pair is one edge per plane, and
            // the link that sorts first emits both (with *its* latency):
            // when the opposite link was observed in this plane and
            // sorts earlier, this pair is already done.
            if opposite_observed && to < from {
                continue;
            }
            let mut emit = |a: u32, b: u32, reversed: bool| {
                emitted.push((
                    index.node(b, plane, 0),
                    InEdge {
                        src: index.node(a, plane, 0),
                        latency,
                        inter,
                        phase: 1,
                        reversed,
                    },
                ));
            };
            emit(cf, ct, false);
            if cf != ct {
                emit(ct, cf, !opposite_observed);
            }
        }
    }
    emitted
}

/// GRAPH mode: the valley-free up/down construction from inferred
/// relationships (§4.2.3).
///
/// Without the asymmetry refinement, links are symmetrised — GRAPH
/// treats the atlas as "a graph capturing the Internet's physical
/// topology" (§4). With `use_from_src`, §4.3.1's directionality kicks
/// in: each plane only gets edges whose *forward traffic direction*
/// was actually observed in that plane, which is what kills the
/// "non-existent routes" GRAPH otherwise invents.
fn rel_edges(index: &AtlasIndex, atlas: &Atlas) -> Emitted {
    // Per unordered cluster pair: latency plus which directions were
    // observed in which plane. Index 0 = (lo → hi), 1 = (hi → lo).
    #[derive(Clone, Copy, Default)]
    struct PairInfo {
        lat: Option<f64>,
        to_dst: [bool; 2],
        from_src: [bool; 2],
    }
    // Sorted: pair order is in-edge order, which is relax order.
    let mut pairs: BTreeMap<(u32, u32), PairInfo> = BTreeMap::new();
    for (&(from, to), ann) in &atlas.links {
        let (cf, ct) = (index.cluster_idx[&from], index.cluster_idx[&to]);
        let key = (cf.min(ct), cf.max(ct));
        let dir = usize::from(cf > ct);
        let e = pairs.entry(key).or_default();
        if let Some(l) = ann.latency {
            e.lat = Some(e.lat.map_or(l.ms(), |x: f64| x.min(l.ms())));
        }
        e.to_dst[dir] |= ann.plane.to_dst;
        e.from_src[dir] |= ann.plane.from_src;
    }

    let mut emitted = Emitted::new();
    let mut emit = |u: u32, v: u32, latency: f64, inter: bool, phase: u8| {
        emitted.push((
            v,
            InEdge {
                src: u,
                latency,
                inter,
                phase,
                reversed: false,
            },
        ));
    };
    // Directionality only applies once the asymmetry refinement is on.
    let directional = index.n_planes == 2;
    for (&(ci, cj), info) in &pairs {
        let (ai, aj) = (index.cluster_as[ci as usize], index.cluster_as[cj as usize]);
        let lat = info.lat.unwrap_or(DEFAULT_LINK_LATENCY_MS);
        let rel = if ai == aj {
            None // intra-AS
        } else {
            Some(
                atlas
                    .inferred_rels
                    .get(&(ai, aj))
                    .copied()
                    .unwrap_or(Relationship::Peer),
            )
        };
        for p in 0..index.n_planes {
            // Was the (ci → cj) / (cj → ci) direction observed in
            // this plane? Without directionality, any observation of
            // the pair enables both.
            let obs = match p {
                0 => info.to_dst,
                _ => info.from_src,
            };
            let any = obs[0] || obs[1];
            let fwd_ij = if directional { obs[0] } else { any };
            let fwd_ji = if directional { obs[1] } else { any };
            if !fwd_ij && !fwd_ji {
                continue;
            }
            let up = |c| index.node(c, p, 0);
            let down = |c| index.node(c, p, 1);
            match rel {
                None | Some(Relationship::Sibling) => {
                    let inter = ai != aj;
                    for ((x, y), seen) in [((ci, cj), fwd_ij), ((cj, ci), fwd_ji)] {
                        if !seen {
                            continue;
                        }
                        emit(up(x), up(y), lat, inter, 1);
                        emit(down(x), down(y), lat, inter, 1);
                    }
                }
                Some(Relationship::Provider) => {
                    // aj is ai's provider: up_i→up_j carries i→j
                    // traffic (phase 3), down_j→down_i carries j→i
                    // (phase 1).
                    if fwd_ij {
                        emit(up(ci), up(cj), lat, true, 3);
                    }
                    if fwd_ji {
                        emit(down(cj), down(ci), lat, true, 1);
                    }
                }
                Some(Relationship::Customer) => {
                    if fwd_ji {
                        emit(up(cj), up(ci), lat, true, 3);
                    }
                    if fwd_ij {
                        emit(down(ci), down(cj), lat, true, 1);
                    }
                }
                Some(Relationship::Peer) => {
                    if fwd_ij {
                        emit(up(ci), down(cj), lat, true, 2);
                    }
                    if fwd_ji {
                        emit(up(cj), down(ci), lat, true, 2);
                    }
                }
            }
        }
    }

    // Self edges up_i → down_i: the "turn downhill here" transition,
    // phase 1 so pure customer routes settle first.
    for c in 0..index.clusters.len() as u32 {
        for p in 0..index.n_planes {
            emit(index.node(c, p, 0), index.node(c, p, 1), 0.0, false, 1);
        }
    }
    emitted
}

/// One-way plane crossing: (c, FROM_SRC, s) → (c, TO_DST, s).
fn plane_cross_edges(index: &AtlasIndex, emitted: &mut Emitted) {
    if index.n_planes < 2 {
        return;
    }
    for c in 0..index.clusters.len() as u32 {
        for s in 0..index.n_sides {
            emitted.push((
                index.node(c, 0, s),
                InEdge {
                    src: index.node(c, 1, s),
                    latency: 0.0,
                    inter: false,
                    phase: 1,
                    reversed: false,
                },
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_atlas::{LinkAnnotation, Plane};
    use inano_model::LatencyMs;

    /// A hand-built 4-cluster atlas: AS1(c1) -> AS2(c2) -> AS3(c3), plus
    /// c4 in AS2 (intra link with c2).
    fn toy_atlas() -> Atlas {
        let mut a = Atlas::default();
        let cl = ClusterId::new;
        for (f, t, lat, plane) in [
            (1, 2, 5.0, Plane::TO_DST),
            (2, 3, 7.0, Plane::TO_DST),
            (2, 4, 1.0, Plane::TO_DST),
            (1, 2, 5.0, Plane::FROM_SRC),
        ] {
            let e = a.links.entry((cl(f), cl(t))).or_insert(LinkAnnotation {
                latency: Some(LatencyMs::new(lat)),
                plane,
            });
            e.plane = e.plane.union(plane);
        }
        for (c, asn) in [(1, 1), (2, 2), (3, 3), (4, 2)] {
            a.cluster_as.insert(cl(c), Asn::new(asn));
        }
        a
    }

    #[test]
    fn directed_mode_counts() {
        let atlas = toy_atlas();
        let g = PredictionGraph::build(&atlas, &PredictorConfig::with_tuples());
        // 4 clusters × 2 planes × 1 side.
        assert_eq!(g.n_nodes(), 8);
        // TO_DST: 3 links × both directions; FROM_SRC: 1 × both; cross: 4.
        assert_eq!(g.n_edges(), 12);
        // Exactly half of the link edges are reversed-direction fallbacks.
        let rev = g.edges().iter().filter(|e| e.reversed).count();
        assert_eq!(rev, 4);
    }

    #[test]
    fn single_plane_when_from_src_disabled() {
        let atlas = toy_atlas();
        let mut cfg = PredictorConfig::with_tuples();
        cfg.use_from_src = false;
        let g = PredictionGraph::build(&atlas, &cfg);
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.n_edges(), 6); // 3 links, both directions
    }

    #[test]
    fn rel_graph_builds_up_down() {
        let mut atlas = toy_atlas();
        // AS1 customer of AS2; AS2 provider relationship to AS3 unknown →
        // default peer.
        atlas
            .inferred_rels
            .insert((Asn::new(1), Asn::new(2)), Relationship::Provider);
        atlas
            .inferred_rels
            .insert((Asn::new(2), Asn::new(1)), Relationship::Customer);
        let g = PredictionGraph::build(&atlas, &PredictorConfig::graph());
        // 4 clusters × 1 plane × 2 sides.
        assert_eq!(g.n_nodes(), 8);
        // Edges: pair (1,2): up1→up2 (ph3) + down2→down1 (ph1) = 2;
        // pair (2,3) peer: up2→down3, up3→down2 = 2;
        // pair (2,4) intra: 4 (two dirs × two layers);
        // self edges: 4. Total 12.
        assert_eq!(g.n_edges(), 12);
        let phases: Vec<u8> = g.edges().iter().map(|e| e.phase).collect();
        assert!(phases.contains(&3));
        assert!(phases.contains(&2));
    }

    #[test]
    fn node_round_trips() {
        let atlas = toy_atlas();
        let g = PredictionGraph::build(&atlas, &PredictorConfig::full());
        for c in 0..g.clusters().len() as u32 {
            for p in 0..g.n_planes() {
                for s in 0..g.n_sides() {
                    let n = g.node(c, p, s);
                    assert_eq!(g.node_cluster(n), g.clusters()[c as usize]);
                }
            }
        }
    }

    #[test]
    fn source_and_dest_nodes() {
        let atlas = toy_atlas();
        let g = PredictionGraph::build(&atlas, &PredictorConfig::full());
        let srcs: Vec<u32> = g.source_nodes(ClusterId::new(1)).collect();
        assert_eq!(srcs.len(), 2, "FROM_SRC first, TO_DST fallback");
        assert_eq!(srcs, [g.node(0, 1, 0), g.node(0, 0, 0)]);
        assert_eq!(g.source_nodes(ClusterId::new(99)).count(), 0);
        assert!(g.dest_node(ClusterId::new(3)).is_some());
        assert!(g.dest_node(ClusterId::new(99)).is_none());
    }

    fn rows(g: &PredictionGraph) -> Vec<&[InEdge]> {
        (0..g.n_nodes() as u32).map(|n| g.in_edges(n)).collect()
    }

    #[test]
    fn strict_graph_is_the_relaxed_one_minus_reversed_edges() {
        let mut atlas = toy_atlas();
        // Both directions of one pair observed: neither is a fallback,
        // and the link that sorts first lends both its latency.
        atlas.links.insert(
            (ClusterId::new(3), ClusterId::new(2)),
            LinkAnnotation {
                latency: Some(LatencyMs::new(70.0)),
                plane: Plane::TO_DST,
            },
        );
        let (strict, relaxed) = PredictionGraph::build_pair(&atlas, &PredictorConfig::full());
        let relaxed = relaxed.expect("full() allows reversed links");
        assert!(relaxed.edges().iter().any(|e| e.reversed));
        for (s, r) in rows(&strict).into_iter().zip(rows(&relaxed)) {
            let kept: Vec<InEdge> = r.iter().copied().filter(|e| !e.reversed).collect();
            assert_eq!(s, kept);
        }
        let between_2_and_3: Vec<&InEdge> = strict
            .edges()
            .iter()
            .filter(|e| e.inter && e.latency != 5.0)
            .collect();
        assert_eq!(between_2_and_3.len(), 2);
        assert!(between_2_and_3.iter().all(|e| e.latency == 7.0));
        // A config's own graph is the relaxed one exactly when it allows
        // reversed links.
        let own = PredictionGraph::build(&atlas, &PredictorConfig::full());
        assert_eq!(rows(&own), rows(&relaxed));
        let mut no_rev = PredictorConfig::full();
        no_rev.allow_reversed_links = false;
        let (only, none) = PredictionGraph::build_pair(&atlas, &no_rev);
        assert!(none.is_none());
        assert_eq!(rows(&only), rows(&strict));
    }

    #[test]
    fn graph_mode_edge_order_is_reproducible() {
        // In-edge order is relax order, so two builds of one atlas must
        // agree edge for edge (they did not while the cluster pairs sat
        // in a `HashMap`).
        let mut atlas = Atlas::default();
        for i in 0..40u32 {
            for j in [(i + 1) % 40, (i + 7) % 40, (i + 13) % 40] {
                atlas.links.insert(
                    (ClusterId::new(i), ClusterId::new(j)),
                    LinkAnnotation {
                        latency: Some(LatencyMs::new(f64::from(i + j))),
                        plane: Plane::TO_DST,
                    },
                );
            }
            atlas.cluster_as.insert(ClusterId::new(i), Asn::new(i / 2));
        }
        for cfg in [PredictorConfig::graph(), PredictorConfig::graph_asym()] {
            let a = PredictionGraph::build(&atlas, &cfg);
            let b = PredictionGraph::build(&atlas, &cfg);
            assert_eq!(rows(&a), rows(&b));
        }
    }

    #[test]
    fn edge_record_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<InEdge>(), 16);
    }
}
