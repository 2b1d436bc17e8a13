//! Differential test: the search answers what it answered before it was
//! rebuilt around the compiled index.
//!
//! The oracle below is the pre-CSR search, moved here unchanged except
//! that it reads the graph through public accessors: `BTreeSet` /
//! `BTreeMap` probes into the atlas per relaxation, a fresh
//! `Vec<Option<Label>>` per call, a binary heap of `(hops, exitq, node)`
//! triples. So is the two-`HashSet` edge builder it used to run over. The
//! shipped search must produce the same successor for every node, and
//! the shipped builder the same in-edge rows in the same order.
//!
//! A second oracle sits one level up: [`Reference::predict`] is what
//! `PathPredictor::predict_forward` did before it learnt to skip strict
//! searches, share one search between a cluster's prefixes and evict —
//! the oracle search on the strict graph with the destination *prefix's
//! own* inputs, then on the relaxed graph. The shipped predictor must
//! give the same path, or the same error, for every pair.

use inano_atlas::{Atlas, LinkAnnotation, Plane, Triple};
use inano_bench::{Scenario, ScenarioConfig};
use inano_core::config::DEFAULT_LINK_LATENCY_MS;
use inano_core::graph::{InEdge, PredictionGraph};
use inano_core::reach::AncestorSets;
use inano_core::search::search;
use inano_core::{PathPredictor, PredictorConfig, SearchCounts};
use inano_model::{Asn, ClusterId, Ipv4, LatencyMs, ModelError, Prefix, PrefixId};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::{Arc, Barrier};

mod oracle {
    use super::*;

    /// Per-node route label.
    #[derive(Clone, Copy, Debug)]
    pub struct Label {
        pub hops: u16,
        pub exit: f64,
        pub rev_hops: u16,
        pub succ: u32,
        pub next2: (Option<Asn>, Option<Asn>),
        pub phase: u8,
    }

    /// The successor of every node, `None` where no label was set.
    pub fn search(
        g: &PredictionGraph,
        atlas: &Atlas,
        cfg: &PredictorConfig,
        dest_cluster: ClusterId,
        dst_prefix: PrefixId,
        dst_as: Asn,
    ) -> Option<Vec<Option<u32>>> {
        let dest_node = g.dest_node(dest_cluster)?;
        let mut labels: Vec<Option<Label>> = vec![None; g.n_nodes()];
        labels[dest_node as usize] = Some(Label {
            hops: 0,
            exit: 0.0,
            rev_hops: 0,
            succ: dest_node,
            next2: (None, None),
            phase: 1,
        });

        // Providers constraint set, resolved once.
        let providers = if cfg.use_providers {
            atlas.providers_for(dst_prefix, dst_as).cloned()
        } else {
            None
        };

        let max_phase = cfg.n_phases();
        for phase in 1..=max_phase {
            // (Re-)seed the heap with every labelled node so newly enabled
            // edge classes get relaxed.
            let mut heap = BinaryHeap::new();
            for (idx, l) in labels.iter().enumerate() {
                if let Some(l) = l {
                    heap.push(Reverse((l.hops, quant(l.exit), idx as u32)));
                }
            }
            while let Some(Reverse((hops, exitq, node))) = heap.pop() {
                let Some(cur) = labels[node as usize] else {
                    continue;
                };
                if cur.hops != hops || quant(cur.exit) != exitq {
                    continue; // stale heap entry
                }
                let node_as = g.node_as(node);
                for e in g.in_edges(node) {
                    if e.phase > phase {
                        continue;
                    }
                    let u = e.src;
                    let u_as = g.node_as(u);
                    // Frozen labels from closed phases are immutable.
                    if let Some(ul) = &labels[u as usize] {
                        if ul.phase < phase {
                            continue;
                        }
                    }

                    let cand = if e.inter && u_as != node_as {
                        // Crossing from AS u_as into node_as.
                        if cfg.use_tuples {
                            if let Some(c_after) = first_as_after(&cur, node_as) {
                                let exempt =
                                    !e.reversed && atlas.degree(node_as) <= cfg.tuple_min_degree;
                                if !exempt && !atlas.has_triple(u_as, node_as, c_after) {
                                    continue;
                                }
                            }
                        }
                        if let Some(provs) = &providers {
                            // Final entry into the destination AS.
                            if node_as == dst_as
                                && first_as_after(&cur, node_as).is_none()
                                && !provs.contains(&u_as)
                            {
                                continue;
                            }
                        }
                        Label {
                            hops: cur.hops + 1,
                            exit: 0.0,
                            rev_hops: cur.rev_hops + u16::from(e.reversed),
                            succ: node,
                            next2: (Some(node_as), first_as_after(&cur, node_as)),
                            phase,
                        }
                    } else {
                        // Intra-AS, plane-cross or self edge.
                        Label {
                            hops: cur.hops,
                            exit: cur.exit + e.latency,
                            rev_hops: cur.rev_hops + u16::from(e.reversed),
                            succ: node,
                            next2: cur.next2,
                            phase,
                        }
                    };

                    if better(&cand, &labels[u as usize], u_as, atlas, cfg) {
                        heap.push(Reverse((cand.hops, quant(cand.exit), u)));
                        labels[u as usize] = Some(cand);
                    }
                }
            }
        }

        Some(labels.iter().map(|l| l.map(|l| l.succ)).collect())
    }

    /// First AS after `asn` on the path a label describes.
    fn first_as_after(l: &Label, asn: Asn) -> Option<Asn> {
        match l.next2 {
            (Some(a), _) if a != asn => Some(a),
            (Some(_), b) => b,
            (None, _) => None,
        }
    }

    /// Quantised exit cost for heap ordering.
    fn quant(exit: f64) -> u64 {
        (exit * 100.0).round() as u64
    }

    /// Is `cand` a better label for a node in AS `a` than `cur`?
    fn better(
        cand: &Label,
        cur: &Option<Label>,
        a: Asn,
        atlas: &Atlas,
        cfg: &PredictorConfig,
    ) -> bool {
        let Some(cur) = cur else { return true };
        if cand.hops != cur.hops {
            return cand.hops < cur.hops;
        }
        if cand.rev_hops != cur.rev_hops {
            return cand.rev_hops < cur.rev_hops;
        }
        if cfg.use_prefs {
            if let (Some(b1), Some(b2)) = (first_as_after(cand, a), first_as_after(cur, a)) {
                if b1 != b2 {
                    if atlas.prefers(a, b1, b2) {
                        return true;
                    }
                    if atlas.prefers(a, b2, b1) {
                        return false;
                    }
                }
            }
        }
        if quant(cand.exit) != quant(cur.exit) {
            return cand.exit < cur.exit;
        }
        // Deterministic final tie-break.
        cand.succ < cur.succ
    }

    /// The pre-CSR iNano-mode edge builder: in-edge rows per node, from
    /// two passes over the links with a `HashSet` each. (GRAPH mode has
    /// no such oracle: its old builder walked a `HashMap` and had no
    /// order to keep.)
    pub fn directed_in_edges(
        g: &PredictionGraph,
        atlas: &Atlas,
        cfg: &PredictorConfig,
    ) -> Vec<Vec<InEdge>> {
        let dense = |c: ClusterId| g.clusters().iter().position(|&x| x == c).unwrap() as u32;
        let mut in_edges = vec![Vec::new(); g.n_nodes()];
        // First pass: the directions actually observed, per plane.
        let mut observed: HashSet<(u32, u32, u8)> = HashSet::new();
        for (&(from, to), ann) in &atlas.links {
            let (cf, ct) = (dense(from), dense(to));
            for (plane, present) in [(0u8, ann.plane.to_dst), (1, ann.plane.from_src)] {
                if present && (plane as usize) < g.n_planes() {
                    observed.insert((cf, ct, plane));
                }
            }
        }
        // Second pass: add both directions, marking the unobserved one.
        let mut added: HashSet<(u32, u32, u8)> = HashSet::new();
        for (&(from, to), ann) in &atlas.links {
            let (cf, ct) = (dense(from), dense(to));
            let inter = atlas.as_of_cluster(from).unwrap_or_default()
                != atlas.as_of_cluster(to).unwrap_or_default();
            let lat = ann
                .latency
                .map(|l| l.ms())
                .unwrap_or(DEFAULT_LINK_LATENCY_MS);
            for (plane, present) in [(0u8, ann.plane.to_dst), (1, ann.plane.from_src)] {
                if !present || (plane as usize) >= g.n_planes() {
                    continue;
                }
                for (a, b) in [(cf, ct), (ct, cf)] {
                    let reversed = !observed.contains(&(a, b, plane));
                    if reversed && !cfg.allow_reversed_links {
                        continue;
                    }
                    if added.insert((a, b, plane)) {
                        let (u, v) = (g.node(a, plane as usize, 0), g.node(b, plane as usize, 0));
                        in_edges[v as usize].push(InEdge {
                            src: u,
                            latency: lat,
                            inter,
                            phase: 1,
                            reversed,
                        });
                    }
                }
            }
        }
        // One-way plane crossing: (c, FROM_SRC, s) → (c, TO_DST, s).
        if g.n_planes() == 2 {
            for c in 0..g.clusters().len() as u32 {
                in_edges[g.node(c, 0, 0) as usize].push(InEdge {
                    src: g.node(c, 1, 0),
                    latency: 0.0,
                    inter: false,
                    phase: 1,
                    reversed: false,
                });
            }
        }
        in_edges
    }
}

/// The strict and (where the config has one) relaxed graph of a config,
/// each with the config that describes it on its own.
fn graphs(atlas: &Atlas, cfg: &PredictorConfig) -> Vec<(PredictionGraph, PredictorConfig)> {
    let (strict, relaxed) = PredictionGraph::build_pair(atlas, cfg);
    let strict_cfg = PredictorConfig {
        allow_reversed_links: false,
        ..cfg.clone()
    };
    let mut out = vec![(strict, strict_cfg)];
    out.extend(relaxed.map(|g| (g, cfg.clone())));
    out
}

/// Search toward every cluster of every graph of `cfg` with both
/// implementations; returns how many nodes found a route, summed.
fn assert_same_as_oracle(atlas: &Atlas, cfg: &PredictorConfig, name: &str) -> usize {
    let mut routed = 0;
    for (g, graph_cfg) in graphs(atlas, cfg) {
        if !cfg.use_rel_graph {
            let rows: Vec<Vec<InEdge>> = (0..g.n_nodes() as u32)
                .map(|n| g.in_edges(n).to_vec())
                .collect();
            assert_eq!(
                rows,
                oracle::directed_in_edges(&g, atlas, &graph_cfg),
                "{name}: in-edge rows"
            );
        }
        for &dest in g.clusters() {
            // Search as the predictor would for a prefix homed there (so
            // the provider arm sees real per-prefix / per-AS sets), or as
            // for an unknown prefix of the cluster's own AS.
            let (prefix, origin) = atlas
                .prefix_cluster
                .iter()
                .find(|&(_, &c)| c == dest)
                .and_then(|(p, _)| Some((*p, atlas.prefix_as.get(p)?.1)))
                .unwrap_or((
                    PrefixId::new(u32::MAX),
                    atlas.as_of_cluster(dest).unwrap_or_default(),
                ));
            let want = oracle::search(&g, atlas, cfg, dest, prefix, origin).unwrap();
            let got = search(&g, atlas, cfg, dest, prefix, origin).unwrap();
            let got: Vec<Option<u32>> = (0..g.n_nodes() as u32).map(|n| got.successor(n)).collect();
            assert_eq!(got, want, "{name}: successors toward {dest:?}");
            routed += want.iter().flatten().count();
        }
    }
    routed
}

#[test]
fn every_destination_on_every_rung_matches_the_oracle() {
    let s = Scenario::build(ScenarioConfig::test(7));
    for (name, cfg) in PredictorConfig::ladder() {
        let routed = assert_same_as_oracle(&s.atlas, &cfg, name);
        assert!(routed > s.atlas.links.len(), "{name}: only {routed} routes");
    }
}

/// The predictor before the skip, the shared key and the eviction: both
/// graphs of a config, searched by the oracle with each destination
/// prefix's own `(prefix, origin)`. Successor arrays are remembered per
/// `(prefix, graph)` — the key the old cache had — so that asking one
/// destination from many sources costs one oracle search per graph.
struct Reference<'a> {
    atlas: &'a Atlas,
    cfg: &'a PredictorConfig,
    graphs: Vec<PredictionGraph>,
    memo: HashMap<(PrefixId, usize), Option<Vec<Option<u32>>>>,
}

impl<'a> Reference<'a> {
    fn new(atlas: &'a Atlas, cfg: &'a PredictorConfig) -> Reference<'a> {
        let (strict, relaxed) = PredictionGraph::build_pair(atlas, cfg);
        Reference {
            atlas,
            cfg,
            graphs: std::iter::once(strict).chain(relaxed).collect(),
            memo: HashMap::new(),
        }
    }

    /// Strict graph first, every source node in order, then the relaxed
    /// graph: no skip, no shared key.
    fn predict(&mut self, src: PrefixId, dst: PrefixId) -> Result<Vec<ClusterId>, ModelError> {
        let home = |p: PrefixId| {
            let home = self.atlas.prefix_cluster.get(&p).copied();
            home.ok_or_else(|| ModelError::NoPath(format!("{p} has no known cluster")))
        };
        let (src_cluster, dst_cluster) = (home(src)?, home(dst)?);
        let (atlas, cfg) = (self.atlas, self.cfg);
        let origin = atlas.prefix_as.get(&dst).map(|&(_, origin)| origin);
        let origin = origin.ok_or_else(|| ModelError::NoPath(format!("{dst} has no origin AS")))?;
        for (i, g) in self.graphs.iter().enumerate() {
            let succ = (self.memo.entry((dst, i)))
                .or_insert_with(|| oracle::search(g, atlas, cfg, dst_cluster, dst, origin))
                .as_ref()
                .ok_or_else(|| ModelError::NoPath(format!("{dst}: destination not in graph")))?;
            for node in g.source_nodes(src_cluster) {
                if let Some(path) = cluster_path(g, succ, node) {
                    return Ok(path);
                }
            }
        }
        Err(ModelError::NoPath(format!("no route {src} → {dst}")))
    }
}

/// `SearchResult::cluster_path` over an oracle successor array.
fn cluster_path(g: &PredictionGraph, succ: &[Option<u32>], from: u32) -> Option<Vec<ClusterId>> {
    let mut out = Vec::new();
    let mut cur = from;
    for _ in 0..4 * succ.len() {
        let c = g.node_cluster(cur);
        if out.last() != Some(&c) {
            out.push(c);
        }
        let next = succ[cur as usize]?;
        if next == cur {
            return Some(out);
        }
        cur = next;
    }
    None
}

/// `predict_forward` equals the reference — path, or error variant and
/// message — on every given pair; returns how many pairs routed and what
/// the shipped predictor counted meanwhile.
fn assert_predicts_as_reference(
    atlas: &Atlas,
    cfg: &PredictorConfig,
    pairs: impl IntoIterator<Item = (PrefixId, PrefixId)>,
    name: &str,
) -> (usize, SearchCounts) {
    let mut reference = Reference::new(atlas, cfg);
    let shipped = PathPredictor::new(Arc::new(atlas.clone()), cfg.clone());
    let mut routed = 0;
    for (src, dst) in pairs {
        let got = shipped.predict_forward(src, dst);
        let want = reference.predict(src, dst);
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "{name}: {src} → {dst}"
        );
        routed += usize::from(got.is_ok());
    }
    (routed, shipped.search_counts())
}

/// Every ordered pair of the atlas's prefixes, a prefix with itself
/// included, plus a prefix the atlas does not know on either side.
fn all_pairs(atlas: &Atlas) -> Vec<(PrefixId, PrefixId)> {
    let known: BTreeSet<PrefixId> = (atlas.prefix_cluster.keys())
        .chain(atlas.prefix_as.keys())
        .copied()
        .collect();
    let ids: Vec<PrefixId> = (known.into_iter())
        .chain([PrefixId::new(u32::MAX)])
        .collect();
    (ids.iter())
        .flat_map(|&s| ids.iter().map(move |&d| (s, d)))
        .collect()
}

#[test]
fn every_prefix_pair_on_every_rung_predicts_as_the_reference() {
    let s = Scenario::build(ScenarioConfig::test(7));
    let pairs = all_pairs(&s.atlas);
    for (name, cfg) in PredictorConfig::ladder() {
        let (routed, counts) =
            assert_predicts_as_reference(&s.atlas, &cfg, pairs.iter().copied(), name);
        let (runs, skipped) = (counts.runs, counts.strict_skipped);
        assert!(routed > pairs.len() / 8, "{name}: only {routed} routed");
        // Far fewer searches than the two-per-prefix the old key cost,
        // and (outside GRAPH without directions, where every link is a
        // way out both ways) strict searches that were never asked for.
        assert!(runs < s.atlas.prefix_as.len() as u64, "{name}: {runs} runs");
        assert!(skipped > 0 || name == "GRAPH", "{name}: nothing skipped");
    }
}

/// 4,096 seeded pairs of the `experiment` world — 512 destinations, 8
/// sources each — on every rung. Release only: the world alone takes
/// half a minute to build unoptimised (CI's search-differential step
/// runs this file with `--release`).
#[test]
#[cfg_attr(debug_assertions, ignore = "experiment scale: run with --release")]
fn a_sample_of_the_experiment_world_predicts_as_the_reference() {
    let s = Scenario::build(ScenarioConfig::experiment(42));
    let ids: Vec<PrefixId> = s.atlas.prefix_as.keys().copied().collect();
    let mut rng = TestRng::from_name("experiment sample");
    let pick = |rng: &mut TestRng| ids[rng.uniform(ids.len() as u64) as usize];
    let mut pairs = Vec::with_capacity(4096);
    for _ in 0..512 {
        let dst = pick(&mut rng);
        pairs.extend((0..8).map(|_| (pick(&mut rng), dst)));
    }
    for (name, cfg) in PredictorConfig::ladder() {
        let (routed, counts) =
            assert_predicts_as_reference(&s.atlas, &cfg, pairs.iter().copied(), name);
        assert!(routed > pairs.len() / 16, "{name}: only {routed} routed");
        assert!(
            counts.strict_skipped > 0 || name == "GRAPH",
            "{name}: nothing skipped"
        );
    }
}

/// A random atlas over at most 12 clusters and 6 ASes: links in either
/// or both planes and directions (self-links and unannotated latencies
/// included), with random degrees, tuples (a few stored non-canonically
/// or naming an AS without a cluster), preferences (contradictory pairs
/// included), per-AS and per-prefix providers, and relationships. About
/// one cluster in four is a stub that links only ever enter, and most
/// clusters are home to several prefixes — some announced by a foreign
/// AS, some with a provider set of their own.
fn random_atlas(rng: &mut TestRng) -> Atlas {
    let mut a = Atlas::default();
    let n = 2 + rng.uniform(11) as u32;
    let n_as = 1 + rng.uniform(6) as u32;
    // AS 9 never owns a cluster.
    let any_as = |rng: &mut TestRng| {
        Asn::new(if rng.uniform(8) == 0 {
            9
        } else {
            rng.uniform(u64::from(n_as)) as u32
        })
    };
    let cl = |rng: &mut TestRng| ClusterId::new(rng.uniform(u64::from(n)) as u32);
    for c in 0..n {
        // One cluster in twelve has no recorded AS.
        if rng.uniform(12) != 0 {
            a.cluster_as.insert(
                ClusterId::new(c),
                Asn::new(rng.uniform(u64::from(n_as)) as u32),
            );
        }
    }
    let stub: Vec<bool> = (0..n).map(|_| rng.uniform(4) == 0).collect();
    for _ in 0..rng.uniform(4 * u64::from(n)) {
        let key = match (cl(rng), cl(rng)) {
            // Observed into a stub, never out of one.
            (a, b) if stub[a.raw() as usize] => (b, a),
            key => key,
        };
        if stub[key.0.raw() as usize] {
            continue;
        }
        // Few distinct values, so exit latencies tie often.
        let latency = (rng.uniform(4) != 0).then(|| LatencyMs::new(rng.uniform(4) as f64 * 0.5));
        let plane = Plane::from_bits(1 + rng.uniform(3) as u8);
        let e = a
            .links
            .entry(key)
            .or_insert(LinkAnnotation { latency, plane });
        e.plane = e.plane.union(plane);
    }
    for asn in 0..n_as {
        if rng.uniform(4) != 0 {
            a.as_degree.insert(Asn::new(asn), rng.uniform(12) as u32);
        }
    }
    for _ in 0..rng.uniform(40) {
        let (x, y, z) = (any_as(rng), any_as(rng), any_as(rng));
        a.tuples.insert(if rng.uniform(10) == 0 {
            Triple(x, y, z)
        } else {
            Triple::canonical(x, y, z)
        });
    }
    for _ in 0..rng.uniform(20) {
        a.prefs.insert((any_as(rng), any_as(rng), any_as(rng)));
    }
    // One prefix per cluster, then as many again wherever they fall.
    for p in 0..n + rng.uniform(u64::from(n) + 1) as u32 {
        let pid = PrefixId::new(p);
        let c = if p < n { ClusterId::new(p) } else { cl(rng) };
        a.prefix_cluster.insert(pid, c);
        // Mostly the cluster's own AS as origin; sometimes another, or
        // one that owns no cluster.
        let origin = match rng.uniform(6) {
            0 => any_as(rng),
            _ => a.as_of_cluster(c).unwrap_or_default(),
        };
        a.prefix_as
            .insert(pid, (Prefix::new(Ipv4(p << 16), 16), origin));
        let some_ases = |rng: &mut TestRng| (0..rng.uniform(4)).map(|_| any_as(rng)).collect();
        if rng.uniform(3) == 0 {
            a.providers.insert(origin, some_ases(rng));
        }
        if rng.uniform(6) == 0 {
            a.prefix_providers.insert(pid, some_ases(rng));
        }
    }
    use inano_model::Relationship::*;
    for x in 0..n_as {
        for y in 0..n_as {
            if x != y && rng.uniform(2) == 0 {
                let rel = [Customer, Provider, Peer, Sibling][rng.uniform(4) as usize];
                a.inferred_rels.insert((Asn::new(x), Asn::new(y)), rel);
            }
        }
    }
    a
}

prop_compose! {
    fn arb_config()(
        rung in 0usize..5,
        tuple_min_degree in 0u32..8,
        allow_reversed_links in any::<bool>(),
        flip in 0usize..5,
    ) -> PredictorConfig {
        let mut cfg = PredictorConfig::ladder().swap_remove(rung).1;
        cfg.tuple_min_degree = tuple_min_degree;
        cfg.allow_reversed_links = allow_reversed_links;
        // Off-ladder combinations too: one refinement toggled.
        match flip {
            0 => cfg.use_tuples = !cfg.use_tuples,
            1 => cfg.use_prefs = !cfg.use_prefs,
            2 => cfg.use_providers = !cfg.use_providers,
            3 => cfg.use_from_src = !cfg.use_from_src,
            _ => {}
        }
        cfg
    }
}

proptest! {
    #[test]
    fn random_small_atlases_match_the_oracle(seed in any::<u64>(), cfg in arb_config()) {
        let atlas = random_atlas(&mut TestRng::from_name(&seed.to_string()));
        assert_same_as_oracle(&atlas, &cfg, "random");
    }

    #[test]
    fn random_small_atlases_predict_as_the_reference(seed in any::<u64>(), cfg in arb_config()) {
        let atlas = random_atlas(&mut TestRng::from_name(&seed.to_string()));
        assert_predicts_as_reference(&atlas, &cfg, all_pairs(&atlas), "random");
    }
}

/// Every node from which `g`'s strict edges lead to `dst`'s destination
/// node: a plain breadth-first walk back along the in-edges that are not
/// `reversed`.
fn strictly_reaching(g: &PredictionGraph, dst: ClusterId) -> Vec<bool> {
    let mut seen = vec![false; g.n_nodes()];
    let Some(dest) = g.dest_node(dst) else {
        return seen;
    };
    seen[dest as usize] = true;
    let mut todo = VecDeque::from([dest]);
    while let Some(v) = todo.pop_front() {
        for e in g.in_edges(v).iter().filter(|e| !e.reversed) {
            if !std::mem::replace(&mut seen[e.src as usize], true) {
                todo.push_back(e.src);
            }
        }
    }
    seen
}

/// `strict_reaches` on both graphs of `cfg` equals the plain walk for
/// every ordered pair of home clusters, asked through an ancestor cache
/// of two sets so that it evicts. Returns the pairs of distinct clusters
/// whose source has a strict exit and still cannot reach.
fn assert_reach_is_exact(atlas: &Atlas, cfg: &PredictorConfig, name: &str) -> usize {
    let homes: BTreeSet<ClusterId> = atlas.prefix_cluster.values().copied().collect();
    let (strict, relaxed) = PredictionGraph::build_pair(atlas, cfg);
    let mut exit_but_unreachable = 0;
    for g in std::iter::once(&strict).chain(&relaxed) {
        let mut sets = AncestorSets::new(2);
        for &dst in &homes {
            let reaching = strictly_reaching(&strict, dst);
            for &src in &homes {
                let want = strict.source_nodes(src).any(|n| reaching[n as usize]);
                let got = g.strict_reaches(src, dst, &mut sets);
                assert_eq!(got, want, "{name}: {src:?} → {dst:?}");
                let counted = std::ptr::eq(g, &strict) && src != dst;
                exit_but_unreachable += usize::from(counted && !want && g.has_strict_exit(src));
            }
        }
    }
    exit_but_unreachable
}

proptest! {
    #[test]
    fn strict_reachability_is_a_plain_walk_of_the_strict_graph(seed in any::<u64>()) {
        let atlas = random_atlas(&mut TestRng::from_name(&seed.to_string()));
        for (name, cfg) in PredictorConfig::ladder() {
            assert_reach_is_exact(&atlas, &cfg, name);
        }
    }
}

/// The generator reaches what the predictor's shortcuts key on.
#[test]
fn random_atlases_cover_dead_ends_shared_clusters_and_anomalous_prefixes() {
    let (mut dead_ends, mut shared, mut foreign, mut refined) = (0, 0, 0, 0);
    let mut unreachable = 0;
    for seed in 0..64 {
        let a = random_atlas(&mut TestRng::from_name(&format!("coverage {seed}")));
        let (strict, _) = PredictionGraph::build_pair(&a, &PredictorConfig::full());
        let homes: Vec<ClusterId> = a.prefix_cluster.values().copied().collect();
        dead_ends += homes
            .iter()
            .filter(|&&c| !strict.has_strict_exit(c))
            .count();
        unreachable += assert_reach_is_exact(&a, &PredictorConfig::full(), "coverage");
        shared += homes.len() - homes.iter().collect::<BTreeSet<_>>().len();
        let own = |p: &PrefixId| a.as_of_cluster(a.prefix_cluster[p]) == Some(a.prefix_as[p].1);
        foreign += a.prefix_as.keys().filter(|p| !own(p)).count();
        refined += a.prefix_providers.len();
    }
    assert!(
        dead_ends > 64 && unreachable > 256 && shared > 64 && foreign > 16 && refined > 16,
        "{dead_ends} dead-end homes, {unreachable} pairs with an exit but no strict route, \
         {shared} shared, {foreign} foreign, {refined} refined"
    );
}

/// Intra-AS links slow enough (~14 hours) that quantised exits pass 32
/// bits and queue entries take the unpacked form.
#[test]
fn exits_too_wide_to_pack_still_pop_in_order() {
    let mut a = Atlas::default();
    let cl = ClusterId::new;
    // ASes 0..4, clusters 2k and 2k+1 in AS k; two parallel chains with
    // different (huge) intra-AS latencies so the order matters.
    for k in 0..4u32 {
        a.cluster_as.insert(cl(2 * k), Asn::new(k));
        a.cluster_as.insert(cl(2 * k + 1), Asn::new(k));
        a.cluster_as.insert(cl(100 + k), Asn::new(k));
        for (mid, lat) in [(2 * k + 1, 5e7), (100 + k, 5e7 + 0.02)] {
            for (f, t) in [(2 * k, mid), (mid, 2 * k)] {
                a.links.insert(
                    (cl(f), cl(t)),
                    LinkAnnotation {
                        latency: Some(LatencyMs::new(lat)),
                        plane: Plane::TO_DST,
                    },
                );
            }
        }
        if k > 0 {
            for mid in [2 * k - 1, 100 + k - 1] {
                a.links.insert(
                    (cl(mid), cl(2 * k)),
                    LinkAnnotation {
                        latency: Some(LatencyMs::new(1.0)),
                        plane: Plane::TO_DST,
                    },
                );
            }
        }
    }
    let mut cfg = PredictorConfig::full();
    cfg.use_tuples = false;
    let routed = assert_same_as_oracle(&a, &cfg, "wide");
    assert!(routed > 12 * 6, "{routed}");
}

fn queries(atlas: &Atlas, n: usize) -> Vec<(Ipv4, Ipv4)> {
    let ips: Vec<Ipv4> = atlas.prefix_as.values().map(|(p, _)| p.nth(1)).collect();
    (0..n)
        .map(|i| (ips[(i * 31) % ips.len()], ips[(i * 17 + 5) % ips.len()]))
        .collect()
}

fn answers(p: &PathPredictor, pairs: &[(Ipv4, Ipv4)]) -> String {
    format!("{:?}", p.query_batch(pairs))
}

#[test]
fn scratch_does_not_leak_across_sizes_or_predictors() {
    // One thread, so one scratch: a large atlas, then a smaller one,
    // then the large one again. A fresh thread (fresh scratch) answering
    // each alone is the reference.
    let large = Arc::new(Scenario::build(ScenarioConfig::test(7)).atlas);
    let small = Arc::new(random_atlas(&mut TestRng::from_name("small 3")));
    let (lq, sq) = (queries(&large, 150), queries(&small, 40));
    let alone = |atlas: &Arc<Atlas>, cfg: PredictorConfig, q: &[(Ipv4, Ipv4)]| {
        let (atlas, q) = (Arc::clone(atlas), q.to_vec());
        std::thread::spawn(move || answers(&PathPredictor::new(atlas, cfg), &q))
            .join()
            .unwrap()
    };
    let mut no_tuples = PredictorConfig::full();
    no_tuples.use_tuples = false;
    let want_large = alone(&large, PredictorConfig::full(), &lq);
    let want_small = alone(&small, no_tuples.clone(), &sq);
    let want_graph = alone(&large, PredictorConfig::graph(), &lq);
    assert!(want_large.contains("Ok(") && want_small.contains("Ok("));

    let first = PathPredictor::new(Arc::clone(&large), PredictorConfig::full());
    assert_eq!(answers(&first, &lq), want_large);
    let second = PathPredictor::new(Arc::clone(&small), no_tuples);
    assert_eq!(answers(&second, &sq), want_small);
    // A different node space over the same atlas, then the first again,
    // from a new predictor so nothing comes from its search cache.
    let third = PathPredictor::new(Arc::clone(&large), PredictorConfig::graph());
    assert_eq!(answers(&third, &lq), want_graph);
    let again = PathPredictor::new(Arc::clone(&large), PredictorConfig::full());
    assert_eq!(answers(&again, &lq), want_large);
}

#[test]
fn scratch_does_not_leak_across_sizes_or_predictors_inline() {
    // `query_batch` may search on helper threads, each with a fresh
    // scratch; `predict` searches on its caller. So this drives the same
    // large → small → GRAPH → large sequence through `predict` on this
    // one thread, against a fresh thread answering each alone.
    let large = Arc::new(Scenario::build(ScenarioConfig::test(7)).atlas);
    let small = Arc::new(random_atlas(&mut TestRng::from_name("small 3")));
    let (lq, sq) = (queries(&large, 150), queries(&small, 40));
    let inline = |p: &PathPredictor, q: &[(Ipv4, Ipv4)]| -> String {
        let predict = |(s, d)| p.predict(p.prefix_of(s)?, p.prefix_of(d)?);
        format!(
            "{:?}",
            q.iter().map(|&pair| predict(pair)).collect::<Vec<_>>()
        )
    };
    let alone = |atlas: &Arc<Atlas>, cfg: PredictorConfig, q: &[(Ipv4, Ipv4)]| {
        let (atlas, q) = (Arc::clone(atlas), q.to_vec());
        std::thread::spawn(move || inline(&PathPredictor::new(atlas, cfg), &q))
            .join()
            .unwrap()
    };
    let mut no_tuples = PredictorConfig::full();
    no_tuples.use_tuples = false;
    let want_large = alone(&large, PredictorConfig::full(), &lq);
    let want_small = alone(&small, no_tuples.clone(), &sq);
    let want_graph = alone(&large, PredictorConfig::graph(), &lq);
    assert!(want_large.contains("Ok(") && want_small.contains("Ok("));

    let first = PathPredictor::new(Arc::clone(&large), PredictorConfig::full());
    assert_eq!(inline(&first, &lq), want_large);
    let second = PathPredictor::new(Arc::clone(&small), no_tuples);
    assert_eq!(inline(&second, &sq), want_small);
    let third = PathPredictor::new(Arc::clone(&large), PredictorConfig::graph());
    assert_eq!(inline(&third, &lq), want_graph);
    let again = PathPredictor::new(Arc::clone(&large), PredictorConfig::full());
    assert_eq!(inline(&again, &lq), want_large);
}

/// A ring of `n` hubs linked both ways, each with a stub that is only
/// ever seen from its hub; one prefix per cluster. A route out of a stub
/// exists only on the relaxed graph, so `2n` destinations are up to `4n`
/// distinct searches.
fn stub_ring(n: u32) -> Atlas {
    let mut a = Atlas::default();
    let mut link = |from: u32, to: u32| {
        let ann = LinkAnnotation {
            latency: Some(LatencyMs::new(1.0)),
            plane: Plane::TO_DST,
        };
        a.links
            .insert((ClusterId::new(from), ClusterId::new(to)), ann);
    };
    for hub in 0..n {
        link(hub, (hub + 1) % n);
        link((hub + 1) % n, hub);
        link(hub, n + hub);
    }
    for c in 0..2 * n {
        a.cluster_as.insert(ClusterId::new(c), Asn::new(c));
        a.prefix_cluster.insert(PrefixId::new(c), ClusterId::new(c));
        a.prefix_as.insert(
            PrefixId::new(c),
            (Prefix::new(Ipv4(c << 8), 24), Asn::new(c)),
        );
    }
    a
}

#[test]
fn concurrent_queries_agree_with_a_single_thread() {
    // Past 512 distinct searches, so entries are evicted — and threads
    // meet on a search one of them is still running — while others read.
    let atlas = Arc::new(stub_ring(300));
    let mut cfg = PredictorConfig::full();
    cfg.use_tuples = false;
    let pairs = queries(&atlas, 700);
    let alone = PathPredictor::new(Arc::clone(&atlas), cfg.clone());
    let want = answers(&alone, &pairs);
    assert!(!want.contains("Err("), "every pair routes");
    let counts = alone.search_counts();
    assert!(
        counts.runs > 600 && counts.strict_skipped > 300,
        "{counts:?}"
    );
    let shared = PathPredictor::new(atlas, cfg);
    let start = Barrier::new(4);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    answers(&shared, &pairs)
                })
            })
            .collect();
        for w in workers {
            assert_eq!(w.join().unwrap(), want);
        }
    });
}
