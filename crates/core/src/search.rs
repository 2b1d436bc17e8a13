//! The destination-rooted route search (Figure 1 of the paper, plus the
//! §4.3 refinements).
//!
//! A label-*correcting* search from the destination's down/`TO_DST` node
//! over reverse edges. The label kept per node is
//! `[AS hops, exit latency]` (lexicographic, as in §4.2.1: hops dominate,
//! the exit component accumulates intra-AS latency and resets to zero at
//! AS boundaries), and nodes leave the queue in `(hops, quantised exit,
//! node)` order — but what decides between two labels also includes
//! reversed-hop counts and observed preferences, which are not monotone
//! in that key, so a node can be re-opened after it was popped. The pop
//! order and each node's in-edge order therefore decide answers, not
//! just costs, and both are kept exactly. GRAPH mode runs three phases
//! over the up/down graph so customer routes beat peer routes beat
//! provider routes; labels settled in an earlier phase are frozen.
//!
//! Refinement hooks, applied during relaxation of an inter-AS edge
//! `v(A) → w(B)`:
//! * **3-tuple check**: the AS triple `(A, B, C)` — `C` being the first
//!   AS after `B` on `w`'s chosen path — must have been observed, unless
//!   `B`'s degree is at most the threshold (§4.3.2);
//! * **provider check**: when `B` is the destination AS and `w`'s path
//!   never leaves it, `A` must be an observed provider (ingress) for the
//!   destination prefix (§4.3.4);
//! * **preferences**: equal-hop candidates at `v` are compared by the
//!   observed preference of `A` between the two next ASes, ahead of the
//!   exit-latency comparison (§4.3.3).
//!
//! Every one of those is answered from the graph's compiled index; the
//! pass itself allocates nothing but the successor array it returns,
//! whose making also counts the nodes labelled: what the tree costs to
//! rebuild, by which the predictor's search cache evicts.

use crate::config::PredictorConfig;
use crate::graph::PredictionGraph;
use crate::index::{AtlasIndex, NO_AS};
use inano_atlas::Atlas;
use inano_model::{Asn, ClusterId, PrefixId};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// "Unlabelled" in a successor array.
const NO_NODE: u32 = u32::MAX;

/// Per-node route label (32 bytes). Whether a node is labelled at all,
/// and in which phase, lives beside it in `Scratch::phase`.
#[derive(Clone, Copy)]
struct Label {
    exit: f64,
    /// `quant(exit)`, computed once when the label is made.
    exitq: u64,
    /// The forward successor node (toward the destination).
    succ: u32,
    /// First two distinct ASes (dense) after this node's AS on the path;
    /// `NO_AS` when the path stays in this AS to the end.
    n1: u32,
    n2: u32,
    hops: u16,
    /// Inter-AS hops taken over reversed (unobserved-direction) edges;
    /// fewer is better at equal AS-hop count.
    rev_hops: u16,
}

impl Label {
    /// First AS after `asn` on the path this label describes.
    fn first_as_after(&self, asn: u32) -> u32 {
        if self.n1 != asn {
            self.n1
        } else {
            self.n2
        }
    }
}

/// A queue entry, unpacked: `(hops, exitq, node)`.
type Entry = (u16, u64, u32);

/// The search's priority queue: pops in ascending `(hops, exitq, node)`
/// order, duplicates included, exactly as a binary heap of those triples
/// would. A pop at `h` hops only ever pushes `h` or `h + 1`, so one level
/// is live at a time: it is a heap of 8-byte packed `exitq << 32 | node`
/// keys, and every other level waits as an unsorted bucket.
#[derive(Default)]
struct Queue {
    level: usize,
    live: BinaryHeap<Reverse<u64>>,
    buckets: Vec<Vec<Reverse<u64>>>,
    /// Entries whose `exitq` does not fit 32 bits (an exit latency past
    /// ~12 hours: only a corrupt atlas). Each sorts after every packed
    /// entry of its level, so a level drains `live` first, then these.
    wide: BinaryHeap<Reverse<Entry>>,
}

impl Queue {
    fn push(&mut self, hops: u16, exitq: u64, node: u32) {
        let h = usize::from(hops);
        debug_assert!(h >= self.level);
        if exitq > u64::from(u32::MAX) {
            self.wide.push(Reverse((hops, exitq, node)));
            return;
        }
        let key = Reverse(exitq << 32 | u64::from(node));
        if h == self.level {
            self.live.push(key);
            return;
        }
        if self.buckets.len() <= h {
            self.buckets.resize_with(h + 1, Vec::new);
        }
        self.buckets[h].push(key);
    }

    /// The least `(hops, exitq, node)`; `None` leaves the queue empty and
    /// back at level 0.
    fn pop(&mut self) -> Option<Entry> {
        loop {
            // Pushes are `u16` hops, so a level that yields fits one.
            if let Some(Reverse(key)) = self.live.pop() {
                return Some((self.level as u16, key >> 32, key as u32));
            }
            let next_wide = self.wide.peek().map(|w| usize::from(w.0 .0));
            if next_wide == Some(self.level) {
                return self.wide.pop().map(|w| w.0);
            }
            if self.level + 1 >= self.buckets.len() && self.wide.is_empty() {
                self.level = 0;
                return None;
            }
            self.level += 1;
            if let Some(bucket) = self.buckets.get_mut(self.level) {
                // The drained heap's storage becomes the emptied bucket.
                let spare = std::mem::take(&mut self.live).into_vec();
                self.live = BinaryHeap::from(std::mem::replace(bucket, spare));
            }
        }
    }
}

/// What one search needs besides its inputs, kept per thread and reused.
/// A search borrows it for the length of one call and reads nothing from
/// it that it has not first written in that call, so it may be handed
/// graphs of any size, from any predictor, in any order.
#[derive(Default)]
struct Scratch {
    labels: Vec<Label>,
    /// Per node: 0 = unlabelled, else the phase that last improved the
    /// label (labels from earlier, already-closed phases are frozen).
    phase: Vec<u8>,
    queue: Queue,
    /// The destination's provider set as sorted dense ASes.
    providers: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// The result of one destination-rooted search: the forward successor of
/// every node that found a route.
pub struct SearchResult {
    pub dest_cluster: ClusterId,
    succ: Vec<u32>,
    labelled: u32,
}

impl SearchResult {
    /// How many nodes found a route, the destination's included.
    pub fn labelled(&self) -> u32 {
        self.labelled
    }

    /// The next node toward the destination (the destination node is its
    /// own successor); `None` for a node no route was found from.
    pub fn successor(&self, node: u32) -> Option<u32> {
        Some(self.succ[node as usize]).filter(|&s| s != NO_NODE)
    }

    /// Reconstruct the forward cluster path from a node, collapsing
    /// layer transitions within a cluster.
    pub fn cluster_path(&self, g: &PredictionGraph, from: u32) -> Option<Vec<ClusterId>> {
        self.successor(from)?;
        let mut out: Vec<ClusterId> = Vec::with_capacity(16);
        let mut cur = from;
        for _ in 0..4 * self.succ.len() {
            let c = g.node_cluster(cur);
            if out.last() != Some(&c) {
                out.push(c);
            }
            let next = self.successor(cur)?;
            if next == cur {
                return Some(out); // reached the destination node
            }
            cur = next;
        }
        None // defensive: cycle in successor chain
    }
}

/// Run the search toward `dest_cluster` (the home of `dst_prefix`,
/// owned by `dst_as`).
pub fn search(
    g: &PredictionGraph,
    atlas: &Atlas,
    cfg: &PredictorConfig,
    dest_cluster: ClusterId,
    dst_prefix: PrefixId,
    dst_as: Asn,
) -> Option<SearchResult> {
    let dest_node = g.dest_node(dest_cluster)?;
    let idx = g.index();
    // Providers constraint set, resolved once.
    let providers = if cfg.use_providers {
        atlas.providers_for(dst_prefix, dst_as)
    } else {
        None
    };
    SCRATCH.with_borrow_mut(|s| {
        // A provider owning no graph node can never be the AS an edge
        // comes from, and an origin AS owning none never equals a node's.
        let dense_providers = providers.into_iter().flatten();
        s.providers.clear();
        s.providers
            .extend(dense_providers.filter_map(|&a| idx.dense_as(a)));
        let dst_as = idx.dense_as(dst_as).unwrap_or(NO_AS);
        label_pass(g, idx, cfg, dest_node, dst_as, providers.is_some(), s);
        let mut labelled = 0;
        let succ = (s.phase.iter().zip(&s.labels))
            .map(|(&phase, l)| if phase == 0 { NO_NODE } else { l.succ })
            .inspect(|&next| labelled += u32::from(next != NO_NODE))
            .collect();
        Some(SearchResult {
            dest_cluster,
            succ,
            labelled,
        })
    })
}

/// Label every node that can reach `dest_node`, into `s.labels` /
/// `s.phase`.
fn label_pass(
    g: &PredictionGraph,
    idx: &AtlasIndex,
    cfg: &PredictorConfig,
    dest_node: u32,
    dst_as: u32,
    provider_constrained: bool,
    s: &mut Scratch,
) {
    let Scratch {
        labels,
        phase: labelled_in,
        queue,
        providers,
    } = s;
    let n = g.n_nodes();
    labelled_in.clear();
    labelled_in.resize(n, 0);
    let at_dest = Label {
        exit: 0.0,
        exitq: 0,
        succ: dest_node,
        n1: NO_AS,
        n2: NO_AS,
        hops: 0,
        rev_hops: 0,
    };
    labels.resize(n, at_dest);
    labels[dest_node as usize] = at_dest;
    labelled_in[dest_node as usize] = 1;

    for phase in 1..=cfg.n_phases() {
        // (Re-)seed the queue with every labelled node so newly enabled
        // edge classes get relaxed.
        for (node, _) in labelled_in.iter().enumerate().filter(|(_, &p)| p != 0) {
            queue.push(labels[node].hops, labels[node].exitq, node as u32);
        }
        while let Some((hops, exitq, node)) = queue.pop() {
            let cur = labels[node as usize];
            if cur.hops != hops || cur.exitq != exitq {
                continue; // stale queue entry
            }
            let node_as = idx.node_as[node as usize];
            let after = cur.first_as_after(node_as);
            for e in g.in_edges(node) {
                if e.phase > phase {
                    continue;
                }
                let u = e.src as usize;
                let u_as = idx.node_as[u];
                // Frozen labels from closed phases are immutable.
                let had = labelled_in[u];
                if had != 0 && had < phase {
                    continue;
                }
                let crossing = e.inter && u_as != node_as;
                // More hops than `u` already has can never win; said
                // first, it spares the policy lookups below.
                let cand_hops = cur.hops + u16::from(crossing);
                if had != 0 && cand_hops > labels[u].hops {
                    continue;
                }

                let cand = if crossing {
                    // Crossing from AS u_as into node_as.
                    if cfg.use_tuples && after != NO_AS {
                        // Low-degree middle ASes are exempt (their
                        // exports are under-observed, §4.3.2) — but
                        // only on observed-direction edges. A
                        // reversed edge has no observational support
                        // of its own, so it must be licensed by an
                        // observed triple (commutativity makes
                        // inbound observations license outbound
                        // reverse traversal); otherwise reversed
                        // shortcuts through stubs would fabricate
                        // transit the Internet never provides.
                        let exempt = !e.reversed && idx.low_degree[node_as as usize];
                        if !exempt && !idx.has_triple(u_as, node_as, after) {
                            continue;
                        }
                    }
                    // Final entry into the destination AS.
                    if provider_constrained
                        && node_as == dst_as
                        && after == NO_AS
                        && providers.binary_search(&u_as).is_err()
                    {
                        continue;
                    }
                    Label {
                        hops: cand_hops,
                        exit: 0.0,
                        exitq: 0,
                        rev_hops: cur.rev_hops + u16::from(e.reversed),
                        succ: node,
                        n1: node_as,
                        n2: after,
                    }
                } else {
                    // Intra-AS, plane-cross or self edge.
                    let exit = cur.exit + e.latency;
                    Label {
                        hops: cand_hops,
                        exit,
                        exitq: quant(exit),
                        rev_hops: cur.rev_hops + u16::from(e.reversed),
                        succ: node,
                        n1: cur.n1,
                        n2: cur.n2,
                    }
                };

                if had == 0 || better(&cand, &labels[u], u_as, idx, cfg) {
                    queue.push(cand.hops, cand.exitq, e.src);
                    labels[u] = cand;
                    labelled_in[u] = phase;
                }
            }
        }
    }
}

/// Quantised exit cost for queue ordering (0.01 ms resolution keeps the
/// ordering total and deterministic).
fn quant(exit: f64) -> u64 {
    (exit * 100.0).round() as u64
}

/// Is `cand` a better label for a node in AS `a` than `cur`?
fn better(cand: &Label, cur: &Label, a: u32, idx: &AtlasIndex, cfg: &PredictorConfig) -> bool {
    if cand.hops != cur.hops {
        return cand.hops < cur.hops;
    }
    if cand.rev_hops != cur.rev_hops {
        // Paths sticking to observed link directions win: physical
        // observation is stronger evidence than inferred preference.
        return cand.rev_hops < cur.rev_hops;
    }
    if cfg.use_prefs {
        // Preference between the next ASes, when both are known and
        // differ (§4.3.3: applies to routes of the same length).
        let (b1, b2) = (cand.first_as_after(a), cur.first_as_after(a));
        if b1 != NO_AS && b2 != NO_AS && b1 != b2 {
            if idx.prefers(a, b1, b2) {
                return true;
            }
            if idx.prefers(a, b2, b1) {
                return false;
            }
        }
    }
    if cand.exitq != cur.exitq {
        return cand.exit < cur.exit;
    }
    // Deterministic final tie-break.
    cand.succ < cur.succ
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_atlas::{LinkAnnotation, Plane, Triple};
    use inano_model::LatencyMs;

    /// Line topology 1→2→3→4 plus shortcut 1→5→4; each cluster its own AS.
    fn atlas_line() -> Atlas {
        let mut a = Atlas::default();
        let cl = ClusterId::new;
        for (f, t, lat) in [
            (1u32, 2u32, 1.0),
            (2, 3, 1.0),
            (3, 4, 1.0),
            (1, 5, 1.0),
            (5, 4, 1.0),
        ] {
            a.links.insert(
                (cl(f), cl(t)),
                LinkAnnotation {
                    latency: Some(LatencyMs::new(lat)),
                    plane: Plane::TO_DST,
                },
            );
        }
        for c in 1..=5u32 {
            a.cluster_as.insert(cl(c), Asn::new(c));
            a.as_degree.insert(Asn::new(c), 10); // above tuple threshold
        }
        a
    }

    fn run(atlas: &Atlas, cfg: &PredictorConfig) -> (PredictionGraph, SearchResult) {
        let g = PredictionGraph::build(atlas, cfg);
        let r = search(
            &g,
            atlas,
            cfg,
            ClusterId::new(4),
            PrefixId::new(0),
            Asn::new(4),
        )
        .unwrap();
        (g, r)
    }

    fn path_of(g: &PredictionGraph, r: &SearchResult, src: u32) -> Vec<u32> {
        r.cluster_path(g, src)
            .unwrap()
            .iter()
            .map(|c| c.raw())
            .collect()
    }

    fn src_node(g: &PredictionGraph, c: u32) -> u32 {
        g.source_nodes(ClusterId::new(c)).last().unwrap()
    }

    #[test]
    fn shortest_as_path_wins_without_tuples() {
        let atlas = atlas_line();
        let mut cfg = PredictorConfig::with_tuples();
        cfg.use_tuples = false;
        cfg.use_from_src = false;
        let (g, r) = run(&atlas, &cfg);
        // 1→5→4 (3 ASes) beats 1→2→3→4 (4 ASes).
        assert_eq!(path_of(&g, &r, src_node(&g, 1)), vec![1, 5, 4]);
    }

    #[test]
    fn tuple_check_blocks_unobserved_transit() {
        let mut atlas = atlas_line();
        // Only the long path's triples are observed.
        for (a, b, c) in [(1u32, 2u32, 3u32), (2, 3, 4)] {
            atlas
                .tuples
                .insert(Triple::canonical(Asn::new(a), Asn::new(b), Asn::new(c)));
        }
        let mut cfg = PredictorConfig::with_tuples();
        cfg.use_from_src = false;
        let (g, r) = run(&atlas, &cfg);
        // (1,5,4) unobserved and AS5's degree is 10 > 5 ⇒ blocked.
        assert_eq!(path_of(&g, &r, src_node(&g, 1)), vec![1, 2, 3, 4]);
    }

    #[test]
    fn low_degree_middle_as_is_exempt() {
        let mut atlas = atlas_line();
        for (a, b, c) in [(1u32, 2u32, 3u32), (2, 3, 4)] {
            atlas
                .tuples
                .insert(Triple::canonical(Asn::new(a), Asn::new(b), Asn::new(c)));
        }
        // Drop AS5's degree to the threshold: check skipped (§4.3.2,
        // "visibility into ASes at the edge is limited").
        atlas.as_degree.insert(Asn::new(5), 3);
        let mut cfg = PredictorConfig::with_tuples();
        cfg.use_from_src = false;
        let (g, r) = run(&atlas, &cfg);
        assert_eq!(path_of(&g, &r, src_node(&g, 1)), vec![1, 5, 4]);
    }

    #[test]
    fn provider_check_blocks_non_provider_entry() {
        let mut atlas = atlas_line();
        // Destination AS4's only observed provider is AS3 (not AS5).
        atlas
            .providers
            .insert(Asn::new(4), [Asn::new(3)].into_iter().collect());
        let mut cfg = PredictorConfig::full();
        cfg.use_from_src = false;
        cfg.use_tuples = false;
        cfg.use_prefs = false;
        let (g, r) = run(&atlas, &cfg);
        // Figure 3's example: 1-5-4 is shorter but 5 is not a provider
        // for 4.
        assert_eq!(path_of(&g, &r, src_node(&g, 1)), vec![1, 2, 3, 4]);
    }

    #[test]
    fn origin_as_absent_from_the_graph_never_matches_the_provider_arm() {
        let mut atlas = atlas_line();
        // Providers recorded for an origin AS that owns no cluster: no
        // node is ever "in the destination AS", so nothing is blocked.
        atlas
            .providers
            .insert(Asn::new(77), [Asn::new(3)].into_iter().collect());
        let mut cfg = PredictorConfig::full();
        cfg.use_from_src = false;
        cfg.use_tuples = false;
        cfg.use_prefs = false;
        let g = PredictionGraph::build(&atlas, &cfg);
        let toward_4 = |atlas: &Atlas, origin: u32| {
            search(
                &g,
                atlas,
                &cfg,
                ClusterId::new(4),
                PrefixId::new(0),
                Asn::new(origin),
            )
            .unwrap()
        };
        let r = toward_4(&atlas, 77);
        assert_eq!(path_of(&g, &r, src_node(&g, 1)), vec![1, 5, 4]);
        // A provider that owns no cluster constrains like any other: it
        // is never the AS an edge comes from, so a set of only such
        // providers admits nobody.
        atlas
            .providers
            .insert(Asn::new(4), [Asn::new(99)].into_iter().collect());
        let r = toward_4(&atlas, 4);
        assert!(r.successor(src_node(&g, 1)).is_none());
        assert!(r.successor(src_node(&g, 4)).is_some());
    }

    #[test]
    fn preferences_break_equal_length_ties() {
        // Two equal-length routes: 1→2→4... build 1→2→4 and 1→5→4 (both
        // 3 ASes) and make AS1 prefer 2 over 5.
        let mut atlas = Atlas::default();
        let cl = ClusterId::new;
        for (f, t, lat) in [(1u32, 2u32, 9.0), (2, 4, 9.0), (1, 5, 1.0), (5, 4, 1.0)] {
            atlas.links.insert(
                (cl(f), cl(t)),
                LinkAnnotation {
                    latency: Some(LatencyMs::new(lat)),
                    plane: Plane::TO_DST,
                },
            );
        }
        for c in [1u32, 2, 4, 5] {
            atlas.cluster_as.insert(cl(c), Asn::new(c));
            atlas.as_degree.insert(Asn::new(c), 10);
        }
        atlas.prefs.insert((Asn::new(1), Asn::new(5), Asn::new(2)));
        let mut cfg = PredictorConfig::with_prefs();
        cfg.use_tuples = false;
        cfg.use_from_src = false;
        // Without preferences the deterministic tie-break picks the route
        // via AS2 (inter-AS latencies do not enter the cost metric — the
        // GRAPH cost charges [1, 0] per AS crossing, §4.2.1).
        let mut cfg2 = cfg.clone();
        cfg2.use_prefs = false;
        let (g2, r2) = run(&atlas, &cfg2);
        assert_eq!(path_of(&g2, &r2, src_node(&g2, 1)), vec![1, 2, 4]);
        // The observed preference (1: 5 > 2) flips the equal-length tie
        // (Figure 3's mechanism).
        let (g, r) = run(&atlas, &cfg);
        assert_eq!(path_of(&g, &r, src_node(&g, 1)), vec![1, 5, 4]);
    }

    #[test]
    fn from_src_plane_is_used_first() {
        // FROM_SRC has a direct src link 1→4 that TO_DST lacks.
        let mut atlas = Atlas::default();
        let cl = ClusterId::new;
        atlas.links.insert(
            (cl(1), cl(2)),
            LinkAnnotation {
                latency: Some(LatencyMs::new(1.0)),
                plane: Plane::TO_DST,
            },
        );
        atlas.links.insert(
            (cl(2), cl(4)),
            LinkAnnotation {
                latency: Some(LatencyMs::new(1.0)),
                plane: Plane::TO_DST,
            },
        );
        atlas.links.insert(
            (cl(1), cl(4)),
            LinkAnnotation {
                latency: Some(LatencyMs::new(1.0)),
                plane: Plane::FROM_SRC,
            },
        );
        for c in [1u32, 2, 4] {
            atlas.cluster_as.insert(cl(c), Asn::new(c));
        }
        let mut cfg = PredictorConfig::with_tuples();
        cfg.use_tuples = false;
        let g = PredictionGraph::build(&atlas, &cfg);
        let r = search(&g, &atlas, &cfg, cl(4), PrefixId::new(0), Asn::new(4)).unwrap();
        // The FROM_SRC source node sees the direct path.
        let srcs: Vec<u32> = g.source_nodes(cl(1)).collect();
        let direct = r.cluster_path(&g, srcs[0]).unwrap();
        assert_eq!(direct.len(), 2, "FROM_SRC direct link: {direct:?}");
        // The TO_DST fallback sees the two-hop path.
        let fallback = r.cluster_path(&g, srcs[1]).unwrap();
        assert_eq!(fallback.len(), 3);
    }

    #[test]
    fn unreachable_source_has_no_label() {
        let atlas = atlas_line();
        let mut cfg = PredictorConfig::with_tuples();
        cfg.use_tuples = false;
        cfg.use_from_src = false;
        let (g, r) = run(&atlas, &cfg);
        // Cluster 4 is the destination; path from it to itself is trivial,
        // but nothing routes *to* cluster 1 (no in-edges toward 1 exist
        // in the reversed direction from 4)... source 4 should have a
        // label, cluster 1 reaches it, but a fresh sink-only cluster is
        // unreachable. Use node of cluster 3: it must have a label.
        assert!(r.successor(src_node(&g, 3)).is_some());
        // All labelled paths terminate at the destination.
        for n in 0..g.n_nodes() as u32 {
            if r.successor(n).is_some() {
                let p = r.cluster_path(&g, n).unwrap();
                assert_eq!(*p.last().unwrap(), ClusterId::new(4));
            }
        }
    }

    #[test]
    fn graph_mode_prefers_customer_routes() {
        // Valley-free up/down with phases: source 1 has a 2-hop route via
        // its provider 2 and a 2-hop route via its customer 5; customer
        // route must win even though its exit latency is higher.
        let mut atlas = Atlas::default();
        let cl = ClusterId::new;
        for (f, t, lat) in [(1u32, 2u32, 1.0), (2, 4, 1.0), (1, 5, 9.0), (5, 4, 9.0)] {
            atlas.links.insert(
                (cl(f), cl(t)),
                LinkAnnotation {
                    latency: Some(LatencyMs::new(lat)),
                    plane: Plane::TO_DST,
                },
            );
        }
        for c in [1u32, 2, 4, 5] {
            atlas.cluster_as.insert(cl(c), Asn::new(c));
        }
        use inano_model::Relationship::*;
        let rels = [
            ((1u32, 2u32), Provider), // 2 is 1's provider
            ((2, 1), Customer),
            ((1, 5), Customer), // 5 is 1's customer
            ((5, 1), Provider),
            ((2, 4), Customer),
            ((4, 2), Provider),
            ((5, 4), Customer), // 4 is 5's customer: 5→4 goes down
            ((4, 5), Provider),
        ];
        for ((a, b), r) in rels {
            atlas.inferred_rels.insert((Asn::new(a), Asn::new(b)), r);
        }
        let cfg = PredictorConfig::graph();
        let g = PredictionGraph::build(&atlas, &cfg);
        let r = search(&g, &atlas, &cfg, cl(4), PrefixId::new(0), Asn::new(4)).unwrap();
        let src = g.source_nodes(cl(1)).next().unwrap();
        let path: Vec<u32> = r
            .cluster_path(&g, src)
            .unwrap()
            .iter()
            .map(|c| c.raw())
            .collect();
        // Customer route 1→5→4 (via customer 5, then peering into 4)
        // wins over provider route 1→2→4 despite 9ms vs 1ms exits.
        assert_eq!(path, vec![1, 5, 4]);
    }
}
