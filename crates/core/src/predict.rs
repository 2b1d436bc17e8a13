//! The query layer: (source, destination) pairs in, predicted PoP-level
//! paths with latency and loss estimates out.
//!
//! Searches are destination-rooted, so one search answers queries from
//! *every* source to that destination; results are cached under what a
//! search is a function of — the destination's cluster, its origin AS and
//! (only where the atlas refines providers per prefix) the prefix — so
//! every ordinary prefix of a cluster shares one search. That is exactly
//! the access pattern of the application studies (many clients evaluating
//! one replica, one client ranking a swarm of candidates, ...). A full
//! cache evicts the least recently used search: it is an
//! [`inano_model::Lru`], the one LRU type, which each shard of a serving
//! engine's result cache is too. A search that cannot answer is
//! not run: see [`PathPredictor::predict_forward`].
//!
//! [`PathPredictor::predict_batch`] plans before it searches — it is
//! what the library's [`PathPredictor::query_batch`] and a serving
//! engine's cache misses both run. It lists the batch's distinct one-way
//! predictions, takes the cache slot of each
//! one's first search on the caller, in plan order, and runs the searches
//! whose slots it created on the caller and helper threads drawn from
//! the process-wide budget ([`crate::fanout`]). A second round does the
//! same for the relaxed searches of the predictions whose strict tree
//! missed their source. A prediction holds its tree only for the round
//! that reads it, and a batch larger than the cache is planned in windows
//! of the cache's size, so a batch never holds more trees than the cache
//! does. The answers are assembled on the caller and equal what per-pair
//! [`PathPredictor::query`] gives; because only the caller touches the
//! cache's order, its evictions and the [`PathPredictor::search_counts`]
//! of a run repeat on the next. [`PathPredictor::predict_forward`] is the
//! same planner on one prediction.

use crate::config::PredictorConfig;
use crate::fanout;
use crate::graph::PredictionGraph;
use crate::search::{search, SearchResult};
use inano_atlas::Atlas;
use inano_model::{
    AsPath, Asn, ClusterId, Ipv4, LatencyMs, LossRate, Lru, ModelError, PrefixId, PrefixTrie,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::iter::Peekable;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

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

/// Maximum cached destination searches; a new one past it evicts the
/// least recently used.
const CACHE_CAP: usize = 512;

/// What a search is a function of besides the graph it runs on: two
/// destination prefixes with equal keys get the same [`SearchResult`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct SearchKey {
    cluster: ClusterId,
    /// The prefix's origin AS (the provider check's "destination AS").
    origin: Asn,
    /// The prefix itself, only when the atlas holds a per-prefix provider
    /// set for it: the one other way the search reads the prefix.
    refined: Option<PrefixId>,
    relaxed: bool,
}

/// One cached search. The first thread to fill an empty slot runs the
/// search; another that finds it empty waits on that one run instead of
/// repeating it, and keeps its `Arc` should the slot be evicted meanwhile.
type Slot = Arc<OnceLock<Arc<SearchResult>>>;

/// How often a predictor searched, and how often it did not have to
/// ([`PathPredictor::search_counts`]).
///
/// A [`PathPredictor::predict_batch`] (and so a
/// [`PathPredictor::query_batch`]) counts per distinct one-way
/// prediction, not per pair: one lookup (a `cache_hits` when it finds the
/// slot, else a `runs`) per search each distinct prediction reads, and
/// one `strict_skipped` per distinct prediction that skips. Both ways of
/// a pair are counted even when the forward one cannot be routed, where
/// per-pair [`PathPredictor::query`] stops before the reverse.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchCounts {
    /// Searches run (cache misses).
    pub runs: u64,
    /// Searches answered from the cache, a wait on another thread's run
    /// of the same key included.
    pub cache_hits: u64,
    /// One-way predictions that went straight to the relaxed graph
    /// because no strict edge leaves the source's cluster.
    pub strict_skipped: u64,
}

/// The searches a one-way prediction tries, in order: `first`, then —
/// only when `first` is the strict search and its tree reaches none of
/// the source's nodes — `fallback`, the relaxed one.
#[derive(Clone, Copy)]
struct Route {
    /// The source prefix's cluster, whose nodes the path starts from.
    src: ClusterId,
    first: SearchKey,
    fallback: Option<SearchKey>,
}

/// One one-way prediction of a planned batch: its prefixes and route,
/// the slot of the search the current round reads, its path once a
/// round has found one, and how many of the batch's pairs have yet to
/// read it.
struct Plan {
    src_prefix: PrefixId,
    dst_prefix: PrefixId,
    route: Result<Route, ModelError>,
    slot: Option<(SearchKey, Slot)>,
    path: Option<Vec<ClusterId>>,
    readers: u32,
}

impl Plan {
    /// The prediction's answer once both rounds have run, for one of its
    /// readers: the last takes the path, any before it copy it.
    fn read(&mut self) -> Result<Vec<ClusterId>, ModelError> {
        self.readers -= 1;
        let path = match self.readers {
            0 => self.path.take(),
            _ => self.path.clone(),
        };
        self.route.as_ref().map_err(Clone::clone)?;
        path.ok_or_else(|| no_route(self.src_prefix, self.dst_prefix))
    }

    /// The search this way reads in round 1 (`fallback` false) or round
    /// 2, if it reads one.
    fn key(&self, fallback: bool) -> Option<SearchKey> {
        let route = self.route.as_ref().ok()?;
        match (fallback, &self.path) {
            (false, _) => Some(route.first),
            (true, None) => route.fallback,
            (true, Some(_)) => None,
        }
    }
}

#[derive(Default)]
struct Counters {
    runs: AtomicU64,
    cache_hits: AtomicU64,
    strict_skipped: AtomicU64,
}

/// Where an IP address attaches to the atlas — enough to compute a
/// result-cache key without running the search itself. Produced by
/// [`PathPredictor::resolve`]; consumed by the serving layer
/// (`inano-service`), whose cache is keyed on cluster pairs. A
/// predictor computes one per atlas prefix when it is built.
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

/// One atlas prefix's resolution, or the prefix itself when the atlas
/// attaches it to no cluster.
type Row = Result<Resolution, PrefixId>;

/// Every atlas prefix's [`Row`], and the trie that maps an address to
/// its row. The prefix-keyed datasets are walked in step (each is sorted
/// by `PrefixId`), so the cost is linear in the prefixes and the table
/// is as long as the atlas has prefixes, whatever their ids.
fn resolution_table(atlas: &Atlas) -> (PrefixTrie<u32>, Vec<Row>) {
    let mut homes = atlas.prefix_cluster.iter().peekable();
    let mut refined = atlas.prefix_providers.iter().peekable();
    let mut trie = PrefixTrie::new();
    let mut rows = Vec::with_capacity(atlas.prefix_as.len());
    for (&prefix, &(net, origin)) in &atlas.prefix_as {
        let row = match seek(&mut homes, &prefix) {
            Some(&cluster) => Ok(Resolution {
                prefix,
                cluster,
                origin_as: Some(origin),
                cluster_as: atlas.as_of_cluster(cluster),
                refined_providers: seek(&mut refined, &prefix).is_some(),
            }),
            None => Err(prefix),
        };
        trie.insert(net, rows.len() as u32);
        rows.push(row);
    }
    (trie, rows)
}

/// Advance `entries`, sorted by key, to `key`: the value stored there,
/// if any. Later calls must ask for larger keys.
fn seek<'a, K: Ord + 'a, V: 'a>(
    entries: &mut Peekable<impl Iterator<Item = (&'a K, &'a V)>>,
    key: &K,
) -> Option<&'a V> {
    while entries.next_if(|&(k, _)| k < key).is_some() {}
    entries.next_if(|&(k, _)| k == key).map(|(_, v)| v)
}

/// `resolve`'s and `predict_forward`'s error for a prefix the atlas
/// attaches to no cluster.
fn no_home(prefix: PrefixId) -> ModelError {
    ModelError::NoPath(format!("{prefix} has no known cluster"))
}

/// `predict_forward`'s error when no search it may run reaches the
/// source.
fn no_route(src_prefix: PrefixId, dst_prefix: PrefixId) -> ModelError {
    ModelError::NoPath(format!("no route {src_prefix} → {dst_prefix}"))
}

/// The iNano path predictor.
///
/// Holds two graphs: a *strict* one using links only in their observed
/// direction, and (when [`PredictorConfig::allow_reversed_links`] is on)
/// a *relaxed* one that also traverses links backwards. Queries try the
/// strict graph first *when it can answer* — a source whose cluster no
/// observed-direction link leaves has no strict route to anywhere else,
/// and is not searched for — and fall back to the relaxed one: the same
/// philosophy as §4.3.1's FROM_SRC → TO_DST fallback, prefer the
/// best-evidenced route, but still answer.
pub struct PathPredictor {
    atlas: Arc<Atlas>,
    cfg: PredictorConfig,
    graph: PredictionGraph,
    /// Fallback graph with reversed links (None in GRAPH mode or when
    /// reversed links are disabled).
    relaxed: Option<PredictionGraph>,
    /// Each atlas prefix → its index in `rows`: one walk resolves an
    /// address.
    trie: PrefixTrie<u32>,
    rows: Vec<Row>,
    cache: Mutex<Lru<SearchKey, Slot>>,
    counts: Counters,
}

impl PathPredictor {
    /// Build a predictor over an atlas. Compiling the atlas into the
    /// graphs and their shared index is the only heavy step (linear in
    /// the atlas size).
    pub fn new(atlas: Arc<Atlas>, cfg: PredictorConfig) -> PathPredictor {
        PathPredictor::with_cache_cap(atlas, cfg, CACHE_CAP)
    }

    /// [`PathPredictor::new`] with a search cache of at most `cap` trees.
    fn with_cache_cap(atlas: Arc<Atlas>, cfg: PredictorConfig, cap: usize) -> PathPredictor {
        let (graph, relaxed) = PredictionGraph::build_pair(&atlas, &cfg);
        let (trie, rows) = resolution_table(&atlas);
        PathPredictor {
            atlas,
            cfg,
            graph,
            relaxed,
            trie,
            rows,
            cache: Mutex::new(Lru::new(cap)),
            counts: Counters::default(),
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
        Ok(match self.row(ip)? {
            Ok(resolution) => resolution.prefix,
            Err(prefix) => prefix,
        })
    }

    /// The row of the atlas prefix covering `ip`.
    fn row(&self, ip: Ipv4) -> Result<Row, ModelError> {
        let row = self.trie.lookup(ip);
        row.map(|i| self.rows[i as usize])
            .ok_or_else(|| ModelError::UnroutableAddress(ip.to_string()))
    }

    /// Map an IP address to the cluster it attaches to.
    pub fn cluster_of(&self, ip: Ipv4) -> Result<ClusterId, ModelError> {
        Ok(self.resolve(ip)?.cluster)
    }

    /// Resolve an IP address to its atlas attachment point (prefix,
    /// cluster, origin/cluster AS) without running a search: one trie
    /// walk to the row computed when the predictor was built.
    pub fn resolve(&self, ip: Ipv4) -> Result<Resolution, ModelError> {
        self.row(ip)?.map_err(no_home)
    }

    /// The cluster a prefix attaches to.
    fn home_of(&self, prefix: PrefixId) -> Result<ClusterId, ModelError> {
        let home = self.atlas.prefix_cluster.get(&prefix).copied();
        home.ok_or_else(|| no_home(prefix))
    }

    /// The graph `key` searches: the strict or the relaxed one, as
    /// `key.relaxed` says.
    fn graph_of(&self, key: SearchKey) -> &PredictionGraph {
        match (key.relaxed, &self.relaxed) {
            (false, _) => &self.graph,
            (true, relaxed) => relaxed.as_ref().expect("a relaxed key has a relaxed graph"),
        }
    }

    /// The path `tree` (the search `key` names) gives from the first of
    /// the source cluster's nodes it reaches.
    fn path_on(
        &self,
        key: SearchKey,
        tree: &SearchResult,
        src: ClusterId,
    ) -> Option<Vec<ClusterId>> {
        let graph = self.graph_of(key);
        (graph.source_nodes(src)).find_map(|node| tree.cluster_path(graph, node))
    }

    /// How many searches this predictor has run, answered from its cache,
    /// and skipped as unwinnable, since it was built.
    pub fn search_counts(&self) -> SearchCounts {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        SearchCounts {
            runs: read(&self.counts.runs),
            cache_hits: read(&self.counts.cache_hits),
            strict_skipped: read(&self.counts.strict_skipped),
        }
    }

    /// Predict the one-way cluster-level path between two prefixes:
    /// observed-direction graph first, reversed-link fallback second.
    ///
    /// The strict search is neither run nor looked up when it cannot
    /// answer: a route to another cluster starts with an edge out of the
    /// source's, so a source cluster no strict edge leaves (a stub the
    /// vantage points only ever saw inbound — where most reverse paths
    /// start) goes straight to the relaxed graph. The one exception is a
    /// destination in the source's own cluster, which needs no such edge.
    ///
    /// One way is a batch of one to the planner behind
    /// [`PathPredictor::predict_batch`]: each of its two rounds owes at most
    /// one search, which runs on this thread.
    pub fn predict_forward(
        &self,
        src_prefix: PrefixId,
        dst_prefix: PrefixId,
    ) -> Result<Vec<ClusterId>, ModelError> {
        let mut plan = [self.plan(src_prefix, dst_prefix)];
        self.find_paths(&mut plan);
        plan[0].read()
    }

    /// What a one-way prediction searches, or why it searches nothing:
    /// the source's and then the destination's errors first, then the
    /// skip rule of [`PathPredictor::predict_forward`], counting a skip.
    fn route(&self, src_prefix: PrefixId, dst_prefix: PrefixId) -> Result<Route, ModelError> {
        let src = self.home_of(src_prefix)?;
        let cluster = self.home_of(dst_prefix)?;
        let no_path = |what: &str| ModelError::NoPath(format!("{dst_prefix}{what}"));
        let &(_, origin) =
            (self.atlas.prefix_as.get(&dst_prefix)).ok_or_else(|| no_path(" has no origin AS"))?;
        if self.graph.dest_node(cluster).is_none() {
            return Err(no_path(": destination not in graph"));
        }
        let refined = (self.atlas.prefix_providers.contains_key(&dst_prefix)).then_some(dst_prefix);
        let key = |relaxed| SearchKey {
            cluster,
            origin,
            refined,
            relaxed,
        };
        let strict = if src != cluster && !self.graph.has_strict_exit(src) {
            self.counts.strict_skipped.fetch_add(1, Ordering::Relaxed);
            None
        } else {
            Some(key(false))
        };
        let mut keys = strict
            .into_iter()
            .chain(self.relaxed.is_some().then(|| key(true)));
        let first = keys
            .next()
            .ok_or_else(|| no_route(src_prefix, dst_prefix))?;
        Ok(Route {
            src,
            first,
            fallback: keys.next(),
        })
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
        Ok(self.compose(src_prefix, dst_prefix, fwd, rev))
    }

    /// The bidirectional prediction made of its two one-way paths.
    fn compose(
        &self,
        src_prefix: PrefixId,
        dst_prefix: PrefixId,
        fwd: Vec<ClusterId>,
        rev: Vec<ClusterId>,
    ) -> PredictedPath {
        let rtt = self.latency_of(&fwd) + self.latency_of(&rev);
        let loss = self.loss_of(&fwd).compose(self.loss_of(&rev));
        PredictedPath {
            fwd_as_path: self.as_path_of(&fwd, dst_prefix),
            rev_as_path: self.as_path_of(&rev, src_prefix),
            fwd_clusters: fwd,
            rev_clusters: rev,
            rtt,
            loss,
        }
    }

    /// Predict between two IP addresses (the library API of §5: queries
    /// are (src, dst) IP pairs).
    pub fn query(&self, src: Ipv4, dst: Ipv4) -> Result<PredictedPath, ModelError> {
        let s = self.prefix_of(src)?;
        let d = self.prefix_of(dst)?;
        self.predict(s, d)
    }

    /// Batched queries ("batches of arbitrary sizes", §5): in input
    /// order, the answers per-pair [`PathPredictor::query`] gives, errors
    /// included. Each pair's addresses are resolved in place — an
    /// unresolvable one is that pair's error — and the resolved pairs are
    /// one [`PathPredictor::predict_batch`].
    pub fn query_batch(&self, pairs: &[(Ipv4, Ipv4)]) -> Vec<Result<PredictedPath, ModelError>> {
        let resolved: Vec<_> = (pairs.iter())
            .map(|&(src, dst)| Ok((self.prefix_of(src)?, self.prefix_of(dst)?)))
            .collect();
        let routable: Vec<_> = resolved.iter().flatten().copied().collect();
        let mut answers = self.predict_batch(&routable).into_iter();
        (resolved.into_iter())
            .map(|r| r.and_then(|_| answers.next().expect("one answer per resolved pair")))
            .collect()
    }

    /// [`PathPredictor::predict`] for every pair, in input order, planned
    /// as one batch (see the module docs): its distinct one-way
    /// predictions, in first-appearance order and forward before reverse,
    /// each take their first search's cache slot on this thread; the
    /// searches of the slots this created then run on this thread and
    /// scoped helpers from the process-wide budget ([`crate::fanout::run`],
    /// one search per job; a round that owes at most one runs inline),
    /// and a second round does the same for the relaxed searches the
    /// strict trees left owing. The predictions are planned in windows of
    /// as many as the search cache holds trees, and each holds its tree
    /// only while its round reads it, so a batch of any size holds at most
    /// that many trees at once. A search runs again in a later window only
    /// if the cache evicted it in between.
    ///
    /// Unlike [`PathPredictor::predict`], which stops at a forward error,
    /// a batch plans both ways of every pair, so a pair that cannot be
    /// routed still costs its reverse search. [`SearchCounts`] says how a
    /// batch is counted.
    pub fn predict_batch(
        &self,
        pairs: &[(PrefixId, PrefixId)],
    ) -> Vec<Result<PredictedPath, ModelError>> {
        // A few ways are found faster by a scan than by hashing them.
        const SCAN: usize = 16;
        let mut plans: Vec<Plan> = Vec::with_capacity(2 * pairs.len());
        let (small, mut seen) = (pairs.len() <= SCAN, HashMap::new());
        let mut way = |s, d| {
            let at = if small {
                let found = plans
                    .iter()
                    .position(|p| (p.src_prefix, p.dst_prefix) == (s, d));
                found.unwrap_or(plans.len())
            } else {
                *seen.entry((s, d)).or_insert(plans.len())
            };
            match plans.get_mut(at) {
                Some(plan) => plan.readers += 1,
                None => plans.push(self.plan(s, d)),
            }
            at
        };
        let asked: Vec<_> = (pairs.iter())
            .map(|&(s, d)| (way(s, d), way(d, s)))
            .collect();
        // An engine batch the result cache answered whole plans nothing
        // and takes no lock.
        if !plans.is_empty() {
            let cap = self.cache.lock().capacity();
            for window in plans.chunks_mut(cap) {
                self.find_paths(window);
            }
        }
        (asked.into_iter())
            .zip(pairs)
            .map(|((fwd, rev), &(s, d))| {
                let (fwd, rev) = (plans[fwd].read(), plans[rev].read());
                Ok(self.compose(s, d, fwd?, rev?))
            })
            .collect()
    }

    /// The one-way prediction `src_prefix` → `dst_prefix`, planned but
    /// not yet searched.
    fn plan(&self, src_prefix: PrefixId, dst_prefix: PrefixId) -> Plan {
        Plan {
            src_prefix,
            dst_prefix,
            route: self.route(src_prefix, dst_prefix),
            slot: None,
            path: None,
            readers: 1,
        }
    }

    /// Find the path of every plan as [`PathPredictor::predict_forward`]
    /// finds it, in two rounds: every route's first search, then the
    /// fallback of every route whose first tree missed its source.
    ///
    /// Each round takes its slots on this thread in plan order — so the
    /// cache's recency order, and every later eviction, never depend on
    /// thread timing — then runs the searches of the slots it created on
    /// this thread and permitted helpers, one search per job. A slot it
    /// found empty is being searched elsewhere (by an earlier plan of the
    /// round, or another caller); reading it waits on that run. No tree
    /// outlives the round that read it.
    fn find_paths(&self, plans: &mut [Plan]) {
        for fallback in [false, true] {
            if plans.iter().all(|plan| plan.key(fallback).is_none()) {
                continue;
            }
            let (mut hits, mut fresh) = (0, Vec::new());
            let mut cache = self.cache.lock();
            // More plans than slots, and a round could evict a slot it
            // took and search that key twice.
            debug_assert!(plans.len() <= cache.capacity(), "a round outgrew the cache");
            for (i, plan) in plans.iter_mut().enumerate() {
                if let Some(key) = plan.key(fallback) {
                    let slot = match cache.get(&key) {
                        Some(slot) => {
                            hits += 1;
                            Arc::clone(slot)
                        }
                        None => {
                            fresh.push(i);
                            let slot = Slot::default();
                            cache.insert(key, Arc::clone(&slot));
                            slot
                        }
                    };
                    plan.slot = Some((key, slot));
                }
            }
            drop(cache);
            self.counts.cache_hits.fetch_add(hits, Ordering::Relaxed);
            fanout::run(fresh.len(), |j| {
                let plan = &plans[fresh[j]];
                let (key, slot) = plan.slot.as_ref().expect("a fresh slot was taken");
                self.tree(slot, *key, plan.dst_prefix);
            });
            for plan in plans.iter_mut() {
                if let Some((key, slot)) = plan.slot.take() {
                    let src = plan
                        .route
                        .as_ref()
                        .expect("a plan with a key has a route")
                        .src;
                    plan.path = self.path_on(key, self.tree(&slot, key, plan.dst_prefix), src);
                }
            }
        }
    }

    /// The tree in `slot`, searched here unless another thread has
    /// searched it or is searching it now.
    fn tree<'s>(&self, slot: &'s Slot, key: SearchKey, dst_prefix: PrefixId) -> &'s SearchResult {
        slot.get_or_init(|| {
            self.counts.runs.fetch_add(1, Ordering::Relaxed);
            let (atlas, graph) = (&self.atlas, self.graph_of(key));
            let found = search(graph, atlas, &self.cfg, key.cluster, dst_prefix, key.origin);
            Arc::new(found.expect("route() found the destination's node"))
        })
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

    /// A ring of `n` clusters, cluster `c` in AS `c` and home of prefix
    /// `c`, every link observed both ways: the strict graph answers every
    /// pair, so a new destination costs exactly one search.
    fn ring(n: u32) -> Atlas {
        let mut a = Atlas::default();
        for c in 0..n {
            for key in [(c, (c + 1) % n), ((c + 1) % n, c)] {
                a.links.insert(
                    (ClusterId::new(key.0), ClusterId::new(key.1)),
                    LinkAnnotation {
                        latency: Some(LatencyMs::new(1.0)),
                        plane: Plane::TO_DST,
                    },
                );
            }
            a.cluster_as.insert(ClusterId::new(c), Asn::new(c));
            home(&mut a, c, c, c);
        }
        a
    }

    /// Attach `prefix` (announced by AS `origin`) to `cluster`.
    fn home(a: &mut Atlas, prefix: u32, cluster: u32, origin: u32) {
        a.prefix_cluster
            .insert(PrefixId::new(prefix), ClusterId::new(cluster));
        let net = Prefix::new(Ipv4(prefix << 8), 24);
        a.prefix_as
            .insert(PrefixId::new(prefix), (net, Asn::new(origin)));
    }

    fn ring_predictor(atlas: Atlas, cap: usize) -> PathPredictor {
        let mut cfg = PredictorConfig::full();
        cfg.use_tuples = false;
        cfg.use_from_src = false;
        PathPredictor::with_cache_cap(Arc::new(atlas), cfg, cap)
    }

    fn route(p: &PathPredictor, src: u32, dst: u32) -> Vec<u32> {
        let path = p.predict_forward(PrefixId::new(src), PrefixId::new(dst));
        path.unwrap().iter().map(|c| c.raw()).collect()
    }

    fn cached(p: &PathPredictor) -> usize {
        p.cache.lock().len()
    }

    #[test]
    fn a_full_cache_evicts_one_entry_not_all_of_them() {
        const CAP: usize = 4;
        let p = ring_predictor(ring(12), CAP);
        for dst in 1..=CAP as u32 + 1 {
            route(&p, 0, dst);
            assert!(cached(&p) <= CAP);
        }
        // Clearing the map when full would leave one entry here.
        assert_eq!(cached(&p), CAP);
        assert_eq!(p.search_counts().runs, CAP as u64 + 1);
        // The first destination went; the others stayed.
        for dst in 2..=CAP as u32 + 1 {
            route(&p, 0, dst);
        }
        assert_eq!(p.search_counts().runs, CAP as u64 + 1);
        route(&p, 0, 1);
        assert_eq!(p.search_counts().runs, CAP as u64 + 2);
        assert_eq!(cached(&p), CAP);
    }

    #[test]
    fn a_key_touched_before_511_other_inserts_survives_them() {
        let cap = CACHE_CAP as u32;
        let p = ring_predictor(ring(2 * cap), CACHE_CAP);
        // Fill the cache; destination 1 is now the oldest entry.
        for dst in 1..=cap {
            route(&p, 0, dst);
        }
        // Touch it, then insert 511 new ones: each evicts an untouched
        // entry, and the touched one outlives them all.
        route(&p, 0, 1);
        for dst in cap + 1..2 * cap {
            route(&p, 0, dst);
        }
        let full = SearchCounts {
            runs: 2 * u64::from(cap) - 1,
            cache_hits: 1,
            strict_skipped: 0,
        };
        assert_eq!(p.search_counts(), full);
        assert_eq!(cached(&p), CACHE_CAP);
        route(&p, 0, 1);
        assert_eq!(p.search_counts().cache_hits, 2, "still cached");
        route(&p, 0, 2);
        assert_eq!(p.search_counts().runs, full.runs + 1, "long evicted");
    }

    #[test]
    fn prefixes_share_a_search_unless_the_search_can_tell_them_apart() {
        let mut atlas = ring(6);
        // AS 3 is only ever entered from AS 4 ...
        let only = |asn: u32| [Asn::new(asn)].into_iter().collect();
        atlas.providers.insert(Asn::new(3), only(4));
        // ... which binds prefix 3 and its sibling 100; 101 sits on the
        // same cluster but is announced by AS 5, which records no
        // providers, and 102 is refined to enter from AS 2.
        home(&mut atlas, 100, 3, 3);
        home(&mut atlas, 101, 3, 5);
        home(&mut atlas, 102, 3, 3);
        atlas.prefix_providers.insert(PrefixId::new(102), only(2));
        let p = ring_predictor(atlas, CACHE_CAP);
        let runs = |p: &PathPredictor| p.search_counts().runs;

        assert_eq!(route(&p, 0, 3), [0, 5, 4, 3]);
        assert_eq!(route(&p, 0, 100), [0, 5, 4, 3]);
        assert_eq!(runs(&p), 1, "two prefixes of one cluster, one search");
        assert_eq!(p.search_counts().cache_hits, 1);
        // Unconstrained, the lower node id breaks the tie: via 1 and 2.
        assert_eq!(route(&p, 0, 101), [0, 1, 2, 3]);
        assert_eq!(runs(&p), 2, "a foreign origin AS is its own search");
        assert_eq!(route(&p, 0, 102), [0, 1, 2, 3]);
        assert_eq!(runs(&p), 3, "so is a per-prefix provider set");
        assert_eq!(cached(&p), 3);
    }

    #[test]
    fn a_source_no_strict_edge_leaves_skips_the_strict_search() {
        let mut atlas = (*toy()).clone();
        // Forget the observed 1 → 2: cluster 1 is now only ever entered.
        atlas.links.remove(&(ClusterId::new(1), ClusterId::new(2)));
        let mut cfg = PredictorConfig::with_tuples();
        cfg.use_tuples = false;
        cfg.use_from_src = false;
        let p = PathPredictor::new(Arc::new(atlas.clone()), cfg.clone());
        assert_eq!(route(&p, 10, 20), [1, 2, 3], "over the reversed 2 → 1");
        let relaxed_only = SearchCounts {
            runs: 1,
            cache_hits: 0,
            strict_skipped: 1,
        };
        assert_eq!(p.search_counts(), relaxed_only);
        // The other way the strict graph answers, and is asked.
        assert_eq!(route(&p, 20, 10), [3, 2, 1]);
        assert_eq!(p.search_counts().strict_skipped, 1);
        // A destination in the source's own cluster needs no way out.
        assert_eq!(route(&p, 10, 10), [1]);
        assert_eq!(p.search_counts().strict_skipped, 1);

        // Without a relaxed graph the skip is the whole answer — after
        // the destination's own errors.
        cfg.allow_reversed_links = false;
        let p = PathPredictor::new(Arc::new(atlas), cfg);
        let err = |src, dst| {
            let r = p.predict_forward(PrefixId::new(src), PrefixId::new(dst));
            r.unwrap_err().to_string()
        };
        assert!(err(10, 20).contains("no route"), "{}", err(10, 20));
        assert!(err(10, 99).contains("no known cluster"));
        assert_eq!(p.search_counts().runs, 0);
        assert_eq!(route(&p, 10, 10), [1]);
    }

    /// `ring(12)` where no observed link enters cluster 4 (a strict
    /// search toward it reaches no source, so the relaxed one runs after
    /// it), plus prefix 99, announced but attached to no cluster.
    fn sink_ring() -> Atlas {
        let mut a = ring(12);
        for from in [3, 5] {
            a.links.remove(&(ClusterId::new(from), ClusterId::new(4)));
        }
        home(&mut a, 99, 0, 0);
        a.prefix_cluster.remove(&PrefixId::new(99));
        a
    }

    /// An address in prefix `p` of [`ring`]'s numbering.
    fn ip(p: u32) -> Ipv4 {
        Ipv4((p << 8) | 1)
    }

    /// `predict`'s answers, compared by their `Debug` text: every float
    /// prints its shortest round-trip form, every error its message.
    fn text(answers: &[Result<PredictedPath, ModelError>]) -> Vec<String> {
        answers.iter().map(|a| format!("{a:?}")).collect()
    }

    /// Pairs over [`sink_ring`]: a spread with repeats, the strict miss
    /// both ways, a same-cluster pair, an unhomed prefix and an address
    /// no prefix covers.
    fn sink_pairs() -> Vec<(Ipv4, Ipv4)> {
        let spread = (0..40).map(|i| (ip(i * 5 % 12), ip((i * 7 + 3) % 12)));
        let uncovered = Ipv4::from_octets(200, 0, 0, 1);
        let awkward = [
            (ip(0), ip(4)),
            (ip(4), ip(0)),
            (ip(2), ip(2)),
            (ip(99), ip(1)),
            (ip(1), ip(99)),
            (uncovered, ip(1)),
            (ip(1), uncovered),
        ];
        awkward.into_iter().chain(spread).collect()
    }

    #[test]
    fn a_batch_answers_and_counts_alike_whatever_the_cache_holds() {
        let pairs = sink_pairs();
        let probe = ring_predictor(sink_ring(), CACHE_CAP);
        route(&probe, 0, 4);
        let strict_miss = SearchCounts {
            runs: 2,
            cache_hits: 0,
            strict_skipped: 0,
        };
        assert_eq!(probe.search_counts(), strict_miss, "two rounds");
        for cap in [4, 16] {
            let inline = ring_predictor(sink_ring(), cap);
            let want: Vec<_> = pairs.iter().map(|&(s, d)| inline.query(s, d)).collect();
            let counts = || {
                let p = ring_predictor(sink_ring(), cap);
                for n in [1, 2, 4, pairs.len()] {
                    for i in (0..pairs.len()).step_by(n) {
                        let end = pairs.len().min(i + n);
                        let got = p.query_batch(&pairs[i..end]);
                        assert_eq!(text(&got), text(&want[i..end]), "cache of {cap}");
                    }
                }
                p.search_counts()
            };
            let first = counts();
            assert!(first.runs > 0 && first.cache_hits > 0, "{first:?}");
            for _ in 0..3 {
                assert_eq!(counts(), first, "cache of {cap}");
            }
        }
    }

    #[test]
    fn a_batch_larger_than_the_cache_lets_go_of_its_trees() {
        const CAP: usize = 4;
        // Destinations 1..=8 from 0, then again from 9: eight windows of
        // four one-way predictions, ten distinct searches.
        let pairs: Vec<_> = (0..2)
            .flat_map(|k| (1..=8).map(move |d| (ip(9 * k), ip(d))))
            .collect();
        let inline = ring_predictor(ring(16), CAP);
        let want: Vec<_> = pairs.iter().map(|&(s, d)| inline.query(s, d)).collect();
        let p = ring_predictor(ring(16), CAP);
        assert_eq!(text(&p.query_batch(&pairs)), text(&want));
        let runs = p.search_counts().runs;
        // Holding every tree to the end would run each search once; a
        // batch holds no more trees than the cache, which evicted
        // destinations 1..=8 before 9 asked for them again.
        assert!(runs > 10, "{runs} runs");
        assert_eq!(runs, inline.search_counts().runs);
        assert!(cached(&p) <= CAP);
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
