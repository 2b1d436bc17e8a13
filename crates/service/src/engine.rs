//! The query engine: a sharded result cache probed on the caller's
//! thread, the library's batch planner for whatever the cache could not
//! answer, and a hot-swappable predictor generation. The engine owns no
//! threads.
//!
//! ## Threading model
//!
//! A batch ([`QueryEngine::query_batch_shared`]) snapshots one
//! generation, then resolves every pair and probes the result cache on
//! the *caller's* thread. A hit is answered there and then as the
//! cached `Arc<PredictedPath>` — it never crosses a thread or copies
//! the path. Only the misses go on, de-duplicated per cache key so one
//! key is predicted and inserted once per batch, and with them every
//! pair that bypasses the cache: all of them are one
//! [`PathPredictor::predict_batch`] on the caller, the planner the
//! library's own [`PathPredictor::query_batch`] runs. It predicts each
//! distinct one-way path once and runs the searches it owes one per job
//! on the caller and scoped helper threads ([`inano_core::fanout`]);
//! each answer is then inserted under its key, in miss order, on the
//! caller. The helpers borrow the batch's generation, so a batch is
//! answered from exactly one generation, in input order, and no thread
//! outlives the call that spawned it.
//!
//! A helper needs a permit from the one process-wide counter in
//! [`inano_core::fanout`], capped at `available_parallelism()`, so
//! however many engines, shards, library batches and callers a process
//! has, the fan-outs never run more helpers than the host has cores; a
//! batch that gets no permit searches on its caller alone.
//! [`QueryEngine::query`] / [`QueryEngine::query_batch`] are the owning
//! forms: the same path, with each result cloned out of its `Arc`.
//!
//! ## Counters
//!
//! All of them live in one [`EngineMetrics`] of registry handles
//! ([`QueryEngine::metrics`]), read with `.get()` — percentiles with
//! `quantile_from_counts` over the `latency_us` snapshot. Every pair
//! that resolves to canonical endpoints is probed once and counted once
//! (a cache hit or a miss); a pair behind a non-canonical prefix counts
//! one `cache_bypass` instead; in-batch duplicates of a missed key each
//! count their miss but share one search and one insert. `queries`,
//! `errors` and the latency histogram take one sample per pair. The
//! probe pass reads the clock at its start and its end, and every pair
//! it answers on the spot (a hit or a resolve error) takes the pass's
//! mean time per pair as its sample; a miss's sample is the time of the
//! planner call it waited for. So
//! `hits + misses + bypass + resolve errors == queries`.
//! A batch tallies all of this in locals and adds each series once when
//! it returns: the counters are exact as soon as the call is, and a
//! cached pair costs them no atomic of its own.
//!
//! ## Hot swap
//!
//! The current atlas generation lives behind
//! `RwLock<Arc<Generation>>`. Queries take the read lock just long
//! enough to clone the `Arc` — they never hold it while searching — so
//! a daily-delta swap (write lock held only for the pointer store)
//! neither stalls in-flight queries nor is starved by them. Queries
//! already running finish against the generation they snapshotted; every
//! query that starts after the swap sees the new day. The heavy work
//! (delta application, graph construction) happens *before* the write
//! lock is taken.
//!
//! ## Catching up
//!
//! [`QueryEngine::update`] hands the engine to core's one catch-up
//! policy, [`catch_up`], as a follower whose every delta is a swap and
//! whose steps leave the `mirror_*` counters and journal events.
//! `inano-serve --mirror`'s refresh loop and the tests drive a mirror
//! through that one call, so what it leaves is the same everywhere.
//!
//! ## Offering the atlas
//!
//! Every engine is an atlas origin for its peers: [`QueryEngine::offer`]
//! is the engine as an [`AtlasSource`], at the chunk size a server
//! serves. Its bodies are core's [`OfferedBody`]: each generation's
//! encoded atlas, filled once on the [`Generation`] itself
//! ([`Generation::export`]), and the chain of at most [`DELTA_LOG_CAP`]
//! deltas leading to it, each in the bytes it was applied from and
//! named by the tag of the body it leaves. The chain lives on the
//! generation too, so a head and its chain come from one snapshot and
//! no swap can fall between them. A chunk is asked for by the body's
//! tag, and a tag the engine no longer offers is a `VersionRaced` —
//! [`OfferedBody::serve`]'s rule, not the engine's.

use crate::cache::{CacheKey, ShardedCache};
use crate::stats::{EngineMetrics, Tally};
use inano_atlas::{codec, Atlas, AtlasDelta};
use inano_core::{
    catch_up, read_full, AtlasChunk, AtlasSource, AtlasVersion, Follower, OfferedBody,
    OfferedDelta, PathPredictor, PredictedPath, PredictorConfig,
};
use inano_model::{Ipv4, ModelError, PrefixId};
use inano_obs::{EventJournal, EventKind, MetricsRegistry};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Tuning knobs for the engine.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Total result-cache entry budget across all shards.
    pub cache_capacity: usize,
    /// Cache shard count (rounded up to a power of two).
    pub cache_shards: usize,
    /// Predictor configuration used for every generation. Every engine
    /// in the tree runs the default, `PredictorConfig::full()`; the
    /// field is what `ShardSpec::predictor` feeds.
    pub predictor: PredictorConfig,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            cache_capacity: 65_536,
            cache_shards: 16,
            predictor: PredictorConfig::full(),
        }
    }
}

/// One immutable atlas generation. A batch snapshots an `Arc` to it
/// once and searches only that; swaps replace the pointer, never
/// mutate.
pub struct Generation {
    /// Bumped on every applied delta; part of every cache key, so a
    /// swap implicitly invalidates the whole cache.
    pub epoch: u64,
    pub predictor: Arc<PathPredictor>,
    /// This generation's encoded atlas, filled on the first
    /// [`Generation::export`].
    export: OnceLock<Arc<OfferedBody>>,
    /// The deltas leading to this generation, oldest first, at most
    /// [`DELTA_LOG_CAP`]: the last one leaves the generation this one
    /// was built from. Empty for a generation swapped in whole.
    chain: Vec<OfferedDelta>,
}

impl Generation {
    fn new(
        epoch: u64,
        atlas: Arc<Atlas>,
        cfg: &ServiceConfig,
        chain: Vec<OfferedDelta>,
    ) -> Arc<Generation> {
        Arc::new(Generation {
            epoch,
            predictor: Arc::new(PathPredictor::new(atlas, cfg.predictor.clone())),
            export: OnceLock::new(),
            chain,
        })
    }

    pub fn day(&self) -> u32 {
        self.predictor.atlas().day
    }

    /// This generation's encoded atlas as peers fetch it: encoded on
    /// the first call, shared after (re-encoding a ~7MB atlas per
    /// mirror request would be the real cost of serving as a mirror).
    /// It lives on the generation, so it holds this generation's bytes
    /// and no other's.
    pub fn export(&self) -> &Arc<OfferedBody> {
        self.export.get_or_init(|| {
            let (bytes, _) = codec::encode(self.predictor.atlas());
            Arc::new(OfferedBody::new(bytes))
        })
    }
}

/// Daily deltas a generation's chain retains for re-serving
/// ([`QueryEngine::offer`]). A mirror that lags further than this
/// refetches the full atlas; one day per entry, so the cap is about a
/// month of history.
pub const DELTA_LOG_CAP: usize = 32;

/// One answer as the engine holds it: the prediction shared with the
/// result cache, never deep-copied on the way out.
pub type SharedResult = Result<Arc<PredictedPath>, ModelError>;

/// What the cache said about one resolved pair.
enum Probed {
    Hit(Arc<PredictedPath>),
    /// The pair's prefixes, still to be predicted, and where the answer
    /// is cached: `None` for a non-canonical endpoint, which bypasses the
    /// cache.
    Miss((PrefixId, PrefixId), Option<CacheKey>),
}

/// Where one pair of a batch stands after its probe.
enum Slot {
    /// Answered on the spot: a cache hit or a resolve error.
    Ready(SharedResult),
    /// Waits for the answer at this index of the batch's miss list.
    Waits(usize),
}

/// The concurrent, hot-swappable query engine (§5 scaled up: the same
/// local-library semantics as [`inano_core::INanoClient`], behind a
/// result cache any number of threads may query at once).
pub struct QueryEngine {
    current: RwLock<Arc<Generation>>,
    cache: ShardedCache,
    metrics: EngineMetrics,
    cfg: ServiceConfig,
    /// Serialises swap *builders*; never blocks readers.
    swap_lock: Mutex<()>,
    /// Where swap/delta/resync events land once a serving layer
    /// attaches its journal ([`QueryEngine::set_journal`]); the label
    /// (usually `shardN`) prefixes every detail so one journal can
    /// carry many engines. `None` (an embedded engine) costs one
    /// uncontended lock per swap — nothing on the query path.
    journal: Mutex<Option<(Arc<EventJournal>, String)>>,
}

impl QueryEngine {
    /// Build an engine over an already-decoded atlas.
    pub fn new(atlas: Arc<Atlas>, cfg: ServiceConfig) -> QueryEngine {
        let generation = Generation::new(0, atlas, &cfg, Vec::new());
        let cache = ShardedCache::new(cfg.cache_capacity, cfg.cache_shards);
        let metrics = EngineMetrics {
            cache_hits: cache.hits.clone(),
            cache_misses: cache.misses.clone(),
            cache_evictions: cache.evictions.clone(),
            cache_inserts: cache.inserts.clone(),
            ..EngineMetrics::default()
        };
        metrics.day.set(generation.day() as u64);

        QueryEngine {
            current: RwLock::new(generation),
            cache,
            metrics,
            cfg,
            swap_lock: Mutex::new(()),
            journal: Mutex::new(None),
        }
    }

    /// Attach an event journal: from now on every generation swap,
    /// delta application, full resync and recovered race is emitted
    /// with `label` leading the detail. The serving layer calls this
    /// at bind time; attaching again (a registry fronted by a second
    /// server) just redirects future events.
    pub fn set_journal(&self, journal: Arc<EventJournal>, label: impl Into<String>) {
        *self.journal.lock() = Some((journal, label.into()));
    }

    /// Export this engine's counters into `obs` as `{label}.*` — the
    /// serving layer calls this beside [`QueryEngine::set_journal`],
    /// with the same `shardN` label. The registry reads the very
    /// atomics the engine writes; registering with a second registry (a
    /// second server in front) exports them live from both.
    pub fn register_metrics(&self, obs: &MetricsRegistry, label: &str) {
        self.metrics.register(obs, label);
    }

    /// The live registers — the engine's one view of its counts, for
    /// tests and embedders reading a series with `.get()` (a
    /// percentile: `quantile_from_counts(&m.latency_us.snapshot(), q)`).
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Emit `kind` onto the attached journal, if any. The detail
    /// closure only runs when a journal is attached.
    fn emit(&self, kind: EventKind, detail: impl FnOnce() -> String) {
        let guard = self.journal.lock();
        if let Some((journal, label)) = guard.as_ref() {
            journal.emit(kind, format!("{label} {}", detail()));
        }
    }

    /// Bootstrap from an [`AtlasSource`] (a `MirrorSource` over the
    /// wire, or a `StaticSource` in memory): the body arrives chunked
    /// and validated through [`read_full`].
    pub fn bootstrap(
        source: &mut dyn AtlasSource,
        cfg: ServiceConfig,
    ) -> Result<QueryEngine, ModelError> {
        let (_, bytes, _) = read_full(source)?;
        let atlas = codec::decode(&bytes)?;
        Ok(QueryEngine::new(Arc::new(atlas), cfg))
    }

    /// The generation queries are currently served from.
    pub fn generation(&self) -> Arc<Generation> {
        Arc::clone(&self.current.read())
    }

    /// Day of the currently-served atlas.
    pub fn day(&self) -> u32 {
        self.generation().day()
    }

    /// Current configuration epoch (one per applied delta).
    pub fn epoch(&self) -> u64 {
        self.generation().epoch
    }

    /// Serve one query inline on the caller's thread.
    pub fn query(&self, src: Ipv4, dst: Ipv4) -> Result<PredictedPath, ModelError> {
        self.query_shared(src, dst).map(Arc::unwrap_or_clone)
    }

    /// [`QueryEngine::query`] without the copy: the answer is the
    /// `Arc` the result cache holds. A batch of one.
    pub fn query_shared(&self, src: Ipv4, dst: Ipv4) -> SharedResult {
        let mut answers = self.query_batch_shared(&[(src, dst)]);
        answers.pop().expect("one answer per pair")
    }

    /// Serve a batch; results come back in input order, each an owned
    /// copy. See [`QueryEngine::query_batch_shared`], which this wraps.
    pub fn query_batch(&self, pairs: &[(Ipv4, Ipv4)]) -> Vec<Result<PredictedPath, ModelError>> {
        self.query_batch_shared(pairs)
            .into_iter()
            .map(|r| r.map(Arc::unwrap_or_clone))
            .collect()
    }

    /// Serve a batch from one generation snapshot; results come back in
    /// input order. Every pair is resolved and probed against the
    /// result cache on this thread and a hit is answered as the cached
    /// `Arc`. The misses, one per distinct cache key plus every pair that
    /// bypasses the cache, are one [`PathPredictor::predict_batch`] on
    /// this thread, which fans their searches out (see the module docs),
    /// and each answer is cached under its key. The batch's counts are
    /// tallied locally and added to [`QueryEngine::metrics`] once, on
    /// the way out.
    pub fn query_batch_shared(&self, pairs: &[(Ipv4, Ipv4)]) -> Vec<SharedResult> {
        let generation = self.generation();
        let mut tally = Tally::default();
        let (mut misses, mut keys) = (Vec::new(), Vec::new());
        let mut by_key: HashMap<CacheKey, usize> = HashMap::new();
        let start = Instant::now();
        let slots: Vec<Slot> = pairs
            .iter()
            .map(|&(src, dst)| {
                let probed = self.probe(&generation, src, dst, &mut tally);
                match probed {
                    Ok(Probed::Hit(hit)) => Slot::Ready(Ok(hit)),
                    Err(e) => Slot::Ready(Err(e)),
                    Ok(Probed::Miss(pair, key)) => {
                        // A key this batch already owes an answer for
                        // waits on that one; anything else (a new key,
                        // or a pair that bypasses the cache) owes its
                        // own.
                        let next = misses.len();
                        let at = match key {
                            Some(key) => *by_key.entry(key).or_insert(next),
                            None => next,
                        };
                        if at == next {
                            misses.push(pair);
                            keys.push(key);
                        }
                        Slot::Waits(at)
                    }
                }
            })
            .collect();
        // Three clock reads for the whole batch: a pair answered in the
        // probe pass takes the pass's mean time per pair as its sample,
        // a miss the time of the one planner call it waited for.
        let probed = Instant::now();
        let probe_us = ((probed - start).as_nanos() / (1000 * pairs.len().max(1) as u128)) as u64;
        let predicted = generation.predictor.predict_batch(&misses);
        let miss_us = probed.elapsed().as_micros() as u64;
        let missed: Vec<SharedResult> = (predicted.into_iter().zip(keys))
            .map(|(result, key)| {
                let result = result.map(Arc::new);
                if let (Some(key), Ok(path)) = (key, &result) {
                    self.cache.insert(key, Arc::clone(path));
                }
                result
            })
            .collect();
        let answers = slots
            .into_iter()
            .map(|slot| {
                let (result, us) = match slot {
                    Slot::Ready(r) => (r, probe_us),
                    Slot::Waits(at) => (missed[at].clone(), miss_us),
                };
                tally.answer(us, result.is_ok());
                result
            })
            .collect();
        tally.flush(&self.metrics);
        answers
    }

    /// Resolve both endpoints against a snapshotted generation and
    /// consult the cluster-keyed cache, counting the probe into
    /// `tally`: the cached answer, or the search still owed.
    fn probe(
        &self,
        generation: &Generation,
        src: Ipv4,
        dst: Ipv4,
        tally: &mut Tally,
    ) -> Result<Probed, ModelError> {
        let p = &generation.predictor;
        let s = p.resolve(src)?;
        let d = p.resolve(dst)?;
        // Predictions are a pure function of the cluster pair only when
        // both prefixes agree with their cluster's AS (the
        // overwhelmingly common case); anomalous prefixes bypass the
        // cache rather than poison it.
        let key =
            (s.canonical() && d.canonical()).then_some((s.cluster, d.cluster, generation.epoch));
        let hit = match key {
            Some(key) => {
                let hit = self.cache.lookup(&key);
                match hit {
                    Some(_) => tally.cache_hits += 1,
                    None => tally.cache_misses += 1,
                }
                hit
            }
            None => {
                tally.cache_bypass += 1;
                None
            }
        };
        Ok(match hit {
            Some(hit) => Probed::Hit(hit),
            None => Probed::Miss((s.prefix, d.prefix), key),
        })
    }

    /// Apply one daily delta and swap the serving generation. All heavy
    /// work (delta application, graph construction) happens before the
    /// write lock; the lock is held only to store the new pointer. The
    /// delta is offered on as leaving the serving generation's
    /// [`Generation::export`], which encodes it if no peer has yet.
    pub fn apply_delta(&self, delta: &AtlasDelta) -> Result<u32, ModelError> {
        let _builder = self.swap_lock.lock();
        let base = self.generation().export().tag();
        self.swap_locked(base, delta, delta.encode().0)
    }

    /// The swap itself; caller must hold `swap_lock` so concurrent
    /// builders can't interleave between the generation read and the
    /// pointer store. The new generation's chain is the serving one's
    /// with `delta` appended, named as leaving the body tagged `base`
    /// and offered in `bytes`: exactly the bytes this engine applied.
    fn swap_locked(
        &self,
        base: u64,
        delta: &AtlasDelta,
        bytes: Vec<u8>,
    ) -> Result<u32, ModelError> {
        let current = self.generation();
        let next_atlas = Arc::new(delta.apply(current.predictor.atlas())?);
        let kept = current.chain.len().min(DELTA_LOG_CAP - 1);
        let mut chain = current.chain[current.chain.len() - kept..].to_vec();
        chain.push(OfferedDelta::new(base, bytes));
        let next = Generation::new(current.epoch + 1, next_atlas, &self.cfg, chain);
        let day = next.day();
        self.publish(next);
        self.emit(EventKind::DeltaApplied, || {
            format!("from={} to={}", delta.from_day, delta.to_day)
        });
        Ok(day)
    }

    /// Store the new generation's pointer and everything that names
    /// it: the swap counter, the `epoch`/`day` gauges and the journal.
    /// Caller holds `swap_lock`, so the gauges move in swap order.
    fn publish(&self, next: Arc<Generation>) {
        let (epoch, day) = (next.epoch, next.day());
        *self.current.write() = next;
        self.metrics.swaps.inc();
        self.metrics.epoch.set(epoch);
        self.metrics.day.set(day as u64);
        self.emit(EventKind::GenerationSwap, || {
            format!("epoch={epoch} day={day}")
        });
    }

    /// The serving generation's encoded atlas, as peers fetch it
    /// ([`Generation::export`]): the first call after a swap encodes,
    /// later calls share the same `Arc`.
    pub fn export(&self) -> Arc<OfferedBody> {
        Arc::clone(self.generation().export())
    }

    /// This engine as an [`AtlasSource`] for its peers, every body cut
    /// into `chunk_size` chunks: the serving generation's encoded atlas
    /// and the chain of deltas leading to it ([`DELTA_LOG_CAP`]). This
    /// is what makes *any* engine an atlas origin; a server answers its
    /// fetch frames here.
    pub fn offer(&self, chunk_size: u32) -> Offer<'_> {
        Offer {
            engine: self,
            chunk_size,
        }
    }

    /// Catch up with `source` by [`catch_up`]; returns how many deltas
    /// were applied. What is the engine's own:
    ///
    /// * **The tag** compared with the head's is this engine's
    ///   ([`QueryEngine::export`], encoded once per generation, so an
    ///   idle tick costs one compare and no body bytes).
    /// * **A delta** is one swap, offered on to this engine's own
    ///   downstream mirrors under the base tag its upstream's head named
    ///   (so walking a chain encodes nothing per delta), one
    ///   `mirror_deltas_applied` and one `DeltaApplied` event, each as it
    ///   lands.
    /// * **The head** sets `mirror_upstream_day` and `mirror_lag_days`
    ///   before anything is fetched, and each delta lowers the lag as it
    ///   lands, so a failed fetch leaves them saying how far behind the
    ///   engine is. A resync swaps the body in as
    ///   [`QueryEngine::replace_atlas`] does: one `mirror_full_resyncs`,
    ///   one `FullResync` event, lag back to 0, an empty chain.
    /// * **Races** the reader recovered from count in
    ///   `mirror_races_recovered` and journal `RaceRecovered`.
    ///
    /// Any error is returned with the engine serving what it last
    /// swapped in: the caller's cue to rebuild its connection.
    ///
    /// The builder lock is held across the whole call: a concurrent
    /// `apply_delta`/`update` can't swap between the policy's day read
    /// and its apply, which would otherwise surface as a spurious
    /// wrong-base error from a delta that is simply already applied.
    /// That means the fetch itself runs under the lock — with a
    /// network-backed source (`MirrorSource`), bound its I/O
    /// (`NetClient::set_io_timeout`) so a hung upstream stalls
    /// this updater with a typed error instead of wedging every
    /// builder forever. Queries are unaffected either way: they never
    /// take the builder lock.
    pub fn update(&self, source: &mut dyn AtlasSource) -> Result<usize, ModelError> {
        let _builder = self.swap_lock.lock();
        catch_up(source, &mut Mirror(self))
    }

    /// Does nothing: the engine owns no threads, so there is nothing to
    /// stop. It exists only because the frozen benchmark
    /// (`layer_bench/src/ladder.rs`) still calls it; the next
    /// `benchmark` PR removes those calls and then this method. Nothing
    /// else may call it.
    pub fn shutdown(&self) {}

    /// Swap in a whole new atlas generation: a monthly full refresh at
    /// an origin, or a mirror re-bootstrapping after falling off its
    /// upstream's retained delta chain. The epoch bumps like any delta
    /// swap — caches invalidate, the export re-encodes — but its chain
    /// is empty: no delta produces this generation, so downstream
    /// mirrors bridge the discontinuity the same way, by refetching the
    /// full atlas. Returns the new day.
    pub fn replace_atlas(&self, atlas: Arc<Atlas>) -> u32 {
        let _builder = self.swap_lock.lock();
        self.replace_locked(atlas)
    }

    /// [`QueryEngine::replace_atlas`] for a caller already holding
    /// `swap_lock` ([`QueryEngine::update`]'s full resync).
    fn replace_locked(&self, atlas: Arc<Atlas>) -> u32 {
        // The new generation starts an empty chain: the retained deltas
        // lead to the abandoned body, and no delta leads to this one.
        let next = Generation::new(self.epoch() + 1, atlas, &self.cfg, Vec::new());
        let day = next.day();
        self.publish(next);
        self.metrics.mirror_full_resyncs.inc();
        self.emit(EventKind::FullResync, || format!("day={day}"));
        // A full swap puts us at the new generation's day; any lag the
        // broken delta chain accumulated is paid off.
        self.metrics.mirror_lag_days.set(0);
        day
    }
}

/// A [`QueryEngine`] as [`catch_up`] drives it, under the builder lock
/// [`QueryEngine::update`] holds.
struct Mirror<'e>(&'e QueryEngine);

impl Follower for Mirror<'_> {
    fn tag(&mut self) -> u64 {
        self.0.export().tag()
    }

    fn apply(&mut self, base: u64, delta: &AtlasDelta, bytes: Vec<u8>) -> Result<(), ModelError> {
        let day = self.0.swap_locked(base, delta, bytes)?;
        let m = &self.0.metrics;
        m.mirror_deltas_applied.inc();
        let upstream_day = m.mirror_upstream_day.get();
        m.mirror_lag_days
            .set(upstream_day.saturating_sub(day as u64));
        Ok(())
    }

    fn head(&mut self, head: &AtlasVersion) {
        let m = &self.0.metrics;
        m.mirror_upstream_day.set(head.day as u64);
        m.mirror_lag_days
            .set(head.day.saturating_sub(self.0.day()) as u64);
    }

    fn resync(&mut self, _: &AtlasVersion, atlas: Atlas) {
        self.0.replace_locked(Arc::new(atlas));
    }

    fn races(&mut self, races: u32) {
        self.0.metrics.mirror_races_recovered.add(races as u64);
        self.0
            .emit(EventKind::RaceRecovered, || format!("races={races}"));
    }
}

/// What a [`QueryEngine`] offers its peers, cut at one chunk size
/// ([`QueryEngine::offer`]).
pub struct Offer<'e> {
    engine: &'e QueryEngine,
    chunk_size: u32,
}

impl AtlasSource for Offer<'_> {
    fn head(&mut self) -> Result<AtlasVersion, ModelError> {
        let generation = self.engine.generation();
        let export = generation.export();
        Ok(export.version(generation.day(), self.chunk_size, &generation.chain))
    }

    fn fetch_chunk(&mut self, tag: u64, idx: u32) -> Result<AtlasChunk, ModelError> {
        let generation = self.engine.generation();
        // The chain first: a delta's chunk never encodes the export.
        let deltas = generation.chain.iter().map(|d| &*d.body);
        let export = std::iter::once_with(|| &**generation.export());
        OfferedBody::serve(deltas.chain(export), tag, self.chunk_size, idx)
    }
}
