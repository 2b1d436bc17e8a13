//! The query engine: a sharded result cache probed on the caller's
//! thread, the library's batch planner for whatever the cache could not
//! answer (on that thread or, handed an [`Owed`] batch, another), and a
//! hot-swappable predictor generation. The engine owns no threads.
//!
//! ## Threading model
//!
//! A batch ([`QueryEngine::query_batch_shared`]) is two halves, and the
//! engine owns no thread for either. The first,
//! [`QueryEngine::probe_batch`], snapshots one generation and works in
//! two passes on the thread that calls it. The first pass resolves
//! every pair and computes its cache key (every resolved pair has one:
//! a canonical endpoint's cluster, any other endpoint's own prefix; see
//! `cache_key`). The second probes the result cache one shard at a time
//! ([`ShardedCache::get_batch`]): each shard the batch touches is locked
//! once, not once per pair, because a shard lock taken per pair moved
//! its cache line between two concurrent callers on every probe and more
//! than doubled their per-pair cost (see [`crate::cache`]). A hit is
//! answered there and then as the cached `Arc<PredictedPath>` — it never
//! copies the path. When every pair is answered so, the batch is done
//! on that thread; its per-pair state lives in a thread-local scratch,
//! so a warm batch allocates once: the answers it returns.
//!
//! Otherwise the probe hands back an [`Owed`] batch, which owns its
//! generation and per-pair state and is `Send`: a server probes on its
//! event loop and moves what is owed to a responder, an embedded caller
//! finishes on its own thread. The second half,
//! [`QueryEngine::finish`], takes only the misses on, de-duplicated per
//! cache key in input order so one key is predicted and inserted once
//! per batch: all of them are one [`PathPredictor::predict_batch`] on
//! the finishing thread, the planner the library's own
//! [`PathPredictor::query_batch`] runs. It predicts each distinct
//! one-way path once and runs the searches it owes one per job on that
//! thread and scoped helper threads ([`inano_core::fanout`]); the
//! answers are then inserted there, one lock per shard, in miss order
//! within a shard ([`ShardedCache::insert_batch`]). Both groupings are
//! stable, so each shard sees the same `get`s and `insert`s, in the same
//! order, as a loop of one probe per pair. The search runs on the
//! generation the probe snapshotted, so a batch is answered from exactly
//! one generation, in input order, whichever thread finishes it and
//! whatever swap lands between the halves; no helper outlives the call
//! that spawned it.
//!
//! A helper needs a permit from the one process-wide counter in
//! [`inano_core::fanout`], capped at `available_parallelism()`, so
//! however many engines, shards, library batches and callers a process
//! has, the fan-outs never run more helpers than the host has cores; a
//! batch that gets no permit searches on its finishing thread alone.
//! [`QueryEngine::query`] / [`QueryEngine::query_batch`] are the owning
//! forms: the same path, with each result cloned out of its `Arc`.
//!
//! ## Counters
//!
//! All of them live in one [`EngineMetrics`] of registry handles
//! ([`QueryEngine::metrics`]), read with `.get()` — percentiles with
//! `quantile_from_counts` over the `latency_us` snapshot. Every pair
//! that resolves is probed once and counted once (a cache hit or a
//! miss); in-batch duplicates of a missed key each count their miss but
//! share one search and one insert. `queries`, `errors` and the latency
//! histogram take one sample per pair. The probe passes read the clock
//! at their start and their end, and every pair they answer on the spot
//! (a hit or a resolve error) takes their mean time per pair as its
//! sample; a miss's sample is the time of the planner call it waited
//! for, from the start of [`QueryEngine::finish`]. So `hits + misses +
//! resolve errors == queries`. Nothing is added per pair: the cache
//! adds the batch's hits, misses, inserts and evictions once each from
//! its batched probe and insert, and the half that answers the batch —
//! the probe when it answers whole, else `finish` — tallies the rest in
//! locals and adds each series once when it returns, so the counters
//! are exact as soon as the batch is answered.
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
    OfferedDelta, PathPredictor, PredictedPath, PredictorConfig, Resolution,
};
use inano_model::{ClusterId, Ipv4, ModelError, PrefixId};
use inano_obs::{EventJournal, EventKind, MetricsRegistry};
use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
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

/// Where the answer for a resolved pair is cached. A prediction is a
/// pure function of (source prefix, destination prefix, generation),
/// so each side is named by what its answer depends on:
///
/// * a canonical endpoint ([`Resolution::canonical`]) by its cluster:
///   every canonical prefix of a cluster searches and composes alike,
///   so all of them share one entry;
/// * any other endpoint by its own prefix id, put in the cluster slot
///   and told apart by a tag bit of the epoch word (bit 63 for the
///   source, bit 62 for the destination), so a prefix-keyed side never
///   equals a cluster-keyed one.
fn cache_key(s: &Resolution, d: &Resolution, epoch: u64) -> CacheKey {
    debug_assert!(epoch < 1 << 62, "epoch {epoch} reaches the tag bits");
    let side = |r: &Resolution, tag: u64| match r.canonical() {
        true => (r.cluster, 0),
        false => (ClusterId::new(r.prefix.raw()), tag),
    };
    let ((src, src_tag), (dst, dst_tag)) = (side(s, 1 << 63), side(d, 1 << 62));
    (src, dst, epoch | src_tag | dst_tag)
}

/// Where one pair of a batch stands.
enum Slot {
    /// Answered on the spot: a cache hit or a resolve error.
    Ready(SharedResult),
    /// Resolved, its key at this index of the batch's keys: a miss
    /// until the cache says otherwise.
    Keyed(usize),
    /// Waits for the answer at this index of the batch's miss list.
    Waits(usize),
}

/// A batch's per-pair state, kept per thread and reused, so a warm
/// batch's one allocation is the answers it returns. A batch clears it
/// first and drains `slots` into its answers, so no `Arc` outlives the
/// call that took it (short of a panic, until the thread's next batch).
#[derive(Default)]
struct Scratch {
    /// Per pair, in input order.
    slots: Vec<Slot>,
    /// Per resolved pair, in input order: its cache key ...
    keys: Vec<CacheKey>,
    /// ... its index in the batch, and the prefixes a miss predicts.
    resolved: Vec<(usize, (PrefixId, PrefixId))>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// A batch [`QueryEngine::probe_batch`] could not answer whole: the
/// generation it was probed on, where each pair stands, and the probe's
/// time per pair. Every pair was probed and its hit or miss counted;
/// nothing else is counted until [`QueryEngine::finish`] answers it,
/// on whichever thread holds it.
pub struct Owed {
    generation: Arc<Generation>,
    /// Per pair, in input order: answered, or keyed at this index of
    /// `keys` and `prefixes`.
    slots: Vec<Slot>,
    /// Per resolved pair, in input order: its cache key ...
    keys: Vec<CacheKey>,
    /// ... and the prefixes a miss predicts.
    prefixes: Vec<(PrefixId, PrefixId)>,
    /// The probe pass's mean time per pair, µs.
    probe_us: u64,
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
    /// input order: [`QueryEngine::probe_batch`], then, if the result
    /// cache left pairs unanswered, [`QueryEngine::finish`] on this
    /// thread.
    pub fn query_batch_shared(&self, pairs: &[(Ipv4, Ipv4)]) -> Vec<SharedResult> {
        self.probe_batch(pairs)
            .unwrap_or_else(|owed| self.finish(owed))
    }

    /// The first half of a batch: snapshot one generation, resolve
    /// every pair and probe the result cache for all of them at once
    /// ([`ShardedCache::get_batch`]). If every pair is answered (a hit
    /// as the cached `Arc`, or a resolve error), the answers come back
    /// in input order with the batch's counts added to
    /// [`QueryEngine::metrics`]; a warm batch allocates once, its
    /// answers. Otherwise the batch is [`Owed`]: hand it to
    /// [`QueryEngine::finish`] on this engine, on any thread.
    pub fn probe_batch(&self, pairs: &[(Ipv4, Ipv4)]) -> Result<Vec<SharedResult>, Owed> {
        SCRATCH.with_borrow_mut(|scratch| self.probe(pairs, scratch))
    }

    /// [`QueryEngine::probe_batch`] in this thread's scratch.
    fn probe(
        &self,
        pairs: &[(Ipv4, Ipv4)],
        scratch: &mut Scratch,
    ) -> Result<Vec<SharedResult>, Owed> {
        let Scratch {
            slots,
            keys,
            resolved,
        } = scratch;
        slots.clear();
        keys.clear();
        resolved.clear();
        let generation = self.generation();
        let p = &generation.predictor;
        let start = Instant::now();
        for (at, &(src, dst)) in pairs.iter().enumerate() {
            let slot = match (p.resolve(src), p.resolve(dst)) {
                (Ok(s), Ok(d)) => {
                    keys.push(cache_key(&s, &d, generation.epoch));
                    resolved.push((at, (s.prefix, d.prefix)));
                    Slot::Keyed(keys.len() - 1)
                }
                (Err(e), _) | (_, Err(e)) => Slot::Ready(Err(e)),
            };
            slots.push(slot);
        }
        let mut hits = 0;
        self.cache.get_batch(keys, |k, hit| {
            if let Some(hit) = hit {
                slots[resolved[k].0] = Slot::Ready(Ok(Arc::clone(hit)));
                hits += 1;
            }
        });
        // A pair answered here takes the pass's mean time per pair as
        // its latency sample.
        let probe_us = (start.elapsed().as_nanos() / (1000 * pairs.len().max(1) as u128)) as u64;
        if hits < keys.len() {
            // Copied out, not taken: the scratch keeps its capacity for
            // this thread's next batch.
            #[allow(clippy::drain_collect)]
            let slots = slots.drain(..).collect();
            return Err(Owed {
                generation,
                slots,
                keys: keys.clone(),
                prefixes: resolved.iter().map(|&(_, prefixes)| prefixes).collect(),
                probe_us,
            });
        }
        Ok(self.answer(slots.drain(..), probe_us, &[], 0))
    }

    /// The second half of a batch [`QueryEngine::probe_batch`] left
    /// owing: its misses, one per distinct cache key in input order,
    /// are one [`PathPredictor::predict_batch`] on the generation the
    /// probe snapshotted, which fans their searches out (see the module
    /// docs), and their answers are cached at once
    /// ([`ShardedCache::insert_batch`]). Every pair of the batch, hits
    /// included, is tallied here and added to [`QueryEngine::metrics`]
    /// once, on the way out. Call it on the engine that probed.
    pub fn finish(&self, owed: Owed) -> Vec<SharedResult> {
        let Owed {
            generation,
            mut slots,
            keys,
            prefixes,
            probe_us,
        } = owed;
        let start = Instant::now();
        // A key this batch already owes an answer for waits on that
        // one; a new key owes its own, in input order.
        let (mut misses, mut owed) = (Vec::new(), Vec::new());
        let mut by_key: HashMap<CacheKey, usize> = HashMap::new();
        for slot in slots.iter_mut() {
            if let Slot::Keyed(k) = *slot {
                let next = misses.len();
                let at = *by_key.entry(keys[k]).or_insert(next);
                if at == next {
                    misses.push(prefixes[k]);
                    owed.push(keys[k]);
                }
                *slot = Slot::Waits(at);
            }
        }
        let predicted = generation.predictor.predict_batch(&misses).into_iter();
        let missed: Vec<SharedResult> = predicted.map(|r| r.map(Arc::new)).collect();
        // A miss's latency sample is the time of the planner call it
        // waited for.
        let miss_us = start.elapsed().as_micros() as u64;
        let entries: Vec<_> = (owed.into_iter().zip(&missed))
            .filter_map(|(key, result)| Some((key, Arc::clone(result.as_ref().ok()?))))
            .collect();
        self.cache.insert_batch(&entries);
        self.answer(slots.into_iter(), probe_us, &missed, miss_us)
    }

    /// A batch's answers in input order, each pair tallied with its
    /// latency sample — `probe_us` for one answered in the probe pass,
    /// `miss_us` for one waiting on `missed` — and the tally added to
    /// [`QueryEngine::metrics`] once.
    fn answer(
        &self,
        slots: impl Iterator<Item = Slot>,
        probe_us: u64,
        missed: &[SharedResult],
        miss_us: u64,
    ) -> Vec<SharedResult> {
        let mut tally = Tally::default();
        let answers = slots
            .map(|slot| {
                let (result, us) = match slot {
                    Slot::Ready(r) => (r, probe_us),
                    Slot::Waits(at) => (missed[at].clone(), miss_us),
                    Slot::Keyed(_) => unreachable!("every keyed pair was a hit or owes a miss"),
                };
                tally.answer(us, result.is_ok());
                result
            })
            .collect();
        tally.flush(&self.metrics);
        answers
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
