//! The query engine: a sharded result cache probed on the caller's
//! thread, a scoped fan-out that parallelises the searches a large cold
//! batch still owes, and a hot-swappable predictor generation. The
//! engine owns no threads.
//!
//! ## Threading model
//!
//! A batch ([`QueryEngine::query_batch_shared`]) snapshots one
//! generation, then resolves every pair and probes the result cache on
//! the *caller's* thread. A hit is answered there and then as the
//! cached `Arc<PredictedPath>` — it never crosses a thread or copies
//! the path. Only the misses go on, de-duplicated per cache key so one
//! key is searched and inserted once per batch, each with the inline
//! [`PathPredictor::predict`]. They go to core's one fan-out,
//! [`fanout::run`], in chunks of [`FANOUT_CHUNK`]: at most one chunk is
//! searched right there; more, and the caller opens a
//! `std::thread::scope` in which it and up to
//! `min(available_parallelism, ⌈misses / FANOUT_CHUNK⌉) − 1` helper
//! threads pull chunks off one atomic cursor, each chunk's results
//! placed by its index. The helpers borrow the batch's generation, so a
//! batch is answered from exactly one generation, in input order, and no
//! thread outlives the call that spawned it.
//!
//! A helper needs a permit from the one process-wide counter in
//! [`fanout`], capped at `available_parallelism()` and shared with the
//! library's own [`PathPredictor::query_batch`], so however many
//! engines, shards, library batches and callers a process has, the
//! fan-outs never run more helpers than the host has cores; a batch
//! that gets no permit searches on its caller alone.
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
//! mean time per pair as its sample; a miss's sample is the search it
//! waited for. So `hits + misses + bypass + resolve errors == queries`.
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
//! [`QueryEngine::update`] is the whole mirror policy: drain the
//! source's delta chain; only when that chain was empty and the
//! source's head carries a different content tag, refetch the full
//! body and swap it in. `inano-serve --mirror`'s refresh loop and the
//! tests drive a mirror through that one call, so the counters and
//! journal events it leaves are the same everywhere.

use crate::cache::{CacheKey, ShardedCache};
use crate::stats::{EngineMetrics, Tally};
use inano_atlas::{codec, Atlas, AtlasDelta};
use inano_core::{
    chunk_span, content_tag, fanout, read_delta, read_full, AtlasSource, AtlasVersion, DeltaHandle,
    PathPredictor, PredictedPath, PredictorConfig,
};
use inano_model::{Ipv4, ModelError, PrefixId};
use inano_obs::{EventJournal, EventKind, MetricsRegistry};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
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

/// Searches per unit of fan-out work: a batch that still owes at most
/// this many after its cache probe runs them on its caller, a larger
/// one splits them into chunks of this size across scoped helper
/// threads. 64 is the only value any deployment ran while this was a
/// configuration field, and the one the fan-out was measured at
/// (DESIGN.md, "Threading model"), so it is a constant.
pub const FANOUT_CHUNK: usize = 64;

/// One immutable atlas generation. A batch snapshots an `Arc` to it
/// once and searches only that; swaps replace the pointer, never
/// mutate.
pub struct Generation {
    /// Bumped on every applied delta; part of every cache key, so a
    /// swap implicitly invalidates the whole cache.
    pub epoch: u64,
    pub predictor: Arc<PathPredictor>,
}

impl Generation {
    pub fn day(&self) -> u32 {
        self.predictor.atlas().day
    }
}

/// Daily deltas retained for re-serving ([`QueryEngine::delta_blob`]).
/// A mirror that lags further than this refetches the full atlas; one
/// day per entry, so the cap is about a month of history.
pub const DELTA_LOG_CAP: usize = 32;

/// One generation's encoded bytes plus everything a dissemination head
/// needs: what [`QueryEngine::export`] snapshots so any server can act
/// as an atlas mirror.
pub struct AtlasSnapshot {
    /// Day of the encoded atlas.
    pub day: u32,
    /// Engine epoch the snapshot was cut at (the cache key for
    /// re-encoding; local to this engine).
    pub epoch: u64,
    /// Content tag of `bytes` ([`content_tag`]) — identical on every
    /// node of a mirror chain serving this generation, which is what
    /// makes end-to-end "same atlas?" checks one integer compare.
    pub epoch_tag: u64,
    /// The encoded atlas, shared — chunk serving never copies the body.
    pub bytes: Arc<[u8]>,
    /// Per-chunk checksums, computed lazily and keyed by the chunk
    /// size they were cut at (one server serves one chunk size) — so N
    /// mirrors fetching the body cost one hash of it, not N.
    chunk_crcs: Mutex<Option<(u32, Arc<[u64]>)>>,
}

impl AtlasSnapshot {
    /// Checksums of every `chunk_size` chunk of the body, in index
    /// order; cached after the first call per chunk size.
    pub fn chunk_crcs(&self, chunk_size: u32) -> Arc<[u64]> {
        let mut cached = self.chunk_crcs.lock();
        if let Some((cut, crcs)) = cached.as_ref() {
            if *cut == chunk_size {
                return Arc::clone(crcs);
            }
        }
        let len = self.bytes.len() as u64;
        let crcs: Arc<[u64]> = (0..inano_core::n_chunks(len, chunk_size))
            .map(|i| {
                let span = chunk_span(len, chunk_size, i).expect("index below n_chunks");
                content_tag(&self.bytes[span])
            })
            .collect();
        *cached = Some((chunk_size, Arc::clone(&crcs)));
        crcs
    }
    /// The wire-facing version descriptor for this snapshot, chunked at
    /// `chunk_size`.
    pub fn version(&self, chunk_size: u32) -> AtlasVersion {
        AtlasVersion {
            day: self.day,
            epoch_tag: self.epoch_tag,
            full_len: self.bytes.len() as u64,
            chunk_size,
        }
    }

    /// Chunk `idx` of the body at `chunk_size`, or a typed
    /// out-of-range error.
    pub fn chunk(&self, chunk_size: u32, idx: u32) -> Result<&[u8], ModelError> {
        let span = chunk_span(self.bytes.len() as u64, chunk_size, idx)?;
        Ok(&self.bytes[span])
    }
}

/// One applied daily delta, retained in encoded form so downstream
/// mirrors can fetch exactly the bytes this engine applied.
pub struct DeltaBlob {
    pub from_day: u32,
    pub to_day: u32,
    pub bytes: Arc<[u8]>,
}

impl DeltaBlob {
    /// The wire-facing handle for this delta, chunked at `chunk_size`.
    pub fn handle(&self, chunk_size: u32) -> DeltaHandle {
        DeltaHandle {
            from_day: self.from_day,
            to_day: self.to_day,
            len: self.bytes.len() as u64,
            chunk_size,
        }
    }

    /// Chunk `idx` of the delta body at `chunk_size`.
    pub fn chunk(&self, chunk_size: u32, idx: u32) -> Result<&[u8], ModelError> {
        let span = chunk_span(self.bytes.len() as u64, chunk_size, idx)?;
        Ok(&self.bytes[span])
    }
}

/// One answer as the engine holds it: the prediction shared with the
/// result cache, never deep-copied on the way out.
pub type SharedResult = Result<Arc<PredictedPath>, ModelError>;

/// One search a batch still owes after probing the cache.
#[derive(Clone, Copy)]
struct Miss {
    src: PrefixId,
    dst: PrefixId,
    /// Where the result is cached; `None` for a non-canonical endpoint,
    /// which bypasses the cache.
    key: Option<CacheKey>,
}

/// What the cache said about one resolved pair.
enum Probed {
    Hit(Arc<PredictedPath>),
    Miss(Miss),
}

/// Where one pair of a batch stands after its probe.
enum Slot {
    /// Answered on the spot: a cache hit or a resolve error.
    Ready(SharedResult),
    /// Waits for the search at this index of the batch's miss list.
    Waits(usize),
}

/// A search's result and how long it took, microseconds.
type Searched = (SharedResult, u64);

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
    /// Cached encoding of the current generation, keyed by its epoch
    /// (re-encoding a ~7MB atlas per mirror request would be the real
    /// cost of serving as a mirror; this makes it once per swap).
    export: Mutex<Option<Arc<AtlasSnapshot>>>,
    /// Encoded deltas this engine applied, oldest first, capped at
    /// [`DELTA_LOG_CAP`] — what downstream mirrors fetch.
    delta_log: Mutex<VecDeque<Arc<DeltaBlob>>>,
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
        let predictor = Arc::new(PathPredictor::new(atlas, cfg.predictor.clone()));
        let generation = Arc::new(Generation {
            epoch: 0,
            predictor,
        });
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
            export: Mutex::new(None),
            delta_log: Mutex::new(VecDeque::new()),
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
    /// `Arc`. The misses, one per distinct cache key, are searched
    /// inline when there are at most [`FANOUT_CHUNK`] of them,
    /// otherwise by this thread and scoped helpers, `FANOUT_CHUNK`
    /// searches at a time (see the module docs). The batch's counts are
    /// tallied locally and added to [`QueryEngine::metrics`] once, on
    /// the way out.
    pub fn query_batch_shared(&self, pairs: &[(Ipv4, Ipv4)]) -> Vec<SharedResult> {
        let generation = self.generation();
        let mut tally = Tally::default();
        let mut misses: Vec<Miss> = Vec::new();
        let mut by_key: HashMap<CacheKey, usize> = HashMap::new();
        let start = Instant::now();
        let slots: Vec<Slot> = pairs
            .iter()
            .map(|&(src, dst)| {
                let probed = self.probe(&generation, src, dst, &mut tally);
                match probed {
                    Ok(Probed::Hit(hit)) => Slot::Ready(Ok(hit)),
                    Err(e) => Slot::Ready(Err(e)),
                    Ok(Probed::Miss(miss)) => {
                        // A key this batch already owes a search for
                        // waits on that one; anything else (a new key,
                        // or a pair that bypasses the cache) owes its
                        // own.
                        let next = misses.len();
                        let at = match miss.key {
                            Some(key) => *by_key.entry(key).or_insert(next),
                            None => next,
                        };
                        if at == next {
                            misses.push(miss);
                        }
                        Slot::Waits(at)
                    }
                }
            })
            .collect();
        // Two clock reads for the whole pass: a pair answered in it
        // takes the pass's mean time per pair as its sample.
        let probe_us = (start.elapsed().as_nanos() / (1000 * pairs.len().max(1) as u128)) as u64;
        let searched = self.search_all(&generation, &misses);
        let answers = slots
            .into_iter()
            .map(|slot| {
                let (result, us) = match slot {
                    Slot::Ready(r) => (r, probe_us),
                    Slot::Waits(at) => {
                        let (result, us) = &searched[at];
                        (result.clone(), *us)
                    }
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
            None => Probed::Miss(Miss {
                src: s.prefix,
                dst: d.prefix,
                key,
            }),
        })
    }

    /// Run a batch's searches against its generation, in miss order:
    /// inline up to [`FANOUT_CHUNK`] of them (the common batch never
    /// touches the process-wide permit counter), else chunked over
    /// permitted helpers by [`fanout::run`].
    fn search_all(&self, generation: &Generation, misses: &[Miss]) -> Vec<Searched> {
        fanout::run(misses.len(), FANOUT_CHUNK, |i| {
            search(generation, &self.cache, &misses[i])
        })
    }

    /// Apply one daily delta and swap the serving generation. All heavy
    /// work (delta application, graph construction) happens before the
    /// write lock; the lock is held only to store the new pointer.
    pub fn apply_delta(&self, delta: &AtlasDelta) -> Result<u32, ModelError> {
        let _builder = self.swap_lock.lock();
        self.swap_locked(delta, None)
    }

    /// The swap itself; caller must hold `swap_lock` so concurrent
    /// builders can't interleave between the generation read and the
    /// pointer store. `encoded` is the delta's wire form when the
    /// caller already has it (an `update` fetched it as bytes);
    /// otherwise it is re-encoded here for the delta log.
    fn swap_locked(&self, delta: &AtlasDelta, encoded: Option<Vec<u8>>) -> Result<u32, ModelError> {
        let base = self.generation();
        let next_atlas = Arc::new(delta.apply(base.predictor.atlas())?);
        let predictor = Arc::new(PathPredictor::new(next_atlas, self.cfg.predictor.clone()));
        let next = Arc::new(Generation {
            epoch: base.epoch + 1,
            predictor,
        });
        let day = next.day();
        self.publish(next);
        self.emit(EventKind::DeltaApplied, || {
            format!("from={} to={}", delta.from_day, delta.to_day)
        });
        // Retain the applied delta for downstream mirrors: the bytes a
        // peer fetching `delta(from_day)` from this engine receives are
        // exactly the bytes this engine applied.
        let bytes = encoded.unwrap_or_else(|| delta.encode().0);
        let mut log = self.delta_log.lock();
        if log.len() == DELTA_LOG_CAP {
            log.pop_front();
        }
        log.push_back(Arc::new(DeltaBlob {
            from_day: delta.from_day,
            to_day: delta.to_day,
            bytes: bytes.into(),
        }));
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

    /// Snapshot the serving generation's encoded bytes + version for
    /// dissemination — what makes *any* engine an atlas origin. Cached
    /// per epoch: the first call after a swap re-encodes, later calls
    /// share the same `Arc`.
    pub fn export(&self) -> Arc<AtlasSnapshot> {
        let generation = self.generation();
        let mut cached = self.export.lock();
        if let Some(snap) = cached.as_ref() {
            if snap.epoch == generation.epoch {
                return Arc::clone(snap);
            }
        }
        let (bytes, _) = codec::encode(generation.predictor.atlas());
        let snap = Arc::new(AtlasSnapshot {
            day: generation.day(),
            epoch: generation.epoch,
            epoch_tag: content_tag(&bytes),
            bytes: bytes.into(),
            chunk_crcs: Mutex::new(None),
        });
        *cached = Some(Arc::clone(&snap));
        snap
    }

    /// The retained delta leaving `have_day`, if this engine applied
    /// one recently enough ([`DELTA_LOG_CAP`]).
    pub fn delta_blob(&self, have_day: u32) -> Option<Arc<DeltaBlob>> {
        self.delta_log
            .lock()
            .iter()
            .find(|b| b.from_day == have_day)
            .cloned()
    }

    /// Catch up with `source` — the one policy a mirror runs every
    /// tick (the client-side daily update of §5, against the live
    /// engine). Returns how many deltas were applied.
    ///
    /// 1. **Delta chain first.** Every delta the source offers beyond
    ///    the current day is fetched, applied and retained for this
    ///    engine's own downstream mirrors; each counts one
    ///    `mirror_deltas_applied` and journals one `DeltaApplied`.
    /// 2. **Head probe.** The source's head then sets
    ///    `mirror_upstream_day` and `mirror_lag_days`. A probe that
    ///    fails after deltas were applied keeps them and returns their
    ///    count; the gauges go stale until the next call.
    /// 3. **Full body only on an empty chain.** When no delta was
    ///    applied and the head's `epoch_tag` differs from this engine's
    ///    own ([`QueryEngine::export`], cached per epoch, so an idle
    ///    tick costs one compare and no body bytes), the chain is
    ///    broken — the upstream replaced its atlas or restarted, or
    ///    this mirror lagged past [`DELTA_LOG_CAP`] retained days — and
    ///    the whole body is refetched and swapped in as
    ///    [`QueryEngine::replace_atlas`] does: one
    ///    `mirror_full_resyncs`, one `FullResync` event, lag back to 0,
    ///    the delta log cleared. The call still returns `Ok(0)`. A
    ///    source must therefore name as its head the version its own
    ///    delta chain ends at, as every live server does.
    ///
    /// Whole-body restarts the reader recovered from (the source
    /// swapped generations mid-fetch) count in `mirror_races_recovered`
    /// and journal `RaceRecovered`, for deltas and full bodies alike.
    /// Any fetch or decode error is returned with the engine still
    /// serving what it served: the caller's cue to rebuild its
    /// connection.
    ///
    /// The builder lock is held across the whole call: a concurrent
    /// `apply_delta`/`update` can't swap between this loop's day read
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
        let mut applied = 0;
        loop {
            let (fetched, races) = read_delta(source, self.day())?;
            self.count_races(races);
            let Some((_, bytes)) = fetched else { break };
            let delta = AtlasDelta::decode(&bytes)?;
            self.swap_locked(&delta, Some(bytes))?;
            applied += 1;
        }
        self.metrics.mirror_deltas_applied.add(applied as u64);
        let head = match source.head() {
            Ok(head) => head,
            Err(_) if applied > 0 => return Ok(applied),
            Err(e) => return Err(e),
        };
        self.metrics.mirror_upstream_day.set(head.day as u64);
        self.metrics
            .mirror_lag_days
            .set(head.day.saturating_sub(self.day()) as u64);
        if applied == 0 && head.epoch_tag != self.export().epoch_tag {
            let (_, bytes, races) = read_full(source)?;
            self.count_races(races);
            self.replace_locked(Arc::new(codec::decode(&bytes)?));
        }
        Ok(applied)
    }

    /// Record whole-body restarts a reader fetch recovered from.
    fn count_races(&self, races: u32) {
        if races > 0 {
            self.metrics.mirror_races_recovered.add(races as u64);
            self.emit(EventKind::RaceRecovered, || format!("races={races}"));
        }
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
    /// swap — caches invalidate, the export snapshot re-encodes — but
    /// no delta is logged: there is no delta that produces this
    /// generation, so downstream mirrors bridge the discontinuity the
    /// same way, by refetching the full atlas. Returns the new day.
    pub fn replace_atlas(&self, atlas: Arc<Atlas>) -> u32 {
        let _builder = self.swap_lock.lock();
        self.replace_locked(atlas)
    }

    /// [`QueryEngine::replace_atlas`] for a caller already holding
    /// `swap_lock` ([`QueryEngine::update`]'s full resync).
    fn replace_locked(&self, atlas: Arc<Atlas>) -> u32 {
        let base = self.generation();
        let predictor = Arc::new(PathPredictor::new(atlas, self.cfg.predictor.clone()));
        let next = Arc::new(Generation {
            epoch: base.epoch + 1,
            predictor,
        });
        let day = next.day();
        self.publish(next);
        self.metrics.mirror_full_resyncs.inc();
        self.emit(EventKind::FullResync, || format!("day={day}"));
        // A full swap puts us at the new generation's day; any lag the
        // broken delta chain accumulated is paid off.
        self.metrics.mirror_lag_days.set(0);
        // The retained deltas belong to the abandoned chain; serving
        // them on would walk lagging mirrors down a dead generation
        // instead of forcing the full resync this replace demands.
        self.delta_log.lock().clear();
        day
    }
}

/// Run one owed search and cache what it found.
fn search(generation: &Generation, cache: &ShardedCache, miss: &Miss) -> Searched {
    let start = Instant::now();
    let result = generation
        .predictor
        .predict(miss.src, miss.dst)
        .map(Arc::new);
    if let (Some(key), Ok(path)) = (miss.key, &result) {
        cache.insert(key, Arc::clone(path));
    }
    (result, start.elapsed().as_micros() as u64)
}
