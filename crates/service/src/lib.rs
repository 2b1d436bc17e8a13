//! # inano-service
//!
//! The serving layer above `inano-core`: an embeddable query engine,
//! callable from any number of threads, that turns the paper's
//! single-threaded library (§5 — "a library runnable at every peer")
//! into something that serves heavy traffic on a multicore host.
//!
//! Three pieces, separable and individually tested:
//!
//! * [`QueryEngine`] — a batch is two halves.
//!   [`QueryEngine::probe_batch`] resolves it on the calling thread from
//!   one generation snapshot, probes the cache for all of it with one
//!   lock per shard touched, and answers it there if every pair is
//!   cached; otherwise it hands back an [`Owed`] batch, which
//!   [`QueryEngine::finish`] — on that thread or any other — passes to
//!   the library's batch planner,
//!   [`inano_core::PathPredictor::predict_batch`], which fans the
//!   searches over scoped helper threads through
//!   [`inano_core::fanout`], bounded process-wide by the core count
//!   (the engine owns no threads). [`QueryEngine::query_batch`] runs
//!   both halves on its caller; `inano-net` probes on its event loop
//!   and finishes on a responder;
//! * [`ShardedCache`] — a sharded LRU over full bidirectional
//!   predictions ([`Answer`]s, each with the reply row a server writes
//!   for it once) keyed `(src_cluster, dst_cluster, epoch)`, riding the
//!   paper's observation that predictions are stable within a
//!   measurement day, with hit/miss/eviction/insert counters, and a
//!   batched probe and insert that group a batch's keys by shard, so
//!   concurrent callers take each shard's lock once per batch rather
//!   than once per pair;
//! * hot swap — the serving generation is an `Arc` behind a `RwLock`
//!   taken for writing only during the pointer store of a daily-delta
//!   apply ([`QueryEngine::apply_delta`] /
//!   [`QueryEngine::update`], fed by any [`inano_core::AtlasSource`]:
//!   `inano-net`'s `MirrorSource` over the wire, or a `StaticSource` in
//!   memory), so updates never stall in-flight queries.
//!
//! [`ShardRegistry`] composes engines into multi-atlas serving: a
//! [`ShardId`]-keyed set of fully independent engines (own cache,
//! epoch; caches sized from one shared budget) behind a single lookup,
//! with per-shard delta application — the unit `inano-net` serves
//! behind one listener.
//!
//! Every count an engine keeps lives in one [`EngineMetrics`] of
//! `inano-obs` registry handles, exported by
//! [`QueryEngine::register_metrics`] and read in process through
//! [`QueryEngine::metrics`]: `.get()` for counters and gauges,
//! `inano_obs::quantile_from_counts` over the `latency_us` snapshot for
//! percentiles.
//!
//! See DESIGN.md ("The service layer") for the full architecture
//! discussion: threading model, cache-key soundness argument, and the
//! swap protocol.

pub mod cache;
pub mod engine;
pub mod registry;
pub mod stats;

pub use cache::{CacheKey, ShardedCache};
pub use engine::{
    Answer, Generation, Offer, Owed, QueryEngine, ServiceConfig, SharedResult, DELTA_LOG_CAP,
};
pub use registry::{RegistryConfig, ShardId, ShardRegistry, ShardSpec};
pub use stats::EngineMetrics;
