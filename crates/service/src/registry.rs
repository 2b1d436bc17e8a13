//! The shard registry: one process, many independent atlas shards.
//!
//! The deployment story of §5 is many atlas generations/regions served
//! to millions of thin peers. One [`QueryEngine`] is one atlas; a
//! [`ShardRegistry`] is the step from "a server" toward "a serving
//! fleet": a [`ShardId`]-keyed set of engines, each with its own
//! cache and epoch, behind one lookup. Nothing is shared between
//! shards except the process — a delta applied to shard A
//! cannot bump shard B's epoch or evict its cache, which is exactly
//! the isolation a fleet operator needs to roll atlas generations
//! shard by shard.
//!
//! ## Resource budget
//!
//! [`ShardRegistry::build`] sizes every shard's cache from a *shared*
//! budget ([`RegistryConfig::total_cache_capacity`]): N shards on one
//! host should cost roughly what one big engine costs, not N times as
//! much. Each shard gets an equal split, floored at a small cache so a
//! crowded registry degrades instead of panicking. Threads need no
//! budget: an engine owns none, and the helpers a large cold batch
//! borrows are capped process-wide (see [`crate::engine`]).

use crate::engine::{QueryEngine, ServiceConfig};
use inano_atlas::{Atlas, AtlasDelta};
use inano_core::PredictorConfig;
use inano_model::ModelError;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Identifies one atlas shard within a registry. Part of the v2 wire
/// protocol (requests carry it as a `u16`); shard 0 is the default
/// every shard-unaware caller lands on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u16);

impl ShardId {
    /// The shard that keeps single-atlas semantics: requests that name
    /// no shard are served by shard 0.
    pub const DEFAULT: ShardId = ShardId(0);

    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// What one shard serves: an atlas plus the predictor settings for it
/// (a synthetic ring world and a measured atlas want different
/// refinements, and one registry may host both).
pub struct ShardSpec {
    pub id: ShardId,
    pub atlas: Arc<Atlas>,
    pub predictor: PredictorConfig,
}

/// Registry-wide tuning: one budget shared by every shard.
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Result-cache entries across all shards, split evenly.
    pub total_cache_capacity: usize,
    /// Cache shard count per engine (rounded up to a power of two).
    pub cache_shards: usize,
}

impl Default for RegistryConfig {
    fn default() -> RegistryConfig {
        let d = ServiceConfig::default();
        RegistryConfig {
            total_cache_capacity: d.cache_capacity,
            cache_shards: d.cache_shards,
        }
    }
}

impl RegistryConfig {
    /// The per-shard engine configuration when `shards` shards split
    /// this budget.
    fn shard_config(&self, shards: usize, predictor: PredictorConfig) -> ServiceConfig {
        let n = shards.max(1);
        ServiceConfig {
            cache_capacity: (self.total_cache_capacity / n).max(64),
            cache_shards: self.cache_shards,
            predictor,
        }
    }
}

/// At least one shard, and no more than the wire protocol's
/// `ShardsReply` can enumerate (its count register is a `u16`, so a
/// full 65536-id registry would silently drop one shard from every
/// listing).
fn check_shard_count(n: usize) -> Result<(), ModelError> {
    if n == 0 {
        return Err(ModelError::Config(
            "a shard registry needs at least one shard".into(),
        ));
    }
    if n > u16::MAX as usize {
        return Err(ModelError::Config(format!(
            "{n} shards exceed the wire-enumerable limit of {}",
            u16::MAX
        )));
    }
    Ok(())
}

/// A fixed set of independent [`QueryEngine`]s keyed by [`ShardId`].
///
/// The shard set is decided at construction (a serving process is
/// configured with its shards; re-sharding is a restart), so lookups
/// are lock-free reads of an immutable map — the hot path pays one
/// `BTreeMap` probe, never a lock.
pub struct ShardRegistry {
    shards: BTreeMap<ShardId, Arc<QueryEngine>>,
}

impl ShardRegistry {
    /// Build one engine per spec, splitting the registry budget evenly
    /// across them. Duplicate shard ids and an empty spec list are
    /// configuration errors.
    pub fn build(specs: Vec<ShardSpec>, cfg: RegistryConfig) -> Result<ShardRegistry, ModelError> {
        check_shard_count(specs.len())?;
        let n = specs.len();
        let mut shards = BTreeMap::new();
        for spec in specs {
            let engine = Arc::new(QueryEngine::new(
                spec.atlas,
                cfg.shard_config(n, spec.predictor),
            ));
            if shards.insert(spec.id, engine).is_some() {
                return Err(ModelError::Config(format!(
                    "duplicate {} in registry spec",
                    spec.id
                )));
            }
        }
        Ok(ShardRegistry { shards })
    }

    /// Wrap pre-built engines (each already sized by its owner).
    /// The benchmark and tests use this to control per-shard
    /// configuration exactly.
    pub fn from_engines(
        engines: Vec<(ShardId, Arc<QueryEngine>)>,
    ) -> Result<ShardRegistry, ModelError> {
        check_shard_count(engines.len())?;
        let mut shards = BTreeMap::new();
        for (id, engine) in engines {
            if shards.insert(id, engine).is_some() {
                return Err(ModelError::Config(format!("duplicate {id} in registry")));
            }
        }
        Ok(ShardRegistry { shards })
    }

    /// The engine serving `shard`, or a typed [`ModelError::UnknownShard`].
    pub fn engine(&self, shard: ShardId) -> Result<&Arc<QueryEngine>, ModelError> {
        self.shards
            .get(&shard)
            .ok_or(ModelError::UnknownShard(shard.0))
    }

    pub fn contains(&self, shard: ShardId) -> bool {
        self.shards.contains_key(&shard)
    }

    /// Shard ids in ascending order.
    pub fn shard_ids(&self) -> Vec<ShardId> {
        self.shards.keys().copied().collect()
    }

    pub fn len(&self) -> usize {
        self.shards.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Iterate `(id, engine)` in shard-id order.
    pub fn iter(&self) -> impl Iterator<Item = (ShardId, &Arc<QueryEngine>)> {
        self.shards.iter().map(|(&id, e)| (id, e))
    }

    /// Apply one daily delta to `shard` only; every other shard's
    /// epoch and cache are untouched. Returns the shard's new day.
    /// Every other per-shard call goes through
    /// [`ShardRegistry::engine`]; this one stays because the frozen
    /// benchmark calls it.
    pub fn apply_delta(&self, shard: ShardId, delta: &AtlasDelta) -> Result<u32, ModelError> {
        self.engine(shard)?.apply_delta(delta)
    }

    /// Does nothing: no shard owns a thread. It exists only because the
    /// frozen benchmark (`layer_bench/src/workloads.rs`) still calls
    /// it; the next `benchmark` PR removes that call and then this
    /// method. Nothing else may call it.
    pub fn shutdown(&self) {}
}
