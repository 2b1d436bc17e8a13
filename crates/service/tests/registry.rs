//! Integration tests for the shard registry: budget split, typed
//! unknown-shard errors, per-shard delta isolation (epoch *and*
//! cache) and exact stats aggregation.

use inano_core::PredictorConfig;
use inano_model::ModelError;
use inano_obs::{MetricValue, MetricsDump, MetricsRegistry};
use inano_service::{RegistryConfig, ShardId, ShardRegistry, ShardSpec};
use std::sync::Arc;

#[path = "common/ring.rs"]
mod ring;
use ring::{ring_atlas, ring_ip, ring_shortcut_delta};

fn two_ring_registry(n: u32) -> ShardRegistry {
    let specs = [ShardId(0), ShardId(1)]
        .into_iter()
        .map(|id| ShardSpec {
            id,
            atlas: Arc::new(ring_atlas(n, 0)),
            predictor: PredictorConfig::full(),
        })
        .collect();
    ShardRegistry::build(
        specs,
        RegistryConfig {
            total_cache_capacity: 2048,
            cache_shards: 4,
        },
    )
    .expect("two-shard registry builds")
}

#[test]
fn build_splits_the_budget_and_serves_every_shard() {
    let specs = (0..3)
        .map(|i| ShardSpec {
            id: ShardId(i),
            atlas: Arc::new(ring_atlas(8 + i as u32 * 4, 0)),
            predictor: PredictorConfig::full(),
        })
        .collect();
    let registry = ShardRegistry::build(
        specs,
        RegistryConfig {
            total_cache_capacity: 3000,
            cache_shards: 4,
        },
    )
    .expect("registry builds");
    assert_eq!(registry.len(), 3);
    assert_eq!(
        registry.shard_ids(),
        vec![ShardId(0), ShardId(1), ShardId(2)]
    );
    for (k, (_, engine)) in registry.iter().enumerate() {
        // Each shard serves its own world: the 0 -> n/2 path length
        // tracks that shard's ring size.
        let n = 8 + k as u32 * 4;
        let path = engine.query(ring_ip(0), ring_ip(n / 2)).expect("routable");
        assert_eq!(path.fwd_clusters.len(), n as usize / 2 + 1);
    }
}

#[test]
fn empty_and_duplicate_specs_are_config_errors() {
    assert!(matches!(
        ShardRegistry::build(Vec::new(), RegistryConfig::default()),
        Err(ModelError::Config(_))
    ));
    let dup = |id| ShardSpec {
        id,
        atlas: Arc::new(ring_atlas(6, 0)),
        predictor: PredictorConfig::full(),
    };
    assert!(matches!(
        ShardRegistry::build(
            vec![dup(ShardId(3)), dup(ShardId(3))],
            RegistryConfig::default()
        ),
        Err(ModelError::Config(_))
    ));
    assert!(matches!(
        ShardRegistry::from_engines(Vec::new()),
        Err(ModelError::Config(_))
    ));
}

#[test]
fn unknown_shard_is_a_typed_error_everywhere() {
    let registry = two_ring_registry(8);
    let missing = ShardId(9);
    assert!(matches!(
        registry.engine(missing),
        Err(ModelError::UnknownShard(9))
    ));
    assert!(matches!(
        registry.apply_delta(missing, &ring_shortcut_delta(8, 0)),
        Err(ModelError::UnknownShard(9))
    ));
    assert!(!registry.contains(missing));
    assert!(registry.contains(ShardId(1)));
}

#[test]
fn delta_on_one_shard_never_bumps_the_other_or_evicts_its_cache() {
    let n = 12;
    let far = n / 2;
    let registry = two_ring_registry(n);
    let a = ShardId(0);
    let b = ShardId(1);

    // Warm both caches: first query misses, second hits.
    for shard in [a, b] {
        let engine = registry.engine(shard).unwrap();
        engine.query(ring_ip(0), ring_ip(far)).expect("routable");
        engine.query(ring_ip(0), ring_ip(far)).expect("routable");
        let m = engine.metrics();
        assert_eq!(
            (m.cache_misses.get(), m.cache_hits.get()),
            (1, 1),
            "{shard} warmup"
        );
    }

    let day = registry
        .apply_delta(a, &ring_shortcut_delta(n, 0))
        .expect("delta applies to shard 0");
    assert_eq!(day, 1);

    // Shard A moved: new epoch, the epoch-keyed cache entry is stale
    // (a fresh miss), and the shortcut is the served route.
    let ea = registry.engine(a).unwrap();
    assert_eq!((ea.epoch(), ea.day()), (1, 1));
    let path_a = ea.query(ring_ip(0), ring_ip(far)).expect("routable");
    assert_eq!(path_a.fwd_clusters.len(), 2, "shard 0 serves the shortcut");
    assert_eq!(
        ea.metrics().cache_misses.get(),
        2,
        "old-epoch entry is dead"
    );

    // Shard B did not move: same epoch, same route, and the warm
    // cache entry still hits — nothing was evicted.
    let eb = registry.engine(b).unwrap();
    assert_eq!((eb.epoch(), eb.day()), (0, 0));
    let path_b = eb.query(ring_ip(0), ring_ip(far)).expect("routable");
    assert_eq!(
        path_b.fwd_clusters.len(),
        far as usize + 1,
        "shard 1 still serves the long way around"
    );
    let mb = eb.metrics();
    assert_eq!(
        mb.cache_hits.get(),
        2,
        "shard 1's cache survived shard 0's swap"
    );
    assert_eq!(mb.cache_misses.get(), 1);
    assert_eq!(mb.cache_evictions.get(), 0);
    assert_eq!(mb.swaps.get(), 0);
}

#[test]
fn stats_aggregate_sums_counters_and_merges_histograms() {
    let registry = two_ring_registry(8);
    let ea = registry.engine(ShardId(0)).unwrap();
    let eb = registry.engine(ShardId(1)).unwrap();
    for _ in 0..5 {
        ea.query(ring_ip(0), ring_ip(3)).expect("routable");
    }
    for _ in 0..3 {
        eb.query(ring_ip(1), ring_ip(4)).expect("routable");
    }
    registry
        .apply_delta(ShardId(1), &ring_shortcut_delta(8, 0))
        .expect("delta applies");

    // One dump per shard, each under the same label, so the exact
    // merge is the cross-shard aggregate: counters and buckets sum,
    // gauges take the max.
    let dumps: Vec<MetricsDump> = registry
        .iter()
        .map(|(_, engine)| {
            let obs = MetricsRegistry::new();
            engine.register_metrics(&obs, "shard");
            obs.dump()
        })
        .collect();
    assert_eq!(dumps.len(), 2);
    assert_eq!(registry.shard_ids()[0], ShardId(0));
    let aggregate = MetricsDump::merged(&dumps);
    assert_eq!(aggregate.counter("shard.queries"), 8);
    assert_eq!(aggregate.counter("shard.swaps"), 1);
    assert_eq!(
        aggregate.gauge("shard.epoch"),
        1,
        "aggregate epoch is the max"
    );
    match aggregate.value("shard.latency_us") {
        Some(MetricValue::Histogram(buckets)) => assert_eq!(
            buckets.iter().sum::<u64>(),
            8,
            "merged histogram holds every query"
        ),
        other => panic!("want the merged latency histogram, got {other:?}"),
    }
}
