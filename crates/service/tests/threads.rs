//! The thread budget as a property: an engine owns no threads, a cold
//! batch's fan-out — an engine batch's or a library
//! `PathPredictor::query_batch`'s, both run by one planner — borrows at
//! most `available_parallelism()` helpers across the whole process, and
//! all of them are gone when the batches return.
//!
//! The budget and the settle are read from `inano_core::fanout`'s exact
//! counts, not sampled: `helpers_peak()` is the most helper permits ever
//! held at once (a helper holds its permit from before its spawn until
//! after its join), `helpers_live()` the permits held now, and
//! `helpers_started()` whether a fan-out ran at all. Only construction
//! reads `/proc/self/task`, once, before any helper has existed; this
//! binary holds exactly one `#[test]`, so no sibling test moves any of
//! these counts.
#![cfg(target_os = "linux")]

use inano_atlas::{Atlas, AtlasDelta};
use inano_core::{fanout, PathPredictor, PredictedPath, PredictorConfig};
use inano_model::{Ipv4, LatencyMs, ModelError};
use inano_service::{RegistryConfig, ShardId, ShardRegistry, ShardSpec};
use std::sync::{Arc, Barrier};
use std::thread;

const SHARDS: u16 = 4;
const CALLERS: usize = 8;
const ROUNDS: u32 = 4;
/// Distinct cluster pairs each caller asks out of one source cluster:
/// a cold batch of 64 misses, small as it is, fans its searches out.
const MISSES: usize = 64;
/// Ring size: the source cluster plus one destination per miss.
const RING: u32 = MISSES as u32 + 1;

#[path = "common/ring.rs"]
mod ring;
use ring::ring_ip;

/// The shared ring at `RING` clusters, every latency shifted by `day`
/// ms, so each day-to-day delta is non-empty.
fn day_atlas(day: u32) -> Atlas {
    let mut a = ring::ring_atlas(RING, day);
    for link in a.links.values_mut() {
        link.latency = link.latency.map(|l| LatencyMs::new(l.ms() + day as f64));
    }
    a
}

/// A routed answer equal to the library's, bit for bit.
fn same(got: &Result<PredictedPath, ModelError>, want: &Result<PredictedPath, ModelError>) -> bool {
    match (got, want) {
        (Ok(a), Ok(b)) => {
            a.fwd_clusters == b.fwd_clusters
                && a.rev_clusters == b.rev_clusters
                && a.rtt.ms().to_bits() == b.rtt.ms().to_bits()
        }
        _ => false,
    }
}

/// OS threads in this process right now.
fn tasks() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

#[test]
fn engines_own_no_threads_and_fanout_stays_inside_the_core_count() {
    let base = tasks();
    let cores = thread::available_parallelism().map_or(1, |n| n.get());

    // (i) Construction spawns nothing, however many shards.
    let specs = (0..SHARDS)
        .map(|i| ShardSpec {
            id: ShardId(i),
            atlas: Arc::new(day_atlas(0)),
            predictor: PredictorConfig::full(),
        })
        .collect();
    let registry = ShardRegistry::build(specs, RegistryConfig::default()).expect("registry builds");
    assert_eq!(tasks(), base, "building {SHARDS} shards spawned threads");

    // One entry per round: what the generation it serves must answer,
    // per pair, straight from the library, and the delta that ends it.
    // Day d+1 is served through the delta, as the engine serves it.
    let mut served = day_atlas(0);
    let mut rounds = Vec::new();
    for day in 0..ROUNDS {
        let oracle = PathPredictor::new(Arc::new(served.clone()), PredictorConfig::full());
        let delta = AtlasDelta::between(&day_atlas(day), &day_atlas(day + 1));
        served = delta.apply(&served).expect("delta applies");
        rounds.push((oracle, delta));
    }

    // Caller c hammers shard c % SHARDS with MISSES distinct keys out of
    // its own source cluster: every batch of every round is cold, and
    // its one planner call owes a search per destination.
    let batch_of = |caller: usize| -> Vec<(Ipv4, Ipv4)> {
        let src = caller as u32;
        (1..RING)
            .map(|k| (ring_ip(src), ring_ip((src + k) % RING)))
            .collect()
    };
    assert_eq!(batch_of(0).len(), MISSES);

    // (ii) The budget: however many callers and shards, the process
    // never holds more helper permits than it has cores.
    // (iii) The settle: every permit is back once the batches return, so
    // no helper outlives them.
    let budget_and_settle = |what: &str, started: u64| {
        assert!(
            fanout::helpers_peak() <= cores,
            "{what}: {} helpers alive at once, over {cores} cores",
            fanout::helpers_peak()
        );
        assert_eq!(fanout::helpers_live(), 0, "{what}: helpers left behind");
        if cores > 1 {
            assert!(
                fanout::helpers_started() > started,
                "{what}: no helper was started: the fan-out did not run"
            );
        }
    };

    // Each round: callers query, meet, one delta lands on every shard,
    // meet again — so no batch straddles a swap and every answer has
    // exactly one generation to be checked against.
    let barrier = Barrier::new(CALLERS + 1);
    let started = fanout::helpers_started();
    let wrong = thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|c| {
                let (registry, rounds, barrier) = (&registry, &rounds, &barrier);
                let batch = batch_of(c);
                scope.spawn(move || {
                    let engine = registry
                        .engine(ShardId(c as u16 % SHARDS))
                        .expect("shard exists");
                    // Counted, not asserted: a caller that panicked here
                    // would leave the others waiting at the barrier.
                    let mut wrong = 0;
                    for (oracle, _) in rounds {
                        let got = engine.query_batch(&batch);
                        wrong += batch
                            .iter()
                            .zip(&got)
                            .filter(|(&(s, d), got)| !same(got, &oracle.query(s, d)))
                            .count();
                        barrier.wait();
                        barrier.wait();
                    }
                    wrong
                })
            })
            .collect();
        for (_, delta) in &rounds {
            barrier.wait();
            for (id, _) in registry.iter() {
                registry.apply_delta(id, delta).expect("delta applies");
            }
            barrier.wait();
        }
        (callers.into_iter())
            .map(|c| c.join().expect("caller"))
            .sum::<usize>()
    });
    // (iv) Every answer is the library's, for the generation its round
    // served.
    assert_eq!(wrong, 0, "answers differing from PathPredictor::query");
    // Every pair of every batch was a miss.
    for (id, engine) in registry.iter() {
        let m = engine.metrics();
        assert_eq!(m.cache_hits.get(), 0, "{id}: every round was cold");
        assert_eq!(m.errors.get(), 0, "{id}");
    }
    budget_and_settle("engine batches", started);

    // (v) The library's own batches draw on the same budget. Each caller
    // loops cold `PathPredictor::query_batch` calls — a fresh predictor
    // per call, so every call owes all of its searches — then
    // interleaves them with batches on its engine, which now serves the
    // last day.
    let served = Arc::new(served);
    let oracle = PathPredictor::new(Arc::clone(&served), PredictorConfig::full());
    let started = fanout::helpers_started();
    let wrong = thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|c| {
                let (registry, served, oracle) = (&registry, &served, &oracle);
                let batch = batch_of(c);
                scope.spawn(move || {
                    let engine = registry
                        .engine(ShardId(c as u16 % SHARDS))
                        .expect("shard exists");
                    let library = || {
                        let cold = PathPredictor::new(Arc::clone(served), PredictorConfig::full());
                        cold.query_batch(&batch)
                    };
                    let mut answers = Vec::new();
                    for _ in 0..ROUNDS {
                        answers.push(library());
                    }
                    for _ in 0..ROUNDS {
                        answers.push(engine.query_batch(&batch));
                        answers.push(library());
                    }
                    let wrong = |got: &Vec<_>| {
                        (batch.iter().zip(got))
                            .filter(|(&(s, d), got)| !same(got, &oracle.query(s, d)))
                            .count()
                    };
                    answers.iter().map(wrong).sum::<usize>()
                })
            })
            .collect();
        (callers.into_iter())
            .map(|c| c.join().expect("caller"))
            .sum::<usize>()
    });
    assert_eq!(
        wrong, 0,
        "library answers differing from PathPredictor::query"
    );
    budget_and_settle("library batches", started);
}
