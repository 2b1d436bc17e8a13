//! The thread budget as a property: an engine owns no threads, a cold
//! batch's fan-out — an engine batch's or a library
//! `PathPredictor::query_batch`'s, both run by one planner — borrows at
//! most `available_parallelism()` helpers across the whole process, and
//! all of them are gone when the batches return.
//!
//! This binary holds exactly one `#[test]`, so no sibling test's
//! threads move the count it reads from `/proc/self/task`. That a
//! fan-out ran at all is read from `fanout::helpers_started`, not from
//! the sampler: a helper can live for microseconds between two samples.
#![cfg(target_os = "linux")]

use inano_atlas::{Atlas, AtlasDelta};
use inano_core::{fanout, PathPredictor, PredictedPath, PredictorConfig};
use inano_model::{Ipv4, LatencyMs, ModelError};
use inano_service::{RegistryConfig, ShardId, ShardRegistry, ShardSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

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

/// Sets its flag when dropped, a panic's unwind included.
struct Stop<'a>(&'a AtomicBool);

impl Drop for Stop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Run `body` while a sampler thread reads the task count: what `body`
/// returned, a count over `budget` if one was seen, and how many fan-out
/// helpers the process started meanwhile. An over-budget reading has to
/// repeat to count: a helper that was just joined may still be listed
/// while the kernel reaps it, and that is not a live thread.
fn watched<R>(budget: usize, body: impl FnOnce() -> R) -> (R, Option<usize>, u64) {
    let done = AtomicBool::new(false);
    let started = fanout::helpers_started();
    thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut over_budget = None;
            while !done.load(Ordering::Relaxed) {
                let mut seen = tasks();
                for _ in 0..5 {
                    if seen <= budget {
                        break;
                    }
                    thread::sleep(Duration::from_millis(1));
                    seen = seen.min(tasks());
                }
                if seen > budget {
                    over_budget = Some(seen);
                }
            }
            over_budget
        });
        let out = {
            let _stop = Stop(&done);
            body()
        };
        let over_budget = sampler.join().expect("sampler");
        (out, over_budget, fanout::helpers_started() - started)
    })
}

/// Poll until the task count is back at `want`. A joined thread stays
/// listed until the kernel has reaped it, a moment after `join`
/// returns, so "gone" is read with a bound rather than once.
fn settles_at(want: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while tasks() != want {
        if Instant::now() > deadline {
            return false;
        }
        thread::sleep(Duration::from_millis(1));
    }
    true
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

    // (ii) While the callers run, the process never holds more than the
    // callers plus one helper per core.
    // (+ 1: the sampler itself.)
    let budget = base + 1 + CALLERS + cores;
    // Each round: callers query, meet, one delta lands on every shard,
    // meet again — so no batch straddles a swap and every answer has
    // exactly one generation to be checked against.
    let barrier = Barrier::new(CALLERS + 1);
    let (wrong, over_budget, helpers) = watched(budget, || {
        thread::scope(|scope| {
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
        })
    });
    // (iv) Every answer is the library's, for the generation its round
    // served.
    assert_eq!(wrong, 0, "answers differing from PathPredictor::query");
    assert_eq!(
        over_budget, None,
        "more than {CALLERS} callers + {cores} helpers alive (budget {budget} tasks, base {base})"
    );
    // Every pair of every batch was a miss.
    for (id, engine) in registry.iter() {
        let m = engine.metrics();
        assert_eq!(m.cache_hits.get(), 0, "{id}: every round was cold");
        assert_eq!(m.errors.get(), 0, "{id}");
    }
    if cores > 1 {
        assert!(
            helpers > 0,
            "no helper was started: the fan-out did not run"
        );
    }

    // (iii) Nothing outlives the batches.
    assert!(
        settles_at(base),
        "{} tasks left behind after every batch returned",
        tasks() - base
    );

    // (v) The library's own batches draw on the same budget. Each caller
    // loops cold `PathPredictor::query_batch` calls — a fresh predictor
    // per call, so every call owes all of its searches — then
    // interleaves them with batches on its engine, which now serves the
    // last day.
    let served = Arc::new(served);
    let oracle = PathPredictor::new(Arc::clone(&served), PredictorConfig::full());
    let (wrong, over_budget, helpers) = watched(budget, || {
        thread::scope(|scope| {
            let callers: Vec<_> = (0..CALLERS)
                .map(|c| {
                    let (registry, served, oracle) = (&registry, &served, &oracle);
                    let batch = batch_of(c);
                    scope.spawn(move || {
                        let engine = registry
                            .engine(ShardId(c as u16 % SHARDS))
                            .expect("shard exists");
                        let library = || {
                            let cold =
                                PathPredictor::new(Arc::clone(served), PredictorConfig::full());
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
        })
    });
    assert_eq!(
        wrong, 0,
        "library answers differing from PathPredictor::query"
    );
    assert_eq!(
        over_budget, None,
        "library batches: more than {CALLERS} callers + {cores} helpers alive \
         (budget {budget} tasks, base {base})"
    );
    if cores > 1 {
        assert!(helpers > 0, "no library helper was started");
    }
    assert!(
        settles_at(base),
        "{} tasks left behind after every library batch returned",
        tasks() - base
    );
}
