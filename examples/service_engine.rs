//! The serving layer end to end: bootstrap the concurrent query engine
//! from an `AtlasSource` (here in memory; `inano::net::MirrorSource`
//! is the same over the wire), hammer it from several client threads,
//! and land a daily delta mid-load — queries never stop, and every
//! query issued after the swap sees the new day.
//!
//! Run with: `cargo run --release --example service_engine`

use inano::atlas::{codec, AtlasDelta};
use inano::core::StaticSource;
use inano::model::Ipv4;
use inano::service::{QueryEngine, ServiceConfig};
use inano_bench::{Scenario, ScenarioConfig};
use inano_obs::quantile_from_counts;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn main() {
    println!("building a demo world and two days of measurements...");
    let world = Scenario::build(ScenarioConfig::test(5));
    let (_, day1) = world.atlas_for_day(1);
    let day0 = codec::encode(&world.atlas).0;
    // The engine starts from day 0; its source has moved on to day 1.
    let engine = Arc::new(
        QueryEngine::bootstrap(
            &mut StaticSource::new(day0.clone(), vec![]),
            ServiceConfig::default(),
        )
        .expect("bootstrap"),
    );
    let mut source = StaticSource::new(
        day0,
        vec![AtlasDelta::between(&world.atlas, &day1).encode().0],
    );
    println!("engine up at day {}", engine.day());

    // A client population asking about a fixed set of popular pairs.
    let hosts = &world.vps.agents;
    let ips: Vec<Ipv4> = hosts.iter().map(|&h| world.net.host(h).ip).collect();
    let pairs: Vec<(Ipv4, Ipv4)> = ips
        .iter()
        .flat_map(|&s| ips.iter().filter(move |&&d| d != s).map(move |&d| (s, d)))
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let pairs = pairs.clone();
            thread::spawn(move || {
                let mut ok = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    ok += engine
                        .query_batch(&pairs)
                        .into_iter()
                        .filter(Result::is_ok)
                        .count() as u64;
                }
                ok
            })
        })
        .collect();

    thread::sleep(Duration::from_millis(150));
    let applied = engine.update(&mut source).expect("daily delta applies");
    println!(
        "applied {applied} delta(s) under load; now serving day {}",
        engine.day()
    );
    thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);
    let answered: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();

    let m = engine.metrics();
    let queries = m.queries.get();
    println!(
        "\n{answered} routable answers; engine saw {queries} queries at {:.0} qps",
        queries as f64 / started.elapsed().as_secs_f64()
    );
    let latency = m.latency_us.snapshot();
    let (hits, misses) = (m.cache_hits.get(), m.cache_misses.get());
    println!(
        "latency p50 {}us p99 {}us; cache hit rate {:.1}% ({} evictions); epoch {}",
        quantile_from_counts(&latency, 0.50),
        quantile_from_counts(&latency, 0.99),
        hits as f64 * 100.0 / (hits + misses).max(1) as f64,
        m.cache_evictions.get(),
        m.epoch.get()
    );
}
