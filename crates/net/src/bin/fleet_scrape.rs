//! `fleet_scrape`: poll several `inano-serve` instances over the
//! `Metrics` frame, merge their unified [`MetricsDump`]s into one
//! fleet-wide view, and emit it as a single BENCH JSON line.
//!
//! The merge is exact, not approximate: a dump ships each engine's raw
//! log₂ latency buckets, [`MetricsDump::merged`] sums those bucket
//! vectors element-wise (counters sum too, gauges take the fleet max),
//! and p50/p99 are read off the summed buckets — merging histograms,
//! where averaging per-server percentiles would be statistically
//! meaningless.
//!
//! With `--interval MS` the scraper becomes a time-series poller:
//! every tick it pulls and merges the dumps and appends one sample —
//! fleet queries, deltas applied, full resyncs, and the *fleet lag*
//! (the widest max-minus-min serving day of any one shard across the
//! servers hosting it, the spread a mid-run delta swap opens and a
//! mirror refresh closes). Each tick also drains every server's event
//! journal (`Events` since the per-server cursor from the previous
//! tick) and merges the new events into the sample by `(t_ms, seq)`;
//! entries a server's bounded ring dropped between ticks are *counted*
//! — the journal's `lost` accounting — and surface as `events_lost`,
//! never silently skipped.
//! The samples ship as one `fleet_timeseries` BENCH JSON line.
//!
//! Usage: `fleet_scrape --connect ADDR [--connect ADDR]...
//!         [--interval MS [--ticks T]]`
//!
//! [`MetricsDump`]: inano_obs::MetricsDump

use inano_net::cli::{arg, refuse_unknown, repeated, requires};
use inano_net::NetClient;
use inano_obs::{quantile_from_counts, MetricValue, MetricsDump};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One merged-fleet sample.
struct Tick {
    t_ms: u64,
    queries: u64,
    deltas_applied: u64,
    full_resyncs: u64,
    fleet_lag_days: u64,
    /// New journal events merged across the fleet this tick.
    events: u64,
    /// Ring entries dropped fleet-wide before this tick's scrape could
    /// read them (cumulative across the run).
    events_lost: u64,
}

/// The worst serving-day spread of any one shard across the servers
/// that host it: 0 when every copy of every shard serves the same
/// generation, positive while a swap at the origin has not yet
/// propagated to every mirror. Different shards may sit at different
/// days; only copies of the same shard are compared.
fn fleet_lag_days(dumps: &[MetricsDump]) -> u64 {
    let mut spread: HashMap<&str, (u64, u64)> = HashMap::new();
    for dump in dumps {
        for (name, value) in &dump.entries {
            if let (Some(shard), MetricValue::Gauge(day)) = (name.strip_suffix(".day"), value) {
                if shard.starts_with("shard") {
                    let (lo, hi) = spread.entry(shard).or_insert((*day, *day));
                    (*lo, *hi) = ((*lo).min(*day), (*hi).max(*day));
                }
            }
        }
    }
    spread.values().map(|(lo, hi)| hi - lo).max().unwrap_or(0)
}

/// One connection per `--connect` target, paired with its address (for
/// error messages).
fn connect_all(targets: &[String]) -> Vec<(String, NetClient)> {
    targets
        .iter()
        .map(|addr| {
            let client =
                NetClient::connect(addr).unwrap_or_else(|e| panic!("connect to {addr}: {e}"));
            (addr.clone(), client)
        })
        .collect()
}

/// Poll every server's metrics dump once; panics carry the failing
/// address so a dead fleet member is nameable from the error alone.
fn scrape(clients: &mut [(String, NetClient)]) -> Vec<MetricsDump> {
    clients
        .iter_mut()
        .map(|(addr, client)| {
            client
                .metrics()
                .unwrap_or_else(|e| panic!("metrics scrape of {addr}: {e}"))
        })
        .collect()
}

fn timeseries(targets: &[String], interval_ms: u64, ticks: usize) {
    // Per-server state: the client and the event-journal cursor — the
    // `next_seq` of the last page, so each tick only pulls events the
    // previous tick hasn't seen.
    let mut clients = connect_all(targets);
    let mut cursors: Vec<u64> = vec![0; clients.len()];
    let started = Instant::now();
    let mut samples: Vec<Tick> = Vec::with_capacity(ticks);
    let mut events_lost_total = 0u64;
    for tick in 0..ticks {
        if tick > 0 {
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
        let dumps = scrape(&mut clients);
        let lag = fleet_lag_days(&dumps);
        let merged = MetricsDump::merged(dumps.iter());
        // Drain each server's journal since its cursor, then merge the
        // new events into one fleet-ordered slice. A non-zero `lost`
        // means the server's ring overwrote entries between ticks —
        // report the gap, don't pretend the timeline is complete.
        let mut new_events: Vec<(String, inano_obs::Event)> = Vec::new();
        for (i, (addr, client)) in clients.iter_mut().enumerate() {
            let page = client
                .events(cursors[i])
                .unwrap_or_else(|e| panic!("events scrape of {addr}: {e}"));
            events_lost_total = events_lost_total.saturating_add(page.lost);
            cursors[i] = page.next_seq;
            new_events.extend(page.events.into_iter().map(|e| (addr.clone(), e)));
        }
        new_events.sort_by_key(|(_, e)| (e.t_ms, e.seq));
        for (addr, e) in &new_events {
            eprintln!(
                "  event {addr} seq={} t_ms={} {} {}",
                e.seq,
                e.t_ms,
                e.kind.name(),
                e.detail
            );
        }
        let sample = Tick {
            t_ms: started.elapsed().as_millis() as u64,
            queries: merged.counter_sum(".queries"),
            deltas_applied: merged.counter_sum(".mirror.deltas_applied"),
            full_resyncs: merged.counter_sum(".mirror.full_resyncs"),
            fleet_lag_days: lag,
            events: new_events.len() as u64,
            events_lost: events_lost_total,
        };
        eprintln!(
            "tick {tick}: t={}ms queries={} deltas_applied={} full_resyncs={} fleet_lag_days={} \
             events={} events_lost={}",
            sample.t_ms,
            sample.queries,
            sample.deltas_applied,
            sample.full_resyncs,
            sample.fleet_lag_days,
            sample.events,
            sample.events_lost
        );
        samples.push(sample);
    }
    // Counters merged from per-server dumps must never go backwards
    // tick over tick; a false here means a server restarted mid-run
    // (or the merge is broken) and the series is not comparable.
    let monotone = samples
        .windows(2)
        .all(|w| w[1].queries >= w[0].queries && w[1].deltas_applied >= w[0].deltas_applied);
    let rendered: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "{{\"t_ms\":{},\"queries\":{},\"deltas_applied\":{},\"full_resyncs\":{},\
                 \"fleet_lag_days\":{},\"events\":{},\"events_lost\":{}}}",
                s.t_ms,
                s.queries,
                s.deltas_applied,
                s.full_resyncs,
                s.fleet_lag_days,
                s.events,
                s.events_lost
            )
        })
        .collect();
    // The contract line: exactly one JSON record on stdout.
    println!(
        "{{\"bench\":\"fleet_timeseries\",\"servers\":{},\"interval_ms\":{interval_ms},\
         \"monotone\":{monotone},\"events_lost\":{events_lost_total},\"ticks\":[{}]}}",
        clients.len(),
        rendered.join(","),
    );
}

/// The fleet-wide latency buckets: every `shardN.latency_us` histogram
/// of a merged dump, summed element-wise.
fn fleet_latency(merged: &MetricsDump) -> Vec<u64> {
    let mut sum: Vec<u64> = Vec::new();
    for (name, value) in &merged.entries {
        if let MetricValue::Histogram(buckets) = value {
            if name.starts_with("shard") && name.ends_with(".latency_us") {
                sum.resize(sum.len().max(buckets.len()), 0);
                for (acc, &c) in sum.iter_mut().zip(buckets) {
                    *acc = acc.saturating_add(c);
                }
            }
        }
    }
    sum
}

/// The fleet's cache hit ratio. Counters off the wire are unvalidated,
/// so the sum saturates.
fn cache_hit(fleet: &MetricsDump) -> f64 {
    let hits = fleet.counter_sum(".cache.hits");
    let misses = fleet.counter_sum(".cache.misses");
    hits as f64 / hits.saturating_add(misses).max(1) as f64
}

fn one_shot(targets: &[String]) {
    let mut clients = connect_all(targets);
    let dumps = scrape(&mut clients);
    let mut shards = 0usize;
    for ((addr, _), dump) in clients.iter().zip(&dumps) {
        for (name, value) in &dump.entries {
            // One `shardN.queries` counter per hosted shard.
            if let (Some(shard), MetricValue::Counter(queries)) =
                (name.strip_suffix(".queries"), value)
            {
                shards += 1;
                eprintln!(
                    "{addr} {shard}: {queries} queries, epoch {}, day {}",
                    dump.gauge(&format!("{shard}.epoch")),
                    dump.gauge(&format!("{shard}.day")),
                );
            }
        }
    }

    // Counters sum and gauges take the max across the fleet, so the
    // merged `epoch`/`day` read the freshest member.
    let fleet = MetricsDump::merged(dumps.iter());
    let latency = fleet_latency(&fleet);
    let freshest = |suffix: &str| {
        fleet
            .entries
            .iter()
            .filter_map(|(name, value)| match value {
                MetricValue::Gauge(v) if name.ends_with(suffix) => Some(*v),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    };
    // The contract line: exactly one JSON record on stdout.
    println!(
        "{{\"bench\":\"fleet_scrape\",\"servers\":{},\"shards\":{shards},\"queries\":{},\
         \"errors\":{},\"p50_us\":{},\"p99_us\":{},\"cache_hit\":{:.4},\
         \"swaps\":{},\"epoch\":{},\"day\":{}}}",
        clients.len(),
        fleet.counter_sum(".queries"),
        fleet.counter_sum(".errors"),
        quantile_from_counts(&latency, 0.50),
        quantile_from_counts(&latency, 0.99),
        cache_hit(&fleet),
        fleet.counter_sum(".swaps"),
        freshest(".epoch"),
        freshest(".day"),
    );
}

fn main() {
    refuse_unknown(&["--connect", "--interval", "--ticks"]);
    requires("--ticks", "--interval");
    let targets = repeated("--connect");
    if targets.is_empty() {
        eprintln!(
            "usage: fleet_scrape --connect ADDR [--connect ADDR]... [--interval MS [--ticks T]]"
        );
        std::process::exit(2);
    }
    let interval_ms: u64 = arg("--interval", 0);
    if interval_ms > 0 {
        let ticks: usize = arg("--ticks", 5);
        timeseries(&targets, interval_ms, ticks.max(1));
    } else {
        one_shot(&targets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn foreign_counters_saturate_the_fleet_sums() {
        let counter = |name: &str, c| (name.to_string(), MetricValue::Counter(c));
        let fleet = MetricsDump {
            entries: vec![
                counter("shard0.cache.hits", u64::MAX),
                counter("shard0.cache.misses", 1),
            ],
        };
        assert_eq!(cache_hit(&fleet), 1.0);
        let histogram = |name: &str| (name.to_string(), MetricValue::Histogram(vec![u64::MAX, 2]));
        let merged = MetricsDump {
            entries: vec![
                histogram("shard0.latency_us"),
                histogram("shard1.latency_us"),
            ],
        };
        assert_eq!(fleet_latency(&merged), [u64::MAX, 4]);
    }
}
