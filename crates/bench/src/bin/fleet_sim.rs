//! `fleet_sim`: a whole mirror fleet in one process, driven over the
//! real wire protocol, with scripted failures and the event journal as
//! the assertion instrument.
//!
//! The harness spawns an origin plus an N-deep tree of mirrors (each a
//! real [`NetServer`] with its own refresh loop, exactly the
//! `inano-serve --mirror` logic), points hundreds of client workers at
//! the fleet with a zipf destination mix and diurnal pacing, and then
//! injects faults:
//!
//! * `kill-restart` — a leaf mirror's server is shut down, a delta
//!   lands at the origin while it is dark, and the server is rebound;
//!   recovery is the first `generation_swap` the restarted node
//!   journals after the kill.
//! * `chain-break` — a mirror's refresh is stalled while the origin
//!   applies more than [`DELTA_LOG_CAP`] deltas, so the bridging delta
//!   falls off the retained chain; recovery is the `full_resync` the
//!   victim journals once its refresh resumes.
//! * `hostile` — a pipeliner floods the origin with unacknowledged
//!   batches past the in-flight cap; recovery is the journal's
//!   `overload_start` → `overload_end` episode width.
//!
//! A scraper thread drains every server's journal on an interval
//! (`NetClient::events` with a per-server cursor, reset when a node
//! restarts onto a fresh journal) and merges the streams by
//! `(t_ms, seq)` into one fleet timeline. Ring overwrites between
//! scrapes are *counted* (`events_lost`), never silently skipped.
//!
//! The contract line is one `BENCH` JSON record: the merged timeline,
//! one recovery latency per injected fault, and the query-failure
//! split — failures inside an injected fault window are expected,
//! failures outside must be zero.
//!
//! `--idle-peers N` parks `N` extra connections across the fleet that
//! never send a byte — the §5 reality that most of a mirror's peers
//! are idle most of the time — so every fault above is injected and
//! recovered *through* a crowd of registrations, not on a quiet
//! server.
//!
//! `--udp-clients N` opens every node's datagram plane and adds `N`
//! [`UdpQuerier`] workers with the same query mix — so faults are
//! also recovered *through* the retry-and-rebind path of clients
//! that hold no connection at all.
//!
//! Usage: `fleet_sim [--mirrors N] [--depth D] [--clients C]
//!         [--ring N] [--refresh-ms MS] [--scrape-ms MS] [--diurnal-ms MS]
//!         [--faults kill-restart,chain-break,hostile] [--seed S]
//!         [--idle-peers N] [--udp-clients N]`

use inano_atlas::{Atlas, AtlasDelta, LinkAnnotation, Plane};
use inano_model::{ClusterId, Ipv4, LatencyMs};
use inano_net::cli::{arg, refuse_unknown};
use inano_net::demo::{ring_atlas, ring_ip, ring_predictor_config};
use inano_net::{MirrorSource, NetClient, NetServer, ServerConfig, UdpQuerier, UdpRetry};
use inano_obs::{now_ms, Event, EventKind};
use inano_service::{QueryEngine, ServiceConfig, ShardId, ShardRegistry, DELTA_LOG_CAP};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The day-`day` world: the demo ring plus, from day 1 on, a 0 ↔ n/2
/// shortcut whose latency drifts a little every day — so every
/// consecutive-day delta is non-empty and the origin can publish an
/// arbitrarily long chain of them.
fn sim_atlas(n: u32, day: u32) -> Atlas {
    let mut a = ring_atlas(n, day);
    if day > 0 {
        let far = n / 2;
        for (x, y) in [(0, far), (far, 0)] {
            a.links.insert(
                (ClusterId::new(x), ClusterId::new(y)),
                LinkAnnotation {
                    latency: Some(LatencyMs::new(0.5 + day as f64 * 0.001)),
                    plane: Plane::TO_DST,
                },
            );
        }
    }
    a
}

/// Publish the `day → day+1` delta at the origin; returns the new day.
fn push_delta(origin: &QueryEngine, ring: u32, day: u32) -> u32 {
    let delta = AtlasDelta::between(&sim_atlas(ring, day), &sim_atlas(ring, day + 1));
    origin
        .apply_delta(&delta)
        .unwrap_or_else(|e| panic!("origin applies day-{day} delta: {e}"))
}

fn sim_service_config() -> ServiceConfig {
    ServiceConfig {
        predictor: ring_predictor_config(),
        ..ServiceConfig::default()
    }
}

/// Low in-flight cap so the hostile pipeliner reliably trips the
/// overload path; normal workers are synchronous (one in flight).
/// `idle_headroom` widens the admission gate for the `--idle-peers`
/// crowd parked on this node. With `udp` the node also opens an
/// ephemeral datagram socket (rate limit off: every datagram client
/// in this harness shares 127.0.0.1, so the per-source bucket would
/// see one giant "source").
fn sim_server_config(idle_headroom: usize, udp: bool) -> ServerConfig {
    ServerConfig {
        max_conns: 512 + idle_headroom,
        max_inflight: 32,
        udp: udp.then(|| "127.0.0.1:0".parse().expect("literal addr")),
        udp_rate: 0,
        ..ServerConfig::default()
    }
}

/// One fleet node: `engine` as shard 0 behind a server on an ephemeral
/// loopback port. A restarted node is a second server over the same
/// engine.
fn bind_node(
    engine: &Arc<QueryEngine>,
    idle_headroom: usize,
    udp: bool,
) -> std::io::Result<NetServer> {
    let registry = ShardRegistry::from_engines(vec![(ShardId::DEFAULT, Arc::clone(engine))])
        .expect("one shard is a valid registry");
    NetServer::bind(
        "127.0.0.1:0",
        Arc::new(registry),
        sim_server_config(idle_headroom, udp),
    )
}

/// State every thread shares: current node addresses (they change on
/// restart), worker counters, and the fault-window gate that decides
/// whether a query failure is expected.
struct Shared {
    /// `addrs[0]` is the origin, `addrs[1 + m]` is mirror `m`.
    addrs: Vec<Mutex<String>>,
    /// Datagram-plane addresses, same indexing; empty strings when
    /// the run has no `--udp-clients`.
    udp_addrs: Vec<Mutex<String>>,
    labels: Vec<String>,
    stop: AtomicBool,
    /// > 0 while an injected fault window is open.
    fault_open: AtomicU64,
    served: AtomicU64,
    failed_outside: AtomicU64,
    failed_inside: AtomicU64,
    /// Cumulative zipf weights over destination clusters.
    zipf_cum: Vec<f64>,
}

impl Shared {
    fn note_failure(&self) {
        if self.fault_open.load(Ordering::Relaxed) > 0 {
            self.failed_inside.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed_outside.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A datagram call spans its whole retry budget, so a failure is
    /// attributed to a fault window open at *either* end of the call
    /// — a kill mid-retry is still the fault's doing even if the
    /// window closed before the last attempt gave up.
    fn note_failure_spanning(&self, open_at_start: bool) {
        if open_at_start || self.fault_open.load(Ordering::Relaxed) > 0 {
            self.failed_inside.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed_outside.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn addr(&self, node: usize) -> String {
        self.addrs[node].lock().expect("addr table").clone()
    }

    fn udp_addr(&self, node: usize) -> String {
        self.udp_addrs[node].lock().expect("udp addr table").clone()
    }
}

fn zipf_cum(n: u32, exponent: f64) -> Vec<f64> {
    let mut total = 0.0;
    (0..n)
        .map(|r| {
            total += 1.0 / ((r + 1) as f64).powf(exponent);
            total
        })
        .collect()
}

/// One zipf-ranked destination cluster.
fn pick_zipf(cum: &[f64], rng: &mut SmallRng) -> u32 {
    let x = rng.gen_range(0.0..*cum.last().expect("non-empty zipf table"));
    cum.partition_point(|&c| c <= x) as u32
}

/// A worker batch: uniform sources, zipf destinations.
fn batch(rng: &mut SmallRng, ring: u32, cum: &[f64]) -> Vec<(Ipv4, Ipv4)> {
    (0..8)
        .map(|_| {
            let dst = pick_zipf(cum, rng);
            let mut src = rng.gen_range(0..ring);
            if src == dst {
                src = (src + 1) % ring;
            }
            (ring_ip(src), ring_ip(dst))
        })
        .collect()
}

/// One client worker: pinned to a node, zipf query mix, diurnal
/// pacing, reconnects through fault windows.
fn worker_loop(i: usize, ring: u32, seed: u64, diurnal_ms: u64, shared: Arc<Shared>) {
    let node = i % shared.addrs.len();
    let mut rng = SmallRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let started = Instant::now();
    'outer: while !shared.stop.load(Ordering::Relaxed) {
        let mut client = match NetClient::connect(shared.addr(node)) {
            Ok(c) => c,
            Err(_) => {
                // Node down (kill window) or restarting: retry.
                thread::sleep(Duration::from_millis(25));
                continue;
            }
        };
        loop {
            if shared.stop.load(Ordering::Relaxed) {
                break 'outer;
            }
            let pairs = batch(&mut rng, ring, &shared.zipf_cum);
            match client.query_batch(&pairs) {
                Ok(results) => {
                    for r in results {
                        match r {
                            Ok(_) => {
                                shared.served.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => shared.note_failure(),
                        }
                    }
                }
                Err(_) => {
                    // Connection-level failure (killed server, shed
                    // load): classify and rebuild the connection.
                    shared.note_failure();
                    break;
                }
            }
            // Diurnal pacing: the inter-batch gap swings over a short
            // "day", so load peaks and troughs like §5's client mix.
            let phase =
                (started.elapsed().as_millis() as u64 % diurnal_ms) as f64 / diurnal_ms as f64;
            let us = 300.0 * (1.0 + 0.9 * (std::f64::consts::TAU * phase).sin());
            thread::sleep(Duration::from_micros(us.max(1.0) as u64));
        }
    }
}

/// Retry policy of the fleet's datagram workers — tight, so a killed
/// node surfaces as a failed call in well under a second instead of
/// the stock multi-second budget blurring failures past the fault
/// window.
const UDP_WORKER_RETRY: UdpRetry = UdpRetry {
    timeout: Duration::from_millis(100),
    max_timeout: Duration::from_millis(400),
    attempts: 3,
};

/// Worst case for one failed datagram call under [`UDP_WORKER_RETRY`]
/// (the summed reply windows: 100 + 200 + 400 ms). A call issued just
/// *before* an injection can take this long to give up, so fault
/// windows must stay open this much longer before failures are
/// classified as unexpected.
const UDP_WORKER_FAIL_MS: u64 = 100 + 200 + 400;

/// One datagram client worker: the same zipf mix and diurnal pacing
/// as [`worker_loop`], carried one `QueryBatch` per datagram by a
/// [`UdpQuerier`] pinned to a node's `--udp` socket. A failed call
/// (retry budget exhausted — the node is dark or rebound elsewhere)
/// re-resolves the node's current datagram address, which is how a
/// restarted server's fresh ephemeral port is picked up.
fn udp_worker_loop(i: usize, ring: u32, seed: u64, diurnal_ms: u64, shared: Arc<Shared>) {
    let node = i % shared.addrs.len();
    let mut rng = SmallRng::seed_from_u64(
        seed ^ 0xD474_6172 ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    let started = Instant::now();
    'outer: while !shared.stop.load(Ordering::Relaxed) {
        let mut querier = match UdpQuerier::connect(shared.udp_addr(node)) {
            Ok(q) => q,
            Err(_) => {
                thread::sleep(Duration::from_millis(25));
                continue;
            }
        };
        querier.set_retry(UDP_WORKER_RETRY);
        loop {
            if shared.stop.load(Ordering::Relaxed) {
                break 'outer;
            }
            let open_at_start = shared.fault_open.load(Ordering::Relaxed) > 0;
            let pairs = batch(&mut rng, ring, &shared.zipf_cum);
            match querier.query_batch(&pairs) {
                Ok(results) => {
                    for r in results {
                        match r {
                            Ok(_) => {
                                shared.served.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => shared.note_failure(),
                        }
                    }
                }
                Err(_) => {
                    shared.note_failure_spanning(open_at_start);
                    break; // re-resolve the node's datagram address
                }
            }
            let phase =
                (started.elapsed().as_millis() as u64 % diurnal_ms) as f64 / diurnal_ms as f64;
            let us = 300.0 * (1.0 + 0.9 * (std::f64::consts::TAU * phase).sin());
            thread::sleep(Duration::from_micros(us.max(1.0) as u64));
        }
    }
}

/// The `inano-serve --mirror` refresh loop, in-harness: run
/// [`QueryEngine::update`] against the upstream node every tick (deltas,
/// or a full resync across a broken chain) and rebuild the upstream
/// connection on any failure. `paused` simulates the process being
/// dark while its server is killed.
fn refresh_loop(
    engine: Arc<QueryEngine>,
    upstream_node: usize,
    refresh_ms: u64,
    paused: Arc<AtomicBool>,
    shared: Arc<Shared>,
) {
    let mut source: Option<MirrorSource> = None;
    loop {
        thread::sleep(Duration::from_millis(refresh_ms));
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        if paused.load(Ordering::Relaxed) {
            continue;
        }
        if source.is_none() {
            source = MirrorSource::connect(shared.addr(upstream_node), ShardId::DEFAULT).ok();
        }
        let Some(src) = source.as_mut() else { continue };
        // The same call `inano-serve --mirror` makes each tick; a
        // failure of any kind rebuilds the upstream connection.
        if engine.update(src).is_err() {
            source = None;
        }
    }
}

/// Poll `node`'s journal (over the wire, like any remote observer)
/// until an event of `kind` stamped at or after `after_ms` appears.
fn await_event(
    shared: &Shared,
    node: usize,
    kind: EventKind,
    after_ms: u64,
    timeout: Duration,
) -> Option<Event> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(mut c) = NetClient::connect(shared.addr(node)) {
            if let Ok(page) = c.events(0) {
                if let Some(e) = page
                    .events
                    .iter()
                    .filter(|e| e.kind == kind && e.t_ms >= after_ms)
                    .min_by_key(|e| (e.t_ms, e.seq))
                {
                    return Some(e.clone());
                }
            }
        }
        if Instant::now() >= deadline {
            return None;
        }
        thread::sleep(Duration::from_millis(25));
    }
}

/// The journal scraper: one cursor per server, reset when the node
/// restarts onto a fresh journal (new address = new ring), merging all
/// streams into one timeline. Runs one final pass after stop so the
/// post-fault tail is captured.
#[allow(clippy::type_complexity)]
fn scraper_loop(
    shared: Arc<Shared>,
    scrape_stop: Arc<AtomicBool>,
    scrape_ms: u64,
    timeline: Arc<Mutex<Vec<(String, Event)>>>,
    events_lost: Arc<AtomicU64>,
) {
    let n = shared.addrs.len();
    let mut cursors: Vec<(String, u64)> = (0..n).map(|i| (shared.addr(i), 0)).collect();
    loop {
        let final_pass = scrape_stop.load(Ordering::Relaxed);
        for (i, cursor) in cursors.iter_mut().enumerate() {
            let addr = shared.addr(i);
            if addr != cursor.0 {
                *cursor = (addr.clone(), 0);
            }
            let Ok(mut client) = NetClient::connect(&addr) else {
                continue; // node dark mid-fault; next tick catches up
            };
            let Ok(page) = client.events(cursor.1) else {
                continue;
            };
            events_lost.fetch_add(page.lost, Ordering::Relaxed);
            cursor.1 = page.next_seq;
            let mut tl = timeline.lock().expect("timeline");
            let label = &shared.labels[i];
            tl.extend(page.events.into_iter().map(|e| (label.clone(), e)));
        }
        if final_pass {
            return;
        }
        thread::sleep(Duration::from_millis(scrape_ms));
    }
}

fn main() {
    refuse_unknown(&[
        "--mirrors",
        "--depth",
        "--clients",
        "--ring",
        "--refresh-ms",
        "--scrape-ms",
        "--diurnal-ms",
        "--seed",
        "--idle-peers",
        "--udp-clients",
        "--faults",
    ]);
    let mirrors: usize = arg("--mirrors", 3);
    let depth: usize = arg("--depth", 2);
    let clients: usize = arg("--clients", 200);
    let ring: u32 = arg("--ring", 24);
    let refresh_ms: u64 = arg("--refresh-ms", 100);
    let scrape_ms: u64 = arg("--scrape-ms", 200);
    let diurnal_ms: u64 = arg("--diurnal-ms", 1000);
    let seed: u64 = arg("--seed", 42);
    let idle_peers: usize = arg("--idle-peers", 0);
    let udp_clients: usize = arg("--udp-clients", 0);
    let faults_arg: String = arg("--faults", "kill-restart,chain-break,hostile".to_string());
    let faults: Vec<String> = faults_arg
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    for f in &faults {
        assert!(
            matches!(f.as_str(), "kill-restart" | "chain-break" | "hostile"),
            "unknown fault {f:?} (want kill-restart, chain-break or hostile)"
        );
    }
    assert!(mirrors >= 1, "--mirrors must be at least 1");
    assert!(depth >= 1, "--depth must be at least 1");

    // Idle peers are spread round-robin over the fleet; both socket
    // ends live in this one process, so budget descriptors for both.
    let idle_per_node = idle_peers.div_ceil(mirrors + 1);
    if idle_peers > 0 {
        let need = (2 * idle_peers + 2 * clients + 1024) as u64;
        let have = inano_net::raise_nofile_limit(need);
        assert!(
            have >= need,
            "--idle-peers {idle_peers} needs {need} file descriptors, limit is {have}"
        );
    }

    // ---- build the fleet: origin first, then mirrors in index order
    // (every parent has a lower index, so each hop can bootstrap over
    // the wire from an already-live node).
    let breadth = mirrors.div_ceil(depth);
    let parent_of = |m: usize| if m < breadth { 0 } else { m - breadth + 1 };

    let udp = udp_clients > 0;
    let mut engines: Vec<Arc<QueryEngine>> = Vec::with_capacity(mirrors + 1);
    let mut servers: Vec<Option<NetServer>> = Vec::with_capacity(mirrors + 1);
    let mut addrs: Vec<Mutex<String>> = Vec::with_capacity(mirrors + 1);
    let mut udp_addrs: Vec<Mutex<String>> = Vec::with_capacity(mirrors + 1);
    let mut labels: Vec<String> = Vec::with_capacity(mirrors + 1);
    let udp_addr_of =
        |s: &NetServer| Mutex::new(s.udp_addr().map(|a| a.to_string()).unwrap_or_default());

    let origin_engine = Arc::new(QueryEngine::new(
        Arc::new(sim_atlas(ring, 0)),
        sim_service_config(),
    ));
    let origin = bind_node(&origin_engine, idle_per_node, udp).expect("bind origin");
    addrs.push(Mutex::new(origin.local_addr().to_string()));
    udp_addrs.push(udp_addr_of(&origin));
    labels.push("origin".to_string());
    engines.push(origin_engine);
    servers.push(Some(origin));

    for m in 0..mirrors {
        let parent = parent_of(m);
        let parent_addr = addrs[parent].lock().expect("addr table").clone();
        let mut source = MirrorSource::connect(&parent_addr, ShardId::DEFAULT)
            .unwrap_or_else(|e| panic!("m{m}: connect upstream {parent_addr}: {e}"));
        let engine = Arc::new(
            QueryEngine::bootstrap(&mut source, sim_service_config())
                .unwrap_or_else(|e| panic!("m{m}: bootstrap from {parent_addr}: {e}")),
        );
        let server =
            bind_node(&engine, idle_per_node, udp).unwrap_or_else(|e| panic!("m{m}: bind: {e}"));
        eprintln!(
            "m{m}: mirroring node {} ({parent_addr}) at {}",
            labels[parent],
            server.local_addr()
        );
        addrs.push(Mutex::new(server.local_addr().to_string()));
        udp_addrs.push(udp_addr_of(&server));
        labels.push(format!("m{m}"));
        engines.push(engine);
        servers.push(Some(server));
    }

    let shared = Arc::new(Shared {
        addrs,
        udp_addrs,
        labels,
        stop: AtomicBool::new(false),
        fault_open: AtomicU64::new(0),
        served: AtomicU64::new(0),
        failed_outside: AtomicU64::new(0),
        failed_inside: AtomicU64::new(0),
        zipf_cum: zipf_cum(ring, 1.1),
    });

    // ---- refresh loops (one per mirror) + journal scraper + workers.
    let pauses: Vec<Arc<AtomicBool>> = (0..mirrors)
        .map(|_| Arc::new(AtomicBool::new(false)))
        .collect();
    let mut threads = Vec::new();
    for m in 0..mirrors {
        let engine = Arc::clone(&engines[m + 1]);
        let paused = Arc::clone(&pauses[m]);
        let shared = Arc::clone(&shared);
        let upstream = parent_of(m);
        threads.push(
            thread::Builder::new()
                .name(format!("refresh-m{m}"))
                .spawn(move || refresh_loop(engine, upstream, refresh_ms, paused, shared))
                .expect("spawn refresh loop"),
        );
    }
    let timeline = Arc::new(Mutex::new(Vec::new()));
    let events_lost = Arc::new(AtomicU64::new(0));
    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&scrape_stop);
        let timeline = Arc::clone(&timeline);
        let lost = Arc::clone(&events_lost);
        thread::Builder::new()
            .name("scraper".into())
            .spawn(move || scraper_loop(shared, stop, scrape_ms, timeline, lost))
            .expect("spawn scraper")
    };
    for i in 0..clients {
        let shared = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name(format!("worker-{i}"))
                .spawn(move || worker_loop(i, ring, seed, diurnal_ms, shared))
                .expect("spawn worker"),
        );
    }
    for i in 0..udp_clients {
        let shared = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name(format!("udp-worker-{i}"))
                .spawn(move || udp_worker_loop(i, ring, seed, diurnal_ms, shared))
                .expect("spawn udp worker"),
        );
    }

    // Park the idle-peer crowd: round-robin over the fleet, never a
    // byte sent. Held to the end of the run, so every fault below is
    // injected through these registrations. (Peers parked on the
    // kill-restart victim die with it and stay dead — real idle peers
    // would only notice at their next request.)
    let mut idle_crowd: Vec<std::net::TcpStream> = Vec::with_capacity(idle_peers);
    for i in 0..idle_peers {
        let node = i % shared.addrs.len();
        // Pacing: stay under each server's listen backlog.
        if i > 0 && i % 256 == 0 {
            thread::sleep(Duration::from_millis(5));
        }
        match std::net::TcpStream::connect(shared.addr(node)) {
            Ok(s) => idle_crowd.push(s),
            Err(e) => panic!("idle peer {i} refused by {}: {e}", shared.labels[node]),
        }
    }
    if idle_peers > 0 {
        eprintln!(
            "idle peers: {} parked across {} nodes",
            idle_crowd.len(),
            shared.addrs.len()
        );
    }

    // Warm up: let every worker connect and the fleet serve steadily.
    thread::sleep(Duration::from_millis(400));

    // ---- the fault script, one injection at a time.
    let recovery_timeout = Duration::from_secs(20);
    let mut origin_day = 0u32;
    let mut fault_records = Vec::new();
    let started = Instant::now();
    for fault in &faults {
        match fault.as_str() {
            // Kill a leaf mirror's server, land a delta while it is
            // dark, rebind, and time kill → first generation_swap.
            "kill-restart" => {
                let victim = mirrors; // node index of the last mirror (a leaf)
                let label = shared.labels[victim].clone();
                let fault_t = now_ms();
                shared.fault_open.fetch_add(1, Ordering::SeqCst);
                pauses[victim - 1].store(true, Ordering::SeqCst);
                let server = servers[victim].take().expect("victim server is live");
                server.shutdown();
                drop(server);
                eprintln!("fault kill-restart: {label} is dark");
                origin_day = push_delta(&engines[0], ring, origin_day);
                thread::sleep(Duration::from_millis(300));
                let server = bind_node(&engines[victim], idle_per_node, udp)
                    .expect("rebind the killed mirror");
                *shared.addrs[victim].lock().expect("addr table") = server.local_addr().to_string();
                *shared.udp_addrs[victim].lock().expect("udp addr table") =
                    server.udp_addr().map(|a| a.to_string()).unwrap_or_default();
                eprintln!(
                    "fault kill-restart: {label} back at {}",
                    server.local_addr()
                );
                servers[victim] = Some(server);
                pauses[victim - 1].store(false, Ordering::SeqCst);
                let ev = await_event(
                    &shared,
                    victim,
                    EventKind::GenerationSwap,
                    fault_t,
                    recovery_timeout,
                );
                // Let stragglers on the old socket surface inside the
                // window before it closes — datagram callers may
                // still be burning their retry budget.
                thread::sleep(Duration::from_millis(
                    200 + if udp { UDP_WORKER_FAIL_MS } else { 0 },
                ));
                shared.fault_open.fetch_sub(1, Ordering::SeqCst);
                record_fault(&mut fault_records, "kill-restart", &label, fault_t, ev);
            }
            // Stall a mirror's refresh while the origin publishes more
            // deltas than it retains, then time resume → full_resync.
            "chain-break" => {
                let victim = 1; // node index of mirror 0
                let label = shared.labels[victim].clone();
                pauses[victim - 1].store(true, Ordering::SeqCst);
                // Let an in-flight refresh tick drain before breaking
                // the chain under it.
                thread::sleep(Duration::from_millis(refresh_ms * 2));
                eprintln!(
                    "fault chain-break: {label} stalled; origin publishes {} deltas",
                    DELTA_LOG_CAP + 2
                );
                for _ in 0..DELTA_LOG_CAP + 2 {
                    origin_day = push_delta(&engines[0], ring, origin_day);
                }
                let fault_t = now_ms();
                pauses[victim - 1].store(false, Ordering::SeqCst);
                let ev = await_event(
                    &shared,
                    victim,
                    EventKind::FullResync,
                    fault_t,
                    recovery_timeout,
                );
                record_fault(&mut fault_records, "chain-break", &label, fault_t, ev);
            }
            // Flood the origin with unacknowledged batches past the
            // in-flight cap; the episode width is the recovery.
            "hostile" => {
                let label = shared.labels[0].clone();
                let fault_t = now_ms();
                shared.fault_open.fetch_add(1, Ordering::SeqCst);
                eprintln!("fault hostile: pipelining past the in-flight cap at {label}");
                let flood: Vec<(Ipv4, Ipv4)> = (0..ring)
                    .flat_map(|s| [(ring_ip(s), ring_ip((s + 1) % ring))])
                    .collect();
                let mut pipeliner =
                    NetClient::connect(shared.addr(0)).expect("hostile pipeliner connects");
                let depth = sim_server_config(0, false).max_inflight * 8;
                let mut submitted = 0usize;
                for _ in 0..depth {
                    if pipeliner.submit_batch(&flood).is_err() {
                        break; // server hung up on us: mission accomplished
                    }
                    submitted += 1;
                }
                for _ in 0..submitted {
                    if pipeliner.recv().is_err() {
                        break;
                    }
                }
                drop(pipeliner);
                let start = await_event(
                    &shared,
                    0,
                    EventKind::OverloadStart,
                    fault_t,
                    recovery_timeout,
                );
                let ev = start.as_ref().and_then(|s| {
                    await_event(&shared, 0, EventKind::OverloadEnd, s.t_ms, recovery_timeout)
                });
                thread::sleep(Duration::from_millis(
                    200 + if udp { UDP_WORKER_FAIL_MS } else { 0 },
                ));
                shared.fault_open.fetch_sub(1, Ordering::SeqCst);
                let episode_start = start.map(|s| s.t_ms).unwrap_or(fault_t);
                record_fault(&mut fault_records, "hostile", &label, episode_start, ev);
            }
            _ => unreachable!("validated above"),
        }
        // Steady-state gap between injections.
        thread::sleep(Duration::from_millis(300));
    }

    // ---- drain: steady tail, then stop workers, then one final
    // scrape pass (servers still up), then tear the fleet down.
    thread::sleep(Duration::from_millis(400));
    shared.stop.store(true, Ordering::SeqCst);
    for t in threads {
        let _ = t.join();
    }
    scrape_stop.store(true, Ordering::SeqCst);
    let _ = scraper.join();
    let duration_ms = started.elapsed().as_millis() as u64;
    drop(idle_crowd);
    for s in servers.iter().flatten() {
        s.shutdown();
    }

    // ---- merge and report.
    let mut merged = timeline.lock().expect("timeline").clone();
    merged.sort_by(|(na, a), (nb, b)| (a.t_ms, a.seq, na).cmp(&(b.t_ms, b.seq, nb)));
    let conn_events = merged
        .iter()
        .filter(|(_, e)| matches!(e.kind, EventKind::ConnAccepted | EventKind::ConnClosed))
        .count();
    let timeline_json: Vec<String> = merged
        .iter()
        .filter(|(_, e)| !matches!(e.kind, EventKind::ConnAccepted | EventKind::ConnClosed))
        .map(|(node, e)| {
            format!(
                "{{\"node\":{},\"seq\":{},\"t_ms\":{},\"kind\":{},\"detail\":{}}}",
                json_str(node),
                e.seq,
                e.t_ms,
                json_str(e.kind.name()),
                json_str(&e.detail)
            )
        })
        .collect();
    // The contract line: exactly one JSON record on stdout.
    println!(
        "{{\"bench\":\"fleet_sim\",\"ring\":{ring},\"mirrors\":{mirrors},\"depth\":{depth},\
         \"clients\":{clients},\"idle_peers\":{idle_peers},\"udp_clients\":{udp_clients},\
         \"duration_ms\":{duration_ms},\"origin_day\":{origin_day},\
         \"queries\":{},\"failed_queries\":{},\"failed_in_fault_windows\":{},\
         \"events\":{},\"conn_events\":{conn_events},\"events_lost\":{},\
         \"faults\":[{}],\"timeline\":[{}]}}",
        shared.served.load(Ordering::Relaxed),
        shared.failed_outside.load(Ordering::Relaxed),
        shared.failed_inside.load(Ordering::Relaxed),
        merged.len(),
        events_lost.load(Ordering::Relaxed),
        fault_records.join(","),
        timeline_json.join(","),
    );
}

/// A JSON string literal (quotes, backslashes and control bytes
/// escaped) — journal details may quote upstream error messages.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One per-fault result row: the recovery latency is event-to-event
/// (injection timestamp to the journal event that proves recovery),
/// or -1 if the fleet never journaled recovery inside the timeout.
fn record_fault(out: &mut Vec<String>, fault: &str, node: &str, fault_t: u64, ev: Option<Event>) {
    let recovery_ms: i64 = ev
        .as_ref()
        .map(|e| e.t_ms.saturating_sub(fault_t) as i64)
        .unwrap_or(-1);
    let recovered_by = ev
        .as_ref()
        .map(|e| json_str(e.kind.name()))
        .unwrap_or_else(|| "null".to_string());
    eprintln!(
        "fault {fault}: node={node} recovery_ms={recovery_ms} via={}",
        ev.as_ref().map(|e| e.kind.name()).unwrap_or("timeout"),
    );
    out.push(format!(
        "{{\"fault\":{},\"node\":{},\"injected_t_ms\":{fault_t},\"recovery_ms\":{recovery_ms},\
         \"recovered_by\":{recovered_by}}}",
        json_str(fault),
        json_str(node),
    ));
}
