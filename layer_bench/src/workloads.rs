//! The four workloads. Each builds its world from the seed, times its
//! cold starts, serves the load through fixed wall-clock windows, and
//! then sends every pool pair once more through the same path for the
//! correctness gate.
//!
//! | workload     | layer doing the work                | mechanism bypassed      |
//! |--------------|-------------------------------------|-------------------------|
//! | `hot_stream` | `net` codec + dispatch, batch 512   | `core` search (cached)  |
//! | `hot_dgram`  | `net` per-message cost, batch 8     | engine pool (≤ `chunk`) |
//! | `cold_lib`   | `core` search, no server            | `service`, `net`        |
//! | `day_roll`   | `atlas`/`service` swaps under reads | steady-state caches     |

use crate::inputs::{
    build_pool, build_world, workload_tag, Answer, DstDraw, IndexStream, Pair, Pool, Scale, World,
};
use crate::ladder;
use crate::load::{
    drive_dgram, drive_lib, drive_stream, DgramLoad, ErrSplit, PhaseTallies, Schedule, StreamLoad,
    Windows,
};
use crate::record::Values;
use crate::spans::SpanLog;
use crate::sys::{self, Usage};
use inano_atlas::{codec, AtlasDelta};
use inano_core::{PathPredictor, PredictedPath, PredictorConfig};
use inano_model::ModelError;
use inano_net::{
    MirrorSource, NetClient, NetError, NetServer, ServerConfig, ShardId, UdpQuerier, WireFault,
    WirePath,
};
use inano_obs::{quantile_from_counts, MetricValue, MetricsDump};
use inano_service::{QueryEngine, RegistryConfig, ServiceConfig, ShardRegistry, ShardSpec};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotStream,
    HotDgram,
    ColdLib,
    DayRoll,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::HotStream,
    Workload::HotDgram,
    Workload::ColdLib,
    Workload::DayRoll,
];

/// The seed the pinned fingerprints were taken at.
pub const DEFAULT_SEED: u64 = 1;

/// The seed of every workload's synthetic Internet and measurement
/// campaign. `--seed` draws the query pool and the request streams
/// over that fixed world; it does not redraw the world, because two
/// worlds of one scale differ by 20–35% in search cost (graph shape,
/// cache hit ratio) — more than any bound this benchmark could then
/// hold across the seeds the driver compares.
pub const WORLD_SEED: u64 = 1;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotStream => "hot_stream",
            Workload::HotDgram => "hot_dgram",
            Workload::ColdLib => "cold_lib",
            Workload::DayRoll => "day_roll",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// `workload_tag` at [`DEFAULT_SEED`], pinned when the benchmark
    /// was defined. A run at that seed whose tag differs is measuring
    /// different inputs (a topology or campaign generator changed) and
    /// reports `load.input_changed` = 1.
    pub fn pinned_tag(self) -> u64 {
        match self {
            Workload::HotStream => 0x4ab2_4758_e462_f012,
            Workload::HotDgram => 0xdba9_9570_0e14_b3c1,
            Workload::ColdLib => 0xdce8_4db1_22c1_e053,
            Workload::DayRoll => 0x7424_0acc_43e0_acc7,
        }
    }

    fn shape(self) -> Shape {
        match self {
            Workload::HotStream => Shape {
                scale: Scale::Test,
                last_day: 0,
                pool: 4096,
                draw: DstDraw::Zipf,
                batch: 512,
                depth: 4,
                conns: 2,
                limit: None,
            },
            Workload::HotDgram => Shape {
                scale: Scale::Test,
                last_day: 0,
                pool: 4096,
                draw: DstDraw::Zipf,
                batch: 8,
                // Open loop: nothing waits for a reply (see `DGRAM_SCHEDULE`).
                depth: 0,
                conns: 0,
                limit: Some(SLO_LIMIT),
            },
            Workload::ColdLib => Shape {
                scale: Scale::Experiment,
                last_day: 0,
                pool: 2048,
                draw: DstDraw::Spread,
                batch: 4,
                depth: 0,
                conns: 0,
                limit: None,
            },
            Workload::DayRoll => Shape {
                scale: Scale::Mid,
                last_day: 5,
                pool: 1024,
                draw: DstDraw::Zipf,
                batch: 64,
                // `hot_stream`'s concurrency on purpose: enough in flight
                // that the server never idles. One connection at depth 2
                // was bound by the chain of thread wake-ups per request,
                // which on a shared host read 38k–116k pairs/s within
                // ten minutes.
                depth: 4,
                conns: 2,
                limit: None,
            },
        }
    }
}

/// The fixed sizing of a workload. Constants, never computed at run
/// time: a later change is compared at exactly these.
struct Shape {
    scale: Scale,
    /// Days served beyond day 0.
    last_day: u32,
    pool: usize,
    draw: DstDraw,
    /// Pairs per request.
    batch: usize,
    /// Requests in flight per connection.
    depth: usize,
    /// TCP load connections (before the `min(nproc, 2)` cap).
    conns: usize,
    /// Open loop only: an answer later than this is a miss
    /// (`load.slo_miss_ratio`) and does not count into `pairs_per_s`.
    limit: Option<Duration>,
}

/// `hot_dgram`'s offered load: 8 datagrams every millisecond, 8,000/s —
/// far enough under saturation that latency measures queueing, and, even
/// while catching up at twice that, under the default per-source bucket
/// (20,000/s, and every loopback client shares 127.0.0.1): a healthy
/// run sheds nothing. 64 in flight is 8 ms of schedule, well inside
/// either side's default socket buffer.
const DGRAM_SCHEDULE: Schedule = Schedule {
    tick: Duration::from_millis(1),
    per_tick: 8,
    max_per_tick: 16,
    max_in_flight: 64,
};

/// `hot_dgram`'s latency limit.
const SLO_LIMIT: Duration = Duration::from_millis(5);

/// `day_roll` swaps generations at the start of these five of thirty
/// equal slices of its window.
const SWAP_SLICES: [usize; 5] = [2, 8, 14, 20, 26];
const SWAP_SLICES_OF: usize = 30;

/// Pairs the ladder and the span-free probes reuse from the pool head.
pub const LADDER_PAIRS: usize = 256;

/// At most this many load threads, whatever the machine.
pub fn load_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub warm: Duration,
    pub seconds: Duration,
    pub traced: bool,
    pub setup_reps: usize,
}

/// Timings of one generation swap on `day_roll` (or of the ladder's
/// single unloaded swap elsewhere).
#[derive(Clone, Copy, Debug)]
pub struct SwapTiming {
    /// `apply_delta` on the origin.
    pub apply_delta_ms: f64,
    /// First `export` after that swap (re-encode for dissemination).
    pub export_ms: f64,
    /// `QueryEngine::update` on the mirror, over the wire.
    pub update_ms: f64,
}

/// The correctness gate's verdict.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub errs: ErrSplit,
}

impl Gate {
    fn merge(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.errs.merge(&other.errs);
    }
}

pub struct RunOutcome {
    pub tag: u64,
    pub setup_s: Vec<f64>,
    /// Pairs per request.
    pub batch: usize,
    /// The workload's latency limit, if it works under one.
    pub limit: Option<Duration>,
    pub win: Windows,
    pub tallies: PhaseTallies,
    pub gate: Gate,
    /// CPU and context switches over reference + main windows.
    pub usage: Usage,
    /// Per-layer values measured by the workload itself (server
    /// counters over the window, the ladder); empty when untraced.
    pub layer: Values,
    pub spans: Option<SpanLog>,
    pub swaps: Vec<SwapTiming>,
    /// Free-form facts for the full record.
    pub info: Vec<(&'static str, String)>,
}

/// A registry and the server fronting it; shuts both down on drop.
pub struct Served {
    pub server: NetServer,
    pub registry: Arc<ShardRegistry>,
}

impl Served {
    /// `codec::decode` → `ShardRegistry::build` → `NetServer::bind`,
    /// all at defaults, on an ephemeral loopback port.
    pub fn from_bytes(bytes: &[u8], udp: bool) -> Served {
        let atlas = codec::decode(bytes).expect("atlas bytes decode");
        let spec = ShardSpec {
            id: ShardId::DEFAULT,
            atlas: Arc::new(atlas),
            predictor: PredictorConfig::full(),
        };
        let registry = ShardRegistry::build(vec![spec], RegistryConfig::default())
            .expect("one-shard registry builds");
        Served::bind(registry, udp)
    }

    /// Front an engine built elsewhere (a mirror bootstrapped over the
    /// wire).
    pub fn from_engine(engine: QueryEngine) -> Served {
        let registry = ShardRegistry::from_engines(vec![(ShardId::DEFAULT, Arc::new(engine))])
            .expect("one-shard registry builds");
        Served::bind(registry, false)
    }

    fn bind(registry: ShardRegistry, udp: bool) -> Served {
        let registry = Arc::new(registry);
        let cfg = ServerConfig {
            udp: udp.then(|| "127.0.0.1:0".parse().expect("literal addr")),
            ..ServerConfig::default()
        };
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&registry), cfg)
            .expect("bind loopback server");
        Served { server, registry }
    }

    pub fn tcp(&self) -> SocketAddr {
        self.server.local_addr()
    }

    pub fn udp(&self) -> SocketAddr {
        self.server.udp_addr().expect("datagram plane enabled")
    }

    pub fn engine(&self) -> &Arc<QueryEngine> {
        self.registry
            .engine(ShardId::DEFAULT)
            .expect("shard 0 exists")
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.server.shutdown();
        self.registry.shutdown();
    }
}

/// Bootstrap a mirror engine from the origin over TCP and front it;
/// returns the source too, for later `update` calls.
fn bootstrap_mirror(origin: SocketAddr) -> (Served, MirrorSource) {
    let mut source = NetClient::connect(origin)
        .expect("connect to origin")
        .into_atlas_source(ShardId::DEFAULT);
    let engine = QueryEngine::bootstrap(&mut source, ServiceConfig::default())
        .expect("mirror bootstraps over the wire");
    (Served::from_engine(engine), source)
}

// ---- answer checking --------------------------------------------------

/// Compare wire answers with the oracle, field by field.
pub fn check_wire(got: &[Result<WirePath, WireFault>], want: &[Answer], errs: &mut ErrSplit) {
    errs.mismatch += (want.len() as u64).abs_diff(got.len() as u64);
    for (r, want) in got.iter().zip(want) {
        match r {
            Ok(path) if Answer::from(path) == *want => {}
            Ok(_) => errs.mismatch += 1,
            Err(fault) => errs.add_code(fault.code, 1),
        }
    }
}

/// Compare library answers with the oracle, field by field.
pub fn check_lib(got: &[Result<PredictedPath, ModelError>], want: &[Answer], errs: &mut ErrSplit) {
    errs.mismatch += (want.len() as u64).abs_diff(got.len() as u64);
    for (r, want) in got.iter().zip(want) {
        match r {
            Ok(path) if Answer::from(path) == *want => {}
            Ok(_) => errs.mismatch += 1,
            Err(e) => errs.add_model(e),
        }
    }
}

/// Book one client call's outcome: the answers against the oracle, or
/// the whole request under the error that ate it.
fn check_reply(
    got: Result<Vec<Result<WirePath, WireFault>>, NetError>,
    want: &[Answer],
    errs: &mut ErrSplit,
) {
    let pairs = want.len() as u64;
    match got {
        Ok(got) => check_wire(&got, want, errs),
        Err(NetError::Remote(fault)) => errs.add_code(fault.code, pairs),
        Err(NetError::Io(_) | NetError::Protocol(_)) => errs.io += pairs,
    }
}

/// Every pool pair once through `ask`, in chunks of `chunk`, compared
/// with day `day`'s oracle answers.
fn gate_with(
    pool: &Pool,
    day: usize,
    chunk: usize,
    mut ask: impl FnMut(&[Pair]) -> Result<Vec<Result<WirePath, WireFault>>, NetError>,
) -> Gate {
    let mut gate = Gate::default();
    for (pairs, want) in pool
        .pairs
        .chunks(chunk)
        .zip(pool.answers[day].chunks(chunk))
    {
        gate.attempted += pairs.len() as u64;
        check_reply(ask(pairs), want, &mut gate.errs);
    }
    gate
}

fn gate_stream(addr: SocketAddr, pool: &Pool, day: usize, chunk: usize) -> Gate {
    let mut client = NetClient::connect(addr).expect("gate connects");
    gate_with(pool, day, chunk, |pairs| client.query_batch(pairs))
}

fn gate_dgram(addr: SocketAddr, pool: &Pool, chunk: usize) -> Gate {
    let mut querier = UdpQuerier::connect(addr).expect("gate binds a datagram socket");
    gate_with(pool, 0, chunk, |pairs| querier.query_batch(pairs))
}

fn gate_lib(predictor: &PathPredictor, pool: &Pool, threads: usize) -> Gate {
    let share = pool.pairs.len().div_ceil(threads.max(1));
    std::thread::scope(|scope| {
        let handles: Vec<_> = pool
            .pairs
            .chunks(share)
            .zip(pool.answers[0].chunks(share))
            .map(|(pairs, want)| {
                scope.spawn(move || {
                    let mut gate = Gate {
                        attempted: pairs.len() as u64,
                        ..Gate::default()
                    };
                    check_lib(&predictor.query_batch(pairs), want, &mut gate.errs);
                    gate
                })
            })
            .collect();
        handles.into_iter().fold(Gate::default(), |mut all, h| {
            all.merge(h.join().expect("gate thread"));
            all
        })
    })
}

// ---- cold starts --------------------------------------------------------

/// Time `reps` cold starts. `once` runs encoded bytes → first answer
/// for the `rep`th request (booked into `gate` like any other) and
/// returns how long that took; teardown happens outside the clock.
fn time_setups(
    reps: usize,
    pool: &Pool,
    batch: usize,
    gate: &mut Gate,
    mut once: impl FnMut(&[Pair], &[Answer], &mut ErrSplit) -> Duration,
) -> Vec<f64> {
    (0..reps)
        .map(|rep| {
            let (ask, want) = first_request(pool, batch, rep);
            gate.attempted += ask.len() as u64;
            once(ask, want, &mut gate.errs).as_secs_f64()
        })
        .collect()
}

/// The first request of the `rep`th cold start: the `rep`th run of
/// `batch` pool pairs, wrapping. Each cold start asks different pairs,
/// so their median is the cost of a typical first request, not of the
/// few pairs a seed happens to put at the head of its pool (a cold
/// search costs anything from a tenth to three times the median).
fn first_request(pool: &Pool, batch: usize, rep: usize) -> (&[Pair], &[Answer]) {
    let n = batch.min(pool.pairs.len());
    let at = (rep % (pool.pairs.len() / n)) * n;
    (&pool.pairs[at..at + n], &pool.answers[0][at..at + n])
}

// ---- watching the serving process from outside ---------------------------

struct Observed {
    usage: Usage,
    before: Option<MetricsDump>,
    after: Option<MetricsDump>,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Run `load` on its own thread while this one reads process usage and
/// the server's registry at the edges of the measured window.
fn observe<T: Send>(
    win: &Windows,
    served: Option<&Served>,
    load: impl FnOnce() -> T + Send,
) -> (T, Observed) {
    std::thread::scope(|scope| {
        let handle = scope.spawn(load);
        sleep_until(win.t0 + win.warm);
        let usage0 = sys::usage();
        let before = served.map(|s| s.server.metrics().dump());
        sleep_until(win.t0 + win.end());
        let usage1 = sys::usage();
        let after = served.map(|s| s.server.metrics().dump());
        let out = handle.join().expect("load thread");
        (
            out,
            Observed {
                usage: usage1.since(usage0),
                before,
                after,
            },
        )
    })
}

fn histogram(dump: &MetricsDump, name: &str) -> Vec<u64> {
    match dump.value(name) {
        Some(MetricValue::Histogram(buckets)) => buckets.clone(),
        _ => Vec::new(),
    }
}

/// The serving process's own counters over the measured window, as
/// differences between two dumps. A workload without a server reports
/// zeros: the layer did nothing.
fn server_window(obs: &Observed, requests: u64) -> Values {
    let mut v = Values::default();
    let empty = MetricsDump::default();
    let (a, b) = match (&obs.before, &obs.after) {
        (Some(a), Some(b)) => (a, b),
        _ => (&empty, &empty),
    };
    let delta = |name: &str| b.counter(name).saturating_sub(a.counter(name)) as f64;
    v.set(
        "net.loop.wakeups_per_req",
        delta("srv.loop.wakeups") / requests.max(1) as f64,
    );
    let (h0, h1) = (
        histogram(a, "srv.loop.ready_events"),
        histogram(b, "srv.loop.ready_events"),
    );
    let ready: Vec<u64> = h1
        .iter()
        .enumerate()
        .map(|(i, &c)| c.saturating_sub(h0.get(i).copied().unwrap_or(0)))
        .collect();
    v.set(
        "net.loop.ready_events_p50",
        quantile_from_counts(&ready, 0.5) as f64,
    );
    v.set("net.srv.overloaded", delta("srv.overloaded"));
    v.set("net.srv.faults", delta("srv.faults"));
    v.set("net.udp.datagrams_in", delta("srv.udp.datagrams_in"));
    v.set("net.udp.datagrams_out", delta("srv.udp.datagrams_out"));
    v.set("net.udp.shed", delta("srv.udp.shed"));
    v.set("net.udp.truncated", delta("srv.udp.truncated"));
    let (hits, misses) = (delta("shard0.cache.hits"), delta("shard0.cache.misses"));
    v.set(
        "service.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    v.set("service.cache_evictions", delta("shard0.cache.evictions"));
    v
}

// ---- the run --------------------------------------------------------------

struct Prepared {
    world: World,
    pool: Pool,
    tag: u64,
    info: Vec<(&'static str, String)>,
}

fn prepare(cfg: &RunConfig, shape: &Shape) -> Prepared {
    let threads = load_threads();
    let started = Instant::now();
    // The ladder measures a delta on every workload, so a traced run
    // builds one day more than it serves when it serves only day 0.
    let build_days = if cfg.traced {
        shape.last_day.max(1)
    } else {
        shape.last_day
    };
    let world = build_world(shape.scale, WORLD_SEED, build_days, threads);
    let world_s = started.elapsed().as_secs_f64();
    let served_days = &world.days[..=shape.last_day as usize];
    let pool = build_pool(served_days, shape.pool, shape.draw, cfg.seed, threads);
    let heads: Vec<Vec<u32>> = (0..shape.conns.max(1))
        .map(|t| IndexStream::head(cfg.seed, t, pool.pairs.len(), 4096))
        .collect();
    let tag = workload_tag(served_days, &pool, &heads);
    let atlas = &world.days[0];
    let info = vec![
        ("prefixes", atlas.prefix_as.len().to_string()),
        ("links", atlas.links.len().to_string()),
        ("tuples", atlas.tuples.len().to_string()),
        ("pool_pairs", pool.pairs.len().to_string()),
        ("pool_distinct_dsts", pool.distinct_dsts.to_string()),
        ("pool_draws", pool.draws.to_string()),
        ("world_s", format!("{world_s:.3}")),
        (
            "inputs_s",
            format!("{:.3}", started.elapsed().as_secs_f64()),
        ),
    ];
    Prepared {
        world,
        pool,
        tag,
        info,
    }
}

/// What a workload's own code measured, before the shared epilogue.
struct Measured {
    setup_s: Vec<f64>,
    win: Windows,
    tallies: PhaseTallies,
    gate: Gate,
    obs: Observed,
    spans: Option<SpanLog>,
    /// Swaps done under load (`day_roll`); empty elsewhere.
    swaps: Vec<SwapTiming>,
}

pub fn run(cfg: &RunConfig) -> RunOutcome {
    let shape = cfg.workload.shape();
    let prep = prepare(cfg, &shape);
    // `live` is the server the load ran against, kept up for the
    // ladder's observability rungs.
    let (m, live) = match cfg.workload {
        Workload::HotStream => hot_stream(cfg, &shape, &prep),
        Workload::HotDgram => hot_dgram(cfg, &shape, &prep),
        Workload::ColdLib => cold_lib(cfg, &shape, &prep),
        Workload::DayRoll => day_roll(cfg, &shape, &prep),
    };
    // A traced run's per-layer values: the server's counters over the
    // window, then the ladder. A workload that swapped under load keeps
    // those timings; the others get the ladder's one unloaded swap.
    let mut layer = Values::default();
    let mut swaps = m.swaps;
    if cfg.traced {
        let requests = match live {
            Some(_) => m.tallies.reference.requests + m.tallies.main.requests,
            None => 0,
        };
        layer.extend(server_window(&m.obs, requests));
        let (values, swap) = ladder::run(
            &prep.world,
            &prep.pool,
            shape.batch,
            live.as_ref(),
            swaps.is_empty(),
        );
        layer.extend(values);
        swaps.extend(swap);
    }
    RunOutcome {
        tag: prep.tag,
        setup_s: m.setup_s,
        batch: shape.batch,
        limit: shape.limit,
        win: m.win,
        tallies: m.tallies,
        gate: m.gate,
        usage: m.obs.usage,
        layer,
        spans: m.spans,
        swaps,
        info: prep.info,
    }
}

fn new_span_log(cfg: &RunConfig, t0: Instant) -> Option<SpanLog> {
    cfg.traced.then(|| SpanLog::new(t0))
}

/// Closed-loop TCP load over `conns` connections, each on its own
/// thread with its own span buffer.
fn stream_load(
    addr: SocketAddr,
    pool: &Pool,
    shape: &Shape,
    seed: u64,
    win: &Windows,
    spans: Option<&mut SpanLog>,
) -> PhaseTallies {
    let conns = shape.conns.min(load_threads());
    let traced = spans.is_some();
    let (tallies, logs) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                scope.spawn(move || {
                    let load = StreamLoad {
                        addr,
                        pool,
                        batch: shape.batch,
                        depth: shape.depth,
                        seed,
                        conn,
                    };
                    let mut log = traced.then(|| SpanLog::new(win.t0));
                    (drive_stream(&load, win, log.as_mut()), log)
                })
            })
            .collect();
        let mut tallies = PhaseTallies::default();
        let mut logs = Vec::new();
        for h in handles {
            let (t, log) = h.join().expect("stream load thread");
            tallies.merge(t);
            logs.extend(log);
        }
        (tallies, logs)
    });
    if let Some(spans) = spans {
        for log in logs {
            spans.absorb(log);
        }
    }
    tallies
}

fn hot_stream(cfg: &RunConfig, shape: &Shape, prep: &Prepared) -> (Measured, Option<Served>) {
    let Prepared { world, pool, .. } = prep;
    let mut gate = Gate::default();
    let setup_s = time_setups(
        cfg.setup_reps,
        pool,
        shape.batch,
        &mut gate,
        |ask, want, errs| {
            let started = Instant::now();
            let served = Served::from_bytes(&world.bytes, false);
            let mut client = NetClient::connect(served.tcp()).expect("connect");
            let got = client.query_batch(ask);
            let took = started.elapsed();
            check_reply(got, want, errs);
            took
        },
    );

    let served = Served::from_bytes(&world.bytes, false);
    let win = Windows::new(Instant::now(), cfg.warm, cfg.seconds, cfg.traced);
    let mut spans = new_span_log(cfg, win.t0);
    let (tallies, obs) = observe(&win, Some(&served), || {
        stream_load(served.tcp(), pool, shape, cfg.seed, &win, spans.as_mut())
    });
    gate.merge(gate_stream(served.tcp(), pool, 0, shape.batch));
    let measured = Measured {
        setup_s,
        win,
        tallies,
        gate,
        obs,
        spans,
        swaps: Vec::new(),
    };
    (measured, Some(served))
}

fn hot_dgram(cfg: &RunConfig, shape: &Shape, prep: &Prepared) -> (Measured, Option<Served>) {
    let Prepared { world, pool, .. } = prep;
    let mut gate = Gate::default();
    let setup_s = time_setups(
        cfg.setup_reps,
        pool,
        shape.batch,
        &mut gate,
        |ask, want, errs| {
            let started = Instant::now();
            let served = Served::from_bytes(&world.bytes, true);
            let mut querier = UdpQuerier::connect(served.udp()).expect("bind datagram socket");
            let got = querier.query_batch(ask);
            let took = started.elapsed();
            check_reply(got, want, errs);
            took
        },
    );

    let served = Served::from_bytes(&world.bytes, true);
    let win = Windows::new(Instant::now(), cfg.warm, cfg.seconds, cfg.traced);
    let mut spans = new_span_log(cfg, win.t0);
    let load = DgramLoad {
        addr: served.udp(),
        pool,
        batch: shape.batch,
        schedule: DGRAM_SCHEDULE,
        seed: cfg.seed,
    };
    let (tallies, obs) = observe(&win, Some(&served), || {
        drive_dgram(&load, &win, spans.as_mut())
    });
    gate.merge(gate_dgram(served.udp(), pool, shape.batch));
    let measured = Measured {
        setup_s,
        win,
        tallies,
        gate,
        obs,
        spans,
        swaps: Vec::new(),
    };
    (measured, Some(served))
}

fn cold_lib(cfg: &RunConfig, shape: &Shape, prep: &Prepared) -> (Measured, Option<Served>) {
    let Prepared { world, pool, .. } = prep;
    assert!(
        pool.distinct_dsts >= 1024,
        "cold_lib needs ≥1,024 distinct destinations to outrun the 512-entry search cache, \
         pool has {}",
        pool.distinct_dsts
    );
    // What `INanoClient::bootstrap` does once the bytes have arrived.
    let open = |bytes: &[u8]| {
        let atlas = codec::decode(bytes).expect("atlas bytes decode");
        PathPredictor::new(Arc::new(atlas), PredictorConfig::full())
    };
    let mut gate = Gate::default();
    let setup_s = time_setups(
        cfg.setup_reps,
        pool,
        shape.batch,
        &mut gate,
        |ask, want, errs| {
            let started = Instant::now();
            let predictor = open(&world.bytes);
            let got = predictor.query_batch(ask);
            let took = started.elapsed();
            check_lib(&got, want, errs);
            took
        },
    );

    let predictor = open(&world.bytes);
    let win = Windows::new(Instant::now(), cfg.warm, cfg.seconds, cfg.traced);
    let mut spans = new_span_log(cfg, win.t0);
    let (tallies, obs) = observe(&win, None, || {
        drive_lib(
            &predictor,
            pool,
            shape.batch,
            cfg.seed,
            &win,
            spans.as_mut(),
        )
    });
    gate.merge(gate_lib(&predictor, pool, load_threads()));
    let measured = Measured {
        setup_s,
        win,
        tallies,
        gate,
        obs,
        spans,
        swaps: Vec::new(),
    };
    (measured, None)
}

/// Land every delta on the origin and pull it into the mirror, one at
/// the start of each of [`SWAP_SLICES`] of the measured span.
fn roll_days(
    origin: &Served,
    mirror: &QueryEngine,
    source: &mut MirrorSource,
    deltas: &[AtlasDelta],
    win: &Windows,
) -> Vec<SwapTiming> {
    assert_eq!(deltas.len(), SWAP_SLICES.len(), "one swap slice per delta");
    let slice = (win.reference + win.main) / SWAP_SLICES_OF as u32;
    deltas
        .iter()
        .zip(SWAP_SLICES)
        .map(|(delta, at)| {
            sleep_until(win.t0 + win.warm + slice * at as u32);
            swap_once(origin, mirror, source, delta)
        })
        .collect()
}

/// One generation swap end to end: origin applies, origin re-exports,
/// mirror updates over the wire.
pub fn swap_once(
    origin: &Served,
    mirror: &QueryEngine,
    source: &mut MirrorSource,
    delta: &AtlasDelta,
) -> SwapTiming {
    let ms = |since: Instant| since.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    origin
        .registry
        .apply_delta(ShardId::DEFAULT, delta)
        .expect("delta applies on the origin");
    let apply_delta_ms = ms(t);
    let t = Instant::now();
    std::hint::black_box(origin.engine().export());
    let export_ms = ms(t);
    let t = Instant::now();
    let applied = mirror.update(source).expect("mirror follows the origin");
    let update_ms = ms(t);
    assert_eq!(applied, 1, "one delta per swap reaches the mirror");
    SwapTiming {
        apply_delta_ms,
        export_ms,
        update_ms,
    }
}

fn day_roll(cfg: &RunConfig, shape: &Shape, prep: &Prepared) -> (Measured, Option<Served>) {
    let Prepared { world, pool, .. } = prep;
    let origin = Served::from_bytes(&world.bytes, false);
    let mut gate = Gate::default();
    // The restart path: AtlasHead + chunks → decode → engine → bind →
    // first reply, against an origin that is already up.
    let setup_s = time_setups(
        cfg.setup_reps,
        pool,
        shape.batch,
        &mut gate,
        |ask, want, errs| {
            let started = Instant::now();
            let (mirror, _source) = bootstrap_mirror(origin.tcp());
            let mut client = NetClient::connect(mirror.tcp()).expect("connect");
            let got = client.query_batch(ask);
            let took = started.elapsed();
            check_reply(got, want, errs);
            took
        },
    );

    let (mirror, mut source) = bootstrap_mirror(origin.tcp());
    let deltas = &world.deltas[..shape.last_day as usize];
    let win = Windows::new(Instant::now(), cfg.warm, cfg.seconds, cfg.traced);
    let mut spans = new_span_log(cfg, win.t0);
    let ((tallies, swaps), obs) = observe(&win, Some(&mirror), || {
        std::thread::scope(|scope| {
            let roller =
                scope.spawn(|| roll_days(&origin, mirror.engine(), &mut source, deltas, &win));
            let tallies = stream_load(mirror.tcp(), pool, shape, cfg.seed, &win, spans.as_mut());
            (tallies, roller.join().expect("day roller"))
        })
    });
    assert_eq!(
        mirror.engine().day(),
        shape.last_day,
        "the mirror ends on the last day"
    );
    let last_day = shape.last_day as usize;
    gate.merge(gate_stream(mirror.tcp(), pool, last_day, shape.batch));
    let measured = Measured {
        setup_s,
        win,
        tallies,
        gate,
        obs,
        spans,
        swaps,
    };
    (measured, Some(mirror))
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_model::Ipv4;

    #[test]
    fn workload_names_round_trip() {
        for w in WORKLOADS {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("warm_stream"), None);
    }

    #[test]
    fn each_cold_start_asks_the_next_pairs_of_the_pool_and_wraps() {
        let answer = |i: u32| Answer {
            fwd_clusters: vec![i],
            rev_clusters: vec![i],
            fwd_as: Vec::new(),
            rev_as: Vec::new(),
            rtt_bits: 0,
            loss_bits: 0,
        };
        let pool = Pool {
            pairs: (0..10).map(|i| (Ipv4(i), Ipv4(100 + i))).collect(),
            answers: vec![(0..10).map(answer).collect()],
            distinct_dsts: 10,
            draws: 10,
        };
        // Ten pairs hold two whole requests of four; the third wraps.
        for (rep, first) in [(0, 0), (1, 4), (2, 0), (3, 4)] {
            let (ask, want) = first_request(&pool, 4, rep);
            assert_eq!(ask.len(), 4);
            assert_eq!(ask[0], (Ipv4(first), Ipv4(100 + first)));
            assert_eq!(want[0], answer(first), "answers stay aligned with pairs");
        }
        // A pool smaller than a request is asked whole.
        assert_eq!(first_request(&pool, 64, 5).0.len(), 10);
    }

    #[test]
    fn gate_counts_wrong_missing_and_failed_answers() {
        let good = WirePath {
            fwd_clusters: vec![1, 2],
            rev_clusters: vec![2, 1],
            fwd_as: vec![7],
            rev_as: vec![7],
            rtt_ms: 3.5,
            loss: 0.0,
        };
        let want = vec![Answer::from(&good); 4];
        let mut off = good.clone();
        off.rtt_ms = 3.500_000_1;
        let got = vec![
            Ok(good.clone()),
            Ok(off),
            Err(WireFault::new(inano_model::ErrorCode::NoPath, "gone")),
        ];
        let mut errs = ErrSplit::default();
        check_wire(&got, &want, &mut errs);
        assert_eq!(errs.mismatch, 2, "one wrong field, one missing answer");
        assert_eq!(errs.nopath, 1);
        assert_eq!(errs.total(), 3);
    }
}
