//! The per-layer ladder: the same pairs timed at every boundary a
//! query crosses, bottom up — cold search → warm search → result-cache
//! hit → `QueryEngine::query` → `query_batch` inline → pooled → frame
//! encode + decode in memory → loopback TCP → loopback UDP — plus the
//! write side (codec, delta, predictor build, one generation swap).
//! Adjacent differences are the budget: what each boundary adds.
//!
//! Everything here is unloaded and single-caller; it runs after the
//! measured windows, on servers of its own.

use crate::inputs::{Pair, Pool, World};
use crate::load::reply_limits;
use crate::record::Values;
use crate::stats::median;
use crate::workloads::{swap_once, Served, SwapTiming, LADDER_PAIRS};
use inano_atlas::{codec, AtlasDelta};
use inano_core::{PathPredictor, PredictorConfig};
use inano_model::ClusterId;
use inano_net::wire::read_frame;
use inano_net::{Frame, Limits, NetClient, ShardId, UdpQuerier, WirePath};
use inano_service::{QueryEngine, ServiceConfig, ShardedCache};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median of `reps` timings of `f`, in the unit `scale` converts
/// seconds to.
fn timed(reps: usize, scale: f64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * scale
        })
        .collect();
    median(&samples)
}

const MS: f64 = 1e3;
const US: f64 = 1e6;
const NS: f64 = 1e9;

/// `n` pairs cycled from `sample`.
fn cycled(sample: &[Pair], n: usize) -> Vec<Pair> {
    sample.iter().copied().cycle().take(n).collect()
}

/// Run every rung on the head of the pool. `live` is the workload's
/// own server, read for the always-on observability costs; `with_swap`
/// adds one unloaded origin → mirror generation swap (workloads that
/// swap under load report those instead).
pub fn run(
    world: &World,
    pool: &Pool,
    batch: usize,
    live: Option<&Served>,
    with_swap: bool,
) -> (Values, Option<SwapTiming>) {
    let mut v = Values::default();
    let sample = &pool.pairs[..LADDER_PAIRS.min(pool.pairs.len())];
    let atlas = Arc::clone(&world.days[0]);

    // -- atlas: the codec and the daily delta ---------------------------
    v.set("atlas.bytes", world.bytes.len() as f64);
    v.set("atlas.delta_bytes", world.delta_bytes[0] as f64);
    v.set(
        "atlas.encode_ms",
        timed(5, MS, || {
            black_box(codec::encode(&atlas));
        }),
    );
    v.set(
        "atlas.decode_ms",
        timed(5, MS, || {
            black_box(codec::decode(&world.bytes).expect("decodes"));
        }),
    );
    let delta = &world.deltas[0];
    let (delta_encoded, _) = delta.encode();
    v.set(
        "atlas.delta_apply_ms",
        timed(5, MS, || {
            black_box(delta.apply(&atlas).expect("applies"));
        }),
    );
    v.set(
        "atlas.delta_decode_ms",
        timed(5, MS, || {
            black_box(AtlasDelta::decode(&delta_encoded).expect("decodes"));
        }),
    );

    // -- core: build, resolve, cold and warm search ---------------------
    let build = || PathPredictor::new(Arc::clone(&atlas), PredictorConfig::full());
    v.set(
        "core.predictor_build_ms",
        timed(5, MS, || {
            black_box(build());
        }),
    );
    let predictor = build();
    let resolve_reps = 200;
    let per_call = (resolve_reps * sample.len()) as f64;
    v.set(
        "core.resolve_ns",
        timed(5, NS, || {
            for _ in 0..resolve_reps {
                for &(s, _) in sample {
                    black_box(predictor.resolve(s).expect("pool address resolves"));
                }
            }
        }) / per_call,
    );
    // Cold: pairs sharing no prefix, few enough that the predictor's
    // 512-entry search cache never fills — every search runs.
    let mut seen = HashSet::new();
    let disjoint: Vec<Pair> = sample
        .iter()
        .copied()
        .filter(|&(s, d)| {
            !seen.contains(&s) && !seen.contains(&d) && seen.insert(s) && seen.insert(d)
        })
        .take(64)
        .collect();
    assert!(!disjoint.is_empty(), "ladder sample holds no pair");
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    while cold.len() < 128 {
        let fresh = build();
        for &(s, d) in &disjoint {
            let t = Instant::now();
            black_box(fresh.query(s, d).expect("pool pair routes"));
            cold.push(t.elapsed().as_secs_f64() * US);
        }
        // Warm: the same pairs again — both searches are cached.
        for &(s, d) in &disjoint {
            let t = Instant::now();
            black_box(fresh.query(s, d).expect("pool pair routes"));
            warm.push(t.elapsed().as_secs_f64() * US);
        }
    }
    v.set("core.search_cold_us", median(&cold));
    v.set("core.search_warm_us", median(&warm));

    // -- service: the result cache, then the engine's three paths ------
    let path = Arc::new(
        predictor
            .query(sample[0].0, sample[0].1)
            .expect("pool pair routes"),
    );
    let keys: Vec<_> = (0..10_000u32)
        .map(|i| (ClusterId::new(i), ClusterId::new(i ^ 0x5a5a), 0u64))
        .collect();
    let cache = ShardedCache::new(65_536, 16);
    let t = Instant::now();
    for k in &keys {
        cache.insert(*k, Arc::clone(&path));
    }
    v.set(
        "service.cache_insert_ns",
        t.elapsed().as_secs_f64() * NS / keys.len() as f64,
    );
    v.set(
        "service.cache_get_ns",
        timed(5, NS, || {
            for k in &keys {
                black_box(cache.get(k));
            }
        }) / keys.len() as f64,
    );

    let engine = QueryEngine::new(Arc::clone(&atlas), ServiceConfig::default());
    let inline_pairs = cycled(sample, 64);
    let pooled_pairs = cycled(sample, 512);
    black_box(engine.query_batch(&pooled_pairs)); // fill the result cache
    v.set(
        "service.query_inline_ns",
        timed(21, NS, || {
            for &(s, d) in &inline_pairs {
                black_box(engine.query(s, d).expect("cached pair"));
            }
        }) / 64.0,
    );
    v.set(
        "service.batch_inline_ns",
        timed(21, NS, || {
            black_box(engine.query_batch(&inline_pairs));
        }) / 64.0,
    );
    v.set(
        "service.batch_pooled_ns",
        timed(21, NS, || {
            black_box(engine.query_batch(&pooled_pairs));
        }) / 512.0,
    );
    let answers: Vec<WirePath> = engine
        .query_batch(&cycled(sample, batch))
        .iter()
        .map(|r| WirePath::from(r.as_ref().expect("cached pair")))
        .collect();
    engine.shutdown();

    // -- net: the codec in memory, at the workload's batch size --------
    let request = Frame::QueryBatch {
        shard: ShardId::DEFAULT,
        pairs: cycled(sample, batch),
    };
    let reply = Frame::PathBatch {
        results: answers.into_iter().map(Ok).collect(),
    };
    let (request_bytes, reply_bytes) = (request.encode(1), reply.encode(1));
    let reply_limits = reply_limits();
    let per_pair = batch as f64;
    v.set(
        "net.wire.encode_req_ns",
        timed(51, NS, || {
            black_box(request.encode(1));
        }) / per_pair,
    );
    v.set(
        "net.wire.decode_req_ns",
        timed(51, NS, || {
            black_box(read_frame(&mut &request_bytes[..], &Limits::default()).expect("decodes"));
        }) / per_pair,
    );
    v.set(
        "net.wire.encode_reply_ns",
        timed(51, NS, || {
            black_box(reply.encode(1));
        }) / per_pair,
    );
    v.set(
        "net.wire.decode_reply_ns",
        timed(51, NS, || {
            black_box(read_frame(&mut &reply_bytes[..], &reply_limits).expect("decodes"));
        }) / per_pair,
    );
    v.set(
        "net.wire.bytes_per_pair",
        (request_bytes.len() + reply_bytes.len()) as f64 / per_pair,
    );

    // -- net: loopback, one caller, nothing else running ---------------
    let served = Served::from_bytes(&world.bytes, true);
    let mut tcp = NetClient::connect(served.tcp()).expect("connect");
    let mut udp = UdpQuerier::connect(served.udp()).expect("bind datagram socket");
    tcp.query_batch(&pooled_pairs).expect("warm the server");
    v.set(
        "net.tcp.ping_rtt_us",
        timed(201, US, || tcp.ping().expect("tcp ping")),
    );
    v.set(
        "net.udp.ping_rtt_us",
        timed(201, US, || udp.ping().expect("udp ping")),
    );
    // A datagram reply must fit one datagram, so this rung's batch is
    // capped at 64 pairs whatever the workload sends over TCP.
    let udp_pairs = cycled(sample, batch.min(64));
    v.set(
        "net.udp.batch_rtt_us",
        timed(101, US, || {
            black_box(udp.query_batch(&udp_pairs).expect("udp batch"));
        }),
    );
    let mut rtt = Vec::new();
    let mut stages: [Vec<f64>; 4] = Default::default();
    for _ in 0..101 {
        let t = Instant::now();
        let (_, timings) = tcp.call_traced(&request).expect("traced batch");
        rtt.push(t.elapsed().as_secs_f64() * US);
        let parts = [
            timings.decode_us,
            timings.queue_us,
            timings.engine_us,
            timings.encode_us,
        ];
        for (stage, us) in stages.iter_mut().zip(parts) {
            stage.push(us as f64);
        }
    }
    let rtt_us = median(&rtt);
    v.set("net.tcp.batch_rtt_us", rtt_us);
    let names = [
        "net.srv.decode_us",
        "net.srv.queue_us",
        "net.srv.engine_us",
        "net.srv.encode_us",
    ];
    let mut server_us = 0.0;
    for (name, stage) in names.into_iter().zip(&stages) {
        let m = median(stage);
        server_us += m;
        v.set(name, m);
    }
    v.set("net.client_share_us", rtt_us - server_us);

    // -- obs: what the always-on registry and journal cost --------------
    let watched = live.unwrap_or(&served);
    v.set(
        "obs.dump_us",
        timed(51, US, || {
            black_box(watched.server.metrics().dump());
        }),
    );
    v.set(
        "obs.journal_lost",
        watched.server.journal().since(0).lost as f64,
    );

    // -- one generation swap, origin → mirror, nothing else running -----
    let swap = with_swap.then(|| {
        let mut source = NetClient::connect(served.tcp())
            .expect("connect to origin")
            .into_atlas_source(ShardId::DEFAULT);
        let mirror = QueryEngine::bootstrap(&mut source, ServiceConfig::default())
            .expect("mirror bootstraps over the wire");
        let swap = swap_once(&served, &mirror, &mut source, delta);
        mirror.shutdown();
        swap
    });
    (v, swap)
}
