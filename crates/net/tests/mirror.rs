//! Integration tests for atlas dissemination: a chain of live servers
//! where each hop fetches the previous hop's atlas over the wire.
//!
//! Covers the acceptance surface of the fetch frames: a
//! `MirrorSource` bootstraps a second `QueryEngine` from a live
//! server, epoch tags match end to end, a delta published at the
//! origin propagates through the mirror with zero failed queries
//! mid-swap, an oversized atlas (bigger than one frame admits) arrives
//! correctly chunked, and a generation swap — or a replaced delta —
//! racing a chunk fetch comes back as a typed `VersionRaced` fault that
//! the reader recovers from.

mod common;

use common::ring::{ring_atlas, ring_ip, ring_shortcut_delta};
use common::{assert_bitwise, serve_one, wire};
use inano_atlas::{AtlasDelta, LinkAnnotation, Plane};
use inano_core::{
    content_tag, n_chunks, read_full, AtlasSource, Scripted, Step, DEFAULT_CHUNK_SIZE,
};
use inano_model::{ClusterId, ErrorCode, Ipv4, LatencyMs, ModelError};
use inano_net::{Limits, MirrorSource, NetClient, NetError, ServerConfig};
use inano_obs::EventKind;
use inano_service::{QueryEngine, ServiceConfig, ShardId, DELTA_LOG_CAP};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const RING: u32 = 12;

fn ring_engine(ring: u32) -> Arc<QueryEngine> {
    Arc::new(QueryEngine::new(
        Arc::new(ring_atlas(ring, 0)),
        ServiceConfig::default(),
    ))
}

fn all_pairs() -> Vec<(Ipv4, Ipv4)> {
    (0..RING)
        .flat_map(|s| {
            (0..RING)
                .filter(move |&d| d != s)
                .map(move |d| (ring_ip(s), ring_ip(d)))
        })
        .collect()
}

/// The acceptance chain: origin → mirror engine (bootstrapped through
/// a `MirrorSource`) → client engine (bootstrapped through a
/// `NetClient` scoped to shard 0 with `into_atlas_source`), with a
/// delta published at the origin propagating the whole way under live
/// query load.
#[test]
fn mirror_chain_propagates_the_atlas_and_its_deltas() {
    // Hop 0: the origin owns the authoritative atlas.
    let origin_engine = ring_engine(RING);
    let origin = serve_one(Arc::clone(&origin_engine), ServerConfig::default());
    let origin_tag = origin_engine.export().tag();

    // Hop 1: a mirror bootstraps its engine over the wire.
    let mut upstream = MirrorSource::connect(origin.local_addr(), ShardId::DEFAULT)
        .expect("connect mirror to origin");
    let mirror_engine = Arc::new(
        QueryEngine::bootstrap(&mut upstream, ServiceConfig::default())
            .expect("mirror bootstraps from the origin"),
    );
    assert_eq!(
        mirror_engine.export().tag(),
        origin_tag,
        "one wire hop must not change the atlas"
    );
    let mirror = serve_one(Arc::clone(&mirror_engine), ServerConfig::default());

    // Hop 2: a plain NetClient, scoped to shard 0.
    let mut downstream = NetClient::connect(mirror.local_addr())
        .expect("connect to mirror")
        .into_atlas_source(ShardId::DEFAULT);
    let client_engine = QueryEngine::bootstrap(&mut downstream, ServiceConfig::default())
        .expect("client engine bootstraps from the mirror");
    assert_eq!(
        client_engine.export().tag(),
        origin_tag,
        "epoch tags match end to end"
    );
    assert_eq!(client_engine.day(), origin_engine.day());

    // The chain serves identical predictions.
    let pairs = all_pairs();
    for &(s, d) in &pairs {
        let a = origin_engine.query(s, d).expect("origin serves");
        let b = client_engine.query(s, d).expect("chain end serves");
        assert_eq!(a.fwd_clusters, b.fwd_clusters);
        assert!((a.rtt.ms() - b.rtt.ms()).abs() < 1e-12);
    }

    // Publish a delta at the origin while remote clients hammer the
    // mirror: the swap must lose nothing anywhere on the chain.
    let stop = Arc::new(AtomicBool::new(false));
    let mirror_addr = mirror.local_addr();
    let hammers: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let pairs = pairs.clone();
            thread::spawn(move || {
                let mut client = NetClient::connect(mirror_addr).expect("hammer connect");
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for r in client.query_batch(&pairs).expect("batch keeps working") {
                        r.expect("no query may fail while the delta propagates");
                        served += 1;
                    }
                }
                served
            })
        })
        .collect();

    thread::sleep(Duration::from_millis(20));
    let day = origin_engine
        .apply_delta(&ring_shortcut_delta(RING, 0))
        .expect("origin applies the delta");
    assert_eq!(day, 1);
    // Each hop pulls from the one above it — exactly what the
    // `--mirror` refresh loop does on its interval.
    assert_eq!(
        mirror_engine.update(&mut upstream).expect("mirror update"),
        1,
        "the mirror pulls the origin's delta"
    );
    assert_eq!(
        client_engine
            .update(&mut downstream)
            .expect("client update"),
        1,
        "the client pulls the delta the mirror retained"
    );
    thread::sleep(Duration::from_millis(20));
    stop.store(true, Ordering::Relaxed);
    let served: u64 = hammers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(served > 0, "the hammers really ran");

    // The mirror offers the delta on as the origin named it: leaving
    // the same body, in the same bytes.
    let chain_of = |engine: &QueryEngine| {
        let head = engine.offer(DEFAULT_CHUNK_SIZE).head();
        head.expect("an engine always has a head").chain
    };
    assert_eq!(chain_of(&mirror_engine), chain_of(&origin_engine));
    assert_eq!(chain_of(&mirror_engine)[0].base, origin_tag);
    // The whole chain landed on the same new generation...
    let new_tag = origin_engine.export().tag();
    assert_ne!(new_tag, origin_tag, "the delta changed the atlas");
    assert_eq!(mirror_engine.export().tag(), new_tag);
    assert_eq!(client_engine.export().tag(), new_tag);
    assert_eq!(client_engine.day(), 1);
    // ...and the chain end serves the day-1 shortcut.
    let far = RING / 2;
    let path = client_engine
        .query(ring_ip(0), ring_ip(far))
        .expect("routable");
    assert_eq!(
        path.fwd_clusters.len(),
        2,
        "day-1 shortcut at the chain end"
    );
    // Zero failed queries mid-swap, on the engines and over the wire.
    assert_eq!(mirror_engine.metrics().errors.get(), 0);
    assert_eq!(mirror.metrics().dump().counter("srv.faults"), 0);
}

/// The mirror-side convergence instruments, end to end: the lag gauge
/// rises when the upstream moves, falls to zero after a refresh, and a
/// broken delta chain — the upstream restarted, or rotated the delta
/// out of its [`DELTA_LOG_CAP`]-long chain — is bridged by that same
/// refresh with a full resync that the counters record.
#[test]
fn mirror_lag_gauge_falls_after_refresh_and_resyncs_count_broken_chains() {
    let origin_engine = ring_engine(RING);
    let origin = serve_one(Arc::clone(&origin_engine), ServerConfig::default());
    let mut upstream = Scripted::new(
        MirrorSource::connect(origin.local_addr(), ShardId::DEFAULT)
            .expect("connect mirror to origin"),
    );
    let mirror_engine = Arc::new(
        QueryEngine::bootstrap(&mut upstream, ServiceConfig::default())
            .expect("mirror bootstraps from the origin"),
    );
    // Fronted by a server from the start, so its journal sees the
    // whole story.
    let mirror_srv = serve_one(Arc::clone(&mirror_engine), ServerConfig::default());
    // The engine's own registers, read where they are written.
    let m = mirror_engine.metrics();
    assert_eq!(
        (
            m.mirror_deltas_applied.get(),
            m.mirror_full_resyncs.get(),
            m.mirror_races_recovered.get(),
            m.mirror_lag_days.get(),
            m.mirror_upstream_day.get(),
        ),
        (0, 0, 0, 0, 0),
        "a fresh mirror has followed nothing yet"
    );

    // A delta lands at the origin; one refresh converges the mirror
    // and says so in the gauges.
    origin_engine
        .apply_delta(&ring_shortcut_delta(RING, 0))
        .expect("origin applies the delta");
    assert_eq!(mirror_engine.update(&mut upstream).expect("refresh"), 1);
    assert_eq!(m.mirror_deltas_applied.get(), 1);
    assert_eq!(m.mirror_upstream_day.get(), 1);
    assert_eq!(
        m.mirror_lag_days.get(),
        0,
        "converged right after the refresh"
    );
    assert_eq!(m.mirror_full_resyncs.get(), 0);

    // The origin restarts onto a fresh generation (empty delta log,
    // day jump): no delta bridges the gap. While the full body cannot
    // be fetched the refresh fails, says how far behind the mirror now
    // is rather than claim convergence, and day 1 keeps serving.
    origin_engine.replace_atlas(Arc::new(ring_atlas(RING, 5)));
    let down = ModelError::Decode("upstream body unavailable".into());
    upstream.chunks.push_back(Step::Down(down));
    assert!(mirror_engine.update(&mut upstream).is_err());
    upstream.clear();
    assert_eq!(m.mirror_deltas_applied.get(), 1, "nothing new applied");
    assert_eq!(m.mirror_upstream_day.get(), 5);
    assert_eq!(
        m.mirror_lag_days.get(),
        4,
        "the broken chain leaves the mirror behind"
    );
    assert_eq!((mirror_engine.day(), m.mirror_full_resyncs.get()), (1, 0));

    // One refresh bridges it with a full resync, and the counters
    // record it as such.
    assert_eq!(
        mirror_engine.update(&mut upstream).expect("refresh"),
        0,
        "no delta leaves day 1 any more"
    );
    assert_eq!(m.mirror_full_resyncs.get(), 1);
    assert_eq!(m.mirror_lag_days.get(), 0, "the full swap pays the lag off");
    assert_eq!(m.mirror_upstream_day.get(), 5);
    assert_eq!(mirror_engine.day(), 5);
    assert_eq!(mirror_engine.export().tag(), origin_engine.export().tag());
    // In step again: the next refresh compares tags and fetches no body.
    let fetched = upstream.served;
    assert_eq!(mirror_engine.update(&mut upstream).expect("refresh"), 0);
    assert_eq!(
        (upstream.served.full_chunks, upstream.served.delta_chunks),
        (fetched.full_chunks, fetched.delta_chunks)
    );
    assert_eq!(m.mirror_full_resyncs.get(), 1);
    assert_eq!(m.mirror_lag_days.get(), 0);

    // The same series is what the scrape plane publishes: the server
    // fronting the mirror engine answers them in its metrics dump, and
    // its journal holds the one resync.
    let mut probe = NetClient::connect(mirror_srv.local_addr()).expect("probe connect");
    let dump = probe.metrics().expect("metrics over the wire");
    assert_eq!(dump.counter("shard0.mirror.deltas_applied"), 1);
    assert_eq!(dump.counter("shard0.mirror.full_resyncs"), 1);
    assert_eq!(dump.gauge("shard0.mirror.lag_days"), 0);
    assert_eq!(dump.gauge("shard0.mirror.upstream_day"), 5);
    assert_eq!(dump.gauge("shard0.day"), 5);
    let page = probe.events(0).expect("events");
    let resyncs: Vec<_> = page
        .events
        .iter()
        .filter(|e| e.kind == EventKind::FullResync)
        .collect();
    assert_eq!(resyncs.len(), 1, "{resyncs:?}");
    assert_eq!(resyncs[0].detail, "shard0 day=5");

    // The origin's chain rotates: it applies more chained deltas than
    // it retains while the mirror idles, so the delta leaving the
    // mirror's body is gone — and the same refresh bridges the gap with
    // one more full resync.
    let mirror_day = mirror_engine.day();
    for day in mirror_day..mirror_day + DELTA_LOG_CAP as u32 + 2 {
        origin_engine
            .apply_delta(&ring_shortcut_delta(RING, day))
            .expect("origin applies the next day's delta");
    }
    let head = origin_engine.offer(DEFAULT_CHUNK_SIZE).head();
    let chain = head.expect("the origin has a head").chain;
    assert_eq!(chain.len(), DELTA_LOG_CAP, "the chain is capped");
    let held = mirror_engine.export().tag();
    assert!(
        chain.iter().all(|link| link.base != held),
        "the delta leaving the mirror's day-{mirror_day} body rotated out of the chain"
    );
    assert_eq!(
        mirror_engine.update(&mut upstream).expect("refresh"),
        0,
        "no retained delta leaves the mirror's day"
    );
    assert_eq!(m.mirror_full_resyncs.get(), 2);
    assert_eq!(m.mirror_lag_days.get(), 0);
    assert_eq!(mirror_engine.export().tag(), origin_engine.export().tag());
    let rotated: Vec<_> = probe
        .events(page.next_seq)
        .expect("events")
        .events
        .into_iter()
        .filter(|e| e.kind == EventKind::FullResync)
        .collect();
    assert_eq!(rotated.len(), 1, "{rotated:?}");
    assert_eq!(
        rotated[0].detail,
        format!("shard0 day={}", origin_engine.day())
    );
}

/// The causal timeline of a mirror kill → restart, observed entirely
/// over the wire: a mirror's server dies, a delta lands at the origin
/// while it is dark, and the rebound server's journal shows exactly
/// the expected recovery sequence — one `generation_swap` then one
/// `delta_applied`, in seq order, with nothing lost.
#[test]
fn killed_and_restarted_mirror_journals_the_expected_recovery_sequence() {
    let origin_engine = ring_engine(RING);
    let origin = serve_one(Arc::clone(&origin_engine), ServerConfig::default());
    let mut upstream = MirrorSource::connect(origin.local_addr(), ShardId::DEFAULT)
        .expect("connect mirror to origin");
    let mirror_engine = Arc::new(
        QueryEngine::bootstrap(&mut upstream, ServiceConfig::default())
            .expect("mirror bootstraps from the origin"),
    );
    let mirror = serve_one(Arc::clone(&mirror_engine), ServerConfig::default());

    // Before the fault, the mirror's timeline holds only connection
    // lifecycle — no swaps have happened on this node.
    let mut probe = NetClient::connect(mirror.local_addr()).expect("probe connect");
    let quiet = probe.events(0).expect("events");
    assert_eq!(quiet.lost, 0);
    assert!(quiet
        .events
        .iter()
        .all(|e| matches!(e.kind, EventKind::ConnAccepted | EventKind::ConnClosed)));

    // Kill the mirror's server; the delta lands while it is dark.
    drop(probe);
    mirror.shutdown();
    drop(mirror);
    origin_engine
        .apply_delta(&ring_shortcut_delta(RING, 0))
        .expect("origin applies the delta mid-outage");

    // Restart: a fresh socket and a fresh journal over the same engine
    // (a real process restart reloads its cached atlas the same way).
    // The first refresh tick bridges the missed delta.
    let mirror = serve_one(Arc::clone(&mirror_engine), ServerConfig::default());
    assert_eq!(
        mirror_engine.update(&mut upstream).expect("refresh"),
        1,
        "the restarted mirror pulls the delta it missed"
    );

    // Over the wire, the recovery is exactly one swap of one delta.
    let mut probe = NetClient::connect(mirror.local_addr()).expect("probe reconnect");
    let page = probe.events(0).expect("events after restart");
    assert_eq!(page.lost, 0, "the fresh ring dropped nothing");
    let recovery: Vec<_> = page
        .events
        .iter()
        .filter(|e| !matches!(e.kind, EventKind::ConnAccepted | EventKind::ConnClosed))
        .collect();
    assert_eq!(recovery.len(), 2, "exactly the recovery pair: {recovery:?}");
    assert_eq!(recovery[0].kind, EventKind::GenerationSwap);
    assert_eq!(recovery[0].detail, "shard0 epoch=1 day=1");
    assert_eq!(recovery[1].kind, EventKind::DeltaApplied);
    assert_eq!(recovery[1].detail, "shard0 from=0 to=1");
    assert!(recovery[0].seq < recovery[1].seq, "causal order holds");

    // The cursor starts empty after the page: nothing is replayed.
    let tail = probe.events(page.next_seq).expect("cursor page");
    assert_eq!(tail.lost, 0);
    assert!(tail.events.is_empty());
    assert_eq!(mirror_engine.day(), 1);
}

/// An atlas bigger than `max_frame_bytes` must arrive as more chunks,
/// never as a bigger frame.
#[test]
fn oversized_atlas_fetch_is_chunked_to_the_frame_limit() {
    let limits = Limits {
        max_frame_bytes: 1024,
        ..Limits::default()
    };
    let engine = ring_engine(64);
    assert!(
        engine.export().bytes().len() > limits.max_frame_bytes as usize,
        "the test atlas must exceed one frame"
    );
    let server = serve_one(
        Arc::clone(&engine),
        ServerConfig {
            limits,
            ..ServerConfig::default()
        },
    );

    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let head = client.atlas_head().expect("head");
    assert!(
        head.chunk_size + inano_net::wire::CHUNK_WIRE_OVERHEAD <= limits.max_frame_bytes,
        "a chunk (plus framing) must fit one frame"
    );
    assert!(
        head.n_chunks() >= 2,
        "an atlas of {} bytes over {}-byte chunks must take several",
        head.full_len,
        head.chunk_size
    );

    // The standard reader path assembles it and lands on the same tag.
    let mut source = client.into_atlas_source(ShardId::DEFAULT);
    let second = QueryEngine::bootstrap(&mut source, ServiceConfig::default())
        .expect("bootstrap through many small chunks");
    assert_eq!(second.export().tag(), engine.export().tag());
    second
        .query(ring_ip(0), ring_ip(5))
        .expect("the chunked copy serves queries");
}

/// A generation swap landing between a client's head and its chunk
/// fetches must surface as a typed `VersionRaced` fault — and the
/// reader must recover by restarting at the new head.
#[test]
fn generation_swap_mid_fetch_is_a_typed_race_the_reader_survives() {
    let engine = ring_engine(RING);
    let server = serve_one(Arc::clone(&engine), ServerConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let stale = client.atlas_head().expect("head");
    engine
        .apply_delta(&ring_shortcut_delta(RING, 0))
        .expect("swap under the fetch");
    match client.fetch_chunk_on(ShardId::DEFAULT, stale.epoch_tag, 0) {
        Err(NetError::Remote(fault)) => assert_eq!(fault.code, ErrorCode::VersionRaced),
        other => panic!("want typed VersionRaced, got {other:?}"),
    }
    // Stale chunk indexes are typed too, and neither fault cost us the
    // connection.
    let fresh = client.atlas_head().expect("fresh head");
    match client.fetch_chunk_on(ShardId::DEFAULT, fresh.epoch_tag, fresh.n_chunks() + 7) {
        Err(NetError::Remote(fault)) => assert_eq!(fault.code, ErrorCode::ChunkOutOfRange),
        other => panic!("want typed ChunkOutOfRange, got {other:?}"),
    }

    // The reader's restart logic turns the race into a clean fetch of
    // the *new* generation.
    let (version, bytes, _) = read_full(&mut client.into_atlas_source(ShardId::DEFAULT))
        .expect("reader recovers from the race");
    assert_eq!(version.day, 1);
    assert_eq!(version.epoch_tag, engine.export().tag());
    assert_eq!(bytes.len() as u64, version.full_len);
}

/// A model fault crosses the wire as itself: a mirror fetching a body
/// nobody offers gets the origin's own `VersionRaced`, message and all,
/// not that text wrapped in its variant again.
#[test]
fn a_raced_fetch_over_the_wire_is_the_origins_own_error() {
    let engine = ring_engine(RING);
    let server = serve_one(Arc::clone(&engine), ServerConfig::default());
    let client = NetClient::connect(server.local_addr()).expect("connect");
    let mut mirror = client.into_atlas_source(ShardId::DEFAULT);
    let gone = !mirror.head().expect("head").epoch_tag;
    let local = engine.offer(DEFAULT_CHUNK_SIZE).fetch_chunk(gone, 0);
    assert!(
        matches!(local, Err(ModelError::VersionRaced(_))),
        "{local:?}"
    );
    assert_eq!(mirror.fetch_chunk(gone, 0).map(|_| ()), local.map(|_| ()));
}

/// A head before any delta lists no chain; fetching a chunk of a body
/// nobody offers is a typed race (re-head, refetch full), never a
/// connection loss.
#[test]
fn missing_deltas_are_none_and_their_chunks_are_typed_races() {
    let engine = ring_engine(RING);
    let server = serve_one(Arc::clone(&engine), ServerConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let head = client.atlas_head().expect("head");
    assert!(head.chain.is_empty(), "no delta yet");
    match client.fetch_chunk_on(ShardId::DEFAULT, !head.epoch_tag, 0) {
        Err(NetError::Remote(fault)) => assert_eq!(fault.code, ErrorCode::VersionRaced),
        other => panic!("want typed VersionRaced, got {other:?}"),
    }

    // After a swap the origin's head lists the delta it applied,
    // leaving the body it served before, and serves it back out
    // chunked.
    engine
        .apply_delta(&ring_shortcut_delta(RING, 0))
        .expect("swap");
    let next = client.atlas_head().expect("head");
    assert_eq!(next.chain.len(), 1);
    let link = next.chain[0];
    assert_eq!(link.base, head.epoch_tag);
    let mut bytes = Vec::new();
    for idx in 0..n_chunks(link.len, next.chunk_size) {
        let chunk = client
            .fetch_chunk_on(ShardId::DEFAULT, link.tag, idx)
            .expect("a delta chunk");
        assert!(chunk.verify());
        bytes.extend(chunk.bytes);
    }
    assert_eq!(bytes.len() as u64, link.len);
    assert_eq!(content_tag(&bytes), link.tag);
    let delta = AtlasDelta::decode(&bytes).expect("the delta decodes");
    assert_eq!((delta.from_day, delta.to_day), (0, 1));
    // Unknown shards fault typed on the fetch frames like everywhere.
    match client.atlas_head_on(ShardId(9)) {
        Err(NetError::Remote(fault)) => assert_eq!(fault.code, ErrorCode::UnknownShard),
        other => panic!("want typed UnknownShard, got {other:?}"),
    }
    client.ping().expect("connection survives all of it");
}

/// A delta replaced between two of its chunks: the origin replaces its
/// atlas (which empties its chain) and applies a different delta
/// leaving the same body. The follower names the body it fetches by its
/// tag, so the rest of the old body is a typed race: it restarts onto
/// the new delta instead of splicing the two, and lands where the
/// origin did.
#[test]
fn a_delta_replaced_mid_fetch_is_a_clean_restart() {
    // 16-byte chunks: the day 0 → 1 delta takes two or more.
    let limits = Limits {
        max_frame_bytes: 32,
        ..Limits::default()
    };
    let origin_engine = ring_engine(RING);
    let origin = serve_one(
        Arc::clone(&origin_engine),
        ServerConfig {
            limits,
            ..ServerConfig::default()
        },
    );
    let mut upstream = Scripted::new(
        MirrorSource::connect(origin.local_addr(), ShardId::DEFAULT)
            .expect("connect mirror to origin"),
    );
    let mirror_engine = QueryEngine::bootstrap(&mut upstream, ServiceConfig::default())
        .expect("mirror bootstraps from the origin");

    // Another day 0 → 1 delta: a 3 ↔ 9 shortcut instead of 0 ↔ 6.
    let mut other = ring_atlas(RING, 1);
    for link in [(3, 9), (9, 3)] {
        let annotation = LinkAnnotation {
            latency: Some(LatencyMs::new(0.25)),
            plane: Plane::TO_DST,
        };
        other
            .links
            .insert((ClusterId::new(link.0), ClusterId::new(link.1)), annotation);
    }
    let second = AtlasDelta::between(&ring_atlas(RING, 0), &other);
    origin_engine
        .apply_delta(&ring_shortcut_delta(RING, 0))
        .expect("origin applies the first delta");
    let head = upstream.head().expect("head");
    let first = head.chain[0];
    assert!(first.len > head.chunk_size as u64, "{first:?} spans chunks");

    // Right after the first chunk the mirror fetches, the origin
    // replaces the delta.
    let origin_at = Arc::clone(&origin_engine);
    let replace = move |_: &mut MirrorSource| {
        origin_at.replace_atlas(Arc::new(ring_atlas(RING, 0)));
        origin_at
            .apply_delta(&second)
            .expect("origin applies the second delta");
    };
    upstream
        .chunks
        .extend([Step::Pass, Step::Then(Box::new(replace))]);
    assert_eq!(
        mirror_engine
            .update(&mut upstream)
            .expect("update restarts"),
        1
    );
    let m = mirror_engine.metrics();
    assert_eq!(m.mirror_races_recovered.get(), 1, "one clean restart");
    assert_eq!(m.mirror_full_resyncs.get(), 0);
    assert_eq!(mirror_engine.export().tag(), origin_engine.export().tag());

    // The mirror answers as the library does on the origin's new
    // generation.
    let generation = origin_engine.generation();
    let pairs = all_pairs();
    let want: Vec<_> = pairs
        .iter()
        .map(|&(s, d)| wire(&generation.predictor.query(s, d)))
        .collect();
    let got: Vec<_> = mirror_engine.query_batch(&pairs).iter().map(wire).collect();
    assert_bitwise("mirror after the restart", &got, &want);
}
