//! Integration tests for the network front end: a live server over a
//! ring-world engine, driven by real sockets.
//!
//! Covers the acceptance surface of the net subsystem: remote answers
//! equal embedded answers, pipelining preserves order and ids,
//! malformed/oversized frames come back as typed errors (never a
//! panic, never a hang), the admission gate refuses with `Overloaded`,
//! and a mid-load `apply_delta` is visible to remote clients as a new
//! epoch without a single failed query.

mod common;

use common::ring::{ring_atlas, ring_ip, ring_shortcut_delta};
use common::{raw_frame, serve_one, wait_for};
use inano_model::{ErrorCode, Ipv4};
use inano_net::wire::{read_frame, Frame, Limits, HEADER_BYTES, MAGIC, VERSION};
use inano_net::{NetClient, NetError, NetServer, ServerConfig};
use inano_obs::{EventKind, MetricValue, MetricsDump};
use inano_service::{QueryEngine, ServiceConfig, ShardId, ShardRegistry};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

fn ring_server(cfg: ServerConfig) -> NetServer {
    serve_one(ring_engine(RING), cfg)
}

/// The shard-0 engine, the way pre-sharding tests reached it.
fn engine0(server: &NetServer) -> &Arc<QueryEngine> {
    server
        .registry()
        .engine(ShardId::DEFAULT)
        .expect("shard 0 exists")
}

/// One `srv.*` counter, read from the server's own dump.
fn srv_counter(server: &NetServer, name: &str) -> u64 {
    server.metrics().dump().counter(name)
}

/// Every hosted shard's `(shard, epoch, day)`, as `ListShards` lists it.
fn generations(client: &mut NetClient) -> Vec<(u16, u64, u32)> {
    let listed = client.shards().expect("shards");
    listed.iter().map(|s| (s.shard, s.epoch, s.day)).collect()
}

/// The summed buckets of one histogram of a dump.
fn histogram_total(dump: &MetricsDump, name: &str) -> u64 {
    match dump.value(name) {
        Some(MetricValue::Histogram(buckets)) => buckets.iter().sum(),
        other => panic!("{name} should be a histogram, got {other:?}"),
    }
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

#[test]
fn remote_answers_equal_embedded_answers() {
    let server = ring_server(ServerConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping");

    let pairs = all_pairs();
    let remote = client.query_batch(&pairs).expect("batch");
    for (i, r) in remote.into_iter().enumerate() {
        let wire = r.unwrap_or_else(|f| panic!("pair {i} faulted: {f}"));
        let local = engine0(&server)
            .query(pairs[i].0, pairs[i].1)
            .expect("embedded query");
        let got = wire.into_predicted();
        assert_eq!(got.fwd_clusters, local.fwd_clusters);
        assert_eq!(got.rev_clusters, local.rev_clusters);
        assert_eq!(got.fwd_as_path, local.fwd_as_path);
        assert_eq!(got.rev_as_path, local.rev_as_path);
        assert_eq!(got.rtt.ms().to_bits(), local.rtt.ms().to_bits());
        assert_eq!(got.loss.rate().to_bits(), local.loss.rate().to_bits());
    }

    // The metrics dump flows over the wire and reflects the served
    // load — raw latency buckets included, holding exactly the served
    // queries.
    let dump = client.metrics().expect("metrics");
    let queries = dump.counter("shard0.queries");
    assert!(queries >= pairs.len() as u64);
    assert_eq!(dump.gauge("shard0.epoch"), 0);
    assert_eq!(dump.gauge("shard0.day"), 0);
    assert_eq!(histogram_total(&dump, "shard0.latency_us"), queries);

    // A single-shard server lists exactly shard 0.
    assert_eq!(generations(&mut client), [(0, 0, 0)]);
}

#[test]
fn a_cached_batch_is_one_hit_per_pair_and_keeps_its_trace_trailer() {
    // The reply to a served batch is encoded straight from the cached
    // paths; over the wire that must change nothing: every pair counts
    // one probe, the traced reply is still followed by its trailer in
    // the same buffer, and the answers are the cold ones again.
    let server = ring_server(ServerConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let pairs = all_pairs();
    let cold = client.query_batch(&pairs).expect("cold batch");
    let before = client.metrics().expect("metrics");
    assert_eq!(
        before.counter("shard0.cache.misses"),
        pairs.len() as u64,
        "every pair probed"
    );
    assert_eq!(before.counter("shard0.cache.hits"), 0);

    let request = Frame::QueryBatch {
        shard: ShardId::DEFAULT,
        pairs: pairs.clone(),
    };
    let (reply, timings) = client.call_traced(&request).expect("traced batch");
    match reply {
        Frame::PathBatch { results } => assert_eq!(results, cold),
        other => panic!("want a PathBatch, got {other:?}"),
    }
    assert!(timings.total_us() > 0, "the trailer carries the stages");

    let after = client.metrics().expect("metrics");
    assert_eq!(
        after.counter("shard0.cache.hits"),
        pairs.len() as u64,
        "one hit per pair"
    );
    assert_eq!(
        after.counter("shard0.cache.misses"),
        before.counter("shard0.cache.misses")
    );
    assert_eq!(
        after.counter("shard0.queries") - before.counter("shard0.queries"),
        pairs.len() as u64
    );
    assert_eq!(after.counter("shard0.errors"), 0);
    assert_eq!(
        histogram_total(&after, "shard0.latency_us"),
        after.counter("shard0.queries")
    );
}

#[test]
fn per_pair_failures_are_typed_not_batch_fatal() {
    let server = ring_server(ServerConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    // An address outside every ring prefix fails its pair only.
    let unroutable = Ipv4(0xf000_0001);
    let results = client
        .query_batch(&[
            (ring_ip(0), ring_ip(1)),
            (ring_ip(0), unroutable),
            (ring_ip(1), ring_ip(2)),
        ])
        .expect("batch itself succeeds");
    assert!(results[0].is_ok());
    assert_eq!(
        results[1].as_ref().unwrap_err().code,
        ErrorCode::UnroutableAddress
    );
    assert!(results[2].is_ok());
}

#[test]
fn pipelined_requests_come_back_in_order_with_matching_ids() {
    let server = ring_server(ServerConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let pairs = all_pairs();
    let chunks: Vec<&[(Ipv4, Ipv4)]> = pairs.chunks(7).collect();
    let ids: Vec<u64> = chunks
        .iter()
        .map(|c| client.submit_batch(c).expect("submit"))
        .collect();
    for (k, &id) in ids.iter().enumerate() {
        let (got_id, frame) = client.recv().expect("reply");
        assert_eq!(got_id, id, "replies arrive in request order");
        match frame {
            Frame::PathBatch { results } => {
                assert_eq!(results.len(), chunks[k].len());
                assert!(results.iter().all(|r| r.is_ok()));
            }
            other => panic!("want PathBatch, got {other:?}"),
        }
    }
}

#[test]
fn bad_magic_gets_a_typed_error_then_close() {
    let server = ring_server(ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
    let reply = read_frame(&mut raw, &Limits::default())
        .expect("server answers before closing")
        .expect("one frame");
    match reply.1 {
        Frame::Error { fault } => assert_eq!(fault.code, ErrorCode::BadMagic),
        other => panic!("want error frame, got {other:?}"),
    }
    // ... and then the connection is closed on the server's side.
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty());
}

#[test]
fn bad_version_gets_a_typed_error_then_close() {
    let server = ring_server(ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    let mut bytes = Frame::Ping.encode(1);
    bytes[4] = VERSION + 9;
    raw.write_all(&bytes).expect("write");
    let (_, reply) = read_frame(&mut raw, &Limits::default())
        .expect("answered")
        .expect("one frame");
    match reply {
        Frame::Error { fault } => assert_eq!(fault.code, ErrorCode::BadVersion),
        other => panic!("want error frame, got {other:?}"),
    }
}

/// One version, over a live socket: a header stamped with any earlier
/// version (or a later one) is a fatal `BadVersion` — answered once,
/// then closed — and the retired `Stats` frame type is just an unknown
/// byte: a per-frame fault on a connection that keeps serving.
#[test]
fn other_versions_are_fatal_and_the_retired_stats_type_is_an_unknown_frame() {
    let server = ring_server(ServerConfig::default());
    for other in [3u8, 4, 5, 6, 7, 9] {
        assert_ne!(other, VERSION);
        let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
        let mut bytes = Frame::Ping.encode(7);
        bytes[4] = other;
        raw.write_all(&bytes).expect("write ping");
        let (id, reply) = read_frame(&mut raw, &Limits::default())
            .expect("answered")
            .expect("one frame");
        assert_eq!(id, 0, "a fatal fault cannot trust the header's id");
        match reply {
            Frame::Error { fault } => assert_eq!(fault.code, ErrorCode::BadVersion, "v{other}"),
            other => panic!("want error frame, got {other:?}"),
        }
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).expect("closed after the fault");
        assert!(rest.is_empty());
    }

    let faults_before = srv_counter(&server, "srv.faults");
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    // What a v5 `Stats { shard: 0 }` request was, restamped.
    let mut bytes = Frame::AtlasHead {
        shard: ShardId::DEFAULT,
    }
    .encode(8);
    bytes[5] = 0x04;
    raw.write_all(&bytes).expect("write retired frame");
    raw.write_all(&Frame::Ping.encode(9)).expect("write ping");
    let (id, reply) = read_frame(&mut raw, &Limits::default())
        .expect("answered")
        .expect("one frame");
    assert_eq!(id, 8, "a per-frame fault echoes the request id");
    match reply {
        Frame::Error { fault } => assert_eq!(fault.code, ErrorCode::UnknownFrame),
        other => panic!("want error frame, got {other:?}"),
    }
    let (id, reply) = read_frame(&mut raw, &Limits::default())
        .expect("answered")
        .expect("one frame");
    assert_eq!(id, 9);
    assert!(matches!(reply, Frame::Pong), "the connection keeps serving");
    assert_eq!(srv_counter(&server, "srv.faults"), faults_before + 1);
}

/// The event journal over the wire: the server's own admission shows
/// up on the timeline, seqs never reorder, and the `since_seq` cursor
/// pages losslessly — a second request picks up exactly what happened
/// after the first.
#[test]
fn events_flow_over_the_wire_with_lossless_cursor_paging() {
    let server = ring_server(ServerConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping");

    let page = client.events(0).expect("events");
    assert_eq!(page.lost, 0);
    assert!(
        page.events
            .iter()
            .any(|e| e.kind == EventKind::ConnAccepted),
        "our own admission is on the timeline"
    );
    assert!(
        page.events.windows(2).all(|w| w[0].seq < w[1].seq),
        "a page is strictly seq-ordered"
    );

    // A swap lands between pages; the cursor returns exactly the new
    // events, nothing replayed, nothing dropped.
    engine0(&server)
        .apply_delta(&ring_shortcut_delta(RING, 0))
        .expect("swap");
    let next = client.events(page.next_seq).expect("second page");
    assert_eq!(next.lost, 0);
    assert!(next.events.iter().all(|e| e.seq >= page.next_seq));
    let kinds: Vec<EventKind> = next.events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::GenerationSwap));
    assert!(kinds.contains(&EventKind::DeltaApplied));

    // The scrape plane can see the journal's head without an Events
    // request: the `srv.events_head` gauge.
    let dump = client.metrics().expect("metrics");
    assert!(dump.gauge("srv.events_head") >= next.next_seq);
}

#[test]
fn oversized_declared_frame_is_refused_without_reading_it() {
    let limits = Limits {
        max_frame_bytes: 1024,
        max_batch: 64,
    };
    let server = ring_server(ServerConfig {
        max_conns: 4,
        limits,
        ..ServerConfig::default()
    });
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    // A header declaring a 16MB payload we never send: the server must
    // answer from the header alone instead of trying to buffer it.
    let mut header = Vec::new();
    header.extend_from_slice(&MAGIC.to_be_bytes());
    header.push(VERSION);
    header.push(0x02); // QueryBatch
    header.extend_from_slice(&77u64.to_be_bytes());
    header.extend_from_slice(&(16u32 << 20).to_be_bytes());
    assert_eq!(header.len(), HEADER_BYTES);
    raw.write_all(&header).expect("write");
    let (_, reply) = read_frame(&mut raw, &Limits::default())
        .expect("answered")
        .expect("one frame");
    match reply {
        Frame::Error { fault } => assert_eq!(fault.code, ErrorCode::FrameTooLarge),
        other => panic!("want error frame, got {other:?}"),
    }
}

#[test]
fn over_limit_batch_faults_but_the_connection_survives() {
    let limits = Limits {
        max_frame_bytes: 1 << 20,
        max_batch: 8,
    };
    let server = ring_server(ServerConfig {
        max_conns: 4,
        limits,
        ..ServerConfig::default()
    });
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let too_many = vec![(ring_ip(0), ring_ip(1)); 9];
    match client.query_batch(&too_many) {
        Err(NetError::Remote(fault)) => assert_eq!(fault.code, ErrorCode::BatchTooLarge),
        other => panic!("want typed remote fault, got {other:?}"),
    }
    // Same connection, pipelining intact: the next request works.
    client.ping().expect("connection survives a batch fault");
    let ok = client
        .query_batch(&[(ring_ip(0), ring_ip(1))])
        .expect("small batch");
    assert!(ok[0].is_ok());
    assert!(srv_counter(&server, "srv.faults") >= 1);
}

#[test]
fn reply_direction_frames_are_rejected_as_requests() {
    let server = ring_server(ServerConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    match client.call(&Frame::Pong) {
        Err(NetError::Remote(fault)) => assert_eq!(fault.code, ErrorCode::UnexpectedFrame),
        other => panic!("want typed remote fault, got {other:?}"),
    }
    client.ping().expect("connection survives");
}

/// A reply-typed frame sent *to* a server is refused from its type
/// byte. The payload is never parsed — garbage earns `UnexpectedFrame`,
/// not `Malformed` — and never charged to the request-memory budget,
/// and the stream stays aligned and in order around it.
#[test]
fn a_reply_typed_frame_is_refused_from_its_type_byte_unparsed_and_uncharged() {
    let server = ring_server(ServerConfig::default());
    let faults_before = srv_counter(&server, "srv.faults");
    let raw = TcpStream::connect(server.local_addr()).expect("connect");
    let next = |want_id: u64| {
        let (id, reply) = read_frame(&mut &raw, &Limits::default())
            .expect("answered")
            .expect("one frame");
        assert_eq!(id, want_id, "replies keep request order");
        reply
    };
    let refused = |reply: Frame| match reply {
        Frame::Error { fault } => assert_eq!(fault.code, ErrorCode::UnexpectedFrame, "{fault}"),
        other => panic!("want error frame, got {other:?}"),
    };

    // A `MetricsReply` (0x8B) whose 64 KiB payload is noise, between
    // two pings, written in one go.
    let mut bytes = Frame::Ping.encode(1);
    bytes.extend(raw_frame(0x8B, 2, &vec![0xFF; 64 << 10]));
    bytes.extend(Frame::Ping.encode(3));
    (&raw).write_all(&bytes).expect("write three frames");
    assert!(matches!(next(1), Frame::Pong));
    refused(next(2));
    assert!(matches!(next(3), Frame::Pong), "the stream stayed aligned");

    // A well-formed ~1 MiB `ChunkReply` parses, so a server that decoded
    // before refusing would hold its megabyte against the budget.
    let peak = || server.metrics().dump().gauge("srv.request_bytes_peak");
    let peak_before = peak();
    let chunk = Frame::ChunkReply {
        idx: 0,
        crc: 0,
        bytes: vec![7; (1 << 20) - 16],
    };
    (&raw).write_all(&chunk.encode(4)).expect("write the chunk");
    refused(next(4));
    assert_eq!(peak(), peak_before, "a refused frame claims no budget");
    assert_eq!(srv_counter(&server, "srv.faults"), faults_before + 2);
}

#[test]
fn admission_gate_refuses_with_overloaded() {
    let server = ring_server(ServerConfig {
        max_conns: 2,
        limits: Limits::default(),
        ..ServerConfig::default()
    });
    let mut a = NetClient::connect(server.local_addr()).expect("first");
    let mut b = NetClient::connect(server.local_addr()).expect("second");
    a.ping().expect("first served");
    b.ping().expect("second served");

    // The third connection must be answered with Overloaded and closed.
    let mut raw = TcpStream::connect(server.local_addr()).expect("third connects at TCP level");
    let (_, reply) = read_frame(&mut raw, &Limits::default())
        .expect("gate answers")
        .expect("one frame");
    match reply {
        Frame::Error { fault } => assert_eq!(fault.code, ErrorCode::Overloaded),
        other => panic!("want error frame, got {other:?}"),
    }
    assert_eq!(srv_counter(&server, "srv.rejected"), 1);

    // The same refusal is observable through NetClient as a typed
    // frame (request id 0), so callers can implement backoff on the
    // code. recv() rather than ping(): the gate closes right after
    // writing, and a request racing the close could die to an RST
    // before the refusal is read.
    let mut refused = NetClient::connect(server.local_addr()).expect("TCP connect succeeds");
    match refused.recv() {
        Ok((0, Frame::Error { fault })) => assert_eq!(fault.code, ErrorCode::Overloaded),
        other => panic!("want typed Overloaded through NetClient, got {other:?}"),
    }

    // Dropping one admitted client frees a slot.
    drop(a);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut admitted = None;
    while std::time::Instant::now() < deadline {
        let mut c = match NetClient::connect(server.local_addr()) {
            Ok(c) => c,
            Err(_) => continue,
        };
        if c.ping().is_ok() {
            admitted = Some(c);
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
    admitted.expect("slot frees after a client disconnects");
    b.ping().expect("existing client unaffected");
}

#[test]
fn swap_under_remote_load_is_lossless_and_bumps_the_epoch() {
    let server = Arc::new(ring_server(ServerConfig::default()));
    let far = RING / 2;

    {
        let mut probe = NetClient::connect(server.local_addr()).expect("connect");
        assert_eq!(generations(&mut probe), [(0, 0, 0)]);
        let before = probe
            .query_batch(&[(ring_ip(0), ring_ip(far))])
            .expect("pre-swap query")[0]
            .clone()
            .expect("routable");
        assert_eq!(
            before.fwd_clusters.len(),
            far as usize + 1,
            "pre-swap: the long way around"
        );
    }

    const HAMMERS: u64 = 3;
    let stop = Arc::new(AtomicBool::new(false));
    let answered = Arc::new(AtomicU64::new(0));
    let hammers: Vec<_> = (0..HAMMERS)
        .map(|_| {
            let server = Arc::clone(&server);
            let (stop, answered) = (Arc::clone(&stop), Arc::clone(&answered));
            thread::spawn(move || {
                let mut client = NetClient::connect(server.local_addr()).expect("connect");
                let pairs = all_pairs();
                while !stop.load(Ordering::Relaxed) {
                    for r in client.query_batch(&pairs).expect("batch keeps working") {
                        r.expect("no pair may fail across the swap");
                    }
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    let at_swap = swap_under(&answered, HAMMERS, || {
        let day = engine0(&server)
            .apply_delta(&ring_shortcut_delta(RING, 0))
            .expect("delta applies");
        assert_eq!(day, 1);
    });
    stop.store(true, Ordering::Relaxed);
    hammers.into_iter().for_each(|h| h.join().unwrap());
    assert!(at_swap > 0 && answered.load(Ordering::Relaxed) > at_swap + HAMMERS);

    // Remote clients see the new generation: epoch bumped, and the
    // day-1 shortcut is the served route.
    let mut probe = NetClient::connect(server.local_addr()).expect("connect");
    assert_eq!(generations(&mut probe), [(0, 1, 1)]);
    let after = probe
        .query_batch(&[(ring_ip(0), ring_ip(far))])
        .expect("post-swap query")[0]
        .clone()
        .expect("routable");
    assert_eq!(after.fwd_clusters.len(), 2, "post-swap: the shortcut");
    let dump = probe.metrics().expect("metrics");
    assert_eq!(dump.counter("shard0.swaps"), 1);
    assert_eq!(dump.counter("shard0.errors"), 0);
}

/// Run `swap` once a batch has been answered, then wait until one was
/// asked and answered after it: more than `hammers` batches since, so
/// some hammer sent one after the swap. The count at the swap.
fn swap_under(answered: &AtomicU64, hammers: u64, swap: impl FnOnce()) -> u64 {
    let batches = || answered.load(Ordering::Relaxed);
    wait_for(30, "a batch answered before the swap", || batches() > 0);
    swap();
    let at_swap = batches();
    wait_for(30, "a batch asked and answered after the swap", || {
        batches() > at_swap + hammers
    });
    at_swap
}

fn two_shard_server(rings: [u32; 2], cfg: ServerConfig) -> NetServer {
    let registry = ShardRegistry::from_engines(vec![
        (ShardId(0), ring_engine(rings[0])),
        (ShardId(1), ring_engine(rings[1])),
    ])
    .expect("two-shard registry");
    NetServer::bind("127.0.0.1:0", Arc::new(registry), cfg).expect("bind ephemeral port")
}

#[test]
fn shards_route_independently_behind_one_listener() {
    // Same addresses, different worlds: ring 12 on shard 0, ring 8 on
    // shard 1 — so the same query must come back with shard-specific
    // routes, which proves frames reach the shard they name.
    let server = two_shard_server([12, 8], ServerConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    assert_eq!(generations(&mut client), [(0, 0, 0), (1, 0, 0)]);

    let pair = [(ring_ip(0), ring_ip(6))];
    // Ring 12: 0 -> 6 is 6 hops either way around.
    let on_0 = client.query_batch(&pair).expect("shard 0 batch")[0]
        .clone()
        .expect("routable")
        .into_predicted();
    assert_eq!(on_0.fwd_clusters.len(), 7);
    // Ring 8: 0 -> 6 is 2 hops going backwards.
    let on_1 = client
        .query_batch_on(ShardId(1), &pair)
        .expect("shard 1 batch")[0]
        .clone()
        .expect("routable")
        .into_predicted();
    assert_eq!(on_1.fwd_clusters.len(), 3);

    // Per-shard series see per-shard load only.
    let dump = client.metrics().expect("metrics");
    assert_eq!(dump.counter("shard0.queries"), 1);
    assert_eq!(dump.counter("shard1.queries"), 1);
}

#[test]
fn unknown_shard_gets_a_typed_error_and_the_connection_survives() {
    let server = ring_server(ServerConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let missing = ShardId(7);

    fn assert_unknown_shard<T: std::fmt::Debug>(r: Result<T, NetError>) {
        match r {
            Err(NetError::Remote(fault)) => assert_eq!(fault.code, ErrorCode::UnknownShard),
            other => panic!("want typed UnknownShard, got {other:?}"),
        }
    }
    assert_unknown_shard(client.query_batch_on(missing, &[(ring_ip(0), ring_ip(1))]));
    assert_unknown_shard(client.atlas_head_on(missing));
    assert_unknown_shard(client.fetch_chunk_on(missing, 0, 0));

    // Three per-frame faults, zero connection losses.
    client.ping().expect("connection survives unknown shards");
    assert!(client
        .query_batch(&[(ring_ip(0), ring_ip(1))])
        .expect("shard 0 still serves")[0]
        .is_ok());
    assert_eq!(srv_counter(&server, "srv.faults"), 3);
}

#[test]
fn swap_on_one_shard_is_lossless_and_invisible_on_the_other() {
    let server = Arc::new(two_shard_server([RING, RING], ServerConfig::default()));
    let far = RING / 2;

    // Hammer both shards while the delta lands on shard 0 only; each
    // shard's hammers count their own answered batches.
    const HAMMERS: u64 = 2;
    let stop = Arc::new(AtomicBool::new(false));
    let answered = [Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0))];
    let hammers: Vec<_> = [ShardId(0), ShardId(1), ShardId(0), ShardId(1)]
        .into_iter()
        .map(|shard| {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let answered = Arc::clone(&answered[usize::from(shard.0)]);
            thread::spawn(move || {
                let mut client = NetClient::connect(server.local_addr()).expect("connect");
                let pairs = all_pairs();
                while !stop.load(Ordering::Relaxed) {
                    for r in client
                        .query_batch_on(shard, &pairs)
                        .expect("batch keeps working")
                    {
                        r.expect("no pair may fail on either shard across the swap");
                    }
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Shard 1's hammers run across the swap too.
    let shard1 = || answered[1].load(Ordering::Relaxed);
    wait_for(30, "shard 1 answering before the swap", || shard1() > 0);
    let at_swap = swap_under(&answered[0], HAMMERS, || {
        let day = server
            .registry()
            .apply_delta(ShardId(0), &ring_shortcut_delta(RING, 0))
            .expect("delta applies");
        assert_eq!(day, 1);
    });
    let shard1_at_swap = shard1();
    wait_for(30, "shard 1 answering after the swap", || {
        shard1() > shard1_at_swap + HAMMERS
    });
    stop.store(true, Ordering::Relaxed);
    hammers.into_iter().for_each(|h| h.join().unwrap());
    assert!(at_swap > 0 && answered[0].load(Ordering::Relaxed) > at_swap + HAMMERS);
    assert!(shard1_at_swap > 0 && shard1() > shard1_at_swap + HAMMERS);

    let mut probe = NetClient::connect(server.local_addr()).expect("connect");
    assert_eq!(
        generations(&mut probe),
        [(0, 1, 1), (1, 0, 0)],
        "shard 1 must not see shard 0's delta"
    );
    let pair = [(ring_ip(0), ring_ip(far))];
    let on_0 = probe.query_batch(&pair).expect("batch")[0]
        .clone()
        .expect("routable")
        .into_predicted();
    assert_eq!(on_0.fwd_clusters.len(), 2, "shard 0 serves the shortcut");
    let on_1 = probe.query_batch_on(ShardId(1), &pair).expect("batch")[0]
        .clone()
        .expect("routable")
        .into_predicted();
    assert_eq!(
        on_1.fwd_clusters.len(),
        far as usize + 1,
        "shard 1 still serves the long way around"
    );
    let dump = probe.metrics().expect("metrics");
    for (shard, swaps) in [("shard0", 1), ("shard1", 0)] {
        assert_eq!(dump.counter(&format!("{shard}.swaps")), swaps, "{shard}");
        assert_eq!(dump.counter(&format!("{shard}.errors")), 0, "{shard}");
    }
}

#[test]
fn hostile_pipeliner_gets_typed_overloaded_not_unbounded_queueing() {
    // A tiny in-flight cap and a client that floods 64 large batches
    // without reading a byte: the responder's replies (~½ MB each)
    // overrun the socket buffers and block it, the reader hits the
    // cap, and every excess request must come back as a typed
    // Overloaded error — in request order, on a connection that then
    // keeps serving — and the journal records each run of rejections as
    // one overload episode.
    let server = ring_server(ServerConfig {
        max_conns: 4,
        max_inflight: 2,
        ..ServerConfig::default()
    });
    let raw = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = std::io::BufReader::new(raw.try_clone().expect("clone"));
    let mut write_half = raw.try_clone().expect("clone");

    const FLOOD: u64 = 64;
    let batch = Frame::QueryBatch {
        shard: ShardId::DEFAULT,
        pairs: vec![(ring_ip(0), ring_ip(6)); Limits::default().max_batch as usize],
    };
    let writer = thread::spawn(move || {
        for id in 1..=FLOOD {
            write_half
                .write_all(&batch.encode(id))
                .expect("flood writes complete");
        }
    });

    // Give the flood time to pile up against a reply path nobody is
    // draining, then read everything back.
    thread::sleep(Duration::from_millis(200));
    let reply_limits = Limits {
        max_frame_bytes: 32 << 20,
        max_batch: Limits::default().max_batch,
    };
    let mut served = 0u64;
    let mut overloaded = 0u64;
    for want_id in 1..=FLOOD {
        let (id, frame) = read_frame(&mut reader, &reply_limits)
            .expect("reply readable")
            .expect("one reply per request");
        assert_eq!(id, want_id, "replies (rejections included) stay in order");
        match frame {
            Frame::PathBatch { results } => {
                assert!(results.iter().all(|r| r.is_ok()));
                served += 1;
            }
            Frame::Error { fault } => {
                assert_eq!(fault.code, ErrorCode::Overloaded);
                overloaded += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    writer.join().expect("writer");
    assert_eq!(served + overloaded, FLOOD);
    assert!(served >= 1, "the in-flight window is still served");
    assert!(
        overloaded >= 1,
        "a flood beyond the cap must see typed rejections"
    );
    assert_eq!(srv_counter(&server, "srv.overloaded"), overloaded);

    // The connection is intact: a burst of pings in one write lands in
    // one read, so past the cap they are shed back to back...
    const BURST: u64 = 16;
    let burst: Vec<u8> = (1..=BURST)
        .flat_map(|k| Frame::Ping.encode(FLOOD + k))
        .collect();
    let mut write_half = raw.try_clone().expect("clone");
    write_half.write_all(&burst).expect("burst writes");
    for k in 1..=BURST {
        let (id, frame) = read_frame(&mut reader, &reply_limits)
            .expect("burst reply readable")
            .expect("one reply per ping");
        assert_eq!(id, FLOOD + k);
        match frame {
            Frame::Pong => {}
            Frame::Error { fault } => assert_eq!(fault.code, ErrorCode::Overloaded),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    // ...and one more request, served normally.
    write_half
        .write_all(&Frame::Ping.encode(FLOOD + BURST + 1))
        .expect("ping writes");
    let (id, frame) = read_frame(&mut reader, &reply_limits)
        .expect("pong readable")
        .expect("pong");
    assert_eq!(id, FLOOD + BURST + 1);
    assert!(matches!(frame, Frame::Pong));

    // The journal tells the same story as episodes: a shed opens one
    // (edge-triggered, not one event per rejection), a served request
    // closes it, and the Pong above closed the last.
    let episodes: Vec<_> = server
        .journal()
        .since(0)
        .events
        .into_iter()
        .filter(|e| matches!(e.kind, EventKind::OverloadStart | EventKind::OverloadEnd))
        .collect();
    assert_eq!(
        episodes.first().map(|e| (e.kind, e.detail.as_str())),
        Some((
            EventKind::OverloadStart,
            "per-connection in-flight request limit reached"
        )),
        "{episodes:?}"
    );
    for (i, e) in episodes.iter().enumerate() {
        let want = [EventKind::OverloadStart, EventKind::OverloadEnd][i % 2];
        assert_eq!(e.kind, want, "episodes alternate start/end: {episodes:?}");
    }
    assert_eq!(
        episodes.last().map(|e| e.kind),
        Some(EventKind::OverloadEnd),
        "the served Pong closed the last episode: {episodes:?}"
    );
    let starts = episodes
        .iter()
        .filter(|e| e.kind == EventKind::OverloadStart)
        .count() as u64;
    let shed = srv_counter(&server, "srv.overloaded");
    assert!(starts <= shed, "{starts} episodes from {shed} sheds");
}

#[test]
fn shared_request_budget_rejects_typed_across_many_connections() {
    // A server-wide request-memory budget barely bigger than one large
    // batch, and several connections flooding large batches without
    // reading a byte: replies back up, queued requests pile against
    // the *shared* budget, and the excess must come back as typed
    // Overloaded errors — per request, in order, with every connection
    // still serving afterwards and zero protocol faults. This is the
    // cross-connection bound the per-connection in-flight cap cannot
    // give: each connection here stays far under `max_inflight`.
    let batch_pairs = Limits::default().max_batch as usize;
    let server = ring_server(ServerConfig {
        max_conns: 8,
        max_inflight: 64,
        // ~1.5 large batches' worth of pair bytes.
        max_request_bytes: batch_pairs * 8 * 3 / 2,
        ..ServerConfig::default()
    });

    const CONNS: usize = 4;
    const FLOOD: u64 = 8;
    let batch = Frame::QueryBatch {
        shard: ShardId::DEFAULT,
        pairs: vec![(ring_ip(0), ring_ip(6)); batch_pairs],
    };
    let conns: Vec<TcpStream> = (0..CONNS)
        .map(|_| TcpStream::connect(server.local_addr()).expect("connect"))
        .collect();
    let writers: Vec<_> = conns
        .iter()
        .map(|c| {
            let mut w = c.try_clone().expect("clone");
            let batch = batch.clone();
            thread::spawn(move || {
                for id in 1..=FLOOD {
                    w.write_all(&batch.encode(id)).expect("flood writes");
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }
    // Let the floods pile up against responders nobody is draining.
    thread::sleep(Duration::from_millis(200));

    let reply_limits = Limits {
        max_frame_bytes: 32 << 20,
        max_batch: Limits::default().max_batch,
    };
    let mut served = 0u64;
    let mut overloaded = 0u64;
    for raw in &conns {
        let mut reader = std::io::BufReader::new(raw.try_clone().expect("clone"));
        for want_id in 1..=FLOOD {
            let (id, frame) = read_frame(&mut reader, &reply_limits)
                .expect("reply readable")
                .expect("one reply per request");
            assert_eq!(id, want_id, "rejections stay in request order");
            match frame {
                Frame::PathBatch { results } => {
                    assert!(results.iter().all(|r| r.is_ok()));
                    served += 1;
                }
                Frame::Error { fault } => {
                    assert_eq!(fault.code, ErrorCode::Overloaded);
                    overloaded += 1;
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        // Once its backlog drains, every connection still serves.
        raw.try_clone()
            .expect("clone")
            .write_all(&Frame::Ping.encode(FLOOD + 1))
            .expect("ping writes");
        let (id, frame) = read_frame(&mut reader, &reply_limits)
            .expect("pong readable")
            .expect("pong");
        assert_eq!(id, FLOOD + 1);
        assert!(matches!(frame, Frame::Pong));
    }
    assert_eq!(served + overloaded, CONNS as u64 * FLOOD);
    assert!(served >= 1, "within-budget requests are served");
    assert!(
        overloaded >= 1,
        "a flood beyond the shared budget must see typed rejections"
    );
    let dump = server.metrics().dump();
    assert_eq!(dump.counter("srv.overloaded"), overloaded);
    assert_eq!(dump.counter("srv.faults"), 0, "throttling is not a fault");
}

#[test]
fn call_surfaces_connection_level_faults_as_typed_remote_errors() {
    use inano_net::WireFault;
    use std::net::TcpListener;
    // A fake server that answers any request with a connection-level
    // fault: an Error frame carrying request id 0, the way NetServer
    // answers fatal framing errors and admission refusals.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let fake = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        // Consume the request fully so the later close is a clean FIN.
        read_frame(&mut &stream, &Limits::default())
            .expect("request decodes")
            .expect("one frame");
        let frame = Frame::Error {
            fault: WireFault::new(ErrorCode::ShuttingDown, "going away"),
        };
        stream.write_all(&frame.encode(0)).expect("write fault");
    });
    let mut client = NetClient::connect(addr).expect("connect");
    match client.ping() {
        Err(NetError::Remote(fault)) => assert_eq!(fault.code, ErrorCode::ShuttingDown),
        other => panic!("want typed remote fault, got {other:?}"),
    }
    fake.join().unwrap();
}

#[test]
fn io_timeout_bounds_both_read_and_write_against_a_wedged_upstream() {
    use std::net::TcpListener;
    use std::time::Instant;
    // A wedged upstream: accepts and then neither reads nor writes —
    // the half-dead peer the `--mirror` refresh loop must never block
    // on forever. `set_io_timeout` has to bound *both* directions: a
    // one-sided timeout would still hang on whichever syscall it
    // missed.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let wedged = thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        // Hold the socket open, dead silent, until the test is done.
        thread::sleep(Duration::from_secs(30));
        drop(stream);
    });

    let mut client = NetClient::connect(addr).expect("connect");
    client
        .set_io_timeout(Some(Duration::from_millis(200)))
        .expect("set timeout");

    // Read path: a ping's write fits the socket buffer, so the stall
    // is in awaiting the reply.
    let t0 = Instant::now();
    assert!(client.ping().is_err(), "no reply can come");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "read timed out in bounded time, not {:?}",
        t0.elapsed()
    );

    // Write path: the peer never drains, so large submits eventually
    // fill both kernel buffers and block in write(2) — the write
    // timeout must surface that as an error, promptly.
    let mut client = NetClient::connect(addr).expect("reconnect");
    client
        .set_io_timeout(Some(Duration::from_millis(200)))
        .expect("set timeout");
    let big: Vec<(Ipv4, Ipv4)> = vec![(ring_ip(0), ring_ip(1)); 16_384];
    let t0 = Instant::now();
    let mut wedged_write = false;
    for _ in 0..256 {
        if client.submit_batch(&big).is_err() {
            wedged_write = true;
            break;
        }
    }
    assert!(wedged_write, "kernel buffers are finite; write must fail");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "write timed out in bounded time, not {:?}",
        t0.elapsed()
    );
    drop(client);
    drop(wedged); // detached: it sleeps out its 30s harmlessly
}

#[test]
fn server_shutdown_is_clean_and_idempotent() {
    let server = ring_server(ServerConfig::default());
    let addr = server.local_addr();
    let mut client = NetClient::connect(addr).expect("connect");
    client.ping().expect("served");
    server.shutdown();
    server.shutdown(); // idempotent
                       // The old connection is gone...
    assert!(client.ping().is_err());
    // ...and nobody listens anymore (a refused connect or an
    // immediately-dead socket are both acceptable outcomes).
    if let Ok(mut c) = NetClient::connect(addr) {
        assert!(c.ping().is_err());
    }
}
