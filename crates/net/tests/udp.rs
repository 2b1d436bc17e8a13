//! Integration tests for the datagram plane: a live server with
//! `--udp` enabled, driven by real UDP sockets.
//!
//! Covers the transport's whole contract: datagram answers equal
//! stream answers, stream-only frames get a typed `NotOnDatagram`,
//! internet noise is dropped silently (and counted) without
//! disturbing the plane, oversized replies downgrade to a typed
//! `FrameTooLarge`, the per-source token bucket sheds with a typed
//! `Overloaded` and then goes silent, late/duplicate replies are
//! discarded by the client, blind resends are idempotent, and — the
//! acceptance bar — a client recovers end to end through injected
//! packet loss in both directions.

mod common;

use common::ring::{ring_atlas, ring_ip, ring_shortcut_delta};
use common::{raw_frame, serve_one, wait_for};
use inano_model::{ErrorCode, Ipv4};
use inano_net::wire::{decode_datagram, Frame, Limits};
use inano_net::{NetClient, NetError, NetServer, ServerConfig, UdpQuerier, UdpRetry};
use inano_service::{QueryEngine, ServiceConfig, ShardId, DELTA_LOG_CAP};
use std::net::UdpSocket;
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

/// A ring-world server with the datagram plane open. Rate limit off
/// unless a test turns it on — every test client shares 127.0.0.1.
fn udp_server(cfg: ServerConfig) -> NetServer {
    let cfg = ServerConfig {
        udp: Some("127.0.0.1:0".parse().expect("literal addr")),
        ..cfg
    };
    serve_one(ring_engine(RING), cfg)
}

fn no_rate() -> ServerConfig {
    ServerConfig {
        udp_rate: 0,
        ..ServerConfig::default()
    }
}

fn udp_counter(server: &NetServer, name: &str) -> u64 {
    match server
        .metrics()
        .dump()
        .entries
        .into_iter()
        .find(|(n, _)| n == name)
    {
        Some((_, inano_obs::MetricValue::Counter(v))) => v,
        other => panic!("{name} missing from dump: {other:?}"),
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
fn datagram_answers_equal_stream_answers() {
    let server = udp_server(no_rate());
    let udp_addr = server.udp_addr().expect("udp plane enabled");
    let mut dgram = UdpQuerier::connect(udp_addr).expect("bind querier");
    let mut stream = NetClient::connect(server.local_addr()).expect("connect");

    dgram.ping().expect("datagram ping");

    // The whole single-shot subset, answer for answer.
    let pairs = all_pairs();
    let via_udp = dgram.query_batch(&pairs).expect("datagram batch");
    let via_tcp = stream.query_batch(&pairs).expect("stream batch");
    assert_eq!(via_udp, via_tcp);

    assert_eq!(
        dgram.resolve(ring_ip(3)).expect("datagram resolve"),
        stream.resolve(ring_ip(3)).expect("stream resolve")
    );
    assert_eq!(
        dgram.epoch().expect("datagram epoch"),
        stream.epoch().expect("stream epoch")
    );
    assert_eq!(
        dgram.atlas_head().expect("datagram head"),
        stream.atlas_head().expect("stream head")
    );
    // Both transports' batches landed on the one shard engine.
    assert_eq!(
        udp_counter(&server, "shard0.queries"),
        2 * pairs.len() as u64
    );

    // Shard addressing works on datagrams too.
    let (epoch, day) = dgram.epoch_on(ShardId::DEFAULT).expect("epoch on shard 0");
    assert_eq!((epoch, day), (0, 0));
    // ...and a shard the server does not host faults typed.
    match dgram.epoch_on(ShardId(9)) {
        Err(NetError::Remote(fault)) => assert_eq!(fault.code, ErrorCode::UnknownShard),
        other => panic!("want UnknownShard, got {other:?}"),
    }

    assert_eq!(dgram.resends(), 0, "loopback needed no retries");
    assert_eq!(dgram.stale_replies(), 0);
    let n_in = udp_counter(&server, "srv.udp.datagrams_in");
    assert!(n_in >= 7, "plane counted its datagrams: {n_in}");
    // A reply is counted after `send_to` returns, so the last one can
    // be in this test's hands before its count lands.
    wait_for(2, "every admitted request to count one reply", || {
        udp_counter(&server, "srv.udp.datagrams_out") == n_in
    });
}

#[test]
fn stream_only_frames_get_a_typed_not_on_datagram() {
    let server = udp_server(no_rate());
    let udp_addr = server.udp_addr().expect("udp plane enabled");
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
    sock.connect(udp_addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    // Multi-frame exchanges need the stream transport; a datagram
    // carrying one gets a typed refusal, echoing the request id.
    let stream_only = [
        Frame::ListShards,
        Frame::Metrics,
        Frame::Events { since_seq: 0 },
        Frame::FetchChunk {
            shard: ShardId::DEFAULT,
            tag: 1,
            idx: 0,
        },
    ];
    let mut buf = [0u8; 2048];
    for (i, frame) in stream_only.iter().enumerate() {
        let id = 100 + i as u64;
        sock.send(&frame.encode(id)).expect("send");
        let n = sock.recv(&mut buf).expect("a typed reply comes back");
        let (got_id, reply) =
            decode_datagram(&buf[..n], &Limits::default()).expect("reply decodes");
        assert_eq!(got_id, id);
        match reply {
            Frame::Error { fault } => {
                assert_eq!(fault.code, ErrorCode::NotOnDatagram, "frame {frame:?}");
            }
            other => panic!("want NotOnDatagram for {frame:?}, got {other:?}"),
        }
    }

    // The refusals did not poison the plane.
    let mut q = UdpQuerier::connect(udp_addr).expect("bind querier");
    q.ping().expect("plane still answers");
}

/// A head lists the chain of deltas leading to it; at the most an
/// engine retains, it is still one datagram under the default limits,
/// not a `FrameTooLarge` that sends the client to the stream.
#[test]
fn an_atlas_head_with_a_full_chain_is_one_datagram() {
    let engine = ring_engine(RING);
    for day in 0..DELTA_LOG_CAP as u32 + 1 {
        engine
            .apply_delta(&ring_shortcut_delta(RING, day))
            .expect("the next day's delta applies");
    }
    let cfg = ServerConfig {
        udp: Some("127.0.0.1:0".parse().expect("literal addr")),
        udp_rate: 0,
        limits: Limits::default(),
        ..ServerConfig::default()
    };
    let server = serve_one(Arc::clone(&engine), cfg);
    let mut q = UdpQuerier::connect(server.udp_addr().expect("udp plane enabled")).expect("bind");
    let head = q.atlas_head().expect("the head fits one datagram");
    assert_eq!(head.chain.len(), DELTA_LOG_CAP);
    assert_eq!(head.epoch_tag, engine.export().tag());
    assert_eq!(head.day, DELTA_LOG_CAP as u32 + 1);
}

/// The datagram plane decides what a frame is for from its type byte,
/// before (and whether or not) the payload parses.
#[test]
fn a_datagrams_type_byte_decides_its_refusal_whatever_the_payload_holds() {
    let server = udp_server(no_rate());
    let udp_addr = server.udp_addr().expect("udp plane enabled");
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
    sock.connect(udp_addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut buf = [0u8; 2048];
    let noise = [0xFF; 33];
    for (id, frame_type, want) in [
        // `Metrics` is stream-only; its payload is empty when honest.
        (51, 0x0B, ErrorCode::NotOnDatagram),
        // A reply type is no request on any transport.
        (52, 0x8B, ErrorCode::UnexpectedFrame),
        // An unassigned (retired) byte has no role to refuse by.
        (53, 0x04, ErrorCode::UnknownFrame),
        // A servable type is parsed, and noise does not parse.
        (54, 0x05, ErrorCode::Malformed),
    ] {
        sock.send(&raw_frame(frame_type, id, &noise)).expect("send");
        let n = sock.recv(&mut buf).expect("a typed reply comes back");
        let (got_id, reply) =
            decode_datagram(&buf[..n], &Limits::default()).expect("reply decodes");
        assert_eq!(got_id, id);
        match reply {
            Frame::Error { fault } => assert_eq!(fault.code, want, "type {frame_type:#04x}"),
            other => panic!("want an error for type {frame_type:#04x}, got {other:?}"),
        }
    }

    // Five bytes end exactly where the type byte would sit: no header,
    // no role, no reply — counted, and the loop lives on.
    sock.send(&Frame::Ping.encode(55)[..5]).expect("send");
    wait_for(5, "the headerless datagram to be counted", || {
        udp_counter(&server, "srv.udp.truncated") == 1
    });
    let mut q = UdpQuerier::connect(udp_addr).expect("bind querier");
    q.ping().expect("plane still answers");
}

#[test]
fn garbage_datagrams_are_dropped_counted_and_harmless() {
    let server = udp_server(no_rate());
    let udp_addr = server.udp_addr().expect("udp plane enabled");
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
    sock.connect(udp_addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_millis(200)))
        .expect("timeout");

    // Noise: short fragments, wrong magic, any version but the
    // current one (those this protocol once accepted, and the
    // next). None of it is attributable, so none of it may draw a
    // reply — answering would make the server a reflection amplifier.
    let ping = Frame::Ping.encode(7);
    let restamped = |version: u8| {
        let mut bytes = ping.clone();
        bytes[4] = version;
        bytes
    };
    let mut bad_magic = ping.clone();
    bad_magic[0] ^= 0xff;
    let mut noise: Vec<Vec<u8>> = vec![vec![], b"hi".to_vec(), ping[..10].to_vec(), bad_magic];
    noise.extend([1, 3, 4, 5, 6, 7, 9].map(restamped));
    for bytes in &noise {
        sock.send(bytes).expect("send noise");
    }
    let mut buf = [0u8; 256];
    assert!(
        sock.recv(&mut buf).is_err(),
        "garbage datagrams must draw no reply"
    );

    // Counted (the empty datagram included), and the plane still
    // serves a well-formed request afterwards.
    let dropped = udp_counter(&server, "srv.udp.truncated");
    assert_eq!(dropped, noise.len() as u64, "every noise datagram counted");
    let mut q = UdpQuerier::connect(udp_addr).expect("bind querier");
    q.ping().expect("plane still answers");
}

#[test]
fn oversize_replies_downgrade_to_a_typed_fault() {
    // A 256-byte frame limit admits a hefty QueryBatch request, but
    // the PathBatch *reply* for it will not fit the datagram cap —
    // the server must answer with a typed FrameTooLarge instead of a
    // truncated or dropped reply.
    let server = udp_server(ServerConfig {
        limits: Limits {
            max_frame_bytes: 256,
            max_batch: 1024,
        },
        ..no_rate()
    });
    let udp_addr = server.udp_addr().expect("udp plane enabled");
    let mut q = UdpQuerier::connect(udp_addr).expect("bind querier");
    let pairs: Vec<(Ipv4, Ipv4)> = (0..24)
        .map(|i| (ring_ip(i % RING), ring_ip((i + 1) % RING)))
        .collect();
    match q.query_batch(&pairs) {
        Err(NetError::Remote(fault)) => {
            assert_eq!(fault.code, ErrorCode::FrameTooLarge);
            assert!(
                fault.message.contains("datagram"),
                "the fault explains the transport: {}",
                fault.message
            );
        }
        other => panic!("want a typed FrameTooLarge, got {other:?}"),
    }
    assert_eq!(udp_counter(&server, "srv.udp.oversize_reply"), 1);

    // A reply that fits still flows on the same socket.
    let one = q.query_batch(&pairs[..1]).expect("small batch fits");
    assert!(one[0].is_ok());
}

#[test]
fn per_source_bucket_sheds_typed_then_goes_silent() {
    // rate 1/s, burst 1: the first datagram is admitted, the second
    // lands in the shed band (typed Overloaded), the third is beyond
    // -burst and gets silence.
    let server = udp_server(ServerConfig {
        udp_rate: 1,
        udp_burst: 1,
        ..ServerConfig::default()
    });
    let udp_addr = server.udp_addr().expect("udp plane enabled");
    let mut q = UdpQuerier::connect(udp_addr).expect("bind querier");
    q.set_retry(UdpRetry {
        timeout: Duration::from_millis(100),
        max_timeout: Duration::from_millis(100),
        attempts: 1,
    });

    q.ping().expect("first datagram admitted");
    match q.ping() {
        Err(NetError::Remote(fault)) => assert_eq!(fault.code, ErrorCode::Overloaded),
        other => panic!("want typed Overloaded shed, got {other:?}"),
    }
    // Keep hammering: within a few more datagrams the balance is past
    // -burst and the source gets silence instead of typed sheds.
    let mut silenced = false;
    for _ in 0..4 {
        match q.ping() {
            Err(NetError::Remote(fault)) => assert_eq!(fault.code, ErrorCode::Overloaded),
            Err(NetError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::TimedOut);
                silenced = true;
                break;
            }
            other => panic!("want shed or silence, got {other:?}"),
        }
    }
    assert!(silenced, "a flooding source must eventually get silence");
    assert!(udp_counter(&server, "srv.udp.shed") >= 2);

    // The bucket refills — from the bottom of the shed band, so a
    // flood digs a hole that takes several refill seconds to climb
    // out of (tokens ≈ -2 after the silence above, +1/s).
    thread::sleep(Duration::from_millis(3300));
    q.ping().expect("refilled bucket admits again");
}

#[test]
fn late_and_duplicate_replies_are_discarded() {
    // A fake "server" that precedes every real answer with garbage:
    // an id-mismatched reply (a late answer to some earlier attempt)
    // and an exact duplicate of the previous answer.
    let fake = UdpSocket::bind("127.0.0.1:0").expect("bind fake server");
    let fake_addr = fake.local_addr().expect("addr");
    let server = thread::spawn(move || {
        let mut buf = [0u8; 2048];
        let mut last_reply: Option<Vec<u8>> = None;
        for _ in 0..2 {
            let (n, peer) = fake.recv_from(&mut buf).expect("request");
            let (id, frame) =
                decode_datagram(&buf[..n], &Limits::default()).expect("request decodes");
            assert!(matches!(frame, Frame::Ping));
            // A reply nobody asked for (wrong id)...
            fake.send_to(&Frame::Pong.encode(id ^ 0xdead), peer)
                .expect("send mismatched");
            // ...a duplicate of the previous exchange's reply...
            if let Some(dup) = &last_reply {
                fake.send_to(dup, peer).expect("send duplicate");
            }
            // ...and finally the real answer.
            let reply = Frame::Pong.encode(id);
            fake.send_to(&reply, peer).expect("send real");
            last_reply = Some(reply);
        }
    });

    let mut q = UdpQuerier::connect(fake_addr).expect("bind querier");
    q.ping().expect("first call survives the mismatched reply");
    q.ping()
        .expect("second call survives mismatch plus duplicate");
    server.join().expect("fake server");
    // Call one discarded 1 mismatch; call two discarded 1 mismatch +
    // 1 duplicate.
    assert_eq!(q.stale_replies(), 3);
    assert_eq!(q.resends(), 0, "discards must not trigger resends");
}

#[test]
fn blind_resends_are_idempotent() {
    // The retry story only works because resending the identical
    // datagram is safe: fire the same encoded request twice at a real
    // server and both answers must decode identical.
    let server = udp_server(no_rate());
    let udp_addr = server.udp_addr().expect("udp plane enabled");
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
    sock.connect(udp_addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    let request = Frame::QueryBatch {
        shard: ShardId::DEFAULT,
        pairs: vec![(ring_ip(0), ring_ip(5)), (ring_ip(3), ring_ip(9))],
    }
    .encode(42);
    sock.send(&request).expect("first send");
    sock.send(&request).expect("retry-storm send");

    let mut buf = [0u8; 4096];
    let n1 = sock.recv(&mut buf).expect("first reply");
    let first = decode_datagram(&buf[..n1], &Limits::default()).expect("decodes");
    let n2 = sock.recv(&mut buf).expect("second reply");
    let second = decode_datagram(&buf[..n2], &Limits::default()).expect("decodes");
    assert_eq!(first.0, 42);
    assert_eq!(first, second, "identical requests, identical answers");
    match first.1 {
        Frame::PathBatch { results } => assert!(results.iter().all(|r| r.is_ok())),
        other => panic!("want PathBatch, got {other:?}"),
    }
}

/// The acceptance bar: a lossy path — first request datagram eaten,
/// first reply datagram eaten — and the client still gets its answer
/// through capped-backoff resends.
#[test]
fn retry_recovers_through_packet_loss_in_both_directions() {
    let server = udp_server(no_rate());
    let udp_addr = server.udp_addr().expect("udp plane enabled");

    // The relay: what the client believes is the server. Drops the
    // first inbound request and the first outbound reply it sees,
    // then forwards faithfully.
    let relay = UdpSocket::bind("127.0.0.1:0").expect("bind relay");
    let relay_addr = relay.local_addr().expect("relay addr");
    let relay_thread = thread::spawn(move || {
        let upstream = UdpSocket::bind("127.0.0.1:0").expect("bind upstream leg");
        upstream.connect(udp_addr).expect("connect upstream");
        upstream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        relay
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut buf = [0u8; 4096];
        let mut requests_seen = 0u32;
        let mut replies_seen = 0u32;
        loop {
            let (n, client) = match relay.recv_from(&mut buf) {
                Ok(x) => x,
                Err(_) => return, // client done, test over
            };
            requests_seen += 1;
            if requests_seen == 1 {
                continue; // the void eats the first request
            }
            upstream.send(&buf[..n]).expect("forward request");
            let n = upstream.recv(&mut buf).expect("server answers");
            replies_seen += 1;
            if replies_seen == 1 {
                continue; // ...and the first reply
            }
            relay.send_to(&buf[..n], client).expect("forward reply");
        }
    });

    let mut q = UdpQuerier::connect(relay_addr).expect("bind querier");
    q.set_retry(UdpRetry {
        timeout: Duration::from_millis(150),
        max_timeout: Duration::from_millis(600),
        attempts: 5,
    });
    let results = q
        .query_batch(&[(ring_ip(1), ring_ip(7))])
        .expect("the answer made it through the loss");
    assert!(results[0].is_ok());
    assert!(
        q.resends() >= 2,
        "recovery took resends (one per eaten datagram), saw {}",
        q.resends()
    );
    drop(q); // relay's recv_from times out and the thread exits
    relay_thread.join().expect("relay");
}
