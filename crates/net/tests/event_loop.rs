//! Integration tests for the event-driven server internals the wire
//! semantics don't expose: the per-connection write-backlog bound and
//! dispatch fairness under a slow consumer, idle connections riding
//! alongside live traffic in one loop, and the `srv.loop.*` metrics
//! surfacing over the wire.

mod common;

use common::{serve_one, wait_for};
use inano_model::Ipv4;
use inano_net::demo::{ring_atlas, ring_ip, ring_predictor_config};
use inano_net::wire::{read_frame, Frame, Limits};
use inano_net::{NetClient, NetServer, ServerConfig};
use inano_obs::MetricValue;
use inano_service::{QueryEngine, ServiceConfig, ShardId};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const RING: u32 = 12;

fn ring_server(cfg: ServerConfig) -> NetServer {
    let engine = Arc::new(QueryEngine::new(
        Arc::new(ring_atlas(RING, 0)),
        ServiceConfig {
            predictor: ring_predictor_config(),
            ..ServiceConfig::default()
        },
    ));
    serve_one(engine, cfg)
}

/// Read one `srv.*` series out of the server's metrics dump.
fn metric(server: &NetServer, name: &str) -> Option<MetricValue> {
    server
        .metrics()
        .dump()
        .entries
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
}

fn gauge(server: &NetServer, name: &str) -> u64 {
    match metric(server, name) {
        Some(MetricValue::Gauge(v)) => v,
        other => panic!("{name} should be a gauge, got {other:?}"),
    }
}

fn counter(server: &NetServer, name: &str) -> u64 {
    match metric(server, name) {
        Some(MetricValue::Counter(v)) => v,
        other => panic!("{name} should be a counter, got {other:?}"),
    }
}

#[test]
fn slow_consumer_backlog_is_bounded_and_other_connections_stay_served() {
    // One connection floods max-size batches and reads nothing. Its
    // ~½MB replies can't all fit in socket buffers, so they queue on
    // the server — but only up to the write-backlog cap (2× the frame
    // limit): past it the loop stops dispatching that connection's
    // requests, and the backlog gauge must stay bounded no matter how
    // long the client sulks. Meanwhile a second connection must keep
    // getting served — one gorged peer can't starve the loop.
    let server = ring_server(ServerConfig::default());
    let glutton = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = glutton.try_clone().expect("clone");

    const FLOOD: u64 = 40;
    let batch = Frame::QueryBatch {
        shard: ShardId::DEFAULT,
        pairs: vec![(ring_ip(0), ring_ip(6)); Limits::default().max_batch as usize],
    };
    for id in 1..=FLOOD {
        // Requests are ~32KB each — under the inflight cap and the
        // budget, so every one is read and queued, never rejected.
        writer.write_all(&batch.encode(id)).expect("flood writes");
    }

    // The gate engages once queued replies pass the cap; with ~½MB
    // replies that takes a handful of completions.
    let cap = (Limits::default().max_frame_bytes as u64) * 2;
    wait_for(DEADLINE_SECS, "the write-backlog gate to engage", || {
        gauge(&server, "srv.loop.write_backlog_bytes") > cap / 2
    });

    // Sample the gauge while the client keeps not reading: it may
    // overshoot the cap by at most the one reply in flight when the
    // gate closed (plus what the socket buffers later hand back).
    let bound = cap + Limits::default().max_frame_bytes as u64;
    for _ in 0..30 {
        let backlog = gauge(&server, "srv.loop.write_backlog_bytes");
        assert!(
            backlog <= bound,
            "write backlog {backlog} exceeded its bound {bound}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Fairness: a polite second connection is served while the
    // glutton's service is gated.
    let mut polite = NetClient::connect(server.local_addr()).expect("connect");
    polite.ping().expect("ping while glutton is gated");
    let results = polite
        .query_batch(&[(ring_ip(1), ring_ip(5))])
        .expect("query while glutton is gated");
    assert!(results[0].is_ok());

    // The glutton finally reads: every reply arrives, in request
    // order, all served (nothing was rejected — the flood sat below
    // the inflight cap; the gate stalls service, it sheds nothing).
    let mut reader = std::io::BufReader::new(glutton.try_clone().expect("clone"));
    let reply_limits = Limits {
        max_frame_bytes: 32 << 20,
        max_batch: Limits::default().max_batch,
    };
    for want_id in 1..=FLOOD {
        let (id, frame) = read_frame(&mut reader, &reply_limits)
            .expect("reply readable")
            .expect("one reply per request");
        assert_eq!(id, want_id, "replies stay in request order across the gate");
        match frame {
            Frame::PathBatch { results } => assert!(results.iter().all(|r| r.is_ok())),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(counter(&server, "srv.overloaded"), 0);
    assert_eq!(counter(&server, "srv.faults"), 0);

    // Drained: the backlog gauge returns to zero.
    wait_for(DEADLINE_SECS, "the backlog to drain", || {
        gauge(&server, "srv.loop.write_backlog_bytes") == 0
    });
}

/// How long any one wait in this file may take.
const DEADLINE_SECS: u64 = 20;

#[test]
fn idle_connections_ride_along_with_live_traffic() {
    // Thousands of connections that never send a byte — the §5 reality
    // that most of a mirror's peers are idle most of the time — must
    // cost the loop nothing but their registrations, and live traffic
    // through the same loop keeps its answers. 5,000 peers where the
    // descriptor limit allows; both socket ends live in this process,
    // so half of what the limit leaves, and never fewer than 400.
    let limit = polling::raise_nofile_limit(2 * 5_000 + 256);
    let idle = (limit.saturating_sub(256) as usize / 2).clamp(400, 5_000);
    let server = ring_server(ServerConfig {
        max_conns: idle + 16,
        ..ServerConfig::default()
    });
    let active = server.metrics().gauge("srv.active");
    let idles: Vec<TcpStream> = (0..idle)
        .map(|i| {
            // Stay inside the listen backlog (128 if the server could
            // not widen it): a dropped SYN is a one-second stall.
            wait_for(DEADLINE_SECS, "the loop to keep up with connects", || {
                i < active.get() as usize + 100
            });
            TcpStream::connect(server.local_addr())
                .unwrap_or_else(|e| panic!("idle connect {i} of {idle}: {e}"))
        })
        .collect();
    wait_for(DEADLINE_SECS, "all idle connections to be accepted", || {
        active.get() >= idle as u64
    });

    // Live traffic answers normally through the crowd, each batch
    // inside the deadline.
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client
        .set_io_timeout(Some(Duration::from_secs(DEADLINE_SECS)))
        .expect("bound the live client's I/O");
    let pairs: Vec<(Ipv4, Ipv4)> = (0..RING - 1)
        .map(|i| (ring_ip(i), ring_ip(i + 1)))
        .collect();
    for _ in 0..5 {
        let results = client.query_batch(&pairs).expect("batch among idles");
        assert!(results.iter().all(|r| r.is_ok()));
    }

    // The loop's descriptor gauge tracks the crowd: every connection
    // plus the listener and the notify pipe.
    assert_eq!(
        gauge(&server, "srv.loop.fds"),
        gauge(&server, "srv.active") + 2
    );
    assert_eq!(counter(&server, "srv.accepted"), idle as u64 + 1);
    assert_eq!(counter(&server, "srv.rejected"), 0);
    assert_eq!(counter(&server, "srv.accept_retries"), 0);

    // Mass disconnect: the loop reaps every idle registration.
    drop(idles);
    wait_for(DEADLINE_SECS, "idle connections to be reaped", || {
        gauge(&server, "srv.active") == 1
    });
    assert_eq!(gauge(&server, "srv.loop.fds"), 3);
    client
        .ping()
        .expect("survivor still served after the reaping");
}

#[test]
fn loop_metrics_are_visible_over_the_wire() {
    // The event loop's own series travel the same path as everything
    // else: the wire `Metrics` frame. A client sees wakeups counting,
    // descriptors gauged, the ready-events histogram populated, and
    // the accept-retry counter present (and zero on a healthy server).
    let server = ring_server(ServerConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping");
    let dump = client.metrics().expect("metrics over the wire");
    let find = |name: &str| {
        dump.entries
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing from wire dump"))
            .1
            .clone()
    };
    match find("srv.loop.wakeups") {
        MetricValue::Counter(n) => assert!(n > 0, "the loop must have woken to serve this"),
        other => panic!("srv.loop.wakeups should be a counter, got {other:?}"),
    }
    match find("srv.loop.fds") {
        // This one connection, the listener, the notify pipe.
        MetricValue::Gauge(n) => assert_eq!(n, 3),
        other => panic!("srv.loop.fds should be a gauge, got {other:?}"),
    }
    match find("srv.loop.write_backlog_bytes") {
        MetricValue::Gauge(_) => {}
        other => panic!("srv.loop.write_backlog_bytes should be a gauge, got {other:?}"),
    }
    match find("srv.accept_retries") {
        MetricValue::Counter(n) => assert_eq!(n, 0, "healthy server never retried accept"),
        other => panic!("srv.accept_retries should be a counter, got {other:?}"),
    }
    match find("srv.loop.ready_events") {
        MetricValue::Histogram(buckets) => {
            assert!(
                buckets.iter().sum::<u64>() > 0,
                "every wake records its ready-event count"
            );
        }
        other => panic!("srv.loop.ready_events should be a histogram, got {other:?}"),
    }
}
