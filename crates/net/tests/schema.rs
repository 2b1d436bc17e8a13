//! The metrics schema, checked against a live server: the name set of a
//! dump equals DESIGN.md's naming table exactly, and the two ways to
//! read a server — `NetServer::metrics().dump()` in process and the
//! wire `Metrics` frame — show the same entries once the server is
//! quiet.

mod common;

use common::ring::{ring_atlas, ring_ip, ring_shortcut_delta};
use common::serve_one;
use inano_net::{MirrorSource, NetClient, NetServer, ServerConfig, UdpQuerier};
use inano_obs::{MetricValue, MetricsDump};
use inano_service::{QueryEngine, ServiceConfig, ShardId, ShardRegistry};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const RING: u32 = 12;

/// Series a read moves by being made: serving a `Metrics` frame wakes
/// the loop, and the request holds its budget claim while the dump is
/// taken. They are compared for presence and kind, not for value.
const MOVED_BY_THE_READ: [&str; 3] = [
    "srv.loop.wakeups",
    "srv.loop.ready_events",
    "srv.request_bytes",
];

fn kind_of(value: &MetricValue) -> &'static str {
    match value {
        MetricValue::Counter(_) => "counter",
        MetricValue::Gauge(_) => "gauge",
        MetricValue::Histogram(_) => "histogram",
    }
}

/// `name -> kind` from DESIGN.md's naming table, `shardN.` rows
/// expanded for every id in `shards`.
fn documented_schema(shards: &[ShardId]) -> BTreeMap<String, String> {
    let design = include_str!("../../../DESIGN.md");
    let table = design
        .split("<!-- metrics-schema:begin -->")
        .nth(1)
        .and_then(|rest| rest.split("<!-- metrics-schema:end -->").next())
        .expect("DESIGN.md carries the metrics-schema markers");
    let mut schema = BTreeMap::new();
    for row in table.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let (name, kind) = (cells[1].trim_matches('`'), cells[2]);
        match name.strip_prefix("shardN.") {
            Some(series) => {
                for id in shards {
                    schema.insert(format!("{id}.{series}"), kind.to_string());
                }
            }
            None => {
                schema.insert(name.to_string(), kind.to_string());
            }
        }
    }
    schema
}

/// Dump until two successive dumps agree: nothing is moving any more.
fn quiesced_dump(server: &NetServer) -> MetricsDump {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = server.metrics().dump();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = server.metrics().dump();
        if now == last {
            return now;
        }
        assert!(Instant::now() < deadline, "the server never went quiet");
        last = now;
    }
}

#[test]
fn dump_matches_the_documented_schema_and_every_view_of_it() {
    // An origin for shard 1 to mirror, over the wire.
    let origin_engine = Arc::new(QueryEngine::new(
        Arc::new(ring_atlas(RING, 0)),
        ServiceConfig::default(),
    ));
    let origin = serve_one(Arc::clone(&origin_engine), ServerConfig::default());
    let mut upstream =
        MirrorSource::connect(origin.local_addr(), ShardId::DEFAULT).expect("mirror source");

    // The server under test: shard 0 local, shard 1 wire-fed, both
    // transports bound.
    let local = Arc::new(QueryEngine::new(
        Arc::new(ring_atlas(RING, 0)),
        ServiceConfig::default(),
    ));
    let mirrored = Arc::new(
        QueryEngine::bootstrap(&mut upstream, ServiceConfig::default())
            .expect("bootstrap over the wire"),
    );
    let registry = Arc::new(
        ShardRegistry::from_engines(vec![(ShardId(0), local), (ShardId(1), mirrored)])
            .expect("two-shard registry"),
    );
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig {
            udp: Some("127.0.0.1:0".parse().expect("literal addr")),
            ..ServerConfig::default()
        },
    )
    .expect("bind server");

    // Traffic on both shards and both transports, a resolve error, and
    // one delta travelling origin -> shard 1.
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let pairs: Vec<_> = (0..RING)
        .map(|i| (ring_ip(i), ring_ip((i + 3) % RING)))
        .collect();
    for shard in [ShardId(0), ShardId(1)] {
        for _ in 0..2 {
            let results = client.query_batch_on(shard, &pairs).expect("batch");
            assert!(results.iter().all(|r| r.is_ok()));
        }
    }
    let unroutable = inano_model::Ipv4(0xfe00_0001);
    let results = client
        .query_batch(&[(unroutable, ring_ip(1))])
        .expect("batch with an unroutable source");
    assert!(results[0].is_err());
    let mut dgram = UdpQuerier::connect(server.udp_addr().expect("udp bound")).expect("querier");
    dgram.ping().expect("datagram ping");
    dgram.query_batch(&pairs[..4]).expect("datagram batch");
    origin_engine
        .apply_delta(&ring_shortcut_delta(RING, 0))
        .expect("origin applies the delta");
    assert_eq!(
        registry
            .engine(ShardId(1))
            .and_then(|shard| shard.update(&mut upstream))
            .expect("shard 1 follows its upstream"),
        1
    );

    // (1) The wire view first (it is the one read that moves things),
    // then the in-process view of the quiet server.
    let wire = client.metrics().expect("metrics over the wire");
    let dump = quiesced_dump(&server);

    // (2) Names and kinds are exactly the documented table.
    let documented = documented_schema(&registry.shard_ids());
    let live: BTreeMap<String, String> = dump
        .entries
        .iter()
        .map(|(name, value)| (name.clone(), kind_of(value).to_string()))
        .collect();
    assert_eq!(live, documented, "dump vs DESIGN.md naming table");
    assert!(live.contains_key("shard1.cache.bypass"));
    assert_eq!(dump.counter("shard1.mirror.deltas_applied"), 1);
    assert_eq!(dump.gauge("shard1.day"), 1);
    assert_eq!(dump.counter("shard0.errors"), 1);

    // (3) The wire dump is the same object: same names and kinds, same
    // values except where making the read moved them.
    assert_eq!(wire.entries.len(), dump.entries.len());
    for ((name, got), (want_name, want)) in wire.entries.iter().zip(&dump.entries) {
        assert_eq!(name, want_name);
        assert_eq!(kind_of(got), kind_of(want), "{name}");
        if !MOVED_BY_THE_READ.contains(&name.as_str()) {
            assert_eq!(got, want, "{name}: wire vs in-process");
        }
    }

    // (4) A second server over the same registry attaches the same
    // handles to its own registry: both export the engines live.
    let second = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig::default(),
    )
    .expect("bind a second server over the registry");
    let mut via_second = NetClient::connect(second.local_addr()).expect("connect");
    via_second
        .query_batch_on(ShardId(1), &pairs[..1])
        .expect("batch through the second server");
    let (first_view, second_view) = (server.metrics().dump(), second.metrics().dump());
    for (name, value) in &first_view.entries {
        if name.starts_with("shard") {
            assert_eq!(second_view.value(name), Some(value), "{name}");
        }
    }
    assert_eq!(
        first_view.counter("shard1.queries"),
        dump.counter("shard1.queries") + 1
    );
}
