//! A `QueryBatch` the result cache answers whole is answered on the
//! event loop; one that owes misses is finished by a responder. Neither
//! may show on the wire: replies keep request order across the split,
//! answers stay the library's, traced replies keep their trailers and
//! faults stay typed. `srv.loop.answered` counts the loop's share.

mod common;

use common::ring::{ring_atlas, ring_ip};
use common::{assert_bitwise, serve_one, wait_for, wire};
use inano_core::{PathPredictor, PredictorConfig};
use inano_model::{ErrorCode, Ipv4};
use inano_net::wire::{read_frame, Frame, Limits, TRACE_FLAG};
use inano_net::{NetClient, NetServer, ServerConfig, UdpQuerier};
use inano_service::{QueryEngine, ServiceConfig, ShardId};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

const RING: u32 = 12;

/// A ring server with the datagram plane open and no rate limit, and
/// the library predictor over the same atlas.
fn ring_server() -> (NetServer, PathPredictor) {
    let atlas = Arc::new(ring_atlas(RING, 0));
    let engine = QueryEngine::new(Arc::clone(&atlas), ServiceConfig::default());
    let cfg = ServerConfig {
        udp: Some("127.0.0.1:0".parse().expect("literal addr")),
        udp_rate: 0,
        ..ServerConfig::default()
    };
    let library = PathPredictor::new(atlas, PredictorConfig::full());
    (serve_one(Arc::new(engine), cfg), library)
}

fn counter(server: &NetServer, name: &str) -> u64 {
    server.metrics().dump().counter(name)
}

/// Every pair from a source cluster in `sources` to any other cluster.
fn pairs_from(sources: std::ops::Range<u32>) -> Vec<(Ipv4, Ipv4)> {
    sources
        .flat_map(|s| {
            (0..RING)
                .filter(move |&d| d != s)
                .map(move |d| (ring_ip(s), ring_ip(d)))
        })
        .collect()
}

fn batch(shard: ShardId, pairs: &[(Ipv4, Ipv4)]) -> Frame {
    Frame::QueryBatch {
        shard,
        pairs: pairs.to_vec(),
    }
}

#[test]
fn replies_keep_request_order_across_the_loop_and_the_responders() {
    let (server, library) = ring_server();
    let (warm, cold) = (pairs_from(0..3), pairs_from(6..9));
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.query_batch(&warm).expect("warm-up batch");
    let answered = counter(&server, "srv.loop.answered");
    let misses = counter(&server, "shard0.cache.misses");

    // One write, so the four batches behind the cold one are read while
    // a responder still owes its searches.
    let traced = 3 | TRACE_FLAG;
    let requests = [
        (1, batch(ShardId::DEFAULT, &cold)),
        (2, batch(ShardId::DEFAULT, &warm)),
        (traced, batch(ShardId::DEFAULT, &warm)),
        (4, batch(ShardId(9), &warm)),
        (5, batch(ShardId::DEFAULT, &warm)),
    ];
    let bytes: Vec<u8> = requests.iter().flat_map(|(id, f)| f.encode(*id)).collect();
    let raw = TcpStream::connect(server.local_addr()).expect("connect");
    (&raw).write_all(&bytes).expect("pipeline writes");
    let mut reader = BufReader::new(&raw);
    let limits = Limits::default();
    let mut next = || {
        read_frame(&mut reader, &limits)
            .expect("reply readable")
            .expect("one reply per request")
    };

    let library_answers = |pairs: &[(Ipv4, Ipv4)]| -> Vec<_> {
        pairs
            .iter()
            .map(|&(s, d)| wire(&library.query(s, d)))
            .collect()
    };
    for (id, frame) in &requests {
        let (got_id, reply) = next();
        assert_eq!(got_id, *id, "replies come back in request order");
        match (frame, reply) {
            (Frame::QueryBatch { shard, .. }, Frame::Error { fault }) if shard.0 == 9 => {
                assert_eq!(fault.code, ErrorCode::UnknownShard);
            }
            (Frame::QueryBatch { pairs, .. }, Frame::PathBatch { results }) => {
                assert_bitwise(
                    &format!("request {id:#x}"),
                    &results,
                    &library_answers(pairs),
                );
            }
            (_, other) => panic!("request {id:#x}: unexpected reply {other:?}"),
        }
        if *id == traced {
            let (trailer_id, trailer) = next();
            assert_eq!(trailer_id, traced, "the trailer follows its reply");
            let Frame::TraceReply { timings } = trailer else {
                panic!("want the trace trailer, got {trailer:?}");
            };
            assert_eq!(timings.queue_us, 0, "a loop-answered batch never queues");
        }
    }

    // The three warm batches on shard 0 were the loop's; the cold one
    // missed every pair and was finished elsewhere.
    assert_eq!(counter(&server, "srv.loop.answered") - answered, 3);
    assert_eq!(
        counter(&server, "shard0.cache.misses") - misses,
        cold.len() as u64
    );
    assert_eq!(counter(&server, "srv.faults"), 1, "the unknown shard");
    // The connection still serves.
    (&raw)
        .write_all(&Frame::Ping.encode(6))
        .expect("ping writes");
    assert!(matches!(next(), (6, Frame::Pong)));
}

#[test]
fn a_warm_datagram_is_answered_and_sent_by_the_loop() {
    let (server, library) = ring_server();
    let mut dgram =
        UdpQuerier::connect(server.udp_addr().expect("udp bound")).expect("bind querier");
    let pairs = pairs_from(0..2);
    dgram.query_batch(&pairs).expect("cold datagram batch");
    wait_for(2, "the cold reply to count", || {
        counter(&server, "srv.udp.datagrams_out") == 1
    });
    let answered = counter(&server, "srv.loop.answered");

    let results = dgram.query_batch(&pairs).expect("warm datagram batch");
    let want: Vec<_> = pairs
        .iter()
        .map(|&(s, d)| wire(&library.query(s, d)))
        .collect();
    assert_bitwise("warm datagram", &results, &want);
    // A reply is counted after `send_to` returns: wait for it, then
    // check that neither count moved twice.
    wait_for(2, "the warm reply to count", || {
        counter(&server, "srv.udp.datagrams_out") == 2
    });
    assert_eq!(counter(&server, "srv.loop.answered"), answered + 1);
    assert_eq!(counter(&server, "srv.udp.datagrams_out"), 2);
}
