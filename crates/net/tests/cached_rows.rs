//! An answer's `PathBatch` row is written the first time it is encoded
//! and copied after (`encode_path_batch`); a copied row must be the
//! fresh encoding, in every state the result cache passes through.
//!
//! One batch — routed pairs, pairs the search cannot route, pairs with a
//! homeless prefix and pairs with an address outside every range — is
//! encoded cold (every row written), warm (rows copied), warm again,
//! after a daily delta (a new generation, new rows) and after other
//! batches evicted it, each time byte for byte equal to the `Frame`
//! encoding of what the library answers on the served generation. Then
//! the same holds on the wire: replies the event loop answers from
//! cached rows, over TCP and over UDP, decode bit-equal to
//! `PathPredictor::query`, before and after a swap.

mod common;

use common::ring::{ring_atlas, ring_ip};
use common::{assert_bitwise, serve_one, wait_for, wire};
use inano_atlas::{Atlas, AtlasDelta, LinkAnnotation, Plane};
use inano_core::{PathPredictor, PredictorConfig};
use inano_model::{Asn, ClusterId, Ipv4, LatencyMs, ModelError, Prefix, PrefixId};
use inano_net::wire::{encode_path_batch, Frame};
use inano_net::{NetClient, NetServer, ServerConfig, UdpQuerier};
use inano_service::{QueryEngine, ServiceConfig};
use std::sync::Arc;

const RING: u32 = 12;
/// Prefix id and /16 of a prefix on a cluster no link touches: it
/// resolves, but no search routes to it.
const ISLAND: u32 = 100;
/// Prefix id and /16 of a prefix with no cluster: resolving it fails.
const HOMELESS: u32 = 101;
/// An address no prefix covers.
const NOWHERE: Ipv4 = Ipv4(0xff00_0007);

/// The ring stamped `day`, with the island and the homeless prefix, and
/// on day 1 a 0 ↔ `RING / 2` shortcut that moves the answers across it.
fn atlas(day: u32) -> Atlas {
    let mut a = ring_atlas(RING, day);
    let island = RING + 8;
    a.cluster_as
        .insert(ClusterId::new(island), Asn::new(island));
    a.prefix_cluster
        .insert(PrefixId::new(ISLAND), ClusterId::new(island));
    for (id, asn) in [(ISLAND, island), (HOMELESS, HOMELESS)] {
        a.prefix_as.insert(
            PrefixId::new(id),
            (Prefix::new(Ipv4(id << 16), 16), Asn::new(asn)),
        );
    }
    if day > 0 {
        for (x, y) in [(0, RING / 2), (RING / 2, 0)] {
            a.links.insert(
                (ClusterId::new(x), ClusterId::new(y)),
                LinkAnnotation {
                    latency: Some(LatencyMs::new(0.5)),
                    plane: Plane::TO_DST,
                },
            );
        }
    }
    a
}

fn island_ip() -> Ipv4 {
    Ipv4(ISLAND << 16 | 7)
}

fn homeless_ip() -> Ipv4 {
    Ipv4(HOMELESS << 16 | 7)
}

/// Routed pairs (one across the day-1 shortcut), repeats, and a pair of
/// every failing kind.
fn mixed_batch() -> Vec<(Ipv4, Ipv4)> {
    let r = ring_ip;
    vec![
        (r(0), r(RING / 2)),
        (r(1), r(4)),
        (r(3), island_ip()),
        (r(5), r(2)),
        (homeless_ip(), r(2)),
        (r(0), r(RING / 2)),
        (r(7), NOWHERE),
        (r(1), r(4)),
        (island_ip(), r(9)),
    ]
}

/// What the batch's reply must be on `predictor`'s generation: the
/// library's per-pair answers through `Frame::encode`.
fn fresh_encoding(predictor: &PathPredictor, id: u64, pairs: &[(Ipv4, Ipv4)]) -> Vec<u8> {
    Frame::PathBatch {
        results: pairs
            .iter()
            .map(|&(s, d)| wire(&predictor.query(s, d)))
            .collect(),
    }
    .encode(id)
}

#[test]
fn a_cached_row_is_the_fresh_encoding_in_every_cache_state() {
    // Two entries per shard: the batch's own keys evict one another.
    let cfg = ServiceConfig {
        cache_capacity: 8,
        cache_shards: 4,
        ..ServiceConfig::default()
    };
    let engine = QueryEngine::new(Arc::new(atlas(0)), cfg);
    let batch = mixed_batch();
    let library = PathPredictor::new(Arc::new(atlas(0)), PredictorConfig::full());
    {
        let answers = library.query_batch(&batch);
        let failed =
            |pick: fn(&ModelError) -> bool| answers.iter().any(|a| a.as_ref().is_err_and(pick));
        assert!(
            failed(|e| matches!(e, ModelError::NoPath(_))),
            "the batch holds NoPath pairs"
        );
        assert!(
            failed(|e| matches!(e, ModelError::UnroutableAddress(_))),
            "the batch holds unroutable pairs"
        );
    }
    let m = engine.metrics();
    let encode = |state: &str, id: u64| {
        let bytes = encode_path_batch(id, &engine.query_batch_shared(&batch));
        let want = fresh_encoding(&engine.generation().predictor, id, &batch);
        assert_eq!(bytes, want, "{state}: the reply is the fresh encoding");
        bytes
    };

    let cold = encode("cold", 1);
    let hits = m.cache_hits.get();
    encode("warm", 1);
    assert!(m.cache_hits.get() > hits, "the warm batch hits");
    let hits = m.cache_hits.get();
    assert_eq!(encode("warm again", 1), cold);
    assert!(m.cache_hits.get() > hits, "the warm batch hits again");

    engine
        .apply_delta(&AtlasDelta::between(&atlas(0), &atlas(1)))
        .expect("the delta applies");
    let swapped = encode("after the delta", 1);
    assert_ne!(swapped, cold, "the shortcut moves an answer");

    let evictions = m.cache_evictions.get();
    let others: Vec<_> = (0..RING)
        .flat_map(|s| {
            (0..RING)
                .filter(move |&d| d != s)
                .map(move |d| (ring_ip(s), ring_ip(d)))
        })
        .collect();
    engine.query_batch_shared(&others);
    assert!(m.cache_evictions.get() > evictions, "other batches evict");
    assert_eq!(encode("after evictions", 1), swapped);
}

/// A one-engine server over the day-0 atlas with the datagram plane
/// open and no rate limit.
fn server() -> (NetServer, Arc<QueryEngine>) {
    let engine = Arc::new(QueryEngine::new(
        Arc::new(atlas(0)),
        ServiceConfig::default(),
    ));
    let cfg = ServerConfig {
        udp: Some("127.0.0.1:0".parse().expect("literal addr")),
        udp_rate: 0,
        ..ServerConfig::default()
    };
    (serve_one(Arc::clone(&engine), cfg), engine)
}

fn counter(server: &NetServer, name: &str) -> u64 {
    server.metrics().dump().counter(name)
}

#[test]
fn loop_answered_rows_decode_to_the_library_answers_on_both_transports() {
    let (server, engine) = server();
    let mut tcp = NetClient::connect(server.local_addr()).expect("connect");
    let mut udp = UdpQuerier::connect(server.udp_addr().expect("udp bound")).expect("bind querier");
    // A batch the cache can answer whole: no pair the search fails on,
    // since a failed prediction is not cached.
    let batch: Vec<_> = mixed_batch()
        .into_iter()
        .filter(|&(s, d)| s != island_ip() && d != island_ip())
        .collect();
    for (day, delta) in [
        (0, None),
        (1, Some(AtlasDelta::between(&atlas(0), &atlas(1)))),
    ] {
        if let Some(delta) = delta {
            engine.apply_delta(&delta).expect("the delta applies");
        }
        let library = PathPredictor::new(Arc::new(atlas(day)), PredictorConfig::full());
        let want: Vec<_> = batch
            .iter()
            .map(|&(s, d)| wire(&library.query(s, d)))
            .collect();

        // The first batch of the day is finished on a responder, which
        // writes the rows; the loop answers the rest from them.
        let cold = tcp.query_batch(&batch).expect("cold batch");
        assert_bitwise(&format!("day {day}, cold"), &cold, &want);
        let answered = counter(&server, "srv.loop.answered");
        let warm = tcp.query_batch(&batch).expect("warm batch");
        assert_bitwise(&format!("day {day}, TCP from the loop"), &warm, &want);
        assert_eq!(counter(&server, "srv.loop.answered"), answered + 1);

        let sent = counter(&server, "srv.udp.datagrams_out");
        let warm = udp.query_batch(&batch).expect("warm datagram");
        assert_bitwise(&format!("day {day}, UDP from the loop"), &warm, &want);
        wait_for(2, "the datagram reply to count", || {
            counter(&server, "srv.udp.datagrams_out") == sent + 1
        });
        assert_eq!(counter(&server, "srv.loop.answered"), answered + 2);
    }
}
