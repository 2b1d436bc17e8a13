//! The full model under the wire: a measured atlas with 3-tuples, AS
//! preferences, providers and FROM_SRC links, served under
//! `PredictorConfig::full()` by an origin and by a mirror that fetched
//! it over the wire, answers every pool pair exactly as
//! `PathPredictor::query` does on the same generation — on both
//! transports, before and after a day-0 → 1 delta lands on both.
//!
//! The world is `common::world()`; it refuses to build unless the full
//! model and the policy-off profile disagree on some pool pair, so
//! these answers cross the refinements a ring world never reaches.

mod common;

use common::{assert_bitwise, serve_one, world};
use inano_model::Ipv4;
use inano_net::{
    MirrorSource, NetClient, NetServer, ServerConfig, UdpQuerier, WireFault, WirePath,
};
use inano_service::{QueryEngine, ServiceConfig, ShardId};
use std::sync::Arc;

type Answers = Vec<Result<WirePath, WireFault>>;

/// Pairs per datagram: small enough that every reply fits one.
const DATAGRAM_PAIRS: usize = 32;

/// Origin and mirror, both transports open, datagram shedding off (the
/// test's one querier would otherwise share a bucket with itself).
fn config() -> ServerConfig {
    ServerConfig {
        udp: Some("127.0.0.1:0".parse().expect("literal addr")),
        udp_rate: 0,
        ..ServerConfig::default()
    }
}

/// Serve the world from an origin and a wire-fed mirror; ask both for
/// every pool pair through `ask`, on day 0 and again once the day-1
/// delta has reached both, and hold every answer to the library's.
fn origin_and_mirror_answer_as_the_library(ask: fn(&NetServer, &[(Ipv4, Ipv4)]) -> Answers) {
    let w = world();
    let origin = NetServer::bind("127.0.0.1:0", w.registry(1), config()).expect("bind");
    let mut upstream =
        MirrorSource::connect(origin.local_addr(), ShardId::DEFAULT).expect("mirror source");
    let mirror_engine = Arc::new(
        QueryEngine::bootstrap(&mut upstream, ServiceConfig::default())
            .expect("bootstrap over the wire"),
    );
    let mirror = serve_one(Arc::clone(&mirror_engine), config());

    for (day, atlas) in [(0, &w.day0), (1, &w.day1)] {
        if day == 1 {
            let origin_engine = origin
                .registry()
                .engine(ShardId::DEFAULT)
                .expect("shard 0 exists");
            assert_eq!(
                origin_engine.apply_delta(&w.delta).expect("delta applies"),
                1
            );
            assert_eq!(
                mirror_engine.update(&mut upstream).expect("mirror update"),
                1,
                "the mirror pulls the one delta"
            );
        }
        assert_eq!(mirror_engine.day(), day);
        let want = w.answers(atlas);
        assert!(
            want.iter().any(Result::is_ok),
            "day {day}: no pool pair routes"
        );
        for (who, server) in [("origin", &origin), ("mirror", &mirror)] {
            assert_bitwise(&format!("{who}, day {day}"), &ask(server, &w.pairs), &want);
        }
    }
}

#[test]
fn stream_answers_from_origin_and_mirror_equal_the_library_across_a_swap() {
    origin_and_mirror_answer_as_the_library(|server, pairs| {
        NetClient::connect(server.local_addr())
            .expect("connect")
            .query_batch(pairs)
            .expect("stream batch")
    });
}

#[test]
fn datagram_answers_from_origin_and_mirror_equal_the_library_across_a_swap() {
    origin_and_mirror_answer_as_the_library(|server, pairs| {
        let mut querier =
            UdpQuerier::connect(server.udp_addr().expect("udp plane bound")).expect("querier");
        pairs
            .chunks(DATAGRAM_PAIRS)
            .flat_map(|batch| querier.query_batch(batch).expect("datagram batch"))
            .collect()
    });
}
