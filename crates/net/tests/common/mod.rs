//! Shared by the integration tests: bring a one-engine server up, wait
//! on a running server's counters, and the two worlds they serve — the
//! synthetic [`ring`] and a measured, policy-rich [`world`].

// Each test binary compiles this module for itself and uses only part.
#![allow(dead_code)]

#[path = "../../../service/tests/common/ring.rs"]
pub mod ring;

use inano_atlas::{codec, Atlas, AtlasDelta};
use inano_bench::{Scenario, ScenarioConfig};
use inano_core::{PathPredictor, PredictedPath, PredictorConfig};
use inano_model::{Ipv4, ModelError};
use inano_net::wire::{MAGIC, VERSION};
use inano_net::{NetServer, ServerConfig, WireFault, WirePath};
use inano_service::{QueryEngine, ServiceConfig, ShardId, ShardRegistry};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A server on an ephemeral loopback port fronting `engine` as shard 0
/// — what a shard-unaware client talks to.
pub fn serve_one(engine: Arc<QueryEngine>, cfg: ServerConfig) -> NetServer {
    let registry = ShardRegistry::from_engines(vec![(ShardId::DEFAULT, engine)])
        .expect("one shard is a valid registry");
    NetServer::bind("127.0.0.1:0", Arc::new(registry), cfg).expect("bind ephemeral port")
}

/// A frame as a hostile peer would write it: a sound header naming
/// `frame_type` and the payload's true length, then whatever bytes —
/// so it is the type or the payload that gets it refused, never the
/// framing.
pub fn raw_frame(frame_type: u8, request_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = MAGIC.to_be_bytes().to_vec();
    bytes.extend([VERSION, frame_type]);
    bytes.extend(request_id.to_be_bytes());
    bytes.extend((payload.len() as u32).to_be_bytes());
    bytes.extend(payload);
    bytes
}

/// Poll `cond` until it holds or `secs` elapse.
///
/// A server counts some things *after* the send that lets a client see
/// the reply (`srv.udp.datagrams_out`, say), so a test holding that reply
/// may read the count before it moves: such an assertion waits here for
/// the state it expects, with a bound, rather than reading once.
pub fn wait_for(secs: u64, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `Scenario::test(WORLD_SEED)`: a measured atlas carrying 3-tuples, AS
/// preferences, providers and FROM_SRC links, so the answers a server
/// gives cross every refinement of `PredictorConfig::full()`.
const WORLD_SEED: u64 = 11;

/// Addresses in the query pool: one per prefix, spread over the
/// atlas's prefixes in id order.
const POOL: usize = 24;

/// The policy-rich world every full-model test serves, built once per
/// test binary. Both days went through the atlas codec, as `--atlas
/// FILE` and a wire fetch deliver them, so a server, a mirror and a
/// library predictor over them hold the same latencies to the bit.
pub struct World {
    /// Day 0, encoded: what `examples/write_atlas.rs` writes and
    /// `inano-serve --atlas FILE` loads.
    pub bytes: Vec<u8>,
    /// Day 0, decoded from `bytes`.
    pub day0: Arc<Atlas>,
    /// Day 0 → 1, between the decoded days.
    pub delta: AtlasDelta,
    /// Day 1 as an engine serves it: `delta` applied to `day0`.
    pub day1: Arc<Atlas>,
    /// Every ordered pair of [`POOL`] addresses.
    pub pairs: Vec<(Ipv4, Ipv4)>,
}

/// The [`World`], built on first use.
pub fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let sc = Scenario::build(ScenarioConfig::test(WORLD_SEED));
        let decoded = |atlas: &Atlas| codec::decode(&codec::encode(atlas).0).expect("decodes");
        let bytes = codec::encode(&sc.atlas).0;
        let day0 = codec::decode(&bytes).expect("own encoding decodes");
        let delta = AtlasDelta::between(&day0, &decoded(&sc.atlas_for_day(1).1));
        let day1 = delta.apply(&day0).expect("delta applies to its base");
        let mut prefixes: Vec<_> = day0.prefix_as.iter().collect();
        prefixes.sort_by_key(|(id, _)| **id);
        let step = prefixes.len() / POOL;
        let pool: Vec<Ipv4> = prefixes
            .iter()
            .step_by(step)
            .take(POOL)
            .map(|(_, (prefix, _))| prefix.nth(1))
            .collect();
        let pairs = pool
            .iter()
            .flat_map(|&s| pool.iter().filter(move |&&d| d != s).map(move |&d| (s, d)))
            .collect();
        let world = World {
            bytes,
            day0: Arc::new(day0),
            delta,
            day1: Arc::new(day1),
            pairs,
        };
        // The full model with all four refinements off must answer
        // some pool pair differently, or this world tests nothing a
        // ring (where the two agree) does not.
        let mut policy_off = PredictorConfig::full();
        policy_off.use_tuples = false;
        policy_off.use_prefs = false;
        policy_off.use_providers = false;
        policy_off.use_from_src = false;
        let off = PathPredictor::new(Arc::clone(&world.day0), policy_off);
        let want = world.answers(&world.day0);
        assert!(
            world
                .pairs
                .iter()
                .zip(&want)
                .any(|(&(s, d), want)| wire(&off.query(s, d)) != *want),
            "full() and the policy-off profile agree on every pool pair"
        );
        world
    })
}

impl World {
    /// What `PathPredictor::query` under `PredictorConfig::full()`
    /// answers for every pool pair over `atlas`, as the wire carries it.
    pub fn answers(&self, atlas: &Arc<Atlas>) -> Vec<Result<WirePath, WireFault>> {
        let predictor = PathPredictor::new(Arc::clone(atlas), PredictorConfig::full());
        self.pairs
            .iter()
            .map(|&(s, d)| wire(&predictor.query(s, d)))
            .collect()
    }

    /// A registry of `shards` shards, each serving day 0 under
    /// `PredictorConfig::full()`.
    pub fn registry(&self, shards: u16) -> Arc<ShardRegistry> {
        let engines = (0..shards)
            .map(|id| {
                let engine = QueryEngine::new(Arc::clone(&self.day0), ServiceConfig::default());
                (ShardId(id), Arc::new(engine))
            })
            .collect();
        Arc::new(ShardRegistry::from_engines(engines).expect("a valid registry"))
    }
}

/// A library answer as the wire carries it.
pub fn wire(answer: &Result<PredictedPath, ModelError>) -> Result<WirePath, WireFault> {
    answer.as_ref().map(WirePath::from).map_err(WireFault::from)
}

/// Served answers equal the library's field by field, floats by bits,
/// faults by code and text.
pub fn assert_bitwise(
    what: &str,
    got: &[Result<WirePath, WireFault>],
    want: &[Result<WirePath, WireFault>],
) {
    assert_eq!(got.len(), want.len(), "{what}: answer count");
    for (i, (got, want)) in got.iter().zip(want).enumerate() {
        match (got, want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(
                    (&g.fwd_clusters, &g.rev_clusters, &g.fwd_as, &g.rev_as),
                    (&w.fwd_clusters, &w.rev_clusters, &w.fwd_as, &w.rev_as),
                    "{what}: pair {i}"
                );
                assert_eq!(
                    g.rtt_ms.to_bits(),
                    w.rtt_ms.to_bits(),
                    "{what}: pair {i} rtt"
                );
                assert_eq!(g.loss.to_bits(), w.loss.to_bits(), "{what}: pair {i} loss");
            }
            (Err(g), Err(w)) => assert_eq!(
                (g.code, &g.message),
                (w.code, &w.message),
                "{what}: pair {i}"
            ),
            _ => panic!("{what}: pair {i}: served {got:?}, library {want:?}"),
        }
    }
}
