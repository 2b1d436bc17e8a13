//! The network front end end to end: start a `NetServer` hosting TWO
//! independent atlas shards — two measured worlds, one per seed —
//! behind one loopback listener, talk to it with `NetClient` — ping,
//! shard listing, per-shard query batches and epoch metadata — then
//! land a daily delta on shard 0 and watch remote clients see the new
//! epoch there and *only* there.
//!
//! Run with: `cargo run --release --example net_quickstart`
//!
//! (For a long-lived server use the `inano-serve` binary: `cargo run
//! --example write_atlas -- world.atlas`, then `inano-serve --atlas
//! world.atlas --atlas world.atlas` serves a two-shard shape from a
//! file; this example is the same stack in one process.)

use inano::atlas::AtlasDelta;
use inano::core::PredictorConfig;
use inano::model::Ipv4;
use inano::net::{NetClient, NetServer, ServerConfig, WirePath};
use inano::service::{RegistryConfig, ShardId, ShardRegistry, ShardSpec};
use inano_bench::{Scenario, ScenarioConfig};
use std::sync::Arc;

/// Every ordered pair of `world`'s end-host agents.
fn agent_pairs(world: &Scenario) -> Vec<(Ipv4, Ipv4)> {
    let ips: Vec<Ipv4> = world
        .vps
        .agents
        .iter()
        .map(|&h| world.net.host(h).ip)
        .collect();
    ips.iter()
        .flat_map(|&s| ips.iter().filter(move |&&d| d != s).map(move |&d| (s, d)))
        .collect()
}

/// The pair of `pairs` with the longest route on `shard`, with its
/// answer.
fn longest_route(
    client: &mut NetClient,
    shard: ShardId,
    pairs: &[(Ipv4, Ipv4)],
) -> ((Ipv4, Ipv4), WirePath) {
    let answers = client.query_batch_on(shard, pairs).expect("batch");
    pairs
        .iter()
        .zip(answers)
        .filter_map(|(&pair, answer)| Some((pair, answer.ok()?)))
        .max_by_key(|(_, path)| path.fwd_clusters.len())
        .expect("some agent pair routes")
}

fn main() {
    // Two shards, two measured worlds: shard 0 is what every
    // shard-unaware client talks to; shard 1 is a second atlas served
    // by the same process.
    println!("building two worlds...");
    let worlds = [6, 7].map(|seed| Scenario::build(ScenarioConfig::test(seed)));
    let registry = Arc::new(
        ShardRegistry::build(
            worlds
                .iter()
                .enumerate()
                .map(|(i, world)| ShardSpec {
                    id: ShardId(i as u16),
                    atlas: Arc::new(world.atlas.clone()),
                    predictor: PredictorConfig::full(),
                })
                .collect(),
            RegistryConfig::default(),
        )
        .expect("build the registry"),
    );
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig::default(),
    )
    .expect("bind an ephemeral loopback port");
    println!("server on {}", server.local_addr());

    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping");
    for info in client.shards().expect("list shards") {
        println!(
            "  shard {}: epoch {}, day {}",
            info.shard, info.epoch, info.day
        );
    }

    // Shard-unaware calls land on shard 0; each shard routes its own
    // world's hosts.
    let pairs0 = agent_pairs(&worlds[0]);
    let ((src, dst), path) = longest_route(&mut client, ShardId(0), &pairs0);
    println!(
        "shard 0: {src:?} -> {dst:?}: {} cluster hops, rtt {:.2} ms",
        path.fwd_clusters.len(),
        path.rtt_ms
    );
    let (pair1, on_shard1) = longest_route(&mut client, ShardId(1), &agent_pairs(&worlds[1]));
    println!(
        "shard 1: {:?} -> {:?}: {} cluster hops",
        pair1.0,
        pair1.1,
        on_shard1.fwd_clusters.len()
    );

    // Shard 0's next day lands as a delta; remote queries never stop,
    // and shard 1's epoch does not move.
    let (_, day1) = worlds[0].atlas_for_day(1);
    registry
        .apply_delta(ShardId(0), &AtlasDelta::between(&worlds[0].atlas, &day1))
        .expect("delta applies");
    let (epoch0, day0) = client.epoch().expect("epoch");
    let (epoch1, day_1) = client.epoch_on(ShardId(1)).expect("epoch on shard 1");
    let after = client.query_batch(&[(src, dst)]).expect("batch")[0].clone();
    println!(
        "after the swap: shard 0 at epoch {epoch0}, day {day0} ({src:?} -> {dst:?}: {}); \
         shard 1 untouched at epoch {epoch1}, day {day_1}",
        match after {
            Ok(path) => format!("rtt {:.2} ms", path.rtt_ms),
            Err(fault) => format!("{fault}"),
        }
    );

    // One way to read a server: the metrics dump over its own socket,
    // the same entries `server.metrics().dump()` shows in process.
    let dump = client.metrics().expect("metrics");
    let (hits, misses) = (
        dump.counter("shard0.cache.hits"),
        dump.counter("shard0.cache.misses"),
    );
    println!(
        "shard 0 served {} queries, cache hit rate {:.2}",
        dump.counter("shard0.queries"),
        hits as f64 / (hits + misses).max(1) as f64
    );

    // Any server is also an atlas *mirror*: fetch shard 1's atlas over
    // the wire (chunked + checksummed) and stand up a second engine
    // from it — `MirrorSource` is an `AtlasSource` like any other.
    // (`inano-serve --mirror ADDR` is this loop as a binary.)
    let mut upstream = inano::net::MirrorSource::connect(server.local_addr(), ShardId(1))
        .expect("connect a mirror source");
    let mirrored = inano::service::QueryEngine::bootstrap(
        &mut upstream,
        inano::service::ServiceConfig::default(),
    )
    .expect("bootstrap an engine over the wire");
    let origin_tag = registry.engine(ShardId(1)).expect("shard 1").export().tag();
    println!(
        "mirrored shard 1 over the wire: day {}, epoch tag {:#018x} (origin tag {:#018x}, {})",
        mirrored.day(),
        mirrored.export().tag(),
        origin_tag,
        if mirrored.export().tag() == origin_tag {
            "identical"
        } else {
            "DIVERGED?!"
        },
    );

    server.shutdown();
    println!("clean shutdown");
}
