//! The network front end end to end: start a `NetServer` hosting TWO
//! independent atlas shards behind one loopback listener, talk to it
//! with `NetClient` — ping, shard listing, per-shard query batches and
//! epoch metadata — then land a daily delta on shard 0 and watch
//! remote clients see the new epoch there and *only* there.
//!
//! Run with: `cargo run --release --example net_quickstart`
//!
//! (For a long-lived server use the `inano-serve` binary — e.g.
//! `inano-serve --ring 16 --ring 24` for this same two-shard shape;
//! this example is the same stack in one process.)

use inano::net::demo::{ring_atlas, ring_ip, ring_predictor_config, ring_shortcut_delta};
use inano::net::{NetClient, NetServer, ServerConfig};
use inano::service::{RegistryConfig, ShardId, ShardRegistry, ShardSpec};
use std::sync::Arc;

fn main() {
    // Two shards, two different ring worlds: shard 0 is what every
    // shard-unaware client talks to; shard 1 is a second atlas
    // generation served by the same process.
    let rings = [16u32, 24u32];
    let registry = Arc::new(
        ShardRegistry::build(
            rings
                .iter()
                .enumerate()
                .map(|(i, &n)| ShardSpec {
                    id: ShardId(i as u16),
                    atlas: Arc::new(ring_atlas(n, 0)),
                    predictor: ring_predictor_config(),
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

    // Shard-unaware calls keep their old meaning: they land on shard 0.
    let far = rings[0] / 2;
    let pairs = [(ring_ip(0), ring_ip(far))];
    let path = client.query_batch(&pairs).expect("batch")[0]
        .clone()
        .expect("ring pairs are routable")
        .into_predicted();
    println!(
        "shard 0: {:?} -> {:?}: {} cluster hops, rtt {:.2} ms",
        pairs[0].0,
        pairs[0].1,
        path.fwd_clusters.len(),
        path.rtt.ms()
    );

    // The same addresses mean different things on shard 1 — it is a
    // different (bigger) world with its own routes.
    let far1 = rings[1] / 2;
    let on_shard1 = client
        .query_batch_on(ShardId(1), &[(ring_ip(0), ring_ip(far1))])
        .expect("batch on shard 1")[0]
        .clone()
        .expect("routable on shard 1")
        .into_predicted();
    println!(
        "shard 1: {:?} -> {:?}: {} cluster hops",
        ring_ip(0),
        ring_ip(far1),
        on_shard1.fwd_clusters.len()
    );

    // A daily delta lands on shard 0 only; remote queries never stop,
    // and shard 1's epoch does not move.
    registry
        .apply_delta(ShardId(0), &ring_shortcut_delta(rings[0], 0))
        .expect("delta applies");
    let (epoch0, day0) = client.epoch().expect("epoch");
    let (epoch1, day1) = client.epoch_on(ShardId(1)).expect("epoch on shard 1");
    let after = client.query_batch(&pairs).expect("batch")[0]
        .clone()
        .expect("still routable")
        .into_predicted();
    println!(
        "after the swap: shard 0 at epoch {epoch0}, day {day0} \
         ({:?} -> {:?} is now {} hops — the new shortcut); \
         shard 1 untouched at epoch {epoch1}, day {day1}",
        pairs[0].0,
        pairs[0].1,
        after.fwd_clusters.len()
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
        inano::service::ServiceConfig {
            predictor: ring_predictor_config(),
            ..inano::service::ServiceConfig::default()
        },
    )
    .expect("bootstrap an engine over the wire");
    let origin_tag = registry
        .engine(ShardId(1))
        .expect("shard 1")
        .export()
        .epoch_tag;
    println!(
        "mirrored shard 1 over the wire: day {}, epoch tag {:#018x} (origin tag {:#018x}, {})",
        mirrored.day(),
        mirrored.export().epoch_tag,
        origin_tag,
        if mirrored.export().epoch_tag == origin_tag {
            "identical"
        } else {
            "DIVERGED?!"
        },
    );

    server.shutdown();
    println!("clean shutdown");
}
