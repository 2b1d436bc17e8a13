//! The atlas lifecycle (§5): bootstrap from the full atlas, then stay
//! current with daily deltas — each a fraction of the full atlas —
//! fetched through the same `AtlasSource`. Demonstrates an in-memory
//! `StaticSource` plugged into the client library (a `MirrorSource`
//! does the same over the wire) and prints what each fetch moves, all
//! read off the source's head before any body is fetched: the full
//! body's bytes, and each delta's from the chain leading to it, each
//! delta named by the tag of the body it leaves.
//!
//! Run with: `cargo run --release --example atlas_update`

use inano::atlas::{codec, AtlasDelta};
use inano::core::{AtlasSource, INanoClient, PredictorConfig, StaticSource};
use inano_bench::{Scenario, ScenarioConfig};

fn main() {
    println!("building three consecutive days of measurements...");
    let world = Scenario::build(ScenarioConfig::test(5));
    let (_, day1) = world.atlas_for_day(1);
    let (_, day2) = world.atlas_for_day(2);

    // The source is two days on: day 0 with both deltas applied. The
    // client starts from day 0's body.
    let day0 = codec::encode(&world.atlas).0;
    let mut source = StaticSource::new(
        day0.clone(),
        vec![
            AtlasDelta::between(&world.atlas, &day1).encode().0,
            AtlasDelta::between(&day1, &day2).encode().0,
        ],
    );
    let mut client = INanoClient::bootstrap(
        &mut StaticSource::new(day0, vec![]),
        PredictorConfig::full(),
    )
    .expect("bootstrap");
    println!("bootstrapped at day {}", client.day());

    // What the daily update moves, before any body is fetched.
    let head = source.head().expect("head");
    println!(
        "head: day {} atlas, {:.1} KB in {} chunk(s)",
        head.day,
        head.full_len as f64 / 1e3,
        head.n_chunks()
    );
    for link in &head.chain {
        println!(
            "  delta leaving body {:#018x}: {:.1} KB, {:.0}% of the full atlas",
            link.base,
            link.len as f64 / 1e3,
            100.0 * link.len as f64 / head.full_len as f64
        );
    }

    let applied = client.update(&mut source).expect("updates apply");
    println!(
        "applied {applied} daily deltas; now at day {}",
        client.day()
    );

    // Queries keep working on the updated atlas.
    let hosts = &world.vps.agents;
    let (a, b) = (world.net.host(hosts[0]), world.net.host(hosts[1]));
    match client.predictor().query(a.ip, b.ip) {
        Ok(p) => println!(
            "\nquery {} -> {}: RTT {} loss {} via {:?}",
            a.ip, b.ip, p.rtt, p.loss, p.fwd_as_path
        ),
        Err(e) => println!("\nquery failed: {e}"),
    }
}
