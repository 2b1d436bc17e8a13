//! The atlas lifecycle (§5): bootstrap from the full atlas, then stay
//! current with daily deltas — each a fraction of the full atlas —
//! fetched through the same `AtlasSource`. Demonstrates an in-memory
//! `StaticSource` plugged into the client library (a `MirrorSource`
//! does the same over the wire) and prints what each fetch moves: the
//! full body's bytes from the source's head, each delta's from its
//! `DeltaHandle`.
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

    let mut source = StaticSource::new(
        codec::encode(&world.atlas).0,
        vec![
            AtlasDelta::between(&world.atlas, &day1).encode().0,
            AtlasDelta::between(&day1, &day2).encode().0,
        ],
    );
    let head = source.head().expect("head");
    println!(
        "day {} atlas: {:.1} KB in {} chunk(s)",
        head.day,
        head.full_len as f64 / 1e3,
        head.n_chunks()
    );

    let mut client =
        INanoClient::bootstrap(&mut source, PredictorConfig::full()).expect("bootstrap");
    println!("bootstrapped at day {}", client.day());

    // What each daily update moves, before any body is fetched.
    let mut day = client.day();
    while let Some(delta) = source.fetch_delta(day).expect("delta handle") {
        println!(
            "  delta {}→{}: {:.1} KB, {:.0}% of the full atlas",
            delta.from_day,
            delta.to_day,
            delta.len as f64 / 1e3,
            100.0 * delta.len as f64 / head.full_len as f64
        );
        day = delta.to_day;
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
