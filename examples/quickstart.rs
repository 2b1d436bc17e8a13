//! Quickstart: the iNano pipeline end to end in one file.
//!
//! 1. Generate a small synthetic Internet (stand-in for the real one).
//! 2. Run a measurement day (traceroutes from vantage points + end-host
//!    agents, BGP feeds, loss probes) and build the compact atlas.
//! 3. Bootstrap an iNano client from the encoded atlas and ask it for
//!    path, latency and loss predictions between two arbitrary hosts.
//!
//! Run with: `cargo run --release --example quickstart`

use inano::core::{INanoClient, PredictorConfig, StaticSource};
use inano_bench::{Scenario, ScenarioConfig};

fn main() {
    println!("building a synthetic Internet + one measurement day...");
    let world = Scenario::build(ScenarioConfig::test(1));
    println!("  {}", world.net.summary());

    // Encode the atlas exactly as the distribution side would ship it.
    let (bytes, sizes) = inano::atlas::codec::encode(&world.atlas);
    println!(
        "atlas: {} entries, {:.1} KB encoded ({} links, {} 3-tuples, {} preferences)",
        world.atlas.total_entries(),
        bytes.len() as f64 / 1e3,
        world.atlas.links.len(),
        world.atlas.tuples.len(),
        world.atlas.prefs.len(),
    );
    let _ = sizes;

    // A client fetches the atlas (here from memory; `inano::net`
    // provides the wire-level mirror source) and serves queries
    // locally.
    let mut source = StaticSource::new(bytes, vec![]);
    let client =
        INanoClient::bootstrap(&mut source, PredictorConfig::full()).expect("atlas decodes");
    println!("client bootstrapped at day {}", client.day());

    // Predict between two arbitrary end-hosts.
    let hosts = &world.vps.agents;
    let (a, b) = (world.net.host(hosts[0]), world.net.host(hosts[1]));
    println!("\nquery: {} ({}) -> {} ({})", a.ip, a.asn, b.ip, b.asn);
    match client.predictor().query(a.ip, b.ip) {
        Ok(p) => {
            println!("  forward AS path : {:?}", p.fwd_as_path);
            println!("  reverse AS path : {:?}", p.rev_as_path);
            println!("  predicted RTT   : {}", p.rtt);
            println!("  predicted loss  : {}", p.loss);
            println!(
                "  forward clusters: {} PoP-level hops",
                p.fwd_clusters.len()
            );
        }
        Err(e) => println!("  no prediction: {e}"),
    }

    // Compare against the ground truth the simulation knows.
    let oracle = world.oracle(0);
    if let (Some(rtt), Some(loss)) = (
        oracle.rtt(hosts[0], hosts[1]),
        oracle.round_trip_loss(hosts[0], hosts[1]),
    ) {
        println!("  actual RTT      : {rtt}");
        println!("  actual loss     : {loss}");
    }
}
