//! VoIP relay selection (§7.2): two NATed endpoints must call through a
//! relay; iNano picks the relays with the lowest predicted loss, then
//! latency, and the call quality is scored with the mean opinion score.
//!
//! Run with: `cargo run --release --example voip_relay`

use inano::apps::voip::{call_quality, pick_relay, RelayStrategy};
use inano::core::{PathPredictor, PredictorConfig};
use inano::model::rng::rng_for;
use inano_bench::{Scenario, ScenarioConfig};
use std::sync::Arc;

fn main() {
    let world = Scenario::build(ScenarioConfig::test(3));
    let oracle = world.oracle(0);
    let predictor = PathPredictor::new(Arc::new(world.atlas.clone()), PredictorConfig::full());
    let mut rng = rng_for(3, "example-voip");

    let hosts = &world.vps.agents;
    let (src, dst) = (hosts[0], hosts[1]);
    let candidates = hosts[2..].to_vec();

    println!(
        "call {} -> {} via a relay ({} candidates)\n",
        world.net.host(src).ip,
        world.net.host(dst).ip,
        candidates.len()
    );
    println!(
        "{:<16} {:<16} {:>10} {:>10} {:>7}",
        "strategy", "relay", "loss", "rtt", "MOS"
    );
    for strategy in RelayStrategy::all() {
        let Some(relay) = pick_relay(
            strategy,
            &oracle,
            &predictor,
            src,
            dst,
            &candidates,
            &mut rng,
        ) else {
            println!("{:<16} (none)", strategy.name());
            continue;
        };
        match call_quality(&oracle, src, relay, dst) {
            Some(call) => println!(
                "{:<16} {:<16} {:>10} {:>10} {:>7.2}",
                strategy.name(),
                world.net.host(relay).ip.to_string(),
                call.loss.to_string(),
                call.rtt.to_string(),
                call.mos
            ),
            None => println!("{:<16} relay unreachable", strategy.name()),
        }
    }
    println!("\n(higher MOS is better; 4.0+ is toll quality)");
}
