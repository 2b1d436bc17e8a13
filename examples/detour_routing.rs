//! Detouring around failures (§7.3): when the direct path breaks, ask
//! iNano for detour hosts whose predicted paths are maximally disjoint
//! from the (predicted) direct path, and try them in order.
//!
//! Run with: `cargo run --release --example detour_routing`

use inano::apps::detour::rank_detours;
use inano::core::{PathPredictor, PredictorConfig};
use inano::model::rng::rng_for;
use inano::routing::{FailureScenario, RoutingOracle};
use inano_bench::{Scenario, ScenarioConfig};
use std::sync::Arc;

fn main() {
    let world = Scenario::build(ScenarioConfig::test(4));
    let baseline = world.oracle(0);
    let predictor = PathPredictor::new(Arc::new(world.atlas.clone()), PredictorConfig::full());
    let mut rng = rng_for(4, "example-detour");

    let hosts = &world.vps.agents;
    let src = hosts[0];
    let dst_prefix = world.net.host(hosts[1]).prefix;
    let src_prefix = world.net.host(src).prefix;

    // Break a transit PoP on the direct path.
    let direct = baseline
        .host_to_prefix(src, dst_prefix)
        .expect("baseline path exists");
    println!(
        "direct path: {:?} ({} PoP hops)",
        direct.as_path,
        direct.pops.len()
    );
    let Some(failure) = FailureScenario::transit_outage_on_path(&world.net, &direct.pops, &mut rng)
    else {
        println!("path too short to break mid-transit — rerun with another seed");
        return;
    };
    println!("injected failure: {}", failure.description);
    let broken = RoutingOracle::with_failures(&world.net, world.churn.day_state(0), &failure);

    if broken.host_to_prefix(src, dst_prefix).is_some() {
        println!("routing healed around the failure by itself (multi-homed transit)");
        return;
    }
    println!("direct path is DOWN; trying detours\n");

    // Candidates: the other sample hosts.
    let candidates: Vec<_> = hosts[2..]
        .iter()
        .map(|&h| world.net.host(h).prefix)
        .collect();
    let ranked = rank_detours(&predictor, src_prefix, dst_prefix, &candidates, 5);

    for (i, &detour) in ranked.iter().enumerate() {
        let relay = world
            .net
            .hosts
            .iter()
            .find(|h| h.prefix == detour)
            .map(|h| h.id)
            .expect("detour prefix has a host");
        let leg1 = broken.host_to_prefix(src, detour).is_some();
        let leg2 = broken.host_to_prefix(relay, dst_prefix).is_some();
        let verdict = if leg1 && leg2 {
            "WORKS"
        } else if !leg1 {
            "src->detour down"
        } else {
            "detour->dst down"
        };
        println!("detour #{}: via {} -> {verdict}", i + 1, detour);
        if leg1 && leg2 {
            return;
        }
    }
    println!("no detour within budget recovered the path");
}
