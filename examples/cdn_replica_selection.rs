//! CDN replica selection (§7.1): a client must pick one of five replicas
//! without probing them. Compare picking by iNano's predictions against
//! random choice, and show what the ground truth says each would cost.
//!
//! Run with: `cargo run --release --example cdn_replica_selection`

use inano::apps::tcp_model::transfer_time_secs;
use inano::core::{PathPredictor, PredictorConfig};
use inano::model::rng::rng_for;
use inano_bench::{Scenario, ScenarioConfig};
use rand::seq::SliceRandom;
use std::sync::Arc;

fn main() {
    let world = Scenario::build(ScenarioConfig::test(2));
    let oracle = world.oracle(0);
    let predictor = PathPredictor::new(Arc::new(world.atlas.clone()), PredictorConfig::full());
    let mut rng = rng_for(2, "example-cdn");

    let hosts = &world.vps.agents;
    let client = hosts[0];
    let mut replicas = hosts[1..].to_vec();
    replicas.shuffle(&mut rng);
    replicas.truncate(5);

    let client_info = world.net.host(client);
    println!(
        "client {} picks among 5 replicas (1.5MB file):\n",
        client_info.ip
    );
    println!(
        "{:<16} {:>12} {:>10} {:>14}",
        "replica", "pred RTT", "pred loss", "actual DL time"
    );

    let mut best_pred: Option<(inano::model::HostId, f64)> = None;
    for &r in &replicas {
        let rinfo = world.net.host(r);
        let pred = predictor.predict(client_info.prefix, rinfo.prefix).ok();
        let (rtt_s, loss_s, score) = match &pred {
            Some(p) => {
                // Pick by predicted PFTK throughput (latency + loss).
                let thr = inano::apps::tcp_model::pftk_throughput(p.rtt, p.loss);
                (format!("{}", p.rtt), format!("{}", p.loss), Some(thr))
            }
            None => ("?".into(), "?".into(), None),
        };
        let actual = oracle
            .rtt(client, r)
            .zip(oracle.round_trip_loss(client, r))
            .map(|(rtt, loss)| transfer_time_secs(1_500_000.0, rtt, loss));
        println!(
            "{:<16} {:>12} {:>10} {:>13}",
            rinfo.ip.to_string(),
            rtt_s,
            loss_s,
            actual.map_or("unreachable".into(), |t| format!("{t:.2}s")),
        );
        if let Some(thr) = score {
            if best_pred.is_none_or(|(_, b)| thr > b) {
                best_pred = Some((r, thr));
            }
        }
    }

    if let Some((pick, _)) = best_pred {
        let t_pick = oracle
            .rtt(client, pick)
            .zip(oracle.round_trip_loss(client, pick))
            .map(|(rtt, loss)| transfer_time_secs(1_500_000.0, rtt, loss))
            .unwrap_or(f64::NAN);
        let t_rand: f64 = replicas
            .iter()
            .filter_map(|&r| {
                oracle
                    .rtt(client, r)
                    .zip(oracle.round_trip_loss(client, r))
                    .map(|(rtt, loss)| transfer_time_secs(1_500_000.0, rtt, loss))
            })
            .sum::<f64>()
            / replicas.len() as f64;
        println!("\niNano's pick downloads in {t_pick:.2}s; a random pick averages {t_rand:.2}s");
    }
}
