//! Figure 10: VoIP relay selection. Paper setup: 119 hosts, 1200 random
//! (src, dst) pairs, every other host a candidate relay; iNano picks the
//! 10 lowest-predicted-loss relays then the lowest-latency among them.
//! Headline: paths via iNano-chosen relays see far less loss than
//! closest-to-src / closest-to-dst / random.

use inano_apps::voip::{call_quality, pick_relay, RelayStrategy};
use inano_bench::{refuse_args, Scenario, ScenarioConfig};
use inano_core::{PathPredictor, PredictorConfig};
use inano_model::rng::rng_for;
use inano_model::stats::Ecdf;
use inano_model::HostId;
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::Arc;

fn main() {
    refuse_args();
    let sc = Scenario::build(ScenarioConfig::experiment(42));
    eprintln!("scenario: {}", sc.summary());
    let oracle = sc.oracle(0);
    let mut rng = rng_for(sc.cfg.seed, "fig10");

    // 119 end-hosts as in the paper (agents: they have FROM_SRC links).
    let hosts: Vec<HostId> = sc.vps.agents.iter().take(119).copied().collect();
    let n_calls = 400; // paper used 1200 over 119 hosts; scaled down

    let atlas = Arc::new(sc.atlas.clone());
    let predictor = PathPredictor::new(Arc::clone(&atlas), PredictorConfig::full());

    let mut pairs = Vec::with_capacity(n_calls);
    while pairs.len() < n_calls {
        let a = hosts[rng.gen_range(0..hosts.len())];
        let b = hosts[rng.gen_range(0..hosts.len())];
        if a != b {
            pairs.push((a, b));
        }
    }

    let mut text = String::from("== Figure 10: VoIP relay selection ==\n");
    text.push_str(&format!(
        "{:<16} {:>12} {:>10} {:>10} {:>9}\n",
        "strategy", "median loss", "p90 loss", "% lossy", "mean MOS"
    ));
    for strategy in RelayStrategy::all() {
        let mut losses = Vec::new();
        let mut moss = Vec::new();
        for &(src, dst) in &pairs {
            // Candidate relays: all hosts except the endpoints (paper);
            // sample 40 for speed.
            let mut cands: Vec<HostId> = hosts
                .iter()
                .copied()
                .filter(|&h| h != src && h != dst)
                .collect();
            cands.shuffle(&mut rng);
            cands.truncate(40);
            let Some(relay) = pick_relay(strategy, &oracle, &predictor, src, dst, &cands, &mut rng)
            else {
                continue;
            };
            if let Some(call) = call_quality(&oracle, src, relay, dst) {
                losses.push(call.loss.rate());
                moss.push(call.mos);
            }
        }
        if losses.is_empty() {
            continue;
        }
        let e = Ecdf::new(losses);
        let mos_mean = moss.iter().sum::<f64>() / moss.len() as f64;
        text.push_str(&format!(
            "{:<16} {:>11.2}% {:>9.2}% {:>9.1}% {:>9.2}\n",
            strategy.name(),
            e.median() * 100.0,
            e.quantile(0.9) * 100.0,
            e.fraction_at_least(0.001) * 100.0,
            mos_mean
        ));
    }
    text.push_str("\n(paper: relays chosen by iNano see significantly less packet loss)\n");
    println!("{text}");
}
