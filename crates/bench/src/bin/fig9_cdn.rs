//! Figure 9: peer-to-peer CDN replica selection, 30KB and 1.5MB files.
//!
//! Paper setup: 199 clients, 5 random replicas each, strategies
//! {measured latency, Vivaldi, OASIS, iNano, random} vs the optimal
//! choice. Headline: iNano is near-optimal at the median for both sizes;
//! for 1.5MB its loss-awareness beats even measured latencies; Vivaldi
//! and OASIS trail.

use inano_apps::cdn::{CdnExperiment, ReplicaStrategy};
use inano_bench::{eval, refuse_args, Scenario, ScenarioConfig};
use inano_core::{PathPredictor, PredictorConfig};
use inano_model::rng::rng_for;
use inano_model::stats::Ecdf;
use inano_model::HostId;
use inano_topology::Tier;
use rand::seq::SliceRandom;
use std::sync::Arc;

fn main() {
    refuse_args();
    let sc = Scenario::build(ScenarioConfig::experiment(42));
    eprintln!("scenario: {}", sc.summary());
    let oracle = sc.oracle(0);
    let mut rng = rng_for(sc.cfg.seed, "fig9");

    // Clients: end-host agents (their links are in FROM_SRC). Replicas:
    // hosts in transit-tier prefixes (well-connected, Akamai-like).
    let clients: Vec<HostId> = sc.vps.agents.iter().take(100).copied().collect();
    let mut replicas: Vec<HostId> = sc
        .net
        .hosts
        .iter()
        .filter(|h| {
            matches!(sc.net.as_info(h.asn).tier, Tier::Tier2 | Tier::Tier3)
                && !clients.contains(&h.id)
        })
        .map(|h| h.id)
        .collect();
    replicas.shuffle(&mut rng);
    replicas.truncate(60);
    eprintln!("{} clients, {} replicas", clients.len(), replicas.len());

    // Candidate sets: 5 random replicas per client (as in the paper).
    let candidate_sets: Vec<Vec<HostId>> = clients
        .iter()
        .map(|_| {
            let mut r = replicas.clone();
            r.shuffle(&mut rng);
            r.truncate(5);
            r
        })
        .collect();

    let atlas = Arc::new(sc.atlas.clone());
    let predictor = PathPredictor::new(Arc::clone(&atlas), PredictorConfig::full());

    // Vivaldi over clients + replicas.
    let mut population: Vec<HostId> = clients.iter().chain(replicas.iter()).copied().collect();
    population.sort();
    population.dedup();
    let (vivaldi, vidx) = eval::train_vivaldi(&sc, &oracle, &population, 80);

    let mut text = String::from("== Figure 9: CDN replica selection ==\n");
    for (label, bytes) in [("(a) 30KB", 30_000.0), ("(b) 1.5MB", 1_500_000.0)] {
        let exp = CdnExperiment {
            oracle: &oracle,
            predictor: &predictor,
            vivaldi: &vivaldi,
            vivaldi_index: &vidx,
            file_bytes: bytes,
        };
        text.push_str(&format!("\n-- {label} --\n"));
        text.push_str(&format!(
            "{:<12} {:>12} {:>12}\n",
            "strategy", "median (s)", "p90 (s)"
        ));
        for strategy in ReplicaStrategy::all() {
            let mut times = Vec::new();
            for (ci, &client) in clients.iter().enumerate() {
                let cands = &candidate_sets[ci];
                let Some(r) = exp.pick(strategy, client, cands, &mut rng) else {
                    continue;
                };
                if let Some(t) = exp.download_time(client, r) {
                    times.push(t);
                }
            }
            if times.is_empty() {
                continue;
            }
            let e = Ecdf::new(times);
            text.push_str(&format!(
                "{:<12} {:>12.3} {:>12.3}\n",
                strategy.name(),
                e.median(),
                e.quantile(0.9)
            ));
        }
    }
    text.push_str(
        "\n(paper: iNano near-optimal medians; for 1.5MB, loss-aware iNano beats measured \
         latency; Vivaldi/OASIS trail)\n",
    );
    println!("{text}");
}
