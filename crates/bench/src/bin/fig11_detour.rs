//! Figure 11: routing around failures with iNano-ranked detours vs
//! random detours (SOSR \[20\]).
//!
//! Paper setup: failure episodes where ≥10% of sources simultaneously
//! cannot reach a destination but ≥10% can; a source recovers if one of
//! its first N detours has working src→detour and detour→dst paths.
//! Headline: for the same N, iNano-ranked detours roughly halve the
//! unreachable fraction (5 detours: 2% vs 4%).

use inano_apps::detour::rank_detours;
use inano_bench::{refuse_args, Scenario, ScenarioConfig};
use inano_core::{PathPredictor, PredictorConfig};
use inano_model::rng::rng_for;
use inano_model::{HostId, PrefixId};
use inano_routing::{FailureScenario, RoutingOracle};
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::Arc;

const MAX_DETOURS: usize = 8;

fn main() {
    refuse_args();
    let sc = Scenario::build(ScenarioConfig::experiment(42));
    eprintln!("scenario: {}", sc.summary());
    let mut rng = rng_for(sc.cfg.seed, "fig11");

    // 35 sources (paper) among the agents; detour candidates are the
    // other sources.
    let sources: Vec<HostId> = sc.vps.agents.iter().take(35).copied().collect();
    let src_prefix: Vec<PrefixId> = sources.iter().map(|&h| sc.net.host(h).prefix).collect();

    let atlas = Arc::new(sc.atlas.clone());
    let predictor = PathPredictor::new(Arc::clone(&atlas), PredictorConfig::full());
    let baseline = sc.oracle(0);

    // Build failure episodes: take a destination, fail a transit PoP on
    // the true path from a random source; keep episodes that split the
    // source population 10/90.
    let all_dests: Vec<PrefixId> = sc.net.edge_prefixes().map(|p| p.id).collect();
    let mut episodes = 0usize;
    let mut victim_cases = 0usize;
    // fail_counts[strategy][n-1] = victims still unreachable with n detours.
    let mut fail_inano = [0usize; MAX_DETOURS];
    let mut fail_random = [0usize; MAX_DETOURS];

    let mut attempts = 0;
    while episodes < 60 && attempts < 1200 {
        attempts += 1;
        let dst = all_dests[rng.gen_range(0..all_dests.len())];
        let probe_src = sources[rng.gen_range(0..sources.len())];
        let Some(path) = baseline.host_to_prefix(probe_src, dst) else {
            continue;
        };
        let Some(scenario) = FailureScenario::transit_outage_on_path(&sc.net, &path.pops, &mut rng)
        else {
            continue;
        };
        let broken = RoutingOracle::with_failures(&sc.net, sc.churn.day_state(0), &scenario);
        let reachable: Vec<bool> = sources
            .iter()
            .map(|&s| broken.host_to_prefix(s, dst).is_some())
            .collect();
        let n_fail = reachable.iter().filter(|r| !**r).count();
        let n_ok = reachable.len() - n_fail;
        // Paper's episode filter: at least 10% fail AND at least 10% work.
        if n_fail * 10 < sources.len() || n_ok * 10 < sources.len() {
            continue;
        }
        episodes += 1;

        for (i, &src) in sources.iter().enumerate() {
            if reachable[i] {
                continue;
            }
            victim_cases += 1;
            // Candidate detours: the other sources.
            let candidates: Vec<PrefixId> = src_prefix
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &p)| p)
                .collect();
            let detour_hosts: Vec<HostId> = sources
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &h)| h)
                .collect();

            // iNano ranking (predictions are failure-unaware: the atlas
            // predates the outage, exactly as deployed).
            let ranked = rank_detours(&predictor, src_prefix[i], dst, &candidates, MAX_DETOURS);
            let works = |detour_pfx: PrefixId| -> bool {
                let Some(pos) = src_prefix.iter().position(|&p| p == detour_pfx) else {
                    return false;
                };
                let relay = sources[pos];
                broken.host_to_prefix(src, detour_pfx).is_some()
                    && broken.host_to_prefix(relay, dst).is_some()
            };
            let mut recovered_at = usize::MAX;
            for (k, &d) in ranked.iter().enumerate() {
                if works(d) {
                    recovered_at = k;
                    break;
                }
            }
            for n in 1..=MAX_DETOURS {
                if recovered_at >= n {
                    fail_inano[n - 1] += 1;
                }
            }

            // Random ranking.
            let mut shuffled: Vec<HostId> = detour_hosts.clone();
            shuffled.shuffle(&mut rng);
            let mut recovered_at = usize::MAX;
            for (k, &relay) in shuffled.iter().take(MAX_DETOURS).enumerate() {
                let dpfx = sc.net.host(relay).prefix;
                if broken.host_to_prefix(src, dpfx).is_some()
                    && broken.host_to_prefix(relay, dst).is_some()
                {
                    recovered_at = k;
                    break;
                }
            }
            for n in 1..=MAX_DETOURS {
                if recovered_at >= n {
                    fail_random[n - 1] += 1;
                }
            }
        }
    }

    let mut text = String::from("== Figure 11: routing around failures ==\n");
    text.push_str(&format!(
        "episodes: {episodes}, unreachable (source, dst) cases: {victim_cases}\n\n"
    ));
    text.push_str(&format!(
        "{:>9} {:>18} {:>18}\n",
        "#detours", "iNano unreachable", "random unreachable"
    ));
    for n in 1..=MAX_DETOURS {
        let fi = fail_inano[n - 1] as f64 / victim_cases.max(1) as f64;
        let fr = fail_random[n - 1] as f64 / victim_cases.max(1) as f64;
        text.push_str(&format!(
            "{n:>9} {:>17.1}% {:>17.1}%\n",
            fi * 100.0,
            fr * 100.0
        ));
    }
    text.push_str("\n(paper: iNano halves the unreachable fraction; 5 detours: 2% vs 4%)\n");
    println!("{text}");
}
