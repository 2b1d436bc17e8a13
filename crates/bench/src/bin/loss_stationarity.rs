//! §6.2.2: stationarity of packet loss. Paper: probing paths from 201
//! nodes to 5000 prefixes with 100 ICMP probes, 66% of lossy paths were
//! still lossy 6 hours later; 53% after 12 hours; steady at 53% after
//! 24 hours.

use inano_bench::{refuse_args, Scenario, ScenarioConfig};
use inano_measure::lossprobe::measure_path_loss;
use inano_model::rng::rng_for;
use inano_model::{HostId, PrefixId};
use inano_routing::RoutingOracle;
use inano_topology::loss::LossProcess;
use rand::seq::SliceRandom;

fn main() {
    refuse_args();
    let sc = Scenario::build(ScenarioConfig::experiment(42));
    eprintln!("scenario: {}", sc.summary());
    let mut rng = rng_for(sc.cfg.seed, "loss-stationarity");

    // Simulate 5 six-hour epochs of the loss process (0h..24h).
    let process = LossProcess::simulate(&sc.net, 5);

    // Probe pairs: VPs to random prefixes.
    let probers: Vec<HostId> = sc.vps.infra.clone();
    let mut dests: Vec<PrefixId> = sc.net.edge_prefixes().map(|p| p.id).collect();
    dests.shuffle(&mut rng);
    dests.truncate(60);

    // Measure at epoch 0; re-measure at 6h (epoch 1), 12h (2), 24h (4).
    let mut lossy_at_t0: Vec<(HostId, PrefixId)> = Vec::new();
    {
        let mut net0 = sc.net.clone();
        process.apply_epoch(&mut net0, 0);
        let oracle = RoutingOracle::new(&net0, sc.churn.day_state(0));
        for &src in &probers {
            for &d in &dests {
                if let Some(l) = measure_path_loss(&oracle, src, d, 100, &mut rng) {
                    if l.is_lossy() {
                        lossy_at_t0.push((src, d));
                    }
                }
            }
        }
    }
    eprintln!("lossy paths at t0: {}", lossy_at_t0.len());

    let mut text = String::from("== §6.2.2: loss stationarity ==\n");
    text.push_str(&format!("lossy paths at t0: {}\n\n", lossy_at_t0.len()));
    text.push_str(&format!(
        "{:>7} {:>14} {:>10}\n",
        "hours", "still lossy", "paper"
    ));
    for (hours, epoch, paper) in [(6u32, 1usize, "66%"), (12, 2, "53%"), (24, 4, "53%")] {
        let mut net = sc.net.clone();
        process.apply_epoch(&mut net, epoch);
        let oracle = RoutingOracle::new(&net, sc.churn.day_state(0));
        let mut still = 0usize;
        for &(src, d) in &lossy_at_t0 {
            if let Some(l) = measure_path_loss(&oracle, src, d, 100, &mut rng) {
                if l.is_lossy() {
                    still += 1;
                }
            }
        }
        let frac = still as f64 / lossy_at_t0.len().max(1) as f64;
        text.push_str(&format!(
            "{hours:>7} {:>13.1}% {:>10}\n",
            frac * 100.0,
            paper
        ));
    }
    println!("{text}");
}
