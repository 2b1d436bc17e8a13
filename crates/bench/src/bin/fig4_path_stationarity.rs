//! Figure 4: similarity of PoP-level paths across consecutive days.
//!
//! Paper: comparing each (vantage point, destination) path on day d with
//! the same path on day d+1, 91% of paths have similarity ≥ 0.75, 68%
//! ≥ 0.9, and 50% are identical (similarity = |∩| / |∪| over the sets of
//! clusters, 0.05-wide bins).

use inano_bench::{refuse_args, Scenario, ScenarioConfig};
use inano_model::path::path_similarity;
use inano_model::stats::Histogram;
use inano_model::ClusterPath;
use inano_paths::PathAtlas;
use std::collections::HashMap;

fn main() {
    refuse_args();
    let sc = Scenario::build(ScenarioConfig::experiment(42));
    eprintln!("scenario: {}", sc.summary());

    let (day1, _) = sc.atlas_for_day(1);
    let pa0 = PathAtlas::build(&sc.net, &sc.clustering, &sc.day0);
    let pa1 = PathAtlas::build(&sc.net, &sc.clustering, &day1);

    // Match (src host, dst prefix) pairs present on both days.
    let mut day1_paths: HashMap<(inano_model::HostId, inano_model::PrefixId), &Vec<_>> =
        HashMap::new();
    for p in &pa1.paths {
        day1_paths.insert((p.src, p.dst_prefix), &p.clusters);
    }

    let mut hist = Histogram::new(0.0, 1.0, 20);
    let mut ge075 = 0u64;
    let mut ge09 = 0u64;
    let mut ident = 0u64;
    let mut pairs = 0u64;
    for p in &pa0.paths {
        let Some(other) = day1_paths.get(&(p.src, p.dst_prefix)) else {
            continue;
        };
        let a = ClusterPath::new(p.clusters.clone());
        let b = ClusterPath::new((*other).clone());
        let s = path_similarity(&a, &b);
        hist.add(s);
        pairs += 1;
        if s >= 0.75 {
            ge075 += 1;
        }
        if s >= 0.9 {
            ge09 += 1;
        }
        if (s - 1.0).abs() < 1e-12 {
            ident += 1;
        }
    }

    let frac = |n: u64| n as f64 / pairs.max(1) as f64;

    let mut text = String::from("== Figure 4: PoP-level path similarity across days ==\n");
    text.push_str(&format!("paths compared: {pairs}\n"));
    text.push_str(&format!(
        "similarity >= 0.75: {:.1}%   (paper: 91%)\n",
        frac(ge075) * 100.0
    ));
    text.push_str(&format!(
        "similarity >= 0.90: {:.1}%   (paper: 68%)\n",
        frac(ge09) * 100.0
    ));
    text.push_str(&format!(
        "identical:          {:.1}%   (paper: 50%)\n",
        frac(ident) * 100.0
    ));
    text.push_str("\nhistogram (bin lower edge, fraction):\n");
    for (edge, f) in &hist.fractions() {
        if *f > 0.0005 {
            text.push_str(&format!("  {edge:.2}  {:.3}\n", f));
        }
    }
    println!("{text}");
}
