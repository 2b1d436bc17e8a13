//! Figure 7: predicting the 10 closest destinations (by actual RTT) out
//! of each source's 100 validation destinations. The metric is the size
//! of the intersection between the predicted and actual top-10 sets.
//! Paper: iNano ≈ path composition ≫ Vivaldi.

use inano_bench::{eval, refuse_args, Scenario, ScenarioConfig};
use inano_core::{PathPredictor, PredictorConfig};
use inano_model::stats::Ecdf;
use inano_model::PrefixId;
use inano_paths::{PathAtlas, PathComposer};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const TOP_N: usize = 10;

fn main() {
    refuse_args();
    let sc = Scenario::build(ScenarioConfig::experiment(42));
    eprintln!("scenario: {}", sc.summary());
    let oracle = sc.oracle(0);
    let paths = eval::validation_set(&sc, &oracle, 37, 100);

    // Group validation paths by source.
    let mut by_src: HashMap<inano_model::HostId, Vec<&eval::ValidationPath>> = HashMap::new();
    for p in &paths {
        by_src.entry(p.src_host).or_default().push(p);
    }

    let atlas = Arc::new(sc.atlas.clone());
    let predictor = PathPredictor::new(Arc::clone(&atlas), PredictorConfig::full());
    let path_atlas = PathAtlas::build(&sc.net, &sc.clustering, &sc.day0);
    let composer = PathComposer::new(&path_atlas, &atlas);

    // Vivaldi over every endpoint.
    let mut hosts: Vec<inano_model::HostId> = by_src.keys().copied().collect();
    let mut dst_host_of: HashMap<PrefixId, inano_model::HostId> = HashMap::new();
    for p in &paths {
        if let Some(h) = sc.net.hosts.iter().find(|h| h.prefix == p.dst_prefix) {
            dst_host_of.insert(p.dst_prefix, h.id);
            hosts.push(h.id);
        }
    }
    hosts.sort();
    hosts.dedup();
    let (vivaldi, vidx) = eval::train_vivaldi(&sc, &oracle, &hosts, 80);

    let mut overlap_inano = Vec::new();
    let mut overlap_viv = Vec::new();
    let mut overlap_comp = Vec::new();

    for (src, ps) in &by_src {
        if ps.len() < TOP_N * 2 {
            continue; // need enough candidates for a meaningful top-10
        }
        let actual_top: HashSet<PrefixId> = top_n_by(ps, |p| p.true_rtt.ms());
        let src_prefix = ps[0].src_prefix;

        // iNano ranking.
        let scored: Vec<(&eval::ValidationPath, f64)> = ps
            .iter()
            .filter_map(|p| {
                predictor
                    .predict(src_prefix, p.dst_prefix)
                    .ok()
                    .map(|pr| (*p, pr.rtt.ms()))
            })
            .collect();
        overlap_inano.push(overlap(&scored, &actual_top));

        // Vivaldi ranking.
        let scored: Vec<(&eval::ValidationPath, f64)> = ps
            .iter()
            .filter_map(|p| {
                let dh = dst_host_of.get(&p.dst_prefix)?;
                Some((*p, vivaldi.estimate(vidx[src], vidx[dh]).ms()))
            })
            .collect();
        overlap_viv.push(overlap(&scored, &actual_top));

        // Path composition ranking.
        let scored: Vec<(&eval::ValidationPath, f64)> = ps
            .iter()
            .filter_map(|p| {
                let s = *sc.atlas.prefix_cluster.get(&src_prefix)?;
                let d = *sc.atlas.prefix_cluster.get(&p.dst_prefix)?;
                let rtt = composer.predict_rtt(s, src_prefix, d, p.dst_prefix).ok()?;
                Some((*p, rtt.ms()))
            })
            .collect();
        overlap_comp.push(overlap(&scored, &actual_top));
    }

    let series = [
        ("iNano", Ecdf::new(overlap_inano)),
        ("Vivaldi", Ecdf::new(overlap_viv)),
        ("path composition", Ecdf::new(overlap_comp)),
    ];
    let mut text =
        String::from("== Figure 7: overlap of predicted vs actual 10 closest (of ~100) ==\n");
    for (name, e) in &series {
        if e.is_empty() {
            continue;
        }
        text.push_str(&format!(
            "{name:<18} mean {:.2} / 10, median {:.0}, p10 {:.0}\n",
            e.mean(),
            e.median(),
            e.quantile(0.1)
        ));
    }
    text.push_str("(paper: iNano ≈ path-based ≫ Vivaldi)\n");
    println!("{text}");
}

fn top_n_by<F: Fn(&eval::ValidationPath) -> f64>(
    ps: &[&eval::ValidationPath],
    key: F,
) -> HashSet<PrefixId> {
    let mut v: Vec<&&eval::ValidationPath> = ps.iter().collect();
    v.sort_by(|a, b| key(a).partial_cmp(&key(b)).unwrap());
    v.iter().take(TOP_N).map(|p| p.dst_prefix).collect()
}

fn overlap(scored: &[(&eval::ValidationPath, f64)], actual: &HashSet<PrefixId>) -> f64 {
    let mut v: Vec<&(&eval::ValidationPath, f64)> = scored.iter().collect();
    v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    v.iter()
        .take(TOP_N)
        .filter(|(p, _)| actual.contains(&p.dst_prefix))
        .count() as f64
}
