//! Figure 6: accuracy of latency (RTT) estimates to arbitrary
//! destinations — iNano vs Vivaldi vs iPlane path composition.
//!
//! Paper: median error 6ms (composition) < 11ms (iNano) < 20ms
//! (Vivaldi); the order *reverses* in the tail, where Vivaldi's bounded
//! coordinates beat both structural estimators whose mispredictions can
//! be arbitrarily wrong.

use inano_bench::report::cdf_rows;
use inano_bench::{eval, refuse_args, Scenario, ScenarioConfig};
use inano_core::{PathPredictor, PredictorConfig};
use inano_model::stats::Ecdf;
use inano_paths::{PathAtlas, PathComposer};
use std::sync::Arc;

fn main() {
    refuse_args();
    let sc = Scenario::build(ScenarioConfig::experiment(42));
    eprintln!("scenario: {}", sc.summary());
    let oracle = sc.oracle(0);
    let paths = eval::validation_set(&sc, &oracle, 37, 100);
    eprintln!("validation set: {} paths", paths.len());

    // iNano.
    let atlas = Arc::new(sc.atlas.clone());
    let predictor = PathPredictor::new(Arc::clone(&atlas), PredictorConfig::full());

    // Path composition.
    let path_atlas = PathAtlas::build(&sc.net, &sc.clustering, &sc.day0);
    let composer = PathComposer::new(&path_atlas, &atlas);

    // Vivaldi over all validation endpoints (sources + destination hosts).
    let mut hosts: Vec<inano_model::HostId> = paths.iter().map(|p| p.src_host).collect();
    let mut dst_hosts = Vec::new();
    for p in &paths {
        // One host per prefix in our topology.
        if let Some(h) = sc
            .net
            .hosts
            .iter()
            .find(|h| h.prefix == p.dst_prefix)
            .map(|h| h.id)
        {
            dst_hosts.push((p.dst_prefix, h));
        }
    }
    hosts.extend(dst_hosts.iter().map(|&(_, h)| h));
    hosts.sort();
    hosts.dedup();
    eprintln!("training Vivaldi over {} hosts", hosts.len());
    let (vivaldi, vidx) = eval::train_vivaldi(&sc, &oracle, &hosts, 80);
    let dst_host_of: std::collections::HashMap<_, _> = dst_hosts.into_iter().collect();

    let mut err_inano = Vec::new();
    let mut err_viv = Vec::new();
    let mut err_comp = Vec::new();
    for p in &paths {
        let truth = p.true_rtt.ms();
        if let Ok(pred) = predictor.predict(p.src_prefix, p.dst_prefix) {
            err_inano.push((pred.rtt.ms() - truth).abs());
        }
        if let Some(&dh) = dst_host_of.get(&p.dst_prefix) {
            let (i, j) = (vidx[&p.src_host], vidx[&dh]);
            err_viv.push((vivaldi.estimate(i, j).ms() - truth).abs());
        }
        if let (Some(&sc_cl), Some(&dc_cl)) = (
            sc.atlas.prefix_cluster.get(&p.src_prefix),
            sc.atlas.prefix_cluster.get(&p.dst_prefix),
        ) {
            if let Ok(rtt) = composer.predict_rtt(sc_cl, p.src_prefix, dc_cl, p.dst_prefix) {
                err_comp.push((rtt.ms() - truth).abs());
            }
        }
    }

    let series = [
        ("iNano", Ecdf::new(err_inano)),
        ("Vivaldi", Ecdf::new(err_viv)),
        ("path composition", Ecdf::new(err_comp)),
    ];
    let mut text = String::from("== Figure 6: RTT estimation error (ms) ==\n");
    let mut medians = Vec::new();
    let mut p90 = Vec::new();
    for (name, e) in &series {
        if e.is_empty() {
            text.push_str(&format!("{name}: no samples\n"));
            continue;
        }
        text.push_str(&cdf_rows(name, e));
        medians.push((name.to_string(), e.median()));
        p90.push((name.to_string(), e.quantile(0.9)));
    }
    text.push_str("\nmedians (paper: composition 6ms < iNano 11ms < Vivaldi 20ms):\n");
    for (n, m) in &medians {
        text.push_str(&format!("  {n:<18} {m:.1} ms\n"));
    }
    text.push_str("p90 (paper: order reverses in the tail):\n");
    for (n, m) in &p90 {
        text.push_str(&format!("  {n:<18} {m:.1} ms\n"));
    }
    println!("{text}");
}
