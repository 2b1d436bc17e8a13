//! Figure 8: accuracy of loss-rate estimates to arbitrary destinations —
//! iNano vs path composition (coordinate systems can't predict loss at
//! all, §6.3.2). Paper: iNano approximates the path-based estimates with
//! a much smaller atlas; both within 10% absolute error for >80% of
//! paths.

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

    let atlas = Arc::new(sc.atlas.clone());
    let predictor = PathPredictor::new(Arc::clone(&atlas), PredictorConfig::full());
    let path_atlas = PathAtlas::build(&sc.net, &sc.clustering, &sc.day0);
    let composer = PathComposer::new(&path_atlas, &atlas);

    let mut err_inano = Vec::new();
    let mut err_comp = Vec::new();
    for p in &paths {
        let truth = p.true_loss.rate();
        if let Ok(pred) = predictor.predict(p.src_prefix, p.dst_prefix) {
            err_inano.push((pred.loss.rate() - truth).abs());
        }
        // Composition: loss along composed forward + reverse paths.
        if let (Some(&s), Some(&d)) = (
            sc.atlas.prefix_cluster.get(&p.src_prefix),
            sc.atlas.prefix_cluster.get(&p.dst_prefix),
        ) {
            let fwd = composer.predict_forward(s, p.dst_prefix);
            let rev = composer.predict_forward(d, p.src_prefix);
            if let (Ok(f), Ok(r)) = (fwd, rev) {
                let loss = composer
                    .loss_of(&f.clusters)
                    .compose(composer.loss_of(&r.clusters));
                err_comp.push((loss.rate() - truth).abs());
            }
        }
    }

    let series = [
        ("iNano", Ecdf::new(err_inano)),
        ("path composition", Ecdf::new(err_comp)),
    ];
    let mut text = String::from("== Figure 8: loss-rate estimation error (absolute) ==\n");
    for (name, e) in &series {
        if e.is_empty() {
            continue;
        }
        text.push_str(&cdf_rows(name, e));
        let w = e.fraction_at_most(0.10);
        text.push_str(&format!(
            "{name}: error <= 0.10 for {:.1}% of paths (paper: >80%)\n",
            w * 100.0
        ));
    }
    println!("{text}");
}
