//! Figure 5: AS-path prediction accuracy as each iNano component is
//! added to GRAPH, vs RouteScope and iPlane-style path composition.
//!
//! Paper numbers (for shape comparison): RouteScope < GRAPH (31%) →
//! +asym → +tuples → +prefs → +providers (70%) ≈ path composition (70%)
//! < improved composition (81%); iNano also beats the baselines on AS
//! path *length* accuracy. §6.3.1 additionally reports that 7% of
//! validation paths have a link missing from the atlas.

use inano_bench::report::pct;
use inano_bench::{eval, refuse_args, Scenario, ScenarioConfig};
use inano_core::{PathPredictor, PredictorConfig};
use inano_model::rng::rng_for;
use inano_paths::{ImprovedComposer, PathAtlas, PathComposer, RouteScope};
use std::sync::Arc;

struct Row {
    model: String,
    exact_as_path: f64,
    correct_length: f64,
    predicted: usize,
    total: usize,
}

fn main() {
    refuse_args();
    let seed = 42;
    let sc = Scenario::build(ScenarioConfig::experiment(seed));
    eprintln!("scenario: {}", sc.summary());

    let oracle = sc.oracle(0);
    let paths = eval::validation_set(&sc, &oracle, 37, 100);
    eprintln!("validation set: {} paths", paths.len());
    let gap = eval::atlas_coverage_gap(&sc, &paths);

    let atlas = Arc::new(sc.atlas.clone());
    let mut rows: Vec<Row> = Vec::new();

    // --- RouteScope baseline ---
    {
        let rs = RouteScope::new(&atlas);
        let mut rng = rng_for(seed, "routescope");
        let mut exact = 0;
        let mut len_ok = 0;
        let mut predicted = 0;
        for p in &paths {
            let src_as = sc.net.host(p.src_host).asn;
            let dst_as = sc.net.prefix(p.dst_prefix).origin;
            let Some(pred) = rs.predict(src_as, dst_as, &mut rng) else {
                continue;
            };
            predicted += 1;
            if pred == p.true_as_path {
                exact += 1;
            }
            if pred.len() == p.true_as_path.len() {
                len_ok += 1;
            }
        }
        rows.push(Row {
            model: "RouteScope".into(),
            exact_as_path: exact as f64 / paths.len() as f64,
            correct_length: len_ok as f64 / paths.len() as f64,
            predicted,
            total: paths.len(),
        });
    }

    // --- the GRAPH → iNano ladder ---
    for (name, cfg) in PredictorConfig::ladder() {
        let predictor = PathPredictor::new(Arc::clone(&atlas), cfg);
        let mut exact = 0usize;
        let mut len_ok = 0usize;
        let mut predicted = 0usize;
        for p in &paths {
            let Ok(fwd) = predictor.predict_forward(p.src_prefix, p.dst_prefix) else {
                continue;
            };
            predicted += 1;
            let as_path = predictor.as_path_of(&fwd, p.dst_prefix);
            if as_path == p.true_as_path {
                exact += 1;
            }
            if as_path.len() == p.true_as_path.len() {
                len_ok += 1;
            }
        }
        rows.push(Row {
            model: name.to_string(),
            exact_as_path: exact as f64 / paths.len() as f64,
            correct_length: len_ok as f64 / paths.len() as f64,
            predicted,
            total: paths.len(),
        });
    }

    // --- iPlane path composition and its improved variant ---
    let path_atlas = PathAtlas::build(&sc.net, &sc.clustering, &sc.day0);
    let composer = PathComposer::new(&path_atlas, &atlas);
    let improved = ImprovedComposer::new(PathComposer::new(&path_atlas, &atlas));
    for (name, f) in [
        (
            "path composition",
            Box::new(|src, dst| composer.predict_forward(src, dst))
                as Box<dyn Fn(_, _) -> Result<inano_paths::composition::ComposedPath, _>>,
        ),
        (
            "improved composition",
            Box::new(|src, dst| improved.predict_forward(src, dst)),
        ),
    ] {
        let mut exact = 0;
        let mut len_ok = 0;
        let mut predicted = 0;
        for p in &paths {
            let Some(&src_cluster) = sc.atlas.prefix_cluster.get(&p.src_prefix) else {
                continue;
            };
            let Ok(c) = f(src_cluster, p.dst_prefix) else {
                continue;
            };
            predicted += 1;
            let as_path = composer.as_path_of(&c.clusters, p.dst_prefix);
            if as_path == p.true_as_path {
                exact += 1;
            }
            if as_path.len() == p.true_as_path.len() {
                len_ok += 1;
            }
        }
        rows.push(Row {
            model: name.into(),
            exact_as_path: exact as f64 / paths.len() as f64,
            correct_length: len_ok as f64 / paths.len() as f64,
            predicted,
            total: paths.len(),
        });
    }

    let mut text = String::from("== Figure 5: AS path prediction accuracy ==\n");
    text.push_str(&format!(
        "{:<22} {:>12} {:>12} {:>12}\n",
        "model", "exact path", "exact length", "predicted"
    ));
    for r in &rows {
        text.push_str(&format!(
            "{:<22} {:>12} {:>12} {:>9}/{}\n",
            r.model,
            pct(r.exact_as_path),
            pct(r.correct_length),
            r.predicted,
            r.total
        ));
    }
    text.push_str(&format!(
        "\natlas coverage gap (paths with a missing link): {} (paper: 7%)\n",
        pct(gap)
    ));
    println!("{text}");
}
