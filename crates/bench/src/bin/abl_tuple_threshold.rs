//! Ablation: the two magic numbers in iNano's empirical checks.
//!
//! * the 3-tuple check's middle-AS degree threshold (5 in §4.3.2 — edge
//!   ASes are exempt because "visibility into ASes at the edge is
//!   limited");
//! * the preference dominance factor (3× in §4.3.3 — below it, a
//!   preference pair is considered "wavering" load-balance noise and
//!   dropped).
//!
//! Sweeps both and reports exact-AS-path accuracy and the dataset sizes
//! they induce, justifying the defaults.

use inano_bench::report::pct;
use inano_bench::{eval, refuse_args, Scenario, ScenarioConfig};
use inano_core::{PathPredictor, PredictorConfig};
use inano_measure::{build_atlas, AtlasConfig};
use std::sync::Arc;

fn main() {
    refuse_args();
    let sc = Scenario::build(ScenarioConfig::experiment(42));
    eprintln!("scenario: {}", sc.summary());
    let oracle = sc.oracle(0);
    let paths = eval::validation_set(&sc, &oracle, 20, 60);
    eprintln!("validation set: {} paths", paths.len());

    let score = |predictor: &PathPredictor| -> f64 {
        let mut exact = 0usize;
        for p in &paths {
            if let Ok(fwd) = predictor.predict_forward(p.src_prefix, p.dst_prefix) {
                if predictor.as_path_of(&fwd, p.dst_prefix) == p.true_as_path {
                    exact += 1;
                }
            }
        }
        exact as f64 / paths.len() as f64
    };

    let mut text = String::from("== Ablation: tuple degree threshold & preference dominance ==\n");

    // --- sweep the tuple degree threshold (atlas fixed) ---
    let atlas = Arc::new(sc.atlas.clone());
    text.push_str("\ntuple_min_degree sweep (default 5; large = check no one):\n");
    for thr in [2u32, 5, 10, 25, 1000] {
        let mut cfg = PredictorConfig::full();
        cfg.tuple_min_degree = thr;
        let p = PathPredictor::new(Arc::clone(&atlas), cfg);
        let acc = score(&p);
        text.push_str(&format!("  threshold {thr:>5}: exact {}\n", pct(acc)));
    }

    // --- sweep the preference dominance factor (atlas rebuilt) ---
    text.push_str("\npref_dominance sweep (default 3x; low values admit wavering pairs):\n");
    for dom in [1.5f64, 3.0, 5.0, 10.0] {
        let acfg = AtlasConfig {
            pref_dominance: dom,
            ..AtlasConfig::default()
        };
        let atlas_d = Arc::new(build_atlas(&sc.net, &sc.clustering, &sc.day0, &acfg));
        let n_prefs = atlas_d.prefs.len();
        let p = PathPredictor::new(atlas_d, PredictorConfig::full());
        let acc = score(&p);
        text.push_str(&format!(
            "  dominance {dom:>4}x: exact {} ({n_prefs} preferences kept)\n",
            pct(acc)
        ));
    }

    text.push_str(
        "\n(expected: accuracy peaks near the paper's defaults — checking low-degree \
         edges over-filters, admitting 1x preferences imports load-balancer noise)\n",
    );
    println!("{text}");
}
