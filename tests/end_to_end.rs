//! Cross-crate integration: the full pipeline from synthetic Internet to
//! client queries, exercised on the harness's `ScenarioConfig::test` world.

use inano::atlas::{codec, AtlasDelta};
use inano::core::{INanoClient, PathPredictor, PredictorConfig, StaticSource};
use inano::model::{AsPath, Asn};
use inano_bench::{Scenario, ScenarioConfig};
use std::sync::Arc;

fn world() -> Scenario {
    Scenario::build(ScenarioConfig::test(11))
}

#[test]
fn full_model_beats_graph_baseline() {
    let w = world();
    let oracle = w.oracle(0);
    let atlas = Arc::new(w.atlas.clone());
    let graph = PathPredictor::new(Arc::clone(&atlas), PredictorConfig::graph());
    let full = PathPredictor::new(Arc::clone(&atlas), PredictorConfig::full());

    // Validation pairs: agents to random prefixes (excluding their atlas
    // dests is handled by sampling distinct prefixes).
    let mut graph_right = 0;
    let mut full_right = 0;
    let mut total = 0;
    for (i, &src) in w.vps.agents.iter().take(10).enumerate() {
        let sp = w.net.host(src).prefix;
        for j in 0..30 {
            let dst = w.net.prefixes[(i * 53 + j * 17) % w.net.prefixes.len()].id;
            if w.net.prefix(dst).is_infrastructure || dst == sp {
                continue;
            }
            let Some(truth) = oracle.host_to_prefix(src, dst) else {
                continue;
            };
            total += 1;
            let score = |p: &PathPredictor| -> bool {
                p.predict_forward(sp, dst)
                    .map(|f| p.as_path_of(&f, dst) == truth.as_path)
                    .unwrap_or(false)
            };
            graph_right += usize::from(score(&graph));
            full_right += usize::from(score(&full));
        }
    }
    assert!(total > 100, "need a real sample, got {total}");
    assert!(
        full_right > graph_right,
        "full iNano ({full_right}/{total}) must beat GRAPH ({graph_right}/{total})"
    );
}

#[test]
fn predictions_match_ground_truth_shape() {
    let w = world();
    let oracle = w.oracle(0);
    let predictor = PathPredictor::new(Arc::new(w.atlas.clone()), PredictorConfig::full());
    let hosts = &w.vps.agents[..8];
    let mut compared = 0;
    for &a in hosts {
        for &b in hosts {
            if a == b {
                continue;
            }
            let (pa, pb) = (w.net.host(a).prefix, w.net.host(b).prefix);
            let (Ok(pred), Some(truth)) = (predictor.predict(pa, pb), oracle.rtt(a, b)) else {
                continue;
            };
            compared += 1;
            // Predicted RTT within a generous factor of truth (link
            // inference + path errors, but the same order of magnitude).
            assert!(
                pred.rtt.ms() < truth.ms() * 4.0 + 100.0,
                "prediction {} vs truth {} way off",
                pred.rtt,
                truth
            );
            // Paths start at the source's AS and end at the target's.
            assert_eq!(pred.fwd_as_path.first(), Some(w.net.host(a).asn));
            assert_eq!(pred.fwd_as_path.last(), Some(w.net.host(b).asn));
        }
    }
    assert!(compared > 20, "too few comparable pairs: {compared}");
}

#[test]
fn atlas_roundtrip_preserves_predictions() {
    let w = world();
    let (bytes, _) = codec::encode(&w.atlas);
    let decoded = codec::decode(&bytes).expect("decodes");
    let p1 = PathPredictor::new(Arc::new(codec::quantise(&w.atlas)), PredictorConfig::full());
    let p2 = PathPredictor::new(Arc::new(decoded), PredictorConfig::full());
    let hosts = &w.vps.agents[..6];
    for &a in hosts {
        for &b in hosts {
            if a == b {
                continue;
            }
            let (pa, pb) = (w.net.host(a).prefix, w.net.host(b).prefix);
            let r1 = p1.predict(pa, pb).ok().map(|p| p.fwd_clusters);
            let r2 = p2.predict(pa, pb).ok().map(|p| p.fwd_clusters);
            assert_eq!(r1, r2, "encode/decode changed a prediction");
        }
    }
}

#[test]
fn client_daily_update_flow() {
    let w = world();
    let (_, day1) = w.atlas_for_day(1);
    let (full, _) = codec::encode(&w.atlas);
    let delta = AtlasDelta::between(&w.atlas, &day1);
    let (l, s, t) = delta.entry_counts();
    assert!(l + s + t > 0, "consecutive days should differ somewhere");
    let (delta_bytes, _) = delta.encode();
    // The §6.2.3 claim at our scale: the delta is much smaller than the
    // full atlas.
    assert!(
        delta_bytes.len() * 2 < full.len(),
        "delta {} vs full {}",
        delta_bytes.len(),
        full.len()
    );

    let mut client = INanoClient::bootstrap(
        &mut StaticSource::new(full.clone(), vec![]),
        PredictorConfig::full(),
    )
    .unwrap();
    assert_eq!(client.day(), 0);
    let mut src = StaticSource::new(full, vec![delta_bytes]);
    assert_eq!(client.update(&mut src).unwrap(), 1);
    assert_eq!(client.day(), 1);
    // The updated client answers queries.
    let hosts = &w.vps.agents[..2];
    let (a, b) = (w.net.host(hosts[0]), w.net.host(hosts[1]));
    assert!(client.predictor().query(a.ip, b.ip).is_ok());
}

#[test]
fn as_paths_collapse_and_terminate_correctly() {
    let w = world();
    let predictor = PathPredictor::new(Arc::new(w.atlas.clone()), PredictorConfig::full());
    let hosts = &w.vps.agents[..5];
    for &a in hosts {
        let sp = w.net.host(a).prefix;
        for p in w.net.prefixes.iter().take(40) {
            if p.is_infrastructure || p.id == sp {
                continue;
            }
            if let Ok(fwd) = predictor.predict_forward(sp, p.id) {
                let ap: AsPath = predictor.as_path_of(&fwd, p.id);
                // No immediate duplicates (AsPath collapses them) and the
                // origin terminates the path.
                assert_eq!(ap.last(), Some(p.origin));
                let slice = ap.as_slice();
                for win in slice.windows(2) {
                    assert_ne!(win[0], win[1]);
                }
                let _: Vec<Asn> = slice.to_vec();
            }
        }
    }
}
