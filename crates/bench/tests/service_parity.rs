//! Serving-layer parity on a *measured* atlas with the full iNano model
//! (providers on): the scenario builder populates per-prefix provider
//! refinements, so this covers the cache-soundness hole a synthetic
//! ring atlas cannot — prefixes sharing a cluster but searching
//! differently must be cached under their own prefix, never under the
//! cluster they share, and every cached answer must equal a fresh
//! `PathPredictor::query`.

use inano_bench::{Scenario, ScenarioConfig};
use inano_core::{PathPredictor, PredictorConfig};
use inano_model::Ipv4;
use inano_service::{QueryEngine, ServiceConfig};
use std::sync::Arc;

#[test]
fn engine_matches_fresh_predictor_with_providers_enabled() {
    let sc = Scenario::build(ScenarioConfig::test(123));
    assert!(
        !sc.atlas.prefix_providers.is_empty(),
        "scenario must exercise per-prefix provider refinements"
    );
    let atlas = Arc::new(sc.atlas.clone());
    let fresh = PathPredictor::new(Arc::clone(&atlas), PredictorConfig::full());
    let engine = QueryEngine::new(
        Arc::clone(&atlas),
        ServiceConfig {
            predictor: PredictorConfig::full(),
            ..ServiceConfig::default()
        },
    );

    // Deterministic sample: one IP per prefix, ordered by id, limited
    // to prefixes whose cluster the atlas has links for (routable at
    // all) — a few refined-provider prefixes (keyed by prefix) mixed
    // with plain ones (keyed by cluster).
    let linked: std::collections::HashSet<_> =
        sc.atlas.links.keys().flat_map(|&(a, b)| [a, b]).collect();
    let mut prefixes: Vec<_> = sc.atlas.prefix_as.iter().collect();
    prefixes.sort_by_key(|(pid, _)| **pid);
    let ips: Vec<(bool, Ipv4)> = prefixes
        .iter()
        .filter(|(pid, _)| {
            sc.atlas
                .prefix_cluster
                .get(*pid)
                .is_some_and(|c| linked.contains(c))
        })
        .map(|(pid, (prefix, _))| (sc.atlas.prefix_providers.contains_key(pid), prefix.nth(1)))
        .collect();
    let refined_sample = ips.iter().filter(|(r, _)| *r).take(8);
    let plain_sample = ips.iter().filter(|(r, _)| !*r).take(16);
    let sample: Vec<Ipv4> = refined_sample
        .chain(plain_sample)
        .map(|&(_, ip)| ip)
        .collect();
    assert!(
        ips.iter().filter(|(r, _)| !*r).count() > 4,
        "sample needs cacheable prefixes"
    );
    assert!(sample.len() > 8);

    let mut compared = 0usize;
    // Two passes: pass 2 hits the cache wherever pass 1 populated it.
    for _pass in 0..2 {
        for &s in &sample {
            for &d in &sample {
                if s == d {
                    continue;
                }
                match (engine.query(s, d), fresh.query(s, d)) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(got.fwd_clusters, want.fwd_clusters, "{s} -> {d}");
                        assert_eq!(got.rev_clusters, want.rev_clusters, "{s} -> {d}");
                        assert_eq!(got.fwd_as_path, want.fwd_as_path, "{s} -> {d}");
                        assert!((got.rtt.ms() - want.rtt.ms()).abs() < 1e-12, "{s} -> {d}");
                        compared += 1;
                    }
                    (Err(_), Err(_)) => {}
                    (got, want) => panic!(
                        "engine/fresh disagree for {s} -> {d}: engine ok={}, fresh ok={}",
                        got.is_ok(),
                        want.is_ok()
                    ),
                }
            }
        }
    }
    assert!(compared > 0, "sample must contain routable pairs");
    let m = engine.metrics();
    assert!(m.cache_hits.get() > 0, "pass 2 must see cache hits: {m:?}");
}
