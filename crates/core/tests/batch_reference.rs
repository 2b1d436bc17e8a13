//! Differential test: `PathPredictor::query_batch`, which plans a batch's
//! distinct searches and runs them on the caller and helper threads,
//! answers exactly what per-pair `query` answers on one thread.
//!
//! Checked on two measured worlds, on every ablation rung, with batches
//! of 1, 2, 4 and 600 pairs that hold duplicates, same-cluster pairs, an
//! address no prefix covers, a prefix attached to no cluster and a pair
//! whose strict tree misses its source (so the relaxed round runs).
//! Search counts are checked too: a batch that fits the cache runs what
//! the per-pair loop runs, plus the reverse searches of pairs whose
//! forward way cannot be routed, and fresh predictors fed the same
//! batches count the same, whatever the helper threads' timing. The
//! cases that need a smaller search cache than 512 trees are the
//! predictor's own unit tests.

use inano_atlas::Atlas;
use inano_bench::{Scenario, ScenarioConfig};
use inano_core::{PathPredictor, PredictedPath, PredictorConfig, SearchCounts};
use inano_model::{Ipv4, ModelError, PrefixId};
use std::sync::Arc;

const PAIRS: usize = 600;
/// How many pairs, from the front, the 1-, 2- and 4-pair batches cover.
const SMALL: usize = 24;

type Answer = Result<PredictedPath, ModelError>;

/// `got` equals `want` field by field: floats by bit pattern, errors by
/// their text.
fn assert_same(got: &Answer, want: &Answer, what: &str) {
    match (got, want) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.fwd_clusters, b.fwd_clusters, "{what}: fwd_clusters");
            assert_eq!(a.rev_clusters, b.rev_clusters, "{what}: rev_clusters");
            assert_eq!(a.fwd_as_path, b.fwd_as_path, "{what}: fwd_as_path");
            assert_eq!(a.rev_as_path, b.rev_as_path, "{what}: rev_as_path");
            assert_eq!(a.rtt.ms().to_bits(), b.rtt.ms().to_bits(), "{what}: rtt");
            let loss = |p: &PredictedPath| p.loss.rate().to_bits();
            assert_eq!(loss(a), loss(b), "{what}: loss");
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{what}"),
        _ => panic!("{what}: batch {got:?}, per pair {want:?}"),
    }
}

/// A world's atlas with its last homed prefix detached from its cluster,
/// and that prefix.
fn world(seed: u64) -> (Arc<Atlas>, PrefixId) {
    let mut atlas = Scenario::build(ScenarioConfig::test(seed)).atlas;
    let (&unhomed, _) = atlas
        .prefix_cluster
        .iter()
        .next_back()
        .expect("a homed prefix");
    atlas.prefix_cluster.remove(&unhomed);
    (Arc::new(atlas), unhomed)
}

/// The address `query` resolves to `prefix`.
fn ip_of(atlas: &Atlas, prefix: PrefixId) -> Ipv4 {
    atlas.prefix_as[&prefix].0.nth(1)
}

/// A one-way prediction whose strict search runs and reaches none of the
/// source's nodes, so the relaxed one runs after it — if `cfg` has a
/// relaxed graph and the world such a pair.
fn strict_miss(atlas: &Arc<Atlas>, cfg: &PredictorConfig) -> Option<(PrefixId, PrefixId)> {
    let homed: Vec<PrefixId> = atlas.prefix_cluster.keys().copied().collect();
    let probe = PathPredictor::new(Arc::clone(atlas), cfg.clone());
    let lookups = |c: SearchCounts| c.runs + c.cache_hits;
    homed.iter().step_by(3).find_map(|&src| {
        homed.iter().step_by(5).find_map(|&dst| {
            let before = probe.search_counts();
            let routed = probe.predict_forward(src, dst).is_ok();
            let after = probe.search_counts();
            let two = lookups(after) - lookups(before) == 2;
            (routed && two && after.strict_skipped == before.strict_skipped).then_some((src, dst))
        })
    })
}

/// The pairs every batch is cut from: the awkward ones first, then a
/// fixed spread over the atlas's prefixes.
fn pairs(
    atlas: &Arc<Atlas>,
    unhomed: PrefixId,
    miss: Option<(PrefixId, PrefixId)>,
) -> Vec<(Ipv4, Ipv4)> {
    let ips: Vec<Ipv4> = atlas.prefix_as.values().map(|(p, _)| p.nth(1)).collect();
    let trie = atlas.build_trie();
    let uncovered = (0..=u8::MAX)
        .map(|octet| Ipv4::from_octets(octet, 0, 0, 1))
        .find(|&ip| trie.lookup(ip).is_none())
        .expect("some /8 holds no prefix");
    // Two prefixes on one cluster.
    let mut by_cluster = std::collections::HashMap::new();
    let shared = atlas.prefix_cluster.iter().find_map(|(&p, c)| {
        let first = *by_cluster.entry(c).or_insert(p);
        (first != p).then_some((first, p))
    });
    let (a, b) = shared.expect("a cluster homes two prefixes");
    let (a, b) = (ip_of(atlas, a), ip_of(atlas, b));
    let unhomed = ip_of(atlas, unhomed);
    let mut out = Vec::new();
    if let Some((src, dst)) = miss {
        let (src, dst) = (ip_of(atlas, src), ip_of(atlas, dst));
        out.extend([(src, dst), (dst, src)]);
    }
    out.extend([
        (a, b),
        (a, b),
        (b, a),
        (a, a),
        (uncovered, a),
        (a, uncovered),
        (unhomed, b),
        (b, unhomed),
        (uncovered, unhomed),
    ]);
    let spread = (0..).map(|i| {
        (
            ips[(i * 7919) % ips.len()],
            ips[(i * 104_729 + 13) % ips.len()],
        )
    });
    out.extend(spread.take(PAIRS - out.len()));
    // Repeats from far apart in the big batch.
    out[PAIRS - 1] = out[0];
    out[PAIRS - 2] = out[SMALL + 3];
    out
}

/// Every batch a predictor is driven through, in order, each with the
/// index of its first pair.
fn batches(pairs: &[(Ipv4, Ipv4)]) -> Vec<(usize, &[(Ipv4, Ipv4)])> {
    let small = [1, 2, 4]
        .into_iter()
        .flat_map(|n| (0..SMALL).step_by(n).map(move |i| (i, &pairs[i..i + n])));
    small.chain([(0, pairs)]).collect()
}

#[test]
fn a_batch_answers_what_each_pair_answers_on_every_rung() {
    let mut relaxed_rounds = 0;
    for seed in [1, 7] {
        let (atlas, unhomed) = world(seed);
        for (rung, cfg) in PredictorConfig::ladder() {
            let miss = strict_miss(&atlas, &cfg);
            relaxed_rounds += usize::from(miss.is_some());
            let pairs = pairs(&atlas, unhomed, miss);
            let inline = PathPredictor::new(Arc::clone(&atlas), cfg.clone());
            let want: Vec<Answer> = pairs.iter().map(|&(s, d)| inline.query(s, d)).collect();
            let ok = want.iter().filter(|a| a.is_ok()).count();
            assert!(ok >= PAIRS / 20, "seed {seed} {rung}: {ok} answers routed");
            let errs = want.iter().filter_map(|a| a.as_ref().err());
            let texts: Vec<String> = errs.map(ToString::to_string).collect();
            for needle in ["unroutable", "no known cluster"] {
                let found = texts.iter().any(|t| t.to_lowercase().contains(needle));
                assert!(
                    found,
                    "seed {seed} {rung}: no `{needle}` error in {texts:?}"
                );
            }

            let batched = PathPredictor::new(Arc::clone(&atlas), cfg.clone());
            for (first, batch) in batches(&pairs) {
                let got = batched.query_batch(batch);
                assert_eq!(got.len(), batch.len());
                for (i, got) in (first..).zip(&got) {
                    let n = batch.len();
                    let what = format!("seed {seed} {rung}, batch of {n}, pair {i}");
                    assert_same(got, &want[i], &what);
                }
            }
        }
    }
    // Every rung with a relaxed graph found a pair for the second round.
    assert!(
        relaxed_rounds >= 2 * 3,
        "{relaxed_rounds} rungs ran a relaxed round"
    );
}

#[test]
fn a_batch_that_fits_the_cache_runs_what_the_per_pair_loop_runs() {
    let (atlas, unhomed) = world(1);
    let cfg = PredictorConfig::full();
    let miss = strict_miss(&atlas, &cfg);
    assert!(miss.is_some(), "the world has a pair for the relaxed round");
    let pairs = pairs(&atlas, unhomed, miss);
    let runs = |drive: &dyn Fn(&PathPredictor)| {
        let p = PathPredictor::new(Arc::clone(&atlas), cfg.clone());
        drive(&p);
        p.search_counts().runs
    };
    // `query` stops at a forward error; a batch plans both ways of
    // every pair whose addresses resolve.
    let looped = runs(&|p| {
        for &(s, d) in &pairs {
            let _ = p.query(s, d);
        }
    });
    let both_ways = runs(&|p| {
        for &(s, d) in &pairs {
            if let (Ok(s), Ok(d)) = (p.prefix_of(s), p.prefix_of(d)) {
                let _ = p.predict_forward(s, d);
                let _ = p.predict_forward(d, s);
            }
        }
    });
    assert!(both_ways <= 512, "{both_ways} runs: the loop evicted");
    assert!(looped < both_ways, "some forward way of the world fails");
    assert_eq!(
        runs(&|p| {
            p.query_batch(&pairs);
        }),
        both_ways
    );

    let routable: Vec<(Ipv4, Ipv4)> = {
        let p = PathPredictor::new(Arc::clone(&atlas), cfg.clone());
        let routed = |&&(s, d): &&(Ipv4, Ipv4)| p.query(s, d).is_ok();
        pairs.iter().filter(routed).copied().collect()
    };
    let looped = runs(&|p| {
        for &(s, d) in &routable {
            p.query(s, d).expect("routable");
        }
    });
    assert_eq!(
        runs(&|p| {
            p.query_batch(&routable);
        }),
        looped
    );
}

#[test]
fn predictors_fed_the_same_batches_count_the_same() {
    let (atlas, unhomed) = world(7);
    let cfg = PredictorConfig::full();
    let pairs = pairs(&atlas, unhomed, strict_miss(&atlas, &cfg));
    let counts = || {
        let p = PathPredictor::new(Arc::clone(&atlas), cfg.clone());
        // Twice: what was evicted, and when, decides what hits.
        for (_, batch) in batches(&pairs).into_iter().chain(batches(&pairs)) {
            p.query_batch(batch);
        }
        p.search_counts()
    };
    let first = counts();
    assert!(first.runs > 0 && first.cache_hits > 0, "{first:?}");
    // More than two: a count that moved with thread timing moves in some
    // runs, not all.
    for _ in 0..3 {
        assert_eq!(counts(), first);
    }
}
