//! Golden digests: what the predictor answers, pinned per ablation rung.
//!
//! FNV-1a over the `Debug` form of one fixed 600-pair `query_batch` at
//! `test` scale. The values were recorded with the pre-CSR search (the
//! one kept as the oracle in `crates/core/tests/search_reference.rs`),
//! after worlds became reproducible from their seed; a change to
//! `crates/core` that alters a cost must leave them alone, and one that
//! alters an answer must say so by editing them.
//!
//! The atlas bytes are pinned the same way: the full encoding and the
//! day 0→1 delta of the same world, with their per-section sizes. A
//! change to the codec that alters one byte must say so here.

use inano::atlas::{codec, AtlasDelta};
use inano::core::{PathPredictor, PredictorConfig};
use inano::model::Ipv4;
use inano_bench::{Scenario, ScenarioConfig};
use std::sync::Arc;

const PAIRS: usize = 600;

/// One digest per `PredictorConfig::ladder()` rung, in ladder order.
const GOLDEN: [u64; 5] = [
    0xa934_9f8f_034a_a07e,
    0x75bd_df07_45fb_19aa,
    0x685f_8805_aead_ed69,
    0x8f31_986a_4c4e_6bc5,
    0x5bfb_9305_57cb_180b,
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A fixed spread over the atlas's prefixes: strides co-prime with any
/// small prefix count, so sources and destinations both cycle widely.
fn pairs(s: &Scenario) -> Vec<(Ipv4, Ipv4)> {
    let ips: Vec<Ipv4> = s.atlas.prefix_as.values().map(|(p, _)| p.nth(1)).collect();
    (0..PAIRS)
        .map(|i| {
            (
                ips[(i * 7919) % ips.len()],
                ips[(i * 104_729 + 13) % ips.len()],
            )
        })
        .collect()
}

#[test]
fn answers_per_rung_match_the_recorded_digests() {
    let s = Scenario::build(ScenarioConfig::test(7));
    let pairs = pairs(&s);
    let atlas = Arc::new(s.atlas.clone());
    let got: Vec<u64> = PredictorConfig::ladder()
        .into_iter()
        .map(|(_, cfg)| {
            let answers = PathPredictor::new(Arc::clone(&atlas), cfg).query_batch(&pairs);
            fnv1a(format!("{answers:?}").as_bytes())
        })
        .collect();
    assert_eq!(got, GOLDEN, "got {got:#018x?}");
}

#[test]
fn answers_per_rung_match_the_recorded_digests_pair_by_pair() {
    // The same digests through per-pair `query`, which searches inline:
    // the batch executor and the inline one are pinned to one answer.
    let s = Scenario::build(ScenarioConfig::test(7));
    let pairs = pairs(&s);
    let atlas = Arc::new(s.atlas.clone());
    let got: Vec<u64> = PredictorConfig::ladder()
        .into_iter()
        .map(|(_, cfg)| {
            let p = PathPredictor::new(Arc::clone(&atlas), cfg);
            let answers: Vec<_> = pairs.iter().map(|&(src, dst)| p.query(src, dst)).collect();
            fnv1a(format!("{answers:?}").as_bytes())
        })
        .collect();
    assert_eq!(got, GOLDEN, "got {got:#018x?}");
}

#[test]
fn atlas_and_delta_bytes_match_the_recorded_digests() {
    let s = Scenario::build(ScenarioConfig::test(7));
    let (full, sizes) = codec::encode(&s.atlas);
    assert_eq!(
        (full.len(), fnv1a(&full), sizes.sizes),
        (
            6_643,
            0xae49_1b80_3c17_d058,
            [1727, 48, 471, 1489, 163, 1880, 319, 524]
        ),
    );
    let (delta, sizes) = AtlasDelta::between(&s.atlas, &s.atlas_for_day(1).1).encode();
    assert_eq!(
        (delta.len(), fnv1a(&delta), sizes),
        (1_822, 0xd93e_d747_b265_9c8d, [839, 48, 922]),
    );
}
