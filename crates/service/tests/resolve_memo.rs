//! A batch resolves each distinct address once (the probe's per-batch
//! memo), and that changes no answer: drawn from a small address set so
//! repeats are heavy, mixed with addresses outside every range and
//! addresses whose prefix has no cluster, at 1 to 4,096 pairs — some
//! with more distinct addresses than the memo has slots — every answer
//! and every error's text equals per-pair `PathPredictor::query`, and
//! `hits + misses + resolve errors == queries` exactly.
//!
//! Two engines take turns on this one thread, and an address that fails
//! to resolve on one resolves on the other, so a memo slot that outlived
//! its batch would show as a wrong answer.

use inano_atlas::Atlas;
use inano_core::{PathPredictor, PredictedPath, PredictorConfig};
use inano_model::{Asn, ClusterId, Ipv4, ModelError, Prefix, PrefixId};
use inano_service::{QueryEngine, ServiceConfig, SharedResult};
use proptest::prelude::*;
use std::sync::Arc;

#[path = "common/ring.rs"]
mod ring;
use ring::ring_atlas;

const RING: u32 = 24;
/// Prefix id and /16 of the prefix that is homeless (no cluster) in the
/// first engine's atlas and on ring cluster 3 in the second's.
const NOMAD: u32 = 200;

/// The ring with [`NOMAD`]'s prefix recorded, homed on `home` if any.
fn atlas(home: Option<u32>) -> Atlas {
    let mut a = ring_atlas(RING, 0);
    a.prefix_as.insert(
        PrefixId::new(NOMAD),
        (
            Prefix::new(Ipv4(NOMAD << 16), 16),
            Asn::new(home.unwrap_or(NOMAD)),
        ),
    );
    if let Some(cluster) = home {
        a.prefix_cluster
            .insert(PrefixId::new(NOMAD), ClusterId::new(cluster));
    }
    a
}

/// An address drawn from `x`: mostly a ring cluster's, one in sixteen
/// outside every range, one in sixteen in [`NOMAD`]'s /16; its low 16
/// bits take one of `spread` values.
fn address(x: u32, spread: u32) -> Ipv4 {
    let low = (x >> 9) % spread;
    match x % 16 {
        0 => Ipv4(0xff00_0000 | low),
        1 => Ipv4(NOMAD << 16 | low),
        _ => Ipv4(((x >> 4) % RING) << 16 | low),
    }
}

/// `n` pairs from `seed` (splitmix64), every address through
/// [`address`].
fn batch(seed: u64, n: usize, spread: u32) -> Vec<(Ipv4, Ipv4)> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            let x = next();
            (address(x as u32, spread), address((x >> 32) as u32, spread))
        })
        .collect()
}

/// The same answer, every float compared by its bits and every error by
/// its text.
fn same(got: &SharedResult, want: &Result<PredictedPath, ModelError>) -> bool {
    match (got, want) {
        (Ok(a), Ok(b)) => {
            a.fwd_clusters == b.fwd_clusters
                && a.rev_clusters == b.rev_clusters
                && a.fwd_as_path == b.fwd_as_path
                && a.rev_as_path == b.rev_as_path
                && a.rtt.ms().to_bits() == b.rtt.ms().to_bits()
                && a.loss.rate().to_bits() == b.loss.rate().to_bits()
        }
        (Err(a), Err(b)) => a == b && a.to_string() == b.to_string(),
        _ => false,
    }
}

/// One engine and the library predictor over the same atlas.
struct Side {
    engine: QueryEngine,
    library: PathPredictor,
}

impl Side {
    fn new(home: Option<u32>) -> Side {
        let atlas = Arc::new(atlas(home));
        Side {
            engine: QueryEngine::new(Arc::clone(&atlas), ServiceConfig::default()),
            library: PathPredictor::new(atlas, PredictorConfig::full()),
        }
    }

    fn check(&self, what: &str, pairs: &[(Ipv4, Ipv4)]) {
        let m = self.engine.metrics();
        let before = (m.queries.get(), m.cache_hits.get(), m.cache_misses.get());
        let got = self.engine.query_batch_shared(pairs);
        assert_eq!(got.len(), pairs.len(), "{what}: one answer per pair");
        let mut unresolved = 0;
        for (i, (&(s, d), got)) in pairs.iter().zip(&got).enumerate() {
            let want = self.library.query(s, d);
            assert!(
                same(got, &want),
                "{what}: pair {i} {s}→{d}: got {got:?}, want {want:?}"
            );
            let resolves = self.library.resolve(s).is_ok() && self.library.resolve(d).is_ok();
            unresolved += u64::from(!resolves);
        }
        let queries = m.queries.get() - before.0;
        let probed = (m.cache_hits.get() - before.1) + (m.cache_misses.get() - before.2);
        assert_eq!(queries, pairs.len() as u64, "{what}: one query per pair");
        assert_eq!(
            probed + unresolved,
            queries,
            "{what}: hits + misses + resolve errors == queries"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_memo_changes_no_answer(
        seed in any::<u64>(),
        len in 1usize..4097,
        scale in 0u32..3,
        spread_at in 0usize..3,
    ) {
        // Whole, a thirty-second of, and a thousandth of up to 4,096
        // pairs; two or sixteen addresses per /16, or 8,192, which puts
        // more distinct addresses in a long batch than the memo's 4,096
        // slots.
        let n = (len >> (5 * scale)).max(1);
        let spread = [2, 16, 8192][spread_at];
        let pairs = batch(seed, n, spread);
        let (homeless, homed) = sides();
        homeless.check(&format!("homeless, {n} pairs, spread {spread}"), &pairs);
        homed.check(&format!("homed, {n} pairs, spread {spread}"), &pairs);
        // The same batch again: the engines' caches are warm for it now.
        homeless.check(&format!("homeless again, {n} pairs"), &pairs);
    }
}

/// The two engines, shared by every case so their caches carry over:
/// [`NOMAD`]'s prefix is homeless on the first and homed on the second.
fn sides() -> &'static (Side, Side) {
    static SIDES: std::sync::OnceLock<(Side, Side)> = std::sync::OnceLock::new();
    SIDES.get_or_init(|| (Side::new(None), Side::new(Some(3))))
}

#[test]
fn the_drawn_addresses_cover_every_kind() {
    let (homeless, homed) = sides();
    let pairs = batch(7, 4096, 8192);
    let distinct: std::collections::HashSet<Ipv4> =
        pairs.iter().flat_map(|&(s, d)| [s, d]).collect();
    assert!(
        distinct.len() > 4096,
        "{} distinct addresses",
        distinct.len()
    );
    let kinds = |p: &PathPredictor| {
        let (mut unroutable, mut no_home, mut resolved) = (0, 0, 0);
        for &ip in &distinct {
            match p.resolve(ip) {
                Ok(_) => resolved += 1,
                Err(ModelError::UnroutableAddress(_)) => unroutable += 1,
                Err(_) => no_home += 1,
            }
        }
        (unroutable, no_home, resolved)
    };
    let (unroutable, no_home, resolved) = kinds(&homeless.library);
    assert!(unroutable > 0 && no_home > 0 && resolved > 0);
    let (_, no_home_homed, _) = kinds(&homed.library);
    assert_eq!(
        no_home_homed, 0,
        "the nomad prefix resolves where it is homed"
    );
}
