//! Everything a run measures is made here, from the seed alone: the
//! scenario atlases (one per served day, already through the codec so
//! every party sees the quantised values), the daily deltas between
//! them, and a fixed-size pool of query pairs validated routable on
//! every day — each with the answer a fresh in-process
//! [`PathPredictor`] gives, which is the oracle the correctness gate
//! compares against.

use inano_atlas::{codec, Atlas, AtlasDelta};
use inano_bench::{Scenario, ScenarioConfig};
use inano_core::{PathPredictor, PredictedPath, PredictorConfig};
use inano_measure::{CampaignConfig, ClusteringConfig};
use inano_model::Ipv4;
use inano_net::WirePath;
use inano_topology::TopologyConfig;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

pub type Pair = (Ipv4, Ipv4);

/// SplitMix64: the benchmark's own generator, so the request stream is
/// a pure function of the seed whatever happens to the workspace's
/// `rand` stand-in.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream per (seed, purpose) — FNV-1a folds the
    /// salt in, as `inano_model::rng::rng_for` does.
    pub fn new(seed: u64, salt: &str) -> SplitMix64 {
        let mut h = Fnv1a::default();
        h.write_u64(seed);
        h.write(salt.as_bytes());
        SplitMix64(h.0)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these `n` is
    /// below 2⁻⁴⁰).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// 64-bit FNV-1a, for the workload fingerprint.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// zipf(s = 1.0) over ranks `0..n`: rank r has weight 1/(r+1).
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        assert!(n > 0, "zipf over an empty range");
        let mut acc = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                acc += 1.0 / (r as f64 + 1.0);
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let pick = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= pick)
            .min(self.cumulative.len() - 1)
    }
}

/// One prediction, flattened so that a library answer and a wire
/// answer compare field by field (floats by bit pattern: the wire
/// carries them exactly).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    pub fwd_clusters: Vec<u32>,
    pub rev_clusters: Vec<u32>,
    pub fwd_as: Vec<u32>,
    pub rev_as: Vec<u32>,
    pub rtt_bits: u64,
    pub loss_bits: u64,
}

impl From<&PredictedPath> for Answer {
    fn from(p: &PredictedPath) -> Answer {
        Answer {
            fwd_clusters: p.fwd_clusters.iter().map(|c| c.raw()).collect(),
            rev_clusters: p.rev_clusters.iter().map(|c| c.raw()).collect(),
            fwd_as: p.fwd_as_path.iter().map(|a| a.raw()).collect(),
            rev_as: p.rev_as_path.iter().map(|a| a.raw()).collect(),
            rtt_bits: p.rtt.ms().to_bits(),
            loss_bits: p.loss.rate().to_bits(),
        }
    }
}

impl From<&WirePath> for Answer {
    fn from(p: &WirePath) -> Answer {
        Answer {
            fwd_clusters: p.fwd_clusters.clone(),
            rev_clusters: p.rev_clusters.clone(),
            fwd_as: p.fwd_as.clone(),
            rev_as: p.rev_as.clone(),
            rtt_bits: p.rtt_ms.to_bits(),
            loss_bits: p.loss.to_bits(),
        }
    }
}

/// How pool destinations are drawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DstDraw {
    /// zipf(1.0) by prefix rank: few popular destinations, so the
    /// result cache answers almost everything.
    Zipf,
    /// Walk a seeded shuffle of all prefixes: as many distinct
    /// destinations as the pool has room for, so caches miss.
    Spread,
}

/// The validated query pool.
pub struct Pool {
    pub pairs: Vec<Pair>,
    /// `answers[d][i]`: what a fresh predictor over day `d`'s atlas
    /// answers for `pairs[i]`.
    pub answers: Vec<Vec<Answer>>,
    pub distinct_dsts: usize,
    /// Candidate draws it took (accepted + rejected + duplicates).
    pub draws: usize,
}

/// Candidates validated per round; a round is split across the
/// validation threads and the pool stops growing at the first round
/// that fills it.
const ROUND: usize = 512;

/// Draw and validate the pool. A candidate is accepted when a scratch
/// predictor answers it on *every* day in `days`; each distinct pair
/// is validated once (memoised), and the accepted pool is the first
/// `size` acceptable candidates in draw order — so it does not depend
/// on how many threads validated.
pub fn build_pool(
    days: &[Arc<Atlas>],
    size: usize,
    draw: DstDraw,
    seed: u64,
    threads: usize,
) -> Pool {
    let ips = prefix_ips(&days[0]);
    assert!(ips.len() > 2, "atlas exposes too few prefixes to query");
    let mut rng = SplitMix64::new(seed, "pool");
    let zipf = Zipf::new(ips.len());
    let mut order: Vec<usize> = (0..ips.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut walk = 0usize;

    let mut memo: HashMap<Pair, Option<Vec<Answer>>> = HashMap::new();
    let mut pool = Pool {
        pairs: Vec::with_capacity(size),
        answers: vec![Vec::with_capacity(size); days.len()],
        distinct_dsts: 0,
        draws: 0,
    };
    // Bounded: a degenerate atlas fails loudly instead of spinning.
    let max_draws = size * 64;
    while pool.pairs.len() < size {
        assert!(
            pool.draws < max_draws,
            "atlas too sparse: {} of {size} pool pairs after {} draws",
            pool.pairs.len(),
            pool.draws
        );
        let candidates: Vec<Pair> = (0..ROUND)
            .map(|_| {
                let src = ips[rng.below(ips.len())];
                let dst = match draw {
                    DstDraw::Zipf => ips[zipf.sample(&mut rng)],
                    DstDraw::Spread => {
                        walk += 1;
                        ips[order[walk % order.len()]]
                    }
                };
                (src, dst)
            })
            .collect();
        let mut fresh: Vec<Pair> = Vec::new();
        let mut queued: HashSet<Pair> = HashSet::new();
        for &c in &candidates {
            if c.0 != c.1 && !memo.contains_key(&c) && queued.insert(c) {
                fresh.push(c);
            }
        }
        for (pair, verdict) in validate(days, &fresh, threads) {
            memo.insert(pair, verdict);
        }
        for c in candidates {
            pool.draws += 1;
            if pool.pairs.len() == size {
                break;
            }
            if let Some(Some(per_day)) = memo.get(&c) {
                pool.pairs.push(c);
                for (d, a) in per_day.iter().enumerate() {
                    pool.answers[d].push(a.clone());
                }
            }
        }
    }
    pool.distinct_dsts = pool.pairs.iter().map(|p| p.1).collect::<HashSet<_>>().len();
    pool
}

/// Answer every pair on every day with per-thread scratch predictors;
/// `None` when any day cannot route it.
fn validate(
    days: &[Arc<Atlas>],
    pairs: &[Pair],
    threads: usize,
) -> Vec<(Pair, Option<Vec<Answer>>)> {
    let threads = threads.clamp(1, pairs.len().max(1));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let scratch: Vec<PathPredictor> = days
                        .iter()
                        .map(|a| PathPredictor::new(Arc::clone(a), PredictorConfig::full()))
                        .collect();
                    pairs
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|&(s, d)| {
                            let per_day: Option<Vec<Answer>> = scratch
                                .iter()
                                .map(|p| p.query(s, d).ok().map(|path| Answer::from(&path)))
                                .collect();
                            ((s, d), per_day)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("validation thread"))
            .collect()
    })
}

/// One representative address per atlas prefix, in prefix-id order —
/// the ranking zipf draws over.
pub fn prefix_ips(atlas: &Atlas) -> Vec<Ipv4> {
    atlas
        .prefix_as
        .values()
        .map(|&(prefix, _)| prefix.nth(1))
        .collect()
}

/// Scenario scale of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// `ScenarioConfig::test`: ≈290 prefixes.
    Test,
    /// `TopologyConfig::scaled(0.25)`, 30 VPs / 40 agents: ≈1.4k
    /// prefixes.
    Mid,
    /// `ScenarioConfig::experiment`: ≈2.9k prefixes.
    Experiment,
}

fn scenario_config(scale: Scale, seed: u64) -> ScenarioConfig {
    match scale {
        Scale::Test => ScenarioConfig::test(seed),
        Scale::Experiment => ScenarioConfig::experiment(seed),
        Scale::Mid => {
            let mut topo = TopologyConfig::scaled(0.25);
            topo.seed = seed;
            ScenarioConfig {
                seed,
                topo,
                clustering: ClusteringConfig {
                    seed,
                    ..ClusteringConfig::default()
                },
                campaign: CampaignConfig {
                    seed,
                    traceroutes_per_agent: 100,
                    ..CampaignConfig::default()
                },
                n_vps: 30,
                n_agents: 40,
            }
        }
    }
}

/// The generated world of one run.
pub struct World {
    /// Day 0 as shipped: the encoded atlas every cold start begins at.
    pub bytes: Vec<u8>,
    /// `days[d]`: the atlas a party holds after decoding `bytes` and
    /// applying `deltas[..d]` — what is actually served on day `d`.
    pub days: Vec<Arc<Atlas>>,
    /// `deltas[d]` turns day `d` into day `d + 1` (codec round-tripped,
    /// so origin and mirror apply identical values).
    pub deltas: Vec<AtlasDelta>,
    /// Encoded size of each delta.
    pub delta_bytes: Vec<usize>,
}

/// Build the scenario and its atlases for days `0..=last_day`, the
/// later days' campaigns fanned over `threads`.
pub fn build_world(scale: Scale, seed: u64, last_day: u32, threads: usize) -> World {
    let sc = Scenario::build(scenario_config(scale, seed));
    let (bytes, _) = codec::encode(&sc.atlas);
    let day0 = Arc::new(codec::decode(&bytes).expect("own encoding decodes"));

    let later: Vec<u32> = (1..=last_day).collect();
    let threads = threads.clamp(1, later.len().max(1));
    let mut measured: Vec<(u32, Atlas)> = std::thread::scope(|scope| {
        let sc = &sc;
        let later = &later;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    later
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|&d| (d, sc.atlas_for_day(d).1))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("campaign thread"))
            .collect()
    });
    measured.sort_by_key(|&(d, _)| d);

    let mut world = World {
        bytes,
        days: vec![day0],
        deltas: Vec::new(),
        delta_bytes: Vec::new(),
    };
    for (_, fresh) in measured {
        let base = world.days.last().expect("day 0 present");
        let (encoded, _) = AtlasDelta::between(base, &fresh).encode();
        let delta = AtlasDelta::decode(&encoded).expect("own delta decodes");
        let next = delta.apply(base).expect("delta applies to its base");
        world.days.push(Arc::new(next));
        world.delta_bytes.push(encoded.len());
        world.deltas.push(delta);
    }
    world
}

/// Fingerprint of a run's inputs: atlas shape of every served day, the pool,
/// and the head of each load thread's index stream. A changed topology
/// or campaign generator changes this, so it is read as a changed
/// input rather than as a performance change.
pub fn workload_tag(days: &[Arc<Atlas>], pool: &Pool, stream_heads: &[Vec<u32>]) -> u64 {
    let mut h = Fnv1a::default();
    for atlas in days {
        h.write_u64(atlas.links.len() as u64);
        h.write_u64(atlas.tuples.len() as u64);
        h.write_u64(atlas.prefix_as.len() as u64);
    }
    for &(s, d) in &pool.pairs {
        h.write_u64(((s.0 as u64) << 32) | d.0 as u64);
    }
    for head in stream_heads {
        for &i in head {
            h.write_u64(i as u64);
        }
    }
    h.0
}

/// Pool indices a load thread asks for, in order: uniform over the
/// pool, one independent stream per thread.
pub struct IndexStream {
    rng: SplitMix64,
    pool_len: usize,
}

impl IndexStream {
    pub fn new(seed: u64, thread: usize, pool_len: usize) -> IndexStream {
        IndexStream {
            rng: SplitMix64::new(seed, &format!("stream-{thread}")),
            pool_len,
        }
    }

    pub fn next_index(&mut self) -> u32 {
        self.rng.below(self.pool_len) as u32
    }

    /// The first `n` indices this (seed, thread) stream yields, for the
    /// fingerprint.
    pub fn head(seed: u64, thread: usize, pool_len: usize, n: usize) -> Vec<u32> {
        let mut s = IndexStream::new(seed, thread, pool_len);
        (0..n).map(|_| s.next_index()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_a_pure_function_of_seed_and_salt() {
        let draw = |seed, salt| {
            let mut r = SplitMix64::new(seed, salt);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "pool"), draw(7, "pool"));
        assert_ne!(draw(7, "pool"), draw(8, "pool"));
        assert_ne!(draw(7, "pool"), draw(7, "stream-0"));
        let mut r = SplitMix64::new(1, "x");
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = Zipf::new(100);
        let mut rng = SplitMix64::new(3, "zipf");
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 carries 1/H(100) ≈ 19% of the mass, rank 99 ≈ 0.19%.
        assert!(counts[0] > 3_000 && counts[0] < 4_700, "{}", counts[0]);
        assert!(counts[0] > 5 * counts[9]);
        assert!(counts[99] < 120);
    }

    #[test]
    fn index_streams_repeat_per_seed_and_differ_per_thread() {
        assert_eq!(
            IndexStream::head(5, 0, 4096, 64),
            IndexStream::head(5, 0, 4096, 64)
        );
        assert_ne!(
            IndexStream::head(5, 0, 4096, 64),
            IndexStream::head(5, 1, 4096, 64)
        );
        assert_ne!(
            IndexStream::head(5, 0, 4096, 64),
            IndexStream::head(6, 0, 4096, 64)
        );
        assert!(IndexStream::head(5, 0, 10, 200).iter().all(|&i| i < 10));
    }

    #[test]
    fn pool_is_seeded_validated_and_thread_count_independent() {
        let world = build_world(Scale::Test, 11, 1, 2);
        assert_eq!(world.days.len(), 2);
        assert_eq!(world.deltas.len(), 1);
        assert_eq!(world.days[1].day, 1);
        let a = build_pool(&world.days, 96, DstDraw::Zipf, 11, 1);
        let b = build_pool(&world.days, 96, DstDraw::Zipf, 11, 2);
        assert_eq!(a.pairs, b.pairs, "pool must not depend on thread count");
        assert_eq!(a.answers, b.answers);
        assert_eq!(a.pairs.len(), 96);
        assert_eq!(a.answers.len(), 2);
        let c = build_pool(&world.days, 96, DstDraw::Zipf, 12, 1);
        assert_ne!(a.pairs, c.pairs, "another seed draws another pool");

        // Every pool pair routes on every day, and the stored oracle
        // answer is what a fresh predictor says.
        for (d, atlas) in world.days.iter().enumerate() {
            let p = PathPredictor::new(Arc::clone(atlas), PredictorConfig::full());
            for (i, &(s, t)) in a.pairs.iter().enumerate() {
                let got = p.query(s, t).expect("pool pair routes");
                assert_eq!(Answer::from(&got), a.answers[d][i]);
            }
        }

        let spread = build_pool(&world.days[..1], 96, DstDraw::Spread, 11, 2);
        assert!(spread.distinct_dsts > a.distinct_dsts);

        let heads = vec![IndexStream::head(11, 0, 96, 16)];
        assert_eq!(
            workload_tag(&world.days, &a, &heads),
            workload_tag(&world.days, &b, &heads)
        );
        assert_ne!(
            workload_tag(&world.days, &a, &heads),
            workload_tag(&world.days, &c, &heads)
        );
    }
}
