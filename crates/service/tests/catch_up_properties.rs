//! The one catch-up policy as a stateful property, run through both of
//! its followers: `INanoClient::update` and `QueryEngine::update`.
//!
//! An upstream that starts on day 0 publishes a fixed run of
//! generations: days 0 → 1 → 2 by delta, then another day-2 body in
//! place of that chain (a same-day replacement), day 3 by a delta
//! leaving the replacement — a day a follower may still hold the
//! chain's other body of — and last a day-0 body in place of it all
//! (an older head). What is drawn is when each one lands — between two updates,
//! or inside one, before its head probe or its n-th chunk — and at most
//! one fault per update: a chunk that fails once or arrives corrupted,
//! a head (and so every delta of its chain) named by wrong tags, or
//! chunks that stay down for the rest of the update. A misnamed head
//! may be any head the update reads, a restart's included. Apart from the
//! fault, an update's second chunk call may race — answer as if its
//! body had just been replaced, which on a chain walk is the call after
//! the first delta landed (every delta here is one chunk). A race is no
//! fault: the follower must plan again from the body it holds by then.
//! Each follower runs the whole script on its own upstream, and after
//! every update:
//!
//! 1. its day and tag are those of a generation the upstream published;
//! 2. its answers are `PathPredictor::query`'s on that generation, bit
//!    for bit;
//! 3. its day falls only by a resync (an update that fetched full-body
//!    chunks);
//! 4. the bytes it moved stay under what the heads it read let it
//!    fetch ([`World::byte_bound`]), and are none when it already held
//!    the head and nothing was published and no fault scripted;
//! 5. after a fault-free tail — an update with nothing published and
//!    no fault scripted (it may race), such as the one that ends every
//!    script — it holds the head's body.
//!
//! Every update with no fault scripted succeeds.
//!
//! The proptest stand-in derives its seed from the test name, so a
//! failing case replays as it failed.

use inano_atlas::{codec, Atlas, AtlasDelta, LinkAnnotation, Plane};
use inano_core::{
    content_tag, INanoClient, PathPredictor, PredictedPath, PredictorConfig, Scripted,
    StaticSource, Step,
};
use inano_model::{ClusterId, LatencyMs, ModelError};
use inano_service::{QueryEngine, ServiceConfig};
use proptest::prelude::*;
use std::cell::Cell;
use std::rc::Rc;

#[path = "common/ring.rs"]
mod ring;
use ring::{ring_atlas, ring_ip};

const RING: u32 = 8;
/// Small enough that every body takes several chunks.
const CHUNK: u32 = 64;
/// Publications: day 0 → 1, day 1 → 2, the day-2 replacement, day
/// 2′ → 3, and the older head.
const PUBLICATIONS: usize = 5;

/// The ring with a two-way chord `a ↔ b` for each of `chords`.
fn chorded(day: u32, chords: &[(u32, u32)]) -> Atlas {
    let mut atlas = ring_atlas(RING, day);
    for &(a, b) in chords {
        for link in [(a, b), (b, a)] {
            let annotation = LinkAnnotation {
                latency: Some(LatencyMs::new(0.3)),
                plane: Plane::TO_DST,
            };
            let link = (ClusterId::new(link.0), ClusterId::new(link.1));
            atlas.links.insert(link, annotation);
        }
    }
    atlas
}

/// One generation the upstream publishes.
struct Generation {
    day: u32,
    body: Vec<u8>,
    tag: u64,
    predictor: PathPredictor,
}

/// Every generation in publication order, and for each publication
/// the delta leading to it (`None`: it replaces the chain).
struct World {
    generations: Vec<Generation>,
    leading: [Option<Vec<u8>>; PUBLICATIONS],
}

impl World {
    fn new() -> World {
        let atlases = [
            chorded(0, &[]),
            chorded(1, &[(0, 4)]),
            chorded(2, &[(0, 4), (2, 6)]),
            chorded(2, &[(1, 5)]),
            chorded(3, &[(1, 5), (3, 7)]),
            chorded(0, &[(3, 7)]),
        ];
        let delta = |to: usize| {
            Some(
                AtlasDelta::between(&atlases[to - 1], &atlases[to])
                    .encode()
                    .0,
            )
        };
        let leading = [delta(1), delta(2), None, delta(4), None];
        let generations = atlases
            .into_iter()
            .map(|atlas| {
                // A generation is its body: the atlas as it decodes.
                let body = codec::encode(&atlas).0;
                let atlas = codec::decode(&body).expect("decodes");
                Generation {
                    day: atlas.day,
                    tag: content_tag(&body),
                    body,
                    predictor: PathPredictor::new(atlas.into(), PredictorConfig::full()),
                }
            })
            .collect();
        World {
            generations,
            leading,
        }
    }

    /// Publication `i` on `upstream`: the next generation becomes its
    /// head, after a delta leading there or in place of every delta.
    fn publication(&self, i: usize) -> impl FnOnce(&mut StaticSource) + 'static {
        let full = self.generations[i + 1].body.clone();
        let delta = self.leading[i].clone();
        move |upstream: &mut StaticSource| upstream.publish(full, delta)
    }

    /// The largest body, and every delta ever published.
    fn sizes(&self) -> (u64, u64) {
        let full = self.generations.iter().map(|g| g.body.len()).max();
        let chain: usize = self.leading.iter().flatten().map(Vec::len).sum();
        (full.unwrap_or(0) as u64, chain as u64)
    }

    /// What the bytes of an update that read `heads` heads stay under.
    ///
    /// Each head plans one pass, and a pass fetches one full body or a
    /// run of the head's chain, never both: at most the largest body or
    /// every delta ever published, whichever is more. A race or a
    /// misnamed body ends the pass and the next head starts over, so the
    /// passes add up. A failed or down chunk moves no bytes; a corrupt
    /// one moves its bytes twice, and an update has one fault, so one
    /// chunk is added once.
    fn byte_bound(&self, heads: usize) -> u64 {
        let (full, chain) = self.sizes();
        heads as u64 * full.max(chain) + u64::from(CHUNK)
    }
}

/// Where inside an update a publication lands.
#[derive(Clone, Copy, Debug)]
enum At {
    Head,
    Chunk(usize),
}

#[derive(Clone, Copy, Debug)]
enum Fault {
    FailChunk(usize),
    CorruptChunk(usize),
    /// The n-th head, and so every delta of its chain.
    MisnameHead(usize),
    ChunksDown(usize),
}

/// One update's script: the publications that land before it, the one
/// that lands inside it, its fault, and whether its second chunk call
/// races.
#[derive(Debug, Default)]
struct Round {
    before: Vec<usize>,
    during: Option<(usize, At)>,
    fault: Option<Fault>,
    race: bool,
}

prop_compose! {
    fn arb_rounds()(
        gaps in proptest::collection::vec(0usize..3, PUBLICATIONS..PUBLICATIONS + 1),
        moments in proptest::collection::vec(0u32..8, PUBLICATIONS..PUBLICATIONS + 1),
        faults in proptest::collection::vec((0u32..8, 0usize..4), 12..13),
        races in proptest::collection::vec(0u32..2, 12..13),
        extra in 0usize..3,
    ) -> Vec<Round> {
        let mut rounds: Vec<Round> = Vec::new();
        let mut at = 0;
        for (i, (gap, moment)) in gaps.into_iter().zip(moments).enumerate() {
            at += gap;
            rounds.resize_with(rounds.len().max(at + 1), Round::default);
            let round = &mut rounds[at];
            // Within one update, every publication but the last lands
            // before it, so they land in order.
            if let Some((earlier, _)) = round.during.take() {
                round.before.push(earlier);
            }
            round.during = match moment {
                0 => {
                    round.before.push(i);
                    None
                }
                1 => Some((i, At::Chunk(2))),
                2 => Some((i, At::Chunk(5))),
                3 | 4 => Some((i, At::Head)),
                5 => Some((i, At::Chunk(0))),
                6 => Some((i, At::Chunk(1))),
                _ => Some((i, At::Chunk(3))),
            };
        }
        rounds.resize_with(rounds.len() + extra, Round::default);
        for ((round, (kind, k)), race) in rounds.iter_mut().zip(faults).zip(races) {
            round.race = race == 0;
            round.fault = match kind {
                3 => Some(Fault::FailChunk(k)),
                4 => Some(Fault::CorruptChunk(k)),
                5 | 6 => Some(Fault::MisnameHead(k)),
                7 => Some(Fault::ChunksDown(k)),
                _ => None,
            };
        }
        rounds
    }
}

/// Put `step` at call `at` of `script`, passing the calls before it.
fn place<R>(
    script: &mut inano_core::source::Script<StaticSource, R>,
    at: usize,
    step: Step<StaticSource, R>,
) {
    while script.len() < at {
        script.push_back(Step::Pass);
    }
    script.insert(at, step);
}

/// The two followers, behind what the property reads of them.
enum Peer {
    Client(INanoClient),
    Engine(QueryEngine),
}

impl Peer {
    fn update(&mut self, upstream: &mut Scripted<StaticSource>) -> Result<usize, ModelError> {
        match self {
            Peer::Client(client) => client.update(upstream),
            Peer::Engine(engine) => engine.update(upstream),
        }
    }

    /// Day and tag of the atlas it answers from. A client that added no
    /// links of its own answers from the upstream body it holds.
    fn holds(&self) -> (u32, u64) {
        match self {
            Peer::Client(client) => (client.day(), content_tag(&codec::encode(client.atlas()).0)),
            Peer::Engine(engine) => (engine.day(), engine.export().tag()),
        }
    }

    fn answers(&self, pairs: &[(u32, u32)]) -> Vec<String> {
        pairs
            .iter()
            .map(|&(s, d)| {
                let (s, d) = (ring_ip(s), ring_ip(d));
                bits(&match self {
                    Peer::Client(client) => client.predictor().query(s, d),
                    Peer::Engine(engine) => engine.query(s, d),
                })
            })
            .collect()
    }
}

/// An answer field by field, floats by their bits.
fn bits(answer: &Result<PredictedPath, ModelError>) -> String {
    match answer {
        Ok(p) => format!(
            "{:?} {:?} {:?} {:?} {:x} {:x}",
            p.fwd_clusters,
            p.rev_clusters,
            p.fwd_as_path,
            p.rev_as_path,
            p.rtt.ms().to_bits(),
            p.loss.rate().to_bits()
        ),
        Err(e) => format!("{e:?}"),
    }
}

/// Run `rounds` and the fault-free tail against one follower, checking
/// the five properties after every update.
fn follow(world: &World, rounds: &[Round], engine: bool) {
    let who = if engine { "engine" } else { "client" };
    let mut upstream = Scripted::new(StaticSource {
        chunk_size: CHUNK,
        ..StaticSource::new(world.generations[0].body.clone(), vec![])
    });
    let mut peer = if engine {
        Peer::Engine(
            QueryEngine::bootstrap(&mut upstream, ServiceConfig::default()).expect("bootstrap"),
        )
    } else {
        Peer::Client(
            INanoClient::bootstrap(&mut upstream, PredictorConfig::full()).expect("bootstrap"),
        )
    };
    let pairs: Vec<(u32, u32)> = (0..RING)
        .flat_map(|s| (0..RING).filter(move |&d| d != s).map(move |d| (s, d)))
        .collect();
    let tail = Round::default();
    // Index of the upstream's head in `world.generations`.
    let mut head = 0;
    for (r, round) in rounds.iter().chain([&tail]).enumerate() {
        upstream.clear();
        for &i in &round.before {
            world.publication(i)(&mut upstream.inner);
            head = i + 1;
        }
        let fired = Rc::new(Cell::new(false));
        if let Some((i, at)) = round.during {
            let (publish, flag) = (world.publication(i), Rc::clone(&fired));
            let then = Box::new(move |upstream: &mut StaticSource| {
                publish(upstream);
                flag.set(true);
            });
            match at {
                At::Head => place(&mut upstream.heads, 0, Step::Then(then)),
                At::Chunk(k) => place(&mut upstream.chunks, k, Step::Then(then)),
            }
        }
        match round.fault {
            None => {}
            Some(Fault::FailChunk(k)) => {
                let lost = ModelError::Decode("chunk lost".into());
                place(&mut upstream.chunks, k, Step::Answer(Err(lost)));
            }
            Some(Fault::CorruptChunk(k)) => place(&mut upstream.chunks, k, Step::Misname),
            Some(Fault::MisnameHead(k)) => place(&mut upstream.heads, k, Step::Misname),
            Some(Fault::ChunksDown(k)) => {
                let down = ModelError::Decode("upstream down".into());
                place(&mut upstream.chunks, k, Step::Down(down));
            }
        }
        if round.race {
            let raced = ModelError::VersionRaced("body replaced".into());
            place(&mut upstream.chunks, 1, Step::Answer(Err(raced)));
        }
        let quiet = round.before.is_empty() && round.during.is_none() && round.fault.is_none();
        let was = peer.holds();
        let served = upstream.served;
        let outcome = peer.update(&mut upstream);
        if let Some((i, _)) = round.during {
            if !fired.get() {
                // The update never reached its moment: it lands after.
                world.publication(i)(&mut upstream.inner);
            }
            head = i + 1;
        }
        let now = peer.holds();
        let ctx = format!("{who}, round {r} of {rounds:?}: {outcome:?}");
        if round.fault.is_none() {
            assert!(outcome.is_ok(), "a fault-free update succeeds; {ctx}");
        }

        // 1. A generation the upstream published.
        let held = world.generations[..=head]
            .iter()
            .find(|g| (g.day, g.tag) == now);
        let held = held.unwrap_or_else(|| panic!("holds {now:?}, never published; {ctx}"));
        // 2. Answers as the library gives them on that generation.
        let want: Vec<String> = pairs
            .iter()
            .map(|&(s, d)| bits(&held.predictor.query(ring_ip(s), ring_ip(d))))
            .collect();
        assert_eq!(peer.answers(&pairs), want, "answers; {ctx}");
        // 3. Backwards only by a resync.
        if now.0 < was.0 {
            let full = upstream.served.full_chunks - served.full_chunks;
            assert!(
                full > 0,
                "day {} → {} without a resync; {ctx}",
                was.0,
                now.0
            );
        }
        // 4. Bytes moved.
        let moved = upstream.served.bytes - served.bytes;
        let heads = upstream.served.heads - served.heads;
        assert!(
            moved <= world.byte_bound(heads),
            "moved {moved} bytes over {heads} heads; {ctx}"
        );
        let on_head = |held: (u32, u64)| {
            let g = &world.generations[head];
            held == (g.day, g.tag)
        };
        if quiet && on_head(was) {
            assert_eq!(moved, 0, "an in-step follower moves nothing; {ctx}");
        }
        // 5. A fault-free tail lands on the head.
        if quiet {
            assert!(on_head(now), "holds {now:?} after a fault-free tail; {ctx}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn both_followers_land_on_published_generations(rounds in arb_rounds()) {
        let world = World::new();
        follow(&world, &rounds, false);
        follow(&world, &rounds, true);
    }
}

/// Stated per head, the byte bound is no looser than the one it
/// replaced, twice the largest body plus the whole chain, for an update
/// that reads one or two heads.
#[test]
fn the_per_head_bound_is_no_looser_over_two_heads() {
    let world = World::new();
    let (full, chain) = world.sizes();
    assert!(world.byte_bound(2) <= 2 * (full + chain));
}
