//! Atlas acquisition: a chunk-oriented [`AtlasSource`] whose bodies are
//! named by their content tag, the one type that holds a body a source
//! offers ([`OfferedBody`]), the reader ([`read_full`], [`read_delta`])
//! that assembles and validates bodies, and the one catch-up policy
//! ([`catch_up`]) that drives the reader for every [`Follower`].
//!
//! The paper's §5 dissemination story is peers fetching the ~7MB atlas
//! (and then small daily deltas) *from each other*, over "any
//! peer-to-peer filesharing protocol". Such protocols name a piece by a
//! hash of its content, so any peer that holds the piece can serve it.
//! Here a *body* — the encoded full atlas or one encoded daily delta —
//! is named by its [`content_tag`], and the unit of transfer is a
//! *chunk* of a named body. That is what lets one trait sit in front of
//! every source this workspace has: in memory ([`StaticSource`]: tests,
//! examples, local files), a serving engine
//! (`inano_service::QueryEngine::offer`) and over the wire
//! (`inano_net::MirrorSource`, one shard of a remote `inano-serve`):
//!
//! * [`AtlasSource::head`] names the newest full body —
//!   [`AtlasVersion`]: day, tag, body length, chunk size — so a fetcher
//!   knows exactly what it is about to assemble;
//! * [`AtlasSource::fetch_delta`] names the daily delta leaving a day,
//!   if there is one — [`DeltaHandle`]: its days, tag, body length,
//!   chunk size;
//! * [`AtlasSource::fetch_chunk`] returns one bounded, checksummed
//!   [`AtlasChunk`] of the body a tag names, of either kind, so a
//!   transfer survives a lost chunk by re-fetching *that chunk*, not the
//!   whole body, and a wire frame never has to carry more than one
//!   chunk.
//!
//! Every source answers chunk requests the same way: each body it
//! offers is an [`OfferedBody`] (bytes, tag, per-chunk checksums), and
//! [`OfferedBody::serve`] owns the race rule — a tag no longer offered
//! is [`ModelError::VersionRaced`].
//!
//! The reader drives a source through one loop for both kinds of body:
//! it validates every chunk (length and checksum), retries failed
//! chunks, verifies the assembled body against the tag that named it,
//! and — when the source reports [`ModelError::VersionRaced`] because it
//! moved on mid-fetch — restarts at what the source offers now. Each
//! call returns how many such restarts it recovered from beside the
//! body. [`catch_up`] is its one caller outside bootstrap:
//! `INanoClient::update` and the service engine's `update` each hand it
//! a [`Follower`], which names the body it holds by that body's own tag.
//!
//! A source's faults are scripted, not written by hand: [`Scripted`]
//! wraps any source and runs a [`Step`] before each call reaches it —
//! pass, answer instead, stay down, move the source on, misname — and
//! counts what it serves. It is the fourth and last implementation of
//! the trait, and every test of the reader, the policy and the
//! followers scripts its upstream with it.

use inano_atlas::{codec, Atlas, AtlasDelta};
use inano_model::ModelError;
use parking_lot::Mutex;
use std::collections::{HashSet, VecDeque};

/// Default chunk size for in-process sources: large enough that a ~7MB
/// atlas is a few dozen chunks, small enough that one chunk always fits
/// the default wire frame limit with room for framing.
pub const DEFAULT_CHUNK_SIZE: u32 = 256 << 10;

/// FNV-1a 64-bit over `bytes`: the workspace-wide content tag. Used
/// both as the per-chunk checksum and as the name of a whole encoded
/// body ([`AtlasVersion::epoch_tag`], [`DeltaHandle::tag`]), so "the
/// same body" has the same tag on every node of a mirror chain, however
/// it got there.
pub fn content_tag(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Number of `chunk_size` chunks covering a `len`-byte body.
pub fn n_chunks(len: u64, chunk_size: u32) -> u32 {
    if len == 0 {
        return 0;
    }
    ((len - 1) / chunk_size.max(1) as u64 + 1).min(u32::MAX as u64) as u32
}

/// Byte range of chunk `idx` in a `len`-byte body cut into `chunk_size`
/// chunks, or a typed [`ModelError::ChunkOutOfRange`].
pub fn chunk_span(
    len: u64,
    chunk_size: u32,
    idx: u32,
) -> Result<std::ops::Range<usize>, ModelError> {
    let chunks = n_chunks(len, chunk_size);
    if idx >= chunks {
        return Err(ModelError::ChunkOutOfRange(format!(
            "chunk {idx} of a {chunks}-chunk body"
        )));
    }
    let start = idx as u64 * chunk_size as u64;
    let end = (start + chunk_size as u64).min(len);
    Ok(start as usize..end as usize)
}

/// What a source's newest full atlas looks like, before any bytes move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AtlasVersion {
    /// Measurement day of the full body.
    pub day: u32,
    /// Content tag of the encoded body ([`content_tag`]): the name its
    /// chunks are fetched by. Equal on every mirror serving the same
    /// generation, whatever its local swap epoch says.
    pub epoch_tag: u64,
    /// Encoded body length in bytes.
    pub full_len: u64,
    /// Chunk size this source serves the body in.
    pub chunk_size: u32,
}

impl AtlasVersion {
    pub fn n_chunks(&self) -> u32 {
        n_chunks(self.full_len, self.chunk_size)
    }
}

/// A daily delta a source offers, before its body moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaHandle {
    pub from_day: u32,
    pub to_day: u32,
    /// Content tag of the encoded delta body: the name its chunks are
    /// fetched by.
    pub tag: u64,
    /// Encoded delta body length in bytes.
    pub len: u64,
    /// Chunk size the delta body is served in.
    pub chunk_size: u32,
}

/// One checksummed chunk of an atlas or delta body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AtlasChunk {
    pub bytes: Vec<u8>,
    /// [`content_tag`] of `bytes`, computed at the origin — so a relay
    /// that corrupts a chunk is caught by the reader, not by a failed
    /// atlas decode megabytes later.
    pub crc: u64,
}

impl AtlasChunk {
    /// True when the carried checksum matches the carried bytes.
    pub fn verify(&self) -> bool {
        content_tag(&self.bytes) == self.crc
    }
}

/// One body a source offers — an encoded full atlas or an encoded daily
/// delta — with its tag and its per-chunk checksums. The checksums are
/// computed on the first chunk request and kept for that chunk size (a
/// source serves one), so N peers fetching a ~7MB body cost one hash of
/// it, not N.
pub struct OfferedBody {
    bytes: Vec<u8>,
    tag: u64,
    crcs: Mutex<Option<(u32, Vec<u64>)>>,
}

impl OfferedBody {
    pub fn new(bytes: Vec<u8>) -> OfferedBody {
        OfferedBody {
            tag: content_tag(&bytes),
            bytes,
            crcs: Mutex::new(None),
        }
    }

    /// The body's name: [`content_tag`] of its bytes.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The head naming this body as the full atlas of `day`.
    pub fn version(&self, day: u32, chunk_size: u32) -> AtlasVersion {
        AtlasVersion {
            day,
            epoch_tag: self.tag,
            full_len: self.bytes.len() as u64,
            chunk_size,
        }
    }

    /// The handle naming this body as the delta `from_day → to_day`.
    pub fn handle(&self, from_day: u32, to_day: u32, chunk_size: u32) -> DeltaHandle {
        DeltaHandle {
            from_day,
            to_day,
            tag: self.tag,
            len: self.bytes.len() as u64,
            chunk_size,
        }
    }

    /// The race rule every source answers [`AtlasSource::fetch_chunk`]
    /// by: chunk `idx` of whichever of `offered` is tagged `tag`, cut at
    /// `chunk_size`. A tag none of them carries names a body the source
    /// no longer offers — it swapped generations, replaced the delta or
    /// rotated it out — and is [`ModelError::VersionRaced`], so the
    /// fetcher restarts at what the source offers now instead of
    /// splicing two bodies.
    pub fn serve<'a>(
        offered: impl IntoIterator<Item = &'a OfferedBody>,
        tag: u64,
        chunk_size: u32,
        idx: u32,
    ) -> Result<AtlasChunk, ModelError> {
        let body = offered.into_iter().find(|b| b.tag == tag).ok_or_else(|| {
            ModelError::VersionRaced(format!("no body tagged {tag:#018x} is offered any more"))
        })?;
        let len = body.bytes.len() as u64;
        let span = chunk_span(len, chunk_size, idx)?;
        let mut crcs = body.crcs.lock();
        if crcs.as_ref().map(|(cut, _)| *cut) != Some(chunk_size) {
            let cut = (0..n_chunks(len, chunk_size)).map(|i| {
                let span = chunk_span(len, chunk_size, i).expect("index below n_chunks");
                content_tag(&body.bytes[span])
            });
            *crcs = Some((chunk_size, cut.collect()));
        }
        let crc = crcs.as_ref().expect("cut above").1[idx as usize];
        Ok(AtlasChunk {
            bytes: body.bytes[span].to_vec(),
            crc,
        })
    }
}

/// Where atlas bytes come from: a test vector or local file
/// ([`StaticSource`]), a serving engine (`inano_service::QueryEngine::offer`),
/// a remote `inano-serve` acting as a mirror (`inano_net::MirrorSource`).
/// The library is "sufficiently modular that any peer-to-peer
/// filesharing protocol can be plugged in" (§5) — the unit of exchange
/// is a checksummed chunk of a body named by its tag.
///
/// ## Contract
///
/// * `head()` names the newest full body and `fetch_delta(have_day)`
///   the delta leaving `have_day`, if one exists; each names its body
///   by [`content_tag`].
/// * `fetch_chunk(tag, idx)` serves chunk `idx` of any body the source
///   still offers under `tag`. A tag it no longer offers (the source
///   swapped generations, replaced a delta, or let it go) is
///   [`ModelError::VersionRaced`]: the fetcher restarts at what the
///   source offers now — it must not splice bodies from two
///   generations. [`OfferedBody::serve`] is that rule.
/// * A chunk index at or beyond the body's chunk count is a typed
///   [`ModelError::ChunkOutOfRange`].
pub trait AtlasSource {
    /// The newest available full-atlas version.
    fn head(&mut self) -> Result<AtlasVersion, ModelError>;
    /// The delta from `have_day` to the next day, if one is available.
    fn fetch_delta(&mut self, have_day: u32) -> Result<Option<DeltaHandle>, ModelError>;
    /// Chunk `idx` of the body whose content tag is `tag`: the full
    /// atlas a head named or a delta a handle named.
    fn fetch_chunk(&mut self, tag: u64, idx: u32) -> Result<AtlasChunk, ModelError>;
}

/// Whole-body restarts the reader tolerates (version races, tag
/// mismatches) before a fetch fails.
const MAX_RESTARTS: u32 = 3;
/// Per-chunk retries before a fetch fails (resume in place: a bad chunk
/// re-fetches that chunk, never the whole body).
const CHUNK_RETRIES: u32 = 2;
/// Largest body the reader assembles; a hostile head claiming more
/// fails typed instead of allocating it.
const MAX_BODY_BYTES: u64 = 1 << 30;

/// The reader, full half: download and validate the newest full body.
/// Returns the version it ended up with (restarts may land on a newer
/// one than the first `head()` named), the assembled bytes, whose
/// [`content_tag`] is guaranteed to equal `version.epoch_tag`, and how
/// many whole-body restarts (version races, tag mismatches) it
/// recovered from — the feed for a mirror's `races_recovered` metric.
pub fn read_full(source: &mut dyn AtlasSource) -> Result<(AtlasVersion, Vec<u8>, u32), ModelError> {
    let (fetched, restarts) = read(source, &mut |source| {
        let head = source.head()?;
        Ok(Some((
            head,
            (head.epoch_tag, head.full_len, head.chunk_size),
        )))
    })?;
    let (head, body) = fetched.expect("a head always names a body");
    Ok((head, body, restarts))
}

/// The reader, delta half: download and validate the body of the delta
/// leaving `have_day`, if the source has one, with the restarts it
/// recovered from (see [`read_full`]).
pub fn read_delta(
    source: &mut dyn AtlasSource,
    have_day: u32,
) -> Result<(Option<Vec<u8>>, u32), ModelError> {
    let (fetched, restarts) = read(source, &mut |source| {
        let Some(handle) = source.fetch_delta(have_day)? else {
            return Ok(None);
        };
        if handle.from_day != have_day {
            return Err(ModelError::Decode(format!(
                "asked for the delta leaving day {have_day}, offered {}→{}",
                handle.from_day, handle.to_day
            )));
        }
        Ok(Some((handle, (handle.tag, handle.len, handle.chunk_size))))
    })?;
    Ok((fetched.map(|(_, body)| body), restarts))
}

/// A body as the reader sees it before its bytes move: tag, length,
/// chunk size.
type Named = (u64, u64, u32);
/// What `offer` says a source offers now: the handle to return beside
/// the body and the body's name, or `None` for nothing to fetch.
type Offered<H> = Result<Option<(H, Named)>, ModelError>;
/// The assembled body beside its handle, and the restarts it took.
type Fetched<H> = (Option<(H, Vec<u8>)>, u32);

/// The one assembly-and-restart loop behind [`read_full`] and
/// [`read_delta`]. `offer` asks the source what it offers now; the body
/// it names is assembled, and a race — a
/// declared [`ModelError::VersionRaced`] or
/// [`ModelError::ChunkOutOfRange`], or an assembled body whose tag
/// disagrees — restarts at a fresh `offer`.
fn read<H>(
    source: &mut dyn AtlasSource,
    offer: &mut dyn FnMut(&mut dyn AtlasSource) -> Offered<H>,
) -> Result<Fetched<H>, ModelError> {
    let mut restarts = 0;
    loop {
        let Some((handle, named)) = offer(source)? else {
            return Ok((None, restarts));
        };
        match assemble(source, named) {
            Ok(body) => return Ok((Some((handle, body)), restarts)),
            Err(e) if is_race(&e) => {}
            Err(e) => return Err(e),
        }
        restarts += 1;
        if restarts > MAX_RESTARTS {
            return Err(ModelError::VersionRaced(format!(
                "fetch restarted {restarts} times without completing"
            )));
        }
    }
}

/// Assemble the body named `tag` chunk by chunk, retrying each failed
/// chunk in place up to `CHUNK_RETRIES` times, then check the whole
/// body against `tag`. A body whose tag disagrees means the source
/// changed it without saying so: it is reported as a race.
fn assemble(
    source: &mut dyn AtlasSource,
    (tag, len, chunk_size): Named,
) -> Result<Vec<u8>, ModelError> {
    if chunk_size == 0 {
        return Err(ModelError::Decode("source declared chunk size 0".into()));
    }
    if len > MAX_BODY_BYTES {
        return Err(ModelError::Decode(format!(
            "declared body of {len} bytes exceeds reader limit {MAX_BODY_BYTES}"
        )));
    }
    let mut out = Vec::new();
    for idx in 0..n_chunks(len, chunk_size) {
        let want = chunk_span(len, chunk_size, idx)?.len();
        let mut attempts = 0;
        let chunk = loop {
            let outcome = match source.fetch_chunk(tag, idx) {
                Ok(c) if !c.verify() => Err(ModelError::Decode(format!(
                    "chunk {idx} failed its checksum"
                ))),
                Ok(c) if c.bytes.len() != want => Err(ModelError::Decode(format!(
                    "chunk {idx} is {} bytes, want {want}",
                    c.bytes.len()
                ))),
                other => other,
            };
            match outcome {
                Ok(c) => break c,
                // A race aborts the body immediately — retrying the
                // same index against a new generation cannot help.
                Err(e) if is_race(&e) => return Err(e),
                Err(e) => {
                    attempts += 1;
                    if attempts > CHUNK_RETRIES {
                        return Err(e);
                    }
                }
            }
        };
        out.extend_from_slice(&chunk.bytes);
    }
    if content_tag(&out) != tag {
        return Err(ModelError::VersionRaced(format!(
            "assembled body is tagged {:#018x}, named {tag:#018x}",
            content_tag(&out)
        )));
    }
    Ok(out)
}

fn is_race(e: &ModelError) -> bool {
    matches!(
        e,
        ModelError::VersionRaced(_) | ModelError::ChunkOutOfRange(_)
    )
}

/// A peer's atlas as [`catch_up`] sees it. The policy decides every
/// step; an implementation says only what a step does to it: which tag
/// it holds, how a delta lands, and what it records along the way.
pub trait Follower {
    /// Day of the atlas the next delta must leave.
    fn day(&self) -> u32;
    /// [`content_tag`] of the upstream body this follower holds: the
    /// encoding of the atlas it took from its source, before anything
    /// of its own was added. Asked only when the delta chain was empty.
    fn tag(&mut self) -> u64;
    /// Land one delta; `bytes` is its validated wire form.
    fn apply(&mut self, delta: &AtlasDelta, bytes: Vec<u8>) -> Result<(), ModelError>;
    /// The source's head, probed after the chain, before any full
    /// fetch.
    fn head(&mut self, _head: &AtlasVersion) {}
    /// Take the whole upstream atlas in place of the broken chain.
    fn resync(&mut self, version: &AtlasVersion, atlas: Atlas);
    /// Whole-body restarts one fetch recovered from (never 0).
    fn races(&mut self, _races: u32) {}
}

/// The one catch-up policy (§5: daily deltas, and one full refetch for
/// a peer whose delta chain broke). Returns how many deltas landed.
///
/// 1. **Delta chain first.** Every delta the source offers beyond the
///    follower's day is fetched, decoded and applied. The loop ends
///    because every delta advances the day: `AtlasDelta::apply`
///    refuses one that does not (`PatchMismatch`).
/// 2. **Head probe.** A probe that fails after deltas landed keeps them
///    and returns their count.
/// 3. **Full body only on an empty chain.** When no delta landed and
///    the head's `epoch_tag` differs from [`Follower::tag`], the chain
///    is broken — the upstream replaced its atlas or restarted, on any
///    day, or the follower lagged past the deltas it retains — and the
///    full body is fetched ([`read_full`]), decoded and handed over.
///    The call still returns `Ok(0)`. A source must therefore name as
///    its head the version its own delta chain ends at. The tag is
///    that of the body the follower holds, never one a head named: a
///    source that swaps in another body of the same day between a
///    chain and the probe is caught by the next call's compare.
///
/// Any fetch, decode or apply error is returned at once; the deltas
/// that landed before it stay landed.
pub fn catch_up(
    source: &mut dyn AtlasSource,
    follower: &mut dyn Follower,
) -> Result<usize, ModelError> {
    let mut applied = 0;
    loop {
        let (body, races) = read_delta(source, follower.day())?;
        if races > 0 {
            follower.races(races);
        }
        let Some(bytes) = body else { break };
        let delta = AtlasDelta::decode(&bytes)?;
        follower.apply(&delta, bytes)?;
        applied += 1;
    }
    let head = match source.head() {
        Ok(head) => head,
        Err(_) if applied > 0 => return Ok(applied),
        Err(e) => return Err(e),
    };
    follower.head(&head);
    if applied == 0 && head.epoch_tag != follower.tag() {
        let (version, bytes, races) = read_full(source)?;
        if races > 0 {
            follower.races(races);
        }
        follower.resync(&version, codec::decode(&bytes)?);
    }
    Ok(applied)
}

/// An in-memory source, for tests and local files: one encoded full
/// body plus any encoded daily deltas, served in `chunk_size` chunks.
/// The fields are public so a test can move the source on (swap `full`
/// for a later day's body, drop a delta) between two fetches.
pub struct StaticSource {
    pub full: OfferedBody,
    pub deltas: Vec<OfferedBody>,
    /// [`DEFAULT_CHUNK_SIZE`] unless a test wants multi-chunk bodies.
    pub chunk_size: u32,
}

impl StaticSource {
    pub fn new(full: Vec<u8>, deltas: Vec<Vec<u8>>) -> StaticSource {
        StaticSource {
            full: OfferedBody::new(full),
            deltas: deltas.into_iter().map(OfferedBody::new).collect(),
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }
}

impl AtlasSource for StaticSource {
    fn head(&mut self) -> Result<AtlasVersion, ModelError> {
        // Peek, don't decode: the consumer decodes the assembled body
        // itself.
        let day = codec::peek_day(self.full.bytes())?;
        Ok(self.full.version(day, self.chunk_size))
    }

    fn fetch_delta(&mut self, have_day: u32) -> Result<Option<DeltaHandle>, ModelError> {
        for body in &self.deltas {
            let parsed = AtlasDelta::decode(body.bytes())?;
            if parsed.from_day == have_day {
                return Ok(Some(body.handle(have_day, parsed.to_day, self.chunk_size)));
            }
        }
        Ok(None)
    }

    fn fetch_chunk(&mut self, tag: u64, idx: u32) -> Result<AtlasChunk, ModelError> {
        let offered = std::iter::once(&self.full).chain(&self.deltas);
        OfferedBody::serve(offered, tag, self.chunk_size, idx)
    }
}

/// One step of a [`Scripted`] source's script for one method, run
/// before the call reaches `inner`; `R` is what the method answers. The
/// alphabet is the faults mirrors that trust each other show one
/// another — a transfer lost or corrupted, a source that moved on
/// between two calls, a body misnamed — and nothing Byzantine.
pub enum Step<S, R> {
    /// Reach `inner`.
    Pass,
    /// Answer this; `inner` is not asked (an error, or a head or handle
    /// no honest source would name).
    Answer(Result<R, ModelError>),
    /// Fail this call and every later one of this method until the
    /// script is cleared ([`Scripted::clear`]): an upstream that is down.
    Down(ModelError),
    /// Run this on `inner`, then reach it: the source moved on (swapped
    /// its body, replaced a delta) or something happened elsewhere.
    Then(Box<dyn FnOnce(&mut S)>),
    /// Reach `inner`, then flip the low bit of the name in its answer: a
    /// head's or a handle's tag (the body is served under that wrong
    /// name too), or a chunk's checksum.
    Misname,
}

/// A script for one method: its next calls' steps, in order.
pub type Script<S, R> = VecDeque<Step<S, R>>;

/// What a [`Scripted`] source was asked and served. A call counts
/// whether or not it failed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Served {
    pub heads: usize,
    pub deltas: usize,
    /// Chunk calls naming a tag one of its heads answered.
    pub full_chunks: usize,
    /// Every other chunk call: a delta's.
    pub delta_chunks: usize,
    /// Bytes of the chunks it answered.
    pub bytes: u64,
}

/// Any source, faults scripted in front of it: before a call reaches
/// `inner`, the next [`Step`] scripted for that method runs, and a call
/// with no step left passes. It counts what it is asked ([`Served`]).
/// The tests of the reader, of [`catch_up`] and of every follower
/// script their upstream with it, in memory or over the wire.
pub struct Scripted<S: AtlasSource> {
    pub inner: S,
    pub heads: Script<S, AtlasVersion>,
    pub deltas: Script<S, Option<DeltaHandle>>,
    pub chunks: Script<S, AtlasChunk>,
    pub served: Served,
    /// Tags its heads answered: a chunk of one is a full-body chunk.
    head_tags: HashSet<u64>,
    /// Wrong names a [`Step::Misname`] gave a body: a chunk asked for by
    /// one is served from the body its right name, one bit off, names.
    misnamed: HashSet<u64>,
}

impl<S: AtlasSource> Scripted<S> {
    pub fn new(inner: S) -> Scripted<S> {
        Scripted {
            inner,
            heads: Script::new(),
            deltas: Script::new(),
            chunks: Script::new(),
            served: Served::default(),
            head_tags: HashSet::new(),
            misnamed: HashSet::new(),
        }
    }

    /// Drop every step still scripted: from here on each call passes.
    pub fn clear(&mut self) {
        self.heads.clear();
        self.deltas.clear();
        self.chunks.clear();
    }
}

/// Run the next step of `script` around `call`; `true` beside the
/// answer asks the caller to misname it.
fn step<S, R>(
    script: &mut Script<S, R>,
    inner: &mut S,
    call: impl FnOnce(&mut S) -> Result<R, ModelError>,
) -> Result<(R, bool), ModelError> {
    match script.pop_front().unwrap_or(Step::Pass) {
        Step::Pass => Ok((call(inner)?, false)),
        Step::Answer(answer) => Ok((answer?, false)),
        Step::Down(e) => {
            script.push_front(Step::Down(e.clone()));
            Err(e)
        }
        Step::Then(f) => {
            f(inner);
            Ok((call(inner)?, false))
        }
        Step::Misname => Ok((call(inner)?, true)),
    }
}

impl<S: AtlasSource> AtlasSource for Scripted<S> {
    fn head(&mut self) -> Result<AtlasVersion, ModelError> {
        self.served.heads += 1;
        let (mut head, misname) = step(&mut self.heads, &mut self.inner, |s| s.head())?;
        if misname {
            head.epoch_tag ^= 1;
            self.misnamed.insert(head.epoch_tag);
        }
        self.head_tags.insert(head.epoch_tag);
        Ok(head)
    }

    fn fetch_delta(&mut self, have_day: u32) -> Result<Option<DeltaHandle>, ModelError> {
        self.served.deltas += 1;
        let (mut handle, misname) = step(&mut self.deltas, &mut self.inner, |s| {
            s.fetch_delta(have_day)
        })?;
        if let (Some(h), true) = (handle.as_mut(), misname) {
            h.tag ^= 1;
            self.misnamed.insert(h.tag);
        }
        Ok(handle)
    }

    fn fetch_chunk(&mut self, tag: u64, idx: u32) -> Result<AtlasChunk, ModelError> {
        match self.head_tags.contains(&tag) {
            true => self.served.full_chunks += 1,
            false => self.served.delta_chunks += 1,
        }
        let tag = tag ^ self.misnamed.contains(&tag) as u64;
        let (mut chunk, misname) = step(&mut self.chunks, &mut self.inner, |s| {
            s.fetch_chunk(tag, idx)
        })?;
        chunk.crc ^= misname as u64;
        self.served.bytes += chunk.bytes.len() as u64;
        Ok(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_atlas::LinkAnnotation;
    use inano_model::ClusterId;

    /// An `n`-byte body that names day `day`: an empty day-`day` atlas,
    /// then filler. The reader never decodes what it assembles; only a
    /// head's peek reads the front.
    fn body(n: usize, day: u32) -> Vec<u8> {
        let mut b = codec::encode(&Atlas {
            day,
            ..Atlas::default()
        })
        .0;
        assert!(b.len() <= n, "{n} bytes hold the header");
        b.extend((b.len()..n).map(|i| (i * 31 % 251) as u8));
        b
    }

    /// `full` alone, served in `chunk_size` chunks, nothing scripted yet.
    fn scripted(full: Vec<u8>, chunk_size: u32) -> Scripted<StaticSource> {
        Scripted::new(StaticSource {
            chunk_size,
            ..StaticSource::new(full, vec![])
        })
    }

    /// A day-`day` atlas whose content is told apart by `marker`.
    fn world(day: u32, marker: u32) -> Atlas {
        let mut atlas = Atlas {
            day,
            ..Atlas::default()
        };
        let link = (ClusterId::new(marker), ClusterId::new(marker + 1));
        atlas.links.insert(link, LinkAnnotation::default());
        atlas
    }

    fn delta(from: &Atlas, to: &Atlas) -> Vec<u8> {
        AtlasDelta::between(from, to).encode().0
    }

    #[test]
    fn chunk_spans_tile_the_body_exactly() {
        for (len, cs) in [(0u64, 4u32), (1, 4), (4, 4), (5, 4), (1000, 7)] {
            let chunks = n_chunks(len, cs);
            let mut covered = 0u64;
            for i in 0..chunks {
                let span = chunk_span(len, cs, i).expect("in range");
                assert_eq!(span.start as u64, covered);
                assert!(!span.is_empty());
                covered = span.end as u64;
            }
            assert_eq!(covered, len, "len {len} chunk {cs}");
            assert!(matches!(
                chunk_span(len, cs, chunks),
                Err(ModelError::ChunkOutOfRange(_))
            ));
        }
    }

    #[test]
    fn reader_assembles_multi_chunk_bodies() {
        let b = body(1000, 0);
        let mut src = scripted(b.clone(), 64);
        let (version, got, _) = read_full(&mut src).expect("fetches");
        assert_eq!(got, b);
        assert_eq!(version.n_chunks(), 16);
        assert_eq!(version.epoch_tag, content_tag(&b));
    }

    #[test]
    fn reader_retries_failed_and_corrupt_chunks_in_place() {
        let b = body(300, 0);
        let mut src = scripted(b.clone(), 100);
        // Chunk 1 fails once, then chunk 2's checksum is corrupted once.
        let lost = ModelError::Decode("transient fetch failure".into());
        src.chunks.extend([
            Step::Pass,
            Step::Answer(Err(lost)),
            Step::Pass,
            Step::Misname,
        ]);
        let (_, got, restarts) = read_full(&mut src).expect("resumes");
        assert_eq!(got, b);
        // 3 chunks + 1 flaky retry + 1 corrupt retry; no full restart.
        assert_eq!(src.served.full_chunks, 5);
        assert_eq!(restarts, 0);
    }

    #[test]
    fn reader_gives_up_after_chunk_retries() {
        let mut src = scripted(body(300, 0), 100);
        let down = ModelError::Decode("transient fetch failure".into());
        src.chunks.extend([Step::Pass, Step::Down(down)]);
        let err = read_full(&mut src).unwrap_err();
        assert!(matches!(err, ModelError::Decode(_)), "{err}");
    }

    #[test]
    fn reader_restarts_at_the_new_head_when_the_version_races() {
        let (old, new) = (body(400, 0), body(640, 1));
        let mut src = scripted(old, 128);
        // The third chunk call finds the source swapped to a day-1 body.
        let next = OfferedBody::new(new.clone());
        let swap = Step::Then(Box::new(|s: &mut StaticSource| s.full = next));
        src.chunks.extend([Step::Pass, Step::Pass, swap]);
        let (version, got, restarts) = read_full(&mut src).expect("restarts");
        assert_eq!(got, new, "the fetch lands on the post-race body");
        assert_eq!(restarts, 1);
        assert_eq!(version.day, 1);
        assert_eq!(version.epoch_tag, content_tag(&new));
    }

    #[test]
    fn reader_restarts_when_a_delta_is_replaced_mid_fetch() {
        let (d0, d1, other) = (world(0, 1), world(1, 2), world(1, 40));
        let (first, second) = (delta(&d0, &d1), delta(&d0, &other));
        assert_ne!(first, second);
        let mut src = Scripted::new(StaticSource {
            chunk_size: 8,
            ..StaticSource::new(codec::encode(&d0).0, vec![first])
        });
        // After the first chunk it serves, `second` replaces its deltas.
        let next = vec![OfferedBody::new(second.clone())];
        let replace = Step::Then(Box::new(|s: &mut StaticSource| s.deltas = next));
        src.chunks.extend([Step::Pass, replace]);
        let (body, restarts) = read_delta(&mut src, 0).expect("restarts");
        assert_eq!(body, Some(second), "the replacing delta, not a splice");
        assert_eq!(restarts, 1);
    }

    #[test]
    fn reader_restarts_when_a_body_disagrees_with_its_tag() {
        let (d0, d1) = (world(0, 1), world(1, 2));
        let bytes = delta(&d0, &d1);
        let mut src = Scripted::new(StaticSource::new(codec::encode(&d0).0, vec![bytes.clone()]));
        // Names the delta by a wrong tag, once, and serves it under it.
        src.deltas.push_back(Step::Misname);
        assert_eq!(read_delta(&mut src, 0), Ok((Some(bytes), 1)));
    }

    #[test]
    fn reader_refuses_hostile_heads() {
        for (full_len, chunk_size) in [(u64::MAX, 1024), (1024, 0)] {
            let mut src = scripted(body(64, 0), 16);
            let hostile = AtlasVersion {
                day: 0,
                epoch_tag: 0,
                full_len,
                chunk_size,
            };
            src.heads.push_back(Step::Answer(Ok(hostile)));
            assert!(read_full(&mut src).is_err());
            assert_eq!(src.served.full_chunks, 0, "refused at the head");
        }
    }

    #[test]
    fn reader_refuses_hostile_handles() {
        let (d0, d1) = (world(0, 1), world(1, 2));
        let inner = || StaticSource::new(codec::encode(&d0).0, vec![delta(&d0, &d1)]);
        let honest = inner()
            .fetch_delta(0)
            .expect("offered")
            .expect("leaves day 0");
        let hostile = [
            DeltaHandle {
                from_day: 3,
                to_day: 4,
                ..honest
            },
            DeltaHandle {
                len: MAX_BODY_BYTES + 1,
                ..honest
            },
            DeltaHandle {
                chunk_size: 0,
                ..honest
            },
        ];
        for handle in hostile {
            let mut src = Scripted::new(inner());
            src.deltas.push_back(Step::Answer(Ok(Some(handle))));
            let err = read_delta(&mut src, 0).unwrap_err();
            assert!(matches!(err, ModelError::Decode(_)), "{handle:?}: {err}");
            assert_eq!(
                src.served.delta_chunks, 0,
                "{handle:?}: refused at the handle"
            );
        }
    }

    #[test]
    fn blob_source_serves_real_atlas_bytes_chunked() {
        let atlas = Atlas {
            day: 3,
            ..Atlas::default()
        };
        let (bytes, _) = codec::encode(&atlas);
        let mut src = StaticSource {
            chunk_size: 8,
            ..StaticSource::new(bytes.clone(), vec![])
        };
        let head = src.head().expect("head");
        assert_eq!(head.day, 3);
        assert_eq!(head.full_len, bytes.len() as u64);
        assert!(head.n_chunks() > 1, "tiny chunks force a multi-chunk body");
        let (version, got, _) = read_full(&mut src).expect("fetch");
        assert_eq!(got, bytes);
        assert_eq!(version, head);
        assert!(src.fetch_delta(3).expect("no delta").is_none());
    }

    // ---- catch_up: one case per rule, on a recording follower ----

    /// `full` and `deltas` in several chunks per body, so a race lands
    /// mid-body.
    fn watched(full: &Atlas, deltas: Vec<Vec<u8>>) -> Scripted<StaticSource> {
        Scripted::new(StaticSource {
            chunk_size: 16,
            ..StaticSource::new(codec::encode(full).0, deltas)
        })
    }

    /// What a follower was told, in order.
    #[derive(Debug, PartialEq)]
    enum Told {
        Apply(u32, u32),
        Head(u32),
        Resync(u32),
        Races(u32),
    }

    /// A follower that lands every delta for real, tags the body it
    /// holds the way `INanoClient` and the engine do, and records each
    /// step.
    struct Recorder {
        atlas: Atlas,
        tags_asked: usize,
        steps: Vec<Told>,
    }

    impl Recorder {
        /// Bootstrapped from `source`'s full body.
        fn on(source: &mut dyn AtlasSource) -> Recorder {
            let (_, bytes, _) = read_full(source).expect("bootstrap");
            Recorder {
                atlas: codec::decode(&bytes).expect("decodes"),
                tags_asked: 0,
                steps: vec![],
            }
        }

        fn holds(&self) -> u64 {
            content_tag(&codec::encode(&self.atlas).0)
        }
    }

    impl Follower for Recorder {
        fn day(&self) -> u32 {
            self.atlas.day
        }

        fn tag(&mut self) -> u64 {
            self.tags_asked += 1;
            self.holds()
        }

        fn apply(&mut self, delta: &AtlasDelta, _: Vec<u8>) -> Result<(), ModelError> {
            self.atlas = delta.apply(&self.atlas)?;
            self.steps.push(Told::Apply(delta.from_day, delta.to_day));
            Ok(())
        }

        fn head(&mut self, head: &AtlasVersion) {
            self.steps.push(Told::Head(head.day));
        }

        fn resync(&mut self, version: &AtlasVersion, atlas: Atlas) {
            self.atlas = atlas;
            self.steps.push(Told::Resync(version.day));
        }

        fn races(&mut self, races: u32) {
            self.steps.push(Told::Races(races));
        }
    }

    #[test]
    fn catch_up_in_step_moves_no_body() {
        let mut src = watched(&world(1, 1), vec![]);
        let mut follower = Recorder::on(&mut src);
        let bootstrap_chunks = src.served.full_chunks;
        assert_eq!(catch_up(&mut src, &mut follower), Ok(0));
        assert_eq!(follower.steps, [Told::Head(1)]);
        assert_eq!(follower.tags_asked, 1);
        assert_eq!(src.served.full_chunks, bootstrap_chunks);
    }

    #[test]
    fn catch_up_walks_a_chain_without_asking_the_tag() {
        let (d0, d1, d2) = (world(0, 1), world(1, 2), world(2, 3));
        let mut src = watched(&d0, vec![delta(&d0, &d1), delta(&d1, &d2)]);
        let mut follower = Recorder::on(&mut src);
        // The upstream moves on to the day its chain ends at.
        src.inner.full = OfferedBody::new(codec::encode(&d2).0);
        let bootstrap_chunks = src.served.full_chunks;
        assert_eq!(catch_up(&mut src, &mut follower), Ok(2));
        assert_eq!(
            follower.steps,
            [Told::Apply(0, 1), Told::Apply(1, 2), Told::Head(2)]
        );
        assert_eq!(
            follower.tags_asked, 0,
            "a chain that applied never compares"
        );
        assert_eq!(follower.holds(), src.inner.full.tag(), "in step");
        assert_eq!(src.served.deltas, 3, "two deltas, then none");
        assert_eq!(src.served.full_chunks, bootstrap_chunks);
    }

    #[test]
    fn catch_up_resyncs_an_empty_chain_onto_any_new_body() {
        let mut src = watched(&world(1, 1), vec![]);
        let mut follower = Recorder::on(&mut src);
        // Another day-1 body, then an earlier day's: both followed.
        for (day, marker) in [(1, 7), (0, 9)] {
            follower.steps.clear();
            src.inner.full = OfferedBody::new(codec::encode(&world(day, marker)).0);
            assert_eq!(catch_up(&mut src, &mut follower), Ok(0));
            assert_eq!(follower.steps, [Told::Head(day), Told::Resync(day)]);
            let marked = (ClusterId::new(marker), ClusterId::new(marker + 1));
            assert!(follower.atlas.links.contains_key(&marked), "new body");
            assert_eq!(follower.holds(), src.inner.full.tag());
        }
    }

    #[test]
    fn catch_up_keeps_the_days_a_failing_chain_applied() {
        let (d0, d1) = (world(0, 1), world(1, 2));
        let mut src = watched(&d0, vec![delta(&d0, &d1), vec![0xff; 40]]);
        let mut follower = Recorder::on(&mut src);
        let err = catch_up(&mut src, &mut follower).unwrap_err();
        assert_eq!(err, ModelError::Decode("bad delta magic".into()));
        assert_eq!(follower.steps, [Told::Apply(0, 1)], "no head probe");
        assert_eq!(src.served.heads, 1, "the bootstrap's only");
        assert_eq!(follower.day(), 1);
    }

    #[test]
    fn catch_up_keeps_applied_deltas_when_the_head_probe_fails() {
        let (d0, d1) = (world(0, 1), world(1, 2));
        let mut src = watched(&d0, vec![delta(&d0, &d1)]);
        let mut follower = Recorder::on(&mut src);
        src.inner.full = OfferedBody::new(vec![]);
        assert_eq!(catch_up(&mut src, &mut follower), Ok(1));
        assert_eq!(follower.steps, [Told::Apply(0, 1)]);
        // With nothing applied, the failed probe is the outcome.
        assert!(catch_up(&mut src, &mut follower).is_err());
        assert_eq!(follower.tags_asked, 0);
    }

    #[test]
    fn catch_up_refuses_a_delta_that_does_not_advance_the_day() {
        let d0 = world(0, 1);
        let stuck = AtlasDelta {
            from_day: 0,
            to_day: 0,
            ..AtlasDelta::default()
        };
        let mut src = watched(&d0, vec![stuck.encode().0]);
        let mut follower = Recorder::on(&mut src);
        let err = catch_up(&mut src, &mut follower).unwrap_err();
        assert!(matches!(err, ModelError::PatchMismatch(_)), "{err}");
        assert!(follower.steps.is_empty());
    }

    #[test]
    fn catch_up_reports_a_race_the_reader_recovered_from() {
        let mut src = watched(&world(1, 1), vec![]);
        let mut follower = Recorder::on(&mut src);
        src.inner.full = OfferedBody::new(codec::encode(&world(2, 5)).0);
        // Full-body chunk 1 races once.
        let race = ModelError::VersionRaced("upstream swapped".into());
        src.chunks.extend([Step::Pass, Step::Answer(Err(race))]);
        assert_eq!(catch_up(&mut src, &mut follower), Ok(0));
        assert_eq!(
            follower.steps,
            [Told::Head(2), Told::Races(1), Told::Resync(2)]
        );
    }
}
