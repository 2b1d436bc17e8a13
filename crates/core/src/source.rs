//! Atlas acquisition: a chunk-oriented [`AtlasSource`] whose bodies are
//! named by their content tag, the one type that holds a body a source
//! offers ([`OfferedBody`]), the reader ([`read_full`]) that assembles
//! and validates bodies, and the one catch-up policy ([`catch_up`]) that
//! drives the reader for every [`Follower`].
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
//! * [`AtlasSource::head`] names the newest full body — [`AtlasVersion`]:
//!   day, tag, body length, chunk size — and, like a filesharing
//!   protocol's metainfo file, every other body a fetcher may need: the
//!   retained chain of daily deltas leading to it, each named by the tag
//!   of the body it leaves, its own tag and its length ([`ChainLink`]);
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
//! The reader assembles a body chunk by chunk: it validates every chunk
//! (length and checksum), retries failed chunks and verifies the
//! assembled body against the tag that named it. When the source
//! reports [`ModelError::VersionRaced`] because it moved on mid-fetch,
//! the fetch restarts at a fresh head. [`read_full`] is that loop for
//! a bootstrap; [`catch_up`] is the other caller: `INanoClient::update`
//! and the service engine's `update` each hand it a [`Follower`], which
//! names the body it holds by that body's own tag, and one head decides
//! what moves.
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
use std::sync::Arc;

/// Default chunk size for in-process sources: large enough that a ~7MB
/// atlas is a few dozen chunks, small enough that one chunk always fits
/// the default wire frame limit with room for framing.
pub const DEFAULT_CHUNK_SIZE: u32 = 256 << 10;

/// FNV-1a 64-bit over `bytes`: the workspace-wide content tag. Used
/// both as the per-chunk checksum and as the name of a whole encoded
/// body ([`AtlasVersion::epoch_tag`], [`ChainLink`]), so "the same
/// body" has the same tag on every node of a mirror chain, however it
/// got there.
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

/// What a source offers, before any bytes move: its newest full atlas
/// and the chain of deltas leading to it. Every body is cut at
/// `chunk_size`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AtlasVersion {
    /// Measurement day of the full body.
    pub day: u32,
    /// Content tag of the encoded body ([`content_tag`]): the name its
    /// chunks are fetched by. Equal on every mirror serving the same
    /// generation, whatever its local swap epoch says.
    pub epoch_tag: u64,
    /// Encoded body length in bytes.
    pub full_len: u64,
    /// Chunk size this source serves its bodies in.
    pub chunk_size: u32,
    /// The retained deltas leading to this body, oldest first: each
    /// leaves the body the one before it lands on, and the last lands
    /// on this one.
    pub chain: Vec<ChainLink>,
}

impl AtlasVersion {
    pub fn n_chunks(&self) -> u32 {
        n_chunks(self.full_len, self.chunk_size)
    }
}

/// One delta of a head's chain, before its body moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainLink {
    /// Content tag of the full body the delta leaves.
    pub base: u64,
    /// Content tag of the encoded delta body: the name its chunks are
    /// fetched by.
    pub tag: u64,
    /// Encoded delta body length in bytes.
    pub len: u64,
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

    /// The head naming this body as the full atlas of `day`, reached by
    /// `chain`.
    pub fn version(&self, day: u32, chunk_size: u32, chain: &[OfferedDelta]) -> AtlasVersion {
        AtlasVersion {
            day,
            epoch_tag: self.tag,
            full_len: self.bytes.len() as u64,
            chunk_size,
            chain: chain.iter().map(OfferedDelta::link).collect(),
        }
    }

    /// The race rule every source answers [`AtlasSource::fetch_chunk`]
    /// by: chunk `idx` of whichever of `offered` is tagged `tag`, cut at
    /// `chunk_size`. A tag none of them carries names a body the source
    /// no longer offers — it swapped generations, replaced its atlas or
    /// rotated the delta out — and is [`ModelError::VersionRaced`], so
    /// the fetcher restarts at what the source offers now instead of
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

/// One delta a source offers: the tag of the full body it leaves, and
/// its own body, shared by every head whose chain lists it.
#[derive(Clone)]
pub struct OfferedDelta {
    pub base: u64,
    pub body: Arc<OfferedBody>,
}

impl OfferedDelta {
    pub fn new(base: u64, bytes: Vec<u8>) -> OfferedDelta {
        OfferedDelta {
            base,
            body: Arc::new(OfferedBody::new(bytes)),
        }
    }

    /// How a head names this delta.
    pub fn link(&self) -> ChainLink {
        ChainLink {
            base: self.base,
            tag: self.body.tag(),
            len: self.body.bytes().len() as u64,
        }
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
/// * `head()` names the newest full body and the deltas leading to it,
///   each body by its [`content_tag`], all from one snapshot: applying
///   the chain from any of its bases lands on the head's body.
/// * `fetch_chunk(tag, idx)` serves chunk `idx` of any body the source
///   still offers under `tag`. A tag it no longer offers (the source
///   swapped generations, replaced its atlas, or let a delta go) is
///   [`ModelError::VersionRaced`]: the fetcher restarts at what the
///   source offers now — it must not splice bodies from two
///   generations. [`OfferedBody::serve`] is that rule.
/// * A chunk index at or beyond the body's chunk count is a typed
///   [`ModelError::ChunkOutOfRange`].
pub trait AtlasSource {
    /// The newest full atlas and the retained chain leading to it.
    fn head(&mut self) -> Result<AtlasVersion, ModelError>;
    /// Chunk `idx` of the body whose content tag is `tag`: the full
    /// atlas a head named or a delta of its chain.
    fn fetch_chunk(&mut self, tag: u64, idx: u32) -> Result<AtlasChunk, ModelError>;
}

/// Whole-body restarts a fetch tolerates (version races, tag
/// mismatches) before it fails.
const MAX_RESTARTS: u32 = 3;
/// Per-chunk retries before a fetch fails (resume in place: a bad chunk
/// re-fetches that chunk, never the whole body).
const CHUNK_RETRIES: u32 = 2;
/// Largest body the reader assembles; a hostile head claiming more
/// fails typed instead of allocating it.
const MAX_BODY_BYTES: u64 = 1 << 30;

/// The reader's bootstrap: download and validate the newest full body.
/// Returns the version it ended up with (restarts may land on a newer
/// one than the first `head()` named), the assembled bytes, whose
/// [`content_tag`] is guaranteed to equal `version.epoch_tag`, and how
/// many whole-body restarts (version races, tag mismatches) it
/// recovered from.
pub fn read_full(source: &mut dyn AtlasSource) -> Result<(AtlasVersion, Vec<u8>, u32), ModelError> {
    let mut restarts = 0;
    loop {
        let head = source.head()?;
        match assemble(source, head.epoch_tag, head.full_len, head.chunk_size) {
            Ok(body) => return Ok((head, body, restarts)),
            Err(e) => restart(&mut restarts, e)?,
        }
    }
}

/// Count one restart at a fresh head after `e`, or hand `e` back: only
/// a race — a declared [`ModelError::VersionRaced`] or
/// [`ModelError::ChunkOutOfRange`], or an assembled body whose tag
/// disagrees — restarts, at most `MAX_RESTARTS` times.
fn restart(restarts: &mut u32, e: ModelError) -> Result<(), ModelError> {
    if !is_race(&e) {
        return Err(e);
    }
    if *restarts == MAX_RESTARTS {
        return Err(ModelError::VersionRaced(format!(
            "fetch restarted {MAX_RESTARTS} times without completing: {e}"
        )));
    }
    *restarts += 1;
    Ok(())
}

/// Assemble the `len`-byte body named `tag` chunk by chunk, retrying
/// each failed chunk in place up to `CHUNK_RETRIES` times, then check
/// the whole body against `tag`. A body whose tag disagrees means the
/// source changed it without saying so: it is reported as a race.
fn assemble(
    source: &mut dyn AtlasSource,
    tag: u64,
    len: u64,
    chunk_size: u32,
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
    /// [`content_tag`] of the upstream body this follower holds: the
    /// encoding of the atlas it took from its source, before anything
    /// of its own was added. Never a name a head gave it.
    fn tag(&mut self) -> u64;
    /// Land one delta of the head's chain, which leaves the body tagged
    /// `base` (the one the follower holds); `bytes` is its validated
    /// wire form.
    fn apply(&mut self, base: u64, delta: &AtlasDelta, bytes: Vec<u8>) -> Result<(), ModelError>;
    /// The source's head, read before anything is fetched.
    fn head(&mut self, _head: &AtlasVersion) {}
    /// Take the whole upstream atlas in place of the one it holds.
    fn resync(&mut self, version: &AtlasVersion, atlas: Atlas);
    /// Restarts at a fresh head one call recovered from (never 0).
    fn races(&mut self, _races: u32) {}
}

/// The one catch-up policy (§5: daily deltas, and one full refetch for
/// a peer whose delta chain broke), planned over one head. Returns how
/// many deltas landed.
///
/// 1. **Read the head**, which names the newest full body and the
///    chain of deltas leading to it ([`Follower::head`] sees it first).
/// 2. **In step:** the follower's [`Follower::tag`] is the head's tag —
///    nothing moves.
/// 3. **Behind on the chain:** its tag is the base of a delta in the
///    chain — that delta and every later one are fetched, decoded and
///    applied in order, which lands it on the head's body.
/// 4. **Off the chain:** any other tag — the upstream replaced its
///    atlas or restarted, on any day, the follower holds a body of a
///    day nobody built on, or it lagged past the retained chain — and
///    the full body is fetched, decoded and handed over.
///
/// A race mid-fetch ([`ModelError::VersionRaced`], a chunk index out of
/// range, or a body that disagrees with its tag) plans again at a fresh
/// head, at most three times, and is reported through
/// [`Follower::races`]. Any other fetch, decode or apply error is
/// returned at once; the deltas that landed before it stay landed. The
/// tag compared is always that of the body the follower holds, so a
/// delta can land only on the body its head names as its base.
pub fn catch_up(
    source: &mut dyn AtlasSource,
    follower: &mut dyn Follower,
) -> Result<usize, ModelError> {
    let (mut applied, mut races) = (0, 0);
    let outcome = loop {
        match plan(source, follower, &mut applied) {
            Ok(()) => break Ok(applied),
            Err(e) => {
                if let Err(e) = restart(&mut races, e) {
                    break Err(e);
                }
            }
        }
    };
    if races > 0 {
        follower.races(races);
    }
    outcome
}

/// One pass of [`catch_up`] over one head, counting the deltas that
/// land into `applied`.
fn plan(
    source: &mut dyn AtlasSource,
    follower: &mut dyn Follower,
    applied: &mut usize,
) -> Result<(), ModelError> {
    let head = source.head()?;
    follower.head(&head);
    let held = follower.tag();
    if held == head.epoch_tag {
        return Ok(());
    }
    let Some(from) = head.chain.iter().position(|link| link.base == held) else {
        let body = assemble(source, head.epoch_tag, head.full_len, head.chunk_size)?;
        follower.resync(&head, codec::decode(&body)?);
        return Ok(());
    };
    for link in &head.chain[from..] {
        let bytes = assemble(source, link.tag, link.len, head.chunk_size)?;
        follower.apply(link.base, &AtlasDelta::decode(&bytes)?, bytes)?;
        *applied += 1;
    }
    Ok(())
}

/// An in-memory source, for tests and local files: one encoded full
/// body and the encoded daily deltas leading to it, served in
/// `chunk_size` chunks. The fields are public so a test can move the
/// source on between two fetches ([`StaticSource::publish`], or any
/// head an honest source would not name).
pub struct StaticSource {
    /// The head's body.
    pub full: OfferedBody,
    /// The deltas leading to `full`, oldest first.
    pub chain: Vec<OfferedDelta>,
    /// [`DEFAULT_CHUNK_SIZE`] unless a test wants multi-chunk bodies.
    pub chunk_size: u32,
}

impl StaticSource {
    /// A source whose head is `base` with `deltas` applied in order,
    /// reached by those deltas: each body between is built and encoded
    /// once, here.
    ///
    /// # Panics
    ///
    /// If a delta does not decode or does not apply to the body before
    /// it (with no deltas, `base` is not decoded at all).
    pub fn new(base: Vec<u8>, deltas: Vec<Vec<u8>>) -> StaticSource {
        let mut source = StaticSource {
            full: OfferedBody::new(base),
            chain: Vec::new(),
            chunk_size: DEFAULT_CHUNK_SIZE,
        };
        if deltas.is_empty() {
            return source;
        }
        let mut atlas = codec::decode(source.full.bytes()).expect("a source's base decodes");
        for bytes in deltas {
            let delta = AtlasDelta::decode(&bytes).expect("a source's delta decodes");
            atlas = delta
                .apply(&atlas)
                .expect("a source's delta applies in order");
            source.publish(codec::encode(&atlas).0, Some(bytes));
        }
        source
    }

    /// Move the head on to `full`: by `delta`, which leaves the current
    /// head's body, or with `None` in place of the whole chain (a
    /// replaced atlas).
    pub fn publish(&mut self, full: Vec<u8>, delta: Option<Vec<u8>>) {
        match delta {
            Some(bytes) => self.chain.push(OfferedDelta::new(self.full.tag(), bytes)),
            None => self.chain.clear(),
        }
        self.full = OfferedBody::new(full);
    }
}

impl AtlasSource for StaticSource {
    fn head(&mut self) -> Result<AtlasVersion, ModelError> {
        // Peek, don't decode: the consumer decodes the assembled body
        // itself.
        let day = codec::peek_day(self.full.bytes())?;
        Ok(self.full.version(day, self.chunk_size, &self.chain))
    }

    fn fetch_chunk(&mut self, tag: u64, idx: u32) -> Result<AtlasChunk, ModelError> {
        let deltas = self.chain.iter().map(|d| &*d.body);
        OfferedBody::serve(
            std::iter::once(&self.full).chain(deltas),
            tag,
            self.chunk_size,
            idx,
        )
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
    /// Answer this; `inner` is not asked (an error, or a head no honest
    /// source would name).
    Answer(Result<R, ModelError>),
    /// Fail this call and every later one of this method until the
    /// script is cleared ([`Scripted::clear`]): an upstream that is down.
    Down(ModelError),
    /// Run this on `inner`, then reach it: the source moved on (swapped
    /// its body, replaced its atlas) or something happened elsewhere.
    Then(Box<dyn FnOnce(&mut S)>),
    /// Reach `inner`, then flip the low bit of every name in its answer:
    /// a head's tag and the tag of each delta of its chain (each body is
    /// served under its wrong name too), or a chunk's checksum.
    Misname,
}

/// A script for one method: its next calls' steps, in order.
pub type Script<S, R> = VecDeque<Step<S, R>>;

/// What a [`Scripted`] source was asked and served. A call counts
/// whether or not it failed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Served {
    pub heads: usize,
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
            chunks: Script::new(),
            served: Served::default(),
            head_tags: HashSet::new(),
            misnamed: HashSet::new(),
        }
    }

    /// Drop every step still scripted: from here on each call passes.
    pub fn clear(&mut self) {
        self.heads.clear();
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
            let names = std::iter::once(&mut head.epoch_tag);
            for tag in names.chain(head.chain.iter_mut().map(|link| &mut link.tag)) {
                *tag ^= 1;
                self.misnamed.insert(*tag);
            }
        }
        self.head_tags.insert(head.epoch_tag);
        Ok(head)
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

    fn tag_of(atlas: &Atlas) -> u64 {
        content_tag(&codec::encode(atlas).0)
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
        // After the first chunk it serves, the source replaces its day-1
        // body by one `second` leads to from the same day-0 body.
        let replace = move |s: &mut StaticSource| {
            s.publish(codec::encode(&d0).0, None);
            s.publish(codec::encode(&other).0, Some(second));
        };
        src.chunks
            .extend([Step::Pass, Step::Then(Box::new(replace))]);
        let mut follower = Recorder::at(&world(0, 1));
        assert_eq!(catch_up(&mut src, &mut follower), Ok(1));
        assert_eq!(
            follower.steps,
            [
                Told::Head(1),
                Told::Head(1),
                Told::Apply(0, 1),
                Told::Races(1)
            ]
        );
        assert_eq!(
            follower.holds(),
            src.inner.full.tag(),
            "the replacing delta's body, not a splice"
        );
    }

    #[test]
    fn reader_restarts_when_a_body_disagrees_with_its_tag() {
        let (d0, d1) = (world(0, 1), world(1, 2));
        let inner = || StaticSource::new(codec::encode(&d0).0, vec![delta(&d0, &d1)]);
        // A head misnamed once: its body and its delta are each served
        // under a wrong tag, and the assembled body disagrees with it.
        let mut src = Scripted::new(inner());
        src.heads.push_back(Step::Misname);
        let (version, got, restarts) = read_full(&mut src).expect("restarts");
        assert_eq!((got, restarts), (codec::encode(&d1).0, 1));
        assert_eq!(version.epoch_tag, src.inner.full.tag());

        let mut src = Scripted::new(inner());
        src.heads.push_back(Step::Misname);
        let mut follower = Recorder::at(&d0);
        assert_eq!(catch_up(&mut src, &mut follower), Ok(1));
        assert_eq!(follower.steps.last(), Some(&Told::Races(1)));
        assert_eq!(follower.holds(), src.inner.full.tag());
        assert_eq!(src.served.full_chunks, 0, "the delta, twice");
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
                chain: vec![],
            };
            src.heads.push_back(Step::Answer(Ok(hostile)));
            assert!(read_full(&mut src).is_err());
            assert_eq!(src.served.full_chunks, 0, "refused at the head");
        }
    }

    #[test]
    fn reader_refuses_hostile_handles() {
        // A head's chain is the handle of every delta it names.
        let (d0, d1) = (world(0, 1), world(1, 2));
        let inner = || StaticSource::new(codec::encode(&d0).0, vec![delta(&d0, &d1)]);
        let honest = inner().head().expect("a head");
        let oversized = ChainLink {
            len: MAX_BODY_BYTES + 1,
            ..honest.chain[0]
        };
        let hostile = [
            AtlasVersion {
                chain: vec![oversized],
                ..honest.clone()
            },
            AtlasVersion {
                chunk_size: 0,
                ..honest.clone()
            },
        ];
        for head in hostile {
            let mut src = Scripted::new(inner());
            src.heads.push_back(Step::Answer(Ok(head.clone())));
            let mut follower = Recorder::at(&d0);
            let err = catch_up(&mut src, &mut follower).unwrap_err();
            assert!(matches!(err, ModelError::Decode(_)), "{head:?}: {err}");
            assert_eq!(src.served.delta_chunks, 0, "{head:?}: refused at the head");
            assert_eq!(follower.holds(), tag_of(&d0));
        }
        // A chain naming the held body as the base of a delta that
        // leaves another day: fetched, and refused as it lands.
        let stray = delta(&world(3, 5), &world(4, 6));
        let mut src = StaticSource {
            full: OfferedBody::new(codec::encode(&d1).0),
            chain: vec![OfferedDelta::new(tag_of(&d0), stray)],
            chunk_size: DEFAULT_CHUNK_SIZE,
        };
        let mut follower = Recorder::at(&d0);
        let err = catch_up(&mut src, &mut follower).unwrap_err();
        assert!(matches!(err, ModelError::PatchMismatch(_)), "{err}");
        assert_eq!(follower.holds(), tag_of(&d0));
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
        assert!(head.chain.is_empty(), "no delta leads here");
        let (version, got, _) = read_full(&mut src).expect("fetch");
        assert_eq!(got, bytes);
        assert_eq!(version, head);
    }

    // ---- catch_up: one case per rule, on a recording follower ----

    /// `full` with `deltas` applied, every body in several chunks, so a
    /// race lands mid-body.
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
        /// Holding `atlas` as a source would serve it.
        fn at(atlas: &Atlas) -> Recorder {
            Recorder {
                atlas: codec::decode(&codec::encode(atlas).0).expect("decodes"),
                tags_asked: 0,
                steps: vec![],
            }
        }

        fn holds(&self) -> u64 {
            tag_of(&self.atlas)
        }
    }

    impl Follower for Recorder {
        fn tag(&mut self) -> u64 {
            self.tags_asked += 1;
            self.holds()
        }

        fn apply(&mut self, base: u64, delta: &AtlasDelta, _: Vec<u8>) -> Result<(), ModelError> {
            assert_eq!(base, self.holds(), "a delta lands on the body it leaves");
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
        let mut follower = Recorder::at(&world(1, 1));
        assert_eq!(catch_up(&mut src, &mut follower), Ok(0));
        assert_eq!(follower.steps, [Told::Head(1)]);
        assert_eq!(follower.tags_asked, 1);
        assert_eq!(src.served.full_chunks + src.served.delta_chunks, 0);
    }

    #[test]
    fn catch_up_walks_a_chain_without_asking_the_tag() {
        let (d0, d1, d2) = (world(0, 1), world(1, 2), world(2, 3));
        let mut src = watched(&d0, vec![delta(&d0, &d1), delta(&d1, &d2)]);
        let mut follower = Recorder::at(&d0);
        assert_eq!(catch_up(&mut src, &mut follower), Ok(2));
        assert_eq!(
            follower.steps,
            [Told::Head(2), Told::Apply(0, 1), Told::Apply(1, 2)]
        );
        assert_eq!(
            follower.tags_asked, 1,
            "one compare for the chain, none per delta"
        );
        assert_eq!(follower.holds(), src.inner.full.tag(), "in step");
        assert_eq!(src.served.heads, 1, "one head plans the walk");
        assert_eq!(src.served.full_chunks, 0);

        // A follower one day behind walks the suffix its body leaves.
        let mut follower = Recorder::at(&d1);
        assert_eq!(catch_up(&mut src, &mut follower), Ok(1));
        assert_eq!(follower.steps, [Told::Head(2), Told::Apply(1, 2)]);
        assert_eq!(follower.holds(), src.inner.full.tag());
    }

    #[test]
    fn catch_up_resyncs_an_empty_chain_onto_any_new_body() {
        let mut src = watched(&world(1, 1), vec![]);
        let mut follower = Recorder::at(&world(1, 1));
        // Another day-1 body, then an earlier day's: both followed.
        for (day, marker) in [(1, 7), (0, 9)] {
            follower.steps.clear();
            src.inner
                .publish(codec::encode(&world(day, marker)).0, None);
            assert_eq!(catch_up(&mut src, &mut follower), Ok(0));
            assert_eq!(follower.steps, [Told::Head(day), Told::Resync(day)]);
            let marked = (ClusterId::new(marker), ClusterId::new(marker + 1));
            assert!(follower.atlas.links.contains_key(&marked), "new body");
            assert_eq!(follower.holds(), src.inner.full.tag());
        }
    }

    #[test]
    fn catch_up_never_lands_a_delta_on_another_body_of_its_day() {
        // The upstream replaced its day-1 body, then published a delta
        // leaving the replacement. A follower still on the old day-1
        // body is off that chain: it takes the full body.
        let (old, new, next) = (world(1, 1), world(1, 7), world(2, 8));
        let mut src = watched(&new, vec![delta(&new, &next)]);
        let mut follower = Recorder::at(&old);
        assert_eq!(catch_up(&mut src, &mut follower), Ok(0));
        assert_eq!(follower.steps, [Told::Head(2), Told::Resync(2)]);
        assert_eq!(follower.holds(), src.inner.full.tag());
        assert_eq!(src.served.delta_chunks, 0);
    }

    #[test]
    fn catch_up_keeps_the_days_a_failing_chain_applied() {
        let (d0, d1) = (world(0, 1), world(1, 2));
        let mut src = watched(&d0, vec![delta(&d0, &d1)]);
        // A second delta whose body is not a delta at all.
        src.inner
            .publish(codec::encode(&world(2, 3)).0, Some(vec![0xff; 40]));
        let mut follower = Recorder::at(&d0);
        let err = catch_up(&mut src, &mut follower).unwrap_err();
        assert_eq!(err, ModelError::Decode("bad delta magic".into()));
        assert_eq!(follower.steps, [Told::Head(2), Told::Apply(0, 1)]);
        assert_eq!(src.served.heads, 1, "no restart on a decode error");
        assert_eq!(follower.atlas.day, 1);
    }

    #[test]
    fn catch_up_keeps_applied_deltas_when_the_head_probe_fails() {
        let (d0, d1, d2) = (world(0, 1), world(1, 2), world(2, 3));
        // Default chunks: each delta is one.
        let mut src = Scripted::new(StaticSource::new(
            codec::encode(&d0).0,
            vec![delta(&d0, &d1), delta(&d1, &d2)],
        ));
        // The second delta races; the fresh head it restarts at fails.
        let race = ModelError::VersionRaced("upstream swapped".into());
        let down = ModelError::Decode("upstream down".into());
        src.chunks.extend([Step::Pass, Step::Answer(Err(race))]);
        src.heads
            .extend([Step::Pass, Step::Answer(Err(down.clone()))]);
        let mut follower = Recorder::at(&d0);
        assert_eq!(catch_up(&mut src, &mut follower), Err(down.clone()));
        assert_eq!(
            follower.steps,
            [Told::Head(2), Told::Apply(0, 1), Told::Races(1)]
        );
        assert_eq!(follower.atlas.day, 1, "the landed delta stays");
        // With nothing applied, the failed probe is the outcome.
        follower.steps.clear();
        src.heads.push_back(Step::Down(down.clone()));
        assert_eq!(catch_up(&mut src, &mut follower), Err(down));
        assert!(follower.steps.is_empty());
        assert_eq!(follower.tags_asked, 1, "the first plan's only");
    }

    #[test]
    fn catch_up_refuses_a_delta_that_does_not_advance_the_day() {
        let d0 = world(0, 1);
        let stuck = AtlasDelta {
            from_day: 0,
            to_day: 0,
            ..AtlasDelta::default()
        };
        let mut src = StaticSource::new(codec::encode(&world(1, 2)).0, vec![]);
        src.chain = vec![OfferedDelta::new(tag_of(&d0), stuck.encode().0)];
        let mut follower = Recorder::at(&d0);
        let err = catch_up(&mut src, &mut follower).unwrap_err();
        assert!(matches!(err, ModelError::PatchMismatch(_)), "{err}");
        assert_eq!(follower.steps, [Told::Head(1)]);
    }

    #[test]
    fn catch_up_reports_a_race_the_reader_recovered_from() {
        let mut src = watched(&world(1, 1), vec![]);
        let mut follower = Recorder::at(&world(1, 1));
        src.inner.publish(codec::encode(&world(2, 5)).0, None);
        // Full-body chunk 1 races once.
        let race = ModelError::VersionRaced("upstream swapped".into());
        src.chunks.extend([Step::Pass, Step::Answer(Err(race))]);
        assert_eq!(catch_up(&mut src, &mut follower), Ok(0));
        assert_eq!(
            follower.steps,
            [
                Told::Head(2),
                Told::Head(2),
                Told::Resync(2),
                Told::Races(1)
            ]
        );
    }
}
