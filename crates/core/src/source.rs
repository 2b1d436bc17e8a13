//! Atlas acquisition: a versioned, chunk-oriented [`AtlasSource`], the
//! reader ([`read_full`], [`read_delta`]) that assembles and validates
//! bodies, and the one catch-up policy ([`catch_up`]) that drives the
//! reader for every [`Follower`].
//!
//! The paper's §5 dissemination story is peers fetching the ~7MB atlas
//! (and then small daily deltas) *from each other*. The unit of
//! transfer is a *chunk* of a *named version*, which is what lets one
//! trait sit in front of both sources this workspace has: in memory
//! ([`StaticSource`]: tests, examples, local files) and over the wire
//! (`inano_net::MirrorSource`, one shard of a remote `inano-serve`):
//!
//! * [`AtlasSource::head`] names the newest version —
//!   [`AtlasVersion`]: day, content tag, body length, chunk size — so a
//!   fetcher knows exactly what it is about to assemble;
//! * [`AtlasSource::fetch_full_chunk`] returns one bounded,
//!   checksummed [`AtlasChunk`] of that body, so a transfer survives a
//!   lost chunk by re-fetching *that chunk*, not the whole body, and a
//!   wire frame never has to carry more than one chunk;
//! * [`AtlasSource::fetch_delta`] returns a [`DeltaHandle`] describing
//!   the day-over-day delta body, fetched with the same chunk
//!   machinery via [`AtlasSource::fetch_delta_chunk`].
//!
//! The reader drives a source: it validates every chunk (length and
//! checksum), retries failed chunks, verifies the assembled body
//! against the head's `epoch_tag`, and — when the source reports
//! [`ModelError::VersionRaced`] because the origin swapped generations
//! mid-fetch — restarts at the new head. Each call returns how many
//! such restarts it recovered from beside the body. [`catch_up`] is its
//! one caller outside bootstrap: `INanoClient::update` and the service
//! engine's `update` each hand it a [`Follower`].

use inano_atlas::{codec, Atlas, AtlasDelta};
use inano_model::ModelError;

/// Default chunk size for in-process sources: large enough that a ~7MB
/// atlas is a few dozen chunks, small enough that one chunk always fits
/// the default wire frame limit with room for framing.
pub const DEFAULT_CHUNK_SIZE: u32 = 256 << 10;

/// FNV-1a 64-bit over `bytes`: the workspace-wide content tag. Used
/// both as the per-chunk checksum and as [`AtlasVersion::epoch_tag`]
/// over the whole encoded body, so "the same atlas" has the same tag on
/// every node of a mirror chain, however it got there.
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
    /// Content tag of the encoded body ([`content_tag`]); equal on
    /// every mirror serving the same generation, whatever its local
    /// swap epoch says.
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
    /// Wrap `bytes` with their freshly-computed checksum.
    pub fn of(bytes: Vec<u8>) -> AtlasChunk {
        let crc = content_tag(&bytes);
        AtlasChunk { bytes, crc }
    }

    /// True when the carried checksum matches the carried bytes.
    pub fn verify(&self) -> bool {
        content_tag(&self.bytes) == self.crc
    }
}

/// Where atlas bytes come from: a test vector or local file
/// ([`StaticSource`]), a remote `inano-serve` acting as a mirror
/// (`inano_net::MirrorSource`). The library is
/// "sufficiently modular that any peer-to-peer filesharing protocol can
/// be plugged in" (§5) — the unit of exchange is a checksummed chunk of
/// a named version.
///
/// ## Contract
///
/// * `head()` snapshots the newest full version; subsequent
///   `fetch_full_chunk` calls serve *that* version's body. If the
///   source moves on mid-fetch (a mirror applied a delta), it returns
///   [`ModelError::VersionRaced`] and the fetcher restarts at the new
///   head — it must not silently splice bodies from two generations.
/// * `fetch_delta(have_day)` offers the delta leaving `have_day`, if
///   one exists; its body is served by `fetch_delta_chunk(from_day, _)`
///   with the same race rule.
/// * A chunk index at or beyond the body's chunk count is a typed
///   [`ModelError::ChunkOutOfRange`].
pub trait AtlasSource {
    /// The newest available full-atlas version.
    fn head(&mut self) -> Result<AtlasVersion, ModelError>;
    /// Chunk `idx` of the full body last named by [`AtlasSource::head`].
    fn fetch_full_chunk(&mut self, idx: u32) -> Result<AtlasChunk, ModelError>;
    /// The delta from `have_day` to the next day, if one is available.
    fn fetch_delta(&mut self, have_day: u32) -> Result<Option<DeltaHandle>, ModelError>;
    /// Chunk `idx` of the delta body leaving `from_day`.
    fn fetch_delta_chunk(&mut self, from_day: u32, idx: u32) -> Result<AtlasChunk, ModelError>;
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
    let mut restarts = 0;
    loop {
        let head = source.head()?;
        check_body(head.full_len, head.chunk_size)?;
        match body(head.full_len, head.chunk_size, &mut |i| {
            source.fetch_full_chunk(i)
        }) {
            Ok(body) if content_tag(&body) == head.epoch_tag => return Ok((head, body, restarts)),
            // An assembled body whose tag disagrees with its head means
            // the source changed under us without saying so; treat it
            // like a declared race.
            Ok(_) => {}
            Err(e) if is_race(&e) => {}
            Err(e) => return Err(e),
        }
        restarts += 1;
        if restarts > MAX_RESTARTS {
            return Err(ModelError::VersionRaced(format!(
                "full fetch restarted {restarts} times without completing"
            )));
        }
    }
}

/// The reader, delta half: download and validate the body of the delta
/// leaving `have_day`, if the source has one, with the restarts it
/// recovered from (see [`read_full`]).
pub fn read_delta(
    source: &mut dyn AtlasSource,
    have_day: u32,
) -> Result<(Option<Vec<u8>>, u32), ModelError> {
    let mut restarts = 0;
    loop {
        let Some(handle) = source.fetch_delta(have_day)? else {
            return Ok((None, restarts));
        };
        if handle.from_day != have_day {
            return Err(ModelError::Decode(format!(
                "asked for the delta leaving day {have_day}, offered {}→{}",
                handle.from_day, handle.to_day
            )));
        }
        check_body(handle.len, handle.chunk_size)?;
        match body(handle.len, handle.chunk_size, &mut |i| {
            source.fetch_delta_chunk(handle.from_day, i)
        }) {
            Ok(body) => return Ok((Some(body), restarts)),
            Err(e) if is_race(&e) => {}
            Err(e) => return Err(e),
        }
        restarts += 1;
        if restarts > MAX_RESTARTS {
            return Err(ModelError::VersionRaced(format!(
                "delta fetch from day {have_day} restarted {restarts} times"
            )));
        }
    }
}

/// A peer's atlas as [`catch_up`] sees it. The policy decides every
/// step; an implementation says only what a step does to it: which tag
/// it holds, how a delta lands, and what it records along the way.
pub trait Follower {
    /// Day of the atlas the next delta must leave.
    fn day(&self) -> u32;
    /// `epoch_tag` of the upstream version this follower holds. Asked
    /// only when the delta chain was empty.
    fn tag(&mut self) -> u64;
    /// Land one delta; `bytes` is its validated wire form.
    fn apply(&mut self, delta: &AtlasDelta, bytes: Vec<u8>) -> Result<(), ModelError>;
    /// The source's head, probed after the chain, before any full
    /// fetch. `in_step` is true when the follower now holds that
    /// version: the chain ended on the head's day, or the tags matched.
    fn head(&mut self, head: &AtlasVersion, in_step: bool);
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
///    its head the version its own delta chain ends at.
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
    let resync = applied == 0 && head.epoch_tag != follower.tag();
    follower.head(&head, !resync && head.day == follower.day());
    if resync {
        let (version, bytes, races) = read_full(source)?;
        if races > 0 {
            follower.races(races);
        }
        follower.resync(&version, codec::decode(&bytes)?);
    }
    Ok(applied)
}

fn check_body(len: u64, chunk_size: u32) -> Result<(), ModelError> {
    if chunk_size == 0 {
        return Err(ModelError::Decode("source declared chunk size 0".into()));
    }
    if len > MAX_BODY_BYTES {
        return Err(ModelError::Decode(format!(
            "declared body of {len} bytes exceeds reader limit {MAX_BODY_BYTES}"
        )));
    }
    Ok(())
}

/// Assemble one body chunk by chunk, retrying each failed chunk in
/// place up to `CHUNK_RETRIES` times.
fn body(
    len: u64,
    chunk_size: u32,
    fetch: &mut dyn FnMut(u32) -> Result<AtlasChunk, ModelError>,
) -> Result<Vec<u8>, ModelError> {
    let mut out = Vec::new();
    for idx in 0..n_chunks(len, chunk_size) {
        let want = chunk_span(len, chunk_size, idx)?.len();
        let mut attempts = 0;
        let chunk = loop {
            let outcome = match fetch(idx) {
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
    Ok(out)
}

fn is_race(e: &ModelError) -> bool {
    matches!(
        e,
        ModelError::VersionRaced(_) | ModelError::ChunkOutOfRange(_)
    )
}

/// An in-memory source, for tests and local files: one encoded full
/// body plus any encoded daily deltas, served in `chunk_size` chunks.
/// The fields are public so a test can move the source on (swap `full`
/// for a later day's body, drop a delta) between two fetches.
pub struct StaticSource {
    pub full: Vec<u8>,
    pub deltas: Vec<Vec<u8>>,
    /// [`DEFAULT_CHUNK_SIZE`] unless a test wants multi-chunk bodies.
    pub chunk_size: u32,
}

impl StaticSource {
    pub fn new(full: Vec<u8>, deltas: Vec<Vec<u8>>) -> StaticSource {
        StaticSource {
            full,
            deltas,
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }

    /// The encoded delta leaving `from_day`, with its parsed day span.
    fn delta(&self, from_day: u32) -> Result<Option<(DeltaHandle, &[u8])>, ModelError> {
        for bytes in &self.deltas {
            let parsed = AtlasDelta::decode(bytes)?;
            if parsed.from_day == from_day {
                let handle = DeltaHandle {
                    from_day,
                    to_day: parsed.to_day,
                    len: bytes.len() as u64,
                    chunk_size: self.chunk_size,
                };
                return Ok(Some((handle, bytes)));
            }
        }
        Ok(None)
    }
}

impl AtlasSource for StaticSource {
    fn head(&mut self) -> Result<AtlasVersion, ModelError> {
        Ok(AtlasVersion {
            // Peek, don't decode: the consumer decodes the assembled
            // body itself.
            day: codec::peek_day(&self.full)?,
            epoch_tag: content_tag(&self.full),
            full_len: self.full.len() as u64,
            chunk_size: self.chunk_size,
        })
    }

    fn fetch_full_chunk(&mut self, idx: u32) -> Result<AtlasChunk, ModelError> {
        let span = chunk_span(self.full.len() as u64, self.chunk_size, idx)?;
        Ok(AtlasChunk::of(self.full[span].to_vec()))
    }

    fn fetch_delta(&mut self, have_day: u32) -> Result<Option<DeltaHandle>, ModelError> {
        Ok(self.delta(have_day)?.map(|(handle, _)| handle))
    }

    fn fetch_delta_chunk(&mut self, from_day: u32, idx: u32) -> Result<AtlasChunk, ModelError> {
        let Some((handle, bytes)) = self.delta(from_day)? else {
            return Err(ModelError::VersionRaced(format!(
                "no delta leaving day {from_day} is available any more"
            )));
        };
        let span = chunk_span(handle.len, handle.chunk_size, idx)?;
        Ok(AtlasChunk::of(bytes[span].to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An AtlasSource serving `body` directly, with fault injection.
    struct FaultySource {
        day: u32,
        body: Vec<u8>,
        chunk_size: u32,
        /// Chunk indexes that fail (once each) with a transient error.
        flaky: Vec<u32>,
        /// Corrupt this chunk's checksum once.
        corrupt_once: Option<u32>,
        /// After this many total chunk fetches, swap to `next_body`.
        race_after: Option<usize>,
        next_body: Vec<u8>,
        fetches: usize,
    }

    impl FaultySource {
        fn new(body: Vec<u8>, chunk_size: u32) -> FaultySource {
            FaultySource {
                day: 0,
                body,
                chunk_size,
                flaky: vec![],
                corrupt_once: None,
                race_after: None,
                next_body: vec![],
                fetches: 0,
            }
        }

        fn version(&self) -> AtlasVersion {
            AtlasVersion {
                day: self.day,
                epoch_tag: content_tag(&self.body),
                full_len: self.body.len() as u64,
                chunk_size: self.chunk_size,
            }
        }
    }

    impl AtlasSource for FaultySource {
        fn head(&mut self) -> Result<AtlasVersion, ModelError> {
            Ok(self.version())
        }

        fn fetch_full_chunk(&mut self, idx: u32) -> Result<AtlasChunk, ModelError> {
            self.fetches += 1;
            if let Some(after) = self.race_after {
                if self.fetches > after {
                    self.race_after = None;
                    self.body = std::mem::take(&mut self.next_body);
                    self.day += 1;
                    return Err(ModelError::VersionRaced("origin swapped".into()));
                }
            }
            if let Some(pos) = self.flaky.iter().position(|&i| i == idx) {
                self.flaky.remove(pos);
                return Err(ModelError::Decode("transient fetch failure".into()));
            }
            let span = chunk_span(self.body.len() as u64, self.chunk_size, idx)?;
            let mut chunk = AtlasChunk::of(self.body[span].to_vec());
            if self.corrupt_once == Some(idx) {
                self.corrupt_once = None;
                chunk.crc ^= 1;
            }
            Ok(chunk)
        }

        fn fetch_delta(&mut self, _have_day: u32) -> Result<Option<DeltaHandle>, ModelError> {
            Ok(None)
        }

        fn fetch_delta_chunk(
            &mut self,
            _from_day: u32,
            _idx: u32,
        ) -> Result<AtlasChunk, ModelError> {
            Err(ModelError::Decode("no deltas here".into()))
        }
    }

    fn body(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
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
        let b = body(1000);
        let mut src = FaultySource::new(b.clone(), 64);
        let (version, got, _) = read_full(&mut src).expect("fetches");
        assert_eq!(got, b);
        assert_eq!(version.n_chunks(), 16);
        assert_eq!(version.epoch_tag, content_tag(&b));
    }

    #[test]
    fn reader_retries_failed_and_corrupt_chunks_in_place() {
        let b = body(300);
        let mut src = FaultySource::new(b.clone(), 100);
        src.flaky = vec![1];
        src.corrupt_once = Some(2);
        let (_, got, restarts) = read_full(&mut src).expect("resumes");
        assert_eq!(got, b);
        // 3 chunks + 1 flaky retry + 1 corrupt retry; no full restart.
        assert_eq!(src.fetches, 5);
        assert_eq!(restarts, 0);
    }

    #[test]
    fn reader_gives_up_after_chunk_retries() {
        let b = body(300);
        let mut src = FaultySource::new(b, 100);
        src.flaky = vec![1, 1, 1, 1, 1, 1, 1, 1];
        let err = read_full(&mut src).unwrap_err();
        assert!(matches!(err, ModelError::Decode(_)), "{err}");
    }

    #[test]
    fn reader_restarts_at_the_new_head_when_the_version_races() {
        let old = body(400);
        let new = body(640);
        let mut src = FaultySource::new(old, 128);
        src.next_body = new.clone();
        src.race_after = Some(2);
        let (version, got, restarts) = read_full(&mut src).expect("restarts");
        assert_eq!(got, new, "the fetch lands on the post-race body");
        assert_eq!(restarts, 1);
        assert_eq!(version.day, 1);
        assert_eq!(version.epoch_tag, content_tag(&new));
    }

    #[test]
    fn reader_refuses_hostile_heads() {
        struct Hostile(u64, u32);
        impl AtlasSource for Hostile {
            fn head(&mut self) -> Result<AtlasVersion, ModelError> {
                Ok(AtlasVersion {
                    day: 0,
                    epoch_tag: 0,
                    full_len: self.0,
                    chunk_size: self.1,
                })
            }
            fn fetch_full_chunk(&mut self, _: u32) -> Result<AtlasChunk, ModelError> {
                panic!("must refuse at the head");
            }
            fn fetch_delta(&mut self, _: u32) -> Result<Option<DeltaHandle>, ModelError> {
                Ok(None)
            }
            fn fetch_delta_chunk(&mut self, _: u32, _: u32) -> Result<AtlasChunk, ModelError> {
                unreachable!()
            }
        }
        assert!(read_full(&mut Hostile(u64::MAX, 1024)).is_err());
        assert!(read_full(&mut Hostile(1024, 0)).is_err());
    }

    #[test]
    fn blob_source_serves_real_atlas_bytes_chunked() {
        use inano_atlas::Atlas;
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

    use inano_atlas::LinkAnnotation;
    use inano_model::ClusterId;

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

    /// A [`StaticSource`] that counts the full-body chunks it serves
    /// and can report one version race.
    struct Watched {
        inner: StaticSource,
        full_chunks: usize,
        race_at: Option<u32>,
    }

    impl Watched {
        fn new(full: &Atlas, deltas: Vec<Vec<u8>>) -> Watched {
            Watched {
                inner: StaticSource {
                    // Several chunks per body, so a race lands mid-body.
                    chunk_size: 16,
                    ..StaticSource::new(codec::encode(full).0, deltas)
                },
                full_chunks: 0,
                race_at: None,
            }
        }
    }

    impl AtlasSource for Watched {
        fn head(&mut self) -> Result<AtlasVersion, ModelError> {
            self.inner.head()
        }

        fn fetch_full_chunk(&mut self, idx: u32) -> Result<AtlasChunk, ModelError> {
            self.full_chunks += 1;
            if self.race_at == Some(idx) {
                self.race_at = None;
                return Err(ModelError::VersionRaced("upstream swapped".into()));
            }
            self.inner.fetch_full_chunk(idx)
        }

        fn fetch_delta(&mut self, have_day: u32) -> Result<Option<DeltaHandle>, ModelError> {
            self.inner.fetch_delta(have_day)
        }

        fn fetch_delta_chunk(&mut self, from_day: u32, idx: u32) -> Result<AtlasChunk, ModelError> {
            self.inner.fetch_delta_chunk(from_day, idx)
        }
    }

    /// What a follower was told, in order.
    #[derive(Debug, PartialEq)]
    enum Step {
        Apply(u32, u32),
        Head { day: u32, in_step: bool },
        Resync(u32),
        Races(u32),
    }

    /// A follower that lands every delta for real, keeps the upstream
    /// tag the way `INanoClient` does, and records each step.
    struct Recorder {
        atlas: Atlas,
        tag: u64,
        tags_asked: usize,
        steps: Vec<Step>,
    }

    impl Recorder {
        /// Bootstrapped from `source`'s full body.
        fn on(source: &mut dyn AtlasSource) -> Recorder {
            let (version, bytes, _) = read_full(source).expect("bootstrap");
            Recorder {
                atlas: codec::decode(&bytes).expect("decodes"),
                tag: version.epoch_tag,
                tags_asked: 0,
                steps: vec![],
            }
        }
    }

    impl Follower for Recorder {
        fn day(&self) -> u32 {
            self.atlas.day
        }

        fn tag(&mut self) -> u64 {
            self.tags_asked += 1;
            self.tag
        }

        fn apply(&mut self, delta: &AtlasDelta, _: Vec<u8>) -> Result<(), ModelError> {
            self.atlas = delta.apply(&self.atlas)?;
            self.steps.push(Step::Apply(delta.from_day, delta.to_day));
            Ok(())
        }

        fn head(&mut self, head: &AtlasVersion, in_step: bool) {
            if in_step {
                self.tag = head.epoch_tag;
            }
            let day = head.day;
            self.steps.push(Step::Head { day, in_step });
        }

        fn resync(&mut self, version: &AtlasVersion, atlas: Atlas) {
            self.atlas = atlas;
            self.tag = version.epoch_tag;
            self.steps.push(Step::Resync(version.day));
        }

        fn races(&mut self, races: u32) {
            self.steps.push(Step::Races(races));
        }
    }

    #[test]
    fn catch_up_in_step_moves_no_body() {
        let mut src = Watched::new(&world(1, 1), vec![]);
        let mut follower = Recorder::on(&mut src);
        let bootstrap_chunks = src.full_chunks;
        assert_eq!(catch_up(&mut src, &mut follower), Ok(0));
        let in_step = Step::Head {
            day: 1,
            in_step: true,
        };
        assert_eq!(follower.steps, [in_step]);
        assert_eq!(src.full_chunks, bootstrap_chunks);
    }

    #[test]
    fn catch_up_walks_a_chain_without_asking_the_tag() {
        let (d0, d1, d2) = (world(0, 1), world(1, 2), world(2, 3));
        let mut src = Watched::new(&d0, vec![delta(&d0, &d1), delta(&d1, &d2)]);
        let mut follower = Recorder::on(&mut src);
        // The upstream moves on to the day its chain ends at.
        src.inner.full = codec::encode(&d2).0;
        let bootstrap_chunks = src.full_chunks;
        assert_eq!(catch_up(&mut src, &mut follower), Ok(2));
        let in_step = Step::Head {
            day: 2,
            in_step: true,
        };
        assert_eq!(
            follower.steps,
            [Step::Apply(0, 1), Step::Apply(1, 2), in_step]
        );
        assert_eq!(
            follower.tags_asked, 0,
            "a chain that applied never compares"
        );
        assert_eq!(follower.tag, content_tag(&src.inner.full), "adopted");
        assert_eq!(src.full_chunks, bootstrap_chunks);
    }

    #[test]
    fn catch_up_resyncs_an_empty_chain_onto_any_new_body() {
        let mut src = Watched::new(&world(1, 1), vec![]);
        let mut follower = Recorder::on(&mut src);
        // Another day-1 body, then an earlier day's: both followed.
        for (day, marker) in [(1, 7), (0, 9)] {
            follower.steps.clear();
            src.inner.full = codec::encode(&world(day, marker)).0;
            assert_eq!(catch_up(&mut src, &mut follower), Ok(0));
            let head = Step::Head {
                day,
                in_step: false,
            };
            assert_eq!(follower.steps, [head, Step::Resync(day)]);
            let marked = (ClusterId::new(marker), ClusterId::new(marker + 1));
            assert!(follower.atlas.links.contains_key(&marked), "new body");
            assert_eq!(follower.tag, content_tag(&src.inner.full));
        }
    }

    #[test]
    fn catch_up_keeps_the_days_a_failing_chain_applied() {
        let (d0, d1) = (world(0, 1), world(1, 2));
        let mut src = Watched::new(&d0, vec![delta(&d0, &d1), vec![0xff; 40]]);
        let mut follower = Recorder::on(&mut src);
        let err = catch_up(&mut src, &mut follower).unwrap_err();
        assert_eq!(err, ModelError::Decode("bad delta magic".into()));
        assert_eq!(follower.steps, [Step::Apply(0, 1)], "no head probe");
        assert_eq!(follower.day(), 1);
    }

    #[test]
    fn catch_up_keeps_applied_deltas_when_the_head_probe_fails() {
        let (d0, d1) = (world(0, 1), world(1, 2));
        let mut src = Watched::new(&d0, vec![delta(&d0, &d1)]);
        let mut follower = Recorder::on(&mut src);
        src.inner.full = vec![];
        assert_eq!(catch_up(&mut src, &mut follower), Ok(1));
        assert_eq!(follower.steps, [Step::Apply(0, 1)]);
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
        let mut src = Watched::new(&d0, vec![stuck.encode().0]);
        let mut follower = Recorder::on(&mut src);
        let err = catch_up(&mut src, &mut follower).unwrap_err();
        assert!(matches!(err, ModelError::PatchMismatch(_)), "{err}");
        assert!(follower.steps.is_empty());
    }

    #[test]
    fn catch_up_reports_a_race_the_reader_recovered_from() {
        let mut src = Watched::new(&world(1, 1), vec![]);
        let mut follower = Recorder::on(&mut src);
        src.inner.full = codec::encode(&world(2, 5)).0;
        src.race_at = Some(1);
        assert_eq!(catch_up(&mut src, &mut follower), Ok(0));
        let head = Step::Head {
            day: 2,
            in_step: false,
        };
        assert_eq!(follower.steps, [head, Step::Races(1), Step::Resync(2)]);
    }
}
