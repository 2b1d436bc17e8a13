//! The wire protocol: compact length-prefixed binary frames.
//!
//! ## Framing
//!
//! Every frame is an 18-byte header followed by a payload:
//!
//! ```text
//! magic      u32  0x694E614E ("iNaN")
//! version    u8   8
//! frame type u8   see the table below
//! request id u64  echoed verbatim in the reply
//! payload    u32  payload length in bytes
//! ```
//!
//! All integers are big-endian; floats travel as IEEE-754 bit patterns
//! (`f64::to_bits`). The request id is chosen by the client and echoed
//! by the server, which is what makes pipelining work: a client may
//! write any number of requests before reading replies, and matches
//! them back up by id (the server also answers strictly in request
//! order per connection).
//!
//! There is one protocol version, [`VERSION`], and it is the only one
//! a receiver accepts: any other version byte is a fatal `BadVersion`
//! on a stream and a silent drop on a datagram. No client exists
//! outside this tree, so a breaking change bumps the number instead of
//! growing an accept window.
//!
//! ## Frames
//!
//! What a frame *is* is written down once, in the `frames!` table
//! further down this file: one row per frame — type byte, role,
//! variant, fields in wire order — whose expansion is the [`Frame`]
//! enum, [`Frame::frame_type`], the payload encoder and decoder, and
//! [`role_of`]. This table is that one's reading copy (a unit test
//! keeps the two in step):
//!
//! | type | role | frame | reply | shard-scoped | on a datagram |
//! |---|---|---|---|---|---|
//! | `0x01` | `Request` | `Ping` | `0x81 Pong` | no | yes |
//! | `0x02` | `Request` | `QueryBatch` | `0x82 PathBatch` | yes | yes |
//! | `0x03` | `Request` | `Resolve` | `0x83 ResolveReply` | yes | yes |
//! | `0x05` | `Request` | `Epoch` | `0x85 EpochReply` | yes | yes |
//! | `0x06` | `StreamRequest` | `ListShards` | `0x86 ShardsReply` | no | no |
//! | `0x07` | `Request` | `AtlasHead` | `0x87 AtlasHeadReply` | yes | yes |
//! | `0x08` | `StreamRequest` | `FetchChunk` | `0x88 ChunkReply` | yes | no |
//! | `0x0B` | `StreamRequest` | `Metrics` | `0x8B MetricsReply` | no | no |
//! | `0x0C` | `StreamRequest` | `Events` | `0x8C EventsReply` | no | no |
//! | `0x8A` | `Reply` | `TraceReply` | (a trailer, see below) | — | no |
//! | `0xEE` | `Reply` | `Error` | (answers any request) | — | yes |
//!
//! Every type named in the reply column is a `Reply` row of its own.
//! The [`Role`] is what a server acts on, from the type byte alone and
//! before it parses a payload byte: a `Reply` type is answered
//! `UnexpectedFrame`, a `StreamRequest` arriving in a datagram
//! `NotOnDatagram`, and only what is left is decoded, charged to the
//! request-memory budget and queued. Types `0x04`/`0x84`,
//! `0x09`/`0x89` and `0x0A` are retired and decode as `UnknownFrame`
//! like any other unassigned byte.
//!
//! **Adding a frame** is one row in `frames!`, plus: a `Wire` impl
//! (the field's byte layout, writer and reader side by side) only if
//! the row brings a field type no row has yet; for a request, its arm
//! in `server.rs`'s `serve`; a golden vector and an `arb_frame` arm in
//! `tests/wire_properties.rs` (a test fails until both exist); and its
//! row in the table above.
//!
//! **Shards.** One server hosts many independent atlas shards
//! ([`inano_service::ShardRegistry`]); every shard-scoped request leads
//! its payload with a `u16` shard id. Naming a shard the server does
//! not host is a per-frame [`ErrorCode::UnknownShard`] fault, never a
//! connection loss. `ListShards` enumerates what the server hosts
//! ([`WireShardInfo`]: id, epoch, day).
//!
//! **Atlas dissemination** — the fetch side of §5, so any server can
//! stand in as an atlas mirror. A body — the full atlas or a daily
//! delta — is named by its content tag. `AtlasHead` names the shard's
//! newest full body and the retained chain of deltas leading to it
//! ([`inano_core::AtlasVersion`]: day, content `epoch_tag`, body
//! length, chunk size, then per delta the tag of the body it leaves,
//! its own tag and its length — at most [`DELTA_LOG_CAP`] of them).
//! `FetchChunk { shard, tag, idx }` carries one checksummed chunk of
//! any of them back; if the shard no longer offers a body under that
//! tag (it swapped generations, or replaced its atlas) the server
//! answers a typed [`ErrorCode::VersionRaced`] fault — ask again and
//! restart — instead of silently splicing two bodies. Chunk sizes are
//! derived from the server's own [`Limits`] ([`chunk_size_for`]), so a
//! `ChunkReply` payload never exceeds `max_frame_bytes` — an atlas
//! bigger than one frame simply arrives as more chunks — and a head
//! with a full chain fits one datagram. A stale chunk index is a typed
//! [`ErrorCode::ChunkOutOfRange`] fault; none of these ever cost the
//! connection.
//!
//! **Observability.** `Metrics` dumps the server's whole
//! [`inano_obs::MetricsRegistry`] as stable name/value pairs
//! (counters, gauges, raw log₂ histograms) — the one way to read a
//! server's counters over the wire; merge semantics live on
//! [`inano_obs::MetricsDump`]. `Events { since_seq }` pages the
//! server's [`inano_obs::EventJournal`]: the events at or past
//! `since_seq` in ascending `seq` order, plus `lost` (requested
//! sequence numbers the bounded ring had already overwritten —
//! overflow is *reported*, never silent) and `next_seq` (the cursor to
//! poll with). Event kinds travel as stable u8 codes
//! ([`inano_obs::EventKind::code`]); a code this build doesn't know is
//! skipped at decode, not a fault.
//!
//! **Request tracing.** A client may set [`TRACE_FLAG`] (bit 63) on its
//! request id. Ids are client-chosen and echoed verbatim, so the flag
//! rides the header with zero extra bytes. For a flagged stream request
//! whose reply is not `Error`, the server writes a `TraceReply`
//! *trailer* frame (same id, [`inano_obs::TraceTimings`]: decode →
//! queue → engine → encode µs) immediately after the main reply. Error
//! replies carry no trailer — both sides apply that rule, so pipelining
//! stays aligned.
//!
//! ## Error handling
//!
//! Decoding distinguishes two failure severities, and the distinction
//! is load-bearing for pipelining:
//!
//! * **fatal** ([`ReadError::Fatal`]) — the stream can no longer be
//!   trusted to be frame-aligned (bad magic, bad version, a declared
//!   payload length over the limit). The server replies with one
//!   [`Frame::Error`] (request id 0) and closes the connection.
//! * **per-frame** ([`ReadError::Frame`]) — the header was sound and
//!   the payload was fully consumed, but its contents don't parse (or a
//!   batch exceeds [`Limits::max_batch`]), or — on a server — its type
//!   is not a request. The server replies with a typed [`Frame::Error`]
//!   carrying the request id and keeps serving the connection.
//!
//! Error *codes* live in [`inano_model::ErrorCode`] so the engine's own
//! `ModelError`s cross the wire losslessly typed.

use inano_core::{AtlasVersion, ChainLink, PredictedPath, Resolution, DEFAULT_CHUNK_SIZE};
use inano_model::{Asn, ClusterId, ErrorCode, Ipv4, LatencyMs, LossRate, ModelError, PrefixId};
use inano_obs::{Event, EventKind, EventsPage, MetricValue, MetricsDump, TraceTimings};
use inano_service::{ShardId, SharedResult, DELTA_LOG_CAP};
use std::io::{self, Read, Write};
use std::time::Instant;

/// `"iNaN"` in ASCII.
pub const MAGIC: u32 = 0x694E_614E;
/// The protocol version: the only one written, the only one accepted.
pub const VERSION: u8 = 8;
/// Most log₂ latency buckets accepted in one `MetricsReply` histogram
/// (the engine ships 40; bucket index feeds a `1 << i`, so a foreign
/// histogram must not be allowed to claim thousands).
pub const MAX_BUCKETS: usize = 64;
/// Fixed frame-header size in bytes.
pub const HEADER_BYTES: usize = 18;
/// Most entries accepted in one `MetricsReply` (a serve process has a
/// few dozen per shard; thousands of shards is beyond this protocol).
pub const MAX_METRICS_ENTRIES: usize = 16_384;
/// Most events in one `EventsReply` — comfortably above any journal
/// ring capacity in use, low enough that a hostile count can't force a
/// large allocation.
pub const MAX_EVENTS_ENTRIES: usize = 4096;

/// Bit 63 of the request id: the client asks for a [`Frame::TraceReply`]
/// trailer after the reply. Servers echo the id verbatim — flag
/// included — which keeps pipelined id-matching working for tracing
/// and non-tracing requests alike.
///
/// **Wire contract: bit 63 is reserved.** It is a transport signal,
/// not id space — a client that lets its id counter grow into bit 63
/// would silently start requesting traces and desynchronise its own
/// pipeline on the surprise `TraceReply` trailers. Id generators must
/// mask the bit out (ours wrap back to 1; see
/// `NetClient`/`UdpQuerier`), and only the tracing entry points may
/// set it deliberately.
pub const TRACE_FLAG: u64 = 1 << 63;

/// Fixed `ChunkReply` payload overhead: chunk index (4) + checksum (8)
/// + byte-count register (4).
pub const CHUNK_WIRE_OVERHEAD: u32 = 16;

/// The chunk size a sender bounded by `limits` serves atlas bodies in:
/// the in-process default, shrunk until one chunk (plus its framing)
/// always fits `max_frame_bytes`.
pub fn chunk_size_for(limits: &Limits) -> u32 {
    DEFAULT_CHUNK_SIZE
        .min(limits.max_frame_bytes.saturating_sub(CHUNK_WIRE_OVERHEAD))
        .max(1)
}

/// Receiver-side protocol limits. Senders should stay within the
/// defaults; a server may advertise different ones out of band.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Largest accepted payload, bytes. A header declaring more is a
    /// fatal framing error (the receiver refuses to buffer it).
    pub max_frame_bytes: u32,
    /// Most pairs in one `QueryBatch` / results in one `PathBatch`.
    pub max_batch: u32,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_frame_bytes: 1 << 20,
            max_batch: 4096,
        }
    }
}

/// A typed fault: stable code plus a short human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireFault {
    pub code: ErrorCode,
    pub message: String,
}

impl WireFault {
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireFault {
        WireFault {
            code,
            message: message.into(),
        }
    }
}

impl From<&ModelError> for WireFault {
    fn from(e: &ModelError) -> WireFault {
        WireFault {
            code: ErrorCode::from(e),
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for WireFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// A predicted path in wire form — everything `PredictedPath` carries,
/// with ids flattened to raw `u32`s.
#[derive(Clone, Debug, PartialEq)]
pub struct WirePath {
    pub fwd_clusters: Vec<u32>,
    pub rev_clusters: Vec<u32>,
    pub fwd_as: Vec<u32>,
    pub rev_as: Vec<u32>,
    pub rtt_ms: f64,
    pub loss: f64,
}

impl From<&PredictedPath> for WirePath {
    fn from(p: &PredictedPath) -> WirePath {
        WirePath {
            fwd_clusters: p.fwd_clusters.iter().map(|c| c.raw()).collect(),
            rev_clusters: p.rev_clusters.iter().map(|c| c.raw()).collect(),
            fwd_as: p.fwd_as_path.iter().map(|a| a.raw()).collect(),
            rev_as: p.rev_as_path.iter().map(|a| a.raw()).collect(),
            rtt_ms: p.rtt.ms(),
            loss: p.loss.rate(),
        }
    }
}

impl WirePath {
    /// Reconstruct the library-side type (AS prepending was already
    /// collapsed on the server, so `AsPath::new` is the identity here).
    pub fn into_predicted(self) -> PredictedPath {
        PredictedPath {
            fwd_clusters: self.fwd_clusters.into_iter().map(ClusterId::new).collect(),
            rev_clusters: self.rev_clusters.into_iter().map(ClusterId::new).collect(),
            fwd_as_path: self.fwd_as.into_iter().map(Asn::new).collect(),
            rev_as_path: self.rev_as.into_iter().map(Asn::new).collect(),
            rtt: LatencyMs::new(self.rtt_ms),
            loss: LossRate::new(self.loss),
        }
    }
}

/// An endpoint resolution in wire form (see [`inano_core::Resolution`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireResolution {
    pub prefix: u32,
    pub cluster: u32,
    pub origin_as: Option<u32>,
    pub cluster_as: Option<u32>,
    pub refined_providers: bool,
}

impl From<&Resolution> for WireResolution {
    fn from(r: &Resolution) -> WireResolution {
        WireResolution {
            prefix: r.prefix.raw(),
            cluster: r.cluster.raw(),
            origin_as: r.origin_as.map(|a| a.raw()),
            cluster_as: r.cluster_as.map(|a| a.raw()),
            refined_providers: r.refined_providers,
        }
    }
}

impl WireResolution {
    pub fn into_resolution(self) -> Resolution {
        Resolution {
            prefix: PrefixId::new(self.prefix),
            cluster: ClusterId::new(self.cluster),
            origin_as: self.origin_as.map(Asn::new),
            cluster_as: self.cluster_as.map(Asn::new),
            refined_providers: self.refined_providers,
        }
    }
}

/// One hosted shard in a `ShardsReply`: its id and the `(epoch, day)`
/// of its serving generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireShardInfo {
    pub shard: u16,
    pub epoch: u64,
    pub day: u32,
}

// ---- the frame table ------------------------------------------------

/// What a frame type is for, as its row of the frame table declares.
/// A server acts on it from the type byte alone, before any payload
/// byte is parsed (see [`role_of`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// A request either transport serves: one small self-contained
    /// question whose reply plausibly fits a datagram.
    Request,
    /// A request only the stream transport serves: chunked fetches and
    /// the unbounded-page introspection frames.
    StreamRequest,
    /// Reply-direction (or error) frames: never a request.
    Reply,
}

/// Expand the frame table — one row per frame: type byte, [`Role`],
/// variant, fields in wire order — into everything that has to agree
/// about it: the [`Frame`] enum, [`Frame::frame_type`], the payload
/// encoder and decoder (a payload is its fields' [`Wire`] layouts in row
/// order, then nothing), and [`role_of`].
macro_rules! frames {
    ($(
        $(#[$doc:meta])*
        $byte:literal $role:ident $name:ident $({ $($field:ident: $ty:ty),+ })?
    )+) => {
        /// One protocol frame (request or reply), minus the request id
        /// that travels in the header. Generated from the frame table.
        #[derive(Clone, Debug, PartialEq)]
        pub enum Frame {
            $( $(#[$doc])* $name $({ $($field: $ty),+ })?, )+
        }

        /// The role the frame table gives `frame_type`; `None` for a
        /// byte no row assigns.
        pub fn role_of(frame_type: u8) -> Option<Role> {
            match frame_type {
                $( $byte => Some(Role::$role), )+
                _ => None,
            }
        }

        impl Frame {
            pub fn frame_type(&self) -> u8 {
                match self {
                    $( Frame::$name $({ $($field: _),+ })? => $byte, )+
                }
            }

            fn encode_payload(&self, buf: &mut Vec<u8>) {
                match self {
                    $( Frame::$name $({ $($field),+ })? => { $($( $field.put(buf); )+)? } )+
                }
            }

            /// Decode a payload whose header has already been validated.
            pub fn decode_payload(
                frame_type: u8,
                payload: &[u8],
                limits: &Limits,
            ) -> Result<Frame, WireFault> {
                let mut c = Cursor::new(payload);
                let frame = match frame_type {
                    $( $byte => Frame::$name $({ $($field: Wire::get(&mut c, limits)?),+ })?, )+
                    t => {
                        return Err(WireFault::new(
                            ErrorCode::UnknownFrame,
                            format!("unknown frame type {t:#04x}"),
                        ))
                    }
                };
                c.done()?;
                Ok(frame)
            }
        }
    };
}

frames! {
    0x01 Request Ping
    0x02 Request QueryBatch { shard: ShardId, pairs: Vec<(Ipv4, Ipv4)> }
    0x03 Request Resolve { shard: ShardId, ip: Ipv4 }
    0x05 Request Epoch { shard: ShardId }
    0x06 StreamRequest ListShards
    /// What is the newest full atlas this shard serves, and which
    /// deltas lead to it?
    0x07 Request AtlasHead { shard: ShardId }
    /// One chunk of the body — full atlas or delta — tagged `tag`. A
    /// server that no longer offers it answers a typed `VersionRaced`
    /// fault.
    0x08 StreamRequest FetchChunk { shard: ShardId, tag: u64, idx: u32 }
    /// Dump the server-wide metrics registry (not shard-scoped — the
    /// registry's names carry the shard).
    0x0B StreamRequest Metrics
    /// Page the server-wide event journal from `since_seq` (not
    /// shard-scoped — an event's detail names its shard).
    0x0C StreamRequest Events { since_seq: u64 }
    0x81 Reply Pong
    0x82 Reply PathBatch { results: Vec<Result<WirePath, WireFault>> }
    0x83 Reply ResolveReply { resolution: WireResolution }
    0x85 Reply EpochReply { epoch: u64, day: u32 }
    0x86 Reply ShardsReply { shards: Vec<WireShardInfo> }
    0x87 Reply AtlasHeadReply { version: AtlasVersion }
    /// One checksummed body chunk (full or delta — the client knows
    /// which it asked for; the echoed index pins it to the request).
    0x88 Reply ChunkReply { idx: u32, crc: u64, bytes: Vec<u8> }
    /// The timing trailer a [`TRACE_FLAG`]ged request earns, written
    /// immediately after its (non-`Error`) main reply under the same
    /// request id.
    0x8A Reply TraceReply { timings: TraceTimings }
    0x8B Reply MetricsReply { dump: MetricsDump }
    0x8C Reply EventsReply { page: EventsPage }
    0xEE Reply Error { fault: WireFault }
}

/// The typed fault a server answers a frame of `frame_type` with on
/// sight of its header, the payload unparsed: a `Reply` type is not a
/// request on either transport, a `StreamRequest` is not one in a
/// datagram. `None` means decode it — an unassigned byte included,
/// which decodes to `UnknownFrame` as it always has.
pub(crate) fn refusal(frame_type: u8, on_datagram: bool) -> Option<WireFault> {
    match role_of(frame_type)? {
        Role::Reply => Some(WireFault::new(
            ErrorCode::UnexpectedFrame,
            format!("frame type {frame_type:#04x} is not a request"),
        )),
        Role::StreamRequest if on_datagram => Some(WireFault::new(
            ErrorCode::NotOnDatagram,
            format!("frame type {frame_type:#04x} needs the stream transport"),
        )),
        Role::Request | Role::StreamRequest => None,
    }
}

/// Why a frame could not be read. See the module docs for how the two
/// decode severities drive connection handling.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying stream failed (including EOF mid-frame).
    Io(io::Error),
    /// Stream desynchronised; answer once and close.
    Fatal(WireFault),
    /// This frame is bad but the stream is still aligned.
    Frame { request_id: u64, fault: WireFault },
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> ReadError {
        ReadError::Io(e)
    }
}

// ---- primitive writers/readers -------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_ids(buf: &mut Vec<u8>, ids: impl ExactSizeIterator<Item = u32>) {
    // Paths are graph-diameter-bounded in practice; if one ever
    // exceeds the u16 length prefix, truncate count *and* elements
    // together so the frame stays well-formed instead of corrupting
    // the stream with a wrapped count.
    let n = ids.len().min(u16::MAX as usize);
    debug_assert_eq!(n, ids.len(), "path far beyond wire bounds");
    put_u16(buf, n as u16);
    buf.reserve(4 * n);
    for x in ids.take(n) {
        put_u32(buf, x);
    }
}

/// One answered entry of a `PathBatch`. The only writer of that byte
/// layout: [`Frame::PathBatch`] (from [`WirePath`]s) and
/// [`encode_path_batch`] (straight from [`PredictedPath`]s) both end
/// here, so the two cannot drift apart.
fn put_path_ok(
    buf: &mut Vec<u8>,
    rtt_ms: f64,
    loss: f64,
    fwd_clusters: impl ExactSizeIterator<Item = u32>,
    rev_clusters: impl ExactSizeIterator<Item = u32>,
    fwd_as: impl ExactSizeIterator<Item = u32>,
    rev_as: impl ExactSizeIterator<Item = u32>,
) {
    buf.push(0);
    put_f64(buf, rtt_ms);
    put_f64(buf, loss);
    put_ids(buf, fwd_clusters);
    put_ids(buf, rev_clusters);
    put_ids(buf, fwd_as);
    put_ids(buf, rev_as);
}

/// One faulted entry of a `PathBatch`.
fn put_path_err(buf: &mut Vec<u8>, fault: &WireFault) {
    buf.push(1);
    fault.put(buf);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    // Messages are diagnostics; truncate rather than fail at a char
    // boundary safe cut.
    let bytes = s.as_bytes();
    let mut n = bytes.len().min(512);
    while n > 0 && !s.is_char_boundary(n) {
        n -= 1;
    }
    put_u16(buf, n as u16);
    buf.extend_from_slice(&bytes[..n]);
}

/// A bounds-checked big-endian payload cursor.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireFault> {
        if self.buf.len() - self.at < n {
            return Err(WireFault::new(
                ErrorCode::Malformed,
                format!("payload truncated at byte {}", self.at),
            ));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireFault> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireFault> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireFault> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireFault> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireFault> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn vec_u32(&mut self) -> Result<Vec<u32>, WireFault> {
        let n = self.u16()? as usize;
        // One bounds check for the whole list, and an iterator whose
        // length is known: the `Vec` is allocated once at its final size.
        Ok(self
            .take(4 * n)?
            .chunks_exact(4)
            .map(|b| u32::from_be_bytes(b.try_into().unwrap()))
            .collect())
    }

    /// How many entries to reserve for a declared count of `n`, each at
    /// least `min_entry_bytes` on the wire: never more than the rest of
    /// the payload could hold, whatever the count claims.
    fn capacity_for(&self, n: u32, min_entry_bytes: usize) -> usize {
        (n as usize).min(self.remaining() / min_entry_bytes)
    }

    fn string(&mut self) -> Result<String, WireFault> {
        let n = self.u16()? as usize;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| WireFault::new(ErrorCode::Malformed, "message is not UTF-8"))
    }

    fn done(&self) -> Result<(), WireFault> {
        if self.at != self.buf.len() {
            return Err(WireFault::new(
                ErrorCode::Malformed,
                format!("{} trailing bytes", self.buf.len() - self.at),
            ));
        }
        Ok(())
    }
}

// ---- layouts: one per wire type --------------------------------------

/// How one field type lies in a payload. The writer and the reader of
/// a layout are the two methods of one impl, so they cannot drift
/// apart; the frame table strings them together, field by field.
trait Wire: Sized {
    fn put(&self, buf: &mut Vec<u8>);
    fn get(c: &mut Cursor<'_>, limits: &Limits) -> Result<Self, WireFault>;
}

impl Wire for u32 {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u32(buf, *self);
    }

    fn get(c: &mut Cursor<'_>, _: &Limits) -> Result<u32, WireFault> {
        c.u32()
    }
}

impl Wire for u64 {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u64(buf, *self);
    }

    fn get(c: &mut Cursor<'_>, _: &Limits) -> Result<u64, WireFault> {
        c.u64()
    }
}

impl Wire for ShardId {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u16(buf, self.raw());
    }

    fn get(c: &mut Cursor<'_>, _: &Limits) -> Result<ShardId, WireFault> {
        Ok(ShardId(c.u16()?))
    }
}

impl Wire for Ipv4 {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.0);
    }

    fn get(c: &mut Cursor<'_>, _: &Limits) -> Result<Ipv4, WireFault> {
        Ok(Ipv4(c.u32()?))
    }
}

impl Wire for WireFault {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u16(buf, self.code.as_u16());
        put_str(buf, &self.message);
    }

    fn get(c: &mut Cursor<'_>, _: &Limits) -> Result<WireFault, WireFault> {
        let raw = c.u16()?;
        let code = ErrorCode::from_u16(raw)
            .ok_or_else(|| WireFault::new(ErrorCode::Malformed, format!("unknown code {raw}")))?;
        let message = c.string()?;
        Ok(WireFault { code, message })
    }
}

/// The pairs of a `QueryBatch`, at most [`Limits::max_batch`] of them.
impl Wire for Vec<(Ipv4, Ipv4)> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.len() as u32);
        for &(s, d) in self {
            put_u32(buf, s.0);
            put_u32(buf, d.0);
        }
    }

    // Inlined into `decode_payload`, the cursor is a local there and its
    // position stays in a register across this loop — the one decode a
    // server runs per query (measured: 1.8 ns per pair, 3.9 without).
    #[inline]
    fn get(c: &mut Cursor<'_>, limits: &Limits) -> Result<Vec<(Ipv4, Ipv4)>, WireFault> {
        let n = c.u32()?;
        if n > limits.max_batch {
            return Err(WireFault::new(
                ErrorCode::BatchTooLarge,
                format!("batch of {n} exceeds limit {}", limits.max_batch),
            ));
        }
        let mut pairs = Vec::with_capacity(c.capacity_for(n, 8));
        for _ in 0..n {
            pairs.push((Ipv4(c.u32()?), Ipv4(c.u32()?)));
        }
        Ok(pairs)
    }
}

/// The results of a `PathBatch`, at most [`Limits::max_batch`] of them.
impl Wire for Vec<Result<WirePath, WireFault>> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.len() as u32);
        for r in self {
            match r {
                Ok(p) => put_path_ok(
                    buf,
                    p.rtt_ms,
                    p.loss,
                    p.fwd_clusters.iter().copied(),
                    p.rev_clusters.iter().copied(),
                    p.fwd_as.iter().copied(),
                    p.rev_as.iter().copied(),
                ),
                Err(fault) => put_path_err(buf, fault),
            }
        }
    }

    fn get(c: &mut Cursor<'_>, limits: &Limits) -> Result<Self, WireFault> {
        let n = c.u32()?;
        if n > limits.max_batch {
            return Err(WireFault::new(
                ErrorCode::BatchTooLarge,
                format!("batch of {n} exceeds limit {}", limits.max_batch),
            ));
        }
        let mut results = Vec::with_capacity(c.capacity_for(n, PATH_ERR_BYTES));
        for _ in 0..n {
            results.push(match c.u8()? {
                0 => Ok(WirePath {
                    rtt_ms: c.f64()?,
                    loss: c.f64()?,
                    fwd_clusters: c.vec_u32()?,
                    rev_clusters: c.vec_u32()?,
                    fwd_as: c.vec_u32()?,
                    rev_as: c.vec_u32()?,
                }),
                1 => Err(WireFault::get(c, limits)?),
                tag => {
                    return Err(WireFault::new(
                        ErrorCode::Malformed,
                        format!("bad result tag {tag}"),
                    ))
                }
            });
        }
        Ok(results)
    }
}

impl Wire for WireResolution {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.prefix);
        put_u32(buf, self.cluster);
        let flags = self.origin_as.is_some() as u8
            | (self.cluster_as.is_some() as u8) << 1
            | (self.refined_providers as u8) << 2;
        buf.push(flags);
        if let Some(a) = self.origin_as {
            put_u32(buf, a);
        }
        if let Some(a) = self.cluster_as {
            put_u32(buf, a);
        }
    }

    fn get(c: &mut Cursor<'_>, _: &Limits) -> Result<WireResolution, WireFault> {
        let prefix = c.u32()?;
        let cluster = c.u32()?;
        let flags = c.u8()?;
        if flags & !0b111 != 0 {
            return Err(WireFault::new(
                ErrorCode::Malformed,
                format!("bad resolution flags {flags:#x}"),
            ));
        }
        let origin_as = (flags & 1 != 0).then(|| c.u32()).transpose()?;
        let cluster_as = (flags & 2 != 0).then(|| c.u32()).transpose()?;
        Ok(WireResolution {
            prefix,
            cluster,
            origin_as,
            cluster_as,
            refined_providers: flags & 4 != 0,
        })
    }
}

impl Wire for Vec<WireShardInfo> {
    fn put(&self, buf: &mut Vec<u8>) {
        let n = self.len().min(u16::MAX as usize);
        debug_assert_eq!(n, self.len(), "shard count beyond wire bounds");
        put_u16(buf, n as u16);
        for s in &self[..n] {
            put_u16(buf, s.shard);
            put_u64(buf, s.epoch);
            put_u32(buf, s.day);
        }
    }

    fn get(c: &mut Cursor<'_>, _: &Limits) -> Result<Vec<WireShardInfo>, WireFault> {
        let n = c.u16()? as usize;
        (0..n)
            .map(|_| {
                Ok(WireShardInfo {
                    shard: c.u16()?,
                    epoch: c.u64()?,
                    day: c.u32()?,
                })
            })
            .collect()
    }
}

/// Encoded size of one link of a head's chain: base, tag, length.
const CHAIN_LINK_BYTES: usize = 24;

/// A head: day, tag, length and chunk size, then a count and the chain
/// of at most [`DELTA_LOG_CAP`] links — the newest ones if a source
/// holds more, so what is sent still leads to the head.
impl Wire for AtlasVersion {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.day);
        put_u64(buf, self.epoch_tag);
        put_u64(buf, self.full_len);
        put_u32(buf, self.chunk_size);
        let kept = self.chain.len().min(DELTA_LOG_CAP);
        put_u32(buf, kept as u32);
        for link in &self.chain[self.chain.len() - kept..] {
            put_u64(buf, link.base);
            put_u64(buf, link.tag);
            put_u64(buf, link.len);
        }
    }

    fn get(c: &mut Cursor<'_>, _: &Limits) -> Result<AtlasVersion, WireFault> {
        let (day, epoch_tag, full_len, chunk_size) = (c.u32()?, c.u64()?, c.u64()?, c.u32()?);
        let n = c.u32()?;
        if n as usize > DELTA_LOG_CAP {
            return Err(WireFault::new(
                ErrorCode::Malformed,
                format!("{n} chain links exceed limit {DELTA_LOG_CAP}"),
            ));
        }
        let mut chain = Vec::with_capacity(c.capacity_for(n, CHAIN_LINK_BYTES));
        for _ in 0..n {
            chain.push(ChainLink {
                base: c.u64()?,
                tag: c.u64()?,
                len: c.u64()?,
            });
        }
        Ok(AtlasVersion {
            day,
            epoch_tag,
            full_len,
            chunk_size,
            chain,
        })
    }
}

/// A chunk body: a byte count, then the bytes.
impl Wire for Vec<u8> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.len() as u32);
        buf.extend_from_slice(self);
    }

    fn get(c: &mut Cursor<'_>, _: &Limits) -> Result<Vec<u8>, WireFault> {
        // The count is bounded by the payload the header already
        // admitted; `take` rejects a count beyond it.
        let n = c.u32()? as usize;
        Ok(c.take(n)?.to_vec())
    }
}

impl Wire for MetricsDump {
    fn put(&self, buf: &mut Vec<u8>) {
        let n = self.entries.len().min(MAX_METRICS_ENTRIES);
        debug_assert_eq!(n, self.entries.len(), "registry beyond wire bounds");
        put_u32(buf, n as u32);
        for (name, value) in &self.entries[..n] {
            match value {
                MetricValue::Counter(v) => {
                    buf.push(0);
                    put_str(buf, name);
                    put_u64(buf, *v);
                }
                MetricValue::Gauge(v) => {
                    buf.push(1);
                    put_str(buf, name);
                    put_u64(buf, *v);
                }
                MetricValue::Histogram(buckets) => {
                    buf.push(2);
                    put_str(buf, name);
                    // Truncating at the receiver-side cap keeps every
                    // encoded frame decodable.
                    let b = buckets.len().min(MAX_BUCKETS);
                    debug_assert_eq!(b, buckets.len(), "histogram beyond wire bounds");
                    put_u16(buf, b as u16);
                    for &c in &buckets[..b] {
                        put_u64(buf, c);
                    }
                }
            }
        }
    }

    fn get(c: &mut Cursor<'_>, _: &Limits) -> Result<MetricsDump, WireFault> {
        let n = c.u32()? as usize;
        if n > MAX_METRICS_ENTRIES {
            return Err(WireFault::new(
                ErrorCode::Malformed,
                format!("{n} metric entries exceed limit {MAX_METRICS_ENTRIES}"),
            ));
        }
        let mut entries = Vec::new();
        for _ in 0..n {
            let kind = c.u8()?;
            let name = c.string()?;
            let value = match kind {
                0 => MetricValue::Counter(c.u64()?),
                1 => MetricValue::Gauge(c.u64()?),
                2 => MetricValue::Histogram({
                    let b = c.u16()? as usize;
                    if b > MAX_BUCKETS {
                        return Err(WireFault::new(
                            ErrorCode::Malformed,
                            format!("{b} latency buckets exceed limit {MAX_BUCKETS}"),
                        ));
                    }
                    (0..b).map(|_| c.u64()).collect::<Result<_, _>>()?
                }),
                tag => {
                    return Err(WireFault::new(
                        ErrorCode::Malformed,
                        format!("bad metric kind {tag}"),
                    ))
                }
            };
            entries.push((name, value));
        }
        // Re-establish the dump's sorted-names invariant — the
        // merge/lookup helpers binary-search, and a hostile sender
        // must not be able to break them.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(MetricsDump { entries })
    }
}

impl Wire for EventsPage {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.lost);
        put_u64(buf, self.next_seq);
        let n = self.events.len().min(MAX_EVENTS_ENTRIES);
        debug_assert_eq!(n, self.events.len(), "events page beyond wire bounds");
        put_u32(buf, n as u32);
        for e in &self.events[..n] {
            put_u64(buf, e.seq);
            put_u64(buf, e.t_ms);
            buf.push(e.kind.code());
            put_str(buf, &e.detail);
        }
    }

    fn get(c: &mut Cursor<'_>, _: &Limits) -> Result<EventsPage, WireFault> {
        let lost = c.u64()?;
        let next_seq = c.u64()?;
        let n = c.u32()? as usize;
        if n > MAX_EVENTS_ENTRIES {
            return Err(WireFault::new(
                ErrorCode::Malformed,
                format!("{n} events exceed limit {MAX_EVENTS_ENTRIES}"),
            ));
        }
        let mut events = Vec::new();
        for _ in 0..n {
            let seq = c.u64()?;
            let t_ms = c.u64()?;
            let code = c.u8()?;
            let detail = c.string()?;
            // A kind this build doesn't know (a newer peer's addition)
            // is skipped, not a fault — the payload was still
            // consumed, so the stream stays aligned.
            if let Some(kind) = EventKind::from_code(code) {
                events.push(Event {
                    seq,
                    t_ms,
                    kind,
                    detail,
                });
            }
        }
        // Re-establish the ascending-seq invariant the journal
        // promises; a hostile sender must not break mergers.
        events.sort_by_key(|e| e.seq);
        Ok(EventsPage {
            events,
            lost,
            next_seq,
        })
    }
}

impl Wire for TraceTimings {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.decode_us);
        put_u32(buf, self.queue_us);
        put_u32(buf, self.engine_us);
        put_u32(buf, self.encode_us);
    }

    fn get(c: &mut Cursor<'_>, _: &Limits) -> Result<TraceTimings, WireFault> {
        Ok(TraceTimings {
            decode_us: c.u32()?,
            queue_us: c.u32()?,
            engine_us: c.u32()?,
            encode_us: c.u32()?,
        })
    }
}

/// Append a frame header whose payload length is still unknown;
/// returns where the frame starts, for [`end_frame`].
fn begin_frame(buf: &mut Vec<u8>, frame_type: u8, request_id: u64) -> usize {
    let start = buf.len();
    put_u32(buf, MAGIC);
    buf.push(VERSION);
    buf.push(frame_type);
    put_u64(buf, request_id);
    put_u32(buf, 0);
    start
}

/// Patch the payload length of the frame begun at `start`, now that
/// everything behind its header is the payload.
fn end_frame(buf: &mut [u8], start: usize) {
    let payload_len = (buf.len() - start - HEADER_BYTES) as u32;
    buf[start + HEADER_BYTES - 4..start + HEADER_BYTES].copy_from_slice(&payload_len.to_be_bytes());
}

/// Encoded size of one answered `PathBatch` entry: tag, two floats,
/// four u16 counts, four bytes per id.
fn path_ok_bytes(clusters: usize, ases: usize) -> usize {
    1 + 16 + 8 + 4 * (clusters + ases)
}

/// Encoded size of one faulted `PathBatch` entry, message excluded.
const PATH_ERR_BYTES: usize = 1 + 2 + 2;

/// Encode a served batch as a whole `PathBatch` frame, straight from
/// the engine's shared results: no [`WirePath`] or [`Frame`] is built,
/// and the bytes are exactly those of
/// `Frame::PathBatch { results.map(WirePath::from / WireFault::from) }.encode(request_id)`.
pub fn encode_path_batch(request_id: u64, results: &[SharedResult]) -> Vec<u8> {
    // Faults are rare and short; a typical message's worth of room each
    // keeps the buffer from regrowing without formatting them twice.
    let body: usize = results
        .iter()
        .map(|r| match r {
            Ok(p) => path_ok_bytes(
                p.fwd_clusters.len() + p.rev_clusters.len(),
                p.fwd_as_path.len() + p.rev_as_path.len(),
            ),
            Err(_) => PATH_ERR_BYTES + 64,
        })
        .sum();
    let mut buf = Vec::with_capacity(HEADER_BYTES + 4 + body);
    // An empty `Vec` allocates nothing: this only reads the table's byte.
    let path_batch = Frame::PathBatch {
        results: Vec::new(),
    }
    .frame_type();
    let start = begin_frame(&mut buf, path_batch, request_id);
    put_u32(&mut buf, results.len() as u32);
    for r in results {
        match r {
            Ok(p) => put_path_ok(
                &mut buf,
                p.rtt.ms(),
                p.loss.rate(),
                p.fwd_clusters.iter().map(|c| c.raw()),
                p.rev_clusters.iter().map(|c| c.raw()),
                p.fwd_as_path.as_slice().iter().map(|a| a.raw()),
                p.rev_as_path.as_slice().iter().map(|a| a.raw()),
            ),
            Err(e) => put_path_err(&mut buf, &WireFault::from(e)),
        }
    }
    end_frame(&mut buf, start);
    buf
}

// ---- frame codec ----------------------------------------------------

impl Frame {
    /// The encoded payload size of the frames that can be large (a
    /// fault message past its 512-byte cut aside), a small frame's
    /// worth for the rest: what [`Frame::encode`] allocates up front so
    /// a large frame's buffer never regrows.
    fn payload_hint(&self) -> usize {
        match self {
            Frame::QueryBatch { pairs, .. } => 6 + 8 * pairs.len(),
            Frame::PathBatch { results } => {
                4 + results
                    .iter()
                    .map(|r| match r {
                        Ok(p) => path_ok_bytes(
                            p.fwd_clusters.len() + p.rev_clusters.len(),
                            p.fwd_as.len() + p.rev_as.len(),
                        ),
                        Err(fault) => PATH_ERR_BYTES + fault.message.len(),
                    })
                    .sum::<usize>()
            }
            Frame::ChunkReply { bytes, .. } => CHUNK_WIRE_OVERHEAD as usize + bytes.len(),
            _ => 64,
        }
    }

    /// Encode the full frame (header + payload) for `request_id`.
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + self.payload_hint());
        self.encode_into(request_id, &mut out);
        out
    }

    /// Append the full frame to `buf`: header first, payload written in
    /// place behind it, length patched once it is known.
    pub fn encode_into(&self, request_id: u64, buf: &mut Vec<u8>) {
        let start = begin_frame(buf, self.frame_type(), request_id);
        self.encode_payload(buf);
        end_frame(buf, start);
    }
}

/// Write one frame to `w` (no flush; callers batch and flush).
pub fn write_frame(w: &mut impl Write, request_id: u64, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame.encode(request_id))
}

/// Read one frame from `r`. `Ok(None)` is a clean EOF at a frame
/// boundary; EOF inside a frame is an [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame(r: &mut impl Read, limits: &Limits) -> Result<Option<(u64, Frame)>, ReadError> {
    let mut header = [0u8; HEADER_BYTES];
    // First byte separately: a clean close between frames is not an error.
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    r.read_exact(&mut header[1..])?;
    let (frame_type, request_id, payload_len) =
        validate_header(&header, limits).map_err(ReadError::Fatal)?;
    let mut payload = vec![0u8; payload_len as usize];
    r.read_exact(&mut payload)?;
    match Frame::decode_payload(frame_type, &payload, limits) {
        Ok(frame) => Ok(Some((request_id, frame))),
        Err(fault) => Err(ReadError::Frame { request_id, fault }),
    }
}

/// Validate a complete header against `limits`, yielding
/// `(frame_type, request_id, payload_len)` or the *fatal* fault that
/// desynchronises the stream. Shared by the blocking reader above and
/// the incremental [`FrameAssembler`], so both severities stay
/// byte-for-byte identical whichever reader a peer lands on.
fn validate_header(
    header: &[u8; HEADER_BYTES],
    limits: &Limits,
) -> Result<(u8, u64, u32), WireFault> {
    let magic = u32::from_be_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(WireFault::new(
            ErrorCode::BadMagic,
            format!("got {magic:#010x}, want {MAGIC:#010x}"),
        ));
    }
    let version = header[4];
    if version != VERSION {
        return Err(WireFault::new(
            ErrorCode::BadVersion,
            format!("got version {version}, want {VERSION}"),
        ));
    }
    let frame_type = header[5];
    let request_id = u64::from_be_bytes(header[6..14].try_into().unwrap());
    let payload_len = u32::from_be_bytes(header[14..18].try_into().unwrap());
    if payload_len > limits.max_frame_bytes {
        return Err(WireFault::new(
            ErrorCode::FrameTooLarge,
            format!(
                "declared payload of {payload_len} bytes exceeds limit {}",
                limits.max_frame_bytes
            ),
        ));
    }
    Ok((frame_type, request_id, payload_len))
}

// ---- datagram transport --------------------------------------------

/// Largest UDP payload a single IPv4 datagram can carry
/// (65535 − 20 IP − 8 UDP). The datagram plane never sends more.
pub const MAX_UDP_PAYLOAD: usize = 65_507;

/// The reply-size budget of the datagram transport under `limits`:
/// one whole encoded frame (header included) must fit both the
/// receiver's frame limit and a single UDP datagram. The datagram
/// analogue of [`chunk_size_for`] — a reply that would exceed this is
/// answered with a typed `FrameTooLarge` fault instead, telling the
/// client to re-ask on the stream transport (or with a smaller batch).
pub fn datagram_cap(limits: &Limits) -> usize {
    (limits.max_frame_bytes as usize + HEADER_BYTES).min(MAX_UDP_PAYLOAD)
}

/// Why a datagram produced no [`Frame`]. Unlike the stream reader
/// there is no severity ladder — datagrams are self-delimiting, so
/// nothing can desynchronise — only the question of whether the
/// sender can be answered at all.
#[derive(Debug)]
pub enum DatagramError {
    /// The bytes cannot be attributed to a request (short header, bad
    /// magic, unsupported version): drop silently. Answering unver-
    /// ified garbage would make the socket a reflection amplifier.
    Drop(&'static str),
    /// The header is sound — the request id is trustworthy — but the
    /// frame is not servable: answer one typed fault datagram.
    Fault { request_id: u64, fault: WireFault },
}

/// Decode exactly one frame from one datagram. The frame must span
/// the whole buffer: a declared payload length that disagrees with
/// the datagram length (kernel truncation, corruption, trailing
/// bytes) is a typed `Malformed` fault.
pub fn decode_datagram(buf: &[u8], limits: &Limits) -> Result<(u64, Frame), DatagramError> {
    if buf.len() < HEADER_BYTES {
        return Err(DatagramError::Drop("short header"));
    }
    let header: &[u8; HEADER_BYTES] = buf[..HEADER_BYTES].try_into().unwrap();
    let (frame_type, request_id, payload_len) = match validate_header(header, limits) {
        Ok(parts) => parts,
        Err(fault) => match fault.code {
            // Unverified sender: no magic/version handshake passed.
            ErrorCode::BadMagic | ErrorCode::BadVersion => {
                return Err(DatagramError::Drop("bad magic or version"));
            }
            _ => {
                return Err(DatagramError::Fault {
                    request_id: header_request_id(header),
                    fault,
                })
            }
        },
    };
    let payload = &buf[HEADER_BYTES..];
    if payload.len() != payload_len as usize {
        return Err(DatagramError::Fault {
            request_id,
            fault: WireFault::new(
                ErrorCode::Malformed,
                format!(
                    "datagram carries {} payload bytes, header declares {payload_len}",
                    payload.len()
                ),
            ),
        });
    }
    match Frame::decode_payload(frame_type, payload, limits) {
        Ok(frame) => Ok((request_id, frame)),
        Err(fault) => Err(DatagramError::Fault { request_id, fault }),
    }
}

/// The request id field of a validated-length header, for faulting
/// back to a sender whose header failed a post-magic check.
fn header_request_id(header: &[u8; HEADER_BYTES]) -> u64 {
    u64::from_be_bytes(header[6..14].try_into().unwrap())
}

// ---- incremental (readiness-driven) frame assembly ------------------

/// One completed step of incremental decoding — what a blocking reader
/// would have returned, minus the I/O.
#[derive(Debug)]
pub enum Assembled {
    /// A complete request decoded. `decode_us` spans the first byte of
    /// this frame reaching the assembler to decode completing — the
    /// trace `decode` stage, fragmentation stalls included.
    Frame {
        request_id: u64,
        frame: Frame,
        decode_us: u32,
    },
    /// The payload was framed soundly but is not a request (decided
    /// from the type byte, see [`Role`]) or does not parse. The stream
    /// is still aligned; feeding may continue.
    Fault { request_id: u64, fault: WireFault },
    /// The stream desynchronised (bad magic or version, oversized
    /// declared payload). Answer once and close: the assembler is
    /// poisoned and consumes nothing further.
    Fatal { fault: WireFault },
}

enum AsmState {
    /// Accumulating the fixed 18-byte header; `started` is stamped
    /// when the frame's first byte arrives.
    Header {
        buf: [u8; HEADER_BYTES],
        have: usize,
        started: Option<Instant>,
    },
    /// Header validated; accumulating `need` payload bytes.
    Payload {
        request_id: u64,
        frame_type: u8,
        need: usize,
        buf: Vec<u8>,
        started: Instant,
    },
    /// A fatal fault was reported; no further input is accepted.
    Poisoned,
}

/// A server's per-connection reader state machine for a nonblocking
/// socket: feed it whatever bytes each readiness event yields — in any
/// fragmentation, down to one byte at a time — and it emits the
/// `(request_id, Frame)` sequence a blocking [`read_frame`] loop would
/// have produced, timed, with the same fatal-versus-per-frame severity
/// split — except that, being the server's side, it decodes requests
/// only: a `Reply`-role type is a per-frame `UnexpectedFrame` fault
/// whose payload is consumed but never parsed.
pub struct FrameAssembler {
    state: AsmState,
}

impl Default for FrameAssembler {
    fn default() -> FrameAssembler {
        FrameAssembler::new()
    }
}

impl FrameAssembler {
    pub fn new() -> FrameAssembler {
        FrameAssembler {
            state: AsmState::Header {
                buf: [0; HEADER_BYTES],
                have: 0,
                started: None,
            },
        }
    }

    /// Consume a prefix of `input`, returning how many bytes were taken
    /// and at most one assembled event. Callers loop — re-feeding the
    /// unconsumed remainder — until a call consumes nothing and yields
    /// nothing; a poisoned assembler does exactly that forever.
    pub fn feed(&mut self, input: &[u8], limits: &Limits) -> (usize, Option<Assembled>) {
        match &mut self.state {
            AsmState::Poisoned => (0, None),
            AsmState::Header { buf, have, started } => {
                if input.is_empty() {
                    return (0, None);
                }
                if started.is_none() {
                    *started = Some(Instant::now());
                }
                let take = input.len().min(HEADER_BYTES - *have);
                buf[*have..*have + take].copy_from_slice(&input[..take]);
                *have += take;
                if *have < HEADER_BYTES {
                    return (take, None);
                }
                let started = started.expect("stamped on first byte");
                match validate_header(buf, limits) {
                    Err(fault) => {
                        self.state = AsmState::Poisoned;
                        (take, Some(Assembled::Fatal { fault }))
                    }
                    Ok((frame_type, request_id, 0)) => {
                        let event = self.complete(request_id, frame_type, &[], started, limits);
                        (take, Some(event))
                    }
                    Ok((frame_type, request_id, payload_len)) => {
                        self.state = AsmState::Payload {
                            request_id,
                            frame_type,
                            need: payload_len as usize,
                            buf: Vec::with_capacity(payload_len as usize),
                            started,
                        };
                        (take, None)
                    }
                }
            }
            AsmState::Payload {
                request_id,
                frame_type,
                need,
                buf,
                started,
            } => {
                let take = input.len().min(*need - buf.len());
                buf.extend_from_slice(&input[..take]);
                if buf.len() < *need {
                    return (take, None);
                }
                let (request_id, frame_type, started) = (*request_id, *frame_type, *started);
                let payload = std::mem::take(buf);
                let event = self.complete(request_id, frame_type, &payload, started, limits);
                (take, Some(event))
            }
        }
    }

    /// Decode a fully-buffered payload — if its type byte is one a
    /// server serves on a stream — and reset for the next frame.
    fn complete(
        &mut self,
        request_id: u64,
        frame_type: u8,
        payload: &[u8],
        started: Instant,
        limits: &Limits,
    ) -> Assembled {
        *self = FrameAssembler::new();
        if let Some(fault) = refusal(frame_type, false) {
            return Assembled::Fault { request_id, fault };
        }
        match Frame::decode_payload(frame_type, payload, limits) {
            Ok(frame) => Assembled::Frame {
                request_id,
                frame,
                decode_us: started.elapsed().as_micros().min(u32::MAX as u128) as u32,
            },
            Err(fault) => Assembled::Fault { request_id, fault },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame, id: u64) {
        let bytes = frame.encode(id);
        let limits = Limits::default();
        let (got_id, got) = read_frame(&mut &bytes[..], &limits)
            .expect("decodes")
            .expect("not EOF");
        assert_eq!(got_id, id);
        assert_eq!(got, frame);
    }

    #[test]
    fn empty_payload_frames_round_trip() {
        for f in [Frame::Ping, Frame::Pong, Frame::ListShards] {
            round_trip(f, 7);
        }
    }

    #[test]
    fn shard_routed_requests_round_trip() {
        for shard in [ShardId::DEFAULT, ShardId(3), ShardId(u16::MAX)] {
            round_trip(Frame::Epoch { shard }, 12);
            round_trip(Frame::Resolve { shard, ip: Ipv4(9) }, 13);
        }
    }

    #[test]
    fn shards_reply_round_trips() {
        round_trip(Frame::ShardsReply { shards: vec![] }, 4);
        round_trip(
            Frame::ShardsReply {
                shards: vec![
                    WireShardInfo {
                        shard: 0,
                        epoch: 4,
                        day: 4,
                    },
                    WireShardInfo {
                        shard: 9,
                        epoch: 0,
                        day: 77,
                    },
                ],
            },
            5,
        );
    }

    #[test]
    fn query_batch_round_trips() {
        round_trip(
            Frame::QueryBatch {
                shard: ShardId(2),
                pairs: vec![(Ipv4(1), Ipv4(2)), (Ipv4(0xffff_ffff), Ipv4(0))],
            },
            u64::MAX,
        );
    }

    #[test]
    fn dissemination_frames_round_trip() {
        round_trip(Frame::AtlasHead { shard: ShardId(2) }, 20);
        for chain in [
            vec![],
            vec![
                ChainLink {
                    base: 1,
                    tag: 2,
                    len: 3
                };
                DELTA_LOG_CAP
            ],
        ] {
            round_trip(
                Frame::AtlasHeadReply {
                    version: AtlasVersion {
                        day: 7,
                        epoch_tag: 0xdead_beef_cafe_f00d,
                        full_len: 7_340_032,
                        chunk_size: 262_128,
                        chain,
                    },
                },
                21,
            );
        }
        round_trip(
            Frame::FetchChunk {
                shard: ShardId(0),
                tag: 42,
                idx: 17,
            },
            22,
        );
        let bytes: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        round_trip(
            Frame::ChunkReply {
                idx: 3,
                crc: inano_core::content_tag(&bytes),
                bytes,
            },
            27,
        );
    }

    #[test]
    fn chunk_size_never_exceeds_the_frame_limit() {
        for max in [64u32, 1024, 1 << 20, 64 << 20] {
            let limits = Limits {
                max_frame_bytes: max,
                max_batch: 16,
            };
            let cs = chunk_size_for(&limits);
            assert!(cs >= 1);
            assert!(
                cs + CHUNK_WIRE_OVERHEAD <= max || max <= CHUNK_WIRE_OVERHEAD,
                "chunk {cs} + overhead must fit {max}"
            );
            // A ChunkReply of exactly that size decodes under the limit.
            let frame = Frame::ChunkReply {
                idx: 0,
                crc: 0,
                bytes: vec![7; cs as usize],
            };
            let payload = frame.encode(1).len() - HEADER_BYTES;
            assert!(payload as u32 <= max, "payload {payload} must fit {max}");
        }
    }

    #[test]
    fn clean_eof_is_none() {
        let limits = Limits::default();
        assert!(matches!(read_frame(&mut &[][..], &limits), Ok(None)));
    }

    #[test]
    fn eof_mid_frame_is_io_error() {
        let bytes = Frame::Ping.encode(1);
        let limits = Limits::default();
        match read_frame(&mut &bytes[..HEADER_BYTES - 3], &limits) {
            Err(ReadError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("want io error, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_fatal() {
        let mut bytes = Frame::Ping.encode(1);
        bytes[0] ^= 0xff;
        let limits = Limits::default();
        match read_frame(&mut &bytes[..], &limits) {
            Err(ReadError::Fatal(fault)) => assert_eq!(fault.code, ErrorCode::BadMagic),
            other => panic!("want fatal, got {other:?}"),
        }
    }

    #[test]
    fn oversized_declared_payload_is_fatal() {
        let limits = Limits {
            max_frame_bytes: 64,
            max_batch: 8,
        };
        let bytes = Frame::QueryBatch {
            shard: ShardId::DEFAULT,
            pairs: vec![(Ipv4(1), Ipv4(2)); 16],
        }
        .encode(3);
        match read_frame(&mut &bytes[..], &limits) {
            Err(ReadError::Fatal(fault)) => assert_eq!(fault.code, ErrorCode::FrameTooLarge),
            other => panic!("want fatal, got {other:?}"),
        }
    }

    #[test]
    fn over_limit_batch_is_per_frame_error() {
        let limits = Limits {
            max_frame_bytes: 1 << 20,
            max_batch: 4,
        };
        let bytes = Frame::QueryBatch {
            shard: ShardId::DEFAULT,
            pairs: vec![(Ipv4(1), Ipv4(2)); 5],
        }
        .encode(9);
        match read_frame(&mut &bytes[..], &limits) {
            Err(ReadError::Frame { request_id, fault }) => {
                assert_eq!(request_id, 9);
                assert_eq!(fault.code, ErrorCode::BatchTooLarge);
            }
            other => panic!("want frame error, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut bytes = Frame::Resolve {
            shard: ShardId(1),
            ip: Ipv4(5),
        }
        .encode(2);
        // Grow the payload by one byte and fix up the declared length.
        bytes.push(0);
        let len = (bytes.len() - HEADER_BYTES) as u32;
        bytes[14..18].copy_from_slice(&len.to_be_bytes());
        let limits = Limits::default();
        match read_frame(&mut &bytes[..], &limits) {
            Err(ReadError::Frame { fault, .. }) => assert_eq!(fault.code, ErrorCode::Malformed),
            other => panic!("want frame error, got {other:?}"),
        }
    }

    #[test]
    fn a_hostile_batch_count_reserves_only_what_the_payload_could_hold() {
        // A count at its limit (a batch's just under `max_batch`, a
        // head's chain at `DELTA_LOG_CAP`) over a payload of a few
        // bytes: the count passes the limit check, so the decoder
        // allocates for it — for what the bytes present could spell,
        // not for what the count claims — and then runs out of payload.
        let limits = Limits::default();
        let head_lead = [7u8; 24];
        for (frame_type, lead, claimed, tail, min_entry) in [
            (
                0x02u8,
                &[0u8, 0][..],
                limits.max_batch - 1,
                &[0u8; 12][..],
                8,
            ),
            (
                0x82,
                &[][..],
                limits.max_batch - 1,
                &[1u8, 0, 5, 0][..],
                PATH_ERR_BYTES,
            ),
            (
                0x87,
                &head_lead[..],
                DELTA_LOG_CAP as u32,
                &[0u8; 30][..],
                CHAIN_LINK_BYTES,
            ),
        ] {
            let mut payload = lead.to_vec();
            payload.extend_from_slice(&claimed.to_be_bytes());
            payload.extend_from_slice(tail);
            let mut c = Cursor::new(&payload);
            c.take(lead.len() + 4).expect("the count is present");
            let reserved = c.capacity_for(claimed, min_entry);
            assert!(
                reserved * min_entry <= tail.len(),
                "type {frame_type:#04x}: {reserved} entries reserved over {} bytes",
                tail.len()
            );
            match Frame::decode_payload(frame_type, &payload, &limits) {
                Err(fault) => {
                    assert_eq!(fault.code, ErrorCode::Malformed, "type {frame_type:#04x}")
                }
                Ok(frame) => panic!("decoded {frame:?} from a truncated batch"),
            }
        }
        // An honest count is reserved in full.
        let honest = [0u8; 64];
        assert_eq!(Cursor::new(&honest).capacity_for(8, 8), 8);
    }

    #[test]
    fn hostile_bucket_count_is_a_typed_malformed_fault() {
        let dump = MetricsDump {
            entries: vec![("h".into(), MetricValue::Histogram(vec![]))],
        };
        let mut bytes = Frame::MetricsReply { dump }.encode(1);
        // With no buckets the count is the payload's last u16; claim
        // 65535 of them. The decoder must refuse at the count — before
        // the `1 << i` quantile math anyone downstream would run.
        let at = bytes.len() - 2;
        bytes[at..].copy_from_slice(&u16::MAX.to_be_bytes());
        match read_frame(&mut &bytes[..], &Limits::default()) {
            Err(ReadError::Frame { fault, .. }) => assert_eq!(fault.code, ErrorCode::Malformed),
            other => panic!("want per-frame error, got {other:?}"),
        }
    }

    #[test]
    fn observability_frames_round_trip() {
        round_trip(Frame::Metrics, 30);
        round_trip(
            Frame::MetricsReply {
                dump: MetricsDump::default(),
            },
            31,
        );
        round_trip(
            Frame::MetricsReply {
                dump: MetricsDump {
                    entries: vec![
                        (
                            "shard0.latency_us".into(),
                            MetricValue::Histogram(vec![0, 3, 1]),
                        ),
                        ("shard0.queries".into(), MetricValue::Counter(42)),
                        ("srv.active".into(), MetricValue::Gauge(2)),
                    ],
                },
            },
            32,
        );
        round_trip(
            Frame::TraceReply {
                timings: TraceTimings {
                    decode_us: 1,
                    queue_us: 200,
                    engine_us: 30_000,
                    encode_us: 4,
                },
            },
            33 | TRACE_FLAG,
        );
    }

    #[test]
    fn any_version_but_the_current_one_is_fatal() {
        let mut bytes = Frame::QueryBatch {
            shard: ShardId(1),
            pairs: vec![(Ipv4(1), Ipv4(2))],
        }
        .encode(6);
        assert_eq!(bytes[4], VERSION);
        for bad in [0u8, 3, 4, 5, VERSION + 1] {
            bytes[4] = bad;
            match read_frame(&mut &bytes[..], &Limits::default()) {
                Err(ReadError::Fatal(fault)) => assert_eq!(fault.code, ErrorCode::BadVersion),
                other => panic!("want fatal BadVersion for {bad}, got {other:?}"),
            }
        }
    }

    #[test]
    fn event_frames_round_trip() {
        round_trip(Frame::Events { since_seq: 0 }, 40);
        round_trip(
            Frame::Events {
                since_seq: u64::MAX,
            },
            41,
        );
        round_trip(
            Frame::EventsReply {
                page: EventsPage::default(),
            },
            42,
        );
        round_trip(
            Frame::EventsReply {
                page: EventsPage {
                    events: vec![
                        Event {
                            seq: 3,
                            t_ms: 1_700_000_000_123,
                            kind: EventKind::FullResync,
                            detail: "shard0 day=4".into(),
                        },
                        Event {
                            seq: 4,
                            t_ms: 1_700_000_000_456,
                            kind: EventKind::ConnClosed,
                            detail: String::new(),
                        },
                    ],
                    lost: 2,
                    next_seq: 5,
                },
            },
            43,
        );
    }

    #[test]
    fn hostile_events_count_is_a_typed_malformed_fault() {
        let mut bytes = Frame::EventsReply {
            page: EventsPage::default(),
        }
        .encode(1);
        // The empty page's payload ends with the u32 event count; claim
        // far over the cap. The decoder must refuse at the count.
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&u32::MAX.to_be_bytes());
        match read_frame(&mut &bytes[..], &Limits::default()) {
            Err(ReadError::Frame { fault, .. }) => assert_eq!(fault.code, ErrorCode::Malformed),
            other => panic!("want per-frame error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_event_kind_codes_are_skipped_not_faulted() {
        let mut bytes = Frame::EventsReply {
            page: EventsPage {
                events: vec![
                    Event {
                        seq: 1,
                        t_ms: 10,
                        kind: EventKind::DeltaApplied,
                        detail: "d".into(),
                    },
                    Event {
                        seq: 2,
                        t_ms: 11,
                        kind: EventKind::ConnAccepted,
                        detail: "x".into(),
                    },
                ],
                lost: 0,
                next_seq: 3,
            },
        }
        .encode(9);
        // Corrupt the second event's kind byte to a code from the
        // future: count(4) + [seq(8) + t_ms(8) + kind(1) + len(2) +
        // detail(1)] puts it 24 bytes before the end (kind + len +
        // detail of the last event).
        let at = bytes.len() - 4;
        assert_eq!(bytes[at], EventKind::ConnAccepted.code());
        bytes[at] = 250;
        let (_, got) = read_frame(&mut &bytes[..], &Limits::default())
            .expect("decodes")
            .expect("not EOF");
        match got {
            Frame::EventsReply { page } => {
                assert_eq!(page.events.len(), 1);
                assert_eq!(page.events[0].kind, EventKind::DeltaApplied);
                assert_eq!(page.next_seq, 3);
            }
            other => panic!("want events reply, got {other:?}"),
        }
    }

    #[test]
    fn hostile_metrics_entry_count_is_a_typed_malformed_fault() {
        let mut bytes = Frame::MetricsReply {
            dump: MetricsDump::default(),
        }
        .encode(1);
        // The empty dump's payload is just the u32 entry count; claim
        // far over the cap. The decoder must refuse at the count.
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&u32::MAX.to_be_bytes());
        match read_frame(&mut &bytes[..], &Limits::default()) {
            Err(ReadError::Frame { fault, .. }) => assert_eq!(fault.code, ErrorCode::Malformed),
            other => panic!("want per-frame error, got {other:?}"),
        }
    }

    #[test]
    fn decoded_metrics_dumps_are_re_sorted() {
        // A hostile sender may ship names out of order; the decoder
        // restores the sorted invariant the merge helpers rely on.
        let dump = MetricsDump {
            entries: vec![
                ("z.last".into(), MetricValue::Counter(1)),
                ("a.first".into(), MetricValue::Counter(2)),
            ],
        };
        let bytes = Frame::MetricsReply { dump }.encode(2);
        let (_, got) = read_frame(&mut &bytes[..], &Limits::default())
            .unwrap()
            .unwrap();
        match got {
            Frame::MetricsReply { dump } => {
                assert_eq!(dump.entries[0].0, "a.first");
                assert_eq!(dump.counter("z.last"), 1);
            }
            other => panic!("want metrics reply, got {other:?}"),
        }
    }

    #[test]
    fn the_frame_table_assigns_roles_by_direction_and_the_module_doc_lists_the_same_rows() {
        // The `//!` table at the top of this file, parsed: every type
        // byte it mentions, and per leading-cell row its role and
        // datagram columns.
        let mut doc_bytes = std::collections::BTreeSet::new();
        let mut doc_rows = Vec::new();
        let hex = |cell: &str| {
            let at = cell.find("0x").expect("a type byte");
            u8::from_str_radix(&cell[at + 2..at + 4], 16).expect("two hex digits")
        };
        for line in include_str!("wire.rs").lines() {
            let Some(row) = line.strip_prefix("//! | `0x") else {
                continue;
            };
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            doc_rows.push((hex(line), cells[1].trim_matches('`'), cells[5]));
            doc_bytes.insert(hex(line));
            if cells[3].contains("0x") {
                doc_bytes.insert(hex(cells[3]));
            }
        }
        let limits = Limits::default();
        for byte in 0..=255u8 {
            let role = role_of(byte);
            let unknown = matches!(
                Frame::decode_payload(byte, &[], &limits),
                Err(fault) if fault.code == ErrorCode::UnknownFrame
            );
            assert_eq!(role.is_none(), unknown, "type {byte:#04x}");
            assert_eq!(
                role.is_some(),
                doc_bytes.contains(&byte),
                "type {byte:#04x}"
            );
            match role {
                Some(Role::Request | Role::StreamRequest) => assert!(byte < 0x80, "{byte:#04x}"),
                Some(Role::Reply) => assert!(byte >= 0x80, "{byte:#04x}"),
                None => {}
            }
            // What the server refuses from the header is the role, nothing else.
            assert_eq!(refusal(byte, false).is_some(), role == Some(Role::Reply));
            assert_eq!(
                refusal(byte, true).is_some(),
                matches!(role, Some(Role::Reply | Role::StreamRequest))
            );
        }
        assert!(doc_rows.len() >= 11, "the doc table was found and parsed");
        for (byte, role, on_datagram) in doc_rows {
            let want = role_of(byte).expect("a doc row is a table row");
            assert_eq!(role, format!("{want:?}"), "role column of {byte:#04x}");
            if want != Role::Reply {
                assert_eq!(
                    on_datagram == "yes",
                    want == Role::Request,
                    "datagram column of {byte:#04x}"
                );
            }
        }
    }

    #[test]
    fn long_fault_messages_truncate_on_char_boundary() {
        let fault = WireFault::new(ErrorCode::NoPath, "é".repeat(600));
        let bytes = Frame::Error {
            fault: fault.clone(),
        }
        .encode(1);
        let limits = Limits::default();
        let (_, got) = read_frame(&mut &bytes[..], &limits).unwrap().unwrap();
        match got {
            Frame::Error { fault: got } => {
                assert_eq!(got.code, fault.code);
                assert!(got.message.len() <= 512);
                assert!(fault.message.starts_with(&got.message));
            }
            other => panic!("want error frame, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod assembler_tests {
    use super::*;

    /// Feed `bytes` through a fresh assembler in `chunk`-sized pieces,
    /// collecting every event.
    fn feed_chunked(bytes: &[u8], chunk: usize, limits: &Limits) -> Vec<Assembled> {
        let mut asm = FrameAssembler::new();
        let mut events = Vec::new();
        for piece in bytes.chunks(chunk) {
            let mut rest = piece;
            while !rest.is_empty() {
                let (taken, event) = asm.feed(rest, limits);
                events.extend(event);
                if taken == 0 {
                    // Poisoned: the remainder must never be consumed.
                    assert!(matches!(events.last(), Some(Assembled::Fatal { .. })));
                    return events;
                }
                rest = &rest[taken..];
            }
        }
        events
    }

    fn sample_stream() -> (Vec<Frame>, Vec<u64>, Vec<u8>) {
        let frames = vec![
            Frame::QueryBatch {
                shard: ShardId(1),
                pairs: vec![(Ipv4(10), Ipv4(20)), (Ipv4(30), Ipv4(40))],
            },
            Frame::Ping,
            Frame::FetchChunk {
                shard: ShardId(7),
                tag: 4,
                idx: 9,
            },
        ];
        let ids = vec![1, TRACE_FLAG | 2, 3];
        let mut bytes = Vec::new();
        for (frame, id) in frames.iter().zip(&ids) {
            bytes.extend_from_slice(&frame.encode(*id));
        }
        (frames, ids, bytes)
    }

    #[test]
    fn byte_at_a_time_reassembles_a_pipelined_stream() {
        let (frames, ids, bytes) = sample_stream();
        let events = feed_chunked(&bytes, 1, &Limits::default());
        assert_eq!(events.len(), frames.len());
        for ((event, want), want_id) in events.iter().zip(&frames).zip(&ids) {
            match event {
                Assembled::Frame {
                    request_id, frame, ..
                } => {
                    assert_eq!(request_id, want_id);
                    assert_eq!(frame, want);
                }
                other => panic!("want frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_fragmentation_yields_the_same_frames() {
        // Pathological chop sizes, none aligned with the 18-byte
        // header: every boundary lands mid-header or mid-payload
        // somewhere in the stream.
        let (frames, _, bytes) = sample_stream();
        for chunk in [2, 3, 5, 7, 11, 13, 17, 19, 23] {
            let events = feed_chunked(&bytes, chunk, &Limits::default());
            let got: Vec<&Frame> = events
                .iter()
                .map(|e| match e {
                    Assembled::Frame { frame, .. } => frame,
                    other => panic!("chunk {chunk}: want frame, got {other:?}"),
                })
                .collect();
            assert_eq!(got.len(), frames.len(), "chunk size {chunk}");
            for (got, want) in got.iter().zip(&frames) {
                assert_eq!(*got, want, "chunk size {chunk}");
            }
        }
    }

    #[test]
    fn split_inside_the_length_header_carries_across_events() {
        let frame = Frame::QueryBatch {
            shard: ShardId(0),
            pairs: vec![(Ipv4(1), Ipv4(2))],
        };
        let bytes = frame.encode(9);
        let limits = Limits::default();
        let mut asm = FrameAssembler::new();
        // 16 bytes ends two bytes *inside* the 4-byte length field.
        let (taken, event) = asm.feed(&bytes[..16], &limits);
        assert_eq!(taken, 16);
        assert!(event.is_none());
        // One more length byte; still no complete header.
        let (taken, event) = asm.feed(&bytes[16..17], &limits);
        assert_eq!(taken, 1);
        assert!(event.is_none());
        // The rest: header completes, payload accumulates, frame pops.
        let mut rest = &bytes[17..];
        let mut got = None;
        while !rest.is_empty() {
            let (taken, event) = asm.feed(rest, &limits);
            assert!(taken > 0);
            rest = &rest[taken..];
            if let Some(e) = event {
                got = Some(e);
            }
        }
        match got.expect("frame assembled") {
            Assembled::Frame {
                request_id,
                frame: got,
                ..
            } => {
                assert_eq!(request_id, 9);
                assert_eq!(got, frame);
            }
            other => panic!("want frame, got {other:?}"),
        }
    }

    #[test]
    fn per_frame_fault_keeps_the_stream_aligned() {
        // A batch over `max_batch` is framed soundly but must not
        // parse; the next frame on the stream still decodes.
        let big = Frame::QueryBatch {
            shard: ShardId(0),
            pairs: (0..5).map(|i| (Ipv4(i), Ipv4(i))).collect(),
        };
        let mut bytes = big.encode(4);
        bytes.extend_from_slice(&Frame::Ping.encode(5));
        let limits = Limits {
            max_batch: 2,
            ..Limits::default()
        };
        let events = feed_chunked(&bytes, 3, &limits);
        assert_eq!(events.len(), 2);
        match &events[0] {
            Assembled::Fault { request_id, fault } => {
                assert_eq!(*request_id, 4);
                assert_eq!(fault.code, ErrorCode::BatchTooLarge);
            }
            other => panic!("want fault, got {other:?}"),
        }
        match &events[1] {
            Assembled::Frame {
                request_id,
                frame: Frame::Ping,
                ..
            } => assert_eq!(*request_id, 5),
            other => panic!("want ping, got {other:?}"),
        }
    }

    #[test]
    fn fatal_poisons_the_assembler() {
        let mut bytes = Frame::Ping.encode(1);
        bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]); // bad magic
        bytes.extend_from_slice(&Frame::Ping.encode(2).as_slice()[4..]);
        bytes.extend_from_slice(&Frame::Ping.encode(3)); // never reached
        let limits = Limits::default();
        let events = feed_chunked(&bytes, 1, &limits);
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], Assembled::Frame { request_id: 1, .. }));
        match &events[1] {
            Assembled::Fatal { fault } => assert_eq!(fault.code, ErrorCode::BadMagic),
            other => panic!("want fatal, got {other:?}"),
        }
        // Poisoned: nothing further is consumed, ever.
        let mut asm = FrameAssembler::new();
        let (_, event) = asm.feed(&[0u8; HEADER_BYTES], &limits);
        assert!(matches!(event, Some(Assembled::Fatal { .. })));
        let (taken, event) = asm.feed(b"more", &limits);
        assert_eq!(taken, 0);
        assert!(event.is_none());
    }

    #[test]
    fn oversized_declared_payload_is_fatal_before_any_payload_arrives() {
        let limits = Limits {
            max_frame_bytes: 64,
            ..Limits::default()
        };
        let big = Frame::QueryBatch {
            shard: ShardId(0),
            pairs: (0..100).map(|i| (Ipv4(i), Ipv4(i))).collect(),
        };
        let bytes = big.encode(7);
        let mut asm = FrameAssembler::new();
        // Feed exactly the header: the fatal must fire on validation,
        // without waiting for (or allocating) the declared payload.
        let (taken, event) = asm.feed(&bytes[..HEADER_BYTES], &limits);
        assert_eq!(taken, HEADER_BYTES);
        match event {
            Some(Assembled::Fatal { fault }) => assert_eq!(fault.code, ErrorCode::FrameTooLarge),
            other => panic!("want fatal, got {other:?}"),
        }
    }

    #[test]
    fn empty_payload_frames_complete_at_the_header_boundary() {
        let bytes = Frame::Ping.encode(42);
        assert_eq!(bytes.len(), HEADER_BYTES);
        let mut asm = FrameAssembler::new();
        let (taken, event) = asm.feed(&bytes, &Limits::default());
        assert_eq!(taken, HEADER_BYTES);
        assert!(matches!(
            event,
            Some(Assembled::Frame {
                request_id: 42,
                frame: Frame::Ping,
                ..
            })
        ));
    }
}
