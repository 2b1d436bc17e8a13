//! The client library: a blocking connection to an `inano-serve`
//! instance with synchronous calls *and* pipelined batch submission.
//!
//! Every engine-touching call exists in two spellings: the plain one
//! (`query_batch`, `epoch`, `resolve`) talks to shard 0 and the `_on`
//! variant
//! (`query_batch_on`, ...) names a [`ShardId`] explicitly.
//! [`NetClient::shards`] enumerates what the server hosts.
//!
//! Pipelining is plain request ids: [`NetClient::submit`] writes a
//! request and returns immediately with its id; [`NetClient::recv`]
//! reads the next reply off the stream (the server answers in request
//! order, and every reply echoes its request's id). A loadgen keeps
//! `depth` batches in flight by submitting `depth` requests up front
//! and then re-submitting after every receive — that hides a full
//! round-trip time behind server-side work.
//!
//! [`MirrorSource`] is the wire's [`AtlasSource`]: a connection scoped
//! to one shard and nothing more. A body is named by its content tag,
//! and the head names every body there is to fetch, so `head()` and
//! `fetch_chunk(tag, idx)` are each one self-contained exchange, and
//! the source keeps no state between them.

use crate::wire::{read_frame, write_frame, Frame, Limits, ReadError, WireFault, TRACE_FLAG};
use crate::wire::{WirePath, WireResolution, WireShardInfo};
use inano_core::{AtlasChunk, AtlasSource, AtlasVersion};
use inano_model::{Ipv4, ModelError};
use inano_obs::{EventsPage, MetricsDump, TraceTimings};
use inano_service::ShardId;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A client-side failure: transport, a typed server fault, or a
/// protocol violation (reply the client did not expect).
#[derive(Debug)]
pub enum NetError {
    Io(io::Error),
    /// The server answered with a typed error frame.
    Remote(WireFault),
    /// The server broke the protocol (wrong reply type, bad id...).
    Protocol(String),
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Remote(fault) => write!(f, "server fault: {fault}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl NetError {
    /// Fold into a [`ModelError`] for `AtlasSource` callers: a typed
    /// model fault comes back as the error the server raised
    /// ([`ModelError::from_wire`]), so the reader can react to
    /// `VersionRaced` from a remote mirror exactly as from a local
    /// source; any other failure becomes a `Decode` error carrying the
    /// story.
    pub fn into_model(self) -> ModelError {
        match self {
            NetError::Remote(fault) => ModelError::from_wire(fault.code, &fault.message)
                .unwrap_or_else(|| ModelError::Decode(format!("remote fault: {fault}"))),
            NetError::Io(e) => ModelError::Decode(format!("transport: {e}")),
            NetError::Protocol(msg) => ModelError::Decode(format!("protocol violation: {msg}")),
        }
    }
}

/// The typed calls both transports offer, written once over "something
/// that can exchange one frame for one": [`NetClient`] on a stream,
/// [`crate::udp::UdpQuerier`] in datagrams. Each type's inherent methods
/// of the same names delegate here, so callers import no trait.
pub(crate) trait TypedCalls {
    /// One synchronous exchange; typed error replies are `Err`.
    fn exchange(&mut self, frame: &Frame) -> Result<Frame, NetError>;

    fn ping(&mut self) -> Result<(), NetError> {
        match self.exchange(&Frame::Ping)? {
            Frame::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    fn query_batch_on(
        &mut self,
        shard: ShardId,
        pairs: &[(Ipv4, Ipv4)],
    ) -> Result<Vec<Result<WirePath, WireFault>>, NetError> {
        let request = Frame::QueryBatch {
            shard,
            pairs: pairs.to_vec(),
        };
        match self.exchange(&request)? {
            Frame::PathBatch { results } => {
                if results.len() != pairs.len() {
                    return Err(NetError::Protocol(format!(
                        "{} results for {} pairs",
                        results.len(),
                        pairs.len()
                    )));
                }
                Ok(results)
            }
            other => Err(unexpected("PathBatch", &other)),
        }
    }

    fn resolve_on(&mut self, shard: ShardId, ip: Ipv4) -> Result<WireResolution, NetError> {
        match self.exchange(&Frame::Resolve { shard, ip })? {
            Frame::ResolveReply { resolution } => Ok(resolution),
            other => Err(unexpected("ResolveReply", &other)),
        }
    }

    fn epoch_on(&mut self, shard: ShardId) -> Result<(u64, u32), NetError> {
        match self.exchange(&Frame::Epoch { shard })? {
            Frame::EpochReply { epoch, day } => Ok((epoch, day)),
            other => Err(unexpected("EpochReply", &other)),
        }
    }

    fn atlas_head_on(&mut self, shard: ShardId) -> Result<AtlasVersion, NetError> {
        match self.exchange(&Frame::AtlasHead { shard })? {
            Frame::AtlasHeadReply { version } => Ok(version),
            other => Err(unexpected("AtlasHeadReply", &other)),
        }
    }
}

fn unexpected(want: &str, got: &Frame) -> NetError {
    NetError::Protocol(format!(
        "want {want}, got frame type {:#04x}",
        got.frame_type()
    ))
}

/// Allocate the next request id from `next_id`, keeping the reserved
/// [`TRACE_FLAG`] bit clear: a counter that grew into bit 63 would
/// silently turn every request into a traced one, and the surprise
/// `TraceReply` trailers would desync the pipeline. Wrapping back to 1
/// after 2^63−1 requests is safe — nothing that old is still in flight.
pub(crate) fn alloc_id(next_id: &mut u64) -> u64 {
    if *next_id & TRACE_FLAG != 0 {
        *next_id = 1;
    }
    let id = *next_id;
    *next_id += 1;
    id
}

/// A connection to a server speaking the `inano-net` wire protocol.
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    limits: Limits,
    next_id: u64,
}

impl NetClient {
    /// Connect with client-appropriate default limits: same
    /// `max_batch` as the server default, but a much larger receive
    /// frame bound — a `PathBatch` reply to a full `max_batch` query
    /// batch carries whole paths and can legitimately exceed the
    /// *request*-side 1 MiB default.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        let reply_limits = Limits {
            max_frame_bytes: 32 << 20,
            ..Limits::default()
        };
        NetClient::connect_with(addr, reply_limits)
    }

    /// Connect with explicit limits (must admit the server's replies:
    /// a reply to a `max_batch` query batch is well over the request's
    /// size once paths are attached).
    pub fn connect_with(addr: impl ToSocketAddrs, limits: Limits) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            limits,
            next_id: 1,
        })
    }

    /// Open a datagram-plane handle to a server's `--udp` socket: the
    /// connectionless sibling of [`NetClient::connect`], for sporadic
    /// single-shot queries. See [`crate::udp::UdpQuerier`].
    pub fn udp(addr: impl ToSocketAddrs) -> io::Result<crate::udp::UdpQuerier> {
        crate::udp::UdpQuerier::connect(addr)
    }

    /// Bound every read and write on this connection; `None` restores
    /// block-forever. A call that times out surfaces as an Io error
    /// and may leave the stream torn mid-frame — treat the connection
    /// as dead and reconnect. Long-lived pollers (the `--mirror`
    /// refresh loop) set this so a half-dead upstream cannot wedge
    /// them, or anything serialised behind them, forever.
    pub fn set_io_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        // reader and writer wrap clones of one socket; options live on
        // the shared description, but set both for explicitness.
        for stream in [self.reader.get_ref(), self.writer.get_ref()] {
            stream.set_read_timeout(timeout)?;
            stream.set_write_timeout(timeout)?;
        }
        Ok(())
    }

    /// Write one request and flush, without waiting for the reply.
    /// Returns the request id to match against [`NetClient::recv`].
    pub fn submit(&mut self, frame: &Frame) -> io::Result<u64> {
        let id = alloc_id(&mut self.next_id);
        write_frame(&mut self.writer, id, frame)?;
        self.writer.flush()?;
        Ok(id)
    }

    /// Read the next reply off the stream. Error frames come back as
    /// `Ok` here — pipelined callers need the id to know *which*
    /// request faulted; [`NetClient::call`] folds them into
    /// [`NetError::Remote`] for the synchronous path.
    pub fn recv(&mut self) -> Result<(u64, Frame), NetError> {
        match read_frame(&mut self.reader, &self.limits) {
            Ok(Some(reply)) => Ok(reply),
            Ok(None) => Err(NetError::Protocol("server closed mid-conversation".into())),
            Err(ReadError::Io(e)) => Err(NetError::Io(e)),
            Err(ReadError::Fatal(fault)) | Err(ReadError::Frame { fault, .. }) => {
                Err(NetError::Protocol(format!("unreadable reply: {fault}")))
            }
        }
    }

    /// Synchronous round trip: submit, wait for the matching reply,
    /// surface error frames as [`NetError::Remote`].
    pub fn call(&mut self, frame: &Frame) -> Result<Frame, NetError> {
        let id = self.submit(frame)?;
        let (got_id, reply) = self.recv()?;
        // Typed faults first: connection-level error frames (admission
        // refusals, fatal framing answers) arrive with request id 0,
        // and the caller needs their code — Overloaded vs ShuttingDown
        // drives backoff — not an id-mismatch complaint.
        if let Frame::Error { fault } = reply {
            return Err(NetError::Remote(fault));
        }
        if got_id != id {
            return Err(NetError::Protocol(format!(
                "reply id {got_id} for request {id}"
            )));
        }
        Ok(reply)
    }

    /// Synchronous round trip with the trace bit set on the request
    /// id: the reply plus the server's decode → queue → engine →
    /// encode breakdown from the `TraceReply` trailer. An error reply
    /// carries no trailer (the server's rule too) and surfaces as
    /// [`NetError::Remote`] exactly like [`NetClient::call`].
    pub fn call_traced(&mut self, frame: &Frame) -> Result<(Frame, TraceTimings), NetError> {
        // `alloc_id` keeps bit 63 clear, so setting it here is the
        // only way this connection ever requests a trace.
        let wire_id = alloc_id(&mut self.next_id) | TRACE_FLAG;
        write_frame(&mut self.writer, wire_id, frame)?;
        self.writer.flush()?;
        let (got_id, reply) = self.recv()?;
        if let Frame::Error { fault } = reply {
            return Err(NetError::Remote(fault));
        }
        if got_id != wire_id {
            return Err(NetError::Protocol(format!(
                "reply id {got_id} for traced request {wire_id}"
            )));
        }
        match self.recv()? {
            (trailer_id, Frame::TraceReply { timings }) if trailer_id == wire_id => {
                Ok((reply, timings))
            }
            (trailer_id, Frame::TraceReply { .. }) => Err(NetError::Protocol(format!(
                "trailer id {trailer_id} for traced request {wire_id}"
            ))),
            (_, other) => Err(unexpected("TraceReply", &other)),
        }
    }

    /// The server's unified metrics dump: `srv.*`, `shardN.*` and any
    /// series the host registered, sorted by name — the
    /// one way to read a server's counters. What `fleet_scrape` polls
    /// and merges across a fleet.
    pub fn metrics(&mut self) -> Result<MetricsDump, NetError> {
        match self.call(&Frame::Metrics)? {
            Frame::MetricsReply { dump } => Ok(dump),
            other => Err(unexpected("MetricsReply", &other)),
        }
    }

    /// Page the server's event journal from `since_seq`: the causal
    /// timeline behind the metrics (swaps, resyncs, overload episodes,
    /// connection churn). Poll with the returned page's `next_seq`;
    /// its `lost` count reports ring overwrites instead of hiding
    /// them. Pass 0 to read everything the ring retains.
    pub fn events(&mut self, since_seq: u64) -> Result<EventsPage, NetError> {
        match self.call(&Frame::Events { since_seq })? {
            Frame::EventsReply { page } => Ok(page),
            other => Err(unexpected("EventsReply", &other)),
        }
    }

    pub fn ping(&mut self) -> Result<(), NetError> {
        TypedCalls::ping(self)
    }

    /// Predict every pair on the default shard (0); per-pair failures
    /// come back as typed faults in the result vector, batch-level
    /// failures as `Err`.
    pub fn query_batch(
        &mut self,
        pairs: &[(Ipv4, Ipv4)],
    ) -> Result<Vec<Result<WirePath, WireFault>>, NetError> {
        self.query_batch_on(ShardId::DEFAULT, pairs)
    }

    /// Predict every pair on one named shard.
    pub fn query_batch_on(
        &mut self,
        shard: ShardId,
        pairs: &[(Ipv4, Ipv4)],
    ) -> Result<Vec<Result<WirePath, WireFault>>, NetError> {
        TypedCalls::query_batch_on(self, shard, pairs)
    }

    /// Pipelined submission of a query batch to the default shard;
    /// pair with [`NetClient::recv`].
    pub fn submit_batch(&mut self, pairs: &[(Ipv4, Ipv4)]) -> io::Result<u64> {
        self.submit_batch_on(ShardId::DEFAULT, pairs)
    }

    /// Pipelined submission of a query batch to one named shard.
    pub fn submit_batch_on(&mut self, shard: ShardId, pairs: &[(Ipv4, Ipv4)]) -> io::Result<u64> {
        self.submit(&Frame::QueryBatch {
            shard,
            pairs: pairs.to_vec(),
        })
    }

    pub fn resolve(&mut self, ip: Ipv4) -> Result<WireResolution, NetError> {
        self.resolve_on(ShardId::DEFAULT, ip)
    }

    pub fn resolve_on(&mut self, shard: ShardId, ip: Ipv4) -> Result<WireResolution, NetError> {
        TypedCalls::resolve_on(self, shard, ip)
    }

    /// The default shard's serving `(epoch, day)`.
    pub fn epoch(&mut self) -> Result<(u64, u32), NetError> {
        self.epoch_on(ShardId::DEFAULT)
    }

    /// One named shard's serving `(epoch, day)`.
    pub fn epoch_on(&mut self, shard: ShardId) -> Result<(u64, u32), NetError> {
        TypedCalls::epoch_on(self, shard)
    }

    /// Every shard the server hosts, with each one's `(epoch, day)`.
    pub fn shards(&mut self) -> Result<Vec<WireShardInfo>, NetError> {
        match self.call(&Frame::ListShards)? {
            Frame::ShardsReply { shards } => Ok(shards),
            other => Err(unexpected("ShardsReply", &other)),
        }
    }

    /// The newest full-atlas version shard 0 serves, and the chain of
    /// deltas leading to it.
    pub fn atlas_head(&mut self) -> Result<AtlasVersion, NetError> {
        self.atlas_head_on(ShardId::DEFAULT)
    }

    /// The newest full-atlas version one named shard serves, and the
    /// chain of deltas leading to it.
    pub fn atlas_head_on(&mut self, shard: ShardId) -> Result<AtlasVersion, NetError> {
        TypedCalls::atlas_head_on(self, shard)
    }

    /// Chunk `idx` of the body — full atlas or delta — that a head named
    /// `tag`. A server that no longer offers that
    /// body answers a typed `VersionRaced` fault: ask again and restart.
    pub fn fetch_chunk_on(
        &mut self,
        shard: ShardId,
        tag: u64,
        idx: u32,
    ) -> Result<AtlasChunk, NetError> {
        match self.call(&Frame::FetchChunk { shard, tag, idx })? {
            Frame::ChunkReply {
                idx: got,
                crc,
                bytes,
            } if got == idx => Ok(AtlasChunk { bytes, crc }),
            Frame::ChunkReply { idx: got, .. } => Err(NetError::Protocol(format!(
                "chunk {got} answered a fetch of chunk {idx}"
            ))),
            other => Err(unexpected("ChunkReply", &other)),
        }
    }

    /// Scope this connection's atlas fetching to one shard, as an
    /// owning [`AtlasSource`]: what `inano-serve --mirror` uses to
    /// bootstrap each local shard from the corresponding remote one.
    pub fn into_atlas_source(self, shard: ShardId) -> MirrorSource {
        MirrorSource {
            client: self,
            shard,
        }
    }
}

impl TypedCalls for NetClient {
    fn exchange(&mut self, frame: &Frame) -> Result<Frame, NetError> {
        self.call(frame)
    }
}

/// A [`NetClient`] scoped to one shard of a remote server: the one
/// [`AtlasSource`] that crosses the wire. Plug it into
/// `INanoClient::bootstrap` / `QueryEngine::bootstrap` and the atlas
/// arrives chunked, checksummed and restartable; each hop of a mirror
/// chain is one of these feeding the reader (`inano_core::read_full`).
pub struct MirrorSource {
    client: NetClient,
    shard: ShardId,
}

impl MirrorSource {
    /// Connect to `addr` and scope atlas fetching to `shard`.
    pub fn connect(addr: impl ToSocketAddrs, shard: ShardId) -> io::Result<MirrorSource> {
        Ok(NetClient::connect(addr)?.into_atlas_source(shard))
    }

    /// The underlying connection (timeouts, ...).
    pub fn client(&self) -> &NetClient {
        &self.client
    }

    /// The underlying connection (epoch probes, metrics, ...).
    pub fn client_mut(&mut self) -> &mut NetClient {
        &mut self.client
    }
}

impl AtlasSource for MirrorSource {
    fn head(&mut self) -> Result<AtlasVersion, ModelError> {
        self.client
            .atlas_head_on(self.shard)
            .map_err(NetError::into_model)
    }

    fn fetch_chunk(&mut self, tag: u64, idx: u32) -> Result<AtlasChunk, ModelError> {
        self.client
            .fetch_chunk_on(self.shard, tag, idx)
            .map_err(NetError::into_model)
    }
}

#[cfg(test)]
#[path = "../../service/tests/common/ring.rs"]
mod ring;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{NetServer, ServerConfig};
    use inano_core::PredictorConfig;
    use inano_service::{RegistryConfig, ShardId, ShardRegistry, ShardSpec};
    use std::sync::Arc;

    fn ring_server() -> NetServer {
        let spec = ShardSpec {
            id: ShardId::DEFAULT,
            atlas: Arc::new(ring::ring_atlas(8, 0)),
            predictor: PredictorConfig::full(),
        };
        let registry =
            ShardRegistry::build(vec![spec], RegistryConfig::default()).expect("one shard");
        NetServer::bind("127.0.0.1:0", Arc::new(registry), ServerConfig::default()).expect("bind")
    }

    /// Regression for the reserved trace bit: a client whose id
    /// counter reaches 2^63 must wrap rather than silently request a
    /// trace on every call and desync on the surprise trailers.
    #[test]
    fn id_generation_wraps_before_the_trace_bit() {
        let server = ring_server();
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        // Fast-forward the counter to the 2^63rd request.
        client.next_id = TRACE_FLAG;
        client.ping().expect("wrapped id still answers cleanly");
        assert_eq!(client.next_id, 2, "counter wrapped to 1 and advanced");
        // The stream stayed in sync: an explicitly traced call right
        // after still sees its reply + trailer pair.
        let (reply, _timings) = client.call_traced(&Frame::Ping).expect("traced ping");
        assert!(matches!(reply, Frame::Pong));
        // And a plain call after that is still in sync too.
        client.ping().expect("stream still aligned");
    }
}
