//! # inano-net
//!
//! The network front end over `inano-service`: what turns the paper's
//! per-peer library into a deployable service a remote peer can query
//! without embedding the predictor or the atlas.
//!
//! Three layers, separable and individually tested:
//!
//! * [`wire`] — a compact length-prefixed binary protocol, one
//!   version (magic, version, request id, typed frames: `QueryBatch`
//!   and the atlas dissemination frames `AtlasHead`/`FetchChunk` — each
//!   leading with a shard id; the head names the newest atlas and the
//!   deltas leading to it, and each body is fetched in chunks by its
//!   content tag — plus `ListShards` (every shard's epoch and day),
//!   `Ping`, the
//!   observability frames `Metrics`/`MetricsReply`/`TraceReply` with
//!   the [`wire::TRACE_FLAG`] request-id bit opting a request into a
//!   stage-timing trailer, the event-journal frames
//!   `Events`/`EventsReply` paging the server's causal timeline, and
//!   typed error frames carrying [`inano_model::ErrorCode`]s), with
//!   receiver-side [`Limits`] on frame and batch size;
//! * [`server`] — an event-driven TCP server ([`NetServer`], shipped
//!   as the `inano-serve` binary): one epoll readiness loop carrying
//!   every connection (tens of thousands of mostly-idle peers fit in
//!   one process) over a worker pool answering requests, hosting a
//!   whole
//!   [`inano_service::ShardRegistry`] of independent atlas shards
//!   behind one listener, with per-connection request pipelining
//!   bounded by an in-flight cap, a server-wide request-memory budget
//!   shared across connections (excess gets typed `Overloaded`
//!   errors either way), a max-connection admission gate, and graceful
//!   shutdown; each frame routes to the engine of the shard it names,
//!   so remote queries ride that shard's cache and hot-swap semantics
//!   exactly like embedded ones — and each shard's encoded atlas and
//!   retained deltas are served back out in bounded chunks, making
//!   every server a mirror;
//! * [`client`] — [`NetClient`], synchronous calls plus pipelined
//!   batch submission (`submit_batch`/`recv`), shard-aware via the
//!   `_on` variants and `shards()`. [`MirrorSource`] (a `NetClient`
//!   scoped to one shard by [`NetClient::into_atlas_source`]) is the
//!   wire's [`inano_core::AtlasSource`], so a remote server plugs into
//!   `INanoClient::bootstrap`/`QueryEngine::bootstrap` like any local
//!   source — the §5 dissemination loop, closed.
//!
//! [`udp`] is the datagram plane's client half: with
//! `ServerConfig::udp` set (the `inano-serve --udp` flag) the same
//! server answers single-shot requests one-frame-per-datagram on the
//! same event loop and worker pool, with zero per-peer state;
//! [`UdpQuerier`] drives it with id-matched replies, capped-backoff
//! retries and late/duplicate-reply discard — the transport for the
//! paper's millions of rarely-asking peers.
//!
//! See DESIGN.md ("The wire protocol") for framing, pipelining,
//! limits and versioning.

pub mod cli;
pub mod client;
pub mod server;
pub mod udp;
pub mod wire;

pub use client::{MirrorSource, NetClient, NetError};
pub use server::{NetServer, ServerConfig};
pub use udp::{UdpQuerier, UdpRetry};
pub use wire::{
    chunk_size_for, datagram_cap, Frame, Limits, WireFault, WirePath, WireShardInfo,
    MAX_UDP_PAYLOAD, TRACE_FLAG,
};

/// Re-exported so `inano-net` users can name shards without a direct
/// `inano-service` dependency.
pub use inano_service::ShardId;
