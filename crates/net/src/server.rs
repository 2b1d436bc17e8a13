//! The event-driven TCP server: one epoll-based readiness loop owning
//! every connection and answering every batch the result cache holds, a
//! small worker pool answering the rest, all requests routed through a
//! shared [`ShardRegistry`] to the shard each frame names.
//!
//! ## Concurrency model
//!
//! Nonblocking I/O throughout, driven by a oneshot [`polling::Poller`]
//! (the vendored epoll stand-in). A single loop thread accepts
//! connections and owns every connection's state: an incremental
//! [`FrameAssembler`] carrying partial frames across readiness events,
//! a pending-work queue, and a write queue of encoded replies drained
//! as the socket accepts them. A connection's requests are taken one at
//! a time, in read order, and only while none of its requests is at a
//! worker and its write backlog is under the cap, so replies stay in
//! request order and a slow reader stalls only itself.
//!
//! A `QueryBatch` is probed on the loop first
//! ([`QueryEngine::probe_batch`] on the frame's shard). When the shard's
//! result cache answers every pair — nearly every batch a warm server
//! sees — the loop encodes the reply straight from the cached paths
//! ([`encode_path_batch`]), queues it and flushes it in the same pass:
//! no thread hop, no wakeup, counted in `srv.loop.answered`. A batch
//! that owes misses goes to a fixed worker pool as its [`Owed`] half,
//! and the responder runs [`QueryEngine::finish`] (one planner call; a
//! call that owes two searches or more borrows scoped helper threads,
//! bounded process-wide by the core count) and never probes again.
//! Every other request goes to the pool as it came. A worker's encoded
//! reply comes back to the loop through a completion list plus
//! [`Poller::notify`]. The responder pool is the only pool on the query
//! path — an engine owns no threads. Remote batches therefore share the
//! shard's result cache, one-generation-per-batch and hot-swap
//! semantics with embedded callers, and a mid-load `apply_delta` on one
//! shard never stalls remote queries on another.
//!
//! The trade-off: warm batches run on the one loop thread, probe and
//! encode included. On a host with more cores than callers, that thread
//! is the first ceiling for warm traffic, where the responder pool used
//! to spread it; sharding the loop (one per core behind
//! `SO_REUSEPORT`) is the way past it.
//!
//! The atlas fetch frames (`AtlasHead`, `FetchChunk`) are the shard's
//! engine as an atlas source,
//! [`QueryEngine::offer`], its bodies cut at the chunk size this
//! server's [`Limits`] admit: a body is named by its content tag, and
//! what a tag no longer names is a typed `VersionRaced` fault, decided
//! in one place in `inano_core` for every source.
//!
//! Two threads per connection was the old model; it capped the server
//! near the thread limit and cost ~16KiB of stack per idle peer. The
//! event loop holds an idle connection for the price of its assembler
//! (a few hundred bytes), so tens of thousands of mostly-idle peers —
//! the fleet dissemination fan-out — fit in one process.
//!
//! ## Admission and limits
//!
//! * At most [`ServerConfig::max_conns`] concurrent connections; the
//!   gate answers excess connects with a typed `Overloaded` error
//!   frame and closes, so clients fail fast instead of queueing.
//! * At most [`ServerConfig::max_inflight`] decoded requests queued
//!   per connection. A pipeliner that outruns the server gets a
//!   typed `Overloaded` error *per excess request* — replies still in
//!   request order, the connection still serving — instead of the
//!   server buffering an unbounded backlog. Once a connection's
//!   pending queue is full the loop additionally stops *reading* it
//!   (its read interest is dropped until the queue drains), so a
//!   flood is absorbed by TCP backpressure, not by server memory.
//! * On top of the per-connection cap, one *server-wide* request-memory
//!   budget ([`ServerConfig::max_request_bytes`]) shared by every
//!   connection: each queued request reserves its estimated heap cost
//!   and releases it once answered, so many connections pipelining
//!   concurrently cannot multiply the per-connection bound into an OOM.
//!   A request that would breach the budget is answered with the same
//!   typed `Overloaded` error, in order, on a connection that keeps
//!   serving.
//! * A slow-consuming client cannot balloon the write queue either:
//!   once a connection's queued reply bytes pass `write_backlog_cap`
//!   (derived from the frame limit), the loop stops taking its
//!   requests — answering them itself or dispatching them to workers —
//!   until the client drains what it already owes.
//! * Frames are bounded by [`Limits`]: an oversized declared payload
//!   or broken framing is answered once and the connection closed
//!   (the stream can no longer be trusted); a parse failure inside a
//!   well-framed payload is answered with a typed error and the
//!   connection keeps serving — a pipelined client loses one request,
//!   not the stream.
//! * Only requests are ever decoded, charged to `max_request_bytes` or
//!   queued for a responder. What a frame is for is its row's role in
//!   the wire's frame table, read off the type byte
//!   ([`crate::wire::role_of`]): a reply-typed frame sent *to* a server
//!   is answered `UnexpectedFrame` in order, as a per-frame fault, with
//!   its payload unparsed — a peer cannot rent loop-thread CPU or
//!   budget with megabyte frames nobody will serve.
//!
//! ## Observability
//!
//! Every server carries an [`inano_obs::MetricsRegistry`]
//! ([`NetServer::metrics`]) and counts in nothing else: the `srv.*`
//! listener series, the event loop's own `srv.loop.*` series (poll
//! wakeups, ready events per wake, registered descriptors, queued
//! write-backlog bytes, batches answered on the loop) and the
//! `srv.udp.*` family are handles taken
//! from it at bind, and every shard engine attaches its own handles
//! as `shardN.*` ([`QueryEngine::register_metrics`]: engine, cache and
//! mirror series, including the `shardN.latency_us` histogram). The
//! dump is those atomics read once — the same entries over the wire
//! (`Frame::Metrics`) and from [`MetricsRegistry::dump`] in process;
//! the server opens no other listener to be read through. A request id
//! with the [`TRACE_FLAG`] bit set gets a `TraceReply` trailer after
//! its (non-error) reply carrying the decode → queue → engine → encode
//! breakdown (a batch the loop answers has no queue stage: its engine
//! stage runs from decode to the probe's end); how many requests were
//! slow is `shardN.latency_us`.
//! Alongside the counters runs the event journal
//! ([`NetServer::journal`], paged by `Frame::Events`): connection
//! accept/close, overload episode open/close (edge-triggered — a
//! burst of rejections is two events), and — via
//! [`QueryEngine::set_journal`] wiring at bind — every shard's
//! generation swaps, delta applications, full resyncs and recovered
//! races, all on one monotonically sequenced timeline.
//!
//! ## The datagram plane
//!
//! With [`ServerConfig::udp`] set, the same loop also owns one UDP
//! socket: one request frame per datagram, answered in one datagram,
//! with **zero per-peer server state** — no assembler, no write queue,
//! no slab slot. A datagram decodes (or faults) in the loop and takes
//! the same route as a stream request: a `QueryBatch` the result cache
//! answers whole is encoded and sent back with `send_to` by the loop
//! itself; anything else rides the same dispatch queue to the same
//! workers and the same [`ShardRegistry`] path, and the worker sends the
//! reply straight back (UDP replies have no ordering contract, so no
//! completion round-trip is needed).
//! The servable subset *is* the frame table's `Request` role
//! ([`crate::wire::Role`]: `Ping`, `QueryBatch`, `AtlasHead`); a
//! `StreamRequest` type (chunk fetches, shard list, metrics/events
//! pages) gets a typed `NotOnDatagram` fault and a
//! `Reply` type `UnexpectedFrame`, both decided from the type byte
//! with the payload unparsed. A reply that would not fit one datagram
//! ([`datagram_cap`]) is replaced by a typed `FrameTooLarge` fault.
//! Admission is a per-source-address token bucket
//! ([`ServerConfig::udp_rate`]): over-rate sources get typed
//! `Overloaded` faults, and far-over-rate sources get silence — a
//! typed reply to every spoofed datagram would make the socket a
//! reflection amplifier. All of it is counted under `srv.udp.*`.
//!
//! ## Shutdown
//!
//! [`NetServer::shutdown`] (also run on drop) sets the flag, wakes the
//! loop through the poller's notify pipe and the workers through their
//! queue condvar, and joins every thread; the loop sweeps its live
//! connections closed on the way out. The registry is shared and
//! outlives the server untouched: it owns no threads to stop.
//!
//! [`QueryEngine::offer`]: inano_service::QueryEngine::offer
//! [`QueryEngine::probe_batch`]: inano_service::QueryEngine::probe_batch
//! [`QueryEngine::finish`]: inano_service::QueryEngine::finish
//! [`QueryEngine::register_metrics`]: inano_service::QueryEngine::register_metrics
//! [`QueryEngine::set_journal`]: inano_service::QueryEngine::set_journal

use crate::wire::{chunk_size_for, datagram_cap, decode_datagram, refusal, DatagramError};
use crate::wire::{encode_path_batch, write_frame, Assembled, Frame, FrameAssembler, Limits};
use crate::wire::{WireFault, WireShardInfo};
use crate::wire::{HEADER_BYTES, MAGIC, TRACE_FLAG, VERSION};
use inano_core::AtlasSource;
use inano_model::{ErrorCode, ModelError};
use inano_obs::{
    Counter, EventJournal, EventKind, Gauge, LatencyHistogram, MetricsRegistry, TraceCtx,
};
use inano_service::{Owed, QueryEngine, ShardRegistry, SharedResult};
use parking_lot::Mutex;
use polling::{Event, Events, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufWriter, Read, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread;
use std::time::{Duration, Instant};

/// Events the journal ring retains. Sized for minutes of fleet churn
/// between scrapes; a lapped scraper sees a `lost` count, never a gap
/// it can't detect.
const EVENT_JOURNAL_CAPACITY: usize = 1024;

/// The poller key carrying the listener; connection keys are slab
/// slots counting up from 0 and can never reach it (`usize::MAX`
/// itself is the poller's own notify pipe).
const LISTENER_KEY: usize = usize::MAX - 1;

/// The poller key carrying the UDP socket, when the datagram plane is
/// enabled.
const UDP_KEY: usize = usize::MAX - 2;

/// Most datagrams one readiness event drains before the socket is
/// re-armed — the datagram analogue of [`READ_ROUNDS_PER_EVENT`], so
/// a datagram flood cannot starve the stream connections of the loop.
const UDP_ROUNDS_PER_EVENT: usize = 64;

/// Most source-address entries the datagram token-bucket table holds.
const UDP_BUCKETS_CAP: usize = 8192;

/// Bytes the loop reads per `read()` call into its reusable scratch
/// buffer.
const READ_CHUNK: usize = 64 * 1024;

/// Most `read()` rounds one readiness event is allowed before the
/// loop moves to the next connection. Leftover socket data re-fires
/// on re-arm (the registration is level-triggered under the oneshot),
/// so this caps per-event latency without losing data — fairness
/// against a firehose peer.
const READ_ROUNDS_PER_EVENT: usize = 4;

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Concurrent-connection admission gate.
    pub max_conns: usize,
    /// Most decoded requests queued per connection; a pipeliner
    /// exceeding it gets typed `Overloaded` errors for the excess.
    pub max_inflight: usize,
    /// Server-wide request-memory budget, bytes: the estimated heap
    /// cost of every queued-but-unanswered request across *all*
    /// connections. Breaching it answers the excess request with a
    /// typed `Overloaded` error. `usize::MAX` never trips.
    pub max_request_bytes: usize,
    /// Per-frame protocol limits.
    pub limits: Limits,
    /// Bind the datagram plane here too (port 0 for ephemeral); `None`
    /// serves the stream transport only.
    pub udp: Option<SocketAddr>,
    /// Datagrams per second each source address may send before the
    /// token bucket sheds it with typed `Overloaded` faults (and,
    /// far past the rate, silence). `0` disables the bucket.
    pub udp_rate: u32,
    /// Burst allowance of the per-source bucket, datagrams.
    pub udp_burst: u32,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_conns: 256,
            max_inflight: 128,
            max_request_bytes: 256 << 20,
            limits: Limits::default(),
            udp: None,
            udp_rate: 20_000,
            udp_burst: 2_048,
        }
    }
}

/// Queued reply bytes per connection past which the loop stops taking
/// that connection's requests, for itself or for workers: a slow consumer
/// pays for its own backlog in stalled service, not server memory.
/// Derived from the frame limit (two max-size frames, at least 1MiB)
/// rather than configured, so the config surface stays put.
fn write_backlog_cap(cfg: &ServerConfig) -> usize {
    (cfg.limits.max_frame_bytes as usize)
        .saturating_mul(2)
        .max(1 << 20)
}

/// One unit of work handed from the loop to a worker.
struct Job {
    target: JobTarget,
    work: Work,
}

/// Where a worker's answer goes.
enum JobTarget {
    /// A stream connection: the encoded reply travels back to the
    /// loop as a [`Completion`] and joins the connection's write
    /// queue, keeping replies in request order.
    Conn {
        /// Slab slot of the owning connection.
        key: usize,
        /// The connection's generation when dispatched; a completion
        /// whose generation no longer matches the slot's occupant is
        /// dropped (the connection died, the slot may be reused).
        gen: u64,
    },
    /// A datagram request: the worker `send_to`s the reply itself —
    /// one datagram, no ordering contract, no per-peer state to
    /// return to.
    Datagram { peer: SocketAddr },
}

/// A worker's finished answer travelling back to the loop.
struct Completion {
    key: usize,
    gen: u64,
    /// The encoded reply frame (plus trace trailer when owed).
    bytes: Vec<u8>,
    /// True after a fatal framing fault: write what's queued, then
    /// close.
    close: bool,
}

/// The loop→worker dispatch queue. `std::sync` (not `parking_lot`)
/// because the workers need a condvar to park on.
struct Dispatch {
    queue: StdMutex<VecDeque<Job>>,
    cv: Condvar,
}

impl Dispatch {
    fn new() -> Dispatch {
        Dispatch {
            queue: StdMutex::new(VecDeque::new()),
            cv: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        self.queue.lock().expect("dispatch lock").push_back(job);
        self.cv.notify_one();
    }

    /// Block for the next job; `None` once shutdown is flagged. The
    /// flag is checked under the queue lock, so a `wake_all` can never
    /// slip between the check and the park.
    fn pop(&self, shutdown: &AtomicBool) -> Option<Job> {
        let mut q = self.queue.lock().expect("dispatch lock");
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            q = self.cv.wait(q).expect("dispatch lock");
        }
    }

    fn wake_all(&self) {
        let _guard = self.queue.lock().expect("dispatch lock");
        self.cv.notify_all();
    }
}

struct Shared {
    registry: Arc<ShardRegistry>,
    obs: Arc<MetricsRegistry>,
    journal: Arc<EventJournal>,
    /// True while the server is inside an overload episode: set by the
    /// first shed (admission refusal, in-flight cap, memory budget),
    /// cleared by the first request served normally afterwards. The
    /// transitions — not every shed — land in the journal, so a burst
    /// of ten thousand rejections is two events, not ten thousand.
    overloaded_now: AtomicBool,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    // Every count below is a handle of `obs`, taken at bind under the
    // name beside it: the value the server acts on is the value a dump
    // shows.
    /// `srv.active`: connections currently served — also the admission
    /// gate's level (only the loop thread moves it).
    active: Gauge,
    /// `srv.request_bytes`: estimated bytes of queued-but-unanswered
    /// requests, across every connection (see
    /// [`ServerConfig::max_request_bytes`]) — the budget's level. Each
    /// queued request's [`Claim`] owns a clone: claims ride inside
    /// `Work` to the workers and release wherever they drop.
    request_bytes: Gauge,
    /// `srv.request_bytes_peak`: high-water mark of `request_bytes`.
    request_bytes_peak: Gauge,
    /// `srv.accepted`: connections accepted over the server's lifetime.
    accepted: Counter,
    /// `srv.rejected`: connections refused by the admission gate.
    rejected: Counter,
    /// `srv.faults`: frames answered with an error (fatal or
    /// per-frame); does NOT include shed requests, which are healthy
    /// throttling and counted in `overloaded` alone.
    faults: Counter,
    /// `srv.overloaded`: requests refused by the in-flight cap, the
    /// memory budget or the datagram rate limit.
    overloaded: Counter,
    /// `srv.accept_retries`: failed `accept()` calls (fd exhaustion,
    /// say) — each engages the accept backoff rather than hot-spinning
    /// the loop.
    accept_retries: Counter,
    /// `srv.loop.wakeups`: times the loop returned from `poller.wait`.
    loop_wakeups: Counter,
    /// `srv.loop.fds`: descriptors registered with the poller
    /// (connections, the listener, the notify pipe, the UDP socket).
    loop_fds: Gauge,
    /// `srv.loop.write_backlog_bytes`: encoded reply bytes queued
    /// server-wide, not yet accepted by client sockets.
    write_backlog: Gauge,
    /// `srv.loop.answered`: `QueryBatch` requests the loop answered
    /// whole from the result cache, on either transport.
    loop_answered: Counter,
    /// `srv.loop.ready_events`: ready events delivered per
    /// `poller.wait` return, log₂-bucketed.
    ready_events: Arc<LatencyHistogram>,
    /// The epoll instance; workers touch it only through `notify`.
    poller: Poller,
    /// The datagram plane, when enabled: the socket (the loop and the
    /// workers reply on it directly) and its counters.
    udp: Option<UdpPlane>,
    dispatch: Dispatch,
    /// Finished answers awaiting the loop; pushed by workers, drained
    /// after each `notify`-triggered wakeup.
    completions: StdMutex<Vec<Completion>>,
}

impl Shared {
    /// Record one shed request/connection, opening an overload episode
    /// if none is running.
    fn note_shed(&self, why: &str) {
        if !self.overloaded_now.swap(true, Ordering::Relaxed) {
            self.journal.emit(EventKind::OverloadStart, why);
        }
    }

    /// Record a normally served request, closing any open episode.
    fn note_served(&self) {
        if self.overloaded_now.swap(false, Ordering::Relaxed) {
            self.journal.emit(EventKind::OverloadEnd, "");
        }
    }
}

/// The datagram plane's socket and counters (the `srv.udp.*` family,
/// registry handles like [`Shared`]'s).
struct UdpPlane {
    socket: UdpSocket,
    addr: SocketAddr,
    /// Datagrams received, decodable or not.
    datagrams_in: Counter,
    /// Reply datagrams actually handed to the kernel.
    datagrams_out: Counter,
    /// Datagrams dropped without a reply: unattributable garbage
    /// (short/bad header, wrong version) or kernel-truncated frames.
    truncated: Counter,
    /// Datagrams refused by the per-source token bucket (typed
    /// `Overloaded` reply or, deep in a flood, silence).
    shed: Counter,
    /// Replies that exceeded [`datagram_cap`] and were replaced by a
    /// typed `FrameTooLarge` fault.
    oversize_reply: Counter,
}

/// A running server; dropping it shuts it down.
pub struct NetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// serving every shard in `registry` behind this one listener.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<ShardRegistry>,
        cfg: ServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        // Best-effort: a failure leaves std's backlog of 128, which
        // only a reconnect storm overflows.
        let _ = polling::relisten(&listener, 4096);
        let addr = listener.local_addr()?;
        let obs = Arc::new(MetricsRegistry::new());
        let journal = Arc::new(EventJournal::new(EVENT_JOURNAL_CAPACITY));
        // Hand every shard engine the journal and the registry, so its
        // swaps, deltas and resyncs land on the listener's timeline and
        // its counters in the listener's dump.
        for (id, engine) in registry.iter() {
            let label = id.to_string();
            engine.register_metrics(&obs, &label);
            engine.set_journal(Arc::clone(&journal), label);
        }
        obs.attach("srv.events_head", journal.head());
        let ready_events = Arc::new(LatencyHistogram::default());
        obs.attach("srv.loop.ready_events", Arc::clone(&ready_events));
        let poller = Poller::new()?;
        // SAFETY: the listener moves into the event loop, which runs
        // until shutdown and is joined before `Shared` — and with it
        // the poller — can drop; the descriptor stays open for as long
        // as the poller can report it.
        unsafe { poller.add(&listener, Event::readable(LISTENER_KEY))? };
        let udp = match cfg.udp {
            Some(udp_addr) => {
                let socket = UdpSocket::bind(udp_addr)?;
                socket.set_nonblocking(true)?;
                let addr = socket.local_addr()?;
                // SAFETY: the socket lives in `Shared` beside the
                // poller and is never closed before both drop together.
                unsafe { poller.add(&socket, Event::readable(UDP_KEY))? };
                Some(UdpPlane {
                    socket,
                    addr,
                    datagrams_in: obs.counter("srv.udp.datagrams_in"),
                    datagrams_out: obs.counter("srv.udp.datagrams_out"),
                    truncated: obs.counter("srv.udp.truncated"),
                    shed: obs.counter("srv.udp.shed"),
                    oversize_reply: obs.counter("srv.udp.oversize_reply"),
                })
            }
            None => None,
        };
        let loop_fds = obs.gauge("srv.loop.fds");
        // The listener, the poller's notify pipe, and the UDP socket
        // when bound.
        loop_fds.set(2 + u64::from(udp.is_some()));
        let shared = Arc::new(Shared {
            registry,
            journal,
            overloaded_now: AtomicBool::new(false),
            cfg,
            shutdown: AtomicBool::new(false),
            active: obs.gauge("srv.active"),
            request_bytes: obs.gauge("srv.request_bytes"),
            request_bytes_peak: obs.gauge("srv.request_bytes_peak"),
            accepted: obs.counter("srv.accepted"),
            rejected: obs.counter("srv.rejected"),
            faults: obs.counter("srv.faults"),
            overloaded: obs.counter("srv.overloaded"),
            accept_retries: obs.counter("srv.accept_retries"),
            loop_wakeups: obs.counter("srv.loop.wakeups"),
            loop_fds,
            write_backlog: obs.gauge("srv.loop.write_backlog_bytes"),
            loop_answered: obs.counter("srv.loop.answered"),
            ready_events,
            obs,
            poller,
            udp,
            dispatch: Dispatch::new(),
            completions: StdMutex::new(Vec::new()),
        });
        let workers = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(4);
        let mut threads = Vec::with_capacity(workers + 1);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name(format!("inano-net-respond-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn responder"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name("inano-net-loop".into())
                    .spawn(move || EventLoop::new(listener, shared).run())
                    .expect("spawn event loop"),
            );
        }
        Ok(NetServer {
            shared,
            addr,
            threads: Mutex::new(threads),
        })
    }

    /// The bound address (the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The datagram plane's bound address (the real port when
    /// [`ServerConfig::udp`] named port 0); `None` when the plane is
    /// disabled.
    pub fn udp_addr(&self) -> Option<SocketAddr> {
        self.shared.udp.as_ref().map(|u| u.addr)
    }

    /// The shard registry this server fronts (shared; `apply_delta`
    /// on a shard through this handle is visible to remote queries
    /// immediately, and only on that shard).
    pub fn registry(&self) -> &Arc<ShardRegistry> {
        &self.shared.registry
    }

    /// The server's unified metrics registry — the only place this
    /// server counts: `srv.*` listener series plus every shard
    /// engine's `shardN.*` engine/cache/mirror series. The same dump
    /// answers `Frame::Metrics` on the wire; callers may register
    /// their own series.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.shared.obs
    }

    /// The server's event journal: the causal timeline behind the
    /// counters. Shard engines emit their swap/delta/resync events
    /// into it, the listener adds connection churn and overload
    /// episodes, and `Frame::Events` pages it over the wire. Callers
    /// (the mirror refresh loop) may emit their own.
    pub fn journal(&self) -> &Arc<EventJournal> {
        &self.shared.journal
    }

    /// Stop accepting, close every live connection, join all threads.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the loop out of `poller.wait` and the workers off the
        // dispatch condvar; both check the flag before doing anything
        // else.
        let _ = self.shared.poller.notify();
        self.shared.dispatch.wake_all();
        let threads: Vec<_> = self.threads.lock().drain(..).collect();
        for h in threads {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Send a single error frame on a connection we won't serve, then close.
fn refuse(stream: TcpStream, code: ErrorCode, message: impl Into<String>) -> io::Result<()> {
    let mut w = BufWriter::new(&stream);
    write_frame(
        &mut w,
        0,
        &Frame::Error {
            fault: WireFault::new(code, message),
        },
    )?;
    w.flush()?;
    stream.shutdown(Shutdown::Both)
}

/// A reservation against the server-wide request-memory pool, released
/// on drop — whichever path the queued request leaves by (answered,
/// queue torn down on disconnect, ...), the bytes come back. Owns its
/// pool handle so it can travel with the request to a worker thread.
struct Claim {
    bytes: u64,
    pool: Gauge,
}

impl Drop for Claim {
    fn drop(&mut self) {
        self.pool.sub(self.bytes);
    }
}

/// Reserve `bytes` against the shared pool, or `None` on breach.
fn try_claim(pool: &Gauge, budget: usize, bytes: usize) -> Option<Claim> {
    let bytes = bytes as u64;
    let prev = pool.add(bytes);
    if prev.saturating_add(bytes) > budget as u64 {
        pool.sub(bytes);
        return None;
    }
    Some(Claim {
        bytes,
        pool: pool.clone(),
    })
}

/// A decoded request's admission, on either transport: a request
/// holding its claim on the server-wide memory budget, or — the budget
/// reached — its rejection, the frame dropped here (the whole point of
/// the budget) so only its id travels on.
fn admit(shared: &Shared, request_id: u64, frame: Frame) -> Work {
    let budget = shared.cfg.max_request_bytes;
    let Some(claim) = try_claim(&shared.request_bytes, budget, frame_cost(&frame)) else {
        return Work::Reject {
            request_id,
            reason: "server-wide request-memory budget reached",
        };
    };
    shared.request_bytes_peak.raise(shared.request_bytes.get());
    Work::Request {
        request_id,
        ask: Ask::Frame(frame),
        claim,
        trace: None,
    }
}

/// Estimated heap cost of holding one decoded request in the in-flight
/// queue. Only requests are ever decoded (a reply-typed frame is
/// refused from its type byte, see [`refusal`]), and of the requests
/// only `QueryBatch` has a variable-size body.
fn frame_cost(frame: &Frame) -> usize {
    const BASE: usize = 128;
    BASE + match frame {
        Frame::QueryBatch { pairs, .. } => pairs.len() * std::mem::size_of::<(u32, u32)>(),
        _ => 0,
    }
}

/// One unit queued on a connection awaiting its turn with the loop's
/// probe or a worker. Each is answered strictly in queue order, which is
/// read order — so replies (rejections included) keep the pipelining
/// contract.
enum Work {
    /// A decoded request to serve, holding its memory-budget claim
    /// until answered.
    Request {
        request_id: u64,
        ask: Ask,
        claim: Claim,
        /// Live when the request id carried [`TRACE_FLAG`]: the stage
        /// clock that becomes the `TraceReply` trailer.
        trace: Option<TraceCtx>,
    },
    /// Read but refused: the in-flight cap or the server-wide memory
    /// budget was hit. Carrying only the id keeps a rejected backlog
    /// O(1) memory per request.
    Reject {
        request_id: u64,
        reason: &'static str,
    },
    /// The payload was framed soundly but does not parse.
    Fault { request_id: u64, fault: WireFault },
    /// The stream desynchronised: answer once (id 0) and close. Always
    /// the assembler's last word.
    Fatal { fault: WireFault },
}

/// What a responder does for a request.
enum Ask {
    /// Serve a decoded frame ([`serve`]). Never a `QueryBatch`: the
    /// loop probes each one first ([`probe_on_loop`]).
    Frame(Frame),
    /// Finish a `QueryBatch` the loop probed: the engine that probed
    /// it, and what the result cache could not answer.
    Owed(Arc<QueryEngine>, Owed),
}

/// Exponential backoff for failed `accept()` calls: while engaged the
/// listener stays disarmed and the loop's `wait` gets a deadline, so
/// persistent failure (fd exhaustion, say) costs one retry per delay
/// instead of a spinning core. Any successful accept resets it.
struct AcceptBackoff {
    delay: Duration,
    until: Option<Instant>,
}

impl AcceptBackoff {
    const START: Duration = Duration::from_millis(10);
    const CAP: Duration = Duration::from_secs(2);

    fn new() -> AcceptBackoff {
        AcceptBackoff {
            delay: AcceptBackoff::START,
            until: None,
        }
    }

    /// Start (or extend) a backoff window from `now`, doubling the
    /// next window up to the cap.
    fn engage(&mut self, now: Instant) {
        self.until = Some(now + self.delay);
        self.delay = (self.delay * 2).min(AcceptBackoff::CAP);
    }

    fn reset(&mut self) {
        self.delay = AcceptBackoff::START;
        self.until = None;
    }

    /// The poll timeout an engaged backoff imposes (`None` = no
    /// backoff, block freely).
    fn timeout(&self, now: Instant) -> Option<Duration> {
        self.until.map(|u| u.saturating_duration_since(now))
    }

    /// True once the window has elapsed (clearing it): time to re-arm
    /// the listener.
    fn expired(&mut self, now: Instant) -> bool {
        match self.until {
            Some(u) if now >= u => {
                self.until = None;
                true
            }
            _ => false,
        }
    }
}

/// Encoded replies a connection's socket hasn't accepted yet, drained
/// front-first as writability allows.
#[derive(Default)]
struct WriteQueue {
    bufs: VecDeque<Vec<u8>>,
    /// Bytes of `bufs.front()` already written.
    off: usize,
    /// Total unwritten bytes across `bufs`.
    bytes: usize,
}

impl WriteQueue {
    /// Queue one encoded reply behind what is already owed.
    fn push(&mut self, bytes: Vec<u8>, backlog: &Gauge) {
        if !bytes.is_empty() {
            self.bytes += bytes.len();
            backlog.add(bytes.len() as u64);
            self.bufs.push_back(bytes);
        }
    }
}

/// Everything the loop knows about one live connection.
struct Conn {
    stream: TcpStream,
    /// Monotonic across all connections ever; guards completions
    /// against slot reuse.
    gen: u64,
    /// Journal identity (`conn={id}` in accept/close events).
    id: u64,
    asm: FrameAssembler,
    /// Decoded work awaiting its turn, in read order.
    pending: VecDeque<Work>,
    /// `Work::Request`s in `pending` plus the in-service one — the
    /// population the `max_inflight` cap bounds.
    queued_requests: usize,
    /// A job for this connection is at a worker (or queued for one);
    /// at most one at a time keeps replies in request order.
    in_service: bool,
    /// That job is a `Work::Request` (so its completion decrements
    /// `queued_requests`).
    in_service_request: bool,
    wq: WriteQueue,
    /// No more bytes will be read: EOF, read error, or a fatal
    /// framing fault. The connection lives on until its queues drain.
    read_closed: bool,
}

/// The readiness loop: owns the listener, the connection slab, and
/// all socket I/O. Runs on one thread until shutdown.
struct EventLoop {
    shared: Arc<Shared>,
    listener: TcpListener,
    /// Connection slab; the vector index is the poller key.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    next_conn_id: u64,
    backoff: AcceptBackoff,
    scratch: Vec<u8>,
    /// Per-source admission state for the datagram plane. Lives on
    /// the loop (its only toucher), not in `Shared`.
    udp_buckets: UdpBuckets,
}

impl EventLoop {
    fn new(listener: TcpListener, shared: Arc<Shared>) -> EventLoop {
        let udp_buckets = UdpBuckets::new(shared.cfg.udp_rate, shared.cfg.udp_burst);
        EventLoop {
            shared,
            listener,
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            next_conn_id: 0,
            backoff: AcceptBackoff::new(),
            // Scratch doubles as the datagram receive buffer, so it
            // must hold the largest possible UDP payload.
            scratch: vec![0; READ_CHUNK.max(crate::wire::MAX_UDP_PAYLOAD)],
            udp_buckets,
        }
    }

    fn run(mut self) {
        let mut events = Events::new();
        loop {
            let timeout = self.backoff.timeout(Instant::now());
            events.clear();
            if let Err(e) = self.shared.poller.wait(&mut events, timeout) {
                if self.shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                eprintln!("inano-net: poll failed, retrying: {e}");
                thread::sleep(Duration::from_millis(10));
                continue;
            }
            self.shared.loop_wakeups.inc();
            self.shared.ready_events.record_us(events.len() as u64);
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if self.backoff.expired(Instant::now()) {
                // The backoff window is over; give accepting another go.
                if let Err(e) = self
                    .shared
                    .poller
                    .modify(&self.listener, Event::readable(LISTENER_KEY))
                {
                    eprintln!("inano-net: listener re-arm failed, retrying: {e}");
                    self.shared.accept_retries.inc();
                    self.backoff.engage(Instant::now());
                }
            }
            self.drain_completions();
            for ev in events.iter() {
                if ev.key == LISTENER_KEY {
                    self.on_listener();
                } else if ev.key == UDP_KEY {
                    self.on_udp();
                } else {
                    self.on_conn(ev);
                }
            }
        }
        // Shutdown sweep: close every live connection on the way out.
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.teardown(slot);
            }
        }
    }

    /// The listener fired: accept until it would block. Oneshot
    /// registration means it stays disarmed unless re-armed here (or
    /// by backoff expiry).
    fn on_listener(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.backoff.reset();
                    self.admit(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if let Err(e) = self
                        .shared
                        .poller
                        .modify(&self.listener, Event::readable(LISTENER_KEY))
                    {
                        eprintln!("inano-net: listener re-arm failed, retrying: {e}");
                        self.shared.accept_retries.inc();
                        self.backoff.engage(Instant::now());
                    }
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Persistent accept failures (fd exhaustion, say)
                    // must not busy-spin a core: count it, say why,
                    // and leave the listener disarmed until the
                    // backoff window ends.
                    self.shared.accept_retries.inc();
                    eprintln!("inano-net: accept failed, retrying: {e}");
                    self.backoff.engage(Instant::now());
                    return;
                }
            }
        }
    }

    /// The UDP socket fired: drain up to [`UDP_ROUNDS_PER_EVENT`]
    /// datagrams, then re-arm the oneshot registration (leftovers
    /// re-fire immediately — fairness against a datagram firehose).
    fn on_udp(&mut self) {
        let shared = Arc::clone(&self.shared);
        let Some(udp) = shared.udp.as_ref() else {
            return;
        };
        for _ in 0..UDP_ROUNDS_PER_EVENT {
            let (n, peer) = match udp.socket.recv_from(&mut self.scratch) {
                Ok(got) => got,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient kernel-reported errors (ICMP unreachable
                // from an earlier send, say) are not ours to fix.
                Err(_) => continue,
            };
            udp.datagrams_in.inc();
            self.ingest_datagram(udp, n, peer);
        }
        if shared
            .poller
            .modify(&udp.socket, Event::readable(UDP_KEY))
            .is_err()
        {
            eprintln!("inano-net: udp re-arm failed; datagram plane is dead");
        }
    }

    /// Admit and decode one received datagram, then answer it here or
    /// dispatch it.
    fn ingest_datagram(&mut self, udp: &UdpPlane, n: usize, peer: SocketAddr) {
        let gate = self.udp_buckets.check(peer.ip(), Instant::now());
        let shared = Arc::clone(&self.shared);
        let buf = &self.scratch[..n];
        // Whatever this datagram earns, a worker (or, for a batch the
        // cache answers whole, the loop) sends it straight back.
        let dispatch = |work: Work| {
            shared.dispatch.push(Job {
                target: JobTarget::Datagram { peer },
                work,
            })
        };
        match gate {
            UdpGate::Admit => {}
            UdpGate::Shed => {
                udp.shed.inc();
                // A typed `Overloaded` answer — but only to a sender
                // whose header proves it speaks the protocol.
                if let Some(request_id) = datagram_id(buf) {
                    dispatch(Work::Reject {
                        request_id,
                        reason: "per-source datagram rate limit reached",
                    });
                }
                return;
            }
            UdpGate::Drop => {
                // Deep in a flood: answering every datagram would turn
                // the socket into a reflection amplifier. Silence.
                udp.shed.inc();
                shared.note_shed("per-source datagram rate limit (dropping)");
                return;
            }
        }
        // Refuse by role, from the type byte — which is only there to
        // read once `datagram_id` has seen a whole, sound header — so a
        // reply or stream-only type never has its payload parsed.
        if let Some(request_id) = datagram_id(buf) {
            if let Some(fault) = refusal(buf[5], true) {
                return dispatch(Work::Fault { request_id, fault });
            }
        }
        let (request_id, frame) = match decode_datagram(buf, &shared.cfg.limits) {
            Ok(decoded) => decoded,
            Err(DatagramError::Drop(_)) => {
                udp.truncated.inc();
                return;
            }
            Err(DatagramError::Fault { request_id, fault }) => {
                return dispatch(Work::Fault { request_id, fault });
            }
        };
        // No `TraceReply` trailers on the datagram plane: a reply is one
        // frame in one datagram, so the id's trace bit is echoed but not
        // honoured.
        let mut work = admit(&shared, request_id, frame);
        match probe_on_loop(&shared, &mut work) {
            Some(bytes) => udp_reply(&shared, peer, bytes),
            None => dispatch(work),
        }
    }

    /// Admission-check one accepted stream and register it, or refuse
    /// it with a typed error.
    fn admit(&mut self, stream: TcpStream) {
        let shared = Arc::clone(&self.shared);
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = refuse(stream, ErrorCode::ShuttingDown, "server is shutting down");
            return;
        }
        if shared.active.get() >= shared.cfg.max_conns as u64 {
            shared.rejected.inc();
            shared.faults.inc();
            shared.note_shed("connection limit reached");
            let _ = refuse(
                stream,
                ErrorCode::Overloaded,
                format!("connection limit {} reached", shared.cfg.max_conns),
            );
            return;
        }
        // The refusals above ride on the still-blocking stream; from
        // here the socket joins the nonblocking loop.
        if stream
            .set_nodelay(true)
            .and_then(|()| stream.set_nonblocking(true))
            .is_err()
        {
            shared.rejected.inc();
            shared.faults.inc();
            let _ = refuse(
                stream,
                ErrorCode::Overloaded,
                "cannot register connection (out of descriptors?)",
            );
            return;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        // SAFETY: the stream is stored in `self.conns[slot]` below and
        // leaves it only through `teardown`, which deletes it from the
        // poller before the `Conn` (and the descriptor) drops.
        if unsafe { shared.poller.add(&stream, Event::readable(slot)) }.is_err() {
            self.free.push(slot);
            shared.rejected.inc();
            shared.faults.inc();
            let _ = refuse(
                stream,
                ErrorCode::Overloaded,
                "cannot register connection (out of descriptors?)",
            );
            return;
        }
        self.next_gen += 1;
        let id = self.next_conn_id;
        self.next_conn_id += 1;
        self.conns[slot] = Some(Conn {
            stream,
            gen: self.next_gen,
            id,
            asm: FrameAssembler::new(),
            pending: VecDeque::new(),
            queued_requests: 0,
            in_service: false,
            in_service_request: false,
            wq: WriteQueue::default(),
            read_closed: false,
        });
        shared.active.add(1);
        shared.accepted.inc();
        shared.loop_fds.add(1);
        shared
            .journal
            .emit(EventKind::ConnAccepted, format!("conn={id}"));
    }

    /// Readiness on one connection's socket.
    fn on_conn(&mut self, ev: Event) {
        let slot = ev.key;
        // A completion processed earlier this wake may have torn the
        // connection down; its already-harvested event is stale.
        if self.conns.get(slot).is_none_or(|c| c.is_none()) {
            return;
        }
        if ev.readable {
            self.read_ready(slot);
        }
        // Writability needs no flag check: `service` always tries to
        // flush whatever is queued.
        self.service(slot);
    }

    /// Pull bytes while the socket has them, the round cap allows,
    /// and backpressure permits. Leftover data re-fires on re-arm.
    fn read_ready(&mut self, slot: usize) {
        let cap = self.shared.cfg.max_inflight.max(1);
        for _ in 0..READ_ROUNDS_PER_EVENT {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            // Backpressure: a full pending queue stops the reads (and
            // `sync_interest` will drop read interest); TCP pushes
            // back on the client until the queue drains.
            if conn.read_closed || conn.pending.len() >= cap {
                return;
            }
            let n = match (&conn.stream).read(&mut self.scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    return;
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.read_closed = true;
                    return;
                }
            };
            self.ingest(slot, n);
        }
    }

    /// Run `scratch[..n]` through the connection's assembler, queueing
    /// one `Work` item per completed event and converting overflow
    /// (the in-flight cap, the byte budget) into typed rejections.
    fn ingest(&mut self, slot: usize, n: usize) {
        let shared = Arc::clone(&self.shared);
        let cap = shared.cfg.max_inflight.max(1);
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let mut off = 0;
        while off < n {
            let (used, event) = conn.asm.feed(&self.scratch[off..n], &shared.cfg.limits);
            off += used;
            let Some(event) = event else {
                if used == 0 {
                    // Poisoned assembler: the rest of the input is
                    // past the fatal fault and must not be parsed.
                    return;
                }
                continue;
            };
            match event {
                Assembled::Frame {
                    request_id,
                    frame,
                    decode_us,
                } => {
                    // The trace clock starts the moment decode ends,
                    // so queue time (however long the worker backlog)
                    // is charged to the queue stage, not to decode.
                    let trace = (request_id & TRACE_FLAG != 0).then(|| TraceCtx::begin(decode_us));
                    let work = match admit(&shared, request_id, frame) {
                        // The cap is hit: refuse *this* request with a
                        // typed error instead of queueing it. Dropping
                        // the frame and claim frees its memory now.
                        Work::Request { .. } if conn.queued_requests >= cap => Work::Reject {
                            request_id,
                            reason: "per-connection in-flight request limit reached",
                        },
                        Work::Request { ask, claim, .. } => {
                            conn.queued_requests += 1;
                            Work::Request {
                                request_id,
                                ask,
                                claim,
                                trace,
                            }
                        }
                        rejected => rejected,
                    };
                    conn.pending.push_back(work);
                }
                Assembled::Fault { request_id, fault } => {
                    conn.pending.push_back(Work::Fault { request_id, fault });
                }
                Assembled::Fatal { fault } => {
                    conn.pending.push_back(Work::Fatal { fault });
                    conn.read_closed = true;
                    return;
                }
            }
        }
    }

    /// Apply every completion the workers have queued since the last
    /// wake.
    fn drain_completions(&mut self) {
        let done: Vec<Completion> =
            std::mem::take(&mut *self.shared.completions.lock().expect("completions lock"));
        for c in done {
            self.apply_completion(c);
        }
    }

    fn apply_completion(&mut self, c: Completion) {
        let Some(conn) = self.conns.get_mut(c.key).and_then(|s| s.as_mut()) else {
            return;
        };
        if conn.gen != c.gen {
            return; // the slot was reused; this answer's conn is gone
        }
        conn.in_service = false;
        if conn.in_service_request {
            conn.queued_requests -= 1;
            conn.in_service_request = false;
        }
        conn.wq.push(c.bytes, &self.shared.write_backlog);
        if c.close {
            // Fatal framing fault: this reply is the stream's last
            // word. Anything decoded after it is void.
            conn.read_closed = true;
            conn.pending.clear();
            conn.queued_requests = 0;
        }
        self.service(c.key);
    }

    /// Advance one connection: flush writes, answer its next work items
    /// the loop can answer and dispatch the first it cannot, tear down if
    /// finished, and re-arm interest.
    fn service(&mut self, slot: usize) {
        let shared = Arc::clone(&self.shared);
        let backlog_cap = write_backlog_cap(&shared.cfg);
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if flush_writes(conn, &shared).is_err() {
                self.teardown(slot);
                return;
            }
            // Dispatch gate: while this connection owes the client
            // more reply bytes than the backlog cap, its work waits —
            // generating yet more output for a non-reading peer helps
            // no one.
            if conn.in_service || conn.wq.bytes >= backlog_cap {
                break;
            }
            let Some(mut work) = conn.pending.pop_front() else {
                break;
            };
            let request = matches!(work, Work::Request { .. });
            match probe_on_loop(&shared, &mut work) {
                // Answered here: queue the reply, flush it on the next
                // turn, and move to the next pending item.
                Some(bytes) => {
                    conn.queued_requests -= 1;
                    conn.wq.push(bytes, &shared.write_backlog);
                }
                None => {
                    conn.in_service = true;
                    conn.in_service_request = request;
                    shared.dispatch.push(Job {
                        target: JobTarget::Conn {
                            key: slot,
                            gen: conn.gen,
                        },
                        work,
                    });
                }
            }
        }
        let conn = self.conns[slot].as_ref().expect("conn just flushed");
        let done = conn.read_closed
            && conn.pending.is_empty()
            && !conn.in_service
            && conn.wq.bufs.is_empty();
        if done {
            self.teardown(slot);
            return;
        }
        self.sync_interest(slot);
    }

    /// Re-arm the oneshot registration to match what the connection
    /// can currently make progress on.
    fn sync_interest(&mut self, slot: usize) {
        let cap = self.shared.cfg.max_inflight.max(1);
        let Some(conn) = self.conns[slot].as_ref() else {
            return;
        };
        let ev = Event {
            key: slot,
            readable: !conn.read_closed && conn.pending.len() < cap,
            writable: !conn.wq.bufs.is_empty(),
        };
        if self.shared.poller.modify(&conn.stream, ev).is_err() {
            self.teardown(slot);
        }
    }

    /// Remove one connection: deregister, release accounting, emit
    /// the close event, free the slot. Dropping the `Conn` closes the
    /// socket and releases any budget claims still queued.
    fn teardown(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        let _ = self.shared.poller.delete(&conn.stream);
        self.shared.write_backlog.sub(conn.wq.bytes as u64);
        self.shared.active.sub(1);
        self.shared.loop_fds.sub(1);
        self.shared
            .journal
            .emit(EventKind::ConnClosed, format!("conn={}", conn.id));
        self.free.push(slot);
    }
}

/// Write queued reply bytes until the socket would block or the queue
/// empties. An error (including a zero-byte write) means the
/// connection is dead.
fn flush_writes(conn: &mut Conn, shared: &Shared) -> io::Result<()> {
    while !conn.wq.bufs.is_empty() {
        let res = {
            let front = conn.wq.bufs.front().expect("non-empty write queue");
            (&conn.stream).write(&front[conn.wq.off..])
        };
        match res {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "socket accepted zero bytes",
                ))
            }
            Ok(n) => {
                conn.wq.off += n;
                conn.wq.bytes -= n;
                shared.write_backlog.sub(n as u64);
                if conn.wq.off == conn.wq.bufs.front().map_or(0, Vec::len) {
                    conn.wq.bufs.pop_front();
                    conn.wq.off = 0;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One worker: pop jobs, answer them, and route each answer home — a
/// completion + loop kick for stream connections, a direct `send_to`
/// for datagrams. Exits when shutdown is flagged.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.dispatch.pop(&shared.shutdown) {
        let (bytes, close) = answer(shared, job.work);
        match job.target {
            JobTarget::Conn { key, gen } => {
                shared
                    .completions
                    .lock()
                    .expect("completions lock")
                    .push(Completion {
                        key,
                        gen,
                        bytes,
                        close,
                    });
                let _ = shared.poller.notify();
            }
            JobTarget::Datagram { peer } => udp_reply(shared, peer, bytes),
        }
    }
}

/// Send one encoded reply datagram, downgrading a reply that cannot
/// fit a datagram to a typed `FrameTooLarge` fault. Best-effort by
/// design: a send the kernel refuses (full buffer, unreachable peer)
/// is dropped and the client's retry covers it — that is the datagram
/// contract.
fn udp_reply(shared: &Shared, peer: SocketAddr, mut bytes: Vec<u8>) {
    let Some(udp) = shared.udp.as_ref() else {
        return;
    };
    let cap = datagram_cap(&shared.cfg.limits);
    if bytes.len() > cap {
        udp.oversize_reply.inc();
        shared.faults.inc();
        // The encoded reply's header still carries the request id.
        let request_id = u64::from_be_bytes(bytes[6..14].try_into().expect("encoded header"));
        bytes = Frame::Error {
            fault: WireFault::new(
                ErrorCode::FrameTooLarge,
                format!(
                    "reply of {} bytes exceeds the {cap}-byte datagram cap; \
                     use the stream transport or a smaller batch",
                    bytes.len()
                ),
            ),
        }
        .encode(request_id);
    }
    if udp.socket.send_to(&bytes, peer).is_ok() {
        udp.datagrams_out.inc();
    }
}

/// The request id of a datagram whose header passes the magic and
/// version checks — the minimum bar for answering a sender at all —
/// without decoding the payload. Used on the shed path, where doing
/// less work than a real request is the whole point.
fn datagram_id(buf: &[u8]) -> Option<u64> {
    if buf.len() < HEADER_BYTES {
        return None;
    }
    let magic = u32::from_be_bytes(buf[0..4].try_into().expect("sized slice"));
    if magic != MAGIC || buf[4] != VERSION {
        return None;
    }
    Some(u64::from_be_bytes(
        buf[6..14].try_into().expect("sized slice"),
    ))
}

/// What the per-source token bucket says about one arriving datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum UdpGate {
    /// Within rate: serve it.
    Admit,
    /// Over rate: answer a typed `Overloaded` fault.
    Shed,
    /// Far over rate (a burst past any polite backoff): drop in
    /// silence, because typed answers at flood rate are amplification.
    Drop,
}

/// Per-source-address token buckets for the datagram plane. Classic
/// leaky refill: `rate` tokens/second up to `burst`; each datagram
/// costs one. The balance may run down to `-burst` — that negative
/// band is where typed `Overloaded` sheds live — and anything below
/// it is dropped unanswered. The table never holds more than
/// [`UDP_BUCKETS_CAP`] sources: a new source that finds it full sweeps
/// the entries idle for a second or more (an idle second refills ≥ any
/// sane rate's burst, so sweeping them loses nothing), at most once a
/// second, and is dropped if the table is still full — a flood of
/// spoofed addresses buys neither memory nor an O(n) pass per datagram.
struct UdpBuckets {
    map: HashMap<IpAddr, UdpBucket>,
    rate: f64,
    burst: f64,
    /// When the table was last swept.
    swept: Option<Instant>,
}

struct UdpBucket {
    tokens: f64,
    last: Instant,
}

impl UdpBuckets {
    fn new(rate: u32, burst: u32) -> UdpBuckets {
        UdpBuckets {
            map: HashMap::new(),
            rate: f64::from(rate),
            burst: f64::from(burst.max(1)),
            swept: None,
        }
    }

    fn check(&mut self, ip: IpAddr, now: Instant) -> UdpGate {
        if self.rate <= 0.0 {
            return UdpGate::Admit;
        }
        let second = Duration::from_secs(1);
        if self.map.len() >= UDP_BUCKETS_CAP && !self.map.contains_key(&ip) {
            if self.swept.is_none_or(|at| now.duration_since(at) >= second) {
                self.swept = Some(now);
                self.map.retain(|_, b| now.duration_since(b.last) < second);
            }
            if self.map.len() >= UDP_BUCKETS_CAP {
                return UdpGate::Drop;
            }
        }
        let bucket = self.map.entry(ip).or_insert(UdpBucket {
            tokens: self.burst,
            last: now,
        });
        let dt = now.duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + dt * self.rate).min(self.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            UdpGate::Admit
        } else if bucket.tokens > -self.burst {
            bucket.tokens -= 1.0;
            UdpGate::Shed
        } else {
            UdpGate::Drop
        }
    }
}

/// Answer one work item: run the request (or materialise the typed
/// error), keep the counters, and encode the reply — plus the
/// `TraceReply` trailer when one is owed — into the byte buffer the
/// loop will queue on the connection.
fn answer(shared: &Shared, work: Work) -> (Vec<u8>, bool) {
    // `overloaded` and `faults` are disjoint categories: a rejection
    // is healthy throttling, not a protocol or engine fault, and must
    // not make a throttled server look broken.
    let mut count_fault = true;
    // The request's budget claim lives until its reply is encoded
    // (that is when the request's memory is truly gone).
    let mut _claim = None;
    let mut trace = None;
    let (request_id, reply, close) = match work {
        Work::Request {
            request_id,
            ask,
            claim,
            trace: t,
        } => {
            trace = t;
            if let Some(t) = trace.as_mut() {
                t.dequeued();
            }
            let reply = match ask {
                Ask::Frame(frame) => {
                    Reply::Frame(serve(shared, &frame).unwrap_or_else(|e| Frame::Error {
                        fault: WireFault::from(&e),
                    }))
                }
                Ask::Owed(engine, owed) => Reply::Paths(engine.finish(owed)),
            };
            if let Some(t) = trace.as_mut() {
                t.served();
            }
            // A request the server had room to serve closes any open
            // overload episode.
            shared.note_served();
            _claim = Some(claim);
            (request_id, reply, false)
        }
        Work::Reject { request_id, reason } => {
            shared.overloaded.inc();
            shared.note_shed(reason);
            count_fault = false;
            let fault = WireFault::new(ErrorCode::Overloaded, reason);
            (request_id, Reply::Frame(Frame::Error { fault }), false)
        }
        Work::Fault { request_id, fault } => {
            (request_id, Reply::Frame(Frame::Error { fault }), false)
        }
        Work::Fatal { fault } => (0, Reply::Frame(Frame::Error { fault }), true),
    };
    let is_error = matches!(reply, Reply::Frame(Frame::Error { .. }));
    if count_fault && is_error {
        shared.faults.inc();
    }
    let mut bytes = match &reply {
        Reply::Frame(frame) => frame.encode(request_id),
        Reply::Paths(results) => encode_path_batch(request_id, results),
    };
    // The trailer follows every *non-error* traced reply — the same
    // rule the client applies, so a pipelined stream never misparses an
    // error as a trailer.
    if !is_error {
        trail(trace, request_id, &mut bytes);
    }
    (bytes, close)
}

/// Append a traced request's `TraceReply` trailer to its encoded reply:
/// one buffer keeps reply and trailer adjacent on the wire.
fn trail(trace: Option<TraceCtx>, request_id: u64, bytes: &mut Vec<u8>) {
    if let Some(t) = trace {
        let timings = t.finish();
        Frame::TraceReply { timings }.encode_into(request_id, bytes);
    }
}

/// Probe a `QueryBatch` on the loop thread
/// ([`QueryEngine::probe_batch`]). A batch the result cache answers
/// whole is encoded here — its trace, if any, has no queue stage and an
/// engine stage from decode to the probe's end — and `Some` reply
/// returned: `work` is spent, and dropping it releases its claim.
/// Otherwise `work` is left as what a responder must do: finish a batch
/// that owes misses ([`Ask::Owed`]), answer a batch on a shard this
/// server does not serve with its typed fault, or serve any other work
/// as it came.
fn probe_on_loop(shared: &Shared, work: &mut Work) -> Option<Vec<u8>> {
    let Work::Request {
        request_id,
        ask,
        trace,
        ..
    } = work
    else {
        return None;
    };
    let Ask::Frame(Frame::QueryBatch { shard, pairs }) = ask else {
        return None;
    };
    let request_id = *request_id;
    let engine = match shared.registry.engine(*shard) {
        Ok(engine) => engine,
        Err(e) => {
            let fault = WireFault::from(&e);
            *work = Work::Fault { request_id, fault };
            return None;
        }
    };
    match engine.probe_batch(pairs) {
        Ok(answers) => {
            if let Some(t) = trace.as_mut() {
                t.served();
            }
            shared.note_served();
            shared.loop_answered.inc();
            let mut bytes = encode_path_batch(request_id, &answers);
            trail(trace.take(), request_id, &mut bytes);
            Some(bytes)
        }
        Err(owed) => {
            *ask = Ask::Owed(Arc::clone(engine), owed);
            None
        }
    }
}

/// What a served request is answered with, before encoding.
enum Reply {
    Frame(Frame),
    /// A served `QueryBatch`, still as the engine's shared results: the
    /// `PathBatch` bytes are written straight from them
    /// ([`encode_path_batch`]), after the trace's engine stage closes.
    Paths(Vec<SharedResult>),
}

/// Map one decoded request to its reply frame — the serve arm of every
/// request row of the frame table but `QueryBatch` — routing
/// shard-addressed requests through the registry. The server's `Limits` bound the chunk size
/// every atlas body is served in: one chunk always fits one frame. An
/// `Err` is answered as the typed `Error` frame that carries it.
fn serve(shared: &Shared, frame: &Frame) -> Result<Frame, ModelError> {
    let registry = &shared.registry;
    let cs = chunk_size_for(&shared.cfg.limits);
    Ok(match frame {
        Frame::Ping => Frame::Pong,
        Frame::Metrics => Frame::MetricsReply {
            dump: shared.obs.dump(),
        },
        Frame::Events { since_seq } => Frame::EventsReply {
            page: shared.journal.since(*since_seq),
        },
        Frame::ListShards => Frame::ShardsReply {
            shards: registry
                .iter()
                .map(|(id, engine)| {
                    let generation = engine.generation();
                    WireShardInfo {
                        shard: id.raw(),
                        epoch: generation.epoch,
                        day: generation.day(),
                    }
                })
                .collect(),
        },
        Frame::AtlasHead { shard } => Frame::AtlasHeadReply {
            version: registry.engine(*shard)?.offer(cs).head()?,
        },
        Frame::FetchChunk { shard, tag, idx } => {
            let chunk = registry.engine(*shard)?.offer(cs).fetch_chunk(*tag, *idx)?;
            Frame::ChunkReply {
                idx: *idx,
                crc: chunk.crc,
                bytes: chunk.bytes,
            }
        }
        // The table's `Reply` rows are refused from the type byte
        // ([`refusal`]) and never decoded, and a `QueryBatch` is the
        // loop's to probe ([`probe_on_loop`]), so what lands here is a
        // request row nobody wrote a serve arm for.
        other => Frame::Error {
            fault: WireFault::new(
                ErrorCode::UnexpectedFrame,
                format!("frame type {:#04x} has no serve arm", other.frame_type()),
            ),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_doubles_to_the_cap_and_resets() {
        let mut b = AcceptBackoff::new();
        let t0 = Instant::now();
        assert!(b.timeout(t0).is_none(), "fresh backoff imposes no timeout");
        b.engage(t0);
        assert_eq!(b.timeout(t0), Some(AcceptBackoff::START));
        // Each engagement doubles the *next* window, saturating at
        // the cap.
        let mut expect = AcceptBackoff::START * 2;
        for _ in 0..12 {
            b.engage(t0);
            assert_eq!(b.timeout(t0), Some(expect.min(AcceptBackoff::CAP)));
            expect = (expect * 2).min(AcceptBackoff::CAP);
        }
        assert_eq!(b.timeout(t0), Some(AcceptBackoff::CAP));
        b.reset();
        assert!(b.timeout(t0).is_none());
        b.engage(t0);
        assert_eq!(b.timeout(t0), Some(AcceptBackoff::START));
    }

    #[test]
    fn accept_backoff_expiry_clears_the_window_once() {
        let mut b = AcceptBackoff::new();
        let t0 = Instant::now();
        assert!(!b.expired(t0), "no window, nothing to expire");
        b.engage(t0);
        assert!(!b.expired(t0), "window still open at its start");
        let later = t0 + AcceptBackoff::START;
        assert!(b.expired(later), "window elapsed");
        assert!(!b.expired(later), "expiry is edge-triggered");
        // A timeout queried mid-window shrinks as time passes.
        b.engage(t0);
        let full = b.timeout(t0).expect("window open");
        let left = b.timeout(t0 + full / 2).expect("window still open");
        assert!(left < full);
    }

    #[test]
    fn write_backlog_cap_tracks_the_frame_limit_with_a_floor() {
        let mut cfg = ServerConfig::default();
        // Default 1MiB frames → 2MiB cap.
        assert_eq!(write_backlog_cap(&cfg), 2 << 20);
        // Tiny frame limits still get the 1MiB floor.
        cfg.limits.max_frame_bytes = 1024;
        assert_eq!(write_backlog_cap(&cfg), 1 << 20);
        // Big frame limits scale the cap up.
        cfg.limits.max_frame_bytes = 64 << 20;
        assert_eq!(write_backlog_cap(&cfg), 128 << 20);
    }

    #[test]
    fn udp_buckets_admit_then_shed_then_drop_then_refill() {
        let mut b = UdpBuckets::new(10, 4);
        let ip: IpAddr = "10.0.0.1".parse().unwrap();
        let t0 = Instant::now();
        for _ in 0..4 {
            assert_eq!(b.check(ip, t0), UdpGate::Admit);
        }
        // The burst is spent: a band of typed sheds, one burst deep...
        for _ in 0..4 {
            assert_eq!(b.check(ip, t0), UdpGate::Shed);
        }
        // ...and below it, silence.
        assert_eq!(b.check(ip, t0), UdpGate::Drop);
        // Buckets are per source: another address is untouched.
        let other: IpAddr = "10.0.0.2".parse().unwrap();
        assert_eq!(b.check(other, t0), UdpGate::Admit);
        // Refill brings the flooded source back.
        let t1 = t0 + Duration::from_secs(1);
        assert_eq!(b.check(ip, t1), UdpGate::Admit);
        // Rate 0 disables the bucket entirely.
        let mut open = UdpBuckets::new(0, 1);
        for _ in 0..100 {
            assert_eq!(open.check(ip, t0), UdpGate::Admit);
        }
    }

    #[test]
    fn udp_bucket_refills_from_the_bottom_of_the_shed_band() {
        // Rate 1/s, burst 1: one admit, one typed shed, then silence.
        let mut b = UdpBuckets::new(1, 1);
        let ip: IpAddr = "10.0.0.1".parse().unwrap();
        let t0 = Instant::now();
        let secs = |n: u64| t0 + Duration::from_secs(n);
        assert_eq!(b.check(ip, t0), UdpGate::Admit);
        assert_eq!(b.check(ip, t0), UdpGate::Shed);
        assert_eq!(b.check(ip, t0), UdpGate::Drop);
        // The flood left the balance at the bottom of the shed band, so
        // one second of refill is not a token: still shed...
        assert_eq!(b.check(ip, secs(1)), UdpGate::Shed);
        // ...and that shed dug the hole again; two idle seconds climb
        // out of it.
        assert_eq!(b.check(ip, secs(3)), UdpGate::Admit);
    }

    #[test]
    fn udp_buckets_stay_bounded_under_a_flood_of_new_sources() {
        let mut b = UdpBuckets::new(10, 4);
        let ip = |i: usize| IpAddr::from(std::net::Ipv4Addr::from(0x0a00_0000 + i as u32));
        let t0 = Instant::now();
        for i in 0..UDP_BUCKETS_CAP + 100 {
            b.check(ip(i), t0);
        }
        assert!(b.map.len() <= UDP_BUCKETS_CAP, "{} sources", b.map.len());
        // Past the cap a new, still-active flood is silence...
        assert_eq!(b.check(ip(UDP_BUCKETS_CAP + 100), t0), UdpGate::Drop);
        // ...while the sources already in the table keep being served.
        assert_eq!(b.check(ip(0), t0), UdpGate::Admit);
        // After a second of idleness the sweep makes room again.
        let t1 = t0 + Duration::from_secs(1);
        assert_eq!(b.check(ip(UDP_BUCKETS_CAP + 101), t1), UdpGate::Admit);
        assert!(b.map.len() <= UDP_BUCKETS_CAP);
    }

    #[test]
    fn datagram_id_requires_magic_and_version() {
        let bytes = Frame::Ping.encode(42);
        assert_eq!(datagram_id(&bytes), Some(42));
        assert_eq!(datagram_id(&bytes[..HEADER_BYTES - 1]), None);
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(datagram_id(&bad), None);
        for other in [VERSION - 1, VERSION + 1] {
            let mut wrong = bytes.clone();
            wrong[4] = other;
            assert_eq!(datagram_id(&wrong), None);
        }
    }
}
