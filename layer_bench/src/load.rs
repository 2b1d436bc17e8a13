//! The load generators: pipelined batches over TCP and a direct library
//! caller, both closed loops, and an open loop over UDP that sends on a
//! fixed schedule whatever comes back. Each runs continuously from the
//! run's origin through warm-up and the measured windows and books every
//! request into the window it completed in.

use crate::inputs::{IndexStream, Pair, Pool};
use crate::spans::{SpanLog, ROOT};
use inano_core::PathPredictor;
use inano_model::{ErrorCode, ModelError};
use inano_net::wire::{decode_datagram, read_frame, DatagramError};
use inano_net::{Frame, Limits, ShardId, MAX_UDP_PAYLOAD, TRACE_FLAG};
use inano_obs::TraceTimings;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A datagram still unanswered this long after the windows close is lost.
pub const LOSS_TIMEOUT: Duration = Duration::from_secs(1);

/// Which window an instant falls in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Caches fill, threads start: nothing is booked.
    Warm,
    /// Traced runs only: an untraced stretch ahead of the traced one,
    /// the base of `load.trace_overhead_ratio`.
    Reference,
    /// The measured window (spans recorded when the run is traced).
    Main,
    Over,
}

/// The fixed wall-clock layout of one run.
#[derive(Clone, Copy, Debug)]
pub struct Windows {
    pub t0: Instant,
    pub warm: Duration,
    pub reference: Duration,
    pub main: Duration,
    pub traced: bool,
}

impl Windows {
    /// `seconds` of measurement after `warm`. A traced run spends the
    /// first third of it untraced, as the reference.
    pub fn new(t0: Instant, warm: Duration, seconds: Duration, traced: bool) -> Windows {
        let reference = if traced { seconds / 3 } else { Duration::ZERO };
        Windows {
            t0,
            warm,
            reference,
            main: seconds - reference,
            traced,
        }
    }

    pub fn ref_end(&self) -> Duration {
        self.warm + self.reference
    }

    pub fn end(&self) -> Duration {
        self.warm + self.reference + self.main
    }

    pub fn phase_at(&self, since_t0: Duration) -> Phase {
        if since_t0 < self.warm {
            Phase::Warm
        } else if since_t0 < self.ref_end() {
            Phase::Reference
        } else if since_t0 < self.end() {
            Phase::Main
        } else {
            Phase::Over
        }
    }

    /// Offset of `since_t0` into the window it falls in.
    fn offset_in_window(&self, since_t0: Duration) -> Duration {
        match self.phase_at(since_t0) {
            Phase::Warm => since_t0,
            Phase::Reference => since_t0 - self.warm,
            Phase::Main | Phase::Over => since_t0 - self.ref_end(),
        }
    }

    /// Is a request starting at `since_t0` traced?
    pub fn traces(&self, since_t0: Duration) -> bool {
        self.traced && self.phase_at(since_t0) == Phase::Main
    }
}

/// Failed pairs by cause — the numerator of `fail_ratio`, split.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ErrSplit {
    /// Typed `NoPath`/`UnroutableAddress` on a pre-validated pair.
    pub nopath: u64,
    /// Typed `Overloaded` refusals (in-flight cap, memory budget,
    /// datagram token bucket).
    pub overloaded: u64,
    /// Transport failures and protocol violations.
    pub io: u64,
    /// Datagrams never answered.
    pub lost: u64,
    /// Answers that differ from the oracle (or come in the wrong
    /// number).
    pub mismatch: u64,
    /// Any other typed fault.
    pub other: u64,
}

impl ErrSplit {
    pub fn total(&self) -> u64 {
        self.nopath + self.overloaded + self.io + self.lost + self.mismatch + self.other
    }

    pub fn merge(&mut self, o: &ErrSplit) {
        self.nopath += o.nopath;
        self.overloaded += o.overloaded;
        self.io += o.io;
        self.lost += o.lost;
        self.mismatch += o.mismatch;
        self.other += o.other;
    }

    pub fn add_code(&mut self, code: ErrorCode, pairs: u64) {
        match code {
            ErrorCode::NoPath | ErrorCode::UnroutableAddress => self.nopath += pairs,
            ErrorCode::Overloaded => self.overloaded += pairs,
            _ => self.other += pairs,
        }
    }

    pub fn add_model(&mut self, e: &ModelError) {
        match e {
            ModelError::NoPath(_) | ModelError::UnroutableAddress(_) => self.nopath += 1,
            _ => self.other += 1,
        }
    }
}

/// One answered request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answered {
    /// When it completed, ns into its window. Places it in a slice.
    pub at_ns: u64,
    /// Caller-observed latency, ns.
    pub lat_ns: u64,
    /// Pairs answered correctly.
    pub pairs_ok: u32,
}

/// What one window saw.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub answered: Vec<Answered>,
    /// Requests booked into the window.
    pub requests: u64,
    pub pairs_attempted: u64,
    pub pairs_ok: u64,
    pub errs: ErrSplit,
    /// Open loop only: how long after it was due each request of the
    /// window left the generator, ns.
    pub late_ns: Vec<u64>,
}

impl Tally {
    pub fn merge(&mut self, o: Tally) {
        self.answered.extend(o.answered);
        self.late_ns.extend(o.late_ns);
        self.requests += o.requests;
        self.pairs_attempted += o.pairs_attempted;
        self.pairs_ok += o.pairs_ok;
        self.errs.merge(&o.errs);
    }

    /// Every answered request's latency, ns.
    pub fn latencies(&self) -> Vec<u64> {
        self.answered.iter().map(|a| a.lat_ns).collect()
    }

    /// Requests of the window that missed `limit`: answered later than
    /// it, answered with fewer than `pairs` correct answers, or never
    /// answered.
    pub fn slo_misses(&self, limit: Duration, pairs: usize) -> u64 {
        let met = self
            .answered
            .iter()
            .filter(|a| a.lat_ns <= limit.as_nanos() as u64 && a.pairs_ok as usize == pairs)
            .count();
        self.requests - met as u64
    }

    /// Book an answered request of `pairs` pairs, `failed` of which
    /// the caller has already classified into `errs`.
    fn book_answer(&mut self, at: Duration, latency: Duration, pairs: u64, failed: u64) {
        let ok = pairs.saturating_sub(failed);
        self.requests += 1;
        self.pairs_attempted += pairs;
        self.pairs_ok += ok;
        self.answered.push(Answered {
            at_ns: at.as_nanos() as u64,
            lat_ns: latency.as_nanos() as u64,
            pairs_ok: ok as u32,
        });
    }
}

/// Classify one reply's failures, pair by pair; returns how many pairs
/// failed.
fn reply_failures(reply: &Frame, pairs: u64, errs: &mut ErrSplit) -> u64 {
    let before = errs.total();
    match reply {
        Frame::PathBatch { results } => {
            for fault in results.iter().filter_map(|r| r.as_ref().err()) {
                errs.add_code(fault.code, 1);
            }
            // A reply of the wrong length answers the wrong question.
            errs.mismatch += pairs.abs_diff(results.len() as u64);
        }
        Frame::Error { fault } => errs.add_code(fault.code, pairs),
        _ => errs.io += pairs,
    }
    (errs.total() - before).min(pairs)
}

#[derive(Clone, Debug, Default)]
pub struct PhaseTallies {
    pub reference: Tally,
    pub main: Tally,
}

impl PhaseTallies {
    fn of(&mut self, phase: Phase) -> Option<&mut Tally> {
        match phase {
            Phase::Reference => Some(&mut self.reference),
            Phase::Main => Some(&mut self.main),
            Phase::Warm | Phase::Over => None,
        }
    }

    pub fn merge(&mut self, o: PhaseTallies) {
        self.reference.merge(o.reference);
        self.main.merge(o.main);
    }
}

fn sample_batch(pool: &Pool, stream: &mut IndexStream, batch: usize) -> Vec<Pair> {
    (0..batch)
        .map(|_| pool.pairs[stream.next_index() as usize])
        .collect()
}

/// The client's reply limits: as `NetClient::connect`, a full batch of
/// whole paths outgrows the request-side frame bound.
pub fn reply_limits() -> Limits {
    Limits {
        max_frame_bytes: 32 << 20,
        ..Limits::default()
    }
}

// ---- closed loop over TCP -------------------------------------------

pub struct StreamLoad<'a> {
    pub addr: SocketAddr,
    pub pool: &'a Pool,
    pub batch: usize,
    pub depth: usize,
    pub seed: u64,
    /// Connection index: seeds the index stream and namespaces span
    /// request ids.
    pub conn: usize,
}

/// Read the reply to `wire_id` and, for a traced request that did not
/// fail, the timing trailer that follows it. The instant returned is
/// when the first bytes of the reply were readable: the wait ends
/// there, and the rest of the read counts as decode.
fn read_reply(
    reader: &mut BufReader<TcpStream>,
    limits: &Limits,
    wire_id: u64,
) -> Result<(Instant, Frame, Option<TraceTimings>), String> {
    if reader.fill_buf().map_err(|e| e.to_string())?.is_empty() {
        return Err("server closed".into());
    }
    let wait_end = Instant::now();
    let mut next = |what: &str| match read_frame(reader, limits) {
        Ok(Some((id, frame))) if id == wire_id => Ok(frame),
        Ok(Some((id, _))) => Err(format!("{what} id {id} for request {wire_id}")),
        Ok(None) => Err("server closed mid-conversation".to_string()),
        Err(e) => Err(format!("unreadable {what}: {e:?}")),
    };
    let reply = next("reply")?;
    let traced = wire_id & TRACE_FLAG != 0 && !matches!(reply, Frame::Error { .. });
    let timings = match traced.then(|| next("trailer")).transpose()? {
        Some(Frame::TraceReply { timings }) => Some(timings),
        Some(other) => return Err(format!("want trailer, got {:#04x}", other.frame_type())),
        None => None,
    };
    Ok((wait_end, reply, timings))
}

struct InFlight {
    wire_id: u64,
    pairs: u64,
    encode_start: Instant,
    encode_end: Instant,
    send_end: Instant,
}

/// Drive one connection: keep `depth` batches in flight until the
/// windows are over, submitting the next on every receive. Built on
/// `Frame::encode` + `read_frame` rather than `NetClient` so a request
/// can carry the trace bit while pipelined and so encode, send, wait
/// and decode can be timed apart.
pub fn drive_stream(
    cfg: &StreamLoad<'_>,
    win: &Windows,
    mut log: Option<&mut SpanLog>,
) -> PhaseTallies {
    let mut out = PhaseTallies::default();
    let stream = TcpStream::connect(cfg.addr).expect("connect to loopback server");
    stream.set_nodelay(true).expect("set nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let limits = reply_limits();
    let mut indices = IndexStream::new(cfg.seed, cfg.conn, cfg.pool.pairs.len());
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(cfg.depth);
    let mut next_id = 1u64;
    let span_ns = (cfg.conn as u64) << 48;

    let io_failed =
        |out: &mut PhaseTallies, in_flight: &VecDeque<InFlight>, e: &dyn std::fmt::Display| {
            eprintln!("layer_bench: stream connection {} failed: {e}", cfg.conn);
            let lost: u64 = in_flight.iter().map(|r| r.pairs).sum();
            out.main.requests += in_flight.len() as u64;
            out.main.pairs_attempted += lost;
            out.main.errs.io += lost;
        };

    loop {
        while in_flight.len() < cfg.depth && win.t0.elapsed() < win.end() {
            let encode_start = Instant::now();
            let traced = win.traces(encode_start.duration_since(win.t0));
            let wire_id = if traced {
                next_id | TRACE_FLAG
            } else {
                next_id
            };
            next_id += 1;
            let frame = Frame::QueryBatch {
                shard: ShardId::DEFAULT,
                pairs: sample_batch(cfg.pool, &mut indices, cfg.batch),
            };
            let bytes = frame.encode(wire_id);
            let encode_end = Instant::now();
            if let Err(e) = writer.write_all(&bytes) {
                io_failed(&mut out, &in_flight, &e);
                return out;
            }
            in_flight.push_back(InFlight {
                wire_id,
                pairs: cfg.batch as u64,
                encode_start,
                encode_end,
                send_end: Instant::now(),
            });
        }
        let Some(req) = in_flight.pop_front() else {
            return out;
        };
        let (wait_end, reply, timings) = match read_reply(&mut reader, &limits, req.wire_id) {
            Ok(parts) => parts,
            Err(e) => {
                in_flight.push_front(req);
                io_failed(&mut out, &in_flight, &e);
                return out;
            }
        };
        let done = Instant::now();
        let since = done.duration_since(win.t0);
        if let Some(tally) = out.of(win.phase_at(since)) {
            let failed = reply_failures(&reply, req.pairs, &mut tally.errs);
            tally.book_answer(
                win.offset_in_window(since),
                done.duration_since(req.encode_start),
                req.pairs,
                failed,
            );
        }
        if let (Some(log), true) = (log.as_deref_mut(), req.wire_id & TRACE_FLAG != 0) {
            let id = span_ns | (req.wire_id & !TRACE_FLAG);
            log.record(ROOT, None, id, req.encode_start, done);
            log.record(
                "client.encode",
                Some(ROOT),
                id,
                req.encode_start,
                req.encode_end,
            );
            log.record("client.send", Some(ROOT), id, req.encode_end, req.send_end);
            log.record("client.wait", Some(ROOT), id, req.send_end, wait_end);
            log.record("client.decode", Some(ROOT), id, wait_end, done);
            if let Some(t) = timings {
                // The server reports durations, not instants: lay its
                // four stages back to back, ending where the wait ended.
                let stages = [
                    ("srv.decode", t.decode_us),
                    ("srv.queue", t.queue_us),
                    ("srv.engine", t.engine_us),
                    ("srv.encode", t.encode_us),
                ];
                let mut at = log.ns(wait_end).saturating_sub(t.total_us() * 1_000);
                for (name, us) in stages {
                    let end = at + us as u64 * 1_000;
                    log.record_ns(name, Some("client.wait"), id, at, end);
                    at = end;
                }
            }
        }
    }
}

// ---- open loop over UDP ----------------------------------------------

/// The open loop's send schedule: `per_tick` datagrams fall due together
/// at every whole `tick` since the run's origin, whatever became of the
/// earlier ones.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub tick: Duration,
    pub per_tick: u64,
    /// Most datagrams sent in one tick while working off a backlog: a
    /// generator that fell behind catches up at this rate, not in one
    /// burst no population of independent callers would produce.
    pub max_per_tick: u64,
    /// Most datagrams unanswered at once. What is due beyond it waits in
    /// the generator, still on the clock, instead of overflowing a
    /// socket buffer while the server is stalled — the latency is the
    /// same, the loss is not the generator's making.
    pub max_in_flight: u64,
}

impl Schedule {
    /// When datagram `seq` (0-based, in send order) is due, since the
    /// origin. Latency is counted from here, not from the send: a
    /// sender that stalls, or holds a backlog, makes the requests that
    /// were due wait, and they are charged that wait.
    pub fn due(&self, seq: u64) -> Duration {
        self.tick * (seq / self.per_tick) as u32
    }

    /// How many datagrams have fallen due by `since_origin` (those of
    /// tick 0 at once).
    pub fn due_by(&self, since_origin: Duration) -> u64 {
        ((since_origin.as_nanos() / self.tick.as_nanos()) as u64 + 1) * self.per_tick
    }

    /// Datagrams due strictly before `end`.
    pub fn total(&self, end: Duration) -> u64 {
        end.as_nanos().div_ceil(self.tick.as_nanos()) as u64 * self.per_tick
    }

    /// Caller-observed latency of datagram `seq` answered at `done`.
    pub fn latency(&self, seq: u64, done: Duration) -> Duration {
        done.saturating_sub(self.due(seq))
    }

    /// How many datagrams the sender may emit now: what is due and not
    /// yet sent (`sent` so far, the oldest unretired being `oldest`),
    /// within this tick's `budget` and the in-flight cap.
    pub fn sendable(&self, since_origin: Duration, sent: u64, oldest: u64, budget: u64) -> u64 {
        let due = self.due_by(since_origin).saturating_sub(sent);
        let room = self.max_in_flight.saturating_sub(sent - oldest);
        due.min(room).min(budget)
    }
}

pub struct DgramLoad<'a> {
    pub addr: SocketAddr,
    pub pool: &'a Pool,
    pub batch: usize,
    pub schedule: Schedule,
    pub seed: u64,
}

/// `sent[seq]` until the send returns.
const UNSENT: u64 = 0;
/// `sent[seq]` when the socket refused the datagram.
const SEND_FAILED: u64 = u64::MAX;

/// What the two halves of the open loop share, indexed by `seq`.
struct Flight {
    /// When each send returned, ns since the origin.
    sent: Vec<AtomicU64>,
    answered: Vec<AtomicBool>,
}

/// The sender half: every tick, emit what is due (see
/// [`Schedule::sendable`]) and sleep until the next; never wait for a
/// reply. Gives up [`LOSS_TIMEOUT`] after the windows close.
fn send_on_schedule(
    cfg: &DgramLoad<'_>,
    win: &Windows,
    socket: &UdpSocket,
    flight: &Flight,
    mut log: Option<&mut SpanLog>,
) {
    let sched = cfg.schedule;
    let total = flight.sent.len() as u64;
    let give_up = win.end() + LOSS_TIMEOUT;
    let mut indices = IndexStream::new(cfg.seed, 0, cfg.pool.pairs.len());
    // `oldest..seq` holds every datagram that may still be unanswered.
    let (mut seq, mut oldest) = (0u64, 0u64);
    loop {
        let now = win.t0.elapsed();
        if seq == total || now >= give_up {
            return;
        }
        let now_ns = now.as_nanos() as u64;
        while oldest < seq {
            let stamp = flight.sent[oldest as usize].load(Ordering::Relaxed);
            let written_off = stamp.saturating_add(LOSS_TIMEOUT.as_nanos() as u64) < now_ns;
            if flight.answered[oldest as usize].load(Ordering::Acquire) || written_off {
                oldest += 1;
            } else {
                break;
            }
        }
        let owed = sched.sendable(now, seq, oldest, sched.max_per_tick);
        for _ in 0..owed.min(total - seq) {
            let encode_start = Instant::now();
            let frame = Frame::QueryBatch {
                shard: ShardId::DEFAULT,
                pairs: sample_batch(cfg.pool, &mut indices, cfg.batch),
            };
            let bytes = frame.encode(seq + 1);
            let encode_end = Instant::now();
            let stamp = match socket.send(&bytes) {
                Ok(_) => (win.t0.elapsed().as_nanos() as u64).max(1),
                Err(_) => SEND_FAILED,
            };
            flight.sent[seq as usize].store(stamp, Ordering::Release);
            if let (Some(log), true) = (log.as_deref_mut(), win.traces(sched.due(seq))) {
                let send_end = Instant::now();
                log.record(
                    "client.encode",
                    Some(ROOT),
                    seq + 1,
                    encode_start,
                    encode_end,
                );
                log.record("client.send", Some(ROOT), seq + 1, encode_end, send_end);
            }
            seq += 1;
        }
        let next_tick = sched.tick * ((now.as_nanos() / sched.tick.as_nanos()) as u32 + 1);
        std::thread::sleep(next_tick.saturating_sub(win.t0.elapsed()));
    }
}

/// The open loop: one thread sends on the schedule, this one receives
/// and matches replies by id, in whatever order the server's workers
/// finish them. Raw frames (`Frame::encode` / `decode_datagram`), no
/// resends: a datagram unanswered after [`LOSS_TIMEOUT`] is lost. An
/// answered request is booked into the window it completed in, a lost
/// one into the window it was due in.
pub fn drive_dgram(
    cfg: &DgramLoad<'_>,
    win: &Windows,
    mut log: Option<&mut SpanLog>,
) -> PhaseTallies {
    let mut out = PhaseTallies::default();
    let sched = cfg.schedule;
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind loopback datagram socket");
    socket.connect(cfg.addr).expect("pin datagram peer");
    // Short, so the loop notices the deadline while nothing arrives.
    socket
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("set read timeout");
    let total = sched.total(win.end());
    let flight = Flight {
        sent: (0..total).map(|_| AtomicU64::new(UNSENT)).collect(),
        answered: (0..total).map(|_| AtomicBool::new(false)).collect(),
    };
    let mut unanswered = total;
    let pairs = cfg.batch as u64;
    let limits = Limits::default();
    let mut buf = vec![0u8; MAX_UDP_PAYLOAD];
    // The sender gives up one timeout after the windows; its last
    // datagram gets one more.
    let deadline = win.end() + 2 * LOSS_TIMEOUT;
    let mut sender_log = log.as_ref().map(|_| SpanLog::new(win.t0));

    std::thread::scope(|scope| {
        let sender =
            scope.spawn(|| send_on_schedule(cfg, win, &socket, &flight, sender_log.as_mut()));
        while unanswered > 0 && win.t0.elapsed() < deadline {
            let n = match socket.recv(&mut buf) {
                Ok(n) => n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted
                            | io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                    ) =>
                {
                    continue
                }
                Err(e) => {
                    eprintln!("layer_bench: datagram receive failed: {e}");
                    break;
                }
            };
            let received = Instant::now();
            let (id, reply) = match decode_datagram(&buf[..n], &limits) {
                Ok(ok) => ok,
                // A fault the header attributes to a request still
                // answers it; anything else is noise.
                Err(DatagramError::Fault { request_id, fault }) => {
                    (request_id, Frame::Error { fault })
                }
                Err(DatagramError::Drop(_)) => continue,
            };
            let seq = id.wrapping_sub(1);
            match flight.answered.get(seq as usize) {
                Some(seen) if !seen.swap(true, Ordering::AcqRel) => {}
                // Not ours, or a duplicate.
                _ => continue,
            }
            unanswered -= 1;
            let done = Instant::now();
            let done_since = done.duration_since(win.t0);
            if let Some(tally) = out.of(win.phase_at(done_since)) {
                let failed = reply_failures(&reply, pairs, &mut tally.errs);
                tally.book_answer(
                    win.offset_in_window(done_since),
                    sched.latency(seq, done_since),
                    pairs,
                    failed,
                );
            }
            if let (Some(log), true) = (log.as_deref_mut(), win.traces(sched.due(seq))) {
                let due_ns = sched.due(seq).as_nanos() as u64;
                let sent_ns = flight.sent[seq as usize].load(Ordering::Acquire);
                let (received_ns, done_ns) = (log.ns(received), log.ns(done));
                log.record_ns(ROOT, None, id, due_ns, done_ns);
                log.record_ns("client.wait", Some(ROOT), id, sent_ns, received_ns);
                log.record_ns("client.decode", Some(ROOT), id, received_ns, done_ns);
            }
        }
        sender.join().expect("datagram sender");
    });
    if let (Some(log), Some(sender_log)) = (log, sender_log) {
        log.absorb(sender_log);
    }

    // How late each request left, and what became of the unanswered.
    for seq in 0..total {
        let due = sched.due(seq);
        let Some(tally) = out.of(win.phase_at(due)) else {
            continue;
        };
        let stamp = flight.sent[seq as usize].load(Ordering::Acquire);
        if stamp != UNSENT && stamp != SEND_FAILED {
            tally
                .late_ns
                .push(stamp.saturating_sub(due.as_nanos() as u64));
        }
        if !flight.answered[seq as usize].load(Ordering::Acquire) {
            tally.requests += 1;
            tally.pairs_attempted += pairs;
            match stamp {
                SEND_FAILED => tally.errs.io += pairs,
                _ => tally.errs.lost += pairs,
            }
        }
    }
    out
}

// ---- the library, called directly -------------------------------------

/// One caller thread driving `PathPredictor::query_batch`.
pub fn drive_lib(
    predictor: &PathPredictor,
    pool: &Pool,
    batch: usize,
    seed: u64,
    win: &Windows,
    mut log: Option<&mut SpanLog>,
) -> PhaseTallies {
    let mut out = PhaseTallies::default();
    let mut indices = IndexStream::new(seed, 0, pool.pairs.len());
    let mut id = 0u64;
    loop {
        let start = Instant::now();
        let since = start.duration_since(win.t0);
        if since >= win.end() {
            return out;
        }
        id += 1;
        let pairs = sample_batch(pool, &mut indices, batch);
        let call_start = Instant::now();
        let results = predictor.query_batch(&pairs);
        let done = Instant::now();
        let done_since = done.duration_since(win.t0);
        if let Some(tally) = out.of(win.phase_at(done_since)) {
            let before = tally.errs.total();
            for e in results.iter().filter_map(|r| r.as_ref().err()) {
                tally.errs.add_model(e);
            }
            tally.errs.mismatch += (batch as u64).abs_diff(results.len() as u64);
            let failed = (tally.errs.total() - before).min(batch as u64);
            tally.book_answer(
                win.offset_in_window(done_since),
                done.duration_since(start),
                batch as u64,
                failed,
            );
        }
        if let (Some(log), true) = (log.as_deref_mut(), win.traces(since)) {
            log.record(ROOT, None, id, start, done);
            log.record("core.query_batch", Some(ROOT), id, call_start, done);
        }
        std::hint::black_box(results);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_net::{WireFault, WirePath};

    fn windows(traced: bool) -> Windows {
        Windows::new(
            Instant::now(),
            Duration::from_secs(3),
            Duration::from_secs(15),
            traced,
        )
    }

    #[test]
    fn untraced_windows_have_no_reference_phase() {
        let w = windows(false);
        assert_eq!(w.phase_at(Duration::from_millis(2_999)), Phase::Warm);
        assert_eq!(w.phase_at(Duration::from_secs(3)), Phase::Main);
        assert_eq!(w.phase_at(Duration::from_millis(17_999)), Phase::Main);
        assert_eq!(w.phase_at(Duration::from_secs(18)), Phase::Over);
        assert!(!w.traces(Duration::from_secs(10)));
    }

    #[test]
    fn traced_windows_split_a_third_off_as_reference() {
        let w = windows(true);
        assert_eq!(w.phase_at(Duration::from_secs(4)), Phase::Reference);
        assert_eq!(w.phase_at(Duration::from_secs(8)), Phase::Main);
        assert_eq!(w.end(), Duration::from_secs(18));
        assert!(!w.traces(Duration::from_secs(4)), "reference is untraced");
        assert!(w.traces(Duration::from_secs(8)));
    }

    #[test]
    fn a_stalled_sender_is_charged_to_the_requests_that_were_due() {
        let sched = Schedule {
            tick: Duration::from_millis(1),
            per_tick: 8,
            max_per_tick: 16,
            max_in_flight: 64,
        };
        let ms = Duration::from_millis;
        assert_eq!(sched.due(0), ms(0));
        assert_eq!(sched.due(7), ms(0));
        assert_eq!(sched.due(8), ms(1));
        assert_eq!(sched.due_by(ms(0)), 8, "tick 0 is due at once");
        assert_eq!(sched.due_by(Duration::from_micros(999)), 8);
        assert_eq!(sched.due_by(ms(1)), 16);
        assert_eq!(sched.total(ms(18_000)), 144_000);
        assert_eq!(sched.total(Duration::from_micros(2_500)), 24);

        // The sender sleeps through ticks 10..=59 and wakes at 60 ms:
        // everything due by then goes out at once, and a reply that
        // comes back 100 µs later closes a request that has waited
        // since its own tick, not since the send.
        let woke = ms(60);
        assert_eq!(sched.due_by(woke), 61 * 8);
        let done = woke + Duration::from_micros(100);
        let first_stalled = 10 * 8;
        assert_eq!(
            sched.latency(first_stalled, done),
            Duration::from_micros(50_100)
        );
        assert_eq!(
            sched.latency(60 * 8, done),
            Duration::from_micros(100),
            "the tick that was due on waking waited only for the reply"
        );
        // On waking, 50 ticks are owed. They go out at the catch-up
        // rate, and no further than the in-flight cap allows.
        let sent = 10 * 8;
        assert_eq!(sched.sendable(woke, sent, sent, sched.max_per_tick), 16);
        assert_eq!(sched.sendable(woke, sent + 16, sent, 16), 16);
        assert_eq!(sched.sendable(woke, sent + 60, sent, 16), 4, "64 in flight");
        assert_eq!(sched.sendable(woke, sent + 64, sent, 16), 0);
        assert_eq!(sched.sendable(woke, sent + 64, sent + 64, 16), 16);
        // On schedule, a tick sends exactly what it owes.
        assert_eq!(sched.sendable(ms(61), 61 * 8, 61 * 8, 16), 8);
        assert_eq!(sched.sendable(ms(61), 62 * 8, 62 * 8, 16), 0);

        // A reply cannot precede its request's due time by the clock;
        // if rounding says it did, the latency is zero, not negative.
        assert_eq!(sched.latency(8, Duration::from_micros(999)), Duration::ZERO);
    }

    #[test]
    fn late_wrong_and_missing_answers_all_miss_the_limit() {
        let mut t = Tally::default();
        let limit = Duration::from_millis(5);
        t.book_answer(Duration::ZERO, Duration::from_millis(5), 8, 0);
        t.book_answer(Duration::ZERO, Duration::from_micros(5_001), 8, 0);
        t.book_answer(Duration::ZERO, Duration::from_millis(1), 8, 1);
        t.requests += 2; // never answered
        assert_eq!(t.slo_misses(limit, 8), 4);
    }

    #[test]
    fn replies_are_booked_pair_by_pair() {
        let mut errs = ErrSplit::default();
        let path = WirePath {
            fwd_clusters: vec![1],
            rev_clusters: vec![1],
            fwd_as: vec![1],
            rev_as: vec![1],
            rtt_ms: 1.0,
            loss: 0.0,
        };
        let reply = Frame::PathBatch {
            results: vec![
                Ok(path.clone()),
                Err(WireFault::new(ErrorCode::NoPath, "x")),
                Ok(path),
            ],
        };
        assert_eq!(reply_failures(&reply, 4, &mut errs), 2);
        assert_eq!(errs.nopath, 1);
        assert_eq!(errs.mismatch, 1, "three results for four pairs");
        let refused = Frame::Error {
            fault: WireFault::new(ErrorCode::Overloaded, "busy"),
        };
        assert_eq!(reply_failures(&refused, 512, &mut errs), 512);
        assert_eq!(errs.overloaded, 512);
        assert_eq!(errs.total(), 514);

        let mut t = Tally::default();
        t.book_answer(Duration::from_secs(1), Duration::from_millis(2), 4, 2);
        assert_eq!((t.requests, t.pairs_attempted, t.pairs_ok), (1, 4, 2));
        assert_eq!(
            t.answered,
            vec![Answered {
                at_ns: 1_000_000_000,
                lat_ns: 2_000_000,
                pairs_ok: 2
            }]
        );
    }
}
