//! The datagram-plane client: one request frame per UDP datagram, one
//! reply datagram back, no connection and no per-peer server state.
//!
//! This is the transport the paper's deployment shape wants: millions
//! of thin peers each asking *rarely*, where a TCP handshake and a
//! held socket dwarf the work of answering. A [`UdpQuerier`] binds an
//! ephemeral socket, `connect`s it to the server's `--udp` address
//! (so the kernel filters foreign sources and surfaces ICMP errors),
//! and drives single-shot calls:
//!
//! * **Request-id matching** — every reply echoes its request's id;
//!   anything else on the socket (a late reply to an earlier attempt,
//!   a duplicate, garbage) is discarded and counted, never an error.
//! * **Timeout + capped exponential backoff** — datagrams are
//!   best-effort, so the querier resends on silence: the attempt
//!   timeout doubles from [`UdpRetry::timeout`] up to
//!   [`UdpRetry::max_timeout`], for at most [`UdpRetry::attempts`]
//!   sends. Every servable request frame is idempotent (queries
//!   change no server state), which is what makes blind resending
//!   safe — at worst the server answers twice and the second reply is
//!   discarded as stale.
//! * **Typed faults surface, they are not retried** — a server that
//!   answers `Overloaded` (the per-source shed) or `NotOnDatagram`
//!   said something; hammering it with retries would say nothing
//!   back.
//!
//! Only the single-shot subset travels here (`Ping`, `QueryBatch`,
//! `AtlasHead`); chunked atlas fetches, the shard listing
//! and the introspection pages keep the stream transport,
//! [`crate::client::NetClient`].

use crate::client::{alloc_id, NetError, TypedCalls};
use crate::wire::{decode_datagram, DatagramError, Frame, Limits, MAX_UDP_PAYLOAD};
use crate::wire::{WireFault, WirePath};
use inano_core::AtlasVersion;
use inano_model::Ipv4;
use inano_service::ShardId;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

/// Retry policy of a [`UdpQuerier`] call.
#[derive(Clone, Copy, Debug)]
pub struct UdpRetry {
    /// First attempt's reply window.
    pub timeout: Duration,
    /// Ceiling the per-attempt window doubles up to.
    pub max_timeout: Duration,
    /// Total send attempts (first send included) before the call
    /// fails with a timed-out [`NetError::Io`].
    pub attempts: u32,
}

impl Default for UdpRetry {
    fn default() -> UdpRetry {
        UdpRetry {
            timeout: Duration::from_millis(250),
            max_timeout: Duration::from_secs(2),
            attempts: 5,
        }
    }
}

/// A handle on a server's datagram plane. See the module docs.
pub struct UdpQuerier {
    socket: UdpSocket,
    peer: SocketAddr,
    limits: Limits,
    retry: UdpRetry,
    next_id: u64,
    buf: Vec<u8>,
    stale_replies: u64,
    resends: u64,
}

impl UdpQuerier {
    /// Bind an ephemeral local socket and point it at a server's
    /// `--udp` address. No packet is exchanged — a datagram "connect"
    /// only pins the peer — so this succeeding says nothing about the
    /// server being up; the first call's retries find that out.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<UdpQuerier> {
        let peer = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address to query"))?;
        let bind: SocketAddr = if peer.is_ipv4() {
            "0.0.0.0:0".parse().expect("literal addr")
        } else {
            "[::]:0".parse().expect("literal addr")
        };
        let socket = UdpSocket::bind(bind)?;
        socket.connect(peer)?;
        Ok(UdpQuerier {
            socket,
            peer,
            // A reply datagram can never exceed the UDP payload cap,
            // so the stream client's 32 MiB allowance is meaningless
            // here; the default frame limit already admits anything
            // that can arrive.
            limits: Limits::default(),
            retry: UdpRetry::default(),
            next_id: 1,
            buf: vec![0; MAX_UDP_PAYLOAD],
            stale_replies: 0,
            resends: 0,
        })
    }

    pub fn set_retry(&mut self, retry: UdpRetry) {
        self.retry = retry;
    }

    /// Replies discarded for not matching the in-flight request id:
    /// late answers to resent attempts, duplicates, undecodable
    /// datagrams. Healthy retry traffic, surfaced for tests and
    /// curiosity.
    pub fn stale_replies(&self) -> u64 {
        self.stale_replies
    }

    /// Datagrams re-sent after a silent reply window.
    pub fn resends(&self) -> u64 {
        self.resends
    }

    /// One single-shot exchange: send `frame`, collect the
    /// id-matching reply, resending on silence per the retry policy.
    /// Typed error replies surface as [`NetError::Remote`].
    pub fn call(&mut self, frame: &Frame) -> Result<Frame, NetError> {
        let id = alloc_id(&mut self.next_id);
        let request = frame.encode(id);
        if request.len() > MAX_UDP_PAYLOAD {
            return Err(NetError::Protocol(format!(
                "request of {} bytes cannot ride one datagram",
                request.len()
            )));
        }
        let mut window = self.retry.timeout;
        for attempt in 0..self.retry.attempts.max(1) {
            if attempt > 0 {
                self.resends += 1;
            }
            // A send can fail fast with the kernel's note of an
            // earlier ICMP port-unreachable; that is this attempt's
            // answer, wait out the window and try again.
            let sent = self.socket.send(&request).is_ok();
            if !sent {
                std::thread::sleep(window.min(Duration::from_millis(50)));
                window = (window * 2).min(self.retry.max_timeout.max(self.retry.timeout));
                continue;
            }
            let deadline = Instant::now() + window;
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                self.socket.set_read_timeout(Some(remaining))?;
                let n = match self.socket.recv(&mut self.buf) {
                    Ok(n) => n,
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                        // ICMP says nobody is listening right now
                        // (mid-restart, say). Sit out a slice of the
                        // window rather than spinning on the error.
                        std::thread::sleep(remaining.min(Duration::from_millis(50)));
                        continue;
                    }
                    Err(e) => return Err(NetError::Io(e)),
                };
                match decode_datagram(&self.buf[..n], &self.limits) {
                    Ok((got_id, reply)) if got_id == id => {
                        if let Frame::Error { fault } = reply {
                            return Err(NetError::Remote(fault));
                        }
                        return Ok(reply);
                    }
                    // A reply to some other id: late or duplicated by
                    // an earlier attempt. Idempotency makes discarding
                    // the only correct move.
                    Ok(_) | Err(DatagramError::Drop(_) | DatagramError::Fault { .. }) => {
                        self.stale_replies += 1;
                    }
                }
            }
            window = (window * 2).min(self.retry.max_timeout.max(self.retry.timeout));
        }
        Err(NetError::Io(io::Error::new(
            io::ErrorKind::TimedOut,
            format!(
                "no reply from {} after {} datagram attempts",
                self.peer,
                self.retry.attempts.max(1)
            ),
        )))
    }

    pub fn ping(&mut self) -> Result<(), NetError> {
        TypedCalls::ping(self)
    }

    /// Predict every pair on the default shard in one datagram
    /// round trip. The *reply* must fit one datagram too — keep
    /// batches to a few hundred pairs and the server's typed
    /// `FrameTooLarge` fault will tell you if a topology's paths
    /// outgrow that.
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

    /// The newest full-atlas version shard 0 serves, with the chain of
    /// deltas leading to it — the datagram way to notice "my atlas is
    /// stale" before opening a stream to fetch.
    /// A chain of [`inano_service::DELTA_LOG_CAP`] links fits one
    /// datagram.
    pub fn atlas_head(&mut self) -> Result<AtlasVersion, NetError> {
        self.atlas_head_on(ShardId::DEFAULT)
    }

    /// The newest full-atlas version one named shard serves.
    pub fn atlas_head_on(&mut self, shard: ShardId) -> Result<AtlasVersion, NetError> {
        TypedCalls::atlas_head_on(self, shard)
    }
}

impl TypedCalls for UdpQuerier {
    fn exchange(&mut self, frame: &Frame) -> Result<Frame, NetError> {
        self.call(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::TRACE_FLAG;

    #[test]
    fn id_generation_wraps_before_the_trace_bit() {
        // Pure id-allocator check; the wire behaviour is covered by
        // the integration tests.
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let peer = socket.local_addr().expect("addr");
        let mut q = UdpQuerier::connect(peer).expect("connect");
        q.next_id = TRACE_FLAG;
        assert_eq!(alloc_id(&mut q.next_id), 1);
        assert_eq!(alloc_id(&mut q.next_id), 2);
        assert_eq!(q.next_id & TRACE_FLAG, 0);
    }

    #[test]
    fn oversized_request_is_refused_locally() {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let peer = socket.local_addr().expect("addr");
        let mut q = UdpQuerier::connect(peer).expect("connect");
        // 16k pairs × 8 bytes ≈ 128 KiB: over any datagram.
        let pairs = vec![(Ipv4(1), Ipv4(2)); 16_384];
        match q.query_batch(&pairs) {
            Err(NetError::Protocol(msg)) => assert!(msg.contains("datagram")),
            other => panic!("want a local protocol refusal, got {other:?}"),
        }
    }
}
