//! Request-scoped stage timing.
//!
//! A [`TraceCtx`] rides alongside one request from the moment its
//! frame is decoded to the moment its reply is encoded, splitting the
//! wall time into the stages a server operator can actually act on:
//! decode (wire parsing), queue (waiting for a responder slot), engine
//! (shard dispatch + prediction), encode (reply serialization + write).
//! [`TraceCtx::finish`] seals it into a [`TraceTimings`] — the value
//! the wire layer ships back to a tracing client.

use std::time::Instant;

/// Accumulates one request's stage boundaries. Construct with
/// [`TraceCtx::begin`] right after decode, mark the stages as they
/// pass, and [`TraceCtx::finish`] when the reply bytes are out.
#[derive(Debug)]
pub struct TraceCtx {
    mark: Instant,
    decode_us: u32,
    queue_us: u32,
    engine_us: u32,
}

/// One request's stage breakdown, microseconds per stage. `u32` per
/// stage bounds a stage at ~71 minutes, far beyond any timeout in the
/// stack, and keeps the wire trailer fixed-size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceTimings {
    pub decode_us: u32,
    pub queue_us: u32,
    pub engine_us: u32,
    pub encode_us: u32,
}

impl TraceTimings {
    /// Total time across all recorded stages.
    pub fn total_us(&self) -> u64 {
        self.decode_us as u64 + self.queue_us as u64 + self.engine_us as u64 + self.encode_us as u64
    }
}

fn elapsed_us(since: Instant) -> u32 {
    since.elapsed().as_micros().min(u32::MAX as u128) as u32
}

impl TraceCtx {
    /// Start the clock at the decode → queue boundary; `decode_us` is
    /// how long the wire read + parse took (measured by the reader).
    pub fn begin(decode_us: u32) -> TraceCtx {
        TraceCtx {
            mark: Instant::now(),
            decode_us,
            queue_us: 0,
            engine_us: 0,
        }
    }

    /// The request left the queue: everything since `begin` was wait.
    pub fn dequeued(&mut self) {
        self.queue_us = elapsed_us(self.mark);
        self.mark = Instant::now();
    }

    /// The engine produced the reply frame.
    pub fn served(&mut self) {
        self.engine_us = elapsed_us(self.mark);
        self.mark = Instant::now();
    }

    /// The reply bytes are written: everything since `served` was
    /// encode + write. Consumes the context into its timings.
    pub fn finish(self) -> TraceTimings {
        TraceTimings {
            decode_us: self.decode_us,
            queue_us: self.queue_us,
            engine_us: self.engine_us,
            encode_us: elapsed_us(self.mark),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn stages_split_the_wall_clock() {
        let mut t = TraceCtx::begin(7);
        thread::sleep(Duration::from_millis(2));
        t.dequeued();
        thread::sleep(Duration::from_millis(2));
        t.served();
        let timings = t.finish();
        assert_eq!(timings.decode_us, 7);
        assert!(timings.queue_us >= 1_000, "queue {}", timings.queue_us);
        assert!(timings.engine_us >= 1_000, "engine {}", timings.engine_us);
        assert!(timings.total_us() >= 4_007);
    }
}
