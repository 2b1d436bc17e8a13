//! Shared by the integration tests that read a running server's
//! counters.

use std::time::{Duration, Instant};

/// Poll `cond` until it holds or `secs` elapse.
///
/// A server counts some things *after* the send that lets a client see
/// the reply (`srv.udp.datagrams_out`, say), so a test holding that reply
/// may read the count before it moves: such an assertion waits here for
/// the state it expects, with a bound, rather than reading once.
pub fn wait_for(secs: u64, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}
