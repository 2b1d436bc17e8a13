//! Shared by the integration tests: bring a one-engine server up, and
//! wait on a running server's counters.

// Each test binary compiles this module for itself and uses only part.
#![allow(dead_code)]

use inano_net::wire::{MAGIC, VERSION};
use inano_net::{NetServer, ServerConfig};
use inano_service::{QueryEngine, ShardId, ShardRegistry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A server on an ephemeral loopback port fronting `engine` as shard 0
/// — what a shard-unaware client talks to.
pub fn serve_one(engine: Arc<QueryEngine>, cfg: ServerConfig) -> NetServer {
    let registry = ShardRegistry::from_engines(vec![(ShardId::DEFAULT, engine)])
        .expect("one shard is a valid registry");
    NetServer::bind("127.0.0.1:0", Arc::new(registry), cfg).expect("bind ephemeral port")
}

/// A frame as a hostile peer would write it: a sound header naming
/// `frame_type` and the payload's true length, then whatever bytes —
/// so it is the type or the payload that gets it refused, never the
/// framing.
pub fn raw_frame(frame_type: u8, request_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = MAGIC.to_be_bytes().to_vec();
    bytes.extend([VERSION, frame_type]);
    bytes.extend(request_id.to_be_bytes());
    bytes.extend((payload.len() as u32).to_be_bytes());
    bytes.extend(payload);
    bytes
}

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
