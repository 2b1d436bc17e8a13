//! The shipped binaries, end to end: real `inano-serve` processes — an
//! origin serving two shards from `--atlas` files of the measured test
//! world, and a `--mirror` of it — driven over loopback by the library
//! clients and scraped by the real `fleet_scrape`. A process publishes
//! no delta of its own, so for the delta step the origin's port is held
//! by an in-process `NetServer` the test applies one on; the mirror
//! stays a process throughout.
//!
//! Everything said here is about a *process*: the contract lines it
//! prints, the flags it honours or refuses, what its refresh loop does
//! when the origin publishes a delta and when the origin restarts onto
//! a generation no delta leads to. What an in-process server does under
//! load, loss or a crowd of idle peers is `net.rs`, `udp.rs` and
//! `event_loop.rs`.
//!
//! Children are killed when their guard drops; every wait is a poll
//! against [`DEADLINE_SECS`].

mod common;

use common::{assert_bitwise, wait_for, world};
use inano_core::read_full;
use inano_model::Ipv4;
use inano_net::{MirrorSource, NetClient, NetServer, ServerConfig, ShardId, UdpQuerier};
use inano_obs::{EventKind, MetricsDump};
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SERVE: &str = env!("CARGO_BIN_EXE_inano-serve");
const SCRAPE: &str = env!("CARGO_BIN_EXE_fleet_scrape");
/// How long any one wait may take before the test fails.
const DEADLINE_SECS: u64 = 30;
const DEADLINE: Duration = Duration::from_secs(DEADLINE_SECS);

/// A spawned binary: killed and reaped on drop, every line of its
/// stdout and stderr kept in arrival order.
struct Proc {
    child: Child,
    lines: Receiver<String>,
    seen: Vec<String>,
    readers: Vec<JoinHandle<()>>,
}

fn forward(pipe: impl Read + Send + 'static, tx: Sender<String>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        for line in BufReader::new(pipe).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                return;
            }
        }
    })
}

impl Proc {
    fn spawn(exe: &str, args: &[&str]) -> Proc {
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {exe} {args:?}: {e}"));
        let (tx, lines) = channel();
        let readers = vec![
            forward(child.stdout.take().expect("piped stdout"), tx.clone()),
            forward(child.stderr.take().expect("piped stderr"), tx),
        ];
        Proc {
            child,
            lines,
            seen: Vec::new(),
            readers,
        }
    }

    /// What follows `prefix` on the first line that starts with it,
    /// waiting for the process to print one.
    fn line_after(&mut self, prefix: &str) -> String {
        let deadline = Instant::now() + DEADLINE;
        let mut scanned = 0;
        loop {
            if let Some(rest) = self.seen[scanned..]
                .iter()
                .find_map(|l| l.strip_prefix(prefix))
            {
                return rest.to_string();
            }
            scanned = self.seen.len();
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) => self.seen.push(line),
                Err(_) => panic!("no {prefix:?} line; the process printed {:#?}", self.seen),
            }
        }
    }

    /// Wait for the process to exit by itself; returns its status and
    /// everything it printed.
    fn finish(mut self) -> (ExitStatus, String) {
        let mut exited = None;
        wait_for(DEADLINE_SECS, "the process to exit", || {
            exited = self.child.try_wait().expect("poll the child");
            exited.is_some()
        });
        // Exited, so both pipes are at EOF and the readers finish.
        for reader in self.readers.drain(..) {
            reader.join().expect("reader thread");
        }
        self.seen.extend(self.lines.try_iter());
        (exited.expect("waited for"), self.seen.join("\n"))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

fn addr_after(proc: &mut Proc, prefix: &str) -> SocketAddr {
    let text = proc.line_after(prefix);
    text.parse()
        .unwrap_or_else(|e| panic!("{prefix}{text:?} is not a socket address: {e}"))
}

/// The server's metrics dump, read over its own socket.
fn metrics(addr: SocketAddr) -> MetricsDump {
    NetClient::connect(addr)
        .expect("connect")
        .metrics()
        .unwrap_or_else(|e| panic!("metrics of {addr}: {e}"))
}

/// The world's pool pairs that route on day 0: every one must be
/// served, not faulted.
fn routed_pairs() -> Vec<(Ipv4, Ipv4)> {
    let w = world();
    w.pairs
        .iter()
        .zip(w.answers(&w.day0))
        .filter_map(|(&pair, answer)| answer.is_ok().then_some(pair))
        .collect()
}

/// The world's day-0 atlas in a file of its own, as `inano-serve
/// --atlas` reads it; removed on drop.
struct AtlasFile(PathBuf);

impl AtlasFile {
    fn write() -> AtlasFile {
        let path = std::env::temp_dir().join(format!("serve_bin-{}.atlas", std::process::id()));
        std::fs::write(&path, &world().bytes).expect("write the atlas file");
        AtlasFile(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("a UTF-8 temp path")
    }
}

impl Drop for AtlasFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Four batches in flight at once on `shard`; every pair must be served.
fn pipelined_fault_free(client: &mut NetClient, shard: ShardId) {
    let pairs = routed_pairs();
    let ids: Vec<u64> = (0..4)
        .map(|_| client.submit_batch_on(shard, &pairs).expect("submit"))
        .collect();
    for want in ids {
        match client.recv().expect("a reply per request") {
            (id, inano_net::Frame::PathBatch { results }) => {
                assert_eq!(id, want, "replies come back in request order");
                assert_eq!(results.len(), pairs.len());
                for r in results {
                    r.unwrap_or_else(|fault| panic!("{shard} refused a routed pair: {fault:?}"));
                }
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
}

/// Origin and mirror hold byte-identical shard-0 atlases (fetched from
/// both over the wire, as any bootstrapping peer would) and answer
/// every pool pair as the library does on the world's day-`day` atlas,
/// floats to the bit.
fn assert_parity(origin: SocketAddr, mirror: SocketAddr, day: u32) {
    let mut from_origin =
        MirrorSource::connect(origin, ShardId::DEFAULT).expect("connect to the origin");
    let mut from_mirror =
        MirrorSource::connect(mirror, ShardId::DEFAULT).expect("connect to the mirror");
    let (origin_head, origin_bytes, _) = read_full(&mut from_origin).expect("origin body");
    let (mirror_head, mirror_bytes, _) = read_full(&mut from_mirror).expect("mirror body");
    assert_eq!(origin_head.epoch_tag, mirror_head.epoch_tag);
    assert_eq!(origin_head.day, mirror_head.day);
    assert!(origin_bytes == mirror_bytes, "equal tags, different bytes");
    assert_eq!(origin_head.day, day);
    let w = world();
    let want = w.answers(if day == 0 { &w.day0 } else { &w.day1 });
    for (who, source) in [("origin", &mut from_origin), ("mirror", &mut from_mirror)] {
        let got = source
            .client_mut()
            .query_batch(&w.pairs)
            .unwrap_or_else(|e| panic!("{who} answers: {e}"));
        assert_bitwise(&format!("{who}, day {day}"), &got, &want);
    }
}

#[test]
fn origin_and_mirror_processes_serve_propagate_resync_and_scrape() {
    // The origin: two shards, each loaded from the same atlas file. The
    // mirror bootstraps both from it over the wire.
    let file = AtlasFile::write();
    let mut origin = Proc::spawn(
        SERVE,
        &[
            "--port",
            "0",
            "--atlas",
            file.path(),
            "--atlas",
            file.path(),
        ],
    );
    let origin_addr = addr_after(&mut origin, "LISTENING ");
    let mut mirror = Proc::spawn(
        SERVE,
        &[
            "--port",
            "0",
            "--mirror",
            &origin_addr.to_string(),
            "--refresh-ms",
            "100",
        ],
    );
    let mirror_addr = addr_after(&mut mirror, "LISTENING ");

    // Both processes host both shards and serve pipelined load on each
    // without a fault, and both answer as the library does.
    for addr in [origin_addr, mirror_addr] {
        let mut client = NetClient::connect(addr).expect("connect");
        let shards = client.shards().expect("ListShards");
        assert_eq!(
            shards.iter().map(|s| s.shard).collect::<Vec<_>>(),
            [0, 1],
            "{addr} hosts {shards:?}"
        );
        for shard in [ShardId(0), ShardId(1)] {
            pipelined_fault_free(&mut client, shard);
        }
    }
    assert_parity(origin_addr, mirror_addr, 0);

    // The origin's port passes to an in-process server over the same
    // day-0 atlas, and a day-1 delta lands on its shard 0. The mirror's
    // refresh loop reconnects and pulls the delta: its own metrics dump
    // is the instrument.
    drop(origin);
    let origin = NetServer::bind(origin_addr, world().registry(2), ServerConfig::default())
        .expect("rebind the origin's port");
    let day = origin
        .registry()
        .engine(ShardId(0))
        .and_then(|engine| engine.apply_delta(&world().delta))
        .expect("the delta applies");
    assert_eq!(day, 1);
    wait_for(
        DEADLINE_SECS,
        "the mirror to apply the origin's delta",
        || metrics(mirror_addr).counter("shard0.mirror.deltas_applied") == 1,
    );
    let (_, day) = NetClient::connect(mirror_addr)
        .expect("connect")
        .epoch()
        .expect("the mirror's shard-0 generation");
    assert_eq!(day, 1);
    assert_parity(origin_addr, mirror_addr, 1);

    // A converged fleet does not lag, though its two shards serve
    // different days (shard 0 day 1, shard 1 day 0 on both servers):
    // lag compares copies of one shard, never shard with shard.
    let targets = [
        "--connect",
        &origin_addr.to_string(),
        "--connect",
        &mirror_addr.to_string(),
    ];
    let one_tick = [&targets[..], &["--interval", "100", "--ticks", "1"]].concat();
    let (status, out) = Proc::spawn(SCRAPE, &one_tick).finish();
    assert!(status.success(), "{out}");
    assert!(out.contains(r#""fleet_lag_days":0"#), "{out}");

    // The origin stops and a real one comes back on the same port at day
    // 0, datagram plane open, its delta log empty: nothing bridges day 1
    // to it. The mirror's loop reconnects, finds a head that is not its
    // own, and refetches the whole atlas — once, for the one shard whose
    // content differs.
    drop(origin);
    let port = origin_addr.port().to_string();
    let mut origin = Proc::spawn(
        SERVE,
        &[
            "--port",
            &port,
            "--atlas",
            file.path(),
            "--atlas",
            file.path(),
            "--udp",
            "127.0.0.1:0",
        ],
    );
    assert_eq!(addr_after(&mut origin, "LISTENING "), origin_addr);
    let udp_addr = addr_after(&mut origin, "LISTENING-UDP ");
    wait_for(
        DEADLINE_SECS,
        "the mirror to resync from the restarted origin",
        || metrics(mirror_addr).counter("shard0.mirror.full_resyncs") == 1,
    );
    assert_parity(origin_addr, mirror_addr, 0);

    // The datagram plane answers what the stream plane answers.
    let mut tcp = NetClient::connect(origin_addr).expect("connect");
    let mut udp = UdpQuerier::connect(udp_addr).expect("datagram socket");
    udp.ping().expect("datagram ping");
    for shard in [ShardId(0), ShardId(1)] {
        for batch in world().pairs.chunks(32) {
            assert_eq!(
                udp.query_batch_on(shard, batch).expect("datagram batch"),
                tcp.query_batch_on(shard, batch).expect("stream batch"),
            );
        }
    }
    drop((tcp, udp));

    // The fleet scraper sees both servers...
    let (status, out) = Proc::spawn(SCRAPE, &targets).finish();
    assert!(status.success(), "{out}");
    assert!(
        out.contains(r#""bench":"fleet_scrape","servers":2"#),
        "{out}"
    );
    // ...and over three ticks — two more refreshes of the mirror — its
    // counters only grow, nobody lags, and the resync stays the only
    // one: an idle tick compares tags and moves nothing.
    let ticking = [&targets[..], &["--interval", "100", "--ticks", "3"]].concat();
    let (status, out) = Proc::spawn(SCRAPE, &ticking).finish();
    assert!(status.success(), "{out}");
    assert!(out.contains(r#""monotone":true"#), "{out}");
    let last_tick = out.rsplit(r#"{"t_ms""#).next().expect("a last tick");
    assert!(
        last_tick.contains(r#""full_resyncs":1,"fleet_lag_days":0"#),
        "{out}"
    );
    let dump = metrics(mirror_addr);
    assert_eq!(dump.counter("shard0.mirror.full_resyncs"), 1);
    assert_eq!(dump.counter("shard1.mirror.full_resyncs"), 0);
    assert_eq!(dump.counter("shard0.mirror.deltas_applied"), 1);
    let journal = NetClient::connect(mirror_addr)
        .expect("connect")
        .events(0)
        .expect("the mirror's journal");
    let resyncs: Vec<_> = journal
        .events
        .iter()
        .filter(|e| e.kind == EventKind::FullResync)
        .collect();
    assert_eq!(resyncs.len(), 1, "{resyncs:?}");
    assert_eq!(resyncs[0].detail, "shard0 day=0");
}

#[test]
fn an_unknown_flag_stops_the_start_and_is_named() {
    // Flags the server does not have: engines own no threads, a server
    // is read over its own socket, not through a second listener, and
    // it serves a measured atlas under the full model — no synthetic
    // ring, no second profile, no scheduled demo delta.
    for (flag, value) in [
        ("--workers", "8"),
        ("--metrics-text", "127.0.0.1:0"),
        ("--ring", "64"),
        ("--predictor", "ring"),
        ("--demo-swap-ms", "300"),
    ] {
        let (status, out) = Proc::spawn(SERVE, &["--port", "0", flag, value]).finish();
        assert!(!status.success());
        assert!(out.contains(&format!("unknown flag {flag}")), "{out}");
        assert!(!out.contains("LISTENING"), "{out}");
    }
    // Nor does a known flag's unparsable value fall back to a default.
    let typo = [
        "--port",
        "0",
        "--mirror",
        "127.0.0.1:9",
        "--refresh-ms",
        "soon",
    ];
    let (status, out) = Proc::spawn(SERVE, &typo).finish();
    assert!(!status.success());
    assert!(out.contains(r#"flag --refresh-ms: "soon""#), "{out}");
    // Nor is a flag that only tunes another accepted without it.
    let (status, out) = Proc::spawn(SERVE, &["--port", "0", "--udp-rate", "5"]).finish();
    assert!(!status.success());
    assert!(
        out.contains("flag --udp-rate has no effect without --udp"),
        "{out}"
    );
    assert!(!out.contains("LISTENING"), "{out}");
    // The scraper too: `--ticks` only counts `--interval` samples, and
    // is refused before any connect is tried.
    let (status, out) = Proc::spawn(SCRAPE, &["--connect", "127.0.0.1:9", "--ticks", "3"]).finish();
    assert!(!status.success());
    assert!(
        out.contains("flag --ticks has no effect without --interval"),
        "{out}"
    );
    assert!(!out.contains("connect to"), "{out}");
}

#[test]
fn a_mirror_of_a_dead_address_fails_before_listening() {
    // An address nothing listens on: bound, read, released.
    let dead = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("reserve a port");
    let (status, out) =
        Proc::spawn(SERVE, &["--port", "0", "--mirror", &dead.to_string()]).finish();
    assert!(!status.success());
    assert!(
        out.contains(&format!("connect to --mirror {dead}")),
        "{out}"
    );
    assert!(!out.contains("LISTENING"), "{out}");
}

#[test]
fn a_start_with_nothing_to_serve_stops_before_listening() {
    let (status, out) = Proc::spawn(SERVE, &["--port", "0"]).finish();
    assert!(!status.success());
    assert!(out.contains("--atlas FILE"), "{out}");
    assert!(out.contains("--mirror ADDR"), "{out}");
    assert!(!out.contains("LISTENING"), "{out}");
}
