//! `inano-serve`: the standalone query + dissemination server.
//!
//! Hosts one or more atlas shards behind a single listener: every
//! `--atlas FILE` (a codec-encoded atlas) or `--ring N` (a synthetic
//! ring world, for demos and smoke tests) occurrence becomes the next
//! shard, in command-line order — shard 0 first, so the first flag is
//! what shard-unaware clients talk to. With no shard flag at all it
//! serves a single 64-cluster ring. Prints one `LISTENING <addr>` line
//! once the socket is bound, then serves until killed.
//!
//! `--mirror ADDR` makes this server a *mirror*: instead of loading
//! shards from flags, it enumerates the shards of the server at `ADDR`,
//! fetches each shard's atlas over the wire (chunked, checksummed,
//! resumable), serves them under the same shard ids, and — every
//! `--refresh-ms` — runs `QueryEngine::update` against the upstream:
//! the daily deltas it applied, or its full atlas again when no delta
//! bridges the gap (it restarted, replaced its atlas, or this mirror
//! lagged past its retained chain). So a delta published at the origin
//! propagates down a mirror chain hop by hop. Every `inano-serve`
//! serves the fetch frames, so a mirror of a mirror works: the §5
//! swarm, spelled as a chain of ordinary servers. The binary itself is
//! tested end to end by `crates/net/tests/serve_bin.rs`.
//!
//! The server opens no listener beyond its query sockets: its metrics
//! registry and event journal are read over the query socket itself
//! (the `Metrics` and `Events` frames), e.g. by `fleet_scrape
//! --connect ADDR`, whose one-shot run prints every shard's epoch and
//! day and exits 0 — the liveness probe.
//!
//! `--demo-swap-ms MS` applies one synthetic ring delta to shard 0
//! after `MS` milliseconds (ring worlds only), so demos and smoke
//! tests can watch a mid-run generation swap ripple through the
//! `shard0.swaps` / mirror-lag series.
//!
//! `--udp ADDR` additionally binds the datagram query plane there
//! (port 0 for ephemeral): single-shot requests one-frame-per-datagram
//! on the same event loop, responder pool and shards, for sporadic peers
//! that shouldn't pay for a connection. Prints a second
//! `LISTENING-UDP <addr>` line once bound. `--udp-rate`/`--udp-burst`
//! tune the per-source-address token bucket (datagrams per second and
//! burst; rate 0 disables shedding).
//!
//! Usage:
//!   inano-serve [--bind 127.0.0.1] [--port 4711]
//!               [--atlas FILE | --ring N]...
//!               [--mirror ADDR [--refresh-ms MS] [--predictor full|ring]]
//!               [--demo-swap-ms MS]
//!               [--udp ADDR [--udp-rate N] [--udp-burst N]]
//!               [--max-conns C] [--max-inflight R]
//!               [--max-request-bytes B] [--max-frame-bytes B] [--max-batch Q]
//!
//! Any other `--flag`, a flag without a value, a value that does not
//! parse, or a bracketed flag above without the flag that opens its
//! bracket is a startup panic naming it — never a silent default.
//! There is no thread-count flag: the responder pool and the engines'
//! cold-batch fan-out both size themselves from the core count.

use inano_core::{read_full, PredictorConfig};
use inano_net::cli::{arg, refuse_unknown, repeated, requires};
use inano_net::demo::{ring_atlas, ring_predictor_config, ring_shortcut_delta};
use inano_net::{Limits, MirrorSource, NetClient, NetServer, ServerConfig};
use inano_obs::EventKind;
use inano_service::{RegistryConfig, ShardId, ShardRegistry, ShardSpec};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

/// Every flag `main` reads; anything else on the command line stops
/// the start.
const FLAGS: &[&str] = &[
    "--bind",
    "--port",
    "--atlas",
    "--ring",
    "--mirror",
    "--refresh-ms",
    "--predictor",
    "--demo-swap-ms",
    "--udp",
    "--udp-rate",
    "--udp-burst",
    "--max-conns",
    "--max-inflight",
    "--max-request-bytes",
    "--max-frame-bytes",
    "--max-batch",
];

/// Load the shard set from `--atlas`/`--ring` flags (the origin path).
fn local_specs() -> Vec<ShardSpec> {
    let mut shard_flags = repeated(&["--atlas", "--ring"]);
    if shard_flags.is_empty() {
        eprintln!(
            "serving a synthetic 64-cluster ring (pass --atlas FILE, --ring N or --mirror ADDR)"
        );
        shard_flags.push(("--ring".into(), "64".into()));
    }
    shard_flags
        .iter()
        .enumerate()
        .map(|(i, (flag, value))| {
            let id = ShardId(u16::try_from(i).expect("more than 65536 shards"));
            if flag == "--ring" {
                let n: u32 = value
                    .parse()
                    .unwrap_or_else(|_| panic!("--ring {value:?} is not a cluster count"));
                eprintln!("{id}: synthetic {n}-cluster ring");
                ShardSpec {
                    id,
                    atlas: Arc::new(ring_atlas(n, 0)),
                    predictor: ring_predictor_config(),
                }
            } else {
                let bytes =
                    std::fs::read(value).unwrap_or_else(|e| panic!("read atlas {value:?}: {e}"));
                let atlas = inano_atlas::codec::decode(&bytes)
                    .unwrap_or_else(|e| panic!("decode atlas {value:?}: {e}"));
                eprintln!("{id}: atlas {value:?} (day {})", atlas.day);
                ShardSpec {
                    id,
                    atlas: Arc::new(atlas),
                    predictor: PredictorConfig::full(),
                }
            }
        })
        .collect()
}

/// Reads and writes on the refresh loop's upstream connections are
/// bounded: `QueryEngine::update` fetches under the engine's builder
/// lock, and a half-dead upstream must surface as a retryable error,
/// not wedge delta application forever.
const MIRROR_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A fresh upstream connection for one shard's refresh loop, I/O
/// timeout applied.
fn mirror_source(upstream: &str, id: ShardId) -> std::io::Result<MirrorSource> {
    let source = MirrorSource::connect(upstream, id)?;
    source.client().set_io_timeout(Some(MIRROR_IO_TIMEOUT))?;
    Ok(source)
}

/// Bootstrap the shard set from an upstream server (the mirror path):
/// one wire-level atlas fetch per remote shard, same ids locally.
/// Returns the specs plus one per-shard [`MirrorSource`] for the
/// refresh loop.
fn mirrored_specs(
    upstream: &str,
    predictor: PredictorConfig,
) -> (Vec<ShardSpec>, Vec<(ShardId, MirrorSource)>) {
    let mut probe = NetClient::connect(upstream)
        .unwrap_or_else(|e| panic!("connect to --mirror {upstream}: {e}"));
    // The probe is bounded like the refresh sources: a half-dead
    // upstream must fail startup loudly, not hang before LISTENING.
    probe
        .set_io_timeout(Some(MIRROR_IO_TIMEOUT))
        .unwrap_or_else(|e| panic!("bound probe I/O to {upstream}: {e}"));
    let infos = probe
        .shards()
        .unwrap_or_else(|e| panic!("list shards of {upstream}: {e}"));
    assert!(!infos.is_empty(), "{upstream} hosts no shards");
    let mut specs = Vec::new();
    let mut sources = Vec::new();
    for info in infos {
        let id = ShardId(info.shard);
        let mut source = mirror_source(upstream, id)
            .unwrap_or_else(|e| panic!("connect to --mirror {upstream} for {id}: {e}"));
        let (version, bytes, _) = read_full(&mut source)
            .unwrap_or_else(|e| panic!("fetch {id} atlas from {upstream}: {e}"));
        let atlas = inano_atlas::codec::decode(&bytes)
            .unwrap_or_else(|e| panic!("decode {id} atlas from {upstream}: {e}"));
        eprintln!(
            "{id}: mirrored from {upstream} — day {}, tag {:#018x}, {} bytes in {} chunk(s)",
            version.day,
            version.epoch_tag,
            version.full_len,
            version.n_chunks(),
        );
        specs.push(ShardSpec {
            id,
            atlas: Arc::new(atlas),
            predictor: predictor.clone(),
        });
        sources.push((id, source));
    }
    (specs, sources)
}

fn main() {
    refuse_unknown(FLAGS);
    // Read only beside the flag that gives them meaning; given without
    // it they stop the start too.
    requires("--refresh-ms", "--mirror");
    requires("--predictor", "--mirror");
    requires("--udp-rate", "--udp");
    requires("--udp-burst", "--udp");
    let bind: String = arg("--bind", "127.0.0.1".to_string());
    let port: u16 = arg("--port", 4711);
    let max_conns: usize = arg("--max-conns", ServerConfig::default().max_conns);
    let max_inflight: usize = arg("--max-inflight", ServerConfig::default().max_inflight);
    let max_request_bytes: usize = arg(
        "--max-request-bytes",
        ServerConfig::default().max_request_bytes,
    );
    let max_frame_bytes: u32 = arg("--max-frame-bytes", Limits::default().max_frame_bytes);
    let max_batch: u32 = arg("--max-batch", Limits::default().max_batch);
    let mirror: String = arg("--mirror", String::new());
    let refresh_ms: u64 = arg("--refresh-ms", 1000);
    let demo_swap_ms: u64 = arg("--demo-swap-ms", 0);
    let udp: String = arg("--udp", String::new());
    let udp_rate: u32 = arg("--udp-rate", ServerConfig::default().udp_rate);
    let udp_burst: u32 = arg("--udp-burst", ServerConfig::default().udp_burst);
    let udp = (!udp.is_empty()).then(|| {
        use std::net::ToSocketAddrs;
        udp.to_socket_addrs()
            .unwrap_or_else(|e| panic!("--udp {udp:?}: {e}"))
            .next()
            .unwrap_or_else(|| panic!("--udp {udp:?} names no address"))
    });

    let (specs, mirror_sources) = if mirror.is_empty() {
        (local_specs(), Vec::new())
    } else {
        assert!(
            repeated(&["--atlas", "--ring"]).is_empty(),
            "--mirror replaces --atlas/--ring: the shard set comes from the upstream"
        );
        // A mirror cannot know how the origin's atlases were built;
        // --predictor picks the profile (`ring` for the demo worlds).
        let predictor = match arg("--predictor", "full".to_string()).as_str() {
            "ring" => ring_predictor_config(),
            "full" => PredictorConfig::full(),
            other => panic!("flag --predictor: {other:?} is neither \"full\" nor \"ring\""),
        };
        mirrored_specs(&mirror, predictor)
    };

    let registry = Arc::new(
        ShardRegistry::build(specs, RegistryConfig::default()).expect("build the shard registry"),
    );

    let server = NetServer::bind(
        format!("{bind}:{port}"),
        Arc::clone(&registry),
        ServerConfig {
            max_conns,
            max_inflight,
            max_request_bytes,
            limits: Limits {
                max_frame_bytes,
                max_batch,
            },
            udp,
            udp_rate,
            udp_burst,
        },
    )
    .expect("bind server socket");

    // The refresh loop: every tick, `QueryEngine::update` catches each
    // shard up with its upstream — daily deltas, or the full body when
    // the chain broke — and downstream mirrors then fetch the same
    // from *us* (the engine retains what it applies). Spawned after
    // the bind so failures can land on the server's event journal —
    // serving starts at bind either way.
    if !mirror_sources.is_empty() && refresh_ms > 0 {
        let registry = Arc::clone(&registry);
        let journal = Arc::clone(server.journal());
        let upstream = mirror.clone();
        std::thread::Builder::new()
            .name("inano-mirror-refresh".into())
            .spawn(move || {
                let mut sources = mirror_sources;
                loop {
                    std::thread::sleep(Duration::from_millis(refresh_ms));
                    for (id, source) in &mut sources {
                        let engine = registry
                            .engine(*id)
                            .expect("mirrored shards are registered");
                        match engine.update(source) {
                            // Idle — or a broken chain bridged by a
                            // full resync, which the journal and
                            // `mirror.full_resyncs` record.
                            Ok(0) => {}
                            Ok(n) => eprintln!(
                                "{id}: pulled {n} delta(s) from upstream, now day {}",
                                engine.day()
                            ),
                            Err(e) => {
                                // Any failure may have left the
                                // connection dead or torn mid-frame
                                // (upstream restart, I/O timeout);
                                // retrying on the same socket would
                                // fail forever, so rebuild it. Serving
                                // continues on the last good atlas
                                // either way.
                                eprintln!("{id}: refresh failed: {e}; reconnecting upstream");
                                journal.emit(
                                    EventKind::MirrorRefreshFailed,
                                    format!("{id} refresh: {e}"),
                                );
                                match mirror_source(&upstream, *id) {
                                    Ok(fresh) => *source = fresh,
                                    Err(e) => {
                                        eprintln!("{id}: reconnect failed (will retry): {e}")
                                    }
                                }
                            }
                        }
                    }
                }
            })
            .expect("spawn mirror refresh thread");
    }

    if demo_swap_ms > 0 {
        let registry = Arc::clone(&registry);
        // The delta is built against the ring world of the first
        // --ring flag (default ring when no shard flag was given).
        let ring_n: u32 = repeated(&["--atlas", "--ring"])
            .first()
            .filter(|(flag, _)| flag == "--ring")
            .and_then(|(_, value)| value.parse().ok())
            .unwrap_or(64);
        std::thread::Builder::new()
            .name("inano-demo-swap".into())
            .spawn(move || {
                std::thread::sleep(Duration::from_millis(demo_swap_ms));
                let swapped = registry.engine(ShardId(0)).and_then(|engine| {
                    engine.apply_delta(&ring_shortcut_delta(ring_n, engine.day()))
                });
                match swapped {
                    Ok(day) => eprintln!("demo swap: shard 0 advanced to day {day}"),
                    Err(e) => eprintln!("demo swap failed (ring worlds only): {e}"),
                }
            })
            .expect("spawn demo swap thread");
    }

    // The contract line smoke tests wait for; flush so a pipe sees it.
    println!("LISTENING {}", server.local_addr());
    if let Some(udp_addr) = server.udp_addr() {
        // Scripts binding `--udp` to port 0 read the real port here.
        println!("LISTENING-UDP {udp_addr}");
    }
    std::io::stdout().flush().expect("flush stdout");

    loop {
        std::thread::sleep(Duration::from_secs(60));
        // The same dump a `Metrics` frame shows.
        let dump = server.metrics().dump();
        let per_shard: Vec<String> = registry
            .shard_ids()
            .iter()
            .map(|id| {
                format!(
                    "{id} epoch {} day {} ({} queries)",
                    dump.gauge(&format!("{id}.epoch")),
                    dump.gauge(&format!("{id}.day")),
                    dump.counter(&format!("{id}.queries")),
                )
            })
            .collect();
        eprintln!(
            "up: {} conns active ({} accepted, {} rejected, {} faults, {} overloaded), \
             {} queries total; {}",
            dump.gauge("srv.active"),
            dump.counter("srv.accepted"),
            dump.counter("srv.rejected"),
            dump.counter("srv.faults"),
            dump.counter("srv.overloaded"),
            dump.counter_sum(".queries"),
            per_shard.join(", "),
        );
    }
}
