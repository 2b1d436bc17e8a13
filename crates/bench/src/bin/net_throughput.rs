//! `net_throughput`: load-generate the `inano-net` wire protocol end
//! to end — real TCP sockets, pipelined `QueryBatch` frames — and
//! report the numbers as a single BENCH JSON line.
//!
//! Three modes:
//!
//! * **in-process** (default): builds a scenario atlas, starts a
//!   `NetServer` over `--shards N` independent shards (all serving the
//!   scenario's day-0 atlas) on an ephemeral loopback port, drives it
//!   from `--clients` threads round-robined across the shards, and
//!   lands the day-1 delta on *shard 0 only* once half the load has
//!   been issued — so the reported qps includes a hot swap under full
//!   remote load, and the run asserts both that the post-swap epoch is
//!   visible over the wire and that no other shard's epoch moved.
//! * **`--connect ADDR`**: drives an external server started
//!   separately (e.g. `inano-serve --ring 64 --ring 64`); `--ring N`
//!   tells the loadgen the remote rings' size so it can generate
//!   routable pairs, and `--shards` how many ring shards to spread the
//!   clients over (each shard's epoch is probed before the run). No
//!   swap is asserted (the loadgen does not own the remote engines).
//! * **`--connections N`** (conn soak): the event-loop scaling probe.
//!   Starts an in-process ring-world server sized for `N` peers,
//!   opens and *holds* `N` idle connections, then runs the pipelined
//!   active load through the crowd — measuring what tens of thousands
//!   of registered-but-quiet peers cost the connections that are
//!   actually talking. Reports one `"bench":"conn_soak"` JSON record
//!   (connections held, active-load qps/percentiles, zero-error
//!   assertion, the server's accept-retry counter) instead of the
//!   `net_throughput` record. The server ends all live in this one
//!   process (the loop under test); the idle *client* ends live in
//!   spawned `--hold` holder subprocesses, each under its own
//!   `RLIMIT_NOFILE` — so the server process's descriptor cap, not
//!   the loadgen's, is what bounds a run. Raises its own soft limit
//!   toward the hard cap as needed.
//!
//! Latency percentiles are client-observed *request* (batch)
//! round-trip times; `batch` and `depth` in the JSON record say how
//! much work one request carries and how many were kept in flight.
//!
//! * **`--udp`**: the datagram-plane counterpart. Starts an
//!   in-process ring-world server with the UDP plane enabled (or
//!   drives an external one's datagram address via `--connect`) and
//!   issues synchronous one-datagram-per-request `QueryBatch` calls
//!   from `--clients` [`UdpQuerier`]s. Batches default smaller (64
//!   pairs) because the *reply* must fit one datagram. Reports a
//!   `"transport":"udp"` `net_throughput` record with retry counters
//!   (`resends`, `stale_replies`), so TCP-vs-datagram cost per query
//!   is tracked side by side in `BENCH_net_throughput.json`.
//!
//! Usage: `net_throughput [--queries N] [--clients C] [--batch B]
//!         [--depth D] [--shards S]
//!         [--scale test|experiment] [--connect ADDR] [--ring N]
//!         [--connections N] [--udp]`

use inano_atlas::AtlasDelta;
use inano_bench::{Scenario, ScenarioConfig};
use inano_core::{PathPredictor, PredictorConfig};
use inano_model::rng::rng_for;
use inano_model::Ipv4;
use inano_net::cli::{arg, flag};
use inano_net::demo::{ring_atlas, ring_ip, ring_predictor_config};
use inano_net::{raise_nofile_limit, Frame, NetClient, NetServer, ServerConfig, UdpQuerier};
use inano_service::{RegistryConfig, ShardId, ShardRegistry, ShardSpec};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A one-shard registry over the `ring`-cluster demo world, sized by
/// the registry's defaults.
fn ring_registry(ring: u32) -> Arc<ShardRegistry> {
    let spec = ShardSpec {
        id: ShardId::DEFAULT,
        atlas: Arc::new(ring_atlas(ring, 0)),
        predictor: ring_predictor_config(),
    };
    let registry = ShardRegistry::build(vec![spec], RegistryConfig::default())
        .expect("one shard is a valid registry");
    Arc::new(registry)
}

/// Draw `n` scenario pairs — sources uniform, destinations zipf(s=1.0)
/// by prefix rank — validated routable against scratch predictors for
/// *both* days, so percentiles measure real predictions and the run
/// can assert zero faults across the swap (a pair the day-1 delta
/// unroutes would otherwise fail legitimately mid-run).
fn scenario_pairs(sc: &Scenario, day1: &inano_atlas::Atlas, n: usize) -> Vec<(Ipv4, Ipv4)> {
    let mut by_prefix: Vec<_> = sc
        .atlas
        .prefix_as
        .iter()
        .map(|(&pid, &(prefix, _))| (pid, prefix.nth(1)))
        .collect();
    by_prefix.sort_by_key(|&(pid, _)| pid);
    let ips: Vec<Ipv4> = by_prefix.into_iter().map(|(_, ip)| ip).collect();
    assert!(ips.len() > 2, "scenario must expose prefixes to query");

    let weights: Vec<f64> = (0..ips.len()).map(|r| 1.0 / (r as f64 + 1.0)).collect();
    let cumulative: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let total_weight = *cumulative.last().unwrap();

    let scratch0 = PathPredictor::new(Arc::new(sc.atlas.clone()), PredictorConfig::full());
    let scratch1 = PathPredictor::new(Arc::new(day1.clone()), PredictorConfig::full());
    let mut routable_memo: std::collections::HashMap<(Ipv4, Ipv4), bool> =
        std::collections::HashMap::new();
    let mut rng = rng_for(99, "net-throughput-load");
    let mut rejected = 0usize;
    let mut pairs: Vec<(Ipv4, Ipv4)> = Vec::with_capacity(n);
    while pairs.len() < n && rejected < n * 20 {
        let src = ips[rng.gen_range(0..ips.len())];
        let pick = rng.gen_range(0.0..total_weight);
        let dst = ips[cumulative.partition_point(|&c| c < pick).min(ips.len() - 1)];
        let ok = *routable_memo.entry((src, dst)).or_insert_with(|| {
            scratch0.query(src, dst).is_ok() && scratch1.query(src, dst).is_ok()
        });
        if ok {
            pairs.push((src, dst));
        } else {
            rejected += 1;
        }
    }
    assert!(
        pairs.len() == n,
        "atlas too sparse: only {} of {n} requested pairs routable",
        pairs.len(),
    );
    pairs
}

/// Uniform pairs over an `inano-serve --ring N` world.
fn ring_pairs(ring: u32, n: usize) -> Vec<(Ipv4, Ipv4)> {
    assert!(ring >= 3, "--ring must be at least 3");
    let mut rng = rng_for(99, "net-throughput-ring");
    (0..n)
        .map(|_| {
            let s = rng.gen_range(0..ring);
            let d = (s + rng.gen_range(1..ring)) % ring;
            (ring_ip(s), ring_ip(d))
        })
        .collect()
}

struct ClientTally {
    served: u64,
    faults: u64,
    /// Whole requests refused by the server's per-connection
    /// in-flight cap (typed `Overloaded`) — possible whenever
    /// `--depth` exceeds the server's `max_inflight`.
    rejected: u64,
    /// Per-request (batch) round-trip times, microseconds.
    request_us: Vec<u64>,
}

/// Drive one connection: keep `depth` batches in flight, submit the
/// next on every receive.
fn drive(
    addr: std::net::SocketAddr,
    shard: ShardId,
    pairs: &[(Ipv4, Ipv4)],
    batch: usize,
    depth: usize,
    issued_total: &AtomicU64,
) -> ClientTally {
    let mut client = NetClient::connect(addr).expect("connect to server");
    let chunks: Vec<&[(Ipv4, Ipv4)]> = pairs.chunks(batch).collect();
    let mut tally = ClientTally {
        served: 0,
        faults: 0,
        rejected: 0,
        request_us: Vec::with_capacity(chunks.len()),
    };
    let mut in_flight: std::collections::VecDeque<(u64, usize, Instant)> =
        std::collections::VecDeque::with_capacity(depth);
    let mut next = 0usize;
    while next < chunks.len() || !in_flight.is_empty() {
        while next < chunks.len() && in_flight.len() < depth {
            let id = client
                .submit_batch_on(shard, chunks[next])
                .expect("submit batch");
            issued_total.fetch_add(chunks[next].len() as u64, Ordering::Relaxed);
            in_flight.push_back((id, next, Instant::now()));
            next += 1;
        }
        let (got_id, frame) = client.recv().expect("receive reply");
        let (want_id, chunk_idx, t0) = in_flight.pop_front().expect("a reply implies a request");
        assert_eq!(got_id, want_id, "pipelined replies arrive in order");
        match frame {
            Frame::PathBatch { results } => {
                // Only genuinely served requests enter the latency
                // percentiles; an instant Overloaded rejection did no
                // engine work and would skew them low.
                tally.request_us.push(t0.elapsed().as_micros() as u64);
                assert_eq!(results.len(), chunks[chunk_idx].len());
                for (k, r) in results.into_iter().enumerate() {
                    match r {
                        Ok(_) => tally.served += 1,
                        Err(fault) => {
                            if tally.faults < 3 {
                                let (s, d) = chunks[chunk_idx][k];
                                eprintln!("fault on {s:?} -> {d:?}: {fault}");
                            }
                            tally.faults += 1;
                        }
                    }
                }
            }
            // The server's in-flight cap answers excess pipelined
            // requests with a typed rejection; count it, don't die —
            // the loadgen may legitimately be configured to outrun it.
            Frame::Error { fault } if fault.code == inano_model::ErrorCode::Overloaded => {
                tally.rejected += 1;
            }
            Frame::Error { fault } => panic!("batch-level fault: {fault}"),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    tally
}

/// How many idle connections one holder subprocess carries. Sized
/// well under typical `RLIMIT_NOFILE` hard caps so the holders are
/// never the binding constraint — the server process is.
const HOLDER_CONNS: usize = 9_000;

/// How many connects may be in flight (granted to holders but not yet
/// accepted) at once. Kept under the server's widened listen backlog
/// so the crowd never overflows it into SYN-retransmit stalls.
const CONNECT_WINDOW: usize = 2_048;

/// The hidden `--hold N --connect ADDR` mode `run_conn_soak` spawns:
/// open idle connections against `addr` as credit lines arrive on
/// stdin (each line is a count to add), report `held N retries R` on
/// stdout once the total is reached, then hold every socket open
/// until stdin closes. A subprocess exists purely for its own
/// `RLIMIT_NOFILE`: the per-process descriptor cap binds each side of
/// a socket separately, so moving the client ends out of the server's
/// process roughly doubles the connections one soak can hold.
fn run_idle_holder(n_conns: usize, addr: std::net::SocketAddr) -> ! {
    let need = (n_conns + 64) as u64;
    let have = raise_nofile_limit(need);
    assert!(have >= need, "holder needs {need} fds, limit is {have}");
    let mut idles: Vec<std::net::TcpStream> = Vec::with_capacity(n_conns);
    let mut retries = 0u64;
    let stdin = std::io::stdin();
    let mut line = String::new();
    while idles.len() < n_conns {
        line.clear();
        let got = stdin.read_line(&mut line).expect("read credit line");
        assert!(got > 0, "soak parent hung up mid-open");
        let credit: usize = line.trim().parse().expect("credit line is a count");
        for _ in 0..credit.min(n_conns - idles.len()) {
            loop {
                match std::net::TcpStream::connect(addr) {
                    Ok(s) => {
                        idles.push(s);
                        break;
                    }
                    Err(e) => {
                        retries += 1;
                        assert!(retries <= 10_000, "connection storm not absorbed: {e}");
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                }
            }
        }
    }
    println!("held {} retries {retries}", idles.len());
    use std::io::Write as _;
    std::io::stdout().flush().expect("flush");
    // Hold the crowd until the parent closes our stdin.
    line.clear();
    let _ = stdin.read_line(&mut line);
    std::process::exit(0);
}

/// The `--connections N` soak: hold `n_conns` idle connections on an
/// in-process ring-world server, run the active load through the
/// crowd, and report the cost of the quiet majority as one
/// `"bench":"conn_soak"` JSON record. The idle client ends live in
/// `--hold` subprocesses (see [`run_idle_holder`]); the server ends
/// all live here, which is what makes the event loop the thing being
/// measured. Exits the process when done.
fn run_conn_soak(
    n_conns: usize,
    n_queries: usize,
    clients: usize,
    batch: usize,
    depth: usize,
    ring: u32,
) -> ! {
    // This process holds the server side of every idle connection,
    // both sides of the loadgen connections, and the holder pipes.
    let holders = n_conns.div_ceil(HOLDER_CONNS);
    let need = (n_conns + 2 * clients + 4 * holders + 256) as u64;
    let have = raise_nofile_limit(need);
    assert!(
        have >= need,
        "need {need} file descriptors for {n_conns} held connections but \
         RLIMIT_NOFILE stops at {have}; lower --connections or raise the hard limit"
    );

    let server = NetServer::bind(
        "127.0.0.1:0",
        ring_registry(ring),
        ServerConfig {
            max_conns: n_conns + clients + 16,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback server");
    let addr = server.local_addr();
    eprintln!("conn soak: server on {addr}, raising to {n_conns} idle connections");
    // The server's own registration count, read live off its handle.
    let active = server.metrics().gauge("srv.active");
    let registered = || active.get() as usize;

    // Spawn the holders and feed them connect credits, pacing against
    // the server's registration count: outrunning the loop would just
    // overflow the listen backlog and turn into SYN-retransmit stalls.
    let t_open = Instant::now();
    let exe = std::env::current_exe().expect("own path");
    let mut children: Vec<std::process::Child> = Vec::with_capacity(holders);
    let mut quota: Vec<usize> = Vec::with_capacity(holders);
    for h in 0..holders {
        let share = (n_conns / holders) + usize::from(h < n_conns % holders);
        let child = std::process::Command::new(&exe)
            .arg("--hold")
            .arg(share.to_string())
            .arg("--connect")
            .arg(addr.to_string())
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn idle holder");
        children.push(child);
        quota.push(share);
    }
    let mut granted: Vec<usize> = vec![0; holders];
    let mut next = 0usize;
    let open_deadline = Instant::now() + std::time::Duration::from_secs(600);
    while granted.iter().sum::<usize>() < n_conns {
        assert!(
            Instant::now() < open_deadline,
            "holders stalled: {} of {n_conns} registered",
            registered()
        );
        let outstanding = granted.iter().sum::<usize>() - registered();
        if outstanding >= CONNECT_WINDOW {
            std::thread::sleep(std::time::Duration::from_millis(2));
            continue;
        }
        // Round-robin a credit to the next holder with quota left.
        if granted[next] < quota[next] {
            let grant = 512.min(quota[next] - granted[next]);
            use std::io::Write as _;
            writeln!(
                children[next].stdin.as_mut().expect("holder stdin"),
                "{grant}"
            )
            .expect("grant credit");
            granted[next] += grant;
        }
        next = (next + 1) % holders;
    }
    // Every held socket must be *registered*, not just accepted.
    while registered() < n_conns {
        assert!(
            Instant::now() < open_deadline,
            "registrations stalled at {} of {n_conns}",
            registered()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    // Each holder confirms its full crowd and reports its retry count.
    let mut connect_retries = 0u64;
    for child in &mut children {
        use std::io::BufRead as _;
        let mut line = String::new();
        std::io::BufReader::new(child.stdout.as_mut().expect("holder stdout"))
            .read_line(&mut line)
            .expect("holder report");
        let words: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(words.first(), Some(&"held"), "holder said {line:?}");
        connect_retries += words[3].parse::<u64>().expect("retry count");
    }
    let open_secs = t_open.elapsed().as_secs_f64();
    eprintln!(
        "conn soak: {n_conns} idle connections registered in {open_secs:.1}s \
         across {holders} holder processes ({connect_retries} connect retries); \
         running active load"
    );

    // The active load: the same pipelined driver the throughput bench
    // uses, through the same event loop now carrying the crowd.
    let pairs = ring_pairs(ring, n_queries);
    let shares: Vec<Vec<(Ipv4, Ipv4)>> = (0..clients)
        .map(|c| pairs.iter().skip(c).step_by(clients).copied().collect())
        .collect();
    let issued_total = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .map(|share| {
                let issued_total = Arc::clone(&issued_total);
                scope.spawn(move || {
                    drive(addr, ShardId::DEFAULT, share, batch, depth, &issued_total)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let served: u64 = tallies.iter().map(|t| t.served).sum();
    let faults: u64 = tallies.iter().map(|t| t.faults).sum();
    let rejected: u64 = tallies.iter().map(|t| t.rejected).sum();
    let mut request_us: Vec<u64> = tallies.iter().flat_map(|t| t.request_us.clone()).collect();
    request_us.sort_unstable();
    let qps = (served + faults) as f64 / elapsed;
    let p50 = quantile(&request_us, 0.50);
    let p99 = quantile(&request_us, 0.99);

    let dump = server.metrics().dump();
    assert_eq!(faults, 0, "no query may fail through the idle crowd");
    assert_eq!(
        dump.counter("srv.rejected"),
        0,
        "a correctly sized soak server refuses no one"
    );
    assert!(
        dump.gauge("srv.active") >= n_conns as u64,
        "idle connections must survive the active load: {} of {} left",
        dump.gauge("srv.active"),
        n_conns
    );
    let accept_retries = dump.counter("srv.accept_retries");

    eprintln!(
        "conn soak: {n_conns} idle + {clients} active connections, served {served} \
         queries in {elapsed:.2}s: {qps:.0} qps, request p50 {p50}us / p99 {p99}us \
         ({rejected} rejected, {accept_retries} accept retries)",
    );

    // Hang up on the holders (closing stdin releases each crowd),
    // then stop the server.
    for mut child in children {
        drop(child.stdin.take());
        let _ = child.wait();
    }
    server.shutdown();

    // The contract line: exactly one JSON record on stdout.
    println!(
        "{{\"bench\":\"conn_soak\",\"connections\":{n_conns},\"qps\":{qps:.1},\
         \"p50_us\":{p50},\"p99_us\":{p99},\"queries\":{},\"errors\":{faults},\
         \"clients\":{clients},\"batch\":{batch},\"depth\":{depth},\
         \"open_secs\":{open_secs:.1},\"connect_retries\":{connect_retries},\
         \"accept_retries\":{accept_retries},\"rejected\":{rejected}}}",
        served + faults,
    );
    std::process::exit(0);
}

/// The `--udp` mode: the same ring-world query load, carried one
/// datagram per request by [`UdpQuerier`]s instead of pipelined TCP.
/// No `--depth` — the datagram client is strictly
/// request-reply — so the comparison against the TCP record is
/// per-query *cost*, not peak pipelined throughput. Exits when done.
fn run_udp(n_queries: usize, clients: usize, batch: usize, ring: u32, connect: String) -> ! {
    let mut server: Option<NetServer> = None;
    let addr = if connect.is_empty() {
        let srv = NetServer::bind(
            "127.0.0.1:0",
            ring_registry(ring),
            ServerConfig {
                udp: Some("127.0.0.1:0".parse().unwrap()),
                // The loadgen is one source flooding on purpose; the
                // per-source shed would only measure itself.
                udp_rate: 0,
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback server");
        let addr = srv.udp_addr().expect("udp plane enabled");
        eprintln!("in-process server, datagram plane on {addr}");
        server = Some(srv);
        addr
    } else {
        let addr = connect.parse().expect("--connect ADDR must be ip:port");
        eprintln!("driving external datagram plane {addr} (ring {ring})");
        addr
    };

    let pairs = ring_pairs(ring, n_queries);
    let shares: Vec<Vec<(Ipv4, Ipv4)>> = (0..clients)
        .map(|c| pairs.iter().skip(c).step_by(clients).copied().collect())
        .collect();

    struct UdpTally {
        served: u64,
        errors: u64,
        resends: u64,
        stale_replies: u64,
        request_us: Vec<u64>,
    }
    let t0 = Instant::now();
    let tallies: Vec<UdpTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .map(|share| {
                scope.spawn(move || {
                    let mut q = UdpQuerier::connect(addr).expect("bind udp querier");
                    let mut tally = UdpTally {
                        served: 0,
                        errors: 0,
                        resends: 0,
                        stale_replies: 0,
                        request_us: Vec::with_capacity(share.len() / batch + 1),
                    };
                    for chunk in share.chunks(batch) {
                        let t = Instant::now();
                        match q.query_batch(chunk) {
                            Ok(results) => {
                                tally.request_us.push(t.elapsed().as_micros() as u64);
                                for r in results {
                                    match r {
                                        Ok(_) => tally.served += 1,
                                        Err(fault) => {
                                            if tally.errors < 3 {
                                                eprintln!("per-pair fault: {fault}");
                                            }
                                            tally.errors += 1;
                                        }
                                    }
                                }
                            }
                            Err(e) => {
                                if tally.errors < 3 {
                                    eprintln!("datagram request failed: {e}");
                                }
                                tally.errors += chunk.len() as u64;
                            }
                        }
                    }
                    tally.resends = q.resends();
                    tally.stale_replies = q.stale_replies();
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let served: u64 = tallies.iter().map(|t| t.served).sum();
    let errors: u64 = tallies.iter().map(|t| t.errors).sum();
    let resends: u64 = tallies.iter().map(|t| t.resends).sum();
    let stale: u64 = tallies.iter().map(|t| t.stale_replies).sum();
    let mut request_us: Vec<u64> = tallies.iter().flat_map(|t| t.request_us.clone()).collect();
    request_us.sort_unstable();
    let qps = (served + errors) as f64 / elapsed;
    let p50 = quantile(&request_us, 0.50);
    let p99 = quantile(&request_us, 0.99);

    if let Some(srv) = &server {
        // The plane's own accounting must have seen the load.
        let datagrams_in = match srv
            .metrics()
            .dump()
            .entries
            .into_iter()
            .find(|(n, _)| n == "srv.udp.datagrams_in")
        {
            Some((_, inano_obs::MetricValue::Counter(v))) => v,
            other => panic!("srv.udp.datagrams_in missing from dump: {other:?}"),
        };
        assert!(
            datagrams_in >= request_us.len() as u64,
            "server counted {datagrams_in} datagrams for {} answered requests",
            request_us.len()
        );
        srv.shutdown();
    }

    eprintln!(
        "served {served} queries ({errors} errors) in {elapsed:.2}s over {clients} \
         datagram clients: {qps:.0} qps, request p50 {p50}us / p99 {p99}us \
         (batch {batch}, {resends} resends, {stale} stale replies discarded)",
    );
    println!(
        "{{\"bench\":\"net_throughput\",\"transport\":\"udp\",\"qps\":{qps:.1},\
         \"p50_us\":{p50},\"p99_us\":{p99},\"queries\":{},\"errors\":{errors},\
         \"clients\":{clients},\"batch\":{batch},\"ring\":{ring},\
         \"resends\":{resends},\"stale_replies\":{stale}}}",
        served + errors,
    );
    std::process::exit(0);
}

fn quantile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((sorted_us.len() as f64 * q).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

fn main() {
    let udp: bool = flag("--udp");
    let n_queries: usize = arg("--queries", 200_000);
    let clients: usize = arg("--clients", 4);
    // Datagram replies must fit one datagram, so UDP batches default
    // far smaller than the pipelined TCP sweet spot.
    let batch: usize = arg("--batch", if udp { 64 } else { 512 });
    let depth: usize = arg("--depth", 4);
    let shards: usize = arg("--shards", 1);
    let scale: String = arg("--scale", "test".to_string());
    let connect: String = arg("--connect", String::new());
    let ring: u32 = arg("--ring", 64);
    let connections: usize = arg("--connections", 0);
    assert!(clients >= 1 && batch >= 1 && depth >= 1);
    assert!(
        (1..=u16::MAX as usize).contains(&shards),
        "--shards must be 1..=65535"
    );
    let hold: usize = arg("--hold", 0);
    if hold > 0 {
        let addr = connect.parse().expect("--hold needs --connect ip:port");
        run_idle_holder(hold, addr);
    }
    if connections > 0 {
        assert!(connect.is_empty(), "--connections is an in-process mode");
        run_conn_soak(connections, n_queries, clients, batch, depth, ring);
    }
    if udp {
        run_udp(n_queries, clients, batch, ring, connect);
    }

    // An owned server (in-process mode) plus the delta to land on it
    // mid-run; --connect mode drives a remote instead.
    let mut server: Option<NetServer> = None;
    let mut delta: Option<AtlasDelta> = None;
    let (addr, pairs) = if connect.is_empty() {
        let sc = Scenario::build(match scale.as_str() {
            "experiment" => ScenarioConfig::experiment(99),
            _ => ScenarioConfig::test(99),
        });
        eprintln!("scenario: {}", sc.summary());
        let (_, atlas1) = sc.atlas_for_day(1);
        let d = AtlasDelta::between(&sc.atlas, &atlas1);
        // Validate against the atlas the delta *produces* (deltas
        // quantise), which is what the engine serves post-swap.
        let atlas1_applied = d.apply(&sc.atlas).expect("delta applies to day 0");
        delta = Some(d);
        let pairs = scenario_pairs(&sc, &atlas1_applied, n_queries);

        // Every shard serves the scenario's day-0 atlas, sized by the
        // registry's own budget split — so a `--shards N` run measures
        // exactly the configuration a real N-shard inano-serve would
        // deploy.
        let atlas0 = Arc::new(sc.atlas.clone());
        let specs = (0..shards)
            .map(|s| ShardSpec {
                id: ShardId(s as u16),
                atlas: Arc::clone(&atlas0),
                predictor: PredictorConfig::full(),
            })
            .collect();
        let registry = Arc::new(
            ShardRegistry::build(specs, RegistryConfig::default()).expect("build shard registry"),
        );
        let srv = NetServer::bind("127.0.0.1:0", registry, ServerConfig::default())
            .expect("bind loopback server");
        let addr = srv.local_addr();
        eprintln!("in-process server on {addr} ({shards} shard(s))");
        server = Some(srv);
        (addr, pairs)
    } else {
        let addr = connect.parse().expect("--connect ADDR must be ip:port");
        eprintln!("driving external server {addr} (ring {ring}, {shards} shard(s))");
        // Every requested shard must exist and answer epoch before the
        // clocks start; a missing shard fails here, not mid-run.
        let mut probe = NetClient::connect(addr).expect("probe connect");
        for s in 0..shards {
            probe
                .epoch_on(ShardId(s as u16))
                .unwrap_or_else(|e| panic!("shard {s} not served at {addr}: {e}"));
        }
        (addr, ring_pairs(ring, n_queries))
    };

    // Split the pair stream across client threads.
    let shares: Vec<Vec<(Ipv4, Ipv4)>> = (0..clients)
        .map(|c| {
            pairs
                .iter()
                .skip(c)
                .step_by(clients)
                .copied()
                .collect::<Vec<_>>()
        })
        .collect();
    let issued_total = Arc::new(AtomicU64::new(0));

    // In-process: land the day-1 delta on shard 0 only once half the
    // load is issued, from its own thread, so the swap genuinely
    // overlaps remote batches in flight — on the swapped shard and on
    // every shard that must *not* notice.
    let swap_thread = server.as_ref().map(|srv| {
        let registry = Arc::clone(srv.registry());
        let delta = delta.take().expect("in-process mode built a delta");
        let issued = Arc::clone(&issued_total);
        let trigger = (n_queries / 2) as u64;
        std::thread::spawn(move || {
            while issued.load(Ordering::Relaxed) < trigger {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            let t0 = Instant::now();
            let day = registry
                .apply_delta(ShardId(0), &delta)
                .expect("delta applies");
            eprintln!(
                "hot swap of shard 0 to day {day} in {:.1} ms, {} queries issued",
                t0.elapsed().as_secs_f64() * 1e3,
                issued.load(Ordering::Relaxed),
            );
        })
    });

    let t0 = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .enumerate()
            .map(|(c, share)| {
                let issued_total = Arc::clone(&issued_total);
                let shard = ShardId((c % shards) as u16);
                scope.spawn(move || drive(addr, shard, share, batch, depth, &issued_total))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    if let Some(h) = swap_thread {
        h.join().expect("swap thread");
    }

    let served: u64 = tallies.iter().map(|t| t.served).sum();
    let faults: u64 = tallies.iter().map(|t| t.faults).sum();
    let rejected: u64 = tallies.iter().map(|t| t.rejected).sum();
    let mut request_us: Vec<u64> = tallies.iter().flat_map(|t| t.request_us.clone()).collect();
    request_us.sort_unstable();
    let qps = (served + faults) as f64 / elapsed;
    let p50 = quantile(&request_us, 0.50);
    let p99 = quantile(&request_us, 0.99);

    let mut swaps = 0u64;
    let mut epoch = 0u64;
    if let Some(srv) = &server {
        // The swap must be visible over the wire: a fresh client sees
        // the bumped epoch and the day-1 atlas on shard 0 — and *only*
        // on shard 0; every other shard still serves epoch 0, day 0.
        let mut probe = NetClient::connect(addr).expect("probe connect");
        let (e, day) = probe.epoch().expect("epoch over the wire");
        assert_eq!(e, 1, "post-swap epoch visible to remote clients");
        assert_eq!(day, 1, "post-swap day visible to remote clients");
        let listed = probe.shards().expect("shard listing over the wire");
        assert_eq!(listed.len(), shards, "server hosts the requested shards");
        for info in &listed {
            if info.shard == 0 {
                assert_eq!((info.epoch, info.day), (1, 1));
            } else {
                assert_eq!(
                    (info.epoch, info.day),
                    (0, 0),
                    "shard {} must not see shard 0's delta",
                    info.shard
                );
            }
        }
        // Observability, exercised under the load it just measured:
        // the unified dump's per-shard query counters must agree
        // exactly with what the loadgen issued, and a traced call
        // returns its stage breakdown.
        let dump = probe.metrics().expect("metrics dump over the wire");
        swaps = dump.counter("shard0.swaps");
        assert!(swaps >= 1, "the mid-load swap must have happened");
        assert_eq!(faults, 0, "no query may fail on any shard across the swap");
        epoch = e;
        let (hits, misses) = (
            dump.counter("shard0.cache.hits"),
            dump.counter("shard0.cache.misses"),
        );
        eprintln!(
            "shard 0 counters: {} queries, cache hit rate {:.3}, epoch {}, day {}",
            dump.counter("shard0.queries"),
            hits as f64 / (hits + misses).max(1) as f64,
            dump.gauge("shard0.epoch"),
            dump.gauge("shard0.day")
        );
        assert_eq!(
            dump.counter_sum(".queries"),
            served + faults,
            "the metrics dump accounts for every query issued"
        );
        let (reply, t) = probe.call_traced(&Frame::Ping).expect("traced ping");
        assert!(matches!(reply, Frame::Pong), "traced ping answers Pong");
        eprintln!(
            "traced ping: decode {}us, queue {}us, engine {}us, encode {}us",
            t.decode_us, t.queue_us, t.engine_us, t.encode_us
        );
        // Dropping the threshold to 0 logs the next request whatever
        // its latency — the drain below proves the ring is live.
        srv.slow_log().set_threshold_us(0);
        probe
            .query_batch(&pairs[..pairs.len().min(8)])
            .expect("slow-log probe batch");
        let slow = srv.slow_log().drain();
        assert!(!slow.is_empty(), "a zero threshold logs every request");
        eprintln!(
            "slow-log: {} entr{} drained, slowest {}us ({})",
            slow.len(),
            if slow.len() == 1 { "y" } else { "ies" },
            slow[0].latency_us,
            slow[0].what
        );
        srv.shutdown();
    }

    eprintln!(
        "served {served} queries ({faults} faults, {rejected} requests rejected by the \
         in-flight cap) in {elapsed:.2}s over {clients} \
         connections: {qps:.0} qps, request p50 {p50}us / p99 {p99}us \
         (batch {batch}, depth {depth})",
    );

    // The contract line: exactly one JSON record on stdout.
    println!(
        "{{\"bench\":\"net_throughput\",\"transport\":\"tcp\",\"qps\":{qps:.1},\
         \"p50_us\":{p50},\"p99_us\":{p99},\
         \"queries\":{},\"errors\":{faults},\"clients\":{clients},\"batch\":{batch},\
         \"depth\":{depth},\"shards\":{shards},\"rejected\":{rejected},\
         \"swaps\":{swaps},\"epoch\":{epoch}}}",
        served + faults,
    );
}
