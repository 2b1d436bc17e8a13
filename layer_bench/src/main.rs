//! `layer_bench`: one seeded workload, every layer, measured from
//! outside. See `README.md` beside this file for the metric glossary,
//! the layer → end-to-end table and how to read the span file.
//!
//! ```text
//! layer_bench --workload hot_stream|hot_dgram|cold_lib|day_roll
//!             [--seed N] [--seconds N] [--trace 0|1] [--trace-out FILE]
//!             [--repeat N] [--smoke]
//! ```
//!
//! Standard output ends with the driver's line — `correct`,
//! `attempted`, `failed`, `metrics` — carrying the end-to-end metrics
//! (`--trace 0`) or the per-layer ones (`--trace 1`). The line before
//! it is the full record: every metric the run measured, with units,
//! sample counts and the workload fingerprint.

mod inputs;
mod ladder;
mod load;
mod record;
mod spans;
mod stats;
mod sys;
mod workloads;

use load::Tally;
use record::{contract_line, json_str, metrics_json, Values, END_TO_END, PER_LAYER};
use spans::{self_times_by_name, ROOT};
use stats::{median, spread, supports};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{RunConfig, RunOutcome, Workload, DEFAULT_SEED, WORKLOADS};

/// Seconds of measurement when `--seconds` is not given; the value
/// `BENCHMARK.json` fixes as `run_seconds`.
const DEFAULT_SECONDS: u64 = 15;
const WARM_UP: Duration = Duration::from_secs(3);
/// Cold starts timed before the windows open; `setup_s` is their median.
const SETUP_REPS: usize = 31;

struct Cli {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    trace_out: Option<PathBuf>,
    repeat: usize,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    format!(
        "usage: layer_bench --workload {} [--seed N] [--seconds N] [--trace 0|1] \
         [--trace-out FILE] [--repeat N] [--smoke]",
        names.join("|")
    )
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: Workload::HotStream,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        trace_out: None,
        repeat: 1,
        smoke: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: {v} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => cli.seed = number(value("a seed")?)?,
            "--seconds" => cli.seconds = number(value("a duration")?)?.max(1),
            "--trace" => cli.traced = number(value("0 or 1")?)? != 0,
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value("a file")?)),
            "--repeat" => cli.repeat = number(value("a count")?)?.max(1) as usize,
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    cli.workload = workload.ok_or("no --workload given")?;
    Ok(cli)
}

fn run_config(cli: &Cli) -> RunConfig {
    if cli.smoke {
        // Does-it-run check: every phase shrunk, too short to compare.
        RunConfig {
            workload: cli.workload,
            seed: cli.seed,
            warm: Duration::from_secs(1),
            seconds: Duration::from_secs(2),
            traced: cli.traced,
            setup_reps: 5,
        }
    } else {
        RunConfig {
            workload: cli.workload,
            seed: cli.seed,
            warm: WARM_UP,
            seconds: Duration::from_secs(cli.seconds),
            traced: cli.traced,
            setup_reps: SETUP_REPS,
        }
    }
}

/// The request-level end-to-end figures of one window, each over the
/// whole of it. An open loop's throughput is its schedule's, whatever
/// the server does, so under a latency `limit` only the answers that
/// met it count.
fn window_metrics(
    tally: &Tally,
    window: Duration,
    limit: Option<Duration>,
) -> [(&'static str, f64); 2] {
    let all = tally.latencies();
    let limit_ns = limit.map_or(u64::MAX, |l| l.as_nanos() as u64);
    let pairs_in_time: u64 = tally
        .answered
        .iter()
        .filter(|a| a.lat_ns <= limit_ns)
        .map(|a| a.pairs_ok as u64)
        .sum();
    [
        ("pairs_per_s", pairs_in_time as f64 / window.as_secs_f64()),
        ("req_p50_us", stats::percentile_of(&all, 0.50) as f64 / 1e3),
    ]
}

/// Slices the full record cuts a window into for its noise diagnostic.
const DIAGNOSTIC_SLICES: usize = 10;

/// The p99 latency, µs, of the requests that completed in each of
/// `slices` equal slices of a window (0 for an empty one). Not a metric:
/// printed in the full record so a reader can tell a window whose tail
/// was set by one pause from one that was slow throughout.
fn slice_p99_us(tally: &Tally, window: Duration, slices: usize) -> Vec<f64> {
    let slice_ns = (window.as_nanos() as u64 / slices as u64).max(1);
    let mut lat: Vec<Vec<u64>> = vec![Vec::new(); slices];
    for a in &tally.answered {
        lat[((a.at_ns / slice_ns) as usize).min(slices - 1)].push(a.lat_ns);
    }
    lat.iter()
        .map(|l| stats::percentile_of(l, 0.99) as f64 / 1e3)
        .collect()
}

struct Report {
    values: Values,
    attempted: u64,
    failed: u64,
    correct: bool,
    full: String,
}

fn median_us(ns: Option<&Vec<u64>>) -> f64 {
    let us: Vec<f64> = ns
        .map(|v| v.iter().map(|&n| n as f64 / 1e3).collect())
        .unwrap_or_default();
    median(&us)
}

/// Turn what the run saw into named metrics and the full record.
fn report(cfg: &RunConfig, out: &RunOutcome) -> Report {
    let mut values = Values::default();
    let win = &out.win;
    let (reference, main) = (&out.tallies.reference, &out.tallies.main);

    let mut errs = out.gate.errs;
    errs.merge(&reference.errs);
    errs.merge(&main.errs);
    let attempted = reference.pairs_attempted + main.pairs_attempted + out.gate.attempted;
    let failed = errs.total();

    // End to end. A traced run's own end-to-end figures come from its
    // untraced reference stretch and appear in the full record only.
    let (e2e_tally, e2e_window) = if cfg.traced {
        (reference, win.reference)
    } else {
        (main, win.main)
    };
    values.set("setup_s", median(&out.setup_s));
    for (name, v) in window_metrics(e2e_tally, e2e_window, out.limit) {
        values.set(name, v);
    }
    let cpu_s = out.usage.user_s + out.usage.sys_s;
    let window_s = (win.reference + win.main).as_secs_f64();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let steal_ratio = out.usage.steal_s / (window_s * cores);

    let input_changed = cfg.seed == DEFAULT_SEED && out.tag != cfg.workload.pinned_tag();
    if cfg.traced {
        values.extend(out.layer.clone());
        let by_name = out
            .spans
            .as_ref()
            .map(|log| self_times_by_name(&log.spans))
            .unwrap_or_default();
        values.set("span.request_self_us", median_us(by_name.get(ROOT)));
        for (metric, span) in [
            ("span.client_encode_us", "client.encode"),
            ("span.client_send_us", "client.send"),
            ("span.client_wait_us", "client.wait"),
            ("span.client_decode_us", "client.decode"),
        ] {
            values.set(metric, median_us(by_name.get(span)));
        }

        let swap_median = |f: fn(&workloads::SwapTiming) -> f64| {
            median(&out.swaps.iter().map(f).collect::<Vec<_>>())
        };
        values.set("service.apply_delta_ms", swap_median(|s| s.apply_delta_ms));
        values.set("service.export_ms", swap_median(|s| s.export_ms));
        values.set("service.update_ms", swap_median(|s| s.update_ms));

        let requests = (reference.requests + main.requests).max(1) as f64;
        values.set("load.cpu_user_s", out.usage.user_s);
        values.set("load.cpu_sys_s", out.usage.sys_s);
        values.set("load.cpu_busy_ratio", cpu_s / (window_s * cores));
        // What the open loop has in place of a throughput: its schedule
        // fixes how many pairs are asked, this is what each one costs.
        values.set(
            "load.cpu_us_per_pair",
            cpu_s * 1e6 / (reference.pairs_ok + main.pairs_ok).max(1) as f64,
        );
        values.set("load.cpu_steal_ratio", steal_ratio);
        values.set(
            "load.vol_ctxsw_per_req",
            out.usage.vol_ctxsw as f64 / requests,
        );
        values.set("load.rss_peak_mb", sys::rss_peak_mb());
        let p50 = |t: &Tally| stats::percentile_of(&t.latencies(), 0.50) as f64;
        values.set(
            "load.trace_overhead_ratio",
            (p50(main) - p50(reference)) / p50(reference).max(1.0),
        );
        // The tail, whole-window and unbounded (see `record::END_TO_END`);
        // over both stretches, for the sample.
        let mut all = reference.latencies();
        all.extend(main.latencies());
        all.sort_unstable();
        values.set(
            "load.req_p90_us",
            stats::percentile(&all, 0.90) as f64 / 1e3,
        );
        values.set(
            "load.req_p99_us",
            stats::percentile(&all, 0.99) as f64 / 1e3,
        );
        let mut late = reference.late_ns.clone();
        late.extend(&main.late_ns);
        values.set(
            "load.gen_late_us_p99",
            stats::percentile_of(&late, 0.99) as f64 / 1e3,
        );
        // Only the open loop works under a latency limit.
        let misses = out.limit.map_or(0, |limit| {
            reference.slo_misses(limit, out.batch) + main.slo_misses(limit, out.batch)
        });
        values.set("load.slo_miss_ratio", misses as f64 / requests);
        values.set("load.err_nopath", errs.nopath as f64);
        values.set("load.err_overloaded", errs.overloaded as f64);
        values.set("load.err_io", errs.io as f64);
        values.set("load.err_other", errs.other as f64);
        values.set("load.lost", errs.lost as f64);
        values.set("load.mismatch", errs.mismatch as f64);
        values.set("load.input_changed", u64::from(input_changed) as f64);
    }

    // The full record: everything measured, named, with units.
    let mut full = format!(
        "{{\"bench\": \"layer_bench\", \"workload\": {}, \"seed\": {}, \
         \"workload_tag\": \"{:#018x}\", \"input_changed\": {input_changed}, \
         \"traced\": {}, \"warm_s\": {}, \"reference_s\": {}, \"main_s\": {}, \
         \"load_threads\": {}, \"setup_reps\": {}",
        json_str(cfg.workload.name()),
        cfg.seed,
        out.tag,
        cfg.traced,
        win.warm.as_secs_f64(),
        win.reference.as_secs_f64(),
        win.main.as_secs_f64(),
        workloads::load_threads(),
        out.setup_s.len(),
    );
    for (label, tally) in [("reference", reference), ("main", main)] {
        full.push_str(&format!(
            ", \"{label}\": {{\"requests\": {}, \"pairs_attempted\": {}, \"pairs_ok\": {}, \
             \"p99_supported\": {}}}",
            tally.requests,
            tally.pairs_attempted,
            tally.pairs_ok,
            supports(tally.answered.len(), 0.99),
        ));
    }
    full.push_str(&format!(
        ", \"gate_pairs\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"fail_ratio\": {}, \"failed_by_cause\": {{\"nopath\": {}, \"overloaded\": {}, \
         \"io\": {}, \"other\": {}, \"lost\": {}, \"mismatch\": {}}}",
        out.gate.attempted,
        failed as f64 / attempted.max(1) as f64,
        errs.nopath,
        errs.overloaded,
        errs.io,
        errs.other,
        errs.lost,
        errs.mismatch,
    ));
    full.push_str(&format!(", \"cpu_steal_ratio\": {steal_ratio}"));
    for (key, value) in &out.info {
        full.push_str(&format!(", \"{key}\": {}", json_str(value)));
    }
    let sorted = {
        let mut l = e2e_tally.latencies();
        l.sort_unstable();
        l
    };
    let ladder: Vec<String> = [
        ("p50", 0.50),
        ("p90", 0.90),
        ("p95", 0.95),
        ("p99", 0.99),
        ("p99.9", 0.999),
        ("max", 1.0),
    ]
    .iter()
    .map(|&(label, q)| {
        format!(
            "\"{label}\": {}",
            stats::percentile(&sorted, q) as f64 / 1e3
        )
    })
    .collect();
    full.push_str(&format!(", \"latency_us\": {{{}}}", ladder.join(", ")));
    let per_slice: Vec<String> = slice_p99_us(e2e_tally, e2e_window, DIAGNOSTIC_SLICES)
        .iter()
        .map(|v| format!("{v}"))
        .collect();
    full.push_str(&format!(", \"slice_p99_us\": [{}]", per_slice.join(", ")));
    let swaps: Vec<String> = out
        .swaps
        .iter()
        .map(|s| {
            format!(
                "{{\"apply_delta_ms\": {}, \"export_ms\": {}, \"update_ms\": {}}}",
                s.apply_delta_ms, s.export_ms, s.update_ms
            )
        })
        .collect();
    full.push_str(&format!(", \"swaps\": [{}]", swaps.join(", ")));
    let mut defs = END_TO_END.to_vec();
    if cfg.traced {
        defs.extend(PER_LAYER);
    }
    full.push_str(&format!(
        ", \"metrics\": {}}}",
        metrics_json(&defs, &values)
    ));

    Report {
        values,
        attempted,
        failed,
        // Every pair was validated routable before the run, so a single
        // failure of any kind is a wrong output, not a slow one.
        correct: failed == 0,
        full,
    }
}

fn write_spans(out: &RunOutcome, path: &PathBuf) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    if let Some(log) = &out.spans {
        log.write_jsonl(&mut w)?;
    }
    w.flush()
}

fn run_once(cli: &Cli) -> ExitCode {
    let cfg = run_config(cli);
    let out = workloads::run(&cfg);
    let rep = report(&cfg, &out);
    if let Some(path) = &cli.trace_out {
        if let Err(e) = write_spans(&out, path) {
            eprintln!("layer_bench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", rep.full);
    let defs: &[_] = if cfg.traced { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        contract_line(rep.correct, rep.attempted, rep.failed, defs, &rep.values)
    );
    if rep.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "layer_bench: {} of {} pre-validated pairs failed",
            rep.failed, rep.attempted
        );
        ExitCode::FAILURE
    }
}

/// `--repeat N`: the same workload and seed N times; per end-to-end
/// metric the median, quartiles and (max − min) ÷ median, failing when
/// a range exceeds the metric's bound.
fn run_repeated(cli: &Cli) -> ExitCode {
    let cfg = RunConfig {
        traced: false,
        ..run_config(cli)
    };
    let mut runs: Vec<Values> = Vec::new();
    let mut correct = true;
    for i in 0..cli.repeat {
        let rep = report(&cfg, &workloads::run(&cfg));
        eprintln!("run {}/{}: {}", i + 1, cli.repeat, rep.full);
        correct &= rep.correct;
        runs.push(rep.values);
    }
    let mut within = true;
    let mut rows = Vec::new();
    for def in END_TO_END {
        let series: Vec<f64> = runs
            .iter()
            .map(|v| v.get(def.name).expect("every run reports every metric"))
            .collect();
        if series.len() < 2 {
            continue;
        }
        let s = spread(&series);
        let ok = s.range_ratio <= def.bound;
        within &= ok;
        eprintln!(
            "{:<12} median {:>14.4} {:<5} q1 {:>14.4} q3 {:>14.4}  iqr/median {:.4}  \
             range/median {:.4}  bound {}  {}",
            def.name,
            s.median,
            def.unit,
            s.q1,
            s.q3,
            s.iqr_ratio,
            s.range_ratio,
            def.bound,
            if ok { "ok" } else { "EXCEEDED" },
        );
        rows.push(format!(
            "\"{}\": {{\"unit\": \"{}\", \"better\": \"{}\", \"median\": {}, \"q1\": {}, \
             \"q3\": {}, \"iqr_ratio\": {}, \"range_ratio\": {}, \"bound\": {}, \"within\": {ok}}}",
            def.name,
            def.unit,
            def.better.as_str(),
            s.median,
            s.q1,
            s.q3,
            s.iqr_ratio,
            s.range_ratio,
            def.bound,
        ));
    }
    println!(
        "{{\"bench\": \"layer_bench\", \"workload\": {}, \"seed\": {}, \"runs\": {}, \
         \"correct\": {correct}, \"within_bounds\": {within}, \"metrics\": {{{}}}}}",
        json_str(cli.workload.name()),
        cli.seed,
        cli.repeat,
        rows.join(", ")
    );
    if correct && within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("layer_bench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if cli.repeat > 1 {
        run_repeated(&cli)
    } else {
        run_once(&cli)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = parse_cli(&args("--workload day_roll --seed 7 --seconds 15 --trace 1")).unwrap();
        assert_eq!(cli.workload, Workload::DayRoll);
        assert_eq!((cli.seed, cli.seconds, cli.traced), (7, 15, true));
        let cli = parse_cli(&args("--workload cold_lib --trace 0")).unwrap();
        assert_eq!(
            (cli.seed, cli.seconds, cli.traced),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
    }

    #[test]
    fn bad_command_lines_are_refused_not_defaulted() {
        assert!(parse_cli(&args("--seed 7")).is_err(), "no workload");
        assert!(parse_cli(&args("--workload warm_stream")).is_err());
        assert!(parse_cli(&args("--workload cold_lib --seed x")).is_err());
        assert!(parse_cli(&args("--workload cold_lib --seed")).is_err());
        assert!(parse_cli(&args("--workload cold_lib --fast")).is_err());
    }

    #[test]
    fn smoke_shrinks_every_phase() {
        let cli = parse_cli(&args("--workload hot_dgram --smoke --seconds 30")).unwrap();
        let cfg = run_config(&cli);
        assert_eq!(cfg.seconds, Duration::from_secs(2));
        assert!(cfg.warm < WARM_UP && cfg.setup_reps < SETUP_REPS);
    }

    #[test]
    fn every_window_figure_is_over_the_whole_window() {
        use load::Answered;
        // Three 1 s slices of 100 requests (10 pairs each, 1..=100 µs);
        // the middle slice caught a pause: half as many requests, each
        // 50 ms slower.
        let mut answered = Vec::new();
        for slice in 0..3u64 {
            let n = if slice == 1 { 50 } else { 100 };
            for i in 1..=n {
                answered.push(Answered {
                    at_ns: slice * 1_000_000_000 + i * 1_000_000,
                    lat_ns: i * 1_000 + if slice == 1 { 50_000_000 } else { 0 },
                    pairs_ok: 10,
                });
            }
        }
        let tally = Tally {
            answered,
            pairs_ok: 2_500,
            ..Tally::default()
        };
        let window = Duration::from_secs(3);
        let m = window_metrics(&tally, window, None);
        assert_eq!(m[0], ("pairs_per_s", 2_500.0 / 3.0));
        // Under a 5 ms limit the paused slice's 50 answers come too late.
        let in_time = window_metrics(&tally, window, Some(Duration::from_millis(5)));
        assert_eq!(in_time[0], ("pairs_per_s", 2_000.0 / 3.0));
        assert_eq!(in_time[1..], m[1..]);
        assert_eq!(m[1], ("req_p50_us", 63.0));
        // The diagnostic tells the paused slice from the quiet ones.
        assert_eq!(slice_p99_us(&tally, window, 3), [99.0, 50_050.0, 99.0]);
    }
}
