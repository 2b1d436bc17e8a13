//! The metric vocabulary — every name `BENCHMARK.json` lists, with its
//! unit — and the records a run prints: a full one naming everything
//! it measured, and the driver's contract line (the last line of
//! standard output).

use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change is a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// What a user of the system sees. Two things a reader may miss here:
///
/// * Failures are not a metric. Every pair is validated before the run,
///   so one failed pair makes the run incorrect; `fail_ratio` is the
///   contract line's `failed` ÷ `attempted`.
/// * No tail percentile. On a shared host the whole-window p90 and p99
///   of an honest open loop, and the p99 of `day_roll`, are set by how
///   much of the window the hypervisor took away (README,
///   "Repeatability"); a metric that cannot hold a bound on every
///   workload cannot carry one, so they are reported without, as
///   `load.req_p90_us` and `load.req_p99_us`.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("pairs_per_s", "1/s", Better::Higher, 0.25),
    e2e("req_p50_us", "us", Better::Lower, 0.25),
];

/// Single-layer measurements from the traced run: the ladder rungs,
/// the server's own counters over the measured window, and the load
/// generator's account of itself.
pub const PER_LAYER: [MetricDef; 68] = [
    // atlas
    lower("atlas.bytes", "bytes"),
    lower("atlas.delta_bytes", "bytes"),
    lower("atlas.encode_ms", "ms"),
    lower("atlas.decode_ms", "ms"),
    lower("atlas.delta_apply_ms", "ms"),
    lower("atlas.delta_decode_ms", "ms"),
    // core
    lower("core.predictor_build_ms", "ms"),
    lower("core.resolve_ns", "ns"),
    lower("core.search_cold_us", "us"),
    lower("core.search_warm_us", "us"),
    // service
    lower("service.cache_get_ns", "ns"),
    lower("service.cache_insert_ns", "ns"),
    higher("service.cache_hit_ratio", "ratio"),
    lower("service.cache_evictions", "count"),
    lower("service.query_inline_ns", "ns"),
    lower("service.batch_inline_ns", "ns"),
    lower("service.batch_pooled_ns", "ns"),
    lower("service.apply_delta_ms", "ms"),
    lower("service.export_ms", "ms"),
    lower("service.update_ms", "ms"),
    // net: codec in memory
    lower("net.wire.encode_req_ns", "ns"),
    lower("net.wire.decode_req_ns", "ns"),
    lower("net.wire.encode_reply_ns", "ns"),
    lower("net.wire.decode_reply_ns", "ns"),
    lower("net.wire.bytes_per_pair", "bytes"),
    // net: loopback, unloaded
    lower("net.tcp.ping_rtt_us", "us"),
    lower("net.udp.ping_rtt_us", "us"),
    lower("net.tcp.batch_rtt_us", "us"),
    lower("net.udp.batch_rtt_us", "us"),
    lower("net.srv.decode_us", "us"),
    lower("net.srv.queue_us", "us"),
    lower("net.srv.engine_us", "us"),
    lower("net.srv.encode_us", "us"),
    lower("net.client_share_us", "us"),
    // net: the serving process's counters over the measured window
    lower("net.loop.wakeups_per_req", "count"),
    lower("net.loop.ready_events_p50", "count"),
    lower("net.srv.overloaded", "count"),
    lower("net.srv.faults", "count"),
    higher("net.udp.datagrams_in", "count"),
    higher("net.udp.datagrams_out", "count"),
    lower("net.udp.shed", "count"),
    lower("net.udp.truncated", "count"),
    // obs
    lower("obs.dump_us", "us"),
    lower("obs.journal_lost", "count"),
    // spans of the traced window: median self time per request
    lower("span.request_self_us", "us"),
    lower("span.client_encode_us", "us"),
    lower("span.client_send_us", "us"),
    lower("span.client_wait_us", "us"),
    lower("span.client_decode_us", "us"),
    // the load generator and the process as a whole
    lower("load.cpu_user_s", "s"),
    lower("load.cpu_sys_s", "s"),
    higher("load.cpu_busy_ratio", "ratio"),
    lower("load.cpu_us_per_pair", "us"),
    lower("load.cpu_steal_ratio", "ratio"),
    lower("load.vol_ctxsw_per_req", "count"),
    lower("load.rss_peak_mb", "MiB"),
    lower("load.trace_overhead_ratio", "ratio"),
    lower("load.req_p90_us", "us"),
    lower("load.req_p99_us", "us"),
    lower("load.gen_late_us_p99", "us"),
    lower("load.slo_miss_ratio", "ratio"),
    lower("load.err_nopath", "count"),
    lower("load.err_overloaded", "count"),
    lower("load.err_io", "count"),
    lower("load.err_other", "count"),
    lower("load.lost", "count"),
    lower("load.mismatch", "count"),
    lower("load.input_changed", "count"),
];

/// Measured values keyed by metric name, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.get(name).is_none(),
            "metric {name} measured twice in one run"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn extend(&mut self, other: Values) {
        for (n, v) in other.0 {
            self.set(n, v);
        }
    }
}

/// A JSON number: finite values as Rust prints them (shortest form
/// that round-trips, every measured digit), anything else as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for exactly the metrics
/// in `defs`, in table order. Panics when a run failed to measure one:
/// a record that silently lacks a metric would read as a pass.
pub fn metrics_json(defs: &[MetricDef], values: &Values) -> String {
    let mut out = String::from("{");
    for (i, def) in defs.iter().enumerate() {
        let v = values
            .get(def.name)
            .unwrap_or_else(|| panic!("run measured no {}", def.name));
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            num(v),
            def.unit
        )
        .expect("write to string");
    }
    out.push('}');
    out
}

/// The driver's line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_json(defs, values)
    )
}

/// Escape a string for a JSON value.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "..."` / `"unit": "..."` pair inside the array
    /// under `key` of the checked-in `BENCHMARK.json`.
    fn listed(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |obj: &str, name: &str| -> Option<String> {
            let at = obj.find(&format!("\"{name}\""))?;
            let rest = &obj[at + name.len() + 2..];
            let open = rest.find('"')? + 1;
            let close = open + rest[open..].find('"')?;
            Some(rest[open..close].to_string())
        };
        body.split('{')
            .skip(1)
            .map(|obj| {
                (
                    field(obj, "name").expect("metric has a name"),
                    field(obj, "unit").unwrap_or_default(),
                )
            })
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json_name_for_name() {
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let text = include_str!("../../BENCHMARK.json");
        for def in END_TO_END {
            let entry = format!(
                "\"better\": \"{}\", \"bound\": {}}}",
                def.better.as_str(),
                def.bound
            );
            let at = text.find(&format!("\"name\": \"{}\"", def.name)).unwrap();
            let line = &text[at..at + text[at..].find('}').unwrap() + 1];
            assert!(line.ends_with(&entry), "{line} vs {entry}");
        }
    }

    /// The `[profile.*]` tables of a manifest, comments and blank lines
    /// dropped.
    fn profile_tables(manifest: &str) -> Vec<&str> {
        let mut inside = false;
        manifest
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter(|l| {
                if l.starts_with('[') {
                    inside = l.starts_with("[profile");
                }
                inside
            })
            .collect()
    }

    #[test]
    fn the_benchmark_is_compiled_under_the_repositorys_profiles() {
        let own = profile_tables(include_str!("../Cargo.toml"));
        assert_eq!(own, profile_tables(include_str!("../../Cargo.toml")));
        assert!(own.contains(&"[profile.release]"), "{own:?}");
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(ok_name(def.name), "{}", def.name);
            assert!(ok_unit(def.unit), "{} unit {}", def.name, def.unit);
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn a_record_carries_every_listed_metric_exactly_once_with_its_unit() {
        let mut values = Values::default();
        for (i, def) in PER_LAYER.iter().enumerate() {
            values.set(def.name, i as f64 + 0.5);
        }
        let line = contract_line(true, 10, 0, &PER_LAYER, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        for def in PER_LAYER {
            let key = format!("\"{}\": {{\"value\": ", def.name);
            assert_eq!(line.matches(&key).count(), 1, "{}", def.name);
            let at = line.find(&key).unwrap();
            let entry = &line[at..at + line[at..].find('}').unwrap()];
            assert!(entry.ends_with(&format!("\"unit\": \"{}\"", def.unit)));
        }
        // Metrics outside the requested table stay out of the line.
        values.set("setup_s", 1.0);
        assert!(!contract_line(true, 1, 0, &PER_LAYER, &values).contains("setup_s"));
    }

    #[test]
    #[should_panic(expected = "measured no req_p50_us")]
    fn a_missing_metric_fails_loudly() {
        let mut values = Values::default();
        for def in &END_TO_END[..2] {
            values.set(def.name, 1.0);
        }
        metrics_json(&END_TO_END, &values);
    }

    #[test]
    fn numbers_keep_their_digits_and_strings_escape() {
        assert_eq!(num(1.2034), "1.2034");
        assert_eq!(num(0.000_000_12), "0.00000012");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
