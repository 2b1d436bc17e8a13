//! Spans recorded by the benchmark's own code around each call into a
//! layer. They stay in memory during the traced run and are written as
//! JSONL when it ends; nothing inside the program under test is
//! instrumented. A layer's self time is its span minus the part of it
//! its child spans cover.

use std::collections::HashMap;
use std::io::{self, Write};
use std::time::Instant;

/// The root span of every request.
pub const ROOT: &str = "load.request";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Name of the span that caused this one; `None` for [`ROOT`].
    pub parent: Option<&'static str>,
    /// Request id: spans of one request share it.
    pub req: u64,
}

/// One thread's span buffer; merged by [`SpanLog::absorb`] at the end.
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// All logs of a run share `origin`, so their clocks agree.
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the run's origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.record_ns(name, parent, req, start_ns, end_ns);
    }

    pub fn record_ns(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            req,
        });
    }

    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// One JSON object per line: `name,start_ns,end_ns,parent,req`.
    pub fn write_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            let parent = match s.parent {
                Some(p) => format!("\"{p}\""),
                None => "null".to_string(),
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        Ok(())
    }
}

/// Self time of `span` given the spans of the same request: its
/// duration minus the union of its direct children's intervals,
/// clipped to the span (children may overlap each other, and a child
/// reconstructed from server-reported durations may poke outside).
pub fn self_time_ns(span: &Span, same_request: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = same_request
        .iter()
        .filter(|c| c.parent == Some(span.name) && c.req == span.req)
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (s, e) in kids {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

/// Per span name: every request's self time, in nanoseconds.
pub fn self_times_by_name(spans: &[Span]) -> HashMap<&'static str, Vec<u64>> {
    let mut by_req: HashMap<u64, Vec<Span>> = HashMap::new();
    for s in spans {
        by_req.entry(s.req).or_default().push(*s);
    }
    let mut out: HashMap<&'static str, Vec<u64>> = HashMap::new();
    for group in by_req.values() {
        for s in group {
            out.entry(s.name).or_default().push(self_time_ns(s, group));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<&'static str>, s: u64, e: u64) -> Span {
        Span {
            name,
            start_ns: s,
            end_ns: e,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_child_cover() {
        let root = span(ROOT, None, 0, 100);
        let group = [
            root,
            span("client.encode", Some(ROOT), 0, 10),
            span("client.send", Some(ROOT), 10, 15),
            span("client.wait", Some(ROOT), 15, 90),
            // A grandchild does not count against the root.
            span("srv.engine", Some("client.wait"), 40, 80),
        ];
        assert_eq!(self_time_ns(&root, &group), 100 - (10 + 5 + 75));
        assert_eq!(self_time_ns(&group[3], &group), 75 - 40);
        assert_eq!(self_time_ns(&group[4], &group), 40);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let root = span(ROOT, None, 100, 200);
        let group = [
            root,
            span("a", Some(ROOT), 110, 150),
            span("b", Some(ROOT), 140, 160), // overlaps a by 10
            span("c", Some(ROOT), 190, 250), // hangs over the end by 50
            span("d", Some(ROOT), 50, 90),   // entirely outside
        ];
        // cover = [110,160) ∪ [190,200) = 60
        assert_eq!(self_time_ns(&root, &group), 40);
    }

    #[test]
    fn children_of_another_request_are_ignored() {
        let root = span(ROOT, None, 0, 100);
        let mut other = span("client.wait", Some(ROOT), 0, 100);
        other.req = 2;
        assert_eq!(self_time_ns(&root, &[root, other]), 100);
    }

    #[test]
    fn self_times_group_by_request_and_jsonl_names_every_field() {
        let origin = Instant::now();
        let mut log = SpanLog::new(origin);
        log.record_ns(ROOT, None, 1, 0, 100);
        log.record_ns("client.wait", Some(ROOT), 1, 20, 80);
        log.record_ns(ROOT, None, 2, 100, 150);
        let by = self_times_by_name(&log.spans);
        let mut roots = by[ROOT].clone();
        roots.sort_unstable();
        assert_eq!(roots, vec![40, 50]);
        assert_eq!(by["client.wait"], vec![60]);

        let mut out = Vec::new();
        log.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"name\":\"load.request\",\"start_ns\":0,\"end_ns\":100,\"parent\":null,\"req\":1}"
        );
        assert!(lines[1].contains("\"parent\":\"load.request\""));
    }
}
