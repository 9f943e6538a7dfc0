//! Span recording for the traced pass.
//!
//! Spans are kept in memory — a `Vec` push per span, no I/O, no locks — and
//! written once, as JSON lines, when the benchmark exits. Every span wraps a
//! call into one of the program's public functions from the benchmark's own
//! code; nothing inside the program is instrumented.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` indexes the enclosing span in the same
/// list; spans of one request, series or scan share a `trace_id`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub trace_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans against a fixed origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns_since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Time `body` as a span named `name`, nested under whichever span is
    /// open; spans `body` opens through the tracer become its children.
    pub fn span<T>(&mut self, name: &str, trace_id: u64, body: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.ns_since_origin(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            trace_id,
        });
        self.open.push(idx);
        let out = body(self);
        self.open.pop();
        let end_ns = self.ns_since_origin(Instant::now());
        self.spans[idx].end_ns = end_ns;
        out
    }

    /// Record a span whose endpoints were taken elsewhere; returns its
    /// index for use as a parent.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        trace_id: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns_since_origin(start),
            end_ns: self.ns_since_origin(end),
            parent,
            trace_id,
        });
        self.spans.len() - 1
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Move `from` (recorded against another origin, e.g. in a child process)
/// onto the end of `into`, shifting times by `offset_ns` and re-basing
/// parent indices.
pub fn append(into: &mut Vec<Span>, from: Vec<Span>, offset_ns: u64) {
    let base = into.len();
    into.extend(from.into_iter().map(|s| Span {
        start_ns: s.start_ns + offset_ns,
        end_ns: s.end_ns + offset_ns,
        parent: s.parent.map(|p| p + base),
        ..s
    }));
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (two
/// client threads under one parent); the covered part is their union,
/// clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time in seconds, summed per span name.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name.clone()).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

/// Durations in seconds of every span named `name`.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect()
}

/// Write the spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::with_capacity(spans.len() * 96);
    for span in spans {
        let line = serde_json::to_string(span).map_err(std::io::Error::other)?;
        text.push_str(&line);
        text.push('\n');
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            trace_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two overlapping children cover 10..50; a third sticks out
            // past the parent's end and is clipped to 90..100.
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 90, 130, Some(0)),
            // A grandchild counts against its own parent only.
            span("d", 12, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 22, 20, 40, 8]);
        let by_name = self_seconds_by_name(&spans);
        assert!((by_name["root"] - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_spans_record_parents_and_append_rebases_them() {
        let mut tracer = Tracer::new(Instant::now());
        let value = tracer.span("outer", 7, |t| t.span("inner", 7, |_| 42));
        assert_eq!(value, 42);
        let spans = tracer.into_spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut all = vec![span("earlier", 0, 1, None)];
        append(&mut all, spans, 1_000);
        assert_eq!(all[2].parent, Some(1));
        assert!(all[1].start_ns >= 1_000);
    }
}
