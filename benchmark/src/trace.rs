//! Spans recorded from the bench's own files, around the calls into
//! each layer. Kept in memory while the run measures and written as
//! Chrome-trace JSON (loads in Perfetto / `chrome://tracing`) when the
//! trace stage ends.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::{number, quote};

/// Index of a recorded span.
pub type SpanId = usize;

/// Where a span's interval came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Timed by the bench around a public call.
    Bench,
    /// Taken from a duration in the report the call returned; its
    /// placement inside the parent is nominal.
    Report,
}

/// One span: name, interval, the span that caused it, the run it
/// belongs to, and counts recorded at the same boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: String,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
    /// The causing span.
    pub parent: Option<SpanId>,
    /// One id per traced run: spans of one operation share it.
    pub run: u32,
    /// Track: 0 the calling thread, `1 + i` worker `i`.
    pub track: u32,
    /// Measured or reported.
    pub source: Source,
    /// Counts at this boundary (bytes, ops, triangles…).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Record a finished span measured by the bench.
    pub fn record(
        &mut self,
        name: &str,
        run: u32,
        parent: Option<SpanId>,
        track: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent,
            run,
            track,
            source: Source::Bench,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Record a child whose duration a report returned, placed `offset`
    /// after its parent's start.
    pub fn record_reported(
        &mut self,
        name: &str,
        parent: SpanId,
        offset: Duration,
        duration: Duration,
    ) -> SpanId {
        let p = &self.spans[parent];
        let start = p.start + offset;
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start + duration,
            parent: Some(parent),
            run: p.run,
            track: p.track,
            source: Source::Report,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Close a span that was recorded before its end was known (a root
    /// whose children need its id).
    pub fn set_end(&mut self, span: SpanId, end: Instant) {
        self.spans[span].end = end.saturating_duration_since(self.origin);
    }

    /// Attach a count to a span.
    pub fn count(&mut self, span: SpanId, name: &'static str, value: f64) {
        self.spans[span].counts.push((name, value));
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of `span`: its duration minus the part of it that its
    /// children on the same track cover (workers on other tracks run
    /// inside a same-track child, so they are not subtracted twice).
    pub fn self_time(&self, span: SpanId) -> Duration {
        let s = &self.spans[span];
        let covered: Duration = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(span) && c.track == s.track)
            .map(Span::duration)
            .sum();
        s.duration().saturating_sub(covered)
    }

    /// Write every span as a Chrome-trace complete event (`ph: "X"`).
    pub fn write_chrome_trace(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        out.push_str(&format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": {{\"name\": {}}}}}",
            quote(&format!("bench {workload}"))
        ));
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = format!(
                "\"id\": {id}, \"run\": {}, \"source\": {}",
                s.run,
                quote(match s.source {
                    Source::Bench => "bench",
                    Source::Report => "report",
                })
            );
            if let Some(p) = s.parent {
                args.push_str(&format!(", \"parent\": {p}"));
            }
            for (name, value) in &s.counts {
                args.push_str(&format!(", {}: {}", quote(name), number(*value)));
            }
            out.push_str(&format!(
                ",\n{{\"name\": {}, \"cat\": \"pdtl\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{{args}}}}}",
                quote(&s.name),
                number(s.start.as_secs_f64() * 1e6),
                number(s.duration().as_secs_f64() * 1e6),
                s.track,
            ));
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn self_time_subtracts_same_track_children_only() {
        let mut t = Tracer::default();
        let o = t.origin;
        let at = |ms| o + Duration::from_millis(ms);
        let root = t.record("op", 1, None, 0, at(0), at(100));
        let calc = t.record("calc", 1, Some(root), 0, at(10), at(90));
        t.record("worker.0", 1, Some(calc), 1, at(10), at(80));
        t.record("worker.1", 1, Some(calc), 2, at(10), at(90));
        t.record_reported(
            "orient",
            root,
            Duration::from_millis(0),
            Duration::from_millis(10),
        );
        assert_eq!(t.self_time(root), Duration::from_millis(10));
        assert_eq!(t.self_time(calc), Duration::from_millis(80));
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut t = Tracer::default();
        let o = t.origin;
        let root = t.record("op", 7, None, 0, o, o + Duration::from_millis(3));
        t.count(root, "triangles", 42.0);
        let dir = std::env::temp_dir().join(format!("pdtl-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        t.write_chrome_trace(&path, "w").unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("run").unwrap().as_f64(), Some(7.0));
        assert_eq!(args.get("triangles").unwrap().as_f64(), Some(42.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
