//! In-memory host-time spans of the traced run, written out at exit.
//!
//! The harness opens a span around every call it makes into a layer; the
//! layers themselves are not instrumented. A span's parent is the span
//! that was open when it started, and all spans of one request share its
//! op id, so self time is a span's duration minus its children's.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept per workload; later ones are counted, not stored, so the
/// trace file stays a few MB.
pub const SPAN_CAP: usize = 20_000;

/// Parent id of a root span / op id of a span outside any request.
pub const NONE: u32 = u32::MAX;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Position in the log.
    pub id: u32,
    /// The span that caused this one, or [`NONE`].
    pub parent: u32,
    /// Request index in the workload's stream, or [`NONE`].
    pub op: u32,
    /// What was called, e.g. `core.read`.
    pub name: &'static str,
    /// The layer called into.
    pub layer: &'static str,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
}

/// Public counters sampled at a chunk boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterSample {
    /// When, ns since the log's origin.
    pub at_ns: u64,
    /// Requests completed so far.
    pub requests: u64,
    /// Cache hits so far.
    pub hits: u64,
    /// SSD pages written by the engine so far (data + delta + metadata).
    pub ssd_pages: u64,
    /// Member-disk page reads + writes so far.
    pub disk_ios: u64,
    /// Rows with delayed parity right now.
    pub pending_rows: u64,
    /// Deltas staged in NVRAM right now.
    pub staged_deltas: u64,
}

/// The span log of one traced replay.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    samples: Vec<CounterSample>,
    next_id: u32,
    dropped: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAP),
            samples: Vec::with_capacity(1024),
            next_id: 0,
            dropped: 0,
        }
    }

    /// Reserve the id of a span that is about to start (so children can
    /// name it as parent before it is finished).
    pub fn open(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record a finished span under a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn close(
        &mut self,
        id: u32,
        parent: u32,
        op: u32,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { id, parent, op, name, layer, start_ns: ns(start), end_ns: ns(end) });
    }

    /// Record a finished span with a fresh id.
    pub fn leaf(
        &mut self,
        parent: u32,
        op: u32,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let id = self.open();
        self.close(id, parent, op, name, layer, start, end);
    }

    /// Record a counter sample (stamped now).
    pub fn sample(&mut self, mut s: CounterSample) {
        s.at_ns = self.origin.elapsed().as_nanos() as u64;
        self.samples.push(s);
    }

    /// Render the log as one JSON document.
    #[must_use]
    pub fn render(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 4096);
        let _ = write!(
            out,
            "{{\"schema\":\"kdd-benchmark-trace/v1\",\"workload\":\"{workload}\",\"seed\":{seed},\
             \"clock\":\"host_ns\",\"span_cap\":{SPAN_CAP},\"dropped\":{},\"spans\":[",
            self.dropped
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                opt(s.parent),
                opt(s.op),
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("],\"counters\":[");
        for (i, c) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"at_ns\":{},\"requests\":{},\"hits\":{},\"ssd_pages\":{},\"disk_ios\":{},\"pending_rows\":{},\"staged_deltas\":{}}}",
                c.at_ns, c.requests, c.hits, c.ssd_pages, c.disk_ios, c.pending_rows, c.staged_deltas
            );
        }
        out.push_str("]}\n");
        out
    }
}

fn opt(id: u32) -> String {
    if id == NONE {
        "null".to_string()
    } else {
        id.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parents_ops_and_overflow() {
        let mut log = SpanLog::new();
        let t0 = Instant::now();
        let chunk = log.open();
        log.leaf(chunk, 7, "core.read", "core", t0, Instant::now());
        log.close(chunk, NONE, NONE, "harness.chunk", "harness", t0, Instant::now());
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.spans[0].parent, chunk);
        assert_eq!(log.spans[0].op, 7);
        for _ in 0..SPAN_CAP {
            log.leaf(NONE, NONE, "x", "harness", t0, t0);
        }
        assert_eq!(log.spans.len(), SPAN_CAP);
        assert_eq!(log.dropped, 2);
        let doc = kdd_obs::json::parse(&log.render("w", 1)).expect("trace file is JSON");
        assert_eq!(doc.get("dropped").and_then(kdd_obs::Json::as_f64), Some(2.0));
        assert_eq!(
            doc.get("spans").and_then(kdd_obs::Json::as_arr).map(<[_]>::len),
            Some(SPAN_CAP)
        );
    }
}
