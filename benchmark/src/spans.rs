//! In-memory spans around the calls the traced run makes into each
//! layer, written as NDJSON when the run ends.
//!
//! A span is `(name, start, end, parent, request)`: `parent` is the
//! index of the span that caused it (the rung it belongs to), and the
//! spans of one request share its `request` id. A layer's self time is
//! its span minus the part its children cover.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// `parent` of a span nobody caused.
pub const ROOT: u32 = u32::MAX;
/// `request` of a span that belongs to no single request.
pub const NO_REQUEST: u64 = 0;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// The spans of one traced run.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a finished span and returns its index (a `parent` for
    /// later spans).
    pub fn add(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose end is not known yet; close it with
    /// [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = Instant::now();
        self.add(name, parent, NO_REQUEST, now, now)
    }

    /// Stamps the end of a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.add(name, parent, request, start, end);
        (out, (end - start).as_nanos() as f64)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// One JSON object per span, in recording order.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            );
            if s.parent == ROOT {
                out.push_str("null");
            } else {
                let _ = write!(out, "{}", s.parent);
            }
            let _ = writeln!(out, ",\"request\":{}}}", s.request);
        }
        out
    }

    /// Writes the log to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let fail = |e: std::io::Error| format!("{}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(fail)?;
        }
        std::fs::write(path, self.to_ndjson()).map_err(fail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render() {
        let mut log = SpanLog::new();
        let rung = log.open("rung", ROOT);
        let (v, ns) = log.time("call", rung, 7, || 41 + 1);
        log.close(rung);
        assert_eq!(v, 42);
        assert!(ns >= 0.0);
        let text = log.to_ndjson();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":0,\"name\":\"rung\""));
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":0,\"request\":7}"));
    }
}
