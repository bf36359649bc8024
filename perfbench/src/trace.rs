//! In-memory span recorder for the traced run, written out once at exit.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval: its name, an optional label (the cell or Table 2
/// workload it covers), its parent span and its bounds in nanoseconds since
/// the recorder was created.
struct Span {
    name: &'static str,
    label: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&mut self, name: &'static str, label: String, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            label,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = now;
        now - span.start_ns
    }

    /// One JSON object per line: `id`, `parent`, `name`, `label`,
    /// `start_ns`, `end_ns`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.label, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_their_parent_and_bounds() {
        let mut t = Tracer::new();
        let cell = t.open("cell", "2_ILP stream ICOUNT.1.8".into(), None);
        let chunk = t.open("chunk", String::new(), Some(cell));
        t.close(chunk);
        t.close(cell);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":0,\"parent\":null,\"name\":\"cell\""));
        assert!(lines[1].starts_with("{\"id\":1,\"parent\":0,\"name\":\"chunk\""));
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
    }
}
