//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its calls into each layer:
//! name, start, end, the span that caused it, and the op it belongs to.
//! Byte counts are recorded on the same spans, so ratios are measured
//! where the work happens. Spans stay in memory and are written out as
//! JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    op: u64,
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    bytes_in: u64,
    bytes_out: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, op: u64, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            name,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
            bytes_in: 0,
            bytes_out: 0,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        span.secs()
    }

    /// Close `id` and record the bytes the layer consumed and produced.
    pub fn end_with_bytes(&mut self, id: SpanId, bytes_in: usize, bytes_out: usize) -> f64 {
        let secs = self.end(id);
        let span = &mut self.spans[id.0];
        span.bytes_in = bytes_in as u64;
        span.bytes_out = bytes_out as u64;
        secs
    }

    /// Self time per span name within one op: each span's duration minus
    /// the part its direct children cover, summed over spans of that name.
    pub fn self_times(&self, op: u64) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let (true, Some(p)) = (s.op == op, s.parent) {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.op == op {
                let own = s
                    .end_ns
                    .saturating_sub(s.start_ns)
                    .saturating_sub(child_ns[i]);
                *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
            }
        }
        out
    }

    /// Total duration and bytes of every span called `name` in one op.
    pub fn totals(&self, op: u64, name: &str) -> (f64, u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .fold((0.0, 0, 0), |(t, i, o), s| {
                (t + s.secs(), i + s.bytes_in, o + s.bytes_out)
            })
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"bytes_in\":{},\"bytes_out\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns, s.bytes_in, s.bytes_out
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::new();
        let root = t.begin(0, "root", None);
        let child = t.begin(0, "child", Some(root));
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(child);
        t.end(root);
        let selfs = t.self_times(0);
        let (child_s, _, _) = t.totals(0, "child");
        let (root_s, _, _) = t.totals(0, "root");
        assert!(child_s >= 0.005);
        assert!((selfs["root"] - (root_s - child_s)).abs() < 1e-9);
        assert!(t.self_times(1).is_empty());
    }
}
