//! Spans recorded around the calls the benchmark makes into each layer.
//!
//! Spans stay in memory while a workload runs and are written as JSON
//! lines when it ends, so writing them costs nothing inside the timed
//! region. A span's self time is its duration minus the time its direct
//! children cover (calls are sequential, so children never overlap).

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Groups the spans of one drive of the view (one request or run).
    pub run: u64,
    pub name: String,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), run: 0, spans: Vec::new() }
    }
}

impl Tracer {
    /// Starts a new run id for the spans that follow.
    pub fn next_run(&mut self) -> u64 {
        self.run += 1;
        self.run
    }

    pub fn start(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            run: self.run,
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration.
    pub fn end(&mut self, id: usize) -> Duration {
        let span = &mut self.spans[id];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        Duration::from_nanos(span.ns())
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.start(name, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.ns());
            }
        }
        own
    }

    /// Per run, the self time of every span name, summed.
    pub fn self_ns_by_run(&self) -> BTreeMap<u64, BTreeMap<String, u64>> {
        let mut out: BTreeMap<u64, BTreeMap<String, u64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(span.run).or_default().entry(span.name.clone()).or_default() += own;
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.run,
                qurator_telemetry::json::escape(&span.name),
                span.start_ns,
                span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::default();
        tracer.next_run();
        let root = tracer.start("root", None);
        tracer.time("child", Some(root), || std::thread::sleep(Duration::from_millis(20)));
        tracer.time("child", Some(root), || std::thread::sleep(Duration::from_millis(10)));
        std::thread::sleep(Duration::from_millis(5));
        tracer.end(root);
        let by_run = tracer.self_ns_by_run();
        let run = &by_run[&1];
        assert!(run["child"] >= 30_000_000);
        assert!(run["root"] >= 5_000_000 && run["root"] < run["child"], "{run:?}");
        let total: u64 = run.values().sum();
        assert_eq!(total, tracer.spans()[root].ns(), "self times partition the root span");
    }

    #[test]
    fn spans_round_trip_as_json_lines() {
        let mut tracer = Tracer::default();
        tracer.next_run();
        let root = tracer.start("engine.drive", None);
        tracer.time("operators.act", Some(root), || ());
        tracer.end(root);
        let dir = std::env::temp_dir().join(format!("e2e-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.spans.jsonl");
        tracer.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<_> =
            text.lines().map(|l| qurator_telemetry::json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("name").and_then(|v| v.as_str()), Some("operators.act"));
        assert_eq!(lines[1].get("parent").and_then(|v| v.as_u64()), Some(0));
        assert!(lines[0].get("parent").unwrap().is_null());
    }
}
