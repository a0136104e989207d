//! The benchmark's span recorder: spans are kept in memory while a traced
//! run measures and written out once, when it ends.
//!
//! A span is opened by the benchmark around one call into a layer's
//! public API, so its name starts with that layer (`bench.run_recorded`,
//! `serve.compute`, `crypto.sha256`, ...). A layer's self time is the sum
//! of its spans' durations minus the part of each interval that the
//! span's children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use fair_simlab::json::Json;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (served workloads), if any.
    pub request: Option<u64>,
}

impl Span {
    /// The layer a span is charged to: its name up to the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span store shared by every thread of one run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds from the epoch to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished interval and returns its index (the handle
    /// children name as their parent).
    pub fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        self.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        })
    }

    /// Records an already-built span.
    pub fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Re-parents span `child` under `parent` (used when the enclosing
    /// span closes after its children were recorded).
    pub fn set_parent(&self, child: usize, parent: usize) {
        let mut spans = self.spans.lock().expect("span store poisoned");
        if let Some(span) = spans.get_mut(child) {
            span.parent = Some(parent);
        }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans().iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::num(v as f64));
            let line = Json::obj()
                .field("id", Json::num(id as f64))
                .field("name", Json::str(&span.name))
                .field("start_ns", Json::num(span.start_ns as f64))
                .field("end_ns", Json::num(span.end_ns as f64))
                .field("parent", opt(span.parent.map(|p| p as u64)))
                .field("request", opt(span.request));
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Self time per layer, in nanoseconds: every span's duration minus the
/// union of its children's intervals clipped to it.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent.filter(|&p| p < spans.len()) {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (span, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = covered_ns(span.start_ns, span.end_ns, kids);
        *out.entry(span.layer().to_string()).or_insert(0) +=
            span.duration_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
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
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench.run", 0, 100, None),
            // Overlapping children cover [10, 50) once, not twice.
            span("core.a", 10, 40, Some(0)),
            span("core.b", 30, 50, Some(0)),
            // A child running past its parent is clipped.
            span("tiles.c", 90, 120, Some(0)),
        ];
        let selfs = self_time_by_layer(&spans);
        assert_eq!(selfs["bench"], 100 - 40 - 10);
        assert_eq!(selfs["core"], 30 + 20);
        assert_eq!(selfs["tiles"], 30);
    }

    #[test]
    fn spans_round_trip_through_the_jsonl_file() {
        let tracer = Tracer::new();
        let t = Instant::now();
        let root = tracer.record("serve.request", t, t, None, Some(7));
        tracer.record("serve.compute", t, t, Some(root), Some(7));
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_run/unit")
            .join(format!("trace-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        tracer.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = fair_simlab::json::parse(lines[1]).unwrap();
        assert_eq!(
            fair_simlab::json::get(&second, "parent"),
            Some(&Json::Num(0.0))
        );
        assert_eq!(
            fair_simlab::json::get(&second, "request"),
            Some(&Json::Num(7.0))
        );
    }
}
