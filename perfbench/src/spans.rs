//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out as JSON lines when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run (starts at 1).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// `<layer>.<operation>`, e.g. `simulator.cell`.
    pub name: &'static str,
    /// Job id or cell label the span belongs to.
    pub key: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// `t` as nanoseconds since the tracer was created.
    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn reserve(&self) -> u64 {
        // A plain counter: it publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        key: &str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            key: key.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .push(span);
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        key: &str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, key, start, end);
        id
    }

    /// Runs `f`, recording it as a span; `f` receives the span's id for
    /// its children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        key: &str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        self.record_as(id, name, parent, key, start, Instant::now());
        out
    }

    /// A copy of every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                parent,
                s.name,
                s.key.replace(['"', '\\'], "_"),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of each span (seconds): its duration minus the part of it
/// its children cover.
pub fn self_times(spans: &[Span]) -> Vec<(u64, f64)> {
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            // Union of the children's intervals.
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns - covered) as f64 / 1e9)
        })
        .collect()
}

/// One table line per span name: count, total and self time.
pub fn summary(spans: &[Span]) -> Vec<String> {
    let selfs = self_times(spans);
    let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
    for (s, (_, own)) in spans.iter().zip(&selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.secs();
                r.3 += own;
            }
            None => rows.push((s.name, 1, s.secs(), *own)),
        }
    }
    rows.iter()
        .map(|(name, n, total, own)| {
            format!("span {name:<28} n={n:<6} total {total:>10.4} s  self {own:>10.4} s")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            key: String::new(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60), // overlaps 2: union is 10..60
            span(4, Some(2), 10, 20),
        ];
        let times = self_times(&spans);
        let ns = |id| (times.iter().find(|(i, _)| *i == id).unwrap().1 * 1e9).round();
        assert_eq!(ns(1), 50.0);
        assert_eq!(ns(2), 20.0);
        assert_eq!(ns(3), 30.0);
        assert_eq!(ns(4), 10.0);
    }

    #[test]
    fn tracer_records_nested_spans_and_writes_them() {
        let t = Tracer::default();
        t.span("outer", None, "job-1", |id| {
            t.span("inner", Some(id), "cell-a", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(t.durations("inner").len(), 1);
    }
}
