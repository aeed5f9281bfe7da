//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its layer name, start and end (ns since the tracer was
//! created), the span that caused it and the op it belongs to. Spans are
//! kept in memory and written out once, when the benchmark ends. A layer's
//! self time is the time its spans cover minus the part their child spans
//! cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within one tracer, starting at 1.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer name: `bench` for the benchmark's own op and probe spans, else
    /// `rand`, `graphs`, `walks`, `core`, `runner` or `serve`.
    pub layer: &'static str,
    /// The op (or probe) the span belongs to.
    pub op: u64,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

/// Collects spans when enabled; a disabled tracer only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span of `layer`. `f` receives the new span's id to
    /// parent its own children (`None` when disabled).
    pub fn span<T>(
        &self,
        layer: &'static str,
        op: u64,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Span {
                id,
                parent,
                layer,
                op,
                start_ns,
                end_ns,
            });
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in finishing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// Self time per layer, in ns: each span's duration minus the union of its
/// children's intervals (clipped to the span), summed by layer.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        *out.entry(s.layer).or_insert(0) += duration - covered.min(duration);
    }
    out
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.layer, s.op, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            op: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "bench", 0, 100),
            // Overlapping children count once; the part outside the parent
            // is clipped.
            span(2, Some(1), "runner", 10, 40),
            span(3, Some(1), "runner", 30, 50),
            span(4, Some(1), "core", 90, 120),
            span(5, Some(2), "core", 15, 25),
        ];
        let t = self_time_ns(&spans);
        assert_eq!(t["bench"], 100 - 40 - 10);
        assert_eq!(t["runner"], (30 - 10) + 20);
        assert_eq!(t["core"], 30 + 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("core", 0, None, |id| id), None);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let inner = t.span("bench", 3, None, |id| t.span("core", 3, id, |_| id));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, inner);
        assert!(spans.iter().all(|s| s.op == 3 && s.end_ns >= s.start_ns));
    }
}
