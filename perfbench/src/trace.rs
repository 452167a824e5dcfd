//! In-memory spans recorded around each call the benchmark makes into a
//! layer of the system, and the self times derived from them.
//!
//! A span has a name of the form `<layer>.<call>`, a start and end relative
//! to the tracer's origin, the span that caused it, and a request id shared
//! by the spans of one request (0 when the span belongs to no request).
//! Spans are kept in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Layers a span name can start with.  `bench` spans are
/// the benchmark's own phases; their self time is the harness's overhead.
pub const LAYERS: [&str; 6] = ["bench", "build", "runtime", "store", "query", "serve"];

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span; closing a handle of a disabled tracer is a no-op.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder.  Disabled, it records nothing and costs a branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds from the tracer's origin to `at`.
    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.offset_ns(Instant::now());
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(index);
        SpanId(Some(index))
    }

    /// Closes `id` (and any span left open inside it).
    pub fn close(&mut self, id: SpanId) {
        let Some(index) = id.0 else {
            return;
        };
        let end_ns = self.offset_ns(Instant::now());
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end_ns;
            if top == index {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }

    /// Records a finished span whose start and end were observed elsewhere,
    /// e.g. a request sent at one instant and answered at another.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        request: u64,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
            parent: parent.0,
            request,
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// Sorted, disjoint union of `intervals`.
fn union(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (start, end) in intervals {
        match out.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ if end > start => out.push((start, end)),
            _ => {}
        }
    }
    out
}

/// Length of the intersection of two sorted, disjoint interval lists.
fn overlap_ns(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut total) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let start = a[i].0.max(b[j].0);
        let end = a[i].1.min(b[j].1);
        total += end.saturating_sub(start);
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Self time per layer, in milliseconds, for every layer of [`LAYERS`]:
/// the wall time covered by the layer's spans and not by their children in
/// other layers.  Spans of one layer that overlap (requests in flight at
/// once) count once, so a layer's self time never exceeds the run's.
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut own: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
    let mut inner: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        own.entry(s.layer())
            .or_default()
            .push((s.start_ns, s.end_ns));
        if let Some(parent) = s.parent.map(|p| spans[p].layer()) {
            if parent != s.layer() {
                inner
                    .entry(parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
    }
    let mut by_layer: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    for (layer, intervals) in own {
        let covered = union(intervals);
        let children = union(inner.remove(layer).unwrap_or_default());
        let total: u64 = covered.iter().map(|(s, e)| e - s).sum();
        let self_ns = total - overlap_ns(&covered, &children);
        by_layer.insert(layer, self_ns as f64 / 1e6);
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("bench.phase", 0, 100, None),
            span("runtime.run_until", 10, 40, Some(0)),
            span("runtime.run_until", 50, 70, Some(0)),
        ];
        let by_layer = self_ms_by_layer(&spans);
        assert_eq!(by_layer["bench"], 50e-6);
        assert_eq!(by_layer["runtime"], 50e-6);
        assert_eq!(by_layer["store"], 0.0);
    }

    #[test]
    fn overlapping_requests_count_once() {
        // Requests in flight at once cover [10, 60) and [90, 130): their
        // union, not their sum, is the layer's time and leaves the parent.
        let spans = vec![
            span("bench.phase", 0, 100, None),
            span("serve.submit", 10, 50, Some(0)),
            span("serve.poll", 30, 60, Some(0)),
            span("serve.poll", 90, 130, Some(0)),
        ];
        let by_layer = self_ms_by_layer(&spans);
        assert_eq!(by_layer["serve"], 90e-6);
        assert_eq!(by_layer["bench"], 40e-6);
    }

    #[test]
    fn grandchildren_belong_to_their_own_parent() {
        let spans = vec![
            span("bench.setup", 0, 100, None),
            span("build.deployment", 0, 60, Some(0)),
            span("runtime.fixpoint", 10, 30, Some(1)),
        ];
        let by_layer = self_ms_by_layer(&spans);
        assert_eq!(by_layer["bench"], 40e-6);
        assert_eq!(by_layer["build"], 40e-6);
        assert_eq!(by_layer["runtime"], 20e-6);
    }

    #[test]
    fn layer_self_time_keeps_same_layer_nesting() {
        // A runtime span nested in another counts once; a store span inside
        // it is taken out.
        let spans = vec![
            span("runtime.run", 0, 100, None),
            span("runtime.step", 10, 50, Some(0)),
            span("store.commit", 20, 30, Some(1)),
        ];
        let by_layer = self_ms_by_layer(&spans);
        assert_eq!(by_layer["runtime"], 90e-6);
        assert_eq!(by_layer["store"], 10e-6);
    }

    #[test]
    fn tracer_nests_spans_and_disabled_records_nothing() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.open("bench.phase", 0);
        tracer.span("runtime.run_until", 7, || ());
        tracer.close(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let mut off = Tracer::new(false);
        let id = off.open("bench.phase", 0);
        off.close(id);
        assert!(off.spans().is_empty());
    }
}
