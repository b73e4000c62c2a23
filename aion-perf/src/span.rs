//! Spans recorded by the traced pass, from the benchmark's own files, around
//! the calls into each layer.
//!
//! A span is a name, a start and an end, the span that caused it and the
//! request it belongs to. Spans stay in memory and are written out when the
//! benchmark ends. A span's self time is its duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const NO_SPAN: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same list.
    pub parent: Option<u32>,
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started; [`Tracer::close`] ends it.
#[derive(Clone, Copy)]
pub struct OpenSpan {
    index: u32,
    start_ns: u64,
}

impl OpenSpan {
    /// The span's index, to name it as the parent of another.
    pub fn id(self) -> Option<u32> {
        (self.index != NO_SPAN).then_some(self.index)
    }
}

/// The in-memory span store. While disabled it records nothing, so the
/// timed windows run without it.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    /// The request and root span the single traced client is inside; spans
    /// recorded from other threads (file I/O) are attributed to them.
    request: AtomicU32,
    current: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            request: AtomicU32::new(0),
            current: AtomicU32::new(NO_SPAN),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no thread panics holding the span list")
    }

    /// Starts a span. A span with no parent is a request's root: it becomes
    /// the span that file I/O recorded meanwhile is attributed to.
    pub fn open(&self, name: &'static str, parent: Option<u32>, request: u32) -> OpenSpan {
        let start_ns = self.now_ns();
        if !self.is_enabled() {
            return OpenSpan {
                index: NO_SPAN,
                start_ns,
            };
        }
        let mut spans = self.lock();
        let index = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        drop(spans);
        if parent.is_none() {
            self.request.store(request, Ordering::Relaxed);
            self.current.store(index, Ordering::Relaxed);
        }
        OpenSpan { index, start_ns }
    }

    /// Ends a span and returns its duration in nanoseconds (also when the
    /// tracer is disabled, so callers can time with one code path).
    pub fn close(&self, span: OpenSpan) -> u64 {
        let end_ns = self.now_ns();
        if span.index != NO_SPAN {
            if let Some(s) = self.lock().get_mut(span.index as usize) {
                s.end_ns = end_ns;
            }
            let _ = self.current.compare_exchange(
                span.index,
                NO_SPAN,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
        end_ns.saturating_sub(span.start_ns)
    }

    /// Records a finished span from any thread, under the request and root
    /// span the traced client is currently inside.
    pub fn leaf(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.is_enabled() {
            return;
        }
        let current = self.current.load(Ordering::Relaxed);
        self.lock().push(Span {
            name,
            start_ns,
            end_ns,
            parent: (current != NO_SPAN).then_some(current),
            request: self.request.load(Ordering::Relaxed),
        });
    }

    #[cfg(test)]
    pub fn span_count(&self) -> usize {
        self.lock().len()
    }

    /// Takes every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        self.current.store(NO_SPAN, Ordering::Relaxed);
        std::mem::take(&mut *self.lock())
    }
}

/// Self time per span: its duration minus the part of its interval that its
/// child spans cover. Children may overlap each other (file I/O on another
/// thread) or reach outside the parent; only the covered part inside the
/// parent counts, once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let Some(kids) = children.get_mut(&(i as u32)) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self times grouped by span name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        out.entry(span.name).or_default().push(self_ns);
    }
    out
}

/// A total normalised per operation; zero operations give zero.
pub fn per_op(total: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total / ops as f64
    }
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 7,
        }
    }

    /// request 0..100
    ///   ├─ parse   10..30
    ///   ├─ run     30..90
    ///   │    ├─ read a 40..60
    ///   │    ├─ read b 50..70   (overlaps a: another thread)
    ///   │    └─ read c 85..120  (reaches past its parent)
    ///   └─ encode  90..95
    fn tree() -> Vec<Span> {
        vec![
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("run", 30, 90, Some(0)),
            span("read", 40, 60, Some(2)),
            span("read", 50, 70, Some(2)),
            span("read", 85, 120, Some(2)),
            span("encode", 90, 95, Some(0)),
        ]
    }

    #[test]
    fn self_time_is_span_minus_covered_children() {
        let selfs = self_times(&tree());
        // request: 100 − (20 + 60 + 5)
        assert_eq!(selfs[0], 15);
        assert_eq!(selfs[1], 20);
        // run: 60 − union(40..70, 85..90) = 60 − 35
        assert_eq!(selfs[2], 25);
        // leaves keep their whole duration
        assert_eq!(&selfs[3..], &[20, 20, 35, 5]);
        // every nanosecond of the root is accounted for exactly once when
        // children stay inside their parents
        let inside: u64 = selfs[0] + selfs[1] + selfs[2] + 30 + 5 + selfs[6];
        assert_eq!(inside, 100);
    }

    #[test]
    fn grouping_and_per_op_normalisation() {
        let by_name = self_times_by_name(&tree());
        assert_eq!(by_name["read"], vec![20, 20, 35]);
        assert_eq!(by_name["request"], vec![15]);
        let total: u64 = by_name["read"].iter().sum();
        assert_eq!(per_op(total as f64, 3), 25.0);
        assert_eq!(per_op(total as f64, 0), 0.0);
    }

    #[test]
    fn tracer_nests_and_attributes_leaves() {
        let t = Tracer::new();
        t.set_enabled(true);
        let root = t.open("request", None, 3);
        let child = t.open("parse", root.id(), 3);
        t.close(child);
        t.leaf("vfs.read", t.now_ns(), t.now_ns());
        t.close(root);
        // after the root closed, a leaf has no parent
        t.leaf("vfs.fsync", t.now_ns(), t.now_ns());
        let spans = t.drain();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].request, 3);
        assert_eq!(spans[3].parent, None);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let t = Tracer::new();
        let s = t.open("request", None, 1);
        assert!(s.id().is_none());
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(t.close(s) >= 1_000_000);
        t.leaf("vfs.read", 0, 1);
        assert_eq!(t.span_count(), 0);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let dir = crate::out_dir().join(format!("span-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        write_jsonl(&path, &tree()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 7);
        for line in text.lines() {
            crate::json::Json::parse(line).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
