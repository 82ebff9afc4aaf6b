//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files around calls into the
//! program's public functions; nothing inside the program is
//! instrumented. A span has a name, start and end (nanoseconds from the
//! recorder's epoch), its parent span and the request it belongs to.
//! Spans live in memory until the run ends, when [`SpanRecorder::write`]
//! dumps them as JSON lines.

use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (its index in the recorder).
pub type SpanId = usize;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `transformer.block`.
    pub name: &'static str,
    /// Start, nanoseconds from the recorder epoch.
    pub start_ns: u64,
    /// End, nanoseconds from the recorder epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request (image or served request) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span store. Spans are reserved at open (so a child can
/// name its parent before the parent ends) and filled in at close.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanRecorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        SpanRecorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder epoch.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// `t` as nanoseconds since the recorder epoch.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; close it with [`SpanRecorder::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panic");
        spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Close span `id` now.
    pub fn close(&self, id: SpanId) {
        let now = self.now_ns();
        self.spans
            .lock()
            .expect("span recorder poisoned by a panic")[id]
            .end_ns = now;
    }

    /// Record an already-measured interval as a finished span.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.ns_at(start),
            end_ns: self.ns_at(end),
            parent,
            request,
        };
        let mut spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panic");
        spans.push(span);
        spans.len() - 1
    }

    /// A snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panic")
            .clone()
    }

    /// Write every span as one JSON object per line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let spans = self.spans();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// Self time of span `id`: its duration minus the part of its interval
/// covered by its direct children (overlapping children are merged, so
/// concurrent children are not subtracted twice).
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in kids {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    me.duration_ns().saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
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
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
            // A grandchild is covered by its parent, not by the root.
            span("a.x", 12, 20, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 10);
        assert_eq!(self_time_ns(&spans, 1), 20 - 8);
        assert_eq!(self_time_ns(&spans, 2), 10);
    }

    #[test]
    fn self_time_merges_overlapping_and_clips_children() {
        let spans = vec![
            span("root", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)), // overlaps a: union 110..170
            span("c", 190, 250, Some(0)), // runs past the parent: clipped
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 60 - 10);
    }

    #[test]
    fn recorder_links_parents_and_requests() {
        let r = SpanRecorder::new();
        let root = r.open("root", None, 7);
        let kid = r.open("kid", Some(root), 7);
        r.close(kid);
        r.close(root);
        let spans = r.spans();
        assert_eq!(spans[kid].parent, Some(root));
        assert_eq!(spans[kid].request, 7);
        assert!(spans[root].start_ns <= spans[kid].start_ns);
        assert!(spans[kid].end_ns <= spans[root].end_ns);
    }
}
