//! In-memory spans recorded around each call the benchmark makes into a
//! layer of the system.
//!
//! A span has a name, the layer it belongs to, a start, an end and the
//! span that caused it. Spans are kept in memory and written out once,
//! when the run ends. A disabled [`Tracer`] records nothing and reads no
//! clock, so untraced runs pay one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; [`ROOT`] is "no parent".
pub type SpanId = u64;

/// The parent of top-level spans.
pub const ROOT: SpanId = 0;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run (never [`ROOT`]).
    pub id: SpanId,
    /// The span that caused this one, or [`ROOT`].
    pub parent: SpanId,
    /// Layer (repository module) the span's call enters.
    pub layer: &'static str,
    /// The call.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder shared by every thread of one run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under `parent`; it closes when the guard drops.
    pub fn span(&self, parent: SpanId, layer: &'static str, name: &'static str) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                id: ROOT,
                parent,
                layer,
                name,
                start_ns: 0,
            };
        }
        Guard {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            layer,
            name,
            start_ns: self.now_ns(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("no span writer panics").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// An open span; records itself when dropped.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    id: SpanId,
    parent: SpanId,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
}

impl Guard<'_> {
    /// The span's id, to pass as the parent of the spans it causes
    /// ([`ROOT`] when tracing is off).
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            layer: self.layer,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        // A poisoned sink only means another span writer panicked; the
        // vector itself is still valid, and Drop must not panic.
        match self.tracer.spans.lock() {
            Ok(mut spans) => spans.push(span),
            Err(poisoned) => poisoned.into_inner().push(span),
        }
    }
}

/// Total and self time of one group of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans in the group.
    pub count: u64,
    /// Summed span durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times: each span's duration minus the part of its
    /// interval that its children cover.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals, clipped to its own. Children may run on
/// other threads and overlap one another; the union counts that overlap
/// once.
pub fn self_times(spans: &[Span]) -> Vec<(Span, u64)> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.clone(), s.dur_ns() - covered.min(s.dur_ns()))
        })
        .collect()
}

/// Self and total time summed per key (`by(span)` picks the key: the
/// layer, the call name, ...).
pub fn summarize<K: Ord>(spans: &[Span], mut by: impl FnMut(&Span) -> K) -> BTreeMap<K, SelfTime> {
    let mut out: BTreeMap<K, SelfTime> = BTreeMap::new();
    for (s, self_ns) in self_times(spans) {
        let e = out.entry(by(&s)).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer: "l",
            name: "n",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, ROOT, 0, 100),
            // Two overlapping children (as from two worker threads) and
            // one disjoint child: union = [10, 40) + [60, 70) = 40.
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),
            span(4, 1, 60, 70),
            // A grandchild does not count against the root.
            span(5, 2, 12, 14),
        ];
        let st: BTreeMap<SpanId, u64> = self_times(&spans)
            .into_iter()
            .map(|(s, t)| (s.id, t))
            .collect();
        assert_eq!(st[&1], 60);
        assert_eq!(st[&2], 18);
        assert_eq!(st[&3], 20);
        assert_eq!(st[&5], 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let g = t.span(ROOT, "l", "n");
            assert_eq!(g.id(), ROOT);
        }
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        {
            let outer = t.span(ROOT, "a", "outer");
            let _inner = t.span(outer.id(), "b", "inner");
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let by_layer = summarize(&spans, |s| s.layer);
        assert_eq!(by_layer["a"].count, 1);
        assert!(by_layer["a"].self_ns <= by_layer["a"].total_ns);
    }
}
