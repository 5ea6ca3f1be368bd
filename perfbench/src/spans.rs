//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and an end on the benchmark's clock, the
//! span that caused it, and the unit of work (request or pass) it belongs
//! to. Spans stay in memory and are written out when the run ends. A
//! layer's self time is its span minus the part of it that its children
//! cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `nn.train`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the parent span, `None` for a unit's root.
    pub parent: Option<usize>,
    /// The request or pass this span belongs to.
    pub unit: u64,
}

impl Span {
    /// The span's length.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log. A disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The tracer's clock, ns since its origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index (`usize::MAX` when
    /// disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        unit: u64,
    ) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            unit,
        });
        self.spans.len() - 1
    }

    /// The instant the tracer's clock counts from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Opens a span that ends at [`Tracer::close`]; children may name it
    /// as their parent meanwhile.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, unit: u64) -> usize {
        let now = self.now_ns();
        self.record(name, now, now, parent, unit)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        unit: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.record(name, start, end, parent, unit))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{}}}",
                s.name, s.start_ns, s.end_ns, s.unit
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the union of its direct
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total and self time per span name, in ns, with the span count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// Sums durations and self times by span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.total_ns += s.duration_ns();
        e.self_ns += own;
        e.count += 1;
    }
    out
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
            unit: 7,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("pass", 0, 100, None),     // 0
            span("fit", 10, 40, Some(0)),   // 1
            span("score", 30, 60, Some(0)), // 2: overlaps fit by 10
            span("train", 15, 20, Some(1)), // 3
            span("late", 90, 120, Some(0)), // 4: runs past its parent
            span("orphan", 200, 210, None), // 5
        ];
        let selfs = self_times(&spans);
        // pass: 100 − |[10,60] ∪ [90,100]| = 100 − 60.
        assert_eq!(selfs, vec![40, 25, 30, 5, 30, 10]);
        let layers = by_name(&spans);
        assert_eq!(
            layers["fit"],
            LayerTime {
                total_ns: 30,
                self_ns: 25,
                count: 1
            }
        );
        // Self times of a tree cover its root exactly when no child
        // overlaps another or runs past its parent.
        let tree = &spans[..4];
        let nested: u64 = self_times(&[
            tree[0].clone(),
            tree[1].clone(),
            span("score", 40, 60, Some(0)),
            tree[3].clone(),
        ])
        .iter()
        .sum();
        assert_eq!(nested, 100);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, id) = t.span("x", None, 0, || 3);
        assert_eq!((v, id), (3, usize::MAX));
        assert!(t.spans().is_empty());
    }
}
