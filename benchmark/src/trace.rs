//! In-memory spans for the traced run.
//!
//! A span is a named interval with an optional parent; spans belonging to
//! one request share its id. Spans are only recorded by the benchmark
//! around calls into the public API of the crates it measures, so the
//! program under test is unchanged. Times are seconds since the trace
//! started.
//!
//! *Self time* of a span is its duration minus the part of it covered by
//! its children. Children may overlap each other (two client events in
//! flight, or a child that spills past its parent's end), so coverage is
//! the length of the union of the children's intervals clipped to the
//! parent.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in its trace.
    pub id: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or pass) this span belongs to.
    pub request: u64,
    /// Layer-qualified name, e.g. `tokenizer.encode`.
    pub name: &'static str,
    /// Start, in seconds since the trace epoch.
    pub start: f64,
    /// End, in seconds since the trace epoch.
    pub end: f64,
}

impl Span {
    /// `end - start`.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An append-only span recorder.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the epoch for `at`.
    pub fn secs(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start: self.secs(start),
            end: self.secs(end),
        });
        id
    }

    /// Opens a span starting now; [`Trace::finish`] sets its end. Children
    /// recorded in between can name it as their parent.
    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, request, parent, now, now)
    }

    /// Ends the span `id` opened by [`Trace::begin`] now.
    pub fn finish(&mut self, id: usize) {
        self.spans[id].end = self.secs(Instant::now());
    }

    /// Times `f` as a span and returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, request, parent, start, Instant::now());
        out
    }

    /// Moves the spans of `other` (recorded against its own epoch) into
    /// this trace, re-basing times and ids.
    pub fn absorb(&mut self, other: Trace) {
        let shift = other
            .epoch
            .saturating_duration_since(self.epoch)
            .as_secs_f64();
        let base = self.spans.len();
        for s in other.spans {
            self.spans.push(Span {
                id: s.id + base,
                parent: s.parent.map(|p| p + base),
                start: s.start + shift,
                end: s.end + shift,
                ..s
            });
        }
    }

    /// All spans in recording order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time by span name.
    pub fn self_time_by_name(&self) -> HashMap<&'static str, f64> {
        let selfs = self_times(&self.spans);
        let mut out: HashMap<&'static str, f64> = HashMap::new();
        for (s, t) in self.spans.iter().zip(selfs) {
            *out.entry(s.name).or_default() += t;
        }
        out
    }

    /// Share of the root spans named `root` not covered by any child: the
    /// time the layer spans fail to attribute.
    pub fn unattributed_frac(&self, root: &str) -> Option<f64> {
        let selfs = self_times(&self.spans);
        let (mut total, mut unattributed) = (0.0, 0.0);
        for (s, t) in self.spans.iter().zip(selfs) {
            if s.parent.is_none() && s.name == root {
                total += s.duration();
                unattributed += t;
            }
        }
        (total > 0.0).then(|| unattributed / total)
    }

    /// The trace as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}",
                s.id, s.request, s.name, s.start, s.end
            );
        }
        out
    }
}

/// Self time of every span in `spans` (indexed like `spans`; each span's
/// `id` must equal its index).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration() - covered(s.start, s.end, kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: if parent.is_none() { "root" } else { "child" },
            start,
            end,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // root [0,10] > a [1,4] > b [2,3]; root > c [5,6]
        let spans = vec![
            span(0, None, 0.0, 10.0),
            span(1, Some(0), 1.0, 4.0),
            span(2, Some(1), 2.0, 3.0),
            span(3, Some(0), 5.0, 6.0),
        ];
        let s = self_times(&spans);
        assert_eq!(s, vec![6.0, 2.0, 1.0, 1.0]);
        // Self times always add back up to the root's duration.
        assert_eq!(s.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_and_spilling_children_count_their_union() {
        // Children [1,4] and [3,6] overlap; [8,12] spills past the parent.
        let spans = vec![
            span(0, None, 0.0, 10.0),
            span(1, Some(0), 1.0, 4.0),
            span(2, Some(0), 3.0, 6.0),
            span(3, Some(0), 8.0, 12.0),
        ];
        let s = self_times(&spans);
        assert_eq!(s[0], 10.0 - 5.0 - 2.0);
        assert_eq!(covered(0.0, 10.0, vec![(1.0, 4.0), (2.0, 3.0)]), 3.0);
        assert_eq!(covered(0.0, 10.0, vec![(-5.0, -1.0)]), 0.0);
        assert_eq!(covered(0.0, 10.0, vec![]), 0.0);
    }

    #[test]
    fn unattributed_fraction_over_roots() {
        let mut spans = vec![
            span(0, None, 0.0, 10.0),
            span(1, Some(0), 0.0, 9.0),
            span(2, None, 10.0, 20.0),
            span(3, Some(2), 10.0, 17.0),
        ];
        spans[2].name = "root";
        let t = Trace {
            epoch: Instant::now(),
            spans,
        };
        let u = t.unattributed_frac("root").unwrap();
        assert!((u - 0.2).abs() < 1e-12);
        assert_eq!(t.unattributed_frac("missing"), None);
        let by = t.self_time_by_name();
        assert!((by["child"] - 16.0).abs() < 1e-12);
    }

    #[test]
    fn recorded_spans_keep_parent_links_across_absorb() {
        let mut a = Trace::new();
        let root = a.begin("root", 1, None);
        a.time("child", 1, Some(root), || ());
        a.finish(root);
        let mut b = Trace::new();
        let r2 = b.begin("root", 2, None);
        b.time("child", 2, Some(r2), || ());
        b.finish(r2);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].request, 2);
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert_eq!(a.to_jsonl().lines().count(), 4);
    }
}
