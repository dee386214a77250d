//! In-memory spans for the traced run: name, start, end and parent,
//! written out when the run ends. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are seconds since the recorder started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `pipeline.sim`.
    pub name: String,
    /// Start, seconds since the recorder's origin.
    pub start: f64,
    /// End, seconds since the recorder's origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// A span recorder. When off it records nothing and costs one branch
/// per span, so the untraced pass runs the same code.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that keeps spans (`on`) or drops them.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Seconds since the origin at `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.at(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.at(Instant::now());
        out
    }

    /// Record a span measured elsewhere (e.g. on a worker thread) as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name: name.to_string(),
            start: self.at(start),
            end: self.at(end),
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, summed over all spans of that name.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        self_times(&self.spans)
    }

    /// The spans as JSON lines text.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": {:?}, \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}}}\n",
                s.name, s.start, s.end
            ));
        }
        out
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN time"));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time per name: each span's duration minus the union of its
/// children's intervals (children running in parallel overlap, and are
/// counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let own = (s.end - s.start) - covered(kids, s.start, s.end);
        *out.entry(s.name.clone()).or_insert(0.0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 3.0, Some(0)),
            span("b", 4.0, 8.0, Some(0)),
            span("leaf", 5.0, 6.0, Some(2)),
        ];
        let t = self_times(&spans);
        assert!((t["root"] - 4.0).abs() < 1e-12);
        assert!((t["a"] - 2.0).abs() < 1e-12);
        assert!((t["b"] - 3.0).abs() < 1e-12);
        assert!((t["leaf"] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("pool", 0.0, 10.0, None),
            span("cell", 1.0, 6.0, Some(0)),
            span("cell", 2.0, 7.0, Some(0)),
            // A child that overruns its parent only covers the overlap.
            span("cell", 9.0, 12.0, Some(0)),
        ];
        let t = self_times(&spans);
        // Union of children inside [0, 10]: [1, 7] + [9, 10] = 7.
        assert!((t["pool"] - 3.0).abs() < 1e-12);
        assert!((t["cell"] - 13.0).abs() < 1e-12);
    }

    #[test]
    fn names_sum_across_spans() {
        let spans = vec![span("x", 0.0, 1.0, None), span("x", 2.0, 2.5, None)];
        assert!((self_times(&spans)["x"] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn the_recorder_nests_and_the_off_recorder_keeps_nothing() {
        let mut on = Spans::new(true);
        on.span("outer", |s| {
            s.span("inner", |_| ());
            let t = Instant::now();
            s.record("worker", t, t);
        });
        let names: Vec<(&str, Option<usize>)> = on
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            [("outer", None), ("inner", Some(0)), ("worker", Some(0))]
        );
        assert!(on.spans().iter().all(|s| s.end >= s.start));
        let mut off = Spans::new(false);
        let v = off.span("outer", |s| s.span("inner", |_| 7));
        assert_eq!(v, 7);
        assert!(off.spans().is_empty());
        assert!(on.to_json_lines().lines().count() == 3);
    }
}
