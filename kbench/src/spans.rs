//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every public call it makes into a kconv crate in a
//! span: name, start, end, parent span and the iteration or request it
//! belongs to. Spans stay in memory and are written out once, at exit.
//! When tracing is off, [`Tracer::span`] only calls the closure.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.run`.
    pub name: &'static str,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration (or request) the call belongs to.
    pub id: u64,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans when enabled; a pass-through otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` tagged with `id`.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time of the spans named `name` tagged `id`.
    pub fn self_seconds(&self, id: u64, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self_times(&self.spans))
            .filter(|(s, _)| s.id == id && s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}, \"id\": {}}}",
                s.name, s.start, s.end, s.id
            );
        }
        out
    }
}

/// Each span's self time: its duration minus the durations of its direct
/// children. Children nest inside their parent, so the result is never
/// negative for spans the [`Tracer`] recorded.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] -= span.duration();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("a.inner", 2.0, 3.0, Some(1)),
            span("b", 5.0, 9.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 2.0, 1.0, 4.0]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn tracer_nests_and_groups_by_id() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", 7, |t| {
            t.span("inner", 7, |_| 1) + t.span("inner", 7, |_| 2)
        });
        assert_eq!(v, 3);
        t.span("other", 8, |_| ());
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert!(spans.iter().all(|s| s.end >= s.start));
        let (outer, inner) = (t.self_seconds(7, "outer"), t.self_seconds(7, "inner"));
        assert!(outer >= 0.0 && inner >= 0.0);
        // Self times of the tree sum to the root's duration.
        let root = &t.spans()[0];
        assert!((outer + inner - (root.end - root.start)).abs() < 1e-12);
        assert_eq!(t.self_seconds(8, "inner"), 0.0);
        assert_eq!(t.to_json_lines().lines().count(), 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, |t| t.span("y", 0, |_| 5)), 5);
        assert!(t.spans().is_empty());
    }
}
