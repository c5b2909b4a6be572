//! In-memory span ledger. Every span keeps its name, start, end and
//! parent; spans stay in memory and are written out once the run ends,
//! so recording costs two clock reads per layer call.

use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans. A disabled tracer runs the closures and
/// records nothing, which is how set-up is timed with tracing off.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span called `name`, a child of the innermost
    /// span still open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of `spans[i]`: its duration minus the part of its interval
/// covered by its direct children. Overlapping children count once and
/// a child running past its parent counts only inside the parent.
pub fn self_time_ns(spans: &[Span], i: usize) -> u64 {
    let s = &spans[i];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(i))
        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for (a, b) in kids {
        run = match run {
            Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
            Some((ra, rb)) => {
                covered += rb - ra;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ra, rb)) = run {
        covered += rb - ra;
    }
    s.duration_ns() - covered
}

/// Self time summed per span name, in order of first appearance.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let t = self_time_ns(spans, i);
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, acc)) => *acc += t,
            None => out.push((s.name, t)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span("a", None, 10, 25)];
        assert_eq!(self_time_ns(&spans, 0), 15);
    }

    #[test]
    fn children_are_subtracted_from_their_parent_only() {
        let spans = [
            span("run", None, 0, 100),
            span("setup", Some(0), 10, 40),
            span("build", Some(1), 15, 35),
            span("engine", Some(0), 50, 90),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 40);
        assert_eq!(self_time_ns(&spans, 1), 30 - 20);
        assert_eq!(self_time_ns(&spans, 2), 20);
        assert_eq!(self_time_ns(&spans, 3), 40);
        let total: u64 = (0..spans.len()).map(|i| self_time_ns(&spans, i)).sum();
        assert_eq!(total, 100, "self times partition the root");
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("p", None, 0, 100),
            span("x", Some(0), 10, 50),
            span("y", Some(0), 30, 60),
            span("z", Some(0), 90, 130),
        ];
        // Covered: [10, 60) and [90, 100).
        assert_eq!(self_time_ns(&spans, 0), 100 - 50 - 10);
    }

    #[test]
    fn self_times_sum_per_name() {
        let spans = [
            span("run", None, 0, 10),
            span("a", Some(0), 0, 3),
            span("a", Some(0), 5, 9),
        ];
        assert_eq!(self_times(&spans), vec![("run", 3), ("a", 7)]);
    }

    #[test]
    fn tracer_records_names_parents_and_order() {
        let mut t = Tracer::new(true);
        let v = t.span("run", |t| t.span("leaf", |_| 7) + t.span("leaf2", |_| 1));
        assert_eq!(v, 8);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("run", None), ("leaf", Some(0)), ("leaf2", Some(0))]
        );
        for s in t.spans() {
            assert!(s.start_ns <= s.end_ns);
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("run", |t| t.span("leaf", |_| 3)), 3);
        assert!(t.spans().is_empty());
    }
}
