//! In-memory span recorder for the traced run.
//!
//! Spans are opened around calls from the benchmark's own code into each
//! layer; nothing is timed inside the program. They stay in memory until
//! the run ends and are then printed with their self times.

use std::time::Instant;

/// One recorded span; times are seconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Self time of every span, in recording order.
    pub fn self_times(&self) -> Vec<f64> {
        (0..self.spans.len())
            .map(|id| {
                let children: Vec<(f64, f64)> = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(|c| (c.start, c.end))
                    .collect();
                let s = &self.spans[id];
                self_time((s.start, s.end), &children)
            })
            .collect()
    }

    /// One line per span: id, parent, name, start, duration, self time.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:>4} {:>6}  {:<28} {:>12} {:>12} {:>12}\n",
            "id", "parent", "span", "start_s", "dur_s", "self_s"
        );
        for (id, (s, self_s)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let depth = std::iter::successors(s.parent, |&p| self.spans[p].parent).count();
            let name = format!("{}{}", "  ".repeat(depth), s.name);
            out.push_str(&format!(
                "{id:>4} {parent:>6}  {name:<28} {:>12.6} {:>12.6} {self_s:>12.6}\n",
                s.start,
                s.duration()
            ));
        }
        out
    }
}

/// A span's duration minus the part of it that the union of its children's
/// intervals covers. Children may overlap one another and may stick out of
/// the parent; only their union inside the parent counts.
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (p_start, p_end) = parent;
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(p_start), e.min(p_end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut run: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    (p_end - p_start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert!(close(self_time((1.0, 4.0), &[]), 3.0));
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        assert!(close(
            self_time((0.0, 10.0), &[(1.0, 2.0), (5.0, 8.0)]),
            6.0
        ));
    }

    #[test]
    fn overlapping_children_count_their_union_once() {
        // [1,4] ∪ [3,6] ∪ [5,7] = [1,7]; [8,9] is separate.
        let kids = [(3.0, 6.0), (1.0, 4.0), (8.0, 9.0), (5.0, 7.0)];
        assert!(close(self_time((0.0, 10.0), &kids), 3.0));
    }

    #[test]
    fn nested_and_touching_children_merge() {
        // [2,6] contains [3,4]; [6,7] touches it.
        let kids = [(2.0, 6.0), (3.0, 4.0), (6.0, 7.0)];
        assert!(close(self_time((0.0, 10.0), &kids), 5.0));
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let kids = [(-1.0, 2.0), (9.0, 12.0), (20.0, 30.0)];
        assert!(close(self_time((0.0, 10.0), &kids), 7.0));
    }

    #[test]
    fn tracer_records_the_tree_and_its_self_times() {
        let mut t = Tracer::new();
        t.span("root", |t| {
            t.span("a", |t| t.span("a1", |_| std::hint::black_box(1)));
            t.span("b", |_| ());
        });
        let names: Vec<_> = t.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["root", "a", "a1", "b"]);
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
        let selfs = t.self_times();
        let root = &t.spans()[0];
        let kids = t.spans()[1].duration() + t.spans()[3].duration();
        assert!(close(selfs[0], root.duration() - kids));
        assert!(selfs.iter().all(|&s| s >= 0.0));
        assert!(close(t.total("a1"), t.spans()[2].duration()));
    }
}
