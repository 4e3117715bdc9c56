//! In-memory span recording for the traced runs, and the host-time
//! conservation check over the recorded tree.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (nothing inside the simulator is instrumented). A
//! traced run is single-threaded, so spans nest strictly: every span's
//! parent is the span open around it.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one unit of work (a grid cell,
    /// a served job, a trace); 0 when there is none.
    pub job: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, job });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number and summed duration (ns) of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans.iter().filter(|s| s.name == name).fold((0, 0), |(n, ns), s| (n + 1, ns + s.ns()))
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start, s.end, s.job
            );
        }
        out
    }
}

/// Check the span tree and return the share (percent) of root `root`'s
/// duration covered by its direct children.
///
/// Conservation: every child lies inside its parent's interval, and the
/// durations of a span's children sum to no more than the parent's own
/// duration (children of one parent never overlap in a single-threaded
/// run). The root's coverage must reach `floor_pct`.
pub fn check_conservation(spans: &[Span], root: usize, floor_pct: f64) -> Result<f64, String> {
    let mut child_ns = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans.get(p).ok_or_else(|| format!("span {i} has no parent {p}"))?;
            if s.start < parent.start || s.end > parent.end {
                return Err(format!(
                    "span {i} ({}) lies outside its parent {p} ({})",
                    s.name, parent.name
                ));
            }
            child_ns[p] += s.ns();
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if child_ns[i] > s.ns() {
            return Err(format!(
                "children of span {i} ({}) sum to {} ns, more than its {} ns",
                s.name,
                child_ns[i],
                s.ns()
            ));
        }
    }
    let root_ns = spans.get(root).ok_or("no root span")?.ns().max(1);
    let pct = 100.0 * child_ns[root] as f64 / root_ns as f64;
    if pct < floor_pct {
        return Err(format!(
            "layer spans cover {pct:.1}% of the traced pass, below the {floor_pct}% floor"
        ));
    }
    Ok(pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, job: 0 }
    }

    #[test]
    fn recorder_nests_and_conserves() {
        let mut rec = Recorder::new();
        rec.span("pass", 0, |rec| {
            for job in 0..3 {
                rec.span("cell", job, |rec| rec.span("inner", job, |_| std::hint::black_box(job)));
            }
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 7);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(rec.total("cell").0, 3);
        assert!(check_conservation(spans, 0, 0.0).is_ok());
        assert_eq!(rec.to_jsonl().lines().count(), 7);
    }

    #[test]
    fn coverage_is_the_children_share_of_the_root() {
        let spans =
            [span("pass", 0, 100, None), span("a", 0, 40, Some(0)), span("b", 50, 95, Some(0))];
        assert_eq!(check_conservation(&spans, 0, 80.0), Ok(85.0));
        let err = check_conservation(&spans, 0, 90.0).unwrap_err();
        assert!(err.contains("85.0%"), "{err}");
    }

    #[test]
    fn children_exceeding_their_parent_are_rejected() {
        // Overlapping children: each inside the parent, but together longer.
        let spans =
            [span("pass", 0, 100, None), span("a", 0, 70, Some(0)), span("b", 30, 100, Some(0))];
        assert!(check_conservation(&spans, 0, 0.0).unwrap_err().contains("sum to 140"));
        // A child that outlives its parent.
        let spans = [span("pass", 0, 100, None), span("a", 10, 120, Some(0))];
        assert!(check_conservation(&spans, 0, 0.0).unwrap_err().contains("outside"));
    }
}
