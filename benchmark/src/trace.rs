//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `{id, parent, req, name, start_ns, end_ns}`; spans of one
//! request share `req`. Counts are recorded at the same boundaries. Both
//! stay in memory until the run ends and are then written as JSON lines.
//! A layer's *self time* is its spans' duration minus the part of each
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    pub req: u32,
    pub name: &'static str,
    pub value: f64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub counts: Vec<Count>,
    /// Label of each request (a shape name, `commit`, `setup`), by `req`.
    pub requests: Vec<String>,
    open: Vec<u32>,
}

impl Tracer {
    /// `epoch` is shared by every tracer of a run, so spans recorded on
    /// different threads merge onto one time line.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            counts: Vec::new(),
            requests: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn req(&self) -> u32 {
        assert!(!self.requests.is_empty(), "span recorded outside a request");
        self.requests.len() as u32 - 1
    }

    /// Start a new request; later spans and counts belong to it.
    pub fn request(&mut self, label: &str) {
        assert!(self.open.is_empty(), "request started inside an open span");
        self.requests.push(label.to_owned());
    }

    /// Time `f` as a span named `name`, a child of the innermost open
    /// span. `f` gets the tracer back to record its own children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32;
        let span = Span {
            id,
            parent: self.open.last().copied(),
            req: self.req(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.spans.push(span);
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Record child spans of the innermost open span from intervals
    /// timed elsewhere (behind a `&self` boundary the tracer cannot
    /// cross, such as a `&dyn CostEstimator`).
    pub fn children(&mut self, name: &'static str, intervals: &[(Instant, Instant)]) {
        let parent = self.open.last().copied();
        let req = self.req();
        for &(start, end) in intervals {
            self.spans.push(Span {
                id: self.spans.len() as u32,
                parent,
                req,
                name,
                start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            });
        }
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push(Count {
            req: self.req(),
            name,
            value,
        });
    }

    /// Append another thread's tracer, renumbering its ids and requests.
    pub fn merge(&mut self, other: Tracer) {
        let (id0, req0) = (self.spans.len() as u32, self.requests.len() as u32);
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + id0,
            parent: s.parent.map(|p| p + id0),
            req: s.req + req0,
            ..s
        }));
        self.counts.extend(other.counts.into_iter().map(|c| Count {
            req: c.req + req0,
            ..c
        }));
        self.requests.extend(other.requests);
    }

    /// Total duration of the spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Durations of the spans named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Sum of the counts named `name`.
    pub fn count_total(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (req, label) in self.requests.iter().enumerate() {
            writeln!(out, "{{\"req\":{req},\"label\":\"{label}\"}}")?;
        }
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        for c in &self.counts {
            writeln!(
                out,
                "{{\"req\":{},\"count\":\"{}\",\"value\":{}}}",
                c.req, c.name, c.value
            )?;
        }
        out.flush()
    }
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals (clipped to the span), summed by name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        *out.entry(s.name).or_default() += (s.end_ns - s.start_ns) - covered;
    }
    out
}

/// Length of the union of `intervals` within `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// [`self_times`] split by request label (per shape).
pub fn self_times_by_request(tracer: &Tracer) -> BTreeMap<String, BTreeMap<&'static str, u64>> {
    let mut by_label: BTreeMap<&str, Vec<Span>> = BTreeMap::new();
    for s in &tracer.spans {
        by_label
            .entry(tracer.requests[s.req as usize].as_str())
            .or_default()
            .push(s.clone());
    }
    by_label
        .into_iter()
        .map(|(label, spans)| (label.to_owned(), self_times(&spans)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(0, None, "request", 0, 100),
            span(1, Some(0), "choose", 10, 60),
            span(2, Some(1), "cost", 20, 30),
            span(3, Some(1), "cost", 40, 45),
            span(4, Some(0), "execute", 70, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"], 100 - 50 - 20);
        assert_eq!(t["choose"], 50 - 15);
        assert_eq!(t["cost"], 15);
        assert_eq!(t["execute"], 20);
        // Self times partition the root's interval.
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span(0, None, "parent", 100, 200),
            span(1, Some(0), "a", 90, 150),
            span(2, Some(0), "b", 140, 160),
            span(3, Some(0), "c", 190, 250),
        ];
        // Cover within [100, 200] is [100,160] + [190,200] = 70.
        assert_eq!(self_times(&spans)["parent"], 30);
    }

    #[test]
    fn nested_spans_record_their_parents_and_merge_renumbers() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.request("Q1");
        a.span("outer", |t| {
            t.span("inner", |_| ());
            t.count("rows", 3.0);
        });
        assert_eq!(a.spans[0].parent, None);
        assert_eq!(a.spans[1].parent, Some(0));
        assert!(a.spans[0].start_ns <= a.spans[1].start_ns);
        assert!(a.spans[1].end_ns <= a.spans[0].end_ns);

        let mut b = Tracer::new(epoch);
        b.request("Q2");
        b.span("outer", |t| t.span("inner", |_| ()));
        a.merge(b);
        assert_eq!(a.spans[3].id, 3);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.spans[3].req, 1);
        assert_eq!(a.requests, vec!["Q1", "Q2"]);
        assert_eq!(a.count_total("rows"), 3.0);
        let by_req = self_times_by_request(&a);
        assert!(by_req.contains_key("Q1") && by_req.contains_key("Q2"));
    }
}
