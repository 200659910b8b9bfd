//! The load generators: closed-loop readers, closed-loop writers and an
//! open-loop writer, each one wire session on one client thread. Every
//! window starts with a warm-up whose samples are discarded. With
//! `trace` on, each request is also recorded as a client-side span.

use std::time::{Duration, Instant};

use obda_dllite::{ConceptId, RoleId};
use obda_lubm::UnivOntology;
use obda_rdbms::pgwire::WireClient;
use obda_rdbms::EngineSnapshot;

use crate::fixture::Shape;
use crate::pacing::{Lateness, Schedule, Step};
use crate::stats;
use crate::trace::Tracer;

/// Facts per committed block.
pub const BLOCK_FACTS: usize = 8;

/// The row count each shape must return. Unknown counts are learned from
/// the first response; after that a count must repeat exactly, or, under
/// insert-only writes, never shrink.
#[derive(Clone)]
pub struct Expected {
    counts: Vec<Option<usize>>,
    monotone: bool,
}

impl Expected {
    pub fn exact(shapes: usize) -> Expected {
        Expected {
            counts: vec![None; shapes],
            monotone: false,
        }
    }

    pub fn monotone(shapes: usize) -> Expected {
        Expected {
            counts: vec![None; shapes],
            monotone: true,
        }
    }

    pub fn check(&mut self, shape: usize, rows: usize) -> bool {
        let ok = match self.counts[shape] {
            None => true,
            Some(seen) if self.monotone => rows >= seen,
            Some(seen) => rows == seen,
        };
        if ok {
            self.counts[shape] = Some(rows);
        }
        ok
    }
}

/// What one client thread saw over one window.
pub struct Samples {
    /// Latencies of the operations sent after the warm-up.
    pub latencies: Vec<Duration>,
    /// When each of those was acknowledged, from the end of the warm-up.
    pub acks: Vec<Duration>,
    /// Operations sent, warm-up included.
    pub attempted: u64,
    /// Errors, refusals and wrong row counts, warm-up included.
    pub failed: u64,
    /// From the end of the warm-up to the last acknowledgement.
    pub window: Duration,
    pub tracer: Option<Tracer>,
}

impl Samples {
    fn new(epoch: Instant, trace: bool) -> Samples {
        Samples {
            latencies: Vec::new(),
            acks: Vec::new(),
            attempted: 0,
            failed: 0,
            window: Duration::ZERO,
            tracer: trace.then(|| Tracer::new(epoch)),
        }
    }

    /// Fold another thread's samples into this one; the window is the
    /// longer of the two, since the threads ran side by side.
    pub fn absorb(&mut self, other: Samples) {
        self.latencies.extend(other.latencies);
        self.acks.extend(other.acks);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.window = self.window.max(other.window);
        match (&mut self.tracer, other.tracer) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (mine @ None, theirs) => *mine = theirs,
            (Some(_), None) => {}
        }
    }

    pub fn per_second(&self) -> f64 {
        self.latencies.len() as f64 / self.window.as_secs_f64()
    }

    fn push(&mut self, latency: Duration, ack: Duration) {
        self.latencies.push(latency);
        self.acks.push(ack);
    }

    /// Median latency, latency at `tail_pct` and operations per second.
    ///
    /// With a `slice`, each is computed on every whole slice of the
    /// window (by acknowledgement time) and the median over slices is
    /// reported: the sandbox slows down for seconds at a time, and a
    /// median over slices ignores a burst that a figure over the whole
    /// window would absorb. Without one (or when the window is shorter
    /// than a slice) they are computed over the whole window.
    pub fn summary(&self, slice: Option<Duration>, tail_pct: f64) -> Summary {
        let slices = slice.map_or(0, |s| (self.window.as_nanos() / s.as_nanos()) as usize);
        let (Some(slice), true) = (slice, slices > 0) else {
            let ms = stats::sorted_ms(&self.latencies);
            return Summary {
                p50_ms: stats::percentile(&ms, 50.0),
                tail_ms: stats::percentile(&ms, tail_pct),
                per_second: self.per_second(),
            };
        };
        let mut by_slice: Vec<Vec<Duration>> = vec![Vec::new(); slices];
        for (latency, ack) in self.latencies.iter().zip(&self.acks) {
            let i = (ack.as_nanos() / slice.as_nanos()) as usize;
            if i < slices {
                by_slice[i].push(*latency);
            }
        }
        let sorted: Vec<Vec<f64>> = by_slice.iter().map(|s| stats::sorted_ms(s)).collect();
        let median_of = |f: &dyn Fn(&Vec<f64>) -> f64| {
            stats::median(&sorted.iter().map(f).collect::<Vec<f64>>())
        };
        Summary {
            p50_ms: median_of(&|ms| stats::percentile(ms, 50.0)),
            tail_ms: median_of(&|ms| stats::percentile(ms, tail_pct)),
            per_second: median_of(&|ms| ms.len() as f64 / slice.as_secs_f64()),
        }
    }
}

pub struct Summary {
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub per_second: f64,
}

/// One statement over the wire, as a span of the current request when
/// tracing. `Ok` carries the first result's row count.
fn send(
    client: &mut WireClient,
    text: &str,
    span: &'static str,
    tracer: &mut Option<Tracer>,
) -> Result<usize, String> {
    let mut call = || match client.simple_query(text) {
        Ok(results) => Ok(results.first().map_or(0, |r| r.rows.len())),
        Err(e) => Err(e.to_string()),
    };
    match tracer {
        Some(t) => t.span(span, |_| call()),
        None => call(),
    }
}

/// When a reader stops: at a deadline, or after a number of whole passes.
#[derive(Clone, Copy)]
pub enum Until {
    Deadline(Duration),
    /// Whole passes over the order until at least this long has passed.
    PassesFor(Duration),
}

/// A closed-loop reader: the next statement is sent when the previous
/// answer has arrived. `order` indexes `shapes`; the session starts at
/// `offset` in it, so two sessions are never on the same shape in step.
#[allow(clippy::too_many_arguments)]
pub fn read_loop(
    client: &mut WireClient,
    shapes: &[Shape],
    order: &[usize],
    offset: usize,
    expected: &mut Expected,
    warmup: Duration,
    until: Until,
    epoch: Instant,
    trace: bool,
) -> Samples {
    let mut out = Samples::new(epoch, trace);
    let start = Instant::now();
    let measure_from = start + warmup;
    let mut last_ack = measure_from;
    let mut i = offset;
    loop {
        let now = Instant::now();
        let done = match until {
            Until::Deadline(d) => now >= measure_from + d,
            Until::PassesFor(d) => {
                now >= measure_from + d && (i - offset).is_multiple_of(order.len())
            }
        };
        if done {
            break;
        }
        let shape = order[i % order.len()];
        i += 1;
        if let Some(t) = &mut out.tracer {
            t.request(&shapes[shape].name);
        }
        let sent = Instant::now();
        let answer = send(
            client,
            &shapes[shape].text,
            "pgwire.simple_query",
            &mut out.tracer,
        );
        let acked = Instant::now();
        out.attempted += 1;
        match answer {
            Ok(rows) if expected.check(shape, rows) => {}
            Ok(rows) => {
                eprintln!(
                    "{}: {rows} rows, not the expected count",
                    shapes[shape].name
                );
                out.failed += 1;
            }
            Err(e) => {
                eprintln!("{}: {e}", shapes[shape].name);
                out.failed += 1;
            }
        }
        if sent >= measure_from {
            out.push(acked - sent, acked - measure_from);
            last_ack = acked;
        }
    }
    out.window = last_ack - measure_from;
    if let Until::Deadline(d) = until {
        // The last answer can arrive a moment before the deadline; the
        // window is still the whole of it.
        out.window = out.window.max(d);
    }
    out
}

/// One ground fact of a block, over whatever stands for an individual:
/// a name on the wire, an id in a delta or a transaction.
pub enum Fact<I> {
    Concept(ConceptId, I),
    Role(RoleId, I, I),
}

/// Suffixes naming a block's four fresh individuals: a graduate student,
/// their course, their advisor and the advisor's department.
pub const BLOCK_INDIVIDUALS: [&str; 4] = ["s", "c", "p", "d"];

/// The [`BLOCK_FACTS`] facts every block asserts, over its four
/// individuals in [`BLOCK_INDIVIDUALS`] order.
pub fn block_facts<I: Clone>(onto: &UnivOntology, [s, c, p, d]: [I; 4]) -> Vec<Fact<I>> {
    let facts = vec![
        Fact::Concept(onto.graduate_student, s.clone()),
        Fact::Role(onto.takes_course, s.clone(), c.clone()),
        Fact::Concept(onto.graduate_course, c.clone()),
        Fact::Role(onto.advisor, s, p.clone()),
        Fact::Concept(onto.professor, p.clone()),
        Fact::Role(onto.works_for, p.clone(), d.clone()),
        Fact::Concept(onto.department, d),
        Fact::Role(onto.teacher_of, p, c),
    ];
    assert_eq!(facts.len(), BLOCK_FACTS);
    facts
}

impl Fact<String> {
    /// Looked up by name, so it works in whatever vocabulary a reopened
    /// server has.
    pub fn present_in(&self, snap: &EngineSnapshot) -> bool {
        let voc = snap.vocabulary();
        match self {
            Fact::Concept(c, a) => voc
                .find_individual(a)
                .is_some_and(|a| snap.engine().probe_concept(*c, a)),
            Fact::Role(r, a, b) => match (voc.find_individual(a), voc.find_individual(b)) {
                (Some(a), Some(b)) => snap.engine().probe_role(*r, a, b),
                _ => false,
            },
        }
    }
}

/// One `INSERT` of a block's facts, on individuals no other block
/// mentions.
pub struct Block {
    pub insert: String,
    pub facts: Vec<Fact<String>>,
}

pub fn block(onto: &UnivOntology, tag: &str) -> Block {
    let facts = block_facts(onto, BLOCK_INDIVIDUALS.map(|kind| format!("{tag}{kind}")));
    let voc = &onto.voc;
    let atoms: Vec<String> = facts
        .iter()
        .map(|f| match f {
            Fact::Concept(c, a) => format!("{}({a})", voc.concept_name(*c)),
            Fact::Role(r, a, b) => format!("{}({a}, {b})", voc.role_name(*r)),
        })
        .collect();
    Block {
        insert: format!("INSERT {}", atoms.join(", ")),
        facts,
    }
}

/// `BEGIN` / `INSERT` / `COMMIT` as three round trips. `Err` leaves the
/// session rolled back.
fn commit_block(
    client: &mut WireClient,
    block: &Block,
    tracer: &mut Option<Tracer>,
) -> Result<(), String> {
    let steps = [
        ("BEGIN", "pgwire.begin"),
        (block.insert.as_str(), "pgwire.insert"),
        ("COMMIT", "pgwire.commit"),
    ];
    if let Some(t) = tracer {
        t.request("commit");
    }
    for (text, span) in steps {
        if let Err(e) = send(client, text, span, tracer) {
            let _ = client.simple_query("ROLLBACK");
            return Err(e);
        }
    }
    Ok(())
}

/// What a writer thread saw, plus the blocks the server acknowledged.
pub struct Written {
    pub samples: Samples,
    pub acked: Vec<Block>,
    pub lateness: Lateness,
}

/// A closed-loop writer committing a fixed number of blocks: `warmup`
/// discarded ones, then `count` timed ones.
pub fn commit_loop(
    client: &mut WireClient,
    onto: &UnivOntology,
    tag: &str,
    warmup: usize,
    count: usize,
    epoch: Instant,
    trace: bool,
) -> Written {
    let mut samples = Samples::new(epoch, trace);
    let mut acked = Vec::with_capacity(warmup + count);
    let mut measure_from = Instant::now();
    for k in 0..warmup + count {
        if k == warmup {
            measure_from = Instant::now();
        }
        let block = block(onto, &format!("{tag}k{k}"));
        let sent = Instant::now();
        let outcome = commit_block(client, &block, &mut samples.tracer);
        let latency = sent.elapsed();
        samples.attempted += 1;
        match outcome {
            Ok(()) => acked.push(block),
            Err(e) => {
                eprintln!("commit {tag}k{k}: {e}");
                samples.failed += 1;
            }
        }
        if k >= warmup {
            samples.push(latency, measure_from.elapsed());
        }
    }
    samples.window = measure_from.elapsed();
    Written {
        samples,
        acked,
        lateness: Lateness::default(),
    }
}

/// An open-loop writer: block `k` is due `k / rate` seconds after the
/// start, whatever the server does, and is timed from when it was due.
#[allow(clippy::too_many_arguments)]
pub fn paced_commit_loop(
    client: &mut WireClient,
    onto: &UnivOntology,
    tag: &str,
    rate: f64,
    warmup: Duration,
    duration: Duration,
    epoch: Instant,
    trace: bool,
) -> Written {
    let schedule = Schedule::per_second(rate);
    let mut samples = Samples::new(epoch, trace);
    let mut acked = Vec::new();
    let mut lateness = Lateness::default();
    let start = Instant::now();
    let since = |t: Instant| (t - start).as_nanos() as u64;
    let (warmup_ns, end_ns) = (
        warmup.as_nanos() as u64,
        (warmup + duration).as_nanos() as u64,
    );
    for k in 0.. {
        let due_ns = schedule.due_ns(k);
        if due_ns >= end_ns {
            break;
        }
        let late_ns = loop {
            match schedule.step(k, since(Instant::now())) {
                Step::Wait(ns) => std::thread::sleep(Duration::from_nanos(ns)),
                Step::Send { late_ns } => break late_ns,
            }
        };
        let block = block(onto, &format!("{tag}k{k}"));
        let outcome = commit_block(client, &block, &mut samples.tracer);
        let ack_ns = since(Instant::now());
        samples.attempted += 1;
        match outcome {
            Ok(()) => acked.push(block),
            Err(e) => {
                eprintln!("commit {tag}k{k}: {e}");
                samples.failed += 1;
            }
        }
        if due_ns >= warmup_ns {
            lateness.record(late_ns);
            samples.push(
                Duration::from_nanos(schedule.latency_ns(k, ack_ns)),
                Duration::from_nanos(ack_ns - warmup_ns),
            );
        }
    }
    samples.window = start.elapsed().saturating_sub(warmup);
    Written {
        samples,
        acked,
        lateness,
    }
}

/// How many acknowledged facts `snap` does not hold.
pub fn missing_facts(acked: &[Block], snap: &EngineSnapshot) -> u64 {
    acked
        .iter()
        .flat_map(|b| &b.facts)
        .filter(|f| !f.present_in(snap))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_must_repeat_and_monotone_counts_may_grow() {
        let mut exact = Expected::exact(2);
        assert!(exact.check(0, 5));
        assert!(exact.check(0, 5));
        assert!(!exact.check(0, 6));
        assert!(exact.check(1, 0));

        let mut grow = Expected::monotone(1);
        assert!(grow.check(0, 5));
        assert!(grow.check(0, 7));
        assert!(!grow.check(0, 6));
        assert!(grow.check(0, 7));
    }

    #[test]
    fn a_summary_over_slices_ignores_a_slow_slice() {
        let mut samples = Samples::new(Instant::now(), false);
        // Three one-second slices of 10 ms operations, the middle one
        // five times slower; a partial fourth slice is left out.
        for (slice, latency_ms, count) in [
            (0u64, 10u64, 100u64),
            (1, 50, 20),
            (2, 10, 100),
            (3, 10, 30),
        ] {
            for k in 0..count {
                samples.push(
                    Duration::from_millis(latency_ms),
                    Duration::from_millis(slice * 1000 + k * latency_ms / 2),
                );
            }
        }
        samples.window = Duration::from_millis(3300);
        let sliced = samples.summary(Some(Duration::from_secs(1)), 100.0);
        assert_eq!(sliced.p50_ms, 10.0);
        assert_eq!(sliced.tail_ms, 10.0);
        assert_eq!(sliced.per_second, 100.0);
        let whole = samples.summary(None, 100.0);
        assert_eq!(whole.tail_ms, 50.0);
        assert!((whole.per_second - 250.0 / 3.3).abs() < 1e-9);
        // A window shorter than a slice falls back to the whole window.
        let short = samples.summary(Some(Duration::from_secs(5)), 100.0);
        assert_eq!(short.tail_ms, 50.0);
    }

    #[test]
    fn a_block_is_eight_facts_on_its_own_individuals() {
        let onto = UnivOntology::build();
        let (a, b) = (block(&onto, "w0k0"), block(&onto, "w0k1"));
        assert_eq!(a.facts.len(), BLOCK_FACTS);
        assert!(a
            .insert
            .starts_with("INSERT GraduateStudent(w0k0s), takesCourse(w0k0s, w0k0c)"));
        assert!(!b.insert.contains("w0k0"));
        match obda_rdbms::pgwire::parse_statement(&a.insert, &onto.voc) {
            Ok(obda_rdbms::pgwire::WireStatement::Mutate { insert, facts }) => {
                assert!(insert);
                assert_eq!(facts.len(), BLOCK_FACTS);
            }
            other => panic!("{other:?}"),
        }
    }
}
