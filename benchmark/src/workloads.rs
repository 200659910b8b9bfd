//! The five workloads as untraced end-to-end runs over real sockets.
//!
//! Every run sets up at least [`MIN_SETUPS`] times (reporting the median as
//! `setup_s`), keeps the last set-up, discards a warm-up, measures, and
//! then checks answers outside the timed window.

use std::time::{Duration, Instant};

use obda_rdbms::pgwire::WireClient;
use obda_rdbms::{Backend, Server};

use crate::fixture::{self, Host, Kb, Rng, Shape, TempDir};
use crate::load::{self, Expected, Samples, Until, Written, BLOCK_FACTS};
use crate::stats;

pub const WORKLOADS: [&str; 5] = [
    "warm_read",
    "warm_read_sql",
    "cold_compile",
    "write_commit",
    "mixed_read_write",
];

/// `setup_s` is the median of at least this many set-ups, and of as many
/// more (up to [`MAX_SETUPS`]) as fit in [`SETUP_BUDGET`]: a 25 ms set-up
/// needs more repeats than a 450 ms one to give a steady median.
pub const MIN_SETUPS: usize = 5;
pub const MAX_SETUPS: usize = 25;
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Discarded at the start of every timed read window.
pub const WARMUP: Duration = Duration::from_secs(3);
/// Client threads, never more than the sandbox's two cores.
pub const SESSIONS: usize = 2;
/// Open-loop commit rate of `mixed_read_write`, per second.
pub const COMMIT_RATE: f64 = 1.0;
/// `write_commit` commits a fixed number of blocks, so that the ABox (and
/// with it the per-commit storage clone) grows identically on both sides
/// of a comparison: this many per writer per `--seconds`, frozen so that
/// the run takes about `--seconds` on the sandbox it was sized on.
pub const BLOCKS_PER_WRITER_PER_SECOND: usize = 75;
/// Discarded blocks per writer before the timed ones.
pub const WARMUP_BLOCKS: usize = 100;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
        value,
    }
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` names for this kind of run.
    pub metrics: Vec<Metric>,
    /// Everything else worth a line: sample counts, sizes, cores.
    pub notes: Vec<Metric>,
}

/// The percentile `op_tail_ms` is read at, fixed per workload so the
/// metric means the same in every run; 100 is the maximum. Each level
/// leaves at least ten samples beyond it at this sandbox's rates (the
/// run warns when it does not), except on `cold_compile`, whose one pass
/// has 32 samples and whose tail is the single slowest compile.
///
/// On `mixed_read_write` the level is p90, inside the warm reads. The
/// compiles that follow a commit are the slowest 3 % of reads, but they
/// are six statements a second with compile times from 25 to 170 ms, so
/// any level among them sits a few ranks from the gap between two
/// shapes and flips with the sample count, and the maximum (Q4's
/// compile) varies by 20 % with the seed. Their cost is gated through
/// `ops_per_s`, which sums them; `op_max_ms` prints the slowest.
pub fn tail_pct(workload: &str) -> f64 {
    match workload {
        "warm_read" | "write_commit" => 99.0,
        "warm_read_sql" => 95.0,
        "mixed_read_write" => 90.0,
        _ => 100.0,
    }
}

/// Run `setup` repeatedly (see [`MIN_SETUPS`]), tearing each down outside
/// the timed region; returns the last set-up and the median time.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut ready = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        drop(ready.take());
        let started = Instant::now();
        ready = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (ready.expect("at least one set-up"), stats::median(&times))
}

/// A hosted server with connected sessions. Field order is drop order:
/// sessions close before the listener waits for their threads.
pub struct Ready {
    pub clients: Vec<WireClient>,
    pub expected: Expected,
    pub host: Host,
    pub store: Option<TempDir>,
    pub shapes: Vec<Shape>,
    pub kb: Kb,
}

/// Generate the KB, host a server and connect `sessions` sessions.
fn host_server(
    seed: u64,
    backend: Backend,
    sessions: usize,
    shapes: fn(&obda_lubm::UnivOntology) -> Vec<Shape>,
    cache_plans: bool,
    durable: bool,
) -> Ready {
    let kb = fixture::build_kb(seed, fixture::FACTS);
    let store = durable.then(|| TempDir::new("store"));
    let server = match &store {
        Some(dir) => fixture::new_durable_server(&kb, dir.path()),
        None => fixture::new_server(&kb, cache_plans),
    };
    let host = Host::start(server);
    let clients = (0..sessions).map(|_| host.connect(backend)).collect();
    let shapes = shapes(&kb.onto);
    Ready {
        clients,
        expected: Expected::exact(shapes.len()),
        host,
        store,
        shapes,
        kb,
    }
}

/// Send every shape once on the first session: fills the plan cache
/// (when the server has one) and learns the row counts.
fn prime(ready: &mut Ready) {
    for (i, shape) in ready.shapes.iter().enumerate() {
        let results = ready.clients[0]
            .simple_query(&shape.text)
            .unwrap_or_else(|e| panic!("priming {}: {e}", shape.name));
        ready.expected.check(i, results[0].rows.len());
    }
}

pub fn setup_reads(seed: u64, backend: Backend) -> Ready {
    let mut ready = host_server(seed, backend, SESSIONS, fixture::light_shapes, true, false);
    prime(&mut ready);
    ready
}

pub fn setup_cold(seed: u64) -> Ready {
    host_server(seed, Backend::Native, 1, fixture::shapes, false, false)
}

pub fn setup_writes(seed: u64) -> Ready {
    host_server(
        seed,
        Backend::Native,
        SESSIONS,
        fixture::light_shapes,
        true,
        true,
    )
}

pub fn setup_mixed(seed: u64) -> Ready {
    let mut ready = setup_writes(seed);
    ready.expected = Expected::monotone(ready.shapes.len());
    prime(&mut ready);
    ready
}

/// The seeded shape rotation.
pub fn shape_order(seed: u64, shapes: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shapes).collect();
    Rng::new(seed).shuffle(&mut order);
    order
}

/// Light shapes sent per heavy shape in a `cold_compile` pass.
pub const COLD_LIGHT_WEIGHT: usize = 3;

/// One `cold_compile` pass: every shape once and every light shape
/// [`COLD_LIGHT_WEIGHT`] times in all (32 statements), shuffled by seed.
/// Cheap statements outnumber expensive ones in real traffic; and with
/// each shape once, the median of 14 samples would sit in the gap
/// between two shapes' compile times and jump between them.
pub fn cold_order(seed: u64, shapes: usize, light: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shapes).collect();
    for _ in 1..COLD_LIGHT_WEIGHT {
        order.extend_from_slice(light);
    }
    Rng::new(seed).shuffle(&mut order);
    order
}

/// Run `f` once per session, each on its own client thread, side by side.
fn on_each_session<T: Send>(
    clients: &mut [WireClient],
    f: impl Fn(usize, &mut WireClient) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|scope| {
        let f = &f;
        let threads: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| scope.spawn(move || f(i, client)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    })
}

/// `SESSIONS` closed-loop readers side by side.
pub fn read_window(
    ready: &mut Ready,
    order: &[usize],
    warmup: Duration,
    duration: Duration,
    epoch: Instant,
    trace: bool,
) -> Samples {
    let (shapes, expected) = (&ready.shapes, &ready.expected);
    let sessions = ready.clients.len();
    let mut all = on_each_session(&mut ready.clients, |s, client| {
        load::read_loop(
            client,
            shapes,
            order,
            s * order.len() / sessions,
            &mut expected.clone(),
            warmup,
            Until::Deadline(duration),
            epoch,
            trace,
        )
    });
    let mut merged = all.remove(0);
    all.into_iter().for_each(|s| merged.absorb(s));
    merged
}

/// `SESSIONS` closed-loop writers side by side.
pub fn commit_window(
    ready: &mut Ready,
    seed: u64,
    warmup_blocks: usize,
    blocks: usize,
    epoch: Instant,
    trace: bool,
) -> Written {
    let onto = &ready.kb.onto;
    let mut all = on_each_session(&mut ready.clients, |w, client| {
        let tag = format!("s{seed}w{w}");
        load::commit_loop(client, onto, &tag, warmup_blocks, blocks, epoch, trace)
    });
    let mut merged = all.remove(0);
    for w in all {
        merged.samples.absorb(w.samples);
        merged.acked.extend(w.acked);
    }
    merged
}

/// One closed-loop reader and one open-loop writer side by side.
pub fn mixed_window(
    ready: &mut Ready,
    seed: u64,
    order: &[usize],
    warmup: Duration,
    duration: Duration,
    epoch: Instant,
    trace: bool,
) -> (Samples, Written) {
    let (shapes, onto) = (&ready.shapes, &ready.kb.onto);
    let mut expected = ready.expected.clone();
    let (reader, writer) = ready.clients.split_at_mut(1);
    std::thread::scope(|scope| {
        let writes = scope.spawn(|| {
            load::paced_commit_loop(
                &mut writer[0],
                onto,
                &format!("s{seed}m"),
                COMMIT_RATE,
                warmup,
                duration,
                epoch,
                trace,
            )
        });
        let reads = load::read_loop(
            &mut reader[0],
            shapes,
            order,
            0,
            &mut expected,
            warmup,
            Until::Deadline(duration),
            epoch,
            trace,
        );
        (reads, writes.join().expect("writer thread"))
    })
}

/// Outside the timed window: every shape's rows on this server must be
/// the same set under both execution backends, which share no executor.
/// Returns (checked, mismatched).
pub fn cross_check<'a>(host: &Host, shapes: impl IntoIterator<Item = &'a Shape>) -> (u64, u64) {
    let mut native = host.connect(Backend::Native);
    let mut sql = host.connect(Backend::Sql);
    let (mut checked, mut mismatched) = (0, 0);
    for shape in shapes {
        checked += 1;
        let rows = |client: &mut WireClient| {
            client.simple_query(&shape.text).map(|mut results| {
                let mut rows = std::mem::take(&mut results[0].rows);
                rows.sort();
                rows
            })
        };
        match (rows(&mut native), rows(&mut sql)) {
            (Ok(a), Ok(b)) if a == b => {}
            (a, b) => {
                eprintln!(
                    "{}: native {:?} rows, sql {:?} rows",
                    shape.name,
                    a.map(|r| r.len()),
                    b.map(|r| r.len())
                );
                mismatched += 1;
            }
        }
    }
    (checked, mismatched)
}

/// The slices a window is summarized over (see `Samples::summary`):
/// two seconds, which on `mixed_read_write` is two whole commit cycles.
/// A `cold_compile` pass is one 16 s sequence with 7 s statements in it
/// and is summarized whole.
pub fn slice(workload: &str) -> Option<Duration> {
    (workload != "cold_compile").then_some(Duration::from_secs(2))
}

/// The end-to-end metrics of one window of the workload's operation.
fn end_to_end(workload: &str, setup_s: f64, samples: &Samples) -> Vec<Metric> {
    let pct = tail_pct(workload);
    let n = samples.latencies.len();
    if pct < 100.0 && stats::samples_beyond(n, pct) < stats::MIN_BEYOND {
        eprintln!(
            "warning: {n} samples leave fewer than {} beyond p{pct}",
            stats::MIN_BEYOND
        );
    }
    let summary = samples.summary(slice(workload), pct);
    vec![
        metric("setup_s", "s", setup_s),
        metric("op_p50_ms", "ms", summary.p50_ms),
        metric("op_tail_ms", "ms", summary.tail_ms),
        metric("ops_per_s", "1/s", summary.per_second),
        metric("peak_rss_mb", "MB", fixture::peak_rss_mb()),
    ]
}

fn common_notes(seed: u64, facts: usize, samples: &Samples, workload: &str) -> Vec<Metric> {
    let ms = stats::sorted_ms(&samples.latencies);
    vec![
        metric("op_p90_ms", "ms", stats::percentile(&ms, 90.0)),
        metric("op_p95_ms", "ms", stats::percentile(&ms, 95.0)),
        metric("op_p99_ms", "ms", stats::percentile(&ms, 99.0)),
        metric("op_max_ms", "ms", stats::percentile(&ms, 100.0)),
        metric("cores", "count", fixture::cores() as f64),
        metric("seed", "count", seed as f64),
        metric("abox_facts", "count", facts as f64),
        metric("op_samples", "count", samples.latencies.len() as f64),
        metric("op_tail_pct", "%", tail_pct(workload)),
        metric(
            "op_supported_pct",
            "%",
            stats::highest_supported(samples.latencies.len()).unwrap_or(0.0),
        ),
        metric("window_s", "s", samples.window.as_secs_f64()),
        metric("whole_window_ops_per_s", "1/s", samples.per_second()),
    ]
}

fn run_reads(workload: &str, seed: u64, seconds: u64, backend: Backend) -> Report {
    let (mut ready, setup_s) = repeat_setup(|| setup_reads(seed, backend));
    let order = shape_order(seed, ready.shapes.len());
    let samples = read_window(
        &mut ready,
        &order,
        WARMUP,
        Duration::from_secs(seconds),
        Instant::now(),
        false,
    );
    let (checked, mismatched) = cross_check(&ready.host, &ready.shapes);
    Report {
        attempted: samples.attempted + checked,
        failed: samples.failed + mismatched,
        metrics: end_to_end(workload, setup_s, &samples),
        notes: common_notes(seed, ready.kb.facts, &samples, workload),
    }
}

fn run_cold(workload: &str, seed: u64, seconds: u64) -> Report {
    let (mut ready, setup_s) = repeat_setup(|| setup_cold(seed));
    let epoch = Instant::now();
    let light: Vec<usize> = (0..ready.shapes.len())
        .filter(|&i| fixture::LIGHT.contains(&ready.shapes[i].name.as_str()))
        .collect();
    let order = cold_order(seed, ready.shapes.len(), &light);
    // Warm-up: one pass over the light shapes. It also mines this
    // generation's constraints, which a server does once, not per query.
    let mut expected = ready.expected.clone();
    let warm = load::read_loop(
        &mut ready.clients[0],
        &ready.shapes,
        &light,
        0,
        &mut expected,
        Duration::ZERO,
        Until::PassesFor(Duration::ZERO),
        epoch,
        false,
    );
    // Whole passes, so every pass pays the same Q6/Q13 tail.
    let samples = load::read_loop(
        &mut ready.clients[0],
        &ready.shapes,
        &order,
        0,
        &mut expected,
        Duration::ZERO,
        Until::PassesFor(Duration::from_secs(seconds)),
        epoch,
        false,
    );
    let (checked, mismatched) = cross_check(&ready.host, light.iter().map(|&i| &ready.shapes[i]));
    let passes = samples.latencies.len() / order.len();
    let mut notes = common_notes(seed, ready.kb.facts, &samples, workload);
    notes.push(metric("passes", "count", passes as f64));
    notes.push(metric("pass_statements", "count", order.len() as f64));
    notes.push(metric(
        "pass_s",
        "s",
        samples.window.as_secs_f64() / passes as f64,
    ));
    Report {
        attempted: warm.attempted + samples.attempted + checked,
        failed: warm.failed + samples.failed + mismatched,
        metrics: end_to_end(workload, setup_s, &samples),
        notes,
    }
}

/// Drop the hosted server, reopen its store, and count what an
/// acknowledged commit promised but the reopened server lacks.
/// Returns (recover_s, missing facts + generation mismatch).
pub fn reopen_and_check(ready: Ready, written: &Written) -> (f64, u64) {
    let Ready {
        clients,
        host,
        store,
        ..
    } = ready;
    drop(clients);
    let generation = host.server.generation();
    drop(host.stop());
    let dir = store.expect("a durable workload has a store directory");
    let started = Instant::now();
    let reopened = Server::open(dir.path(), fixture::server_config(true));
    let recover_s = started.elapsed().as_secs_f64();
    let reopened = reopened.expect("reopen the store the run left behind");
    let mut wrong = load::missing_facts(&written.acked, &reopened.snapshot());
    if reopened.generation() != generation {
        eprintln!(
            "reopened at generation {}, served {generation}",
            reopened.generation()
        );
        wrong += 1;
    }
    (recover_s, wrong)
}

fn run_writes(workload: &str, seed: u64, seconds: u64) -> Report {
    let (mut ready, setup_s) = repeat_setup(|| setup_writes(seed));
    let blocks = BLOCKS_PER_WRITER_PER_SECOND * seconds as usize;
    let written = commit_window(
        &mut ready,
        seed,
        WARMUP_BLOCKS,
        blocks,
        Instant::now(),
        false,
    );
    let txn = ready.host.server.txn_stats();
    let facts = ready.kb.facts;
    let metrics = end_to_end(workload, setup_s, &written.samples);
    let (recover_s, wrong) = reopen_and_check(ready, &written);
    let mut notes = common_notes(seed, facts, &written.samples, workload);
    notes.push(metric(
        "commit_facts_per_s",
        "1/s",
        written.samples.per_second() * BLOCK_FACTS as f64,
    ));
    notes.push(metric("commit_groups", "count", txn.commit_groups as f64));
    notes.push(metric("recover_s", "s", recover_s));
    Report {
        attempted: written.samples.attempted + 1,
        failed: written.samples.failed + wrong,
        metrics,
        notes,
    }
}

fn run_mixed(workload: &str, seed: u64, seconds: u64) -> Report {
    let (mut ready, setup_s) = repeat_setup(|| setup_mixed(seed));
    let order = shape_order(seed, ready.shapes.len());
    let (reads, written) = mixed_window(
        &mut ready,
        seed,
        &order,
        WARMUP,
        Duration::from_secs(seconds),
        Instant::now(),
        false,
    );
    let unreadable = load::missing_facts(&written.acked, &ready.host.server.snapshot());
    let (checked, mismatched) = cross_check(&ready.host, &ready.shapes);
    let commits = stats::sorted_ms(&written.samples.latencies);
    let mut notes = common_notes(seed, ready.kb.facts, &reads, workload);
    notes.extend([
        metric("commit_samples", "count", commits.len() as f64),
        metric("commit_p50_ms", "ms", stats::percentile(&commits, 50.0)),
        metric(
            "commit_late_max_ms",
            "ms",
            written.lateness.max_ns as f64 / 1e6,
        ),
        metric(
            "commit_late_mean_ms",
            "ms",
            written.lateness.mean_ns() / 1e6,
        ),
        metric("commits_sent_late", "count", written.lateness.late as f64),
    ]);
    Report {
        attempted: reads.attempted + written.samples.attempted + checked,
        failed: reads.failed + written.samples.failed + mismatched + unreadable,
        metrics: end_to_end(workload, setup_s, &reads),
        notes,
    }
}

pub fn run(workload: &str, seed: u64, seconds: u64) -> Report {
    match workload {
        "warm_read" => run_reads(workload, seed, seconds, Backend::Native),
        "warm_read_sql" => run_reads(workload, seed, seconds, Backend::Sql),
        "cold_compile" => run_cold(workload, seed, seconds),
        "write_commit" => run_writes(workload, seed, seconds),
        "mixed_read_write" => run_mixed(workload, seed, seconds),
        other => panic!("unknown workload {other}"),
    }
}
