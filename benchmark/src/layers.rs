//! The traced run: per-layer numbers from spans the benchmark records
//! around its own calls into each layer's public functions.
//!
//! Three parts, all on one time line written to
//! `benchmark/out/trace.<workload>.jsonl`:
//!
//! 1. the set-up layers, each called on its own;
//! 2. the workload's wire traffic in two short windows, one without and
//!    one with a client-side span per request (their difference is the
//!    tracing overhead);
//! 3. an in-process replay of the server's cold compile and its write
//!    path, stage by stage through public API, checked against what
//!    `Server::query` itself returns for the same shape.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use obda_core::{choose_reformulation, CostEstimator};
use obda_dllite::{AboxDelta, ConstraintSet, Dependencies, IndividualId, TBoxClosure};
use obda_query::{canonical_key, minimize_ucq, FolQuery};
use obda_rdbms::{
    Backend, DurableStore, Engine, EngineSnapshot, EvalOptions, ExplainEstimator, PreparedPlans,
    Server,
};
use obda_reform::{perfect_ref_pruned, prune_fol};

use crate::fixture::{self, Kb, Shape, TempDir};
use crate::load::{block_facts, Expected, Fact, Samples, Written, BLOCK_FACTS, BLOCK_INDIVIDUALS};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workloads::{self, metric, Metric, Ready, Report};

/// Warm-up of each of the two short wire windows.
const WIRE_WARMUP: Duration = Duration::from_secs(1);
/// In-process repetitions behind each write-path and hit-path number.
const REPEATS: usize = 50;

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("lubm.generate_ms", "ms"),
    ("layout.load_ms", "ms"),
    ("dllite.deps_compute_ms", "ms"),
    ("dllite.closure_compute_ms", "ms"),
    ("dllite.mine_ms", "ms"),
    ("dllite.constraints_mined", "count"),
    ("query.canonical_key_us", "us"),
    ("reform.perfectref_ms", "ms"),
    ("reform.ucq_arms", "count"),
    ("reform.minimize_ms", "ms"),
    ("reform.prune_ms", "ms"),
    ("reform.arms_pruned", "count"),
    ("reform.arms_kept", "count"),
    ("core.choose_ms", "ms"),
    ("core.search_ms", "ms"),
    ("core.cost_est_ms", "ms"),
    ("core.cost_est_calls", "count"),
    ("core.covers_explored", "count"),
    ("core.moves_applied", "count"),
    ("planner.prepare_ms", "ms"),
    ("sql.gen_ms", "ms"),
    ("sql.bytes", "bytes"),
    ("executor.execute_ms", "ms"),
    ("executor.rows_out", "count"),
    ("executor.work_units", "count"),
    ("executor.work_units_per_row", "ratio"),
    ("executor.qerror", "ratio"),
    ("sqlexec.run_ms", "ms"),
    ("server.query_hit_us", "us"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.cache_invalidated", "count"),
    ("server.compile_cold_ms", "ms"),
    ("server.apply_batch_ms", "ms"),
    ("layout.clone_ms", "ms"),
    ("layout.apply_delta_ms", "ms"),
    ("txn.commit_ms", "ms"),
    ("txn.conflicts", "count"),
    ("txn.group_size", "ratio"),
    ("store.append_group_ms", "ms"),
    ("store.append_group_durable_ms", "ms"),
    ("store.wal_bytes_per_fact", "bytes"),
    ("store.checkpoint_ms", "ms"),
    ("store.recover_ms", "ms"),
    ("pgwire.roundtrip_us", "us"),
    ("pgwire.overhead_us", "us"),
    ("pgwire.connect_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.layer_coverage_pct", "%"),
    ("trace.drift_pct", "%"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("read_qps", "1/s"),
    ("cold_pass_s", "s"),
    ("sql_bytes_total", "bytes"),
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("commit_facts_per_s", "1/s"),
    ("commit_late_ms", "ms"),
    ("recover_s", "s"),
    ("failed_share", "ratio"),
    ("cores", "count"),
];

/// The per-layer values of one run, by metric name.
struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.push((name, value));
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .0
                    .iter()
                    .rev()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                metric(name, unit, value)
            })
            .collect()
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The `&dyn CostEstimator` boundary, timed: every `estimate` call is
/// kept as an interval for the tracer to adopt as child spans.
struct TimedEstimator<'e> {
    inner: ExplainEstimator<'e>,
    calls: Mutex<Vec<(Instant, Instant)>>,
}

impl CostEstimator for TimedEstimator<'_> {
    fn estimate(&self, q: &FolQuery) -> f64 {
        let start = Instant::now();
        let cost = self.inner.estimate(q);
        let call = (start, Instant::now());
        self.calls.lock().expect("estimator call log").push(call);
        cost
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// What one staged compile-and-run produced, for the drift guard.
pub struct Staged {
    pub rows: Vec<Vec<u32>>,
    pub sql_bytes: usize,
    /// reformulate + plan + sqlgen + execute, as the server's
    /// `StageSpans` would split them.
    pub stages: Duration,
}

/// `Server::compile_cold` followed by `Server::query_on_as`'s
/// evaluation, replayed through public API with a span per stage.
pub fn staged_query(
    t: &mut Tracer,
    snap: &EngineSnapshot,
    deps: &Dependencies,
    shape: &Shape,
    backend: Backend,
) -> Staged {
    let config = fixture::server_config(false);
    t.request(&shape.name);
    t.span("server.request", |t| {
        let started = Instant::now();
        let constraints = t.span("dllite.constraints", |_| snap.constraints());
        let estimator = TimedEstimator {
            inner: ExplainEstimator::new(snap.engine()),
            calls: Mutex::new(Vec::new()),
        };
        let chosen = t.span("core.choose", |t| {
            let chosen = choose_reformulation(
                &shape.cq,
                snap.tbox(),
                deps,
                &estimator,
                &config.reform_strategy,
            );
            let calls = estimator.calls.lock().expect("estimator call log");
            t.children("core.cost_est", &calls);
            chosen
        });
        if let Some(search) = &chosen.search {
            t.count("core.search_ns", search.elapsed.as_nanos() as f64);
            t.count(
                "core.covers_explored",
                (search.explored_simple + search.explored_generalized) as f64,
            );
            t.count("core.moves_applied", search.moves_applied as f64);
        }
        let (fol, pruned) = t.span("reform.prune", |_| prune_fol(&chosen.fol, &constraints));
        t.count("reform.arms_pruned", pruned.total_pruned() as f64);
        t.count("reform.arms_kept", pruned.kept as f64);
        let reformulate = started.elapsed();

        let started = Instant::now();
        let plans = match backend {
            Backend::Native => t.span("planner.prepare", |_| snap.engine().prepare(&fol)),
            Backend::Sql => PreparedPlans {
                strategy: config.join_strategy,
                mode: config.exec_mode,
                plans: Vec::new(),
            },
        };
        let plan = started.elapsed();

        let started = Instant::now();
        let sql = t.span("sql.gen", |_| snap.engine().sql_for(&fol));
        let sqlgen = started.elapsed();
        t.count("sql.bytes", sql.len() as f64);

        let opts = EvalOptions {
            strategy: None,
            prepared: Some(&plans),
            threads: config.threads,
            sql_bytes: Some(sql.len()),
            sql_text: matches!(backend, Backend::Sql).then_some(sql.as_str()),
            backend: Some(backend),
            mode: None,
        };
        let execute_span = match backend {
            Backend::Native => "executor.execute",
            Backend::Sql => "sqlexec.run",
        };
        let outcome = t
            .span(execute_span, |_| snap.engine().evaluate_opts(&fol, &opts))
            .unwrap_or_else(|e| panic!("{}: {e}", shape.name));
        t.count("executor.rows_out", outcome.rows.len() as f64);
        t.count("executor.work_units", outcome.metrics.work_units());
        t.count(
            "executor.predicted_units",
            plans.plans.iter().map(|p| p.est_cost()).sum::<f64>(),
        );
        let mut rows = outcome.rows;
        rows.sort();
        Staged {
            rows,
            sql_bytes: sql.len(),
            stages: reformulate + plan + sqlgen + outcome.metrics.wall,
        }
    })
}

/// The whole-query PerfectRef and its minimization, on their own: the
/// reformulation work a cover search repeats per fragment.
fn standalone_reform(t: &mut Tracer, kb: &Kb, shape: &Shape) {
    t.request(&shape.name);
    let ucq = t.span("reform.perfectref", |_| {
        perfect_ref_pruned(&shape.cq, &kb.onto.tbox)
    });
    t.count("reform.ucq_arms", ucq.len() as f64);
    t.span("reform.minimize", |_| minimize_ucq(&ucq));
}

/// What the drift guard found.
pub struct Guard {
    pub checked: u64,
    /// Shapes whose staged rows or SQL size differ from the server's.
    pub mismatched: u64,
    /// Stage time of the guarded shapes, staged and as the server's own
    /// `StageSpans` report it.
    pub staged: Duration,
    pub served: Duration,
}

impl Guard {
    /// How far the staged stage times are from the server's, in percent.
    pub fn drift_pct(&self) -> f64 {
        if self.served.is_zero() {
            return 0.0;
        }
        (self.staged.as_secs_f64() / self.served.as_secs_f64() - 1.0) * 100.0
    }
}

/// Replay every shape stage by stage on a server without a plan cache.
/// The shapes `guarded` picks are also served by `Server::query_on_as`,
/// which must return the same rows and SQL size.
pub fn replay_and_guard(
    t: &mut Tracer,
    kb: &Kb,
    deps: &Dependencies,
    shapes: &[Shape],
    backend: Backend,
    guarded: impl Fn(&Shape) -> bool,
) -> Guard {
    let server = fixture::new_server(kb, false);
    let snap = server.snapshot();
    t.request("mine");
    t.span("dllite.constraints", |_| snap.constraints());
    let mut guard = Guard {
        checked: 0,
        mismatched: 0,
        staged: Duration::ZERO,
        served: Duration::ZERO,
    };
    for shape in shapes {
        let staged = staged_query(t, &snap, deps, shape, backend);
        if !guarded(shape) {
            continue;
        }
        let served = server
            .query_on_as(&snap, &shape.cq, backend)
            .unwrap_or_else(|e| panic!("{}: {e}", shape.name));
        let mut rows = served.outcome.rows;
        rows.sort();
        guard.checked += 1;
        if rows != staged.rows || served.outcome.sql_bytes != staged.sql_bytes {
            eprintln!(
                "{}: staged {} rows / {} SQL bytes, served {} rows / {} SQL bytes",
                shape.name,
                staged.rows.len(),
                staged.sql_bytes,
                rows.len(),
                served.outcome.sql_bytes
            );
            guard.mismatched += 1;
        }
        guard.staged += staged.stages;
        let spans = served.spans;
        guard.served += spans.reformulate + spans.plan + spans.sqlgen + spans.execute;
    }
    guard
}

/// A block as a batch: its four new names, and its facts over the ids
/// those names will be interned at when `base` individuals exist.
fn batch(kb: &Kb, tag: &str, base: usize) -> AboxDelta {
    let ids = [0, 1, 2, 3].map(|i| IndividualId((base + i) as u32));
    let mut delta = AboxDelta::new();
    delta.new_individuals = BLOCK_INDIVIDUALS
        .iter()
        .map(|kind| format!("{tag}{kind}"))
        .collect();
    for fact in block_facts(&kb.onto, ids) {
        delta = match fact {
            Fact::Concept(c, a) => delta.insert_concept(c, a),
            Fact::Role(r, a, b) => delta.insert_role(r, a, b),
        };
    }
    delta
}

/// The write path in-process: one-shot batches, transactions, the
/// storage clone a commit pays, the WAL with and without `fsync`, a
/// checkpoint, and recovery.
fn replay_writes(t: &mut Tracer, kb: &Kb, layers: &mut Layers) {
    let dir = TempDir::new("layers");
    let server = fixture::new_durable_server(kb, dir.path());
    let o = &kb.onto;
    for k in 0..REPEATS {
        t.request("apply_batch");
        let base = server.snapshot().vocabulary().num_individuals();
        let delta = batch(kb, &format!("lb{k}"), base);
        t.span("server.apply_batch", |_| server.apply_batch(&delta))
            .expect("apply_batch");
    }
    for k in 0..REPEATS {
        t.request("txn");
        let mut txn = server.begin();
        let ids = BLOCK_INDIVIDUALS.map(|kind| txn.individual(&format!("lt{k}{kind}")));
        for fact in block_facts(&kb.onto, ids) {
            match fact {
                Fact::Concept(c, a) => txn.insert_concept(c, a),
                Fact::Role(r, a, b) => txn.insert_role(r, a, b),
            }
        }
        t.span("txn.commit", |_| txn.commit()).expect("commit");
    }
    let snap = server.snapshot();
    let base = snap.vocabulary().num_individuals();
    let delta = batch(kb, "lc", base);
    for _ in 0..REPEATS {
        t.request("clone");
        let mut engine: Engine = t.span("layout.clone", |_| snap.engine().clone());
        t.span("layout.apply_delta", |_| engine.apply_delta(&delta));
    }
    t.request("checkpoint");
    t.span("store.checkpoint", |_| server.checkpoint())
        .expect("checkpoint");

    let wal_dir = TempDir::new("wal");
    let mut store = DurableStore::create(wal_dir.path(), &o.voc, &o.tbox, &kb.abox, 0)
        .expect("create a store for the WAL measurements");
    let base = o.voc.num_individuals();
    let mut wal_bytes = 0;
    for k in 0..REPEATS {
        t.request("wal");
        let group = [batch(kb, &format!("lw{k}"), base + 8 * k)];
        wal_bytes += t
            .span("store.append_group", |_| store.append_group(&group))
            .expect("append_group");
        let group = [batch(kb, &format!("lv{k}"), base + 8 * k + 4)];
        wal_bytes += t
            .span("store.append_group_durable", |_| {
                store.append_group_durable(&group)
            })
            .expect("append_group_durable");
    }
    drop(store);
    t.request("recover");
    t.span("store.recover", |_| DurableStore::open(wal_dir.path()))
        .expect("recover the store");

    let mean = |name: &str| stats::mean(&t.durations_ms(name));
    layers.set("server.apply_batch_ms", mean("server.apply_batch"));
    layers.set("txn.commit_ms", mean("txn.commit"));
    layers.set("layout.clone_ms", mean("layout.clone"));
    layers.set("layout.apply_delta_ms", mean("layout.apply_delta"));
    layers.set("store.append_group_ms", mean("store.append_group"));
    layers.set(
        "store.append_group_durable_ms",
        mean("store.append_group_durable"),
    );
    layers.set(
        "store.wal_bytes_per_fact",
        wal_bytes as f64 / (2 * REPEATS * BLOCK_FACTS) as f64,
    );
    layers.set("store.checkpoint_ms", ms(t.total_ns("store.checkpoint")));
    layers.set("store.recover_ms", ms(t.total_ns("store.recover")));
}

/// The set-up layers, each on its own: what `Server::new` and the first
/// compile do, split at the public functions they call.
fn replay_setup(t: &mut Tracer, seed: u64, layers: &mut Layers) -> (Kb, Dependencies) {
    t.request("setup");
    let kb = t.span("lubm.generate", |_| fixture::build_kb(seed, fixture::FACTS));
    let (voc, tbox) = (&kb.onto.voc, &kb.onto.tbox);
    let deps = t.span("dllite.deps_compute", |_| Dependencies::compute(voc, tbox));
    let closure = t.span("dllite.closure_compute", |_| TBoxClosure::compute(tbox));
    let config = fixture::server_config(true);
    let engine = t.span("layout.load", |_| {
        Engine::load(&kb.abox, voc, config.layout, config.profile.clone())
    });
    let constraints = t.span("dllite.mine", |_| {
        ConstraintSet::mine(&closure, &engine.extract_extents(voc))
    });
    layers.set("lubm.generate_ms", ms(t.total_ns("lubm.generate")));
    layers.set(
        "dllite.deps_compute_ms",
        ms(t.total_ns("dllite.deps_compute")),
    );
    layers.set(
        "dllite.closure_compute_ms",
        ms(t.total_ns("dllite.closure_compute")),
    );
    layers.set("layout.load_ms", ms(t.total_ns("layout.load")));
    layers.set("dllite.mine_ms", ms(t.total_ns("dllite.mine")));
    layers.set("dllite.constraints_mined", constraints.len() as f64);
    (kb, deps)
}

/// Connection set-up and the cheapest round trip (`SHOW generation`:
/// framing and session, no engine).
fn wire_basics(t: &mut Tracer, ready: &mut Ready, layers: &mut Layers) {
    for _ in 0..5 {
        t.request("connect");
        t.span("pgwire.connect", |_| ready.host.connect(Backend::Native))
            .terminate();
    }
    for _ in 0..4 * REPEATS {
        t.request("roundtrip");
        t.span("pgwire.roundtrip", |_| {
            ready.clients[0].simple_query("SHOW generation")
        })
        .expect("SHOW generation");
    }
    layers.set(
        "pgwire.connect_ms",
        stats::median(&t.durations_ms("pgwire.connect")),
    );
    layers.set(
        "pgwire.roundtrip_us",
        stats::median(&t.durations_ms("pgwire.roundtrip")) * 1e3,
    );
}

/// The plan-cache hit path in-process, and the key it looks up by.
fn replay_hits(t: &mut Tracer, server: &Server, shapes: &[Shape], backend: Backend) -> f64 {
    let snap = server.snapshot();
    for _ in 0..REPEATS {
        for shape in shapes {
            t.request(&shape.name);
            t.span("query.canonical_key", |_| canonical_key(&shape.cq));
            let served = t
                .span("server.query_hit", |_| {
                    server.query_on_as(&snap, &shape.cq, backend)
                })
                .unwrap_or_else(|e| panic!("{}: {e}", shape.name));
            assert!(served.cache_hit, "{} missed a primed cache", shape.name);
        }
    }
    stats::median(&t.durations_ms("server.query_hit")) * 1e3
}

/// Median and p99 of one traced window under the issue's names; a p99
/// with fewer than ten samples beyond it is left at 0.
fn latency_metrics(layers: &mut Layers, p50: &'static str, p99: &'static str, samples: &Samples) {
    let sorted = stats::sorted_ms(&samples.latencies);
    layers.set(p50, stats::percentile(&sorted, 50.0));
    if stats::samples_beyond(sorted.len(), 99.0) >= stats::MIN_BEYOND {
        layers.set(p99, stats::percentile(&sorted, 99.0));
    }
}

fn read_metrics(layers: &mut Layers, reads: &Samples) {
    latency_metrics(layers, "read_p50_ms", "read_p99_ms", reads);
    layers.set("read_qps", reads.per_second());
}

fn commit_metrics(layers: &mut Layers, written: &Written) {
    latency_metrics(layers, "commit_p50_ms", "commit_p99_ms", &written.samples);
    layers.set(
        "commit_facts_per_s",
        written.samples.per_second() * BLOCK_FACTS as f64,
    );
    layers.set("commit_late_ms", written.lateness.max_ns as f64 / 1e6);
}

/// Tracing overhead: traced against untraced median, in percent.
fn overhead_pct(untraced: &Samples, traced: &Samples) -> f64 {
    let p50 = |s: &Samples| stats::percentile(&stats::sorted_ms(&s.latencies), 50.0);
    (p50(traced) / p50(untraced) - 1.0) * 100.0
}

/// Operations attempted and failed over the whole traced run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, samples: &Samples) {
        self.attempted += samples.attempted;
        self.failed += samples.failed;
    }
}

/// What a wire window needs besides the hosted server.
struct Wire<'a> {
    t: &'a mut Tracer,
    layers: &'a mut Layers,
    tally: &'a mut Tally,
    seed: u64,
    /// Length of each of the two windows: a quarter of `--seconds`.
    window: Duration,
    epoch: Instant,
}

/// Plan-cache movement of a hosted server since `before`.
fn cache_metrics(layers: &mut Layers, server: &Server, before: obda_rdbms::CacheStats) {
    let now = server.cache_stats();
    let (hits, misses) = (now.hits - before.hits, now.misses - before.misses);
    if hits + misses > 0 {
        layers.set(
            "server.cache_hit_ratio",
            hits as f64 / (hits + misses) as f64,
        );
    }
    layers.set(
        "server.cache_invalidated",
        (now.invalidated - before.invalidated) as f64,
    );
}

fn txn_metrics(layers: &mut Layers, server: &Server) {
    let stats = server.txn_stats();
    layers.set("txn.conflicts", stats.conflicts as f64);
    layers.set(
        "txn.group_size",
        stats.committed as f64 / stats.commit_groups.max(1) as f64,
    );
}

/// Two read windows, then (on a primed server) the in-process hit path.
fn wire_reads(w: Wire, mut ready: Ready, backend: Backend, primed: bool) {
    let before = ready.host.server.cache_stats();
    let order = workloads::shape_order(w.seed, ready.shapes.len());
    let plain = workloads::read_window(&mut ready, &order, WIRE_WARMUP, w.window, w.epoch, false);
    let traced = workloads::read_window(&mut ready, &order, WIRE_WARMUP, w.window, w.epoch, true);
    w.layers
        .set("trace.overhead_pct", overhead_pct(&plain, &traced));
    read_metrics(w.layers, &traced);
    cache_metrics(w.layers, &ready.host.server, before);
    w.tally.add(&plain);
    w.tally.add(&traced);
    w.t.merge(traced.tracer.expect("a traced window keeps its tracer"));
    if primed {
        let hit_us = replay_hits(w.t, &ready.host.server, &ready.shapes, backend);
        let wire_us = stats::percentile(&stats::sorted_ms(&plain.latencies), 50.0) * 1e3;
        w.layers.set("server.query_hit_us", hit_us);
        w.layers.set(
            "query.canonical_key_us",
            stats::median(&w.t.durations_ms("query.canonical_key")) * 1e3,
        );
        w.layers.set("pgwire.overhead_us", wire_us - hit_us);
    }
}

/// Two commit windows, then the reopen.
fn wire_writes(w: Wire, mut ready: Ready, seconds: u64) {
    let blocks = workloads::BLOCKS_PER_WRITER_PER_SECOND * seconds as usize / 4;
    let warm = workloads::WARMUP_BLOCKS;
    let plain = workloads::commit_window(&mut ready, w.seed, warm, blocks, w.epoch, false);
    let mut traced = workloads::commit_window(&mut ready, w.seed + 1, warm, blocks, w.epoch, true);
    w.layers.set(
        "trace.overhead_pct",
        overhead_pct(&plain.samples, &traced.samples),
    );
    commit_metrics(w.layers, &traced);
    txn_metrics(w.layers, &ready.host.server);
    w.tally.add(&plain.samples);
    w.tally.add(&traced.samples);
    w.t.merge(traced.samples.tracer.take().expect("traced window"));
    traced.acked.extend(plain.acked);
    let (recover_s, wrong) = workloads::reopen_and_check(ready, &traced);
    w.layers.set("recover_s", recover_s);
    w.tally.attempted += 1;
    w.tally.failed += wrong;
}

/// Two windows of one reader against the paced writer.
fn wire_mixed(w: Wire, mut ready: Ready) {
    let before = ready.host.server.cache_stats();
    let order = workloads::shape_order(w.seed, ready.shapes.len());
    let (plain, plain_writes) = workloads::mixed_window(
        &mut ready,
        w.seed,
        &order,
        WIRE_WARMUP,
        w.window,
        w.epoch,
        false,
    );
    let (traced, mut traced_writes) = workloads::mixed_window(
        &mut ready,
        w.seed + 1,
        &order,
        WIRE_WARMUP,
        w.window,
        w.epoch,
        true,
    );
    w.layers
        .set("trace.overhead_pct", overhead_pct(&plain, &traced));
    read_metrics(w.layers, &traced);
    commit_metrics(w.layers, &traced_writes);
    cache_metrics(w.layers, &ready.host.server, before);
    txn_metrics(w.layers, &ready.host.server);
    for samples in [
        &plain,
        &traced,
        &plain_writes.samples,
        &traced_writes.samples,
    ] {
        w.tally.add(samples);
    }
    w.t.merge(traced.tracer.expect("traced window"));
    w.t.merge(traced_writes.samples.tracer.take().expect("traced window"));
    traced_writes.acked.extend(plain_writes.acked);
    w.tally.failed +=
        crate::load::missing_facts(&traced_writes.acked, &ready.host.server.snapshot());
}

/// The per-layer numbers of the staged replay, as totals over one pass
/// of `shapes`.
fn staged_metrics(t: &Tracer, staged_from: usize, backend: Backend, layers: &mut Layers) {
    let selves = trace::self_times(&t.spans[staged_from..]);
    let requests = selves.get("server.request").copied().unwrap_or(0);
    let total: u64 = selves.values().sum();
    layers.set(
        "trace.layer_coverage_pct",
        (total - requests) as f64 / total as f64 * 100.0,
    );
    let total_of = |name: &str| ms(t.total_ns(name));
    let execute = total_of("executor.execute") + total_of("sqlexec.run");
    layers.set(
        "server.compile_cold_ms",
        total_of("server.request") - execute,
    );
    layers.set("cold_pass_s", total_of("server.request") / 1e3);
    layers.set("core.choose_ms", total_of("core.choose"));
    layers.set("core.search_ms", t.count_total("core.search_ns") / 1e6);
    layers.set("core.cost_est_ms", total_of("core.cost_est"));
    layers.set(
        "core.cost_est_calls",
        t.spans.iter().filter(|s| s.name == "core.cost_est").count() as f64,
    );
    for name in [
        "core.covers_explored",
        "core.moves_applied",
        "reform.arms_pruned",
        "reform.arms_kept",
        "sql.bytes",
        "executor.rows_out",
        "executor.work_units",
    ] {
        layers.set(name, t.count_total(name));
    }
    layers.set("sql_bytes_total", t.count_total("sql.bytes"));
    layers.set("reform.prune_ms", total_of("reform.prune"));
    layers.set("planner.prepare_ms", total_of("planner.prepare"));
    layers.set("sql.gen_ms", total_of("sql.gen"));
    layers.set("executor.execute_ms", total_of("executor.execute"));
    layers.set("sqlexec.run_ms", total_of("sqlexec.run"));
    let (rows, units) = (
        t.count_total("executor.rows_out"),
        t.count_total("executor.work_units"),
    );
    layers.set("executor.work_units_per_row", units / rows.max(1.0));
    if backend == Backend::Native {
        layers.set(
            "executor.qerror",
            t.count_total("executor.predicted_units") / units.max(1.0),
        );
    }
}

pub fn run(workload: &str, seed: u64, seconds: u64) -> Report {
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch);
    let mut layers = Layers(Vec::new());
    let mut tally = Tally::default();

    let (kb, deps) = replay_setup(&mut t, seed, &mut layers);

    let backend = match workload {
        "warm_read_sql" => Backend::Sql,
        _ => Backend::Native,
    };
    let mut ready = match workload {
        "warm_read" | "warm_read_sql" => workloads::setup_reads(seed, backend),
        "cold_compile" => workloads::setup_cold(seed),
        "write_commit" => workloads::setup_writes(seed),
        "mixed_read_write" => workloads::setup_mixed(seed),
        other => panic!("unknown workload {other}"),
    };
    wire_basics(&mut t, &mut ready, &mut layers);
    let wire = Wire {
        t: &mut t,
        layers: &mut layers,
        tally: &mut tally,
        seed,
        window: Duration::from_secs_f64(seconds as f64 / 4.0),
        epoch,
    };
    match workload {
        "warm_read" | "warm_read_sql" => wire_reads(wire, ready, backend, true),
        "cold_compile" => {
            // Over the wire, the light shapes only: the full cold pass is
            // the staged replay below.
            ready
                .shapes
                .retain(|s| fixture::LIGHT.contains(&s.name.as_str()));
            ready.expected = Expected::exact(ready.shapes.len());
            wire_reads(wire, ready, backend, false)
        }
        "write_commit" => wire_writes(wire, ready, seconds),
        _ => wire_mixed(wire, ready),
    }

    // The staged replay of the cold compile, over the shapes the
    // workload reads (`write_commit` reads nothing). Each light shape is
    // also served by `Server::query` and the two must agree; `verify`
    // does the same for the heavy shapes, whose second compile would
    // double the length of this run.
    let shapes = match workload {
        "write_commit" => Vec::new(),
        "cold_compile" => fixture::shapes(&kb.onto),
        _ => fixture::light_shapes(&kb.onto),
    };
    if !shapes.is_empty() {
        let staged_from = t.spans.len();
        let guard = replay_and_guard(&mut t, &kb, &deps, &shapes, backend, |shape| {
            fixture::LIGHT.contains(&shape.name.as_str())
        });
        tally.attempted += guard.checked;
        tally.failed += guard.mismatched;
        layers.set("trace.drift_pct", guard.drift_pct());
        staged_metrics(&t, staged_from, backend, &mut layers);
        // Whole-query PerfectRef on its own, light shapes only: on the
        // heavy ones it is the same seconds `core.search_ms` already shows.
        for shape in shapes
            .iter()
            .filter(|s| fixture::LIGHT.contains(&s.name.as_str()))
        {
            standalone_reform(&mut t, &kb, shape);
        }
        layers.set("reform.perfectref_ms", ms(t.total_ns("reform.perfectref")));
        layers.set("reform.minimize_ms", ms(t.total_ns("reform.minimize")));
        layers.set("reform.ucq_arms", t.count_total("reform.ucq_arms"));
    }
    if matches!(workload, "write_commit" | "mixed_read_write") {
        replay_writes(&mut t, &kb, &mut layers);
    }

    layers.set(
        "failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    layers.set("cores", fixture::cores() as f64);
    let path = std::path::Path::new(fixture::OUT_DIR).join(format!("trace.{workload}.jsonl"));
    t.write_jsonl(&path)
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));

    // The summary: each layer's self time, over the run and per shape.
    let mut notes = vec![
        metric("seed", "count", seed as f64),
        metric("trace_spans", "count", t.spans.len() as f64),
    ];
    for (name, ns) in trace::self_times(&t.spans) {
        notes.push(metric(&format!("self.{name}"), "ms", ms(ns)));
    }
    for (label, selves) in trace::self_times_by_request(&t) {
        for (name, ns) in selves {
            notes.push(metric(&format!("self.{label}.{name}"), "ms", ms(ns)));
        }
    }
    Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: layers.into_metrics(),
        notes,
    }
}
