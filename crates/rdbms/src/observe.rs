//! The observability spine: staged query traces, a lock-free server
//! metrics registry, a slow-query ring, and Prometheus text exposition.
//!
//! The paper's thesis is that the cost model should pick the plan that
//! actually runs fastest — which a *running* server can only audit if it
//! measures itself. This module provides the three pieces every layer
//! reports through:
//!
//! * [`StageSpans`] — per-statement wall-clock spans for the pipeline
//!   stages (parse → reformulate → plan → SQL-gen → execute →
//!   serialize). The serving layer fills the compile stages on a cache
//!   miss (a warm hit genuinely skips them, so its spans are zero —
//!   that *is* the §6.4 amortization, now observable), the engine fills
//!   `execute` ([`crate::metrics::ExecMetrics::wall`]), and the wire
//!   session brackets the whole thing with `parse`/`serialize`.
//! * [`MetricsRegistry`] — atomic counters and fixed-bucket latency
//!   [`Histogram`]s, no locks on the hot path. Query latency per
//!   backend, plan-cache and transaction counters, WAL appends/fsyncs/
//!   bytes, checkpoint durations, connection admission, contained
//!   panics, and the running predicted-vs-measured cost totals that
//!   make cost-model accuracy a first-class observable. A disabled
//!   registry reduces every record call to one relaxed load — the
//!   bench guard holds the warm-path overhead under 5%.
//! * [`MetricsEndpoint`] — `GET /metrics` over a plain
//!   `std::net::TcpListener`, serving [`render_prometheus`] text
//!   exposition (format 0.0.4). Malformed requests get `400`/`404`,
//!   never a panic: each connection is handled under `catch_unwind`.
//!
//! The slowest [`SLOW_RING_CAPACITY`] traces are retained in a ring
//! (`SHOW slow_queries` over the wire) guarded by an admission
//! threshold, so the common fast query never takes the ring lock.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::server::Server;
use crate::sqlexec::Backend;

/// The `p`-th percentile (0..=100) of an unsorted latency sample, by the
/// nearest-rank method. Empty samples yield zero. This is the single
/// shared definition — `obda_bench` re-exports it, and the histogram
/// quantile tests below compare bucketed quantiles against it.
pub fn percentile(samples: &[Duration], p: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Upper bounds (µs) of the latency histogram buckets; one implicit
/// `+Inf` overflow bucket follows. Spans 50µs–5s: a warm cached query
/// lands in the first buckets, a cold DPH reformulation near the top.
pub const LATENCY_BUCKETS_US: [u64; 15] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 5_000_000,
];

/// Bucket count including the overflow bucket.
pub const BUCKET_COUNT: usize = LATENCY_BUCKETS_US.len() + 1;

/// A fixed-bucket latency histogram: lock-free observe (one relaxed
/// `fetch_add` per bucket/sum/count), Prometheus-compatible snapshot.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    sum_micros: AtomicU64,
    count: AtomicU64,
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Clone, Copy, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts; last entry is the overflow.
    pub buckets: [u64; BUCKET_COUNT],
    pub sum_micros: u64,
    pub count: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(micros: u64) -> usize {
        LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| micros <= bound)
            .unwrap_or(LATENCY_BUCKETS_US.len())
    }

    pub fn observe(&self, d: Duration) {
        self.observe_micros(micros(d));
    }

    pub fn observe_micros(&self, micros: u64) {
        self.buckets[Self::bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKET_COUNT];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }

    /// The nearest-rank `p`-th quantile at bucket resolution: the upper
    /// bound of the bucket holding the rank-`⌈p/100·n⌉` observation.
    /// For observations placed exactly on bucket bounds this agrees with
    /// [`percentile`] over the raw samples; in general it rounds up to
    /// the bucket bound. Overflow observations report the largest bound.
    pub fn quantile(&self, p: f64) -> Duration {
        let snap = self.snapshot();
        if snap.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((p / 100.0) * snap.count as f64).ceil() as u64;
        let rank = rank.clamp(1, snap.count);
        let mut seen = 0u64;
        for (i, &n) in snap.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let bound = LATENCY_BUCKETS_US
                    .get(i)
                    .copied()
                    .unwrap_or(LATENCY_BUCKETS_US[LATENCY_BUCKETS_US.len() - 1]);
                return Duration::from_micros(bound);
            }
        }
        Duration::from_micros(LATENCY_BUCKETS_US[LATENCY_BUCKETS_US.len() - 1])
    }
}

/// The pipeline stages a statement passes through, in order.
pub const STAGE_NAMES: [&str; 6] = [
    "parse",
    "reformulate",
    "plan",
    "sqlgen",
    "execute",
    "serialize",
];

/// What a commit spends its time on, in order: staging (id resolution,
/// first-committer-wins validation, queueing), the group's WAL append
/// and fsync, the apply phase (engine clone + deltas), the published
/// vocabulary, the publish (snapshot swap, plan-cache purge, conflict
/// registry prune), and waiting for another leader's commit seat. The
/// first and last are paid per committer, the rest once per group by
/// its leader, so together they sum to the committers' commit time.
pub const COMMIT_STAGE_NAMES: [&str; 6] =
    ["stage", "wal", "apply", "vocabulary", "publish", "wait"];

/// Index into [`COMMIT_STAGE_NAMES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitStage {
    Stage,
    Wal,
    Apply,
    Vocabulary,
    Publish,
    Wait,
}

/// Per-stage wall-clock spans of one statement. Stages a statement
/// skipped (a warm cache hit skips reformulate/plan/sqlgen; a library
/// call has no parse/serialize) stay zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageSpans {
    pub parse: Duration,
    pub reformulate: Duration,
    pub plan: Duration,
    pub sqlgen: Duration,
    pub execute: Duration,
    pub serialize: Duration,
}

impl StageSpans {
    /// Spans in [`STAGE_NAMES`] order.
    pub fn as_array(&self) -> [Duration; 6] {
        [
            self.parse,
            self.reformulate,
            self.plan,
            self.sqlgen,
            self.execute,
            self.serialize,
        ]
    }

    /// Total time across all stages.
    pub fn total(&self) -> Duration {
        self.as_array().iter().sum()
    }
}

/// One completed statement's trace: id, spans, and enough context to
/// read a slow-query report without the original session.
#[derive(Clone, Debug)]
pub struct QueryTrace {
    /// Server-unique, monotonically assigned.
    pub id: u64,
    /// The statement text, truncated to [`TRACE_QUERY_MAX`] chars.
    pub query: String,
    pub backend: Backend,
    pub cache_hit: bool,
    /// Snapshot generation the statement ran against.
    pub generation: u64,
    pub rows: u64,
    pub spans: StageSpans,
    /// End-to-end statement time (≥ the span sum: includes dispatch).
    pub total: Duration,
}

/// Longest statement text a trace retains.
pub const TRACE_QUERY_MAX: usize = 160;

/// How many slowest traces `SHOW slow_queries` retains.
pub const SLOW_RING_CAPACITY: usize = 16;

/// Truncate a statement text for trace retention (char-boundary safe).
pub fn truncate_query(text: &str) -> String {
    if text.len() <= TRACE_QUERY_MAX {
        return text.to_string();
    }
    let mut end = TRACE_QUERY_MAX;
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &text[..end])
}

/// The server-wide metrics registry. Hot-path recording is one relaxed
/// atomic per counter — the only lock is the slow-query ring, taken only
/// when a statement beats the ring's admission threshold. Disabling the
/// registry ([`MetricsRegistry::set_enabled`]) reduces every record call
/// to a single relaxed load, which is what the metrics-overhead bench
/// guard measures.
pub struct MetricsRegistry {
    enabled: AtomicBool,
    trace_ids: AtomicU64,
    /// Indexed by [`backend_index`].
    queries: [AtomicU64; 2],
    query_errors: AtomicU64,
    rows_returned: AtomicU64,
    latency: [Histogram; 2],
    /// Accumulated stage time (µs), indexed like [`STAGE_NAMES`].
    stage_micros: [AtomicU64; 6],
    /// Predicted plan cost and measured executor work, both in
    /// milli-work-units: their running ratio is the live cost-model
    /// accuracy (§6.1's predicted-vs-actual, as a counter pair).
    predicted_milli_units: AtomicU64,
    measured_milli_units: AtomicU64,
    wal_appends: AtomicU64,
    wal_fsyncs: AtomicU64,
    wal_bytes: AtomicU64,
    /// Accumulated commit time (µs), indexed like [`COMMIT_STAGE_NAMES`].
    commit_stage_micros: [AtomicU64; 6],
    /// Accumulated time committers spent in `Txn::commit` /
    /// `Server::apply_batch` — what the stage totals should add up to.
    commit_micros: AtomicU64,
    /// Overlay snapshots built for in-transaction reads, and their time.
    txn_overlays: AtomicU64,
    txn_overlay_micros: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_micros: AtomicU64,
    conns_admitted: AtomicU64,
    conns_rejected: AtomicU64,
    panics_recovered: AtomicU64,
    /// Union arms dropped by constraint-driven pruning, split by reason
    /// (provably empty vs data-subsumed).
    pruned_arms_empty: AtomicU64,
    pruned_arms_subsumed: AtomicU64,
    /// One observation per generation whose constraints were mined
    /// (extent extraction + inclusion checks; the TBox closure is
    /// per-scope and not in it) — what a write costs its first reader.
    constraint_mining: Histogram,
    /// Admission bar for the ring: total µs of the ring's fastest entry
    /// once full (`0` while the ring has room).
    slow_threshold_micros: AtomicU64,
    slow: Mutex<Vec<QueryTrace>>,
    /// Statements slower than this also log one structured line to
    /// stderr (`u64::MAX` = off).
    slow_log_micros: AtomicU64,
}

/// A duration as whole microseconds, saturating.
fn micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// Stable index of a backend in per-backend counter arrays.
pub fn backend_index(backend: Backend) -> usize {
    match backend {
        Backend::Native => 0,
        Backend::Sql => 1,
    }
}

/// Backend names in [`backend_index`] order.
pub const BACKEND_NAMES: [&str; 2] = ["native", "sql"];

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: AtomicBool::new(true),
            trace_ids: AtomicU64::new(0),
            queries: Default::default(),
            query_errors: AtomicU64::new(0),
            rows_returned: AtomicU64::new(0),
            latency: Default::default(),
            stage_micros: Default::default(),
            predicted_milli_units: AtomicU64::new(0),
            measured_milli_units: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            wal_fsyncs: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            commit_stage_micros: Default::default(),
            commit_micros: AtomicU64::new(0),
            txn_overlays: AtomicU64::new(0),
            txn_overlay_micros: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            checkpoint_micros: AtomicU64::new(0),
            conns_admitted: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
            panics_recovered: AtomicU64::new(0),
            pruned_arms_empty: AtomicU64::new(0),
            pruned_arms_subsumed: AtomicU64::new(0),
            constraint_mining: Histogram::new(),
            slow_threshold_micros: AtomicU64::new(0),
            slow: Mutex::new(Vec::new()),
            slow_log_micros: AtomicU64::new(u64::MAX),
        }
    }

    /// Toggle recording. Off, every record call is one relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Allocate the next trace id (ids keep flowing when disabled so a
    /// re-enabled registry never reuses one).
    pub fn next_trace_id(&self) -> u64 {
        self.trace_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Statements slower than `threshold` log one structured line to
    /// stderr; `None` turns the log off.
    pub fn set_slow_log_threshold(&self, threshold: Option<Duration>) {
        self.slow_log_micros
            .store(threshold.map_or(u64::MAX, micros), Ordering::Relaxed);
    }

    /// Record one served query: per-backend count + latency histogram,
    /// row counter. Called by the serving layer for every query
    /// (library or wire).
    pub fn record_query(&self, backend: Backend, latency: Duration, rows: u64) {
        if !self.is_enabled() {
            return;
        }
        let i = backend_index(backend);
        self.queries[i].fetch_add(1, Ordering::Relaxed);
        self.rows_returned.fetch_add(rows, Ordering::Relaxed);
        self.latency[i].observe(latency);
    }

    pub fn record_query_error(&self) {
        if self.is_enabled() {
            self.query_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one cold compilation's constraint-pruning outcome: union
    /// arms dropped as provably empty and as data-subsumed.
    pub fn record_pruned_arms(&self, empty: usize, subsumed: usize) {
        if !self.is_enabled() {
            return;
        }
        self.pruned_arms_empty
            .fetch_add(empty as u64, Ordering::Relaxed);
        self.pruned_arms_subsumed
            .fetch_add(subsumed as u64, Ordering::Relaxed);
    }

    /// Record one generation's constraint-mining run.
    pub fn record_constraint_mining(&self, took: Duration) {
        if self.is_enabled() {
            self.constraint_mining.observe(took);
        }
    }

    /// Accumulate one cost-model accuracy sample: the plan's predicted
    /// cost vs the executor's measured work units.
    pub fn record_cost_sample(&self, predicted: f64, measured: f64) {
        if !self.is_enabled() {
            return;
        }
        let clamp = |v: f64| {
            if v.is_finite() && v > 0.0 {
                (v * 1000.0).min(u64::MAX as f64) as u64
            } else {
                0
            }
        };
        self.predicted_milli_units
            .fetch_add(clamp(predicted), Ordering::Relaxed);
        self.measured_milli_units
            .fetch_add(clamp(measured), Ordering::Relaxed);
    }

    /// Record a completed statement trace: stage-time totals, the
    /// slow-query ring (if it beats the admission threshold), and the
    /// structured stderr slow log.
    pub fn record_trace(&self, trace: QueryTrace) {
        if !self.is_enabled() {
            return;
        }
        for (slot, span) in self.stage_micros.iter().zip(trace.spans.as_array()) {
            slot.fetch_add(micros(span), Ordering::Relaxed);
        }
        let total_micros = micros(trace.total);
        if total_micros >= self.slow_log_micros.load(Ordering::Relaxed) {
            log_slow_query(&trace);
        }
        // Ring admission: the common fast statement compares one relaxed
        // load and moves on; only candidates take the lock.
        if total_micros > self.slow_threshold_micros.load(Ordering::Relaxed)
            || self
                .slow
                .lock()
                .map(|r| r.len())
                .unwrap_or(SLOW_RING_CAPACITY)
                < SLOW_RING_CAPACITY
        {
            let mut ring = match self.slow.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            ring.push(trace);
            if ring.len() > SLOW_RING_CAPACITY {
                if let Some((min_at, _)) = ring.iter().enumerate().min_by_key(|(_, t)| t.total) {
                    ring.swap_remove(min_at);
                }
            }
            if ring.len() >= SLOW_RING_CAPACITY {
                let floor = ring.iter().map(|t| t.total).min().unwrap_or(Duration::ZERO);
                self.slow_threshold_micros
                    .store(micros(floor), Ordering::Relaxed);
            }
        }
    }

    /// The retained slowest traces, slowest first.
    pub fn slow_queries(&self) -> Vec<QueryTrace> {
        let mut traces = match self.slow.lock() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        };
        traces.sort_by(|a, b| b.total.cmp(&a.total));
        traces
    }

    /// One WAL group record appended (`bytes` on the wire, `fsynced` if
    /// the group was made power-loss durable).
    pub fn record_wal_append(&self, bytes: u64, fsynced: bool) {
        if !self.is_enabled() {
            return;
        }
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
        if fsynced {
            self.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Time one committer (`Stage`, `Wait`) or one group's leader (the
    /// rest) spent in a commit stage.
    pub fn record_commit_stage(&self, stage: CommitStage, took: Duration) {
        if self.is_enabled() {
            self.commit_stage_micros[stage as usize].fetch_add(micros(took), Ordering::Relaxed);
        }
    }

    /// One commit call's wall clock, stage to acknowledgement.
    pub fn record_commit(&self, took: Duration) {
        if self.is_enabled() {
            self.commit_micros
                .fetch_add(micros(took), Ordering::Relaxed);
        }
    }

    /// One overlay snapshot built for a read inside a dirty transaction.
    pub fn record_txn_overlay(&self, took: Duration) {
        if self.is_enabled() {
            self.txn_overlays.fetch_add(1, Ordering::Relaxed);
            self.txn_overlay_micros
                .fetch_add(micros(took), Ordering::Relaxed);
        }
    }

    pub fn record_checkpoint(&self, took: Duration) {
        if !self.is_enabled() {
            return;
        }
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.checkpoint_micros
            .fetch_add(micros(took), Ordering::Relaxed);
    }

    pub fn record_admission(&self) {
        if self.is_enabled() {
            self.conns_admitted.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn record_rejection(&self) {
        if self.is_enabled() {
            self.conns_rejected.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn record_panic_recovered(&self) {
        if self.is_enabled() {
            self.panics_recovered.fetch_add(1, Ordering::Relaxed);
        }
    }

    // Point-in-time reads (used by SHOW metrics, exposition, and tests).

    pub fn queries_total(&self, backend: Backend) -> u64 {
        self.queries[backend_index(backend)].load(Ordering::Relaxed)
    }

    pub fn query_errors_total(&self) -> u64 {
        self.query_errors.load(Ordering::Relaxed)
    }

    pub fn rows_returned_total(&self) -> u64 {
        self.rows_returned.load(Ordering::Relaxed)
    }

    pub fn latency(&self, backend: Backend) -> &Histogram {
        &self.latency[backend_index(backend)]
    }

    pub fn stage_micros_total(&self, stage: usize) -> u64 {
        self.stage_micros[stage].load(Ordering::Relaxed)
    }

    /// `(predicted, measured)` accumulated work units.
    pub fn cost_totals(&self) -> (f64, f64) {
        (
            self.predicted_milli_units.load(Ordering::Relaxed) as f64 / 1000.0,
            self.measured_milli_units.load(Ordering::Relaxed) as f64 / 1000.0,
        )
    }

    pub fn wal_appends_total(&self) -> u64 {
        self.wal_appends.load(Ordering::Relaxed)
    }

    pub fn wal_fsyncs_total(&self) -> u64 {
        self.wal_fsyncs.load(Ordering::Relaxed)
    }

    pub fn wal_bytes_total(&self) -> u64 {
        self.wal_bytes.load(Ordering::Relaxed)
    }

    pub fn commit_stage_micros_total(&self, stage: usize) -> u64 {
        self.commit_stage_micros[stage].load(Ordering::Relaxed)
    }

    pub fn commit_micros_total(&self) -> u64 {
        self.commit_micros.load(Ordering::Relaxed)
    }

    /// `(overlays built, accumulated µs)`.
    pub fn txn_overlay_totals(&self) -> (u64, u64) {
        (
            self.txn_overlays.load(Ordering::Relaxed),
            self.txn_overlay_micros.load(Ordering::Relaxed),
        )
    }

    pub fn checkpoints_total(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    pub fn checkpoint_micros_total(&self) -> u64 {
        self.checkpoint_micros.load(Ordering::Relaxed)
    }

    pub fn connections_admitted_total(&self) -> u64 {
        self.conns_admitted.load(Ordering::Relaxed)
    }

    pub fn connections_rejected_total(&self) -> u64 {
        self.conns_rejected.load(Ordering::Relaxed)
    }

    pub fn panics_recovered_total(&self) -> u64 {
        self.panics_recovered.load(Ordering::Relaxed)
    }

    pub fn constraint_mining(&self) -> &Histogram {
        &self.constraint_mining
    }

    /// Union arms dropped by constraint-driven pruning, as
    /// `(provably_empty, data_subsumed)`.
    pub fn pruned_arms_total(&self) -> (u64, u64) {
        (
            self.pruned_arms_empty.load(Ordering::Relaxed),
            self.pruned_arms_subsumed.load(Ordering::Relaxed),
        )
    }
}

/// One structured stderr line per over-threshold statement; key=value so
/// log scrapers need no custom parsing.
fn log_slow_query(trace: &QueryTrace) {
    let s = trace.spans;
    eprintln!(
        "slow_query trace_id={} total_us={} parse_us={} reformulate_us={} plan_us={} \
         sqlgen_us={} execute_us={} serialize_us={} backend={} cache_hit={} \
         generation={} rows={} q={:?}",
        trace.id,
        trace.total.as_micros(),
        s.parse.as_micros(),
        s.reformulate.as_micros(),
        s.plan.as_micros(),
        s.sqlgen.as_micros(),
        s.execute.as_micros(),
        s.serialize.as_micros(),
        trace.backend.name(),
        trace.cache_hit,
        trace.generation,
        trace.rows,
        trace.query,
    );
}

/// Render the full server state as Prometheus text exposition (0.0.4):
/// the registry's counters and histograms plus the serving layer's plan
/// cache and transaction stats, labelled with the configured layout.
pub fn render_prometheus(server: &Server) -> String {
    use std::fmt::Write;
    let reg = server.observe();
    let layout = server.config().layout.name();
    let mut out = String::with_capacity(4096);
    let counter = |out: &mut String, name: &str, help: &str, value: u64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    };
    // One histogram series; `label` is `key="value"` or empty.
    let histogram = |out: &mut String, name: &str, label: &str, hist: &Histogram| {
        let snap = hist.snapshot();
        let (series, bucket_labels) = if label.is_empty() {
            (String::new(), String::new())
        } else {
            (format!("{{{label}}}"), format!("{label},"))
        };
        let mut cumulative = 0u64;
        for (b, &n) in snap.buckets.iter().enumerate() {
            cumulative += n;
            let le = LATENCY_BUCKETS_US
                .get(b)
                .map(|&us| format!("{}", us as f64 / 1e6))
                .unwrap_or_else(|| "+Inf".to_string());
            let _ = writeln!(
                out,
                "{name}_bucket{{{bucket_labels}le=\"{le}\"}} {cumulative}"
            );
        }
        let _ = writeln!(out, "{name}_sum{series} {}", snap.sum_micros as f64 / 1e6);
        let _ = writeln!(out, "{name}_count{series} {}", snap.count);
    };

    // Query counters, per backend.
    let _ = writeln!(out, "# HELP obda_queries_total Queries served.");
    let _ = writeln!(out, "# TYPE obda_queries_total counter");
    for (i, name) in BACKEND_NAMES.iter().enumerate() {
        let _ = writeln!(
            out,
            "obda_queries_total{{backend=\"{name}\",layout=\"{layout}\"}} {}",
            reg.queries[i].load(Ordering::Relaxed)
        );
    }
    counter(
        &mut out,
        "obda_query_errors_total",
        "Queries that returned an error.",
        reg.query_errors_total(),
    );
    counter(
        &mut out,
        "obda_query_rows_total",
        "Result rows returned.",
        reg.rows_returned_total(),
    );

    // Latency histograms, per backend.
    let _ = writeln!(
        out,
        "# HELP obda_query_latency_seconds Serving-layer query latency (compile + execute)."
    );
    let _ = writeln!(out, "# TYPE obda_query_latency_seconds histogram");
    for (i, name) in BACKEND_NAMES.iter().enumerate() {
        histogram(
            &mut out,
            "obda_query_latency_seconds",
            &format!("backend=\"{name}\""),
            &reg.latency[i],
        );
    }

    // Stage time totals.
    let _ = writeln!(
        out,
        "# HELP obda_stage_seconds_total Accumulated per-stage statement time."
    );
    let _ = writeln!(out, "# TYPE obda_stage_seconds_total counter");
    for (i, stage) in STAGE_NAMES.iter().enumerate() {
        let _ = writeln!(
            out,
            "obda_stage_seconds_total{{stage=\"{stage}\"}} {}",
            reg.stage_micros_total(i) as f64 / 1e6
        );
    }

    // Plan cache.
    let cache = server.cache_stats();
    counter(
        &mut out,
        "obda_plan_cache_hits_total",
        "Plan-cache hits.",
        cache.hits,
    );
    counter(
        &mut out,
        "obda_plan_cache_misses_total",
        "Plan-cache misses (cold compilations).",
        cache.misses,
    );
    counter(
        &mut out,
        "obda_plan_cache_invalidated_total",
        "Stale plan-cache entries dropped by publishes.",
        cache.invalidated,
    );
    let _ = writeln!(
        out,
        "# HELP obda_plan_cache_entries Live plan-cache entries."
    );
    let _ = writeln!(out, "# TYPE obda_plan_cache_entries gauge");
    let _ = writeln!(out, "obda_plan_cache_entries {}", cache.entries);

    // The TBox scope's fragment memo: what recompiles after a write
    // did not have to reformulate.
    counter(
        &mut out,
        "obda_fragment_memo_hits_total",
        "Fragment reformulations cold compilations took from the TBox scope's memo.",
        cache.fragment_memo_hits,
    );
    counter(
        &mut out,
        "obda_fragment_memo_misses_total",
        "Fragment reformulations cold compilations computed (PerfectRef runs).",
        cache.fragment_memo_misses,
    );
    let _ = writeln!(
        out,
        "# HELP obda_fragment_memo_entries Reformulations the current TBox scope's memo holds."
    );
    let _ = writeln!(out, "# TYPE obda_fragment_memo_entries gauge");
    let _ = writeln!(
        out,
        "obda_fragment_memo_entries {}",
        cache.fragment_memo_entries
    );
    // What those computed reformulations cost inside PerfectRef.
    counter(
        &mut out,
        "obda_perfectref_candidates_total",
        "Candidate CQs PerfectRef built for the fragment reformulations cold compilations computed.",
        cache.perfectref_candidates,
    );
    counter(
        &mut out,
        "obda_perfectref_canonicalised_total",
        "PerfectRef candidates canonically labelled (the rest repeated an earlier candidate exactly).",
        cache.perfectref_canonicalised,
    );

    // Constraint mining, once per generation that compiled a query.
    let _ = writeln!(
        out,
        "# HELP obda_constraint_mining_seconds Per-generation constraint mining (extents + inclusion checks)."
    );
    let _ = writeln!(out, "# TYPE obda_constraint_mining_seconds histogram");
    histogram(
        &mut out,
        "obda_constraint_mining_seconds",
        "",
        &reg.constraint_mining,
    );

    // Constraint-driven reformulation pruning, by reason.
    let (pruned_empty, pruned_subsumed) = reg.pruned_arms_total();
    let _ = writeln!(
        out,
        "# HELP obda_pruned_arms_total Union arms dropped by constraint-driven pruning."
    );
    let _ = writeln!(out, "# TYPE obda_pruned_arms_total counter");
    let _ = writeln!(
        out,
        "obda_pruned_arms_total{{reason=\"empty\"}} {pruned_empty}"
    );
    let _ = writeln!(
        out,
        "obda_pruned_arms_total{{reason=\"subsumed\"}} {pruned_subsumed}"
    );

    // Transactions.
    let txn = server.txn_stats();
    counter(
        &mut out,
        "obda_txn_commits_total",
        "Transactions committed.",
        txn.committed,
    );
    counter(
        &mut out,
        "obda_txn_conflicts_total",
        "Commits refused by first-committer-wins validation.",
        txn.conflicts,
    );
    counter(
        &mut out,
        "obda_txn_commit_groups_total",
        "Group-commit WAL records (group size = commits / groups).",
        txn.commit_groups,
    );
    let _ = writeln!(out, "# HELP obda_txn_active Currently open transactions.");
    let _ = writeln!(out, "# TYPE obda_txn_active gauge");
    let _ = writeln!(out, "obda_txn_active {}", txn.active);

    // WAL and checkpoints.
    counter(
        &mut out,
        "obda_wal_appends_total",
        "WAL group records appended.",
        reg.wal_appends_total(),
    );
    counter(
        &mut out,
        "obda_wal_fsyncs_total",
        "WAL group records fsynced (sync_commits).",
        reg.wal_fsyncs_total(),
    );
    counter(
        &mut out,
        "obda_wal_bytes_total",
        "Bytes appended to the WAL.",
        reg.wal_bytes_total(),
    );
    let _ = writeln!(
        out,
        "# HELP obda_commit_stage_seconds_total Accumulated commit time per stage (stage and wait per committer, the rest per group)."
    );
    let _ = writeln!(out, "# TYPE obda_commit_stage_seconds_total counter");
    for (i, stage) in COMMIT_STAGE_NAMES.iter().enumerate() {
        let _ = writeln!(
            out,
            "obda_commit_stage_seconds_total{{stage=\"{stage}\"}} {}",
            reg.commit_stage_micros_total(i) as f64 / 1e6
        );
    }
    let _ = writeln!(
        out,
        "# HELP obda_commit_seconds_total Accumulated commit call time, stage to acknowledgement."
    );
    let _ = writeln!(out, "# TYPE obda_commit_seconds_total counter");
    let _ = writeln!(
        out,
        "obda_commit_seconds_total {}",
        reg.commit_micros_total() as f64 / 1e6
    );
    let (overlays, overlay_micros) = reg.txn_overlay_totals();
    counter(
        &mut out,
        "obda_txn_overlays_total",
        "Overlay snapshots built for reads inside dirty transactions.",
        overlays,
    );
    let _ = writeln!(
        out,
        "# HELP obda_txn_overlay_seconds_total Accumulated overlay build time."
    );
    let _ = writeln!(out, "# TYPE obda_txn_overlay_seconds_total counter");
    let _ = writeln!(
        out,
        "obda_txn_overlay_seconds_total {}",
        overlay_micros as f64 / 1e6
    );
    counter(
        &mut out,
        "obda_checkpoints_total",
        "Fuzzy checkpoints taken.",
        reg.checkpoints_total(),
    );
    let _ = writeln!(
        out,
        "# HELP obda_checkpoint_seconds_total Accumulated checkpoint time."
    );
    let _ = writeln!(out, "# TYPE obda_checkpoint_seconds_total counter");
    let _ = writeln!(
        out,
        "obda_checkpoint_seconds_total {}",
        reg.checkpoint_micros_total() as f64 / 1e6
    );

    // Connections and contained panics.
    counter(
        &mut out,
        "obda_connections_admitted_total",
        "Wire connections admitted.",
        reg.connections_admitted_total(),
    );
    counter(
        &mut out,
        "obda_connections_rejected_total",
        "Wire connections refused at the session limit (53300).",
        reg.connections_rejected_total(),
    );
    counter(
        &mut out,
        "obda_panics_recovered_total",
        "Statement panics contained per-session (XX000).",
        reg.panics_recovered_total(),
    );

    // Cost-model accuracy.
    let (predicted, measured) = reg.cost_totals();
    let _ = writeln!(
        out,
        "# HELP obda_cost_predicted_units_total Accumulated predicted plan cost (work units)."
    );
    let _ = writeln!(out, "# TYPE obda_cost_predicted_units_total counter");
    let _ = writeln!(out, "obda_cost_predicted_units_total {predicted}");
    let _ = writeln!(
        out,
        "# HELP obda_cost_measured_units_total Accumulated measured executor work (work units)."
    );
    let _ = writeln!(out, "# TYPE obda_cost_measured_units_total counter");
    let _ = writeln!(out, "obda_cost_measured_units_total {measured}");

    // Server identity.
    let _ = writeln!(out, "# HELP obda_generation Published snapshot generation.");
    let _ = writeln!(out, "# TYPE obda_generation gauge");
    let _ = writeln!(out, "obda_generation {}", server.generation());
    out
}

/// A running `GET /metrics` endpoint over a plain `TcpListener`.
/// Dropping the handle stops the serving thread.
pub struct MetricsEndpoint {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsEndpoint {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve [`render_prometheus`]
    /// for the given server on a background thread.
    pub fn bind(addr: &str, server: Arc<Server>) -> std::io::Result<MetricsEndpoint> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = stop.clone();
        let handle = std::thread::Builder::new()
            .name("obda-metrics".into())
            .spawn(move || metrics_loop(listener, server, thread_stop))?;
        Ok(MetricsEndpoint {
            local_addr,
            stop,
            handle: Some(handle),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop serving and join the thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsEndpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn metrics_loop(listener: TcpListener, server: Arc<Server>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // One request per connection, handled inline (scrapes are
                // rare and tiny) — and under catch_unwind, so no request,
                // however malformed, can take the endpoint down.
                let result = catch_unwind(AssertUnwindSafe(|| handle_scrape(stream, &server)));
                if result.is_err() {
                    server.observe().record_panic_recovered();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Read one HTTP/1.x request (line-limited, time-limited) and answer it.
/// Every malformed input maps to a typed 4xx response or a dropped
/// connection — never an error that escapes to the accept loop.
fn handle_scrape(mut stream: TcpStream, server: &Server) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_nodelay(true);
    let mut buf = [0u8; 4096];
    let mut len = 0usize;
    let deadline = Instant::now() + Duration::from_secs(2);
    // Read until the header terminator, the buffer cap, or the deadline.
    loop {
        if len >= buf.len() || Instant::now() >= deadline {
            break;
        }
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n")
                    || buf[..len].windows(2).any(|w| w == b"\n\n")
                {
                    break;
                }
            }
            Err(ref e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                break
            }
            Err(_) => return,
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "only GET is supported\n".to_string(),
        )
    } else if path == "/metrics" {
        ("200 OK", render_prometheus(server))
    } else if path.is_empty() {
        ("400 Bad Request", "malformed request line\n".to_string())
    } else {
        ("404 Not Found", "try /metrics\n".to_string())
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_bounds_and_overflow() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(50), 0);
        assert_eq!(Histogram::bucket_index(51), 1);
        assert_eq!(Histogram::bucket_index(5_000_000), BUCKET_COUNT - 2);
        assert_eq!(Histogram::bucket_index(5_000_001), BUCKET_COUNT - 1);
    }

    /// Satellite: the histogram's quantile agrees with the shared
    /// nearest-rank [`percentile`] helper (the one `obda_bench`
    /// re-exports) when observations sit exactly on bucket bounds.
    #[test]
    fn histogram_quantile_matches_shared_percentile_helper() {
        let h = Histogram::new();
        let samples: Vec<Duration> = LATENCY_BUCKETS_US
            .iter()
            .map(|&us| Duration::from_micros(us))
            .collect();
        for &s in &samples {
            h.observe(s);
        }
        for p in [10.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(
                h.quantile(p),
                percentile(&samples, p),
                "p={p} disagrees with the nearest-rank helper"
            );
        }
        assert_eq!(h.quantile(50.0), percentile(&samples, 50.0));
    }

    #[test]
    fn histogram_empty_and_overflow() {
        let h = Histogram::new();
        assert_eq!(h.quantile(99.0), Duration::ZERO);
        h.observe(Duration::from_secs(60)); // beyond the last bound
        assert_eq!(h.count(), 1);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[BUCKET_COUNT - 1], 1);
        // Overflow quantile reports the largest finite bound.
        assert_eq!(
            h.quantile(100.0),
            Duration::from_micros(LATENCY_BUCKETS_US[LATENCY_BUCKETS_US.len() - 1])
        );
    }

    fn trace(id: u64, millis: u64) -> QueryTrace {
        QueryTrace {
            id,
            query: format!("SELECT ?x WHERE Q{id}(?x)"),
            backend: Backend::Native,
            cache_hit: false,
            generation: 0,
            rows: 1,
            spans: StageSpans {
                execute: Duration::from_millis(millis),
                ..StageSpans::default()
            },
            total: Duration::from_millis(millis),
        }
    }

    #[test]
    fn slow_ring_keeps_the_slowest() {
        let reg = MetricsRegistry::new();
        for i in 0..100u64 {
            reg.record_trace(trace(i, i + 1));
        }
        let slow = reg.slow_queries();
        assert_eq!(slow.len(), SLOW_RING_CAPACITY);
        // The slowest 16 of 1..=100ms are 85..=100ms, slowest first.
        assert_eq!(slow[0].total, Duration::from_millis(100));
        assert!(slow.iter().all(|t| t.total >= Duration::from_millis(85)));
        assert!(slow.windows(2).all(|w| w[0].total >= w[1].total));
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = MetricsRegistry::new();
        reg.set_enabled(false);
        reg.record_query(Backend::Native, Duration::from_millis(5), 3);
        reg.record_trace(trace(1, 50));
        reg.record_wal_append(100, true);
        reg.record_commit_stage(CommitStage::Wait, Duration::from_millis(5));
        reg.record_commit(Duration::from_millis(5));
        reg.record_txn_overlay(Duration::from_millis(5));
        reg.record_admission();
        assert_eq!(reg.queries_total(Backend::Native), 0);
        assert_eq!(reg.commit_micros_total(), 0);
        assert_eq!(reg.txn_overlay_totals(), (0, 0));
        assert_eq!(reg.latency(Backend::Native).count(), 0);
        assert!(reg.slow_queries().is_empty());
        assert_eq!(reg.wal_appends_total(), 0);
        assert_eq!(reg.connections_admitted_total(), 0);
        reg.set_enabled(true);
        reg.record_query(Backend::Sql, Duration::from_millis(5), 3);
        assert_eq!(reg.queries_total(Backend::Sql), 1);
        // A commit stage lands under its own name.
        reg.record_commit_stage(CommitStage::Wait, Duration::from_millis(5));
        for (i, stage) in COMMIT_STAGE_NAMES.iter().enumerate() {
            let want = if *stage == "wait" { 5_000 } else { 0 };
            assert_eq!(reg.commit_stage_micros_total(i), want, "{stage}");
        }
    }

    /// The exposition renders labelled and unlabelled histograms and the
    /// fragment-memo families a recompile after a write is read from.
    #[test]
    fn exposition_serves_memo_counters_and_the_mining_histogram() {
        use obda_query::{Atom, Term, VarId, CQ};
        let (mut voc, tbox) = obda_dllite::example7_tbox();
        let works = voc.find_role("worksWith").unwrap();
        let sup = voc.find_role("supervisedBy").unwrap();
        let (a, b) = (voc.individual("a"), voc.individual("b"));
        let mut abox = obda_dllite::ABox::new();
        abox.assert_role(sup, a, b);
        let server = Server::new(voc, tbox, &abox, crate::server::ServerConfig::default());
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Role(works, Term::Var(VarId(0)), Term::Var(VarId(1)))],
        );
        server.query(&q).unwrap();
        server
            .apply_batch(&obda_dllite::AboxDelta::new().insert_role(works, b, a))
            .unwrap();
        server.query(&q).unwrap();

        let text = render_prometheus(&server);
        let value = |line_start: &str| -> f64 {
            let line = text
                .lines()
                .find(|l| l.starts_with(line_start))
                .unwrap_or_else(|| panic!("no {line_start} in:\n{text}"));
            line.rsplit(' ').next().unwrap().parse().unwrap()
        };
        assert_eq!(value("obda_fragment_memo_misses_total "), 1.0);
        assert_eq!(value("obda_fragment_memo_hits_total "), 1.0);
        assert_eq!(value("obda_fragment_memo_entries "), 1.0);
        // PerfectRef ran once, for the memo miss.
        let stats = server.cache_stats();
        assert!(stats.perfectref_candidates > 0);
        assert_eq!(
            value("obda_perfectref_candidates_total "),
            stats.perfectref_candidates as f64
        );
        assert_eq!(
            value("obda_perfectref_canonicalised_total "),
            stats.perfectref_canonicalised as f64
        );
        // Mined once per generation served, reported without labels.
        assert_eq!(value("obda_constraint_mining_seconds_count "), 2.0);
        assert_eq!(
            value("obda_constraint_mining_seconds_bucket{le=\"+Inf\"} "),
            2.0
        );
        assert_eq!(
            value("obda_query_latency_seconds_bucket{backend=\"native\",le=\"+Inf\"} "),
            2.0
        );
        assert_eq!(
            value("obda_query_latency_seconds_count{backend=\"native\"} "),
            2.0
        );
    }

    #[test]
    fn stage_spans_total_and_order() {
        let spans = StageSpans {
            parse: Duration::from_micros(1),
            reformulate: Duration::from_micros(2),
            plan: Duration::from_micros(3),
            sqlgen: Duration::from_micros(4),
            execute: Duration::from_micros(5),
            serialize: Duration::from_micros(6),
        };
        assert_eq!(spans.total(), Duration::from_micros(21));
        assert_eq!(spans.as_array().len(), STAGE_NAMES.len());
        assert_eq!(STAGE_NAMES[0], "parse");
        assert_eq!(STAGE_NAMES[4], "execute");
    }

    #[test]
    fn truncate_query_is_boundary_safe() {
        let long = "é".repeat(200);
        let t = truncate_query(&long);
        assert!(t.chars().count() <= TRACE_QUERY_MAX + 1);
        assert!(t.ends_with('…'));
        assert_eq!(truncate_query("short"), "short");
    }
}
