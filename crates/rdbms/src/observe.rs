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
//! * [`MetricsRegistry`] — every server counter, and fixed-bucket
//!   latency [`Histogram`]s, no locks on the hot path. Each counter
//!   family is declared once in [`CATALOGUE`] (its `SHOW metrics` name,
//!   Prometheus family, labels, HELP text and unit) and updated through
//!   one indexed [`MetricsRegistry::add`]: query and row counts, stage
//!   and commit-stage time, plan-cache, fragment-memo and PerfectRef
//!   counts, pruned arms, transactions, WAL appends/fsyncs/bytes,
//!   checkpoints, connection admission, contained panics, and the
//!   running predicted-vs-measured cost totals that make cost-model
//!   accuracy a first-class observable. The registry is always on, so
//!   its cost sits inside every end-to-end number the server reports.
//! * [`render_prometheus`] and [`show_metrics`] — the two renderings of
//!   the registry, both walking [`CATALOGUE`]; histograms, gauges and
//!   derived rows are the only metrics either writes by name.
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
/// nearest-rank method. Empty samples yield zero. The histogram
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

/// How a counter's stored value renders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// A count: the same integer in both renderings.
    Count,
    /// Accumulated µs: `SHOW metrics` prints µs, Prometheus seconds.
    Micros,
    /// Accumulated milli-work-units: both print work units, `SHOW
    /// metrics` to one decimal.
    MilliUnits,
}

impl Unit {
    fn show(self, value: u64) -> String {
        match self {
            Unit::Count | Unit::Micros => value.to_string(),
            Unit::MilliUnits => format!("{:.1}", value as f64 / 1000.0),
        }
    }

    fn prom(self, value: u64) -> String {
        match self {
            Unit::Count => value.to_string(),
            Unit::Micros => (value as f64 / 1e6).to_string(),
            Unit::MilliUnits => (value as f64 / 1000.0).to_string(),
        }
    }
}

/// The label of a counter family: one sample per value.
#[derive(Clone, Copy, Debug)]
pub struct Label {
    /// Prometheus label key; `SHOW metrics` names a sample
    /// `<show>.<value>`.
    pub key: &'static str,
    pub values: &'static [&'static str],
}

/// Why constraint-driven pruning dropped a union arm; indexes
/// [`Counter::PrunedArms`] in [`PRUNE_REASONS`] order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PruneReason {
    /// The arm is provably empty.
    Empty,
    /// The data subsumes the arm by another.
    Subsumed,
}

pub const PRUNE_REASONS: [&str; 2] = ["empty", "subsumed"];

/// A counter family of the registry; [`CATALOGUE`] declares each one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    Queries,
    QueryErrors,
    QueryRows,
    StageMicros,
    PlanCacheHits,
    PlanCacheMisses,
    PlanCacheInvalidated,
    FragmentMemoHits,
    FragmentMemoMisses,
    PerfectRefCandidates,
    PerfectRefCanonicalised,
    PrunedArms,
    TxnCommits,
    TxnConflicts,
    TxnCommitGroups,
    WalAppends,
    WalFsyncs,
    WalBytes,
    CommitStageMicros,
    CommitMicros,
    TxnOverlays,
    TxnOverlayMicros,
    Checkpoints,
    CheckpointMicros,
    ConnectionsAdmitted,
    ConnectionsRejected,
    PanicsRecovered,
    CostPredicted,
    CostMeasured,
    LiveTBoxBuilds,
    AtomsEliminated,
}

/// One counter family, declared once: `SHOW metrics` and the Prometheus
/// exposition both render it from this entry.
#[derive(Clone, Copy, Debug)]
pub struct Family {
    pub counter: Counter,
    /// `SHOW metrics` row name.
    pub show: &'static str,
    /// Prometheus family name.
    pub prom: &'static str,
    pub help: &'static str,
    pub unit: Unit,
    pub label: Option<Label>,
    /// Prometheus also labels the samples with the server's layout.
    pub layout: bool,
}

impl Family {
    const fn new(
        counter: Counter,
        show: &'static str,
        prom: &'static str,
        unit: Unit,
        help: &'static str,
    ) -> Family {
        Family {
            counter,
            show,
            prom,
            help,
            unit,
            label: None,
            layout: false,
        }
    }

    const fn by(self, key: &'static str, values: &'static [&'static str]) -> Family {
        Family {
            label: Some(Label { key, values }),
            ..self
        }
    }

    const fn with_layout(self) -> Family {
        Family {
            layout: true,
            ..self
        }
    }

    /// Samples (registry slots) of the family.
    pub const fn samples(&self) -> usize {
        match self.label {
            Some(label) => label.values.len(),
            None => 1,
        }
    }

    /// The `SHOW metrics` name of sample `i`.
    fn show_name(&self, i: usize) -> String {
        match self.label {
            Some(label) => format!("{}.{}", self.show, label.values[i]),
            None => self.show.to_string(),
        }
    }
}

use self::Unit::{Count, Micros, MilliUnits};

/// Every counter the server keeps, in exposition order. Adding one is an
/// entry here plus a [`MetricsRegistry::add`] where it happens; both
/// renderers pick it up. Histograms, gauges and derived rows are not
/// counters and are written by the renderers themselves.
#[rustfmt::skip]
pub const CATALOGUE: [Family; 31] = [
    Family::new(Counter::Queries, "queries_total", "obda_queries_total", Count,
        "Queries served.").by("backend", &BACKEND_NAMES).with_layout(),
    Family::new(Counter::QueryErrors, "query_errors_total", "obda_query_errors_total", Count,
        "Queries that returned an error."),
    Family::new(Counter::QueryRows, "query_rows_total", "obda_query_rows_total", Count,
        "Result rows returned."),
    Family::new(Counter::StageMicros, "stage_us", "obda_stage_seconds_total", Micros,
        "Accumulated per-stage statement time.").by("stage", &STAGE_NAMES),
    Family::new(Counter::PlanCacheHits, "plan_cache_hits", "obda_plan_cache_hits_total", Count,
        "Plan-cache hits."),
    Family::new(Counter::PlanCacheMisses, "plan_cache_misses", "obda_plan_cache_misses_total",
        Count, "Plan-cache misses (cold compilations)."),
    Family::new(Counter::PlanCacheInvalidated, "plan_cache_invalidated",
        "obda_plan_cache_invalidated_total", Count,
        "Stale plan-cache entries dropped by publishes."),
    Family::new(Counter::FragmentMemoHits, "fragment_memo_hits", "obda_fragment_memo_hits_total",
        Count, "Fragment reformulations cold compilations took from the TBox scope's memo."),
    Family::new(Counter::FragmentMemoMisses, "fragment_memo_misses",
        "obda_fragment_memo_misses_total", Count,
        "Fragment reformulations cold compilations computed (PerfectRef runs)."),
    Family::new(Counter::PerfectRefCandidates, "perfectref_candidates",
        "obda_perfectref_candidates_total", Count,
        "Candidate CQs PerfectRef built for the fragment reformulations cold compilations computed."),
    Family::new(Counter::PerfectRefCanonicalised, "perfectref_canonicalised",
        "obda_perfectref_canonicalised_total", Count,
        "PerfectRef candidates canonically labelled (the rest repeated an earlier candidate exactly)."),
    Family::new(Counter::PrunedArms, "pruned_arms", "obda_pruned_arms_total", Count,
        "Union arms dropped by constraint-driven pruning.").by("reason", &PRUNE_REASONS),
    Family::new(Counter::TxnCommits, "txn_commits", "obda_txn_commits_total", Count,
        "Transactions committed."),
    Family::new(Counter::TxnConflicts, "txn_conflicts", "obda_txn_conflicts_total", Count,
        "Commits refused by first-committer-wins validation."),
    Family::new(Counter::TxnCommitGroups, "txn_commit_groups", "obda_txn_commit_groups_total",
        Count, "Group-commit WAL records (group size = commits / groups)."),
    Family::new(Counter::WalAppends, "wal_appends", "obda_wal_appends_total", Count,
        "WAL group records appended."),
    Family::new(Counter::WalFsyncs, "wal_fsyncs", "obda_wal_fsyncs_total", Count,
        "WAL group records fsynced (sync_commits)."),
    Family::new(Counter::WalBytes, "wal_bytes", "obda_wal_bytes_total", Count,
        "Bytes appended to the WAL."),
    Family::new(Counter::CommitStageMicros, "commit_us", "obda_commit_stage_seconds_total", Micros,
        "Accumulated commit time per stage (stage and wait per committer, the rest per group).")
        .by("stage", &COMMIT_STAGE_NAMES),
    Family::new(Counter::CommitMicros, "commit_us.total", "obda_commit_seconds_total", Micros,
        "Accumulated commit call time, stage to acknowledgement."),
    Family::new(Counter::TxnOverlays, "txn_overlays", "obda_txn_overlays_total", Count,
        "Overlay snapshots built for reads inside dirty transactions."),
    Family::new(Counter::TxnOverlayMicros, "txn_overlay_us", "obda_txn_overlay_seconds_total",
        Micros, "Accumulated overlay build time."),
    Family::new(Counter::Checkpoints, "checkpoints", "obda_checkpoints_total", Count,
        "Fuzzy checkpoints taken."),
    Family::new(Counter::CheckpointMicros, "checkpoint_micros", "obda_checkpoint_seconds_total",
        Micros, "Accumulated checkpoint time."),
    Family::new(Counter::ConnectionsAdmitted, "connections_admitted",
        "obda_connections_admitted_total", Count, "Wire connections admitted."),
    Family::new(Counter::ConnectionsRejected, "connections_rejected",
        "obda_connections_rejected_total", Count,
        "Wire connections refused at the session limit (53300)."),
    Family::new(Counter::PanicsRecovered, "panics_recovered", "obda_panics_recovered_total", Count,
        "Statement panics contained per-session (XX000)."),
    Family::new(Counter::CostPredicted, "cost_predicted_units", "obda_cost_predicted_units_total",
        MilliUnits, "Accumulated predicted plan cost (work units)."),
    Family::new(Counter::CostMeasured, "cost_measured_units", "obda_cost_measured_units_total",
        MilliUnits, "Accumulated measured executor work (work units)."),
    Family::new(Counter::LiveTBoxBuilds, "live_tbox_builds", "obda_live_tbox_builds_total", Count,
        "Live TBoxes built, each with an empty fragment memo: a TBox scope's first, then one per \
         generation whose dead predicates differ from its predecessor's."),
    Family::new(Counter::AtomsEliminated, "atoms_eliminated", "obda_atoms_eliminated_total",
        Count, "Query atoms cold compilations dropped before reformulation as implied by \
         another atom under the TBox."),
];

/// Each family's first slot in the registry's counter array.
const FIRST_SLOT: [usize; CATALOGUE.len()] = {
    let mut first = [0; CATALOGUE.len()];
    let mut i = 0;
    while i < CATALOGUE.len() {
        assert!(
            CATALOGUE[i].counter as usize == i,
            "CATALOGUE is indexed by Counter"
        );
        if i > 0 {
            first[i] = first[i - 1] + CATALOGUE[i - 1].samples();
        }
        i += 1;
    }
    first
};

const SLOTS: usize = FIRST_SLOT[CATALOGUE.len() - 1] + CATALOGUE[CATALOGUE.len() - 1].samples();

/// One sample of a counter family: a registry slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot(usize);

impl Counter {
    /// The sample for the `label`-th value of a labelled family.
    #[inline]
    pub fn at(self, label: usize) -> Slot {
        debug_assert!(
            label < CATALOGUE[self as usize].samples(),
            "{self:?} has no label {label}"
        );
        Slot(FIRST_SLOT[self as usize] + label)
    }
}

impl From<Counter> for Slot {
    #[inline]
    fn from(counter: Counter) -> Slot {
        counter.at(0)
    }
}

/// The server-wide metrics registry. Hot-path recording is one relaxed
/// atomic per counter — the only lock is the slow-query ring, taken only
/// when a statement beats the ring's admission threshold.
pub struct MetricsRegistry {
    trace_ids: AtomicU64,
    /// Every [`CATALOGUE`] counter, one slot per sample.
    counters: [AtomicU64; SLOTS],
    /// Indexed by [`backend_index`].
    latency: [Histogram; 2],
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
pub(crate) fn micros(d: Duration) -> u64 {
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
            trace_ids: AtomicU64::new(0),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: Default::default(),
            constraint_mining: Histogram::new(),
            slow_threshold_micros: AtomicU64::new(0),
            slow: Mutex::new(Vec::new()),
            slow_log_micros: AtomicU64::new(u64::MAX),
        }
    }

    /// Add `n` to a counter sample: `add(Counter::WalBytes, n)`, or
    /// `add(Counter::Queries.at(i), 1)` in a labelled family.
    #[inline]
    pub fn add(&self, slot: impl Into<Slot>, n: u64) {
        self.counters[slot.into().0].fetch_add(n, Ordering::Relaxed);
    }

    /// A counter sample's current value.
    pub fn get(&self, slot: impl Into<Slot>) -> u64 {
        self.counters[slot.into().0].load(Ordering::Relaxed)
    }

    /// Allocate the next trace id.
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
        let i = backend_index(backend);
        self.add(Counter::Queries.at(i), 1);
        self.add(Counter::QueryRows, rows);
        self.latency[i].observe(latency);
    }

    /// Record one generation's constraint-mining run.
    pub fn record_constraint_mining(&self, took: Duration) {
        self.constraint_mining.observe(took);
    }

    /// Accumulate one cost-model accuracy sample: the plan's predicted
    /// cost vs the executor's measured work units, both kept in
    /// milli-work-units so their running ratio is the live cost-model
    /// accuracy (§6.1's predicted-vs-actual, as a counter pair).
    pub fn record_cost_sample(&self, predicted: f64, measured: f64) {
        let clamp = |v: f64| {
            if v.is_finite() && v > 0.0 {
                (v * 1000.0).min(u64::MAX as f64) as u64
            } else {
                0
            }
        };
        self.add(Counter::CostPredicted, clamp(predicted));
        self.add(Counter::CostMeasured, clamp(measured));
    }

    /// Record a completed statement trace: stage-time totals, the
    /// slow-query ring (if it beats the admission threshold), and the
    /// structured stderr slow log.
    pub fn record_trace(&self, trace: QueryTrace) {
        for (i, span) in trace.spans.as_array().into_iter().enumerate() {
            self.add(Counter::StageMicros.at(i), micros(span));
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
        self.add(Counter::WalAppends, 1);
        self.add(Counter::WalBytes, bytes);
        if fsynced {
            self.add(Counter::WalFsyncs, 1);
        }
    }

    pub fn latency(&self, backend: Backend) -> &Histogram {
        &self.latency[backend_index(backend)]
    }

    pub fn constraint_mining(&self) -> &Histogram {
        &self.constraint_mining
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
/// every [`CATALOGUE`] counter, the histograms, and the serving layer's
/// gauges, the query counters labelled with the configured layout.
pub fn render_prometheus(server: &Server) -> String {
    use std::fmt::Write;
    let reg = server.observe();
    let layout = server.config().layout.name();
    let cache = server.cache_stats();
    let mut out = String::with_capacity(4096);
    let header = |out: &mut String, name: &str, kind: &str, help: &str| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
    };
    let gauge = |out: &mut String, name: &str, help: &str, value: u64| {
        header(out, name, "gauge", help);
        let _ = writeln!(out, "{name} {value}");
    };
    // One histogram family; each series' label is `key="value"` or empty.
    let histogram = |out: &mut String, name: &str, help: &str, series: &[(String, &Histogram)]| {
        header(out, name, "histogram", help);
        for (label, hist) in series {
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
        }
    };

    for family in &CATALOGUE {
        header(&mut out, family.prom, "counter", family.help);
        for i in 0..family.samples() {
            let labels = match family.label {
                Some(l) if family.layout => {
                    format!("{{{}=\"{}\",layout=\"{layout}\"}}", l.key, l.values[i])
                }
                Some(l) => format!("{{{}=\"{}\"}}", l.key, l.values[i]),
                None => String::new(),
            };
            let value = family.unit.prom(reg.get(family.counter.at(i)));
            let _ = writeln!(out, "{}{labels} {value}", family.prom);
        }
        // The rest of the surface, each after the family it follows.
        match family.counter {
            Counter::QueryRows => {
                let series: Vec<_> = BACKEND_NAMES
                    .iter()
                    .zip(&reg.latency)
                    .map(|(name, hist)| (format!("backend=\"{name}\""), hist))
                    .collect();
                histogram(
                    &mut out,
                    "obda_query_latency_seconds",
                    "Serving-layer query latency (compile + execute).",
                    &series,
                );
            }
            Counter::PlanCacheInvalidated => gauge(
                &mut out,
                "obda_plan_cache_entries",
                "Live plan-cache entries.",
                cache.entries as u64,
            ),
            Counter::FragmentMemoMisses => gauge(
                &mut out,
                "obda_fragment_memo_entries",
                "Reformulations the current TBox scope's memo holds.",
                cache.fragment_memo_entries as u64,
            ),
            Counter::PerfectRefCanonicalised => histogram(
                &mut out,
                "obda_constraint_mining_seconds",
                "Per-generation constraint mining (extents + inclusion checks).",
                &[(String::new(), &reg.constraint_mining)],
            ),
            Counter::TxnCommitGroups => gauge(
                &mut out,
                "obda_txn_active",
                "Currently open transactions.",
                server.txn_stats().active as u64,
            ),
            _ => {}
        }
    }
    gauge(
        &mut out,
        "obda_generation",
        "Published snapshot generation.",
        server.generation(),
    );
    out
}

/// `SHOW metrics` as `(metric, value)` rows: every [`CATALOGUE`]
/// counter (µs where Prometheus has seconds), latency and mining
/// quantiles, the serving layer's gauges, the cost-model accuracy ratio,
/// and `generation` — the snapshot the session reads.
pub fn show_metrics(server: &Server, generation: u64) -> Vec<(String, String)> {
    let reg = server.observe();
    let cache = server.cache_stats();
    let mut rows: Vec<(String, String)> = Vec::new();
    // Each backend's query count is followed by its latency quantiles.
    let latency_quantiles = |backend: usize| {
        [50, 99].map(|p| {
            let us = reg.latency[backend].quantile(p as f64).as_micros();
            let name = format!("query_latency_p{p}_us.{}", BACKEND_NAMES[backend]);
            (name, us.to_string())
        })
    };
    // The stage totals, pruned arms and live-TBox builds joined `SHOW
    // metrics` after its row order was fixed, so their rows come last.
    let mut late = Vec::new();
    for family in &CATALOGUE {
        let appended = matches!(
            family.counter,
            Counter::StageMicros | Counter::PrunedArms | Counter::LiveTBoxBuilds
        );
        for i in 0..family.samples() {
            let row = (
                family.show_name(i),
                family.unit.show(reg.get(family.counter.at(i))),
            );
            if appended {
                late.push(row);
            } else {
                rows.push(row);
            }
            if family.counter == Counter::Queries {
                rows.extend(latency_quantiles(i));
            }
        }
        // The rest of the surface, each after the row it follows.
        match family.counter {
            Counter::PlanCacheMisses => {
                rows.push(("plan_cache_entries".into(), cache.entries.to_string()))
            }
            Counter::FragmentMemoMisses => rows.push((
                "fragment_memo_entries".into(),
                cache.fragment_memo_entries.to_string(),
            )),
            Counter::PerfectRefCanonicalised => {
                let mining = &reg.constraint_mining;
                rows.push(("constraint_mining_runs".into(), mining.count().to_string()));
                for p in [50, 99] {
                    let us = mining.quantile(p as f64).as_micros();
                    rows.push((format!("constraint_mining_p{p}_us"), us.to_string()));
                }
            }
            Counter::TxnCommitGroups => {
                rows.push(("txn_active".into(), server.txn_stats().active.to_string()))
            }
            Counter::CostMeasured => {
                let units = |c: Counter| reg.get(c) as f64 / 1000.0;
                let (predicted, measured) =
                    (units(Counter::CostPredicted), units(Counter::CostMeasured));
                if predicted > 0.0 {
                    rows.push((
                        "cost_accuracy_ratio".into(),
                        format!("{:.3}", measured / predicted),
                    ));
                }
            }
            _ => {}
        }
    }
    rows.push(("generation".into(), generation.to_string()));
    rows.extend(late);
    rows
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
                    server.observe().add(Counter::PanicsRecovered, 1);
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

    #[test]
    fn percentiles_use_nearest_rank() {
        let sample: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&sample, 50.0), Duration::from_millis(50));
        assert_eq!(percentile(&sample, 99.0), Duration::from_millis(99));
        assert_eq!(percentile(&sample, 100.0), Duration::from_millis(100));
        assert_eq!(percentile(&[], 50.0), Duration::ZERO);
        assert_eq!(
            percentile(&[Duration::from_millis(7)], 99.0),
            Duration::from_millis(7)
        );
    }

    /// The histogram's quantile agrees with the nearest-rank
    /// [`percentile`] helper when observations sit exactly on bucket
    /// bounds.
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
    fn commit_stage_lands_under_its_own_name() {
        let reg = MetricsRegistry::new();
        let wait = Counter::CommitStageMicros.at(CommitStage::Wait as usize);
        reg.add(wait, 5_000);
        for (i, stage) in COMMIT_STAGE_NAMES.iter().enumerate() {
            let want = if *stage == "wait" { 5_000 } else { 0 };
            assert_eq!(reg.get(Counter::CommitStageMicros.at(i)), want, "{stage}");
        }
    }

    /// Every family has its own slots: a sample written through one
    /// family and label reads back there and nowhere else.
    #[test]
    fn catalogue_slots_are_disjoint() {
        let reg = MetricsRegistry::new();
        let mut written = 0;
        for family in &CATALOGUE {
            for i in 0..family.samples() {
                written += 1;
                reg.add(family.counter.at(i), written);
            }
        }
        assert_eq!(written as usize, SLOTS);
        let mut expect = 0;
        for family in &CATALOGUE {
            for i in 0..family.samples() {
                expect += 1;
                assert_eq!(
                    reg.get(family.counter.at(i)),
                    expect,
                    "{}[{i}]",
                    family.show
                );
            }
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
