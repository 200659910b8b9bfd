//! The concurrent query-serving layer: shared snapshots, a canonical
//! plan cache, and intra-query parallelism.
//!
//! The paper's pipeline — PerfectRef, GDL cover search, cost-chosen
//! physical planning — is priced per call, and §6.4 observes that *most
//! of GDL's running time is spent estimating costs*: the expensive part
//! of answering is not executing the chosen plan but choosing it. A
//! serving deployment sees the same query shapes repeatedly against a
//! slowly-changing KB, which is exactly the regime where that per-call
//! cost can be amortized away. [`Server`] does four things about it:
//!
//! * **Shared snapshots** — an [`EngineSnapshot`] bundles the immutable
//!   [`Engine`] (storage + `CatalogStats` + profile) and the generation's
//!   [`RewriteContext`] behind one `Arc`, tagged with a **generation**
//!   counter. Queries clone the `Arc` (no lock held while
//!   running), so any number of OS threads evaluate concurrently against
//!   one loaded KB, and a reload swaps the `Arc` without disturbing
//!   in-flight queries (snapshot isolation).
//! * **Canonical plan cache** — reformulation + planning results are
//!   cached under `(generation, canonical_key(q))`. The canonical key is
//!   invariant under head-variable renaming and body-atom reordering
//!   (`obda_query::canonical_key`), so syntactic variants of one query
//!   share an entry. A hit skips PerfectRef, cover search, cost
//!   estimation, and `plan_conjunction` entirely and replays the stored
//!   [`PreparedPlans`] — precisely the §6.4-dominant work.
//! * **Intra-query parallelism** — with `threads > 1` the arms of a
//!   UCQ/USCQ (or the components of a JUCQ/JUSCQ) fan out across scoped
//!   worker threads with per-thread meters, merged deterministically in
//!   arm order so the arm-sums-equal-totals metering invariant survives
//!   parallel execution (see [`crate::executor::execute_parallel`]).
//! * **A TBox-lifetime half of compilation** — reformulation runs
//!   through the snapshot's [`RewriteContext`] (`obda_core`): the TBox
//!   scope (TBox, predicate dependencies, saturated closure), the
//!   constraints mined from the generation's data, and the *live* TBox —
//!   the scope's without the inclusions out of predicates that have no
//!   facts and none below them — with its memo of fragment
//!   reformulations. Every path that keeps the TBox (commits,
//!   [`Server::reload_abox`], transaction overlays) makes the next
//!   generation's context with one `next()` call, which keeps the scope
//!   and hands the live TBox on for as long as the write leaves its dead
//!   predicates alone, so the recompile that follows a write redoes only
//!   what the write can have changed: cover *choice* from fresh
//!   statistics, constraint mining and pruning, physical plans, SQL
//!   text. With the memo warm that is about what a warm read costs, so
//!   the plan cache is still purged on every commit and a cached entry
//!   is always exactly what a cold compile against its generation
//!   produces.
//!
//! Staleness is impossible by construction: the cache key embeds the
//! snapshot generation, every write path ([`Server::apply_batch`],
//! [`Server::reload_abox`], [`Server::reload_kb`]) bumps it before
//! publishing the new snapshot, and each query reads its snapshot
//! *first* and then looks up the cache with that snapshot's generation —
//! a cached plan can only ever be paired with the data it was planned
//! against.
//!
//! ## Durability and incremental updates
//!
//! A server optionally sits on a [`DurableStore`] directory
//! ([`Server::create_durable`] / [`Server::open`]). The data-change
//! paths then differ in mechanism but not in visibility semantics:
//!
//! * [`Server::apply_batch`] — the incremental path: the batch is
//!   appended to the WAL *first*, then applied to a clone of the
//!   current engine that shares every table, index and statistics map
//!   with it and copies the ones the batch writes (no rebuild), and
//!   published as generation `g+1` with a vocabulary that shares its
//!   frozen prefix with the last one. Cost: a pointer bump per
//!   predicate, plus the tables the batch touches, plus |δ| — vs. the
//!   full reload's O(|tables| rebuild + statistics pass). Where a commit
//!   spends its time is exported per stage (`commit_us.*` in `SHOW
//!   metrics`, `obda_commit_stage_seconds_total` on `/metrics`).
//! * [`Server::reload_abox`] / [`Server::reload_kb`] — the bulk path:
//!   storage and statistics rebuilt from scratch; on a durable server
//!   this is also a compaction point (fresh snapshot, WAL reset).

use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::{Duration, Instant};

use obda_core::{FragmentStats, PruneStats, RewriteContext, Rewritten, Strategy};
use obda_dllite::{
    ABox, AboxDelta, ConceptId, ConstraintSet, Dependencies, Extents, IndividualId, PredId, RoleId,
    TBox, Vocabulary, WorkingSet,
};
use obda_query::{canonical_key, CanonKey, FolQuery, CQ};

use crate::engine::{Engine, EngineError, EvalOptions, ExplainPlan, QueryOutcome};
use crate::estimators::ExplainEstimator;
use crate::executor::PreparedPlans;
use crate::fxhash::FxHashMap;
use crate::layout::LayoutKind;
use crate::observe::{micros, CommitStage, Counter, MetricsRegistry, PruneReason, StageSpans};
use crate::planner::{ExecMode, JoinStrategy};
use crate::profile::EngineProfile;
use crate::sqlexec::Backend;
use crate::store::{write_snapshot_to, DurableStore, StoreError};

/// Errors surfaced by the serving layer's session-facing API.
///
/// The taxonomy exists so one misbehaving session can never take the
/// server down: a panic in a worker thread used to poison the shared
/// locks and turn every later call into a cascading panic. Reader paths
/// (snapshot access, the plan cache) now *recover* a poisoned guard —
/// their protected state is a single `Arc` swap or a generation-keyed
/// map, both consistent at every intermediate step — while writer paths
/// refuse to touch possibly half-mutated master state and surface
/// [`ServerError::Poisoned`] instead.
#[derive(Debug)]
pub enum ServerError {
    /// A prior mutator panicked while holding the writer lock; the
    /// master vocabulary/ABox may be half-mutated, so further writes are
    /// refused. Reads are unaffected (they see only published
    /// snapshots). Rebuild the server (e.g. [`Server::open`]) to resume
    /// writing.
    Poisoned,
    /// The durable store rejected or failed the operation.
    Store(StoreError),
    /// Query compilation or execution failed.
    Engine(EngineError),
    /// First-committer-wins: another transaction committed (or staged) a
    /// write to an overlapping fact key after this transaction pinned
    /// its snapshot. Nothing was applied; re-run the transaction against
    /// a fresh snapshot.
    Conflict {
        /// The generation the conflicting write committed in.
        committed_in: u64,
    },
    /// The group-commit record containing this transaction failed to
    /// reach the WAL; nothing from the group was applied, so retrying
    /// the transaction is safe.
    CommitFailed { detail: String },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Poisoned => write!(
                f,
                "server writer state is poisoned by a panicked mutation; \
                 reads still serve the last published snapshot"
            ),
            ServerError::Store(e) => write!(f, "{e}"),
            ServerError::Engine(e) => write!(f, "{e}"),
            ServerError::Conflict { committed_in } => write!(
                f,
                "could not serialize access due to a concurrent fact write \
                 (committed in generation {committed_in}); retry the transaction"
            ),
            ServerError::CommitFailed { detail } => {
                write!(f, "group commit failed, transaction not applied: {detail}")
            }
        }
    }
}

impl std::error::Error for ServerError {}

impl From<StoreError> for ServerError {
    fn from(e: StoreError) -> Self {
        ServerError::Store(e)
    }
}

impl From<EngineError> for ServerError {
    fn from(e: EngineError) -> Self {
        ServerError::Engine(e)
    }
}

/// Serving-layer configuration (fixed at construction).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    pub layout: LayoutKind,
    pub profile: EngineProfile,
    pub join_strategy: JoinStrategy,
    /// Native-pipeline execution mode: vectorized columnar batches (the
    /// default) or the classic row-at-a-time pipeline. Cached plans are
    /// prepared under this mode and replay it.
    pub exec_mode: ExecMode,
    /// How queries reach the executor: planned directly, or through the
    /// SQL-delegation path (generate → parse → lower via
    /// `crate::sqlexec` → plan → execute). With [`Backend::Sql`] the
    /// cached compilation stores the SQL text, so warm queries skip
    /// reformulation *and* SQL generation and go straight to parse +
    /// lower + plan + execute.
    pub backend: Backend,
    /// Which reformulation the miss path computes (the paper's strategy
    /// surface; [`Strategy::Gdl`] is the headline cost-driven search).
    pub reform_strategy: Strategy,
    /// Worker threads fanning union arms per query (1 = sequential).
    pub threads: usize,
    /// Plan-cache toggle — `false` re-runs the full pipeline on every
    /// call, PerfectRef included: it also bypasses the live TBox's
    /// fragment memo (the differential harness runs both ways and
    /// compares, so its cold twin must share nothing with the cached
    /// server).
    pub cache_plans: bool,
    /// On a durable server: fold the WAL into a fresh snapshot after
    /// this many logged transactions (`0` = only on explicit
    /// [`Server::checkpoint`] / reload). Ignored without a store.
    pub compact_every: u64,
    /// On a durable server: `fsync` every group-commit record before
    /// acknowledging its transactions — durability against machine
    /// crashes, not just process death. Off by default, matching the
    /// store's flush-on-append contract (the per-group fsync is the
    /// dominant commit cost on real disks).
    pub sync_commits: bool,
    /// Constraint-driven reformulation pruning: mine ABox completeness
    /// constraints per snapshot generation and drop provably-empty and
    /// data-subsumed union arms before SQL generation (Hovland et al.,
    /// arXiv 1605.04263). Answers are unchanged — the differential
    /// harness runs both settings and compares — but oversized
    /// statements (the §6.3 DPH failure mode) shrink to servable ones.
    /// The mined set is a property of the data and lives in the
    /// snapshot's [`RewriteContext`]: every write path publishes a
    /// snapshot with a fresh context, and the first compilation against
    /// it re-mines. The TBox closure that guides mining is a property of
    /// the TBox and is computed once per TBox scope, not per generation.
    /// The same setting lets the constraints shape generation, not only
    /// prune after it: PerfectRef runs under the generation's live TBox
    /// ([`EngineSnapshot::tbox`]) and never builds the arms over dead
    /// predicates that pruning would drop as empty. It is the context's
    /// one `mines` flag.
    pub use_constraints: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            layout: LayoutKind::Simple,
            profile: EngineProfile::pg_like(),
            join_strategy: JoinStrategy::CostChosen,
            exec_mode: ExecMode::default(),
            backend: Backend::Native,
            reform_strategy: Strategy::Gdl { time_budget: None },
            threads: 1,
            cache_plans: true,
            compact_every: 256,
            sync_commits: false,
            use_constraints: true,
        }
    }
}

/// One immutable generation of the loaded KB: engine (storage + stats +
/// profile) and its [`RewriteContext`]. `Send + Sync`; shared behind
/// `Arc` so readers never block writers and vice versa.
pub struct EngineSnapshot {
    pub(crate) engine: Engine,
    /// The vocabulary frozen at publish time. Interning only appends, so
    /// every id reachable from this generation's data resolves here —
    /// the wire front end uses it to parse predicate/individual names in
    /// queries and to render result rows as names.
    pub(crate) voc: Arc<Vocabulary>,
    pub(crate) generation: u64,
    /// The TBox scope this generation was loaded under and what this
    /// generation's data derives from it: constraints, dead predicates,
    /// live TBox and fragment memo, each on first use. Every write path
    /// publishes a snapshot with a fresh context, so a constraint mined
    /// from generation `g` can never be consulted by a query compiled
    /// against generation `g+1` — the lifetime discipline of the plan
    /// cache, whose keys embed the generation.
    pub(crate) rewrite: RewriteContext,
}

impl EngineSnapshot {
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The extents of this generation's data, scanned from storage.
    fn extents(&self) -> Extents {
        self.engine.extract_extents(&self.voc)
    }

    /// The TBox every compilation against this generation reformulates
    /// under: the loaded TBox without the inclusions out of the
    /// generation's dead predicates ([`EngineSnapshot::dead_predicates`]),
    /// or the loaded TBox itself on a server that does not mine
    /// constraints. Derived on first use. Cover safety still reads the
    /// loaded TBox's dependencies.
    pub fn tbox(&self) -> &TBox {
        self.rewrite.tbox(|| self.extents())
    }

    /// The predicates of this generation that have no facts and no facts
    /// below them, sorted (none on a server that does not mine
    /// constraints).
    pub fn dead_predicates(&self) -> &[PredId] {
        self.rewrite.dead_predicates(|| self.extents())
    }

    /// The vocabulary this generation's ids resolve against.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.voc
    }

    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The completeness constraints of this generation's data: extents
    /// are extracted and compared on first use, along the inclusions of
    /// the TBox closure, and the set is shared by every subsequent
    /// compilation against the generation (cheap `Arc` clone). Only the
    /// data-dependent part is per generation — the closure is the TBox
    /// scope's and outlives it.
    pub fn constraints(&self) -> Arc<ConstraintSet> {
        Arc::clone(self.rewrite.constraints(|| self.extents()))
    }
}

/// A cached compilation: the chosen FOL reformulation, its stored
/// physical plans, and the SQL translation size (so the hot path skips
/// SQL text generation too). Under [`Backend::Sql`] the translation
/// *text* itself is kept — the SQL backend's input — so a cache hit
/// skips reformulation, planning, and SQL generation alike.
pub struct CompiledQuery {
    pub fol: FolQuery,
    pub plans: PreparedPlans,
    pub sql_bytes: usize,
    /// The SQL translation, retained when the serving backend executes
    /// SQL (`None` under the native backend, which needs only the size).
    pub sql: Option<String>,
    /// Wall-clock spans of the cold compilation stages (reformulate /
    /// plan / sqlgen). A cache hit does not replay this work, so its
    /// [`ServerOutcome::spans`] report these stages as zero.
    pub spans: StageSpans,
    /// Constraint-pruning statistics, when the server compiled with
    /// [`ServerConfig::use_constraints`] (None otherwise). Cached with
    /// the plan: the pruned shape *is* the cached shape.
    pub pruned: Option<PruneStats>,
    /// Where the cold compilation's fragment reformulations came from:
    /// the live TBox's memo, or PerfectRef runs of its own.
    pub fragments: FragmentStats,
    /// Query atoms dropped before reformulation as implied by another
    /// ([`Chosen::eliminated`](obda_core::Chosen::eliminated)).
    pub eliminated: usize,
}

/// The answer to one served query.
pub struct ServerOutcome {
    pub outcome: QueryOutcome,
    /// Whether the plan cache supplied the compilation.
    pub cache_hit: bool,
    /// The snapshot generation the query ran against.
    pub generation: u64,
    /// Per-stage spans of this call: the compile stages (zero on a
    /// cache hit — the work was skipped, which is the point of the
    /// cache) and `execute` = the engine's measured wall clock.
    pub spans: StageSpans,
}

/// One `EXPLAIN ANALYZE` result: the priced plan the compilation chose
/// and the measured outcome of actually running it — predicted cost and
/// observed work side by side, per union arm where the executor
/// attributes them.
pub struct AnalyzedQuery {
    /// The operator-annotated plan with per-step cost/row estimates —
    /// the same deterministic `plan_conjunction` the executor followed.
    pub explain: ExplainPlan,
    /// The measured execution: rows, work counters, per-arm deltas.
    pub outcome: QueryOutcome,
    pub cache_hit: bool,
    pub generation: u64,
    pub backend: Backend,
    /// Per-stage spans of this call (see [`ServerOutcome::spans`]).
    pub spans: StageSpans,
    /// Constraint-pruning statistics of the compilation this analysis
    /// replayed (None when pruning was disabled).
    pub pruned: Option<PruneStats>,
    /// Dead predicates of the generation: PerfectRef built no arm over
    /// them ([`EngineSnapshot::dead_predicates`]).
    pub dead_preds: usize,
    /// Fragment reformulations of that compilation: memoised / computed.
    pub fragments: FragmentStats,
    /// Query atoms that compilation eliminated before reformulating.
    pub eliminated: usize,
}

/// Point-in-time cache counters. All but the two `entries` gauges are
/// views over the server's [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
    /// Stale entries dropped by reloads so far.
    pub invalidated: u64,
    /// Fragment reformulations cold compilations took from the live
    /// TBox's memo — PerfectRef runs a write did *not* cost.
    pub fragment_memo_hits: u64,
    /// Fragment reformulations cold compilations had to compute. With
    /// the plan cache on, these stop growing once every shape has been
    /// compiled under the current live TBox.
    pub fragment_memo_misses: u64,
    /// Reformulations the current live TBox's memo holds.
    pub fragment_memo_entries: usize,
    /// Candidate CQs the PerfectRef runs of those computed reformulations
    /// built, and how many of them were canonically labelled — the rest
    /// repeated an earlier candidate exactly. Both are pure functions of
    /// the fragments computed, so they say why a cold compile was slow.
    pub perfectref_candidates: u64,
    pub perfectref_canonicalised: u64,
}

/// Point-in-time transaction counters; like [`CacheStats`], all but
/// `active` are views over the server's [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Transactions (including one-shot `apply_batch` calls) committed.
    pub committed: u64,
    /// Commits refused by first-committer-wins validation.
    pub conflicts: u64,
    /// WAL group-commit records written. At most `committed` — lower
    /// under concurrency, where one record carries a whole group.
    pub commit_groups: u64,
    /// Currently open transactions.
    pub active: usize,
}

/// One transaction staged for group commit: its flattened delta (all
/// provisional ids already resolved to final interned ids), the
/// generation it will publish as, and the slot its committer waits on.
struct StagedTxn {
    delta: AboxDelta,
    generation: u64,
    slot: Arc<CommitSlot>,
}

/// What a staged transaction's committer learns from the group-commit
/// leader that made it durable (or failed the whole group). Nobody
/// blocks on a slot: committers queue on the leader seat itself (see
/// [`Server::commit_wait`]) and read the slot once they hold it.
pub(crate) struct CommitSlot {
    state: Mutex<SlotState>,
}

enum SlotState {
    /// Still queued behind the next group-commit leader.
    Queued,
    /// Durably logged and published at this generation.
    Committed(u64),
    /// The group's WAL append failed; nothing was applied.
    Failed(String),
}

impl CommitSlot {
    fn new() -> Self {
        CommitSlot {
            state: Mutex::new(SlotState::Queued),
        }
    }

    fn resolve(&self, result: Result<u64, String>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *state = match result {
            Ok(generation) => SlotState::Committed(generation),
            Err(detail) => SlotState::Failed(detail),
        };
    }

    fn poll(&self) -> Option<Result<u64, String>> {
        match &*self.state.lock().unwrap_or_else(|e| e.into_inner()) {
            SlotState::Queued => None,
            SlotState::Committed(generation) => Some(Ok(*generation)),
            SlotState::Failed(detail) => Some(Err(detail.clone())),
        }
    }
}

/// The authoritative writer-side state: the master vocabulary and ABox
/// every commit applies to, plus the group-commit staging area. Guarded
/// by one mutex held only *briefly* — staging a transaction, or the
/// leader's apply phase, which costs what the group's deltas touch —
/// never across a WAL write or fsync, which is what lets commits group
/// under concurrency. Readers never touch it: they see only published
/// [`EngineSnapshot`]s.
struct WriterState {
    /// Shares its frozen prefix with the vocabulary of every published
    /// generation since the last fold, so the per-generation clone in
    /// [`Server::run_leader`] and the checkpoint's pin copy only the
    /// names interned since (`obda_dllite::Vocabulary`).
    voc: Vocabulary,
    abox: ABox,
    /// Generation of the last *published* snapshot; `voc`/`abox` are
    /// exactly that generation's state.
    applied_generation: u64,
    /// Generation assigned to the most recently *staged* transaction;
    /// equals `applied_generation` whenever the queue is empty.
    staged_generation: u64,
    /// Predicted interned ids for individual names that are staged but
    /// not yet applied. The next prediction is always
    /// `voc.num_individuals() + pending_names.len()`; the leader interns
    /// in staging order, so every prediction lands on its id.
    pending_names: HashMap<String, IndividualId>,
    /// Transactions staged and awaiting the next group-commit leader.
    queue: Vec<StagedTxn>,
    /// Fact keys written by recently staged/committed transactions →
    /// the generation that wrote them. The first-committer-wins check
    /// consults these; pruned after every group down to the oldest open
    /// transaction's begin generation.
    recent_concepts: HashMap<(ConceptId, IndividualId), u64>,
    recent_roles: HashMap<(RoleId, IndividualId, IndividualId), u64>,
}

/// The concurrent serving layer over one knowledge base. See the module
/// docs for the architecture; thread-safety contract: every method takes
/// `&self`, and the whole struct is `Send + Sync`.
pub struct Server {
    config: ServerConfig,
    snapshot: RwLock<Arc<EngineSnapshot>>,
    /// Serializes access to the master state and the staging queue. Held
    /// briefly (stage / apply / clone) — never across a WAL write or
    /// fsync — while the `snapshot` write lock is held only for the
    /// `Arc` swap, so queries keep serving the old generation while a
    /// group commits.
    writer: Mutex<WriterState>,
    /// The durable store under its own lock, so the group-commit
    /// leader's WAL write never blocks staging (which takes only
    /// `writer`). Lock discipline: only paths serialized under
    /// `commit_leader` (the leader's durability+apply phases, the
    /// reload publish) ever hold `store` and `writer` together, so the
    /// two orders they nest in cannot deadlock; every other path takes
    /// at most one of the two at a time.
    store: Mutex<Option<DurableStore>>,
    /// Group-commit leader election: the first committer to acquire
    /// this drains the staged queue and commits it as ONE WAL record;
    /// the rest queue on it and find their slots resolved when their
    /// turn comes (or lead whatever staged since). Reloads take it to
    /// flush the queue before replacing the KB.
    commit_leader: Mutex<()>,
    /// At most one fuzzy checkpoint runs at a time.
    ckpt: Mutex<()>,
    /// Open transactions: id → begin generation. The minimum begin
    /// generation bounds how far the conflict registry may be pruned.
    active_txns: Mutex<HashMap<u64, u64>>,
    /// Allocates transaction ids (not a metric).
    txn_counter: AtomicU64,
    /// Keyed by (generation, backend, canonical query): a session served
    /// under [`Backend::Sql`] needs the SQL text a native compilation
    /// does not carry (and vice versa for stored plans), so the two
    /// backends cache independent entries for the same query.
    cache: RwLock<PlanCache>,
    /// The server-wide metrics registry every layer reports through;
    /// `Arc` so the metrics endpoint and wire sessions can share it.
    observe: Arc<MetricsRegistry>,
}

type PlanCache = FxHashMap<(u64, Backend, CanonKey), Arc<CompiledQuery>>;

/// Compile-time thread-safety contract: snapshots cross worker threads
/// and the server is shared by reference from every client thread.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EngineSnapshot>();
    assert_send_sync::<Server>();
    assert_send_sync::<CompiledQuery>();
};

impl Server {
    /// Load generation 0 from a KB (in-memory only — nothing persisted).
    pub fn new(voc: Vocabulary, tbox: TBox, abox: &ABox, config: ServerConfig) -> Self {
        Self::with_store(voc, tbox, abox.clone(), config, None, 0)
    }

    /// Initialize a durable store directory with a generation-0 snapshot
    /// of the KB and an empty WAL, and serve from it. Subsequent
    /// [`Server::apply_batch`] calls are write-ahead logged;
    /// [`Server::open`] brings the server back after a crash or restart.
    pub fn create_durable(
        dir: &Path,
        voc: Vocabulary,
        tbox: TBox,
        abox: &ABox,
        config: ServerConfig,
    ) -> Result<Self, StoreError> {
        let store = DurableStore::create(dir, &voc, &tbox, abox, 0)?;
        Ok(Self::with_store(
            voc,
            tbox,
            abox.clone(),
            config,
            Some(store),
            0,
        ))
    }

    /// The recovery constructor: replay `snapshot + WAL tail` from a
    /// store directory — a torn final record (crash mid-append) is
    /// tolerated and truncated — and serve the recovered KB at the exact
    /// pre-crash generation. The TBox rides in the snapshot, so the
    /// directory is self-contained.
    pub fn open(dir: &Path, config: ServerConfig) -> Result<Self, StoreError> {
        let (kb, store) = DurableStore::open(dir)?;
        Ok(Self::with_store(
            kb.voc,
            kb.tbox,
            kb.abox,
            config,
            Some(store),
            kb.generation,
        ))
    }

    fn with_store(
        voc: Vocabulary,
        tbox: TBox,
        abox: ABox,
        config: ServerConfig,
        store: Option<DurableStore>,
        generation: u64,
    ) -> Self {
        let deps = Dependencies::compute(&voc, &tbox);
        let rewrite = RewriteContext::new(tbox, deps, config.use_constraints);
        let snapshot = Self::build_snapshot(&voc, &config, rewrite, &abox, generation);
        Server {
            config,
            snapshot: RwLock::new(Arc::new(snapshot)),
            writer: Mutex::new(WriterState {
                voc,
                abox,
                applied_generation: generation,
                staged_generation: generation,
                pending_names: HashMap::new(),
                queue: Vec::new(),
                recent_concepts: HashMap::new(),
                recent_roles: HashMap::new(),
            }),
            store: Mutex::new(store),
            commit_leader: Mutex::new(()),
            ckpt: Mutex::new(()),
            active_txns: Mutex::new(HashMap::new()),
            txn_counter: AtomicU64::new(0),
            cache: RwLock::new(FxHashMap::default()),
            observe: Arc::new(MetricsRegistry::new()),
        }
    }

    fn build_snapshot(
        voc: &Vocabulary,
        config: &ServerConfig,
        rewrite: RewriteContext,
        abox: &ABox,
        generation: u64,
    ) -> EngineSnapshot {
        let engine = Engine::load(abox, voc, config.layout, config.profile.clone())
            .with_join_strategy(config.join_strategy)
            .with_exec_mode(config.exec_mode)
            .with_backend(config.backend);
        EngineSnapshot {
            engine,
            voc: Arc::new(voc.clone()),
            generation,
            rewrite,
        }
    }

    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The server-wide metrics registry (counters, latency histograms,
    /// the slow-query ring). Shared: clone the `Arc` to hand it to a
    /// metrics endpoint or a monitoring thread.
    pub fn observe(&self) -> &Arc<MetricsRegistry> {
        &self.observe
    }

    /// Read the published snapshot `Arc`, recovering a poisoned guard.
    ///
    /// Poison recovery is sound here because the protected value is a
    /// single `Arc`: the only write is one pointer-sized assignment in
    /// [`Server::swap_snapshot`], so there is no intermediate state a
    /// panicking thread could have left behind — the `Arc` always points
    /// at a fully built snapshot. Without recovery, one panicked session
    /// would cascade into a panic in every other session (the bug this
    /// replaces).
    fn read_snapshot(&self) -> Arc<EngineSnapshot> {
        self.snapshot
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Share the plan cache for a lookup, recovering a poisoned guard —
    /// hits from any number of sessions proceed side by side. Sound
    /// because every cache state is servable: entries are keyed by
    /// generation, lookups only match the reader's own generation, and a
    /// half-finished purge merely leaves unreachable stale entries
    /// (dropped again by the next purge) — never wrong answers.
    fn read_cache(&self) -> RwLockReadGuard<'_, PlanCache> {
        self.cache.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Lock the plan cache exclusively (insert after a miss, purge at
    /// publish), recovering a poisoned guard like [`Server::read_cache`].
    fn write_cache(&self) -> RwLockWriteGuard<'_, PlanCache> {
        self.cache.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Lock the writer state. A poisoned writer mutex is *not*
    /// recoverable: the panicking mutator may have interned names,
    /// applied half an ABox batch, or advanced the store — recovering
    /// the guard could commit a later batch on top of that torn state.
    /// Writers get a typed error; readers never touch this lock.
    fn lock_writer(&self) -> Result<MutexGuard<'_, WriterState>, ServerError> {
        self.writer.lock().map_err(|_| ServerError::Poisoned)
    }

    /// Lock the durable store, recovering a poisoned guard. Sound
    /// because [`DurableStore`] tracks its own failure state: a
    /// half-finished operation either rolled itself back (WAL appends)
    /// or poisoned the store, which then refuses further use with a
    /// typed error.
    fn lock_store(&self) -> MutexGuard<'_, Option<DurableStore>> {
        self.store.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_leader(&self) -> MutexGuard<'_, ()> {
        self.commit_leader.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn lock_active(&self) -> MutexGuard<'_, HashMap<u64, u64>> {
        self.active_txns.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current snapshot (cheap `Arc` clone; callers keep the KB
    /// generation they started with even across concurrent reloads).
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.read_snapshot()
    }

    /// Answer one conjunctive query: compile (or fetch the cached
    /// compilation of) its reformulation, then evaluate it against the
    /// current snapshot under the configured parallelism.
    pub fn query(&self, cq: &CQ) -> Result<ServerOutcome, EngineError> {
        self.query_on(&self.snapshot(), cq)
    }

    /// [`Server::query`] pinned to an explicit snapshot — lets a caller
    /// issue several queries against one consistent KB generation.
    pub fn query_on(
        &self,
        snap: &Arc<EngineSnapshot>,
        cq: &CQ,
    ) -> Result<ServerOutcome, EngineError> {
        self.query_on_as(snap, cq, self.config.backend)
    }

    /// [`Server::query_on`] under an explicit execution backend — the
    /// wire front end's per-session `Backend::Native|Sql` selection
    /// (chosen by a startup parameter) lands here. Compilations are
    /// cached per backend (the key embeds it), so two sessions on
    /// different backends warm independent entries and neither ever
    /// replays an artifact the other backend produced.
    pub fn query_on_as(
        &self,
        snap: &Arc<EngineSnapshot>,
        cq: &CQ,
        backend: Backend,
    ) -> Result<ServerOutcome, EngineError> {
        let (compiled, cache_hit) = self.compile(snap, cq, backend);
        let opts = EvalOptions {
            strategy: None,
            prepared: Some(&compiled.plans),
            threads: self.config.threads,
            sql_bytes: Some(compiled.sql_bytes),
            sql_text: compiled.sql.as_deref(),
            backend: Some(backend),
            mode: None,
        };
        let outcome = match snap.engine.evaluate_opts(&compiled.fol, &opts) {
            Ok(outcome) => outcome,
            Err(e) => {
                self.observe.add(Counter::QueryErrors, 1);
                return Err(e);
            }
        };
        let spans = self.record_served(&compiled, cache_hit, backend, &outcome);
        Ok(ServerOutcome {
            outcome,
            cache_hit,
            generation: snap.generation,
            spans,
        })
    }

    /// Shared post-execution bookkeeping of every served query: assemble
    /// the call's [`StageSpans`] (compile stages zero on a cache hit —
    /// the work was skipped), feed the registry's per-backend counters
    /// and latency histogram, and accumulate one predicted-vs-measured
    /// cost-model accuracy sample from the plans that ran. Under
    /// [`Backend::Sql`] those are the plans of the lowered statement,
    /// and turning the cached text back into them (parse + lower + plan,
    /// paid on every execution) counts as `plan`, not `execute`.
    fn record_served(
        &self,
        compiled: &CompiledQuery,
        cache_hit: bool,
        backend: Backend,
        outcome: &QueryOutcome,
    ) -> StageSpans {
        let mut spans = if cache_hit {
            StageSpans::default()
        } else {
            compiled.spans
        };
        let (plans, replanned) = match &outcome.lowered {
            Some(lowered) => (&lowered.plans, lowered.took),
            None => (&compiled.plans, Duration::ZERO),
        };
        spans.plan += replanned;
        spans.execute = outcome.metrics.wall.saturating_sub(replanned);
        self.observe
            .record_query(backend, spans.total(), outcome.rows.len() as u64);
        if !plans.plans.is_empty() {
            let predicted: f64 = plans.plans.iter().map(|p| p.est_cost()).sum();
            self.observe
                .record_cost_sample(predicted, outcome.metrics.work_units());
        }
        spans
    }

    /// Fetch or compute the compilation of `cq` for `snap`'s generation
    /// under `backend`; the flag says whether the plan cache supplied
    /// it. Public so harnesses can compare what two servers *compiled*
    /// (reformulation, SQL size), not just what they answered.
    pub fn compile(
        &self,
        snap: &EngineSnapshot,
        cq: &CQ,
        backend: Backend,
    ) -> (Arc<CompiledQuery>, bool) {
        if !self.config.cache_plans {
            return (Arc::new(self.compile_cold(snap, cq, backend)), false);
        }
        let key = (snap.generation, backend, canonical_key(cq));
        if let Some(hit) = self.read_cache().get(&key).cloned() {
            self.observe.add(Counter::PlanCacheHits, 1);
            return (hit, true);
        }
        // Compile outside the lock: reformulation dominates (§6.4), and
        // concurrent misses on the same key are idempotent (last insert
        // wins; both compute the same deterministic compilation).
        let compiled = Arc::new(self.compile_cold(snap, cq, backend));
        self.observe.add(Counter::PlanCacheMisses, 1);
        {
            let mut cache = self.write_cache();
            // A reload may have published a newer generation (and purged
            // the old one) while we compiled; inserting the old-gen entry
            // now would leave an unservable key alive until the next
            // reload. The generation is re-read *inside* the cache lock:
            // `publish` swaps the snapshot before it purges under this
            // same lock, so either our insert precedes the purge (and is
            // dropped by it) or this check sees the new generation.
            let current = self
                .snapshot
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .generation;
            if snap.generation >= current {
                cache.insert(key, compiled.clone());
            }
        }
        (compiled, false)
    }

    /// The full per-call pipeline: reformulate under the configured
    /// strategy (cost estimates answered by the snapshot engine's
    /// `explain`), then plan every conjunction and size the SQL.
    fn compile_cold(&self, snap: &EngineSnapshot, cq: &CQ, backend: Backend) -> CompiledQuery {
        let mut spans = StageSpans::default();
        let stage_started = Instant::now();
        let estimator = ExplainEstimator::new(&snap.engine);
        // `cache_plans = false` means the full pipeline on every call,
        // PerfectRef included.
        let Rewritten {
            chosen,
            mined_in,
            built_live,
        } = snap.rewrite.compile(
            cq,
            &estimator,
            &self.config.reform_strategy,
            || snap.extents(),
            self.config.cache_plans,
        );
        let reg = &self.observe;
        if let Some(took) = mined_in {
            reg.record_constraint_mining(took);
        }
        if built_live {
            reg.add(Counter::LiveTBoxBuilds, 1);
        }
        if let Some(stats) = &chosen.pruned {
            let arms = |reason: PruneReason| Counter::PrunedArms.at(reason as usize);
            reg.add(arms(PruneReason::Empty), stats.empty_pruned as u64);
            reg.add(arms(PruneReason::Subsumed), stats.subsumed_pruned as u64);
        }
        reg.add(Counter::AtomsEliminated, chosen.eliminated as u64);
        let fragments = &chosen.fragments;
        reg.add(Counter::FragmentMemoHits, fragments.memoised as u64);
        reg.add(Counter::FragmentMemoMisses, fragments.computed as u64);
        reg.add(
            Counter::PerfectRefCandidates,
            fragments.perfectref_candidates as u64,
        );
        reg.add(
            Counter::PerfectRefCanonicalised,
            fragments.perfectref_canonicalised as u64,
        );
        spans.reformulate = stage_started.elapsed();
        let stage_started = Instant::now();
        // The SQL backend plans what it lowers from the text, on every
        // execution, and never reads stored plans; the native backend
        // never reads the text — each caches only what it replays.
        let plans = match backend {
            Backend::Native => snap.engine.prepare(&chosen.fol),
            Backend::Sql => PreparedPlans {
                strategy: self.config.join_strategy,
                mode: self.config.exec_mode,
                plans: Vec::new(),
            },
        };
        spans.plan = stage_started.elapsed();
        let stage_started = Instant::now();
        let sql = snap.engine.sql_for(&chosen.fol);
        let sql_bytes = sql.len();
        spans.sqlgen = stage_started.elapsed();
        // Don't pin text that can never execute: a statement over the
        // profile's size limit is rejected from its *length* alone
        // (§6.3), so the cache keeps only `sql_bytes` for it.
        let within_limit = snap
            .engine
            .profile()
            .max_statement_bytes
            .is_none_or(|limit| sql_bytes <= limit);
        let sql = (matches!(backend, Backend::Sql) && within_limit).then_some(sql);
        CompiledQuery {
            fol: chosen.fol,
            plans,
            sql_bytes,
            sql,
            spans,
            pruned: chosen.pruned,
            fragments: chosen.fragments,
            eliminated: chosen.eliminated,
        }
    }

    /// Apply one [`AboxDelta`] batch as a **one-shot transaction**: the
    /// batch is staged, rides the next group-commit WAL record, and is
    /// published as its own snapshot generation. Semantics:
    ///
    /// 1. **stage** — under a brief writer lock the batch gets the next
    ///    generation and queues behind the group-commit leader. The
    ///    batch's ids are taken verbatim — a caller predicting ids for
    ///    its `new_individuals` assumes no concurrent writer interns
    ///    names between its prediction and this call (the single-writer
    ///    contract this path has always had; [`Server::begin`]
    ///    transactions get provisional-id remapping instead). No
    ///    conflict check is performed — a raw batch is an upsert;
    /// 2. **log** — the leader drains the queue and appends ONE
    ///    group-commit record for every staged transaction, flushing
    ///    (and with [`ServerConfig::sync_commits`], fsyncing) once for
    ///    the whole group. A failed append fails the *entire* group
    ///    with nothing applied — callers can treat `Err` as "retry
    ///    safely";
    /// 3. **apply + publish** — the leader interns names, folds each
    ///    delta into the master ABox and into one clone of the current
    ///    engine (the clone shares every per-predicate table and
    ///    statistics map with its original; a delta copies the ones it
    ///    writes, then maintains them in place — no rebuild), and
    ///    publishes the group's last generation as one snapshot whose
    ///    vocabulary shares the master's frozen prefix, dropping stale
    ///    plan-cache entries. The retired generation is released after
    ///    the writer lock;
    /// 4. if the WAL has accumulated `compact_every` transactions, a
    ///    fuzzy checkpoint folds it into a fresh snapshot. A checkpoint
    ///    failure never revokes the commit: it poisons the store so the
    ///    *next* append reports the condition.
    ///
    /// `Ok(generation)` means the batch **committed** (logged and
    /// published). An empty batch still commits and bumps the
    /// generation. In-flight queries keep the snapshot they started
    /// with (snapshot isolation).
    pub fn apply_batch(&self, delta: &AboxDelta) -> Result<u64, ServerError> {
        let started = Instant::now();
        let slot = {
            let mut writer = self.lock_writer()?;
            Self::enqueue(&mut writer, delta.clone())
        };
        self.commit_wait(&slot, started)
    }

    /// Predict interning for `delta`'s new names, record its fact keys
    /// in the conflict registry, assign it the next staged generation,
    /// and queue it for the next group-commit leader. Caller holds the
    /// writer lock.
    fn enqueue(writer: &mut WriterState, delta: AboxDelta) -> Arc<CommitSlot> {
        for name in &delta.new_individuals {
            if writer.voc.find_individual(name).is_none()
                && !writer.pending_names.contains_key(name)
            {
                let id = IndividualId(
                    (writer.voc.num_individuals() + writer.pending_names.len()) as u32,
                );
                writer.pending_names.insert(name.clone(), id);
            }
        }
        writer.staged_generation += 1;
        let generation = writer.staged_generation;
        for &(c, a) in delta.insert_concepts.iter().chain(&delta.delete_concepts) {
            writer.recent_concepts.insert((c, a), generation);
        }
        for &(r, a, b) in delta.insert_roles.iter().chain(&delta.delete_roles) {
            writer.recent_roles.insert((r, a, b), generation);
        }
        let slot = Arc::new(CommitSlot::new());
        writer.queue.push(StagedTxn {
            delta,
            generation,
            slot: Arc::clone(&slot),
        });
        slot
    }

    /// Validate and stage a transaction's working set: resolve its
    /// provisional individual ids to final interned ids, run the
    /// first-committer-wins check against the conflict registry, and —
    /// only if it passes — record the predictions and queue the
    /// flattened delta. A conflict abort leaves no trace.
    pub(crate) fn stage_txn(
        &self,
        ws: &WorkingSet,
        begin_generation: u64,
    ) -> Result<Arc<CommitSlot>, ServerError> {
        let mut writer = self.lock_writer()?;
        let writer = &mut *writer;
        // Resolve provisional ids against the current master vocabulary
        // and the staged-but-unapplied predictions, *without* recording
        // anything yet.
        let mut resolved = Vec::with_capacity(ws.new_individuals().len());
        let mut fresh: Vec<(String, IndividualId)> = Vec::new();
        for name in ws.new_individuals() {
            let known = writer
                .voc
                .find_individual(name)
                .or_else(|| writer.pending_names.get(name).copied());
            let id = known.unwrap_or_else(|| {
                let id = IndividualId(
                    (writer.voc.num_individuals() + writer.pending_names.len() + fresh.len())
                        as u32,
                );
                fresh.push((name.clone(), id));
                id
            });
            resolved.push(id);
        }
        let base = ws.base_individuals() as u32;
        let delta = ws.delta_with(|id| {
            if id.0 >= base {
                resolved[(id.0 - base) as usize]
            } else {
                id
            }
        });
        // First-committer-wins: any overlapping fact key written by a
        // transaction that committed (or staged) after this one pinned
        // its snapshot aborts it. Keys at or before the begin
        // generation were *visible* to this transaction — no conflict.
        let conflicting = delta
            .insert_concepts
            .iter()
            .chain(&delta.delete_concepts)
            .filter_map(|key| writer.recent_concepts.get(key))
            .chain(
                delta
                    .insert_roles
                    .iter()
                    .chain(&delta.delete_roles)
                    .filter_map(|key| writer.recent_roles.get(key)),
            )
            .copied()
            .filter(|&g| g > begin_generation)
            .max();
        if let Some(committed_in) = conflicting {
            self.observe.add(Counter::TxnConflicts, 1);
            return Err(ServerError::Conflict { committed_in });
        }
        for (name, id) in fresh {
            writer.pending_names.insert(name, id);
        }
        Ok(Self::enqueue(writer, delta))
    }

    /// Drive a transaction staged since `started` to its outcome. The
    /// leader seat is the rendezvous: its holder commits everything
    /// staged so far as one group, so a committer queues on the seat
    /// and, once it has it, either finds its slot resolved by the
    /// previous holder or leads the group that contains it. Waiting on
    /// the seat itself (not on a timed per-slot signal) is what wakes a
    /// committer that staged just after a leader drained the queue the
    /// moment that leader is done.
    pub(crate) fn commit_wait(
        &self,
        slot: &CommitSlot,
        started: Instant,
    ) -> Result<u64, ServerError> {
        let staged = self.commit_stage_done(CommitStage::Stage, started);
        let leader = self.lock_leader();
        self.commit_stage_done(CommitStage::Wait, staged);
        if slot.poll().is_none() {
            self.run_leader()?;
        }
        drop(leader);
        self.observe
            .add(Counter::CommitMicros, micros(started.elapsed()));
        match slot.poll() {
            Some(Ok(generation)) => {
                self.observe.add(Counter::TxnCommits, 1);
                self.maybe_auto_checkpoint();
                Ok(generation)
            }
            Some(Err(detail)) => Err(ServerError::CommitFailed { detail }),
            None => unreachable!("whoever drains the queue resolves every slot in it"),
        }
    }

    /// Commit everything currently staged as ONE WAL group record,
    /// apply it to the master state, publish a single snapshot for the
    /// group, and wake its committers. Caller must hold `commit_leader`.
    fn run_leader(&self) -> Result<(), ServerError> {
        let group: Vec<StagedTxn> = std::mem::take(&mut self.lock_writer()?.queue);
        if group.is_empty() {
            return Ok(());
        }
        let mut deltas = Vec::with_capacity(group.len());
        let mut slots = Vec::with_capacity(group.len());
        for txn in group {
            deltas.push(txn.delta);
            slots.push((txn.generation, txn.slot));
        }

        // Durability first (write-ahead): one record, one flush/fsync
        // for the whole group. The writer lock is NOT held here, so
        // later transactions keep staging behind this group.
        let stage_started = Instant::now();
        let logged = {
            let mut store = self.lock_store();
            match store.as_mut() {
                Some(store) if self.config.sync_commits => store.append_group_durable(&deltas),
                Some(store) => store.append_group(&deltas),
                None => Ok(0),
            }
        };
        let wal_bytes = match logged {
            Ok(bytes) => bytes,
            Err(e) => {
                self.fail_group(slots, &e);
                return Ok(());
            }
        };
        self.observe.add(Counter::TxnCommitGroups, 1);
        if wal_bytes > 0 {
            self.observe
                .record_wal_append(wal_bytes, self.config.sync_commits);
        }
        let stage_started = self.commit_stage_done(CommitStage::Wal, stage_started);

        // Apply phase: intern names (consuming their staged
        // predictions — in staging order, so every prediction lands on
        // its id), fold each delta into the master ABox and one engine
        // clone, and publish the group's last generation as ONE
        // snapshot. The clone shares every table with `cur`; a delta
        // copies the tables it writes.
        let mut writer = self.lock_writer()?;
        let cur = self.read_snapshot();
        debug_assert_eq!(cur.generation, writer.applied_generation);
        let interned_before = writer.voc.num_individuals();
        let mut engine = cur.engine.clone();
        for delta in &deltas {
            for name in &delta.new_individuals {
                writer.voc.individual(name);
                writer.pending_names.remove(name);
            }
            let effective = writer.abox.apply(delta);
            engine.apply_delta(&effective);
        }
        let generation = slots.last().map(|(g, _)| *g).unwrap_or(cur.generation);
        writer.applied_generation = generation;
        let stage_started = self.commit_stage_done(CommitStage::Apply, stage_started);
        // The snapshot vocabulary is frozen per generation: the current
        // one if this group interned nothing, else a clone of the
        // master — its shared prefix by reference plus its tail.
        let voc = if writer.voc.num_individuals() > interned_before {
            Arc::new(writer.voc.clone())
        } else {
            cur.voc.clone()
        };
        let stage_started = self.commit_stage_done(CommitStage::Vocabulary, stage_started);
        let next = Arc::new(EngineSnapshot {
            engine,
            voc,
            generation,
            // An ABox write cannot change what the TBox entails: the
            // next generation keeps the scope, mines its own
            // constraints, and keeps the live TBox with every fragment
            // compiled so far while the write leaves the dead set alone.
            rewrite: cur.rewrite.next(),
        });
        self.swap_snapshot(next, generation);
        // Prune the conflict registry below every open transaction's
        // view — entries at or before the oldest begin generation can
        // never conflict anyone again.
        let horizon = self
            .lock_active()
            .values()
            .copied()
            .min()
            .unwrap_or(generation);
        writer.recent_concepts.retain(|_, g| *g > horizon);
        writer.recent_roles.retain(|_, g| *g > horizon);
        drop(writer);

        // Ack only after the publish, so a returning committer
        // immediately reads its own write from the live snapshot.
        for (generation, slot) in slots {
            slot.resolve(Ok(generation));
        }
        // Possibly the last reference to the retired generation: what
        // it did not share with its successor is freed here, outside
        // the writer lock.
        drop(cur);
        self.commit_stage_done(CommitStage::Publish, stage_started);
        Ok(())
    }

    /// Charge the time since `started` to `stage`; returns the start of
    /// the next stage.
    fn commit_stage_done(&self, stage: CommitStage, started: Instant) -> Instant {
        let now = Instant::now();
        self.observe.add(
            Counter::CommitStageMicros.at(stage as usize),
            micros(now - started),
        );
        now
    }

    /// A group's WAL append failed: nothing from it was applied (the
    /// WAL writer rolled the torn record back out). Fail every staged
    /// transaction — including ones queued *behind* the group, whose
    /// interning predictions build on it — and reset the staging state
    /// to the applied prefix.
    fn fail_group(&self, slots: Vec<(u64, Arc<CommitSlot>)>, err: &StoreError) {
        let detail = err.to_string();
        let mut tail = Vec::new();
        if let Ok(mut writer) = self.writer.lock() {
            tail = std::mem::take(&mut writer.queue);
            writer.pending_names.clear();
            writer.staged_generation = writer.applied_generation;
            let applied = writer.applied_generation;
            writer.recent_concepts.retain(|_, g| *g <= applied);
            writer.recent_roles.retain(|_, g| *g <= applied);
        }
        for (_, slot) in slots
            .into_iter()
            .chain(tail.into_iter().map(|t| (t.generation, t.slot)))
        {
            slot.resolve(Err(detail.clone()));
        }
    }

    /// Fold the WAL once it accumulates `compact_every` logged
    /// transactions. Runs after a successful commit with no commit-path
    /// lock held; skipped when a checkpoint is already in flight.
    fn maybe_auto_checkpoint(&self) {
        if self.config.compact_every == 0 {
            return;
        }
        let due = self
            .lock_store()
            .as_ref()
            .is_some_and(|s| s.wal_batches() >= self.config.compact_every);
        if !due {
            return;
        }
        let guard = match self.ckpt.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return,
        };
        // Best-effort: the commit already succeeded. A failed
        // checkpoint poisons the store and surfaces on the next append
        // instead of masquerading as a commit failure here.
        let _ = self.checkpoint_locked(guard);
    }

    /// Take a **fuzzy checkpoint**: snapshot the applied state to disk
    /// while the WAL keeps accepting group commits, then atomically
    /// install it and rebuild the WAL down to the tail beyond it.
    ///
    /// Three phases:
    ///
    /// 1. **pin** — clone the master vocabulary/ABox at the applied
    ///    generation `g` under a brief writer lock (clones only, no
    ///    I/O: the vocabulary by reference to its frozen prefix, the
    ///    ABox's fact vectors by copy — 0.18 ms at 60 k facts, once per
    ///    `compact_every` commits);
    /// 2. **write** — serialize the clone to `snapshot.ckpt` with *no*
    ///    server lock held: commits keep flowing into the WAL the
    ///    whole time;
    /// 3. **install** — under the store lock, atomically rename the
    ///    checkpoint over the snapshot and rewrite the WAL to only the
    ///    transactions beyond `g` (including any that committed during
    ///    phase 2).
    ///
    /// No-op on a non-durable server. Answering is unaffected —
    /// checkpointing only rewrites the on-disk representation.
    pub fn checkpoint(&self) -> Result<(), ServerError> {
        let guard = self.ckpt.lock().unwrap_or_else(|e| e.into_inner());
        self.checkpoint_locked(guard)
    }

    fn checkpoint_locked(&self, _ckpt: MutexGuard<'_, ()>) -> Result<(), ServerError> {
        let ckpt_started = Instant::now();
        // Phase 1: pin. The TBox is read *inside* the writer lock so a
        // concurrent reload cannot slip a new KB between the reads.
        let (voc, abox, scope, generation) = {
            let writer = self.lock_writer()?;
            let scope = Arc::clone(self.read_snapshot().rewrite.scope());
            (
                writer.voc.clone(),
                writer.abox.clone(),
                scope,
                writer.applied_generation,
            )
        };
        // `writer` and `store` are never held together here — the
        // leader nests them, and only paths under `commit_leader` may.
        let ckpt_path = match self.lock_store().as_ref() {
            Some(store) => store.checkpoint_file(),
            None => return Ok(()),
        };
        // Phase 2: write, unlocked.
        write_snapshot_to(&ckpt_path, &voc, scope.tbox(), &abox, generation)
            .map_err(ServerError::Store)?;
        // Phase 3: install.
        if let Some(store) = self.lock_store().as_mut() {
            store
                .install_checkpoint(generation)
                .map_err(ServerError::Store)?;
        }
        self.observe.add(Counter::Checkpoints, 1);
        self.observe
            .add(Counter::CheckpointMicros, micros(ckpt_started.elapsed()));
        Ok(())
    }

    /// Historical name for [`Server::checkpoint`].
    pub fn compact(&self) -> Result<(), ServerError> {
        self.checkpoint()
    }

    /// [`Server::query_on_as`] bypassing the plan cache: compile cold
    /// and evaluate. The transaction layer serves in-transaction reads
    /// from per-transaction overlay snapshots that *share* the pinned
    /// generation number — caching their compilations would poison
    /// other sessions' entries for that generation, so they stay out of
    /// the cache entirely.
    pub(crate) fn query_uncached(
        &self,
        snap: &Arc<EngineSnapshot>,
        cq: &CQ,
        backend: Backend,
    ) -> Result<ServerOutcome, EngineError> {
        let compiled = self.compile_cold(snap, cq, backend);
        let opts = EvalOptions {
            strategy: None,
            prepared: Some(&compiled.plans),
            threads: self.config.threads,
            sql_bytes: Some(compiled.sql_bytes),
            sql_text: compiled.sql.as_deref(),
            backend: Some(backend),
            mode: None,
        };
        let outcome = match snap.engine.evaluate_opts(&compiled.fol, &opts) {
            Ok(outcome) => outcome,
            Err(e) => {
                self.observe.add(Counter::QueryErrors, 1);
                return Err(e);
            }
        };
        let spans = self.record_served(&compiled, false, backend, &outcome);
        Ok(ServerOutcome {
            outcome,
            cache_hit: false,
            generation: snap.generation,
            spans,
        })
    }

    /// `EXPLAIN ANALYZE`: compile (through the plan cache — the plan
    /// analyzed is the *exact* compilation a plain query would replay),
    /// execute it, price what ran with the engine's structured explain,
    /// and return prediction and measurement side by side. Counts as a
    /// served query in the registry.
    pub fn explain_analyze(
        &self,
        snap: &Arc<EngineSnapshot>,
        cq: &CQ,
        backend: Backend,
    ) -> Result<AnalyzedQuery, EngineError> {
        let (compiled, cache_hit) = self.compile(snap, cq, backend);
        let opts = EvalOptions {
            strategy: None,
            prepared: Some(&compiled.plans),
            threads: self.config.threads,
            sql_bytes: Some(compiled.sql_bytes),
            sql_text: compiled.sql.as_deref(),
            backend: Some(backend),
            mode: None,
        };
        let outcome = match snap.engine.evaluate_opts(&compiled.fol, &opts) {
            Ok(outcome) => outcome,
            Err(e) => {
                self.observe.add(Counter::QueryErrors, 1);
                return Err(e);
            }
        };
        let spans = self.record_served(&compiled, cache_hit, backend, &outcome);
        // The plan that ran: under the SQL backend, the lowered
        // statement's, not the reformulation's the text was printed from.
        let ran = outcome.lowered.as_ref().map_or(&compiled.fol, |l| &l.fol);
        let explain = snap.engine.explain_plan(ran);
        Ok(AnalyzedQuery {
            explain,
            outcome,
            cache_hit,
            generation: snap.generation,
            backend,
            spans,
            pruned: compiled.pruned,
            dead_preds: snap.dead_predicates().len(),
            fragments: compiled.fragments,
            eliminated: compiled.eliminated,
        })
    }

    /// Publish a new ABox under the current TBox: rebuilds storage and
    /// statistics from scratch, bumps the generation, and drops every
    /// stale cache entry.
    ///
    /// **Generation semantics** (shared by [`Server::reload_kb`] and
    /// [`Server::apply_batch`]): each successful write publishes exactly
    /// one new generation `g+1`; the plan cache is keyed by
    /// `(generation, canonical query)`, so every entry compiled against
    /// `g` or older is dropped at publish time and can never serve the
    /// new data. In-flight queries that pinned the generation-`g`
    /// snapshot (via [`Server::snapshot`] / [`Server::query_on`]) finish
    /// against generation `g`'s engine — their prepared plans stay
    /// correct for the data they were planned on, because the snapshot
    /// owns that data immutably.
    ///
    /// On a durable server a bulk reload is also a **compaction point**:
    /// the new ABox becomes a fresh on-disk snapshot and the WAL resets
    /// (logged deltas against the pre-reload state are meaningless going
    /// forward).
    pub fn reload_abox(&self, abox: &ABox) -> Result<u64, ServerError> {
        let _leader = self.lock_leader();
        self.run_leader()?; // staged commits land first, in commit order
        let mut writer = self.lock_writer()?;
        let rewrite = self.read_snapshot().rewrite.next();
        Ok(self.publish(&mut writer, rewrite, abox))
    }

    /// Publish a new TBox *and* ABox (ontology evolution): recomputes the
    /// predicate dependencies, then swaps like [`Server::reload_abox`]
    /// (see there for the generation semantics, which are identical).
    pub fn reload_kb(&self, tbox: TBox, abox: &ABox) -> Result<u64, ServerError> {
        let _leader = self.lock_leader();
        self.run_leader()?; // staged commits land first, in commit order
        let mut writer = self.lock_writer()?;
        let deps = Dependencies::compute(&writer.voc, &tbox);
        let rewrite = RewriteContext::new(tbox, deps, self.config.use_constraints);
        Ok(self.publish(&mut writer, rewrite, abox))
    }

    /// Build and swap in the next generation (bulk path). The writer
    /// guard proves the caller holds the writer mutex: the current
    /// TBox/deps were read under it, so no concurrent write can
    /// interleave (lost update), and the expensive snapshot build
    /// happens *before* the snapshot write lock is taken — queries keep
    /// serving the old generation until the O(1) `Arc` swap.
    fn publish(&self, writer: &mut WriterState, rewrite: RewriteContext, abox: &ABox) -> u64 {
        let generation = self.read_snapshot().generation + 1;
        let scope = Arc::clone(rewrite.scope());
        let next = Arc::new(Self::build_snapshot(
            &writer.voc,
            &self.config,
            rewrite,
            abox,
            generation,
        ));
        self.swap_snapshot(next, generation);
        writer.abox = abox.clone();
        writer.applied_generation = generation;
        writer.staged_generation = generation;
        // The queue was flushed by the caller's `run_leader`; a bulk
        // reload also resets the conflict registry — it replaces the KB
        // wholesale, so fact-keyed conflict tracking against the old
        // state is meaningless (reloads are administrative operations,
        // not competing transactions).
        writer.pending_names.clear();
        writer.recent_concepts.clear();
        writer.recent_roles.clear();
        if let Some(store) = self.lock_store().as_mut() {
            // A bulk reload invalidates the log: compact to the new state.
            // Persisting is best-effort here (a publish is an in-memory
            // commit); a failed compaction leaves the old snapshot + WAL
            // intact, which recovers to the *previous* generation —
            // stale but consistent — and poisons the store so the next
            // append reports it.
            let _ = store.compact(&writer.voc, scope.tbox(), abox, generation);
        }
        generation
    }

    /// Swap the published snapshot and drop every plan-cache entry of
    /// older generations (counted in `invalidated`).
    fn swap_snapshot(&self, next: Arc<EngineSnapshot>, generation: u64) {
        *self.snapshot.write().unwrap_or_else(|e| e.into_inner()) = next;
        let mut cache = self.write_cache();
        let before = cache.len();
        cache.retain(|(gen, _, _), _| *gen >= generation);
        self.observe
            .add(Counter::PlanCacheInvalidated, (before - cache.len()) as u64);
    }

    /// The currently published snapshot generation.
    pub fn generation(&self) -> u64 {
        self.read_snapshot().generation
    }

    /// Whether this server persists to a durable store directory (the
    /// option itself is set once at construction).
    pub fn is_durable(&self) -> bool {
        self.lock_store().is_some()
    }

    /// Point-in-time transaction counters.
    pub fn txn_stats(&self) -> TxnStats {
        TxnStats {
            committed: self.observe.get(Counter::TxnCommits),
            conflicts: self.observe.get(Counter::TxnConflicts),
            commit_groups: self.observe.get(Counter::TxnCommitGroups),
            active: self.lock_active().len(),
        }
    }

    /// Allocate a transaction id and register its begin generation in
    /// the active registry, returning `(id, pinned snapshot)`. The
    /// snapshot is read *inside* the registry lock so the conflict
    /// registry can never be pruned past a begin generation that is
    /// about to register (pruning takes the same lock).
    pub(crate) fn register_txn(&self) -> (u64, Arc<EngineSnapshot>) {
        let id = self.txn_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let mut active = self.lock_active();
        let snapshot = self.read_snapshot();
        active.insert(id, snapshot.generation);
        (id, snapshot)
    }

    pub(crate) fn deregister_txn(&self, id: u64) {
        self.lock_active().remove(&id);
    }

    pub fn cache_stats(&self) -> CacheStats {
        let reg = &self.observe;
        CacheStats {
            hits: reg.get(Counter::PlanCacheHits),
            misses: reg.get(Counter::PlanCacheMisses),
            entries: self.read_cache().len(),
            invalidated: reg.get(Counter::PlanCacheInvalidated),
            fragment_memo_hits: reg.get(Counter::FragmentMemoHits),
            fragment_memo_misses: reg.get(Counter::FragmentMemoMisses),
            fragment_memo_entries: self.read_snapshot().rewrite.memoised_fragments(),
            perfectref_candidates: reg.get(Counter::PerfectRefCandidates),
            perfectref_canonicalised: reg.get(Counter::PerfectRefCanonicalised),
        }
    }

    /// Deliberately panic while holding each shared lock in turn — the
    /// poison-robustness harness. It simulates a session thread dying
    /// mid-operation so the suites can assert that readers recover and
    /// writers fail typed instead of cascading panics. (A read guard
    /// never poisons an `RwLock`, so the snapshot lock is poisoned
    /// through its *write* half — the stronger case.)
    #[doc(hidden)]
    pub fn poison_all_locks_for_test(&self) {
        for which in ["snapshot", "cache", "writer"] {
            let res = std::thread::scope(|s| {
                s.spawn(|| match which {
                    "snapshot" => {
                        let _guard = self.snapshot.write().unwrap_or_else(|e| e.into_inner());
                        panic!("poison snapshot lock");
                    }
                    "cache" => {
                        let _guard = self.cache.write().unwrap_or_else(|e| e.into_inner());
                        panic!("poison cache lock");
                    }
                    _ => {
                        let _guard = self.writer.lock().unwrap_or_else(|e| e.into_inner());
                        panic!("poison writer lock");
                    }
                })
                .join()
            });
            assert!(res.is_err(), "the poisoning thread must have panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::{example7_tbox, TBoxClosure};
    use obda_query::{Atom, Term, VarId};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    /// Example-7 KB: PhD students / supervision, with facts that make the
    /// reformulation non-trivial.
    fn fixture() -> (Vocabulary, TBox, ABox, CQ) {
        let (mut voc, tbox) = example7_tbox();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let sup = voc.find_role("supervisedBy").unwrap();
        let damian = voc.individual("Damian");
        let ioana = voc.individual("Ioana");
        let mut abox = ABox::new();
        abox.assert_concept(phd, damian);
        abox.assert_concept(phd, ioana);
        abox.assert_role(works, ioana, damian);
        abox.assert_role(sup, damian, ioana);
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(phd, v(0)),
                Atom::Role(works, v(0), v(1)),
                Atom::Role(sup, v(2), v(1)),
            ],
        );
        (voc, tbox, abox, q)
    }

    fn server(config: ServerConfig) -> (Server, CQ) {
        let (voc, tbox, abox, q) = fixture();
        (Server::new(voc, tbox, &abox, config), q)
    }

    #[test]
    fn repeated_queries_hit_the_cache_and_agree() {
        let (srv, q) = server(ServerConfig::default());
        let first = srv.query(&q).unwrap();
        assert!(!first.cache_hit);
        let second = srv.query(&q).unwrap();
        assert!(second.cache_hit);
        let mut a = first.outcome.rows.clone();
        let mut b = second.outcome.rows.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        let stats = srv.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn renamed_and_reordered_queries_share_one_entry() {
        let (srv, q) = server(ServerConfig::default());
        let baseline = srv.query(&q).unwrap();
        // Same query: head variable renamed, body atoms reversed,
        // existentials shifted — one canonical key.
        let renamed = CQ::with_var_head(
            vec![VarId(9)],
            q.atoms()
                .iter()
                .rev()
                .map(|a| a.map_vars(|var| Term::Var(VarId(var.0 + 9))))
                .collect(),
        );
        let out = srv.query(&renamed).unwrap();
        assert!(out.cache_hit, "canonical key must unify syntactic variants");
        let mut a = baseline.outcome.rows.clone();
        let mut b = out.outcome.rows.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn cache_disabled_recompiles_every_call() {
        let (srv, q) = server(ServerConfig {
            cache_plans: false,
            ..ServerConfig::default()
        });
        assert!(!srv.query(&q).unwrap().cache_hit);
        assert!(!srv.query(&q).unwrap().cache_hit);
        assert_eq!(srv.cache_stats().entries, 0);
    }

    #[test]
    fn reload_bumps_generation_and_invalidates() {
        let (voc, tbox, abox, q) = fixture();
        let srv = Server::new(voc.clone(), tbox.clone(), &abox, ServerConfig::default());
        let before = srv.query(&q).unwrap();
        assert_eq!(before.generation, 0);

        // Grow the ABox: a second supervised collaborator.
        let mut voc2 = voc.clone();
        let phd = voc2.find_concept("PhDStudent").unwrap();
        let works = voc2.find_role("worksWith").unwrap();
        let sup = voc2.find_role("supervisedBy").unwrap();
        let extra = voc2.individual("Extra");
        let other = voc2.individual("Other");
        let mut abox2 = abox.clone();
        abox2.assert_concept(phd, extra);
        abox2.assert_role(works, extra, other);
        abox2.assert_role(sup, extra, other);
        srv.reload_abox(&abox2).expect("reload commits");

        let after = srv.query(&q).unwrap();
        assert_eq!(after.generation, 1);
        assert!(!after.cache_hit, "stale plan must not serve the new KB");
        assert!(srv.cache_stats().invalidated >= 1);

        // Row-for-row parity with a cold server over the new ABox.
        let cold = Server::new(
            voc2,
            tbox,
            &abox2,
            ServerConfig {
                cache_plans: false,
                ..ServerConfig::default()
            },
        );
        let mut want = cold.query(&q).unwrap().outcome.rows;
        let mut got = after.outcome.rows.clone();
        want.sort();
        got.sort();
        assert_eq!(got, want);
        assert!(
            got.len() > before.outcome.rows.len(),
            "the new facts must be visible"
        );
    }

    #[test]
    fn apply_batch_is_incremental_and_invalidates_like_reload() {
        let (voc, tbox, abox, q) = fixture();
        let srv = Server::new(voc.clone(), tbox.clone(), &abox, ServerConfig::default());
        let before = srv.query(&q).unwrap();
        assert_eq!(before.generation, 0);

        // Same growth as the reload test, but expressed as a delta with a
        // batch-interned individual.
        let phd = voc.find_concept("PhDStudent").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let sup = voc.find_role("supervisedBy").unwrap();
        let extra = obda_dllite::IndividualId(voc.num_individuals() as u32);
        let other = obda_dllite::IndividualId(voc.num_individuals() as u32 + 1);
        let delta = AboxDelta {
            new_individuals: vec!["Extra".into(), "Other".into()],
            ..AboxDelta::new()
        }
        .insert_concept(phd, extra)
        .insert_role(works, extra, other)
        .insert_role(sup, extra, other);

        let generation = srv.apply_batch(&delta).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(srv.generation(), 1);
        let after = srv.query(&q).unwrap();
        assert_eq!(after.generation, 1);
        assert!(!after.cache_hit, "stale plan must not serve the new KB");
        assert!(srv.cache_stats().invalidated >= 1);

        // Row-for-row parity with a cold server over the equivalent
        // reloaded ABox.
        let mut voc2 = voc.clone();
        voc2.individual("Extra");
        voc2.individual("Other");
        let mut abox2 = abox.clone();
        abox2.apply(&delta);
        let cold = Server::new(
            voc2,
            tbox,
            &abox2,
            ServerConfig {
                cache_plans: false,
                ..ServerConfig::default()
            },
        );
        let mut want = cold.query(&q).unwrap().outcome.rows;
        let mut got = after.outcome.rows.clone();
        want.sort();
        got.sort();
        assert_eq!(got, want);
        assert!(got.len() > before.outcome.rows.len());
    }

    #[test]
    fn pinned_snapshot_survives_apply_batch() {
        let (voc, tbox, abox, q) = fixture();
        let srv = Server::new(voc.clone(), tbox, &abox, ServerConfig::default());
        let pinned = srv.snapshot();
        let mut want_old = srv.query_on(&pinned, &q).unwrap().outcome.rows;
        want_old.sort();

        let phd = voc.find_concept("PhDStudent").unwrap();
        let damian = voc.find_individual("Damian").unwrap();
        srv.apply_batch(&AboxDelta::new().delete_concept(phd, damian))
            .unwrap();

        // The pinned generation-0 snapshot still answers from the old
        // data (snapshot isolation): the apply mutated a clone, not it.
        let replay = srv.query_on(&pinned, &q).unwrap();
        assert_eq!(replay.generation, 0);
        let mut got = replay.outcome.rows;
        got.sort();
        assert_eq!(got, want_old);

        // The live path sees the deletion.
        let now = srv.query(&q).unwrap();
        assert_eq!(now.generation, 1);
        assert!(now.outcome.rows.len() < want_old.len());
    }

    #[test]
    fn empty_batches_still_bump_the_generation() {
        let (srv, q) = server(ServerConfig::default());
        let g1 = srv.apply_batch(&AboxDelta::new()).unwrap();
        assert_eq!(g1, 1);
        let out = srv.query(&q).unwrap();
        assert_eq!(out.generation, 1);
    }

    /// A committer that stages while a leader is mid-group (the leader
    /// drained the queue before it arrived) must lead its own group the
    /// moment the seat frees. It used to sleep on its own slot, which
    /// nobody would ever signal, until a 10 ms poll timed out. The
    /// interleaving is forced: this thread *is* that leader — it holds
    /// the seat, lets the committer stage behind it, and leaves without
    /// draining again.
    #[test]
    fn a_committer_staged_behind_a_leader_wakes_when_the_seat_frees() {
        const OLD_POLL: Duration = Duration::from_millis(10);
        let (srv, _) = server(ServerConfig::default());
        let mut waits = Vec::new();
        for round in 0..9 {
            let seat = srv.lock_leader();
            std::thread::scope(|s| {
                let committer = s.spawn(|| srv.apply_batch(&AboxDelta::new()).unwrap());
                while srv.lock_writer().unwrap().queue.is_empty() {
                    std::thread::yield_now();
                }
                let freed = Instant::now();
                drop(seat);
                assert_eq!(committer.join().unwrap(), round + 1);
                waits.push(freed.elapsed());
            });
        }
        waits.sort();
        assert!(
            waits[waits.len() / 2] < OLD_POLL / 2,
            "a staged committer waited out a poll instead of being woken: {waits:?}"
        );
    }

    #[test]
    fn sql_backend_server_agrees_and_caches_the_translation() {
        let (voc, tbox, abox, q) = fixture();
        let native = Server::new(voc.clone(), tbox.clone(), &abox, ServerConfig::default());
        let sql = Server::new(
            voc,
            tbox,
            &abox,
            ServerConfig {
                backend: Backend::Sql,
                ..ServerConfig::default()
            },
        );
        let mut want = native.query(&q).unwrap().outcome.rows;
        want.sort();

        let miss = sql.query(&q).unwrap();
        assert!(!miss.cache_hit);
        let mut got = miss.outcome.rows;
        got.sort();
        assert_eq!(got, want, "cold SQL-backend serving parity");

        // The warm path replays the cached SQL text (no regeneration):
        // same rows, cache hit.
        let hit = sql.query(&q).unwrap();
        assert!(hit.cache_hit);
        let mut got = hit.outcome.rows;
        got.sort();
        assert_eq!(got, want, "warm SQL-backend serving parity");
        assert_eq!(hit.outcome.sql_bytes, miss.outcome.sql_bytes);
    }

    /// q(x) <- worksWith(x, y): its reformulation has a `supervisedBy`
    /// arm exactly as long as the TBox says supervisedBy ⊑ worksWith.
    fn works_with_someone(voc: &Vocabulary) -> CQ {
        let works = voc.find_role("worksWith").unwrap();
        CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(works, v(0), v(1))])
    }

    fn sorted_rows(srv: &Server, q: &CQ) -> Vec<Vec<u32>> {
        let mut rows = srv.query(q).unwrap().outcome.rows;
        rows.sort();
        rows
    }

    #[test]
    fn commits_and_abox_reloads_keep_the_tbox_scope() {
        let (voc, tbox, abox, q) = fixture();
        let srv = Server::new(voc.clone(), tbox, &abox, ServerConfig::default());
        let first = srv.snapshot();
        srv.query(&q).unwrap();
        let primed = srv.cache_stats();
        assert!(
            primed.fragment_memo_misses > 0,
            "generation 0 runs PerfectRef"
        );
        assert!(primed.fragment_memo_entries > 0);
        let closure: *const TBoxClosure = first.rewrite.scope().closure();

        // Three commits and a bulk ABox reload: one scope, one closure,
        // and every recompile served from the memo.
        let phd = voc.find_concept("PhDStudent").unwrap();
        let damian = voc.find_individual("Damian").unwrap();
        for step in 0..4 {
            if step < 3 {
                let delta = if step % 2 == 0 {
                    AboxDelta::new().delete_concept(phd, damian)
                } else {
                    AboxDelta::new().insert_concept(phd, damian)
                };
                srv.apply_batch(&delta).unwrap();
            } else {
                srv.reload_abox(&abox).unwrap();
            }
            let snap = srv.snapshot();
            assert!(
                Arc::ptr_eq(snap.rewrite.scope(), first.rewrite.scope()),
                "step {step}"
            );
            let out = srv.query(&q).unwrap();
            assert!(!out.cache_hit, "the purge stays: step {step} recompiles");
            assert!(
                std::ptr::eq(snap.rewrite.scope().closure(), closure),
                "step {step}: the closure is computed once per scope"
            );
        }
        let after = srv.cache_stats();
        assert_eq!(
            after.fragment_memo_misses, primed.fragment_memo_misses,
            "no recompile after a write may run PerfectRef"
        );
        assert!(after.fragment_memo_hits > primed.fragment_memo_hits);
        assert_eq!(after.invalidated, 4, "every write still purges the plans");
    }

    #[test]
    fn reload_kb_never_serves_fragments_of_the_old_tbox() {
        let (voc, tbox, abox, _) = fixture();
        let q = works_with_someone(&voc);
        let srv = Server::new(voc.clone(), tbox.clone(), &abox, ServerConfig::default());
        let old_scope = Arc::clone(srv.snapshot().rewrite.scope());
        let before = sorted_rows(&srv, &q);
        assert_eq!(before.len(), 2, "Ioana works, Damian is supervised");

        // Drop supervisedBy ⊑ worksWith; the data is unchanged.
        let mut weaker = TBox::new();
        weaker.add(tbox.axioms()[0]);
        assert_eq!(weaker.len() + 1, tbox.len());
        srv.reload_kb(weaker.clone(), &abox).unwrap();

        let snap = srv.snapshot();
        assert!(
            !Arc::ptr_eq(snap.rewrite.scope(), &old_scope),
            "a new TBox, a new scope"
        );
        let misses = srv.cache_stats().fragment_memo_misses;
        let after = sorted_rows(&srv, &q);
        assert!(
            srv.cache_stats().fragment_memo_misses > misses,
            "the new scope's memo starts empty"
        );
        assert_eq!(after.len(), 1, "the supervisedBy arm must be gone");
        let cold = Server::new(
            voc,
            weaker,
            &abox,
            ServerConfig {
                cache_plans: false,
                ..ServerConfig::default()
            },
        );
        assert_eq!(after, sorted_rows(&cold, &q));
    }

    #[test]
    fn cache_plans_off_bypasses_the_fragment_memo() {
        let (srv, q) = server(ServerConfig {
            cache_plans: false,
            ..ServerConfig::default()
        });
        srv.query(&q).unwrap();
        let once = srv.cache_stats();
        srv.query(&q).unwrap();
        let twice = srv.cache_stats();
        assert_eq!(twice.fragment_memo_hits, 0);
        assert_eq!(twice.fragment_memo_entries, 0);
        assert_eq!(twice.fragment_memo_misses, 2 * once.fragment_memo_misses);
        // PerfectRef's work repeats exactly with its runs.
        assert!(once.perfectref_candidates > 0);
        assert!(once.perfectref_canonicalised <= once.perfectref_candidates);
        assert_eq!(twice.perfectref_candidates, 2 * once.perfectref_candidates);
        assert_eq!(
            twice.perfectref_canonicalised,
            2 * once.perfectref_canonicalised
        );
    }

    /// The poison-robustness contract: one session thread panicking while
    /// holding a shared lock must leave every other session answering
    /// (readers recover the guard) and must turn writes into typed
    /// errors, not cascading panics.
    #[test]
    fn poisoned_locks_do_not_take_down_other_sessions() {
        let (srv, q) = server(ServerConfig::default());
        let mut want = srv.query(&q).unwrap().outcome.rows;
        want.sort();

        srv.poison_all_locks_for_test();

        // Reader paths: queries, snapshots, stats all still answer.
        let out = srv.query(&q).expect("queries must survive poisoning");
        let mut got = out.outcome.rows;
        got.sort();
        assert_eq!(got, want);
        assert!(out.cache_hit, "the cache survives a poisoned guard");
        assert_eq!(srv.snapshot().generation(), 0);
        let _ = srv.cache_stats();
        assert!(!srv.is_durable());

        // Concurrent sessions keep answering after the poisoning too.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut rows = srv.query(&q).unwrap().outcome.rows;
                    rows.sort();
                    assert_eq!(rows, want);
                });
            }
        });

        // Writer paths: typed refusal, never a panic, nothing published.
        assert!(matches!(
            srv.apply_batch(&AboxDelta::new()),
            Err(ServerError::Poisoned)
        ));
        assert!(matches!(srv.compact(), Err(ServerError::Poisoned)));
        let (_, _, abox, _) = fixture();
        assert!(matches!(srv.reload_abox(&abox), Err(ServerError::Poisoned)));
        assert_eq!(srv.generation(), 0, "no failed write may publish");
    }

    #[test]
    fn per_session_backends_share_one_server_and_agree() {
        let (srv, q) = server(ServerConfig::default());
        let mut native = srv
            .query_on_as(&srv.snapshot(), &q, Backend::Native)
            .unwrap()
            .outcome
            .rows;
        native.sort();
        let sql_out = srv.query_on_as(&srv.snapshot(), &q, Backend::Sql).unwrap();
        assert!(!sql_out.cache_hit, "backends cache independent entries");
        let mut sql = sql_out.outcome.rows;
        sql.sort();
        assert_eq!(native, sql, "backend parity on one shared snapshot");

        // Each backend warms its own entry.
        assert!(
            srv.query_on_as(&srv.snapshot(), &q, Backend::Sql)
                .unwrap()
                .cache_hit
        );
        assert!(
            srv.query_on_as(&srv.snapshot(), &q, Backend::Native)
                .unwrap()
                .cache_hit
        );
        assert_eq!(srv.cache_stats().entries, 2);
    }

    #[test]
    fn concurrent_clients_and_parallel_arms_agree_with_sequential() {
        let (srv, q) = server(ServerConfig {
            threads: 4,
            ..ServerConfig::default()
        });
        let mut want = srv.query(&q).unwrap().outcome.rows;
        want.sort();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..5 {
                        let mut rows = srv.query(&q).unwrap().outcome.rows;
                        rows.sort();
                        assert_eq!(rows, want);
                    }
                });
            }
        });
        let stats = srv.cache_stats();
        assert_eq!(stats.hits + stats.misses, 41);
    }
}
