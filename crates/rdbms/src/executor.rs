//! The query executor: evaluates any Table-4 dialect over a [`Storage`].
//!
//! Execution strategy mirrors what the paper's SQL translations make the
//! RDBMS do:
//!
//! * each CQ (or SCQ) runs as a left-deep pipeline whose steps are either
//!   **index-nested-loop** probes or **hash joins** (build the slot's
//!   extension once, probe per intermediate row), as chosen per step by
//!   the planner's [`JoinStrategy`];
//! * a step whose newly bound variables are all dead — read by neither
//!   the head nor a later step — is an **existence step**
//!   ([`crate::planner::PlanStep::exists`], decided by the planner): a
//!   semi-join that keeps one witness per input row instead of every
//!   one (`memberOf(x, y) ∧ subOrganizationOf(z, y)` only needs *some*
//!   `z`);
//! * each UCQ/USCQ arm runs **independently** — no common-subexpression
//!   sharing across union terms (§2.3: no major engine does MQO/CSE); the
//!   only cross-arm effect is the profile's repeated-scan discount.
//!   Existence steps change what happens inside an arm, not between arms;
//! * a JUCQ materializes each component (`WITH … AS`, `DISTINCT`) and
//!   hash-joins the materialized tables, smallest first (§3's SQL shape);
//! * `SELECT DISTINCT` set semantics everywhere.
//!
//! **The result path.** Answers are fixed-arity rows in one flat row set
//! (`RowSet`, in `rowset.rs`) from the first DISTINCT to the API edge: a
//! conjunction's projection fills one reused tuple buffer and inserts it;
//! a union absorbs its first non-empty arm whole and inserts the rest; a
//! materialized component keeps its set, one column per *head position*
//! (constants included), and [`Row`] vectors are made once, at the end
//! of [`execute_planned`]/[`execute_parallel`] and their siblings. The
//! component join carries its intermediate rows in one flat `Vec<u32>`
//! and indexes the build side by distinct key with row chains, so no row
//! is cloned.
//!
//! **A one-component join is its component.** Eight of the nine light
//! LUBM shapes are one-component JUCQs. Their join is an identity: the
//! component's set is projected onto the head, or handed over unchanged
//! when the head is exactly its columns in order. The meter still books
//! what the logical plan does — `hash_build += 2n` (build the component's
//! `n` rows, project `n` joined rows) and `hash_probe += 1` (the unit
//! row) — so EXPLAIN ANALYZE and cost accounting do not see the shortcut.

use obda_query::{Atom, FolQuery, Slot, Term, VarId, CQ, JUCQ, JUSCQ, SCQ, USCQ};

use crate::fxhash::FxHashMap;
use crate::layout::{LayoutKind, Storage};
use crate::meter::Meter;
use crate::planner::{
    plan_conjunction_mode, Conjunct, ConjunctionPlan, ExecMode, JoinStrategy, PhysicalOp, PlanBuf,
};
use crate::rowset::RowSet;
use crate::stats::CatalogStats;

/// A result tuple of dictionary-encoded values.
pub type Row = Vec<u32>;

/// A materialized JUCQ/JUSCQ component: column `i` of every row holds the
/// value of `head[i]`, constant or variable.
struct Relation<'q> {
    head: &'q [Term],
    rows: RowSet,
}

/// Where a head term's value comes from during a projection. A head
/// resolves against a column layout once per conjunction (or join), not
/// per row.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeadSrc {
    Const(u32),
    Col(usize),
}

/// Resolve `head` against a column layout; `None` when a head variable
/// has no column, in which case no row projects and none is metered.
pub(crate) fn head_sources(
    head: &[Term],
    column: impl Fn(VarId) -> Option<usize>,
) -> Option<Vec<HeadSrc>> {
    head.iter()
        .map(|t| match *t {
            Term::Const(c) => Some(HeadSrc::Const(c.0)),
            Term::Var(v) => column(v).map(HeadSrc::Col),
        })
        .collect()
}

/// Fill the projection buffer `tuple` from one row, given column `p`'s
/// value as `value(p)`.
#[inline]
pub(crate) fn fill_tuple(tuple: &mut [u32], srcs: &[HeadSrc], value: impl Fn(usize) -> u32) {
    for (slot, src) in tuple.iter_mut().zip(srcs) {
        *slot = match *src {
            HeadSrc::Const(c) => c,
            HeadSrc::Col(p) => value(p),
        };
    }
}

/// The operator-annotated plans of every conjunction in a statement, in
/// executor traversal order — the cacheable artifact of the serving
/// layer's plan cache. Produced by [`prepare_plans_mode`], consumed by
/// [`execute_planned`]: a repeated query skips `plan_conjunction`
/// entirely and replays the stored [`ConjunctionPlan`]s.
#[derive(Debug, Clone)]
pub struct PreparedPlans {
    /// The strategy the plans were produced under (recorded so cached
    /// entries can be audited; execution follows the stored ops directly).
    pub strategy: JoinStrategy,
    /// The execution mode the plans were priced for. Replaying a stored
    /// plan re-enters the same pipeline (row or batched) it was planned
    /// under, so explain output, cached costs, and the executed
    /// operators always describe the same physical run.
    pub mode: ExecMode,
    /// One plan per *non-empty* conjunction, in the order the executor
    /// visits them (CQ; UCQ arms; SCQ; USCQ arms; JUCQ/JUSCQ components'
    /// arms, component-major). Empty-body conjunctions plan nothing.
    pub plans: Vec<ConjunctionPlan>,
}

/// Plan every conjunction of `q` in executor traversal order, without
/// executing anything; `execute_planned` replays the result, so the walk
/// order here and the executor's traversal must stay in lockstep. The
/// [`ExecMode`] decides the physical join operator recorded per step
/// (`hash` vs `vhash`) and is stored in the result so replay re-enters
/// the matching pipeline.
pub fn prepare_plans_mode(
    q: &FolQuery,
    stats: &CatalogStats,
    layout: LayoutKind,
    strategy: JoinStrategy,
    mode: ExecMode,
) -> PreparedPlans {
    struct Prep<'a> {
        stats: &'a CatalogStats,
        layout: LayoutKind,
        strategy: JoinStrategy,
        mode: ExecMode,
        buf: PlanBuf,
        plans: Vec<ConjunctionPlan>,
    }
    impl Prep<'_> {
        fn add<C: Conjunct>(&mut self, slots: &[C], head: &[Term]) {
            if !slots.is_empty() {
                self.buf.plan(
                    slots,
                    head,
                    self.stats,
                    self.layout,
                    self.strategy,
                    self.mode,
                );
                self.plans.push(ConjunctionPlan {
                    steps: self.buf.steps.to_vec(),
                });
            }
        }
        fn add_cq(&mut self, cq: &CQ) {
            self.add(cq.atoms(), cq.head());
        }
    }
    let mut p = Prep {
        stats,
        layout,
        strategy,
        mode,
        buf: PlanBuf::default(),
        plans: Vec::new(),
    };
    match q {
        FolQuery::Cq(cq) => p.add_cq(cq),
        FolQuery::Ucq(ucq) => ucq.cqs().iter().for_each(|c| p.add_cq(c)),
        FolQuery::Scq(scq) => p.add(scq.slots(), scq.head()),
        FolQuery::Uscq(uscq) => uscq.scqs().iter().for_each(|s| p.add(s.slots(), s.head())),
        FolQuery::Jucq(jucq) => {
            for comp in jucq.components() {
                comp.cqs().iter().for_each(|c| p.add_cq(c));
            }
        }
        FolQuery::Juscq(juscq) => {
            for comp in juscq.components() {
                comp.scqs().iter().for_each(|s| p.add(s.slots(), s.head()));
            }
        }
    }
    PreparedPlans {
        strategy,
        mode,
        plans: p.plans,
    }
}

/// Where each conjunction's plan comes from during one execution. Both
/// variants carry the [`ExecMode`] so every conjunction of a statement
/// runs the same pipeline the plan was (or will be) priced for.
enum PlanSource<'a> {
    /// Plan on the fly (the classic per-call pipeline).
    Inline(JoinStrategy, ExecMode),
    /// Replay stored plans in traversal order (the plan-cache hot path).
    Stored {
        plans: &'a [ConjunctionPlan],
        next: usize,
        mode: ExecMode,
    },
}

impl<'a> PlanSource<'a> {
    fn stored(plans: &'a [ConjunctionPlan], mode: ExecMode) -> Self {
        PlanSource::Stored {
            plans,
            next: 0,
            mode,
        }
    }

    fn mode(&self) -> ExecMode {
        match self {
            PlanSource::Inline(_, mode) => *mode,
            PlanSource::Stored { mode, .. } => *mode,
        }
    }
}

/// Evaluate any FOL query under the default cost-chosen operator mix,
/// returning the deduplicated result rows (one per head tuple).
pub fn execute(storage: &dyn Storage, q: &FolQuery, meter: &mut Meter) -> Vec<Row> {
    execute_with(storage, q, meter, JoinStrategy::CostChosen)
}

/// Evaluate any FOL query under an explicit [`JoinStrategy`] (forced
/// modes exist for the differential test harness and benchmarks).
pub fn execute_with(
    storage: &dyn Storage,
    q: &FolQuery,
    meter: &mut Meter,
    strategy: JoinStrategy,
) -> Vec<Row> {
    execute_mode(storage, q, meter, strategy, ExecMode::default())
}

/// Evaluate any FOL query under an explicit strategy *and* [`ExecMode`].
/// `ExecMode::Batched` (the default everywhere) runs conjunctions through
/// the vectorized pipeline in [`crate::columnar`]; `ExecMode::Row` runs
/// the classic tuple-at-a-time pipeline. Both produce identical answer
/// sets and meter totals — the differential harness holds them to it.
pub fn execute_mode(
    storage: &dyn Storage,
    q: &FolQuery,
    meter: &mut Meter,
    strategy: JoinStrategy,
    mode: ExecMode,
) -> Vec<Row> {
    execute_from(storage, q, meter, &mut PlanSource::Inline(strategy, mode))
}

/// Evaluate `q` replaying [`PreparedPlans`] — no `plan_conjunction` calls.
/// The plans must have been prepared for this exact query shape (and, for
/// meaningful results, this storage's statistics); a shape mismatch
/// panics rather than silently misplanning.
pub fn execute_planned(
    storage: &dyn Storage,
    q: &FolQuery,
    meter: &mut Meter,
    prepared: &PreparedPlans,
) -> Vec<Row> {
    let mut source = PlanSource::stored(&prepared.plans, prepared.mode);
    let rows = execute_from(storage, q, meter, &mut source);
    if let PlanSource::Stored { next, plans, .. } = source {
        assert_eq!(
            next,
            plans.len(),
            "prepared plan count must match the query's conjunction count"
        );
    }
    rows
}

fn execute_from(
    storage: &dyn Storage,
    q: &FolQuery,
    meter: &mut Meter,
    source: &mut PlanSource,
) -> Vec<Row> {
    let set = match q {
        FolQuery::Cq(cq) => eval_cq_set(storage, cq, meter, source),
        FolQuery::Ucq(ucq) => eval_ucq_set(storage, ucq, meter, source),
        FolQuery::Scq(scq) => eval_scq_set(storage, scq, meter, source),
        FolQuery::Uscq(uscq) => eval_uscq_set(storage, uscq, meter, source),
        FolQuery::Jucq(jucq) => eval_jucq_set(storage, jucq, meter, source),
        FolQuery::Juscq(juscq) => eval_juscq_set(storage, juscq, meter, source),
    };
    meter.metrics.output = set.len() as u64;
    set.into_rows()
}

// ---------------------------------------------------------------------
// intra-query parallelism
// ---------------------------------------------------------------------

/// Evaluate `q` fanning its independent units across up to `threads` OS
/// threads: the arms of a top-level UCQ/USCQ, or the components of a
/// JUCQ/JUSCQ. Non-union shapes (and `threads <= 1`) run sequentially.
///
/// Each worker owns a private [`Meter`]; deltas are merged into `meter`
/// in arm/component index order, so merged totals and `arm_metrics` are
/// deterministic and the arm-sums-equal-totals invariant holds exactly as
/// in sequential execution. Worker meters never share scan state, so the
/// profile's cross-arm rescan discount does not apply under the parallel
/// path (a non-issue for discount-free profiles like pg-like; under
/// db2-like, parallel totals conservatively price every arm's first scan
/// at full cost).
#[allow(clippy::too_many_arguments)]
pub fn execute_parallel(
    storage: &dyn Storage,
    q: &FolQuery,
    meter: &mut Meter,
    strategy: JoinStrategy,
    mode: ExecMode,
    prepared: Option<&PreparedPlans>,
    threads: usize,
) -> Vec<Row> {
    let sequential = |meter: &mut Meter| match prepared {
        Some(p) => execute_planned(storage, q, meter, p),
        None => execute_mode(storage, q, meter, strategy, mode),
    };
    if threads <= 1 {
        return sequential(meter);
    }
    let set = match q {
        FolQuery::Ucq(ucq) => {
            let offsets = plan_offsets(ucq.cqs().iter().map(|cq| usize::from(cq.num_atoms() > 0)));
            let profile = meter.profile();
            let results = fan_out(ucq.cqs(), threads, |i, cq| {
                let arm_started = std::time::Instant::now();
                let mut wm = Meter::new(profile);
                let mut src = arm_source(prepared, &offsets, i, strategy, mode);
                let rows = eval_cq_set(storage, cq, &mut wm, &mut src);
                wm.on_hash_build(rows.len() as u64);
                let mut delta = wm.metrics;
                delta.output = rows.len() as u64;
                delta.wall = arm_started.elapsed();
                (rows, delta)
            });
            let mut out = RowSet::new(ucq.head().len());
            for (rows, delta) in results {
                meter.merge_arm(delta);
                out.extend(rows);
            }
            out
        }
        FolQuery::Uscq(uscq) => {
            let offsets = plan_offsets(
                uscq.scqs()
                    .iter()
                    .map(|s| usize::from(!s.slots().is_empty())),
            );
            let profile = meter.profile();
            let results = fan_out(uscq.scqs(), threads, |i, scq| {
                let arm_started = std::time::Instant::now();
                let mut wm = Meter::new(profile);
                let mut src = arm_source(prepared, &offsets, i, strategy, mode);
                let rows = eval_scq_set(storage, scq, &mut wm, &mut src);
                wm.on_hash_build(rows.len() as u64);
                let mut delta = wm.metrics;
                delta.output = rows.len() as u64;
                delta.wall = arm_started.elapsed();
                (rows, delta)
            });
            let mut out = RowSet::new(uscq.head().len());
            for (rows, delta) in results {
                meter.merge_arm(delta);
                out.extend(rows);
            }
            out
        }
        FolQuery::Jucq(jucq) => {
            let offsets = plan_offsets(
                jucq.components()
                    .iter()
                    .map(|c| c.cqs().iter().filter(|cq| cq.num_atoms() > 0).count()),
            );
            let profile = meter.profile();
            let results = fan_out(jucq.components(), threads, |i, comp| {
                let mut wm = Meter::new(profile);
                let mut src = arm_source(prepared, &offsets, i, strategy, mode);
                let set = eval_ucq_set_inner(storage, comp, &mut wm, &mut src, false);
                let rel = materialize(comp.head(), set, &mut wm);
                (rel, wm.metrics)
            });
            let mut relations = Vec::with_capacity(results.len());
            for (rel, delta) in results {
                meter.merge_unattributed(&delta);
                relations.push(rel);
            }
            join_relations(relations, jucq.head(), meter)
        }
        FolQuery::Juscq(juscq) => {
            let offsets = plan_offsets(
                juscq
                    .components()
                    .iter()
                    .map(|c| c.scqs().iter().filter(|s| !s.slots().is_empty()).count()),
            );
            let profile = meter.profile();
            let results = fan_out(juscq.components(), threads, |i, comp| {
                let mut wm = Meter::new(profile);
                let mut src = arm_source(prepared, &offsets, i, strategy, mode);
                let set = eval_uscq_set_inner(storage, comp, &mut wm, &mut src, false);
                let rel = materialize(comp.head(), set, &mut wm);
                (rel, wm.metrics)
            });
            let mut relations = Vec::with_capacity(results.len());
            for (rel, delta) in results {
                meter.merge_unattributed(&delta);
                relations.push(rel);
            }
            join_relations(relations, juscq.head(), meter)
        }
        _ => return sequential(meter),
    };
    meter.metrics.output = set.len() as u64;
    set.into_rows()
}

/// Prefix offsets into [`PreparedPlans::plans`]: unit `i` (union arm or
/// JUCQ/JUSCQ component) owns the stored plans in
/// `plans[offsets[i]..offsets[i + 1]]`. `plan_counts` yields, per unit,
/// how many *non-empty* conjunctions it contains (0 or 1 for UCQ/USCQ
/// arms — empty bodies plan nothing, mirroring `prepare_plans_mode`).
fn plan_offsets(plan_counts: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut offsets = vec![0usize];
    for count in plan_counts {
        offsets.push(offsets.last().unwrap() + count);
    }
    offsets
}

/// The plan source for one parallel unit: a slice of the stored plans, or
/// inline planning when no prepared plans were supplied.
fn arm_source<'a>(
    prepared: Option<&'a PreparedPlans>,
    offsets: &[usize],
    i: usize,
    strategy: JoinStrategy,
    mode: ExecMode,
) -> PlanSource<'a> {
    match prepared {
        Some(p) => PlanSource::stored(&p.plans[offsets[i]..offsets[i + 1]], p.mode),
        None => PlanSource::Inline(strategy, mode),
    }
}

/// Run `f` over every item on up to `threads` scoped worker threads
/// (contiguous chunks), returning results in item order regardless of
/// thread scheduling — the merge step's determinism hinges on this.
fn fan_out<'e, T: Sync, R: Send>(
    items: &'e [T],
    threads: usize,
    f: impl Fn(usize, &'e T) -> R + Sync,
) -> Vec<R> {
    let workers = threads.min(items.len()).max(1);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let mut results: Vec<Option<R>> = Vec::new();
    results.resize_with(items.len(), || None);
    std::thread::scope(|s| {
        for (wi, out_chunk) in results.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (j, slot) in out_chunk.iter_mut().enumerate() {
                    let idx = wi * chunk + j;
                    *slot = Some(f(idx, &items[idx]));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("worker filled every result slot"))
        .collect()
}

fn eval_cq_set(
    storage: &dyn Storage,
    cq: &CQ,
    meter: &mut Meter,
    source: &mut PlanSource,
) -> RowSet {
    let slots: Vec<Slot> = cq.atoms().iter().map(|a| Slot::single(*a)).collect();
    eval_conjunction(storage, &slots, cq.head(), meter, source)
}

fn eval_ucq_set(
    storage: &dyn Storage,
    ucq: &obda_query::UCQ,
    meter: &mut Meter,
    source: &mut PlanSource,
) -> RowSet {
    eval_ucq_set_inner(storage, ucq, meter, source, true)
}

/// `track_arms` is false when the union is a JUCQ component: arm metrics
/// are a top-level-union contract (their deltas sum to the statement
/// totals), and component work interleaves with materialize/join work
/// that belongs to no arm.
fn eval_ucq_set_inner(
    storage: &dyn Storage,
    ucq: &obda_query::UCQ,
    meter: &mut Meter,
    source: &mut PlanSource,
    track_arms: bool,
) -> RowSet {
    let mut out = RowSet::new(ucq.head().len());
    for cq in ucq.cqs() {
        if track_arms {
            meter.begin_arm();
        }
        let rows = eval_cq_set(storage, cq, meter, source);
        meter.on_hash_build(rows.len() as u64);
        if track_arms {
            meter.end_arm(rows.len() as u64);
        }
        out.extend(rows);
    }
    out
}

fn eval_scq_set(
    storage: &dyn Storage,
    scq: &SCQ,
    meter: &mut Meter,
    source: &mut PlanSource,
) -> RowSet {
    eval_conjunction(storage, scq.slots(), scq.head(), meter, source)
}

fn eval_uscq_set(
    storage: &dyn Storage,
    uscq: &USCQ,
    meter: &mut Meter,
    source: &mut PlanSource,
) -> RowSet {
    eval_uscq_set_inner(storage, uscq, meter, source, true)
}

fn eval_uscq_set_inner(
    storage: &dyn Storage,
    uscq: &USCQ,
    meter: &mut Meter,
    source: &mut PlanSource,
    track_arms: bool,
) -> RowSet {
    let mut out = RowSet::new(uscq.head().len());
    for scq in uscq.scqs() {
        if track_arms {
            meter.begin_arm();
        }
        let rows = eval_scq_set(storage, scq, meter, source);
        meter.on_hash_build(rows.len() as u64);
        if track_arms {
            meter.end_arm(rows.len() as u64);
        }
        out.extend(rows);
    }
    out
}

fn eval_jucq_set(
    storage: &dyn Storage,
    jucq: &JUCQ,
    meter: &mut Meter,
    source: &mut PlanSource,
) -> RowSet {
    let relations: Vec<Relation> = jucq
        .components()
        .iter()
        .map(|c| {
            let set = eval_ucq_set_inner(storage, c, meter, source, false);
            materialize(c.head(), set, meter)
        })
        .collect();
    join_relations(relations, jucq.head(), meter)
}

fn eval_juscq_set(
    storage: &dyn Storage,
    juscq: &JUSCQ,
    meter: &mut Meter,
    source: &mut PlanSource,
) -> RowSet {
    let relations: Vec<Relation> = juscq
        .components()
        .iter()
        .map(|c| {
            let set = eval_uscq_set_inner(storage, c, meter, source, false);
            materialize(c.head(), set, meter)
        })
        .collect();
    join_relations(relations, juscq.head(), meter)
}

/// Materialize a component result (the `WITH sqlN AS (SELECT DISTINCT …)`
/// of §3): its row set, one column per head position.
fn materialize<'q>(head: &'q [Term], rows: RowSet, meter: &mut Meter) -> Relation<'q> {
    meter.on_materialize(rows.len() as u64);
    Relation { head, rows }
}

// ---------------------------------------------------------------------
// conjunction pipeline
// ---------------------------------------------------------------------

/// Evaluate a conjunction of disjunctive slots, projecting `head`. Each
/// step runs the physical operator recorded in the plan — freshly chosen
/// by the planner (inline mode) or replayed from a stored plan.
fn eval_conjunction(
    storage: &dyn Storage,
    slots: &[Slot],
    head: &[Term],
    meter: &mut Meter,
    source: &mut PlanSource,
) -> RowSet {
    if slots.is_empty() {
        // Empty body: true, the empty tuple (constants in head allowed).
        // No plan is consumed — prepare_plans_mode skips empty conjunctions
        // with the same rule, keeping the stored-plan cursor aligned.
        let row: Option<Row> = head
            .iter()
            .map(|t| match t {
                Term::Const(c) => Some(c.0),
                Term::Var(_) => None,
            })
            .collect();
        let mut out = RowSet::new(head.len());
        if let Some(r) = row {
            meter.on_hash_build(1);
            out.insert(&r);
        }
        return out;
    }

    let mode = source.mode();
    let inline_plan;
    let plan: &ConjunctionPlan = match source {
        PlanSource::Inline(strategy, mode) => {
            inline_plan = plan_conjunction_mode(
                slots,
                head,
                storage.stats(),
                storage.layout(),
                *strategy,
                *mode,
            );
            &inline_plan
        }
        PlanSource::Stored { plans, next, .. } => {
            let plan = plans
                .get(*next)
                .expect("stored plans exhausted before the query's conjunctions");
            *next += 1;
            plan
        }
    };

    if mode == ExecMode::Batched {
        return crate::columnar::run_plan(storage, slots, head, plan, meter);
    }

    // Bound-variable layout grows as slots execute.
    let mut var_pos: FxHashMap<VarId, usize> = FxHashMap::default();
    let mut rows: Vec<Row> = vec![Vec::new()];
    for step in &plan.steps {
        let slot = &slots[step.slot];
        // Canonical order in which this slot's new variables are appended
        // to rows. Slot atoms share one variable *set* but may list it in
        // different positional orders (e.g. r(x,y) ∨ r2(y,x)), so
        // extensions are keyed by variable, not by atom position.
        let mut new_var_order: Vec<VarId> = Vec::new();
        for v in slot.atoms()[0].vars() {
            if !var_pos.contains_key(&v) && !new_var_order.contains(&v) {
                new_var_order.push(v);
            }
        }
        let next = match step.op {
            // A row-mode run only ever sees `HashJoin`, but a plan is
            // data — accept both spellings so a batched plan replayed
            // through the row pipeline still executes correctly.
            PhysicalOp::HashJoin { .. } | PhysicalOp::BatchHashJoin { .. } => hash_join_step(
                storage,
                slot,
                &rows,
                &var_pos,
                &new_var_order,
                step.exists,
                meter,
            ),
            PhysicalOp::IndexNestedLoop(_) => inl_step(
                storage,
                slot,
                &rows,
                &var_pos,
                &new_var_order,
                step.exists,
                meter,
            ),
        };
        for v in new_var_order {
            let len = var_pos.len();
            var_pos.insert(v, len);
        }
        rows = next;
        if rows.is_empty() {
            break;
        }
    }

    // Project the head (every row has the same width).
    let mut out = RowSet::new(head.len());
    let width = rows.first().map_or(0, Vec::len);
    let Some(srcs) = head_sources(head, |v| var_pos.get(&v).copied().filter(|&p| p < width)) else {
        return out;
    };
    meter.on_hash_build(rows.len() as u64);
    let mut tuple = vec![0; head.len()];
    for row in &rows {
        fill_tuple(&mut tuple, &srcs, |p| row[p]);
        out.insert(&tuple);
    }
    out
}

/// One index-nested-loop step: per current row, probe/extend through each
/// atom of the slot (unbound atoms share one prescan). An existence step
/// keeps a row's first witness and skips the slot's remaining atoms for
/// that row.
fn inl_step(
    storage: &dyn Storage,
    slot: &Slot,
    rows: &[Row],
    var_pos: &FxHashMap<VarId, usize>,
    new_var_order: &[VarId],
    exists: bool,
    meter: &mut Meter,
) -> Vec<Row> {
    // Pre-scan unbound atoms once (shared across current rows).
    let prescans: Vec<Option<Prescan>> = slot
        .atoms()
        .iter()
        .map(|a| prescan_if_unbound(storage, a, var_pos, meter))
        .collect();
    let mut next: Vec<Row> = Vec::new();
    for row in rows {
        for (atom, prescan) in slot.atoms().iter().zip(&prescans) {
            let before = next.len();
            extend_row(
                storage,
                atom,
                prescan.as_ref(),
                row,
                var_pos,
                new_var_order,
                exists,
                meter,
                &mut next,
            );
            if exists && next.len() > before {
                break;
            }
        }
    }
    next
}

/// One hash-join step: scan each atom's extension once into a hash table
/// keyed on the already-bound slot variable, then probe every current
/// row. Equivalent to [`inl_step`] up to intermediate-row order (the
/// final result is a set, so order never shows).
///
/// The planner only emits hash joins for keyed *expansion* steps (≥ 1
/// bound variable AND ≥ 1 new variable — see `plan_conjunction`).
/// Because slot atoms share one variable set and an atom has at most
/// two positions, every hash-eligible slot consists of exactly
/// two-distinct-variable role atoms: one bound key variable, one new
/// variable, no constants. The build therefore inserts `u32 → u32`
/// straight from the scan callbacks, allocation-free per tuple — hash
/// joins must beat INL in wall time where the cost model says they do,
/// not just in work units. An existence step still builds the whole
/// table, but each probe emits at most one value.
fn hash_join_step(
    storage: &dyn Storage,
    slot: &Slot,
    rows: &[Row],
    var_pos: &FxHashMap<VarId, usize>,
    new_var_order: &[VarId],
    exists: bool,
    meter: &mut Meter,
) -> Vec<Row> {
    let key_vars: Vec<VarId> = slot
        .vars()
        .into_iter()
        .filter(|v| var_pos.contains_key(v))
        .collect();
    assert_eq!(key_vars.len(), 1, "hash join keys on one bound variable");
    assert_eq!(
        new_var_order.len(),
        1,
        "hash join steps bind exactly one new variable"
    );
    let key_var = key_vars[0];

    // Build side: key value → new-variable values, straight from the
    // scan callbacks. Atoms may list the shared variable set in either
    // positional order (r(x, y) ∨ r2(y, x)); both feed one table.
    let mut table: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    let mut inserted: u64 = 0;
    for atom in slot.atoms() {
        let Atom::Role(r, Term::Var(v1), Term::Var(v2)) = atom else {
            unreachable!("hash-eligible slots contain only two-variable role atoms")
        };
        let key_on_subject = *v1 == key_var;
        debug_assert!(
            key_on_subject || *v2 == key_var,
            "slot atom must use the key variable"
        );
        storage.for_each_role(*r, meter, &mut |s, o| {
            let (key, val) = if key_on_subject { (s, o) } else { (o, s) };
            inserted += 1;
            table.entry(key).or_default().push(val);
        });
    }
    meter.on_join_build(inserted);

    // Probe side: one lookup per current row.
    let key_pos = var_pos[&key_var];
    let mut next: Vec<Row> = Vec::new();
    for row in rows {
        meter.on_join_probe(1);
        if let Some(vals) = table.get(&row[key_pos]) {
            let vals = if exists { &vals[..1] } else { &vals[..] };
            for &val in vals {
                let mut rr = row.clone();
                rr.push(val);
                next.push(rr);
            }
        }
    }
    next
}

/// A materialized scan of an atom whose variables are all unbound.
enum Prescan {
    Concept(Vec<u32>),
    Role(Vec<(u32, u32)>),
}

fn prescan_if_unbound(
    storage: &dyn Storage,
    atom: &Atom,
    var_pos: &FxHashMap<VarId, usize>,
    meter: &mut Meter,
) -> Option<Prescan> {
    let term_bound = |t: &Term| match t {
        Term::Const(_) => true,
        Term::Var(v) => var_pos.contains_key(v),
    };
    match atom {
        Atom::Concept(c, t) if !term_bound(t) => {
            let mut v = Vec::new();
            storage.for_each_concept(*c, meter, &mut |x| v.push(x));
            Some(Prescan::Concept(v))
        }
        Atom::Role(r, t1, t2) if !term_bound(t1) && !term_bound(t2) => {
            let mut v = Vec::new();
            storage.for_each_role(*r, meter, &mut |s, o| v.push((s, o)));
            Some(Prescan::Role(v))
        }
        _ => None,
    }
}

/// Extend one row through one atom. New bindings are keyed by variable and
/// appended in `new_var_order`, so every atom of a slot emits rows with
/// identical column layout. An existence step emits at most one
/// extension: the first witness.
#[allow(clippy::too_many_arguments)]
fn extend_row(
    storage: &dyn Storage,
    atom: &Atom,
    prescan: Option<&Prescan>,
    row: &Row,
    var_pos: &FxHashMap<VarId, usize>,
    new_var_order: &[VarId],
    exists: bool,
    meter: &mut Meter,
    out: &mut Vec<Row>,
) {
    let limit = if exists { 1 } else { usize::MAX };
    let start = out.len();
    let resolve = |t: &Term| -> Option<u32> {
        match t {
            Term::Const(c) => Some(c.0),
            Term::Var(v) => var_pos.get(v).map(|&p| row[p]),
        }
    };
    // Append `bindings` (var → value pairs) to a copy of `row`, following
    // the slot's canonical new-variable order.
    let emit = |bindings: &[(VarId, u32)], out: &mut Vec<Row>| {
        if out.len() - start >= limit {
            return;
        }
        let mut rr = row.clone();
        for v in new_var_order {
            match bindings.iter().find(|(w, _)| w == v) {
                Some(&(_, val)) => rr.push(val),
                None => return, // atom doesn't bind a slot variable — bug guard
            }
        }
        out.push(rr);
    };
    match atom {
        Atom::Concept(c, t) => match resolve(t) {
            Some(val) => {
                if storage.probe_concept(*c, val, meter) {
                    out.push(row.clone());
                }
            }
            None => {
                let Some(Prescan::Concept(members)) = prescan else {
                    unreachable!("unbound concept atom must have a prescan")
                };
                let var = t.as_var().expect("unbound term is a variable");
                for &m in members.iter().take(limit) {
                    emit(&[(var, m)], out);
                }
            }
        },
        Atom::Role(r, t1, t2) => {
            let b1 = resolve(t1);
            let b2 = resolve(t2);
            match (b1, b2) {
                (Some(s), Some(o)) => {
                    if storage.probe_role(*r, s, o, meter) {
                        out.push(row.clone());
                    }
                }
                (Some(s), None) => {
                    let var = t2.as_var().expect("unbound term is a variable");
                    storage.role_objects(*r, s, meter, &mut |o| {
                        emit(&[(var, o)], out);
                    });
                }
                (None, Some(o)) => {
                    let var = t1.as_var().expect("unbound term is a variable");
                    storage.role_subjects(*r, o, meter, &mut |s| {
                        emit(&[(var, s)], out);
                    });
                }
                (None, None) => {
                    let Some(Prescan::Role(pairs)) = prescan else {
                        unreachable!("unbound role atom must have a prescan")
                    };
                    let v1 = t1.as_var().expect("unbound term is a variable");
                    let v2 = t2.as_var().expect("unbound term is a variable");
                    if v1 == v2 {
                        for &(s, _) in pairs.iter().filter(|(s, o)| s == o).take(limit) {
                            emit(&[(v1, s)], out);
                        }
                    } else {
                        for &(s, o) in pairs.iter().take(limit) {
                            emit(&[(v1, s), (v2, o)], out);
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// hash join of materialized components
// ---------------------------------------------------------------------

/// Join materialized component relations on shared variables (smallest
/// relation first) and project `head` with DISTINCT.
fn join_relations(mut relations: Vec<Relation>, head: &[Term], meter: &mut Meter) -> RowSet {
    if relations.len() == 1 {
        let rel = relations.pop().expect("one relation");
        return project_component(rel, head, meter);
    }
    relations.sort_by_key(|r| r.rows.len());
    // The join so far, row-major: `acc_len` rows of `acc_vars.len()`
    // values. It starts as the unit relation (one row, no columns).
    let mut acc_vars: Vec<VarId> = Vec::new();
    let mut acc: Vec<u32> = Vec::new();
    let mut acc_len = 1usize;
    let mut key: Vec<u32> = Vec::new();
    for rel in &relations {
        // Join columns as (acc column, rel column); a variable new to the
        // join contributes its first rel column, in head order.
        let width = acc_vars.len();
        let mut key_cols: Vec<(usize, usize)> = Vec::new();
        let mut new_cols: Vec<usize> = Vec::new();
        for (col, t) in rel.head.iter().enumerate() {
            let Term::Var(v) = *t else { continue };
            match acc_vars[..width].iter().position(|&w| w == v) {
                Some(a) => key_cols.push((a, col)),
                None if !acc_vars[width..].contains(&v) => {
                    acc_vars.push(v);
                    new_cols.push(col);
                }
                None => {}
            }
        }
        // Build: the distinct join keys, each heading a chain of the rel
        // rows that carry it (`first` per key, `next` per row).
        key.resize(key_cols.len(), 0);
        let mut keys = RowSet::with_capacity(key_cols.len(), rel.rows.len());
        let mut first: Vec<u32> = Vec::new();
        let mut next = vec![u32::MAX; rel.rows.len()];
        for (i, row) in rel.rows.iter().enumerate() {
            for (k, &(_, col)) in key.iter_mut().zip(&key_cols) {
                *k = row[col];
            }
            match keys.insert_full(&key) {
                (_, true) => first.push(i as u32),
                (k, false) => {
                    next[i] = first[k];
                    first[k] = i as u32;
                }
            }
        }
        meter.on_hash_build(rel.rows.len() as u64);
        // Probe: one lookup per accumulated row.
        meter.on_hash_probe(acc_len as u64);
        let mut joined: Vec<u32> = Vec::new();
        let mut joined_len = 0usize;
        for a in 0..acc_len {
            let arow = &acc[a * width..(a + 1) * width];
            for (k, &(col, _)) in key.iter_mut().zip(&key_cols) {
                *k = arow[col];
            }
            let Some(k) = keys.get_index_of(&key) else {
                continue;
            };
            let mut m = first[k];
            while m != u32::MAX {
                let mrow = rel.rows.row(m as usize);
                joined.extend_from_slice(arow);
                joined.extend(new_cols.iter().map(|&col| mrow[col]));
                joined_len += 1;
                m = next[m as usize];
            }
        }
        acc = joined;
        acc_len = joined_len;
        if acc_len == 0 {
            break;
        }
    }
    // DISTINCT projection.
    let mut out = RowSet::new(head.len());
    let Some(srcs) = head_sources(head, |v| acc_vars.iter().position(|&w| w == v)) else {
        return out;
    };
    meter.on_hash_build(acc_len as u64);
    let width = acc_vars.len();
    let mut tuple = vec![0; head.len()];
    for a in 0..acc_len {
        let arow = &acc[a * width..(a + 1) * width];
        fill_tuple(&mut tuple, &srcs, |p| arow[p]);
        out.insert(&tuple);
    }
    out
}

/// The join of one component: its rows projected onto `head`, booked as
/// [`join_relations`] would book them (build `n`, probe the unit row
/// once, project `n` joined rows). A head that is exactly the
/// component's columns in order takes the set as it is.
fn project_component(rel: Relation, head: &[Term], meter: &mut Meter) -> RowSet {
    let n = rel.rows.len() as u64;
    meter.on_hash_build(n);
    meter.on_hash_probe(1);
    let column = |v: VarId| rel.head.iter().position(|t| *t == Term::Var(v));
    let Some(srcs) = head_sources(head, column) else {
        return RowSet::new(head.len());
    };
    meter.on_hash_build(n);
    let identity = (0..rel.rows.arity()).map(HeadSrc::Col);
    if srcs.iter().copied().eq(identity) {
        return rel.rows;
    }
    let mut out = RowSet::new(head.len());
    let mut tuple = vec![0; head.len()];
    for row in rel.rows.iter() {
        fill_tuple(&mut tuple, &srcs, |p| row[p]);
        out.insert(&tuple);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::simple::SimpleStorage;
    use crate::layout::testutil::small_abox;
    use crate::profile::EngineProfile;
    use obda_dllite::{ConceptId, RoleId};
    use obda_query::UCQ;

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    fn run(q: FolQuery) -> Vec<Row> {
        run_with(q, JoinStrategy::CostChosen)
    }

    fn run_with(q: FolQuery, strategy: JoinStrategy) -> Vec<Row> {
        let (_, abox) = small_abox();
        let storage = SimpleStorage::load(&abox);
        let profile = EngineProfile::pg_like();
        let mut meter = Meter::new(&profile);
        let mut rows = execute_with(&storage, &q, &mut meter, strategy);
        rows.sort();
        rows
    }

    #[test]
    fn cq_join_through_shared_var() {
        // q(x, z) ← r(x, y) ∧ r(y, z): i0→i1→? no (i1 has no r-out);
        // actually r = {(0,1), (0,2), (3,2)}: paths 0→1→? none, 0→2→?
        // none, 3→2→? none. Use s = {(1,0)}: q(x, z) ← r(x,y) ∧ s(y,z):
        // (0,1)·(1,0) → (0, 0).
        let q = CQ::with_var_head(
            vec![VarId(0), VarId(2)],
            vec![
                Atom::Role(RoleId(0), v(0), v(1)),
                Atom::Role(RoleId(1), v(1), v(2)),
            ],
        );
        assert_eq!(run(FolQuery::Cq(q)), vec![vec![0, 0]]);
    }

    #[test]
    fn cq_with_concept_filter() {
        // q(x) ← A(x) ∧ r(x, y): A = {0, 1}; r subjects = {0, 3} → {0}.
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(ConceptId(0), v(0)),
                Atom::Role(RoleId(0), v(0), v(1)),
            ],
        );
        assert_eq!(run(FolQuery::Cq(q)), vec![vec![0]]);
    }

    #[test]
    fn self_join_same_variable() {
        // q(x) ← r(x, x): no reflexive pairs in the fixture.
        let q = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(0))]);
        assert!(run(FolQuery::Cq(q)).is_empty());
    }

    #[test]
    fn ucq_union_dedup() {
        // A(x) ∨ (x : subjects of r) = {0,1} ∪ {0,3} = {0,1,3}.
        let qa = CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(0), v(0))]);
        let qr = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(1))]);
        let u = UCQ::from_cqs(vec![v(0)], [qa, qr]);
        assert_eq!(run(FolQuery::Ucq(u)), vec![vec![0], vec![1], vec![3]]);
    }

    #[test]
    fn jucq_matches_flat_cq() {
        // JUCQ of {A(x)} ⋈ {r(x, y)} must equal the flat CQ answer.
        let flat = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(ConceptId(0), v(0)),
                Atom::Role(RoleId(0), v(0), v(1)),
            ],
        );
        let c1 = UCQ::single(CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(ConceptId(0), v(0))],
        ));
        let c2 = UCQ::single(CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Role(RoleId(0), v(0), v(1))],
        ));
        let j = JUCQ::new(vec![v(0)], vec![c1, c2]);
        assert_eq!(run(FolQuery::Jucq(j)), run(FolQuery::Cq(flat)));
    }

    /// A constant in a component head occupies a column of its own, so
    /// the variables after it are read from their own head positions —
    /// with one component and when joined with another.
    #[test]
    fn constant_in_component_head_keeps_columns_aligned() {
        let (mut voc, abox) = small_abox();
        let i3 = voc.individual("i3");
        let tagged = UCQ::single(CQ::new(
            vec![Term::Const(i3), v(0)],
            vec![Atom::Concept(ConceptId(0), v(0))],
        ));
        let r = UCQ::single(CQ::with_var_head(
            vec![VarId(0), VarId(1)],
            vec![Atom::Role(RoleId(0), v(0), v(1))],
        ));
        for (components, want) in [
            (vec![tagged.clone()], vec![vec![0], vec![1]]),
            (vec![tagged, r], vec![vec![0]]),
        ] {
            let q = FolQuery::Jucq(JUCQ::new(vec![v(0)], components));
            assert_eq!(crate::testkit::reference_rows(&abox, &q), want);
            assert_eq!(run(q), want);
        }
    }

    #[test]
    fn constants_restrict() {
        // q(x) ← r(x, i2): subjects {0, 3}.
        let (mut voc, _) = small_abox();
        let i2 = voc.individual("i2");
        let q = CQ::new(
            vec![v(0)],
            vec![Atom::Role(RoleId(0), v(0), Term::Const(i2))],
        );
        assert_eq!(run(FolQuery::Cq(q)), vec![vec![0], vec![3]]);
    }

    #[test]
    fn boolean_queries() {
        let yes = CQ::with_var_head(vec![], vec![Atom::Concept(ConceptId(0), v(0))]);
        assert_eq!(run(FolQuery::Cq(yes)), vec![Vec::<u32>::new()]);
        let no = CQ::with_var_head(vec![], vec![Atom::Concept(ConceptId(42), v(0))]);
        assert!(run(FolQuery::Cq(no)).is_empty());
    }

    #[test]
    fn scq_slot_disjunction() {
        use obda_query::{Slot, SCQ};
        // (A(x) ∨ B(x)): {0,1} ∪ {2}.
        let slot = Slot::new(vec![
            Atom::Concept(ConceptId(0), v(0)),
            Atom::Concept(ConceptId(1), v(0)),
        ]);
        let scq = SCQ::new(vec![v(0)], vec![slot]);
        assert_eq!(run(FolQuery::Scq(scq)), vec![vec![0], vec![1], vec![2]]);
    }

    /// Every fixture query answers identically under forced-INL,
    /// forced-hash, and cost-chosen execution (the per-crate smoke
    /// version of the workspace differential harness).
    #[test]
    fn physical_strategies_agree_on_fixture_queries() {
        use obda_query::{Slot, SCQ};
        let queries: Vec<FolQuery> = vec![
            FolQuery::Cq(CQ::with_var_head(
                vec![VarId(0), VarId(2)],
                vec![
                    Atom::Role(RoleId(0), v(0), v(1)),
                    Atom::Role(RoleId(1), v(1), v(2)),
                ],
            )),
            FolQuery::Cq(CQ::with_var_head(
                vec![VarId(0)],
                vec![
                    Atom::Concept(ConceptId(0), v(0)),
                    Atom::Role(RoleId(0), v(0), v(1)),
                ],
            )),
            FolQuery::Cq(CQ::with_var_head(
                vec![VarId(0)],
                vec![Atom::Role(RoleId(0), v(0), v(0))],
            )),
            FolQuery::Ucq(UCQ::from_cqs(
                vec![v(0)],
                [
                    CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(0), v(0))]),
                    CQ::with_var_head(
                        vec![VarId(0)],
                        vec![
                            Atom::Role(RoleId(0), v(0), v(1)),
                            Atom::Concept(ConceptId(1), v(1)),
                        ],
                    ),
                ],
            )),
            FolQuery::Scq(SCQ::new(
                vec![v(0)],
                vec![
                    Slot::new(vec![
                        Atom::Role(RoleId(0), v(0), v(1)),
                        Atom::Role(RoleId(1), v(1), v(0)),
                    ]),
                    Slot::single(Atom::Concept(ConceptId(0), v(0))),
                ],
            )),
            // Constant-keyed atoms: a constant makes a slot non-scan-stage
            // while giving a hash table nothing to key on — these must
            // plan (and run) as INL under every strategy, never panic
            // (regression: forced-hash used to hit unreachable!()).
            FolQuery::Cq(CQ::new(
                vec![v(1)],
                vec![Atom::Role(
                    RoleId(0),
                    Term::Const(obda_dllite::IndividualId(0)),
                    v(1),
                )],
            )),
            FolQuery::Cq(CQ::new(
                vec![v(0)],
                vec![
                    Atom::Concept(ConceptId(0), v(0)),
                    Atom::Role(RoleId(0), v(0), Term::Const(obda_dllite::IndividualId(2))),
                ],
            )),
        ];
        for q in queries {
            let inl = run_with(q.clone(), JoinStrategy::ForcedInl);
            let hash = run_with(q.clone(), JoinStrategy::ForcedHash);
            let chosen = run_with(q.clone(), JoinStrategy::CostChosen);
            assert_eq!(inl, hash, "INL vs hash on {q:?}");
            assert_eq!(inl, chosen, "INL vs cost-chosen on {q:?}");
        }
    }

    /// Forced-hash execution records join_build/join_probe work, and the
    /// per-arm deltas of a UCQ sum to the statement totals.
    #[test]
    fn hash_execution_is_metered_per_arm() {
        let (_, abox) = small_abox();
        let storage = SimpleStorage::load(&abox);
        let profile = EngineProfile::pg_like();
        let q = FolQuery::Ucq(UCQ::from_cqs(
            vec![v(0)],
            [
                CQ::with_var_head(
                    vec![VarId(0)],
                    vec![
                        Atom::Concept(ConceptId(0), v(0)),
                        Atom::Role(RoleId(0), v(0), v(1)),
                    ],
                ),
                CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(1), v(0))]),
            ],
        ));
        let mut meter = Meter::new(&profile);
        execute_with(&storage, &q, &mut meter, JoinStrategy::ForcedHash);
        assert!(
            meter.metrics.join_build > 0 && meter.metrics.join_probe > 0,
            "hash ops metered: {:?}",
            meter.metrics
        );
        assert_eq!(meter.arm_metrics.len(), 2);
        let mut sum = crate::metrics::ExecMetrics::default();
        for a in &meter.arm_metrics {
            sum.merge(a);
        }
        assert_eq!(sum.scanned, meter.metrics.scanned);
        assert_eq!(sum.index_probes, meter.metrics.index_probes);
        assert_eq!(sum.hash_build, meter.metrics.hash_build);
        assert_eq!(sum.join_build, meter.metrics.join_build);
        assert_eq!(sum.join_probe, meter.metrics.join_probe);
    }

    /// Cross-validation: the engine agrees with the reference evaluator on
    /// randomized queries and data — the engine's master correctness test.
    #[test]
    fn agrees_with_reference_evaluator() {
        use obda_query::eval_over_abox;
        use obda_query::testkit::{random_abox, random_connected_cq, KbShape, Rng};
        for seed in 0..40u64 {
            let mut rng = Rng::new(seed);
            let shape = KbShape::default();
            let (mut voc, _) = obda_query::testkit::random_tbox(&mut rng, &shape);
            let abox = random_abox(&mut rng, &mut voc, &shape);
            let storage = SimpleStorage::load(&abox);
            let profile = EngineProfile::pg_like();
            for n in 1..=4 {
                let cq = random_connected_cq(&mut rng, &voc, n, 2);
                let q = FolQuery::Cq(cq);
                let mut meter = Meter::new(&profile);
                let mut got: Vec<Row> = execute(&storage, &q, &mut meter);
                got.sort();
                let mut want: Vec<Row> = eval_over_abox(&abox, &q)
                    .into_iter()
                    .map(|row| row.into_iter().map(|i| i.0).collect())
                    .collect();
                want.sort();
                assert_eq!(got, want, "seed {seed}, atoms {n}");
            }
        }
    }
}
