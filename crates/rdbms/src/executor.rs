//! The query executor: evaluates any Table-4 dialect over a [`Storage`].
//!
//! [`execute`] is its one entry point. Execution strategy mirrors what the
//! paper's SQL translations make the RDBMS do:
//!
//! * each CQ (or SCQ) runs as a left-deep pipeline of columnar batches
//!   ([`crate::columnar`]) whose steps are either **index-nested-loop**
//!   probes or **hash joins** (build the slot's extension once, probe per
//!   intermediate row), as chosen per step by the planner's
//!   [`JoinStrategy`]. A CQ runs over its atoms in place, an SCQ over its
//!   slots: the pipeline is generic over the planner's [`Conjunct`];
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
//! of [`execute`]. The component join carries its intermediate rows in
//! one flat `Vec<u32>` and indexes the build side by distinct key with
//! row chains, so no row is cloned.
//!
//! **A one-component join is its component.** Eight of the nine light
//! LUBM shapes are one-component JUCQs. Their join is an identity: the
//! component's set is projected onto the head, or handed over unchanged
//! when the head is exactly its columns in order. The meter still books
//! what the logical plan does — `hash_build += 2n` (build the component's
//! `n` rows, project `n` joined rows) and `hash_probe += 1` (the unit
//! row) — so EXPLAIN ANALYZE and cost accounting do not see the shortcut.

use std::time::Instant;

use obda_query::{Atom, FolQuery, Slot, Term, VarId, CQ, SCQ, UCQ, USCQ};

use crate::layout::{LayoutKind, Storage};
use crate::meter::Meter;
use crate::planner::{
    plan_conjunction, Conjunct, ConjunctionPlan, ExecMode, JoinStrategy, PlanBuf,
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

/// A conjunction the executor runs: a CQ over its atoms, or an SCQ over
/// its slots.
trait Conjunction: Sync {
    type Conjunct: Conjunct;
    fn body(&self) -> &[Self::Conjunct];
    fn head(&self) -> &[Term];
}

impl Conjunction for CQ {
    type Conjunct = Atom;
    fn body(&self) -> &[Atom] {
        self.atoms()
    }
    fn head(&self) -> &[Term] {
        CQ::head(self)
    }
}

impl Conjunction for SCQ {
    type Conjunct = Slot;
    fn body(&self) -> &[Slot] {
        self.slots()
    }
    fn head(&self) -> &[Term] {
        SCQ::head(self)
    }
}

/// A union of conjunctions: a UCQ, or a USCQ.
trait Union: Sync {
    type Arm: Conjunction;
    fn arms(&self) -> &[Self::Arm];
    fn head(&self) -> &[Term];
}

impl Union for UCQ {
    type Arm = CQ;
    fn arms(&self) -> &[CQ] {
        self.cqs()
    }
    fn head(&self) -> &[Term] {
        UCQ::head(self)
    }
}

impl Union for USCQ {
    type Arm = SCQ;
    fn arms(&self) -> &[SCQ] {
        self.scqs()
    }
    fn head(&self) -> &[Term] {
        USCQ::head(self)
    }
}

/// The operator-annotated plans of every conjunction in a statement, in
/// executor traversal order — the cacheable artifact of the serving
/// layer's plan cache. Produced by [`prepare_plans`], replayed by
/// [`execute`]: a repeated query skips `plan_conjunction` entirely.
#[derive(Debug, Clone)]
pub struct PreparedPlans {
    /// The strategy the plans were produced under (recorded so cached
    /// entries can be audited; execution follows the stored ops directly).
    pub strategy: JoinStrategy,
    /// Always [`ExecMode::Batched`] and read by nothing: kept only until
    /// the benchmark package stops naming it.
    pub mode: ExecMode,
    /// One plan per *non-empty* conjunction, in the order the executor
    /// visits them (CQ; UCQ arms; SCQ; USCQ arms; JUCQ/JUSCQ components'
    /// arms, component-major). Empty-body conjunctions plan nothing.
    pub plans: Vec<ConjunctionPlan>,
}

/// Plan every conjunction of `q` in executor traversal order, without
/// executing anything; [`execute`] replays the result, so the walk order
/// here and the executor's traversal must stay in lockstep.
pub fn prepare_plans(
    q: &FolQuery,
    stats: &CatalogStats,
    layout: LayoutKind,
    strategy: JoinStrategy,
) -> PreparedPlans {
    struct Prep<'a> {
        stats: &'a CatalogStats,
        layout: LayoutKind,
        strategy: JoinStrategy,
        buf: PlanBuf,
        plans: Vec<ConjunctionPlan>,
    }
    impl Prep<'_> {
        fn add<C: Conjunction>(&mut self, c: &C) {
            if !c.body().is_empty() {
                self.buf
                    .plan(c.body(), c.head(), self.stats, self.layout, self.strategy);
                self.plans.push(ConjunctionPlan {
                    steps: self.buf.steps.to_vec(),
                });
            }
        }
        fn add_union<U: Union>(&mut self, u: &U) {
            u.arms().iter().for_each(|a| self.add(a));
        }
    }
    let mut p = Prep {
        stats,
        layout,
        strategy,
        buf: PlanBuf::default(),
        plans: Vec::new(),
    };
    match q {
        FolQuery::Cq(cq) => p.add(cq),
        FolQuery::Scq(scq) => p.add(scq),
        FolQuery::Ucq(ucq) => p.add_union(ucq),
        FolQuery::Uscq(uscq) => p.add_union(uscq),
        FolQuery::Jucq(jucq) => jucq.components().iter().for_each(|c| p.add_union(c)),
        FolQuery::Juscq(juscq) => juscq.components().iter().for_each(|c| p.add_union(c)),
    }
    PreparedPlans {
        strategy,
        mode: ExecMode::Batched,
        plans: p.plans,
    }
}

/// Where each conjunction's plan comes from during one execution.
#[derive(Clone, Copy)]
enum PlanSource<'a> {
    /// Plan on the fly.
    Inline(JoinStrategy),
    /// Replay stored plans in traversal order (the plan-cache hot path).
    Stored {
        plans: &'a [ConjunctionPlan],
        next: usize,
    },
}

impl<'a> PlanSource<'a> {
    /// One source per parallel unit (union arm or join component), unit
    /// `i` owning the next `counts[i]` stored plans.
    fn split(&mut self, counts: impl Iterator<Item = usize>) -> Vec<PlanSource<'a>> {
        match self {
            PlanSource::Inline(strategy) => counts.map(|_| PlanSource::Inline(*strategy)).collect(),
            PlanSource::Stored { plans, next } => counts
                .map(|n| {
                    let unit = &plans[*next..*next + n];
                    *next += n;
                    PlanSource::Stored {
                        plans: unit,
                        next: 0,
                    }
                })
                .collect(),
        }
    }
}

/// Evaluate any FOL query, returning the deduplicated result rows (one
/// per head tuple). Conjunctions replay `prepared` when given — the plans
/// must have been prepared for this exact query shape, and a shape
/// mismatch panics rather than silently misplanning — and are planned
/// under `strategy` otherwise.
///
/// With `threads > 1` the independent units of `q` fan out across up to
/// `threads` OS threads: the arms of a top-level UCQ/USCQ, or the
/// components of a JUCQ/JUSCQ. Each worker owns a private [`Meter`];
/// deltas are merged into `meter` in arm/component index order, so merged
/// totals and `arm_metrics` are deterministic and the
/// arm-sums-equal-totals invariant holds exactly as in sequential
/// execution. Worker meters never share scan state, so the profile's
/// cross-arm rescan discount does not apply under the parallel path (a
/// non-issue for discount-free profiles like pg-like; under db2-like,
/// parallel totals conservatively price every arm's first scan at full
/// cost).
pub fn execute(
    storage: &dyn Storage,
    q: &FolQuery,
    meter: &mut Meter,
    strategy: JoinStrategy,
    prepared: Option<&PreparedPlans>,
    threads: usize,
) -> Vec<Row> {
    let mut source = match prepared {
        Some(p) => PlanSource::Stored {
            plans: &p.plans,
            next: 0,
        },
        None => PlanSource::Inline(strategy),
    };
    let src = &mut source;
    let set = match q {
        FolQuery::Cq(cq) => eval_conjunction(storage, cq, meter, src),
        FolQuery::Scq(scq) => eval_conjunction(storage, scq, meter, src),
        FolQuery::Ucq(ucq) => eval_union(storage, ucq, meter, src, threads, true),
        FolQuery::Uscq(uscq) => eval_union(storage, uscq, meter, src, threads, true),
        FolQuery::Jucq(j) => eval_join(storage, j.components(), j.head(), meter, src, threads),
        FolQuery::Juscq(j) => eval_join(storage, j.components(), j.head(), meter, src, threads),
    };
    if let PlanSource::Stored { plans, next } = source {
        assert_eq!(
            next,
            plans.len(),
            "prepared plan count must match the query's conjunction count"
        );
    }
    meter.metrics.output = set.len() as u64;
    set.into_rows()
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

/// A union's rows: its arms' sets, each booked as inserted into the
/// union (`on_hash_build`). `track_arms` is false when the union is a
/// JUCQ component: arm metrics are a top-level-union contract (their
/// deltas sum to the statement totals), and component work interleaves
/// with materialize/join work that belongs to no arm. Arms fan out over
/// `threads` workers when there is more than one.
fn eval_union<U: Union>(
    storage: &dyn Storage,
    union: &U,
    meter: &mut Meter,
    source: &mut PlanSource,
    threads: usize,
    track_arms: bool,
) -> RowSet {
    let mut out = RowSet::new(union.head().len());
    if threads <= 1 {
        for arm in union.arms() {
            if track_arms {
                meter.begin_arm();
            }
            let rows = eval_conjunction(storage, arm, meter, source);
            meter.on_hash_build(rows.len() as u64);
            if track_arms {
                meter.end_arm(rows.len() as u64);
            }
            out.extend(rows);
        }
        return out;
    }
    let sources = source.split(
        union
            .arms()
            .iter()
            .map(|a| usize::from(!a.body().is_empty())),
    );
    let profile = meter.profile();
    let results = fan_out(union.arms(), threads, |i, arm| {
        let arm_started = Instant::now();
        let mut wm = Meter::new(profile);
        let mut src = sources[i];
        let rows = eval_conjunction(storage, arm, &mut wm, &mut src);
        wm.on_hash_build(rows.len() as u64);
        let mut delta = wm.metrics;
        delta.output = rows.len() as u64;
        delta.wall = arm_started.elapsed();
        (rows, delta)
    });
    for (rows, delta) in results {
        meter.merge_arm(delta);
        out.extend(rows);
    }
    out
}

/// A JUCQ or JUSCQ: materialize each component, then join them. The
/// components fan out over `threads` workers when there is more than one.
fn eval_join<U: Union>(
    storage: &dyn Storage,
    components: &[U],
    head: &[Term],
    meter: &mut Meter,
    source: &mut PlanSource,
    threads: usize,
) -> RowSet {
    let relations: Vec<Relation> = if threads <= 1 {
        components
            .iter()
            .map(|c| {
                let set = eval_union(storage, c, meter, source, 1, false);
                materialize(c.head(), set, meter)
            })
            .collect()
    } else {
        let sources = source.split(
            components
                .iter()
                .map(|c| c.arms().iter().filter(|a| !a.body().is_empty()).count()),
        );
        let profile = meter.profile();
        let results = fan_out(components, threads, |i, c| {
            let mut wm = Meter::new(profile);
            let mut src = sources[i];
            let set = eval_union(storage, c, &mut wm, &mut src, 1, false);
            (materialize(c.head(), set, &mut wm), wm.metrics)
        });
        results
            .into_iter()
            .map(|(rel, delta)| {
                meter.merge_unattributed(&delta);
                rel
            })
            .collect()
    };
    join_relations(relations, head, meter)
}

/// Materialize a component result (the `WITH sqlN AS (SELECT DISTINCT …)`
/// of §3): its row set, one column per head position.
fn materialize<'q>(head: &'q [Term], rows: RowSet, meter: &mut Meter) -> Relation<'q> {
    meter.on_materialize(rows.len() as u64);
    Relation { head, rows }
}

/// Evaluate one conjunction, projecting its head, through the batched
/// pipeline ([`crate::columnar::run_plan`]) under the plan the source
/// gives: freshly chosen by the planner, or replayed from a stored plan.
fn eval_conjunction<C: Conjunction>(
    storage: &dyn Storage,
    c: &C,
    meter: &mut Meter,
    source: &mut PlanSource,
) -> RowSet {
    let (body, head) = (c.body(), c.head());
    if body.is_empty() {
        // Empty body: true, the empty tuple (constants in head allowed).
        // No plan is consumed — prepare_plans skips empty conjunctions
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
    let inline_plan;
    let plan: &ConjunctionPlan = match source {
        PlanSource::Inline(strategy) => {
            inline_plan =
                plan_conjunction(body, head, storage.stats(), storage.layout(), *strategy);
            &inline_plan
        }
        PlanSource::Stored { plans, next } => {
            let plan = plans
                .get(*next)
                .expect("stored plans exhausted before the query's conjunctions");
            *next += 1;
            plan
        }
    };
    crate::columnar::run_plan(storage, body, head, plan, meter)
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
    use obda_query::JUCQ;

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
        let mut rows = execute(&storage, &q, &mut meter, strategy, None, 1);
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
        execute(&storage, &q, &mut meter, JoinStrategy::ForcedHash, None, 1);
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
                let mut got: Vec<Row> =
                    execute(&storage, &q, &mut meter, JoinStrategy::CostChosen, None, 1);
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
