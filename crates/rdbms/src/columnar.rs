//! The conjunction pipeline: batched columnar execution of one planned
//! conjunction.
//!
//! The intermediate relation is carried column-major (`Cols`): one flat
//! `Vec<u32>` per bound variable. Steps produce a *selection vector*
//! (input-row index per output row) plus the newly bound value columns,
//! then a chunked gather rebuilds the carried columns — no per-tuple
//! allocation anywhere in the pipeline, projection included. Leaves scan
//! storage through the block iterators ([`Storage::concept_blocks`] /
//! [`Storage::role_blocks`], blocks of [`BATCH_SIZE`] values), hash-join
//! probes and the DISTINCT projection process one block at a time, and
//! their meter hooks fire once per block with the tuple count instead of
//! once per tuple.
//!
//! Answers leave this module as a flat row set (`RowSet`): the
//! projection gathers each row's head values into one reused tuple
//! buffer and inserts it, so an answer is `arity` words in the set's one
//! buffer, not a heap vector of its own. The executor's unions and
//! component joins keep it in that form up to the API edge (see
//! [`crate::executor`]).
//!
//! **Meter contract.** The meter counts what a tuple-at-a-time run of
//! the same plan does, and the row oracle (`tests/row_oracle.rs`, a
//! tuple-at-a-time copy of the pipeline this one replaced) holds it to
//! that: identical answer sets AND identical meter totals. Every counter
//! is a sum of per-tuple contributions, so amortized per-block counting
//! changes nothing as long as (a) logical scans meter once with the same
//! tuple counts (the block iterators' contract), (b) scans happen in
//! plan order, atom by atom (the rescan discount is order-sensitive),
//! and (c) intermediate tuple *multiplicities* are those of the logical
//! plan (later probe counts multiply by them). The pipeline therefore
//! keeps the logical step structure — atom-order prescans, per-row
//! probes, no mid-pipeline dedup — and differs only in data
//! representation and counting granularity.
//!
//! **Existence steps** ([`crate::planner::PlanStep::exists`]) are part of
//! the contract: at most one extension per input row (the first witness
//! any atom of the slot finds), and a row an earlier atom witnessed is
//! not probed by the slot's later atoms. A tuple-at-a-time run walks
//! rows, then atoms; this module walks atoms, then rows. Skipping
//! witnessed rows makes both orders probe exactly the same (row, atom)
//! pairs: pair (i, j) is probed iff no atom before j witnessed row i. A
//! pipeline that probed every atom, or kept more than one witness, would
//! change (c) and with it every later count.

use obda_query::{Atom, Conjunct, Term, VarId};

use crate::executor::{fill_tuple, head_sources};
use crate::fxhash::FxHashMap;
use crate::layout::{Storage, BATCH_SIZE};
use crate::meter::Meter;
use crate::planner::{ConjunctionPlan, PhysicalOp};
use crate::rowset::RowSet;

/// A column-major intermediate relation: one value column per bound
/// variable (indexed by the executor's `var_pos` layout), all of length
/// `len`. The initial state is the unit relation: zero columns, one row.
struct Cols {
    cols: Vec<Vec<u32>>,
    len: usize,
}

impl Cols {
    fn unit() -> Self {
        Cols {
            cols: Vec::new(),
            len: 1,
        }
    }
}

/// Rebuild the carried columns through a selection vector and append the
/// newly bound columns. The gather walks one [`BATCH_SIZE`] chunk of the
/// selection at a time per column, keeping the working set block-sized.
fn gather(data: &Cols, sel: &[u32], new_cols: Vec<Vec<u32>>) -> Cols {
    let len = sel.len();
    let mut cols = Vec::with_capacity(data.cols.len() + new_cols.len());
    for col in &data.cols {
        let mut out = Vec::with_capacity(len);
        for chunk in sel.chunks(BATCH_SIZE) {
            out.extend(chunk.iter().map(|&i| col[i as usize]));
        }
        cols.push(out);
    }
    for c in new_cols {
        debug_assert_eq!(c.len(), len, "new columns align with the selection");
        cols.push(c);
    }
    Cols { cols, len }
}

/// Run one planned conjunction through the batched pipeline and project
/// `head` with DISTINCT.
pub(crate) fn run_plan<C: Conjunct>(
    storage: &dyn Storage,
    slots: &[C],
    head: &[Term],
    plan: &ConjunctionPlan,
    meter: &mut Meter,
) -> RowSet {
    let mut var_pos: FxHashMap<VarId, usize> = FxHashMap::default();
    let mut data = Cols::unit();
    for step in &plan.steps {
        let atoms = slots[step.slot].atoms();
        // Canonical order in which this slot's new variables become
        // columns. Slot atoms share one variable *set* but may list it in
        // different positional orders (e.g. r(x,y) ∨ r2(y,x)), so
        // extensions are keyed by variable, not by atom position.
        let mut new_var_order: Vec<VarId> = Vec::new();
        for v in atoms[0].vars() {
            if !var_pos.contains_key(&v) && !new_var_order.contains(&v) {
                new_var_order.push(v);
            }
        }
        data = match step.op {
            PhysicalOp::BatchHashJoin { .. } => hash_join_batch(
                storage,
                atoms,
                &data,
                &var_pos,
                &new_var_order,
                step.exists,
                meter,
            ),
            PhysicalOp::IndexNestedLoop(_) => inl_batch(
                storage,
                atoms,
                &data,
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
        if data.len == 0 {
            break;
        }
    }
    project(head, &var_pos, &data, meter)
}

/// Batched DISTINCT projection: resolve the head against the column
/// layout once, then gather each row into one reused tuple buffer and
/// insert it into the answer set, with one amortized `on_hash_build` per
/// block.
fn project(
    head: &[Term],
    var_pos: &FxHashMap<VarId, usize>,
    data: &Cols,
    meter: &mut Meter,
) -> RowSet {
    let mut out = RowSet::new(head.len());
    // An unresolvable head variable: every row is dropped, unmetered.
    let column = |v| var_pos.get(&v).copied().filter(|&p| p < data.cols.len());
    let Some(srcs) = head_sources(head, column) else {
        return out;
    };
    let mut tuple = vec![0; head.len()];
    let mut start = 0usize;
    while start < data.len {
        let end = (start + BATCH_SIZE).min(data.len);
        meter.on_hash_build((end - start) as u64);
        for i in start..end {
            fill_tuple(&mut tuple, &srcs, |p| data.cols[p][i]);
            out.insert(&tuple);
        }
        start = end;
    }
    out
}

/// A buffered block scan of an atom whose variables are all unbound,
/// filled from the block iterators.
enum Prescan {
    Concept(Vec<u32>),
    Role(Vec<u32>, Vec<u32>),
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
            let mut members = Vec::new();
            storage.concept_blocks(*c, meter, &mut |b| members.extend_from_slice(b));
            Some(Prescan::Concept(members))
        }
        Atom::Role(r, t1, t2) if !term_bound(t1) && !term_bound(t2) => {
            let (mut subs, mut objs) = (Vec::new(), Vec::new());
            storage.role_blocks(*r, meter, &mut |bs, bo| {
                subs.extend_from_slice(bs);
                objs.extend_from_slice(bo);
            });
            Some(Prescan::Role(subs, objs))
        }
        _ => None,
    }
}

/// The input rows an existence step has already witnessed. A
/// non-existence step never marks a row, so every row stays pending.
struct Witnesses(Option<Vec<bool>>);

impl Witnesses {
    fn new(exists: bool, rows: usize) -> Self {
        Witnesses(exists.then(|| vec![false; rows]))
    }

    fn pending(&self, i: usize) -> bool {
        self.0.as_ref().is_none_or(|seen| !seen[i])
    }

    fn mark(&mut self, i: usize) {
        if let Some(seen) = &mut self.0 {
            seen[i] = true;
        }
    }
}

/// Extend every pending input row with every tuple of a prescan, given
/// column-wise as `(new column, values)` parts of one length (a prefix of
/// one tuple for an existence step).
fn extend_pending(
    rows: usize,
    witnesses: &mut Witnesses,
    sel: &mut Vec<u32>,
    new_cols: &mut [Vec<u32>],
    parts: &[(usize, &[u32])],
) {
    let n = parts[0].1.len();
    for i in 0..rows {
        if !witnesses.pending(i) {
            continue;
        }
        sel.extend(std::iter::repeat_n(i as u32, n));
        for &(col, values) in parts {
            new_cols[col].extend_from_slice(values);
        }
        if n > 0 {
            witnesses.mark(i);
        }
    }
}

/// One index-nested-loop step over the column batch, over the slot's
/// `atoms`. Atom-major: per atom, every input row is probed/extended into
/// the shared selection + new-value columns (the output multiset — and
/// with it every later meter count — is that of a row-major loop; only
/// the intermediate order differs, which a set-semantics result never
/// observes).
///
/// An existence step keeps each row's first witness and skips rows an
/// earlier atom of the slot already witnessed — exactly the (row, atom)
/// pairs a row-major loop probes before it moves to the next row.
fn inl_batch(
    storage: &dyn Storage,
    atoms: &[Atom],
    data: &Cols,
    var_pos: &FxHashMap<VarId, usize>,
    new_var_order: &[VarId],
    exists: bool,
    meter: &mut Meter,
) -> Cols {
    // Prescans run once per atom, in atom order, before any per-row
    // work — the scan order the rescan discount depends on.
    let prescans: Vec<Option<Prescan>> = atoms
        .iter()
        .map(|a| prescan_if_unbound(storage, a, var_pos, meter))
        .collect();

    let limit = if exists { 1 } else { usize::MAX };
    let mut witnesses = Witnesses::new(exists, data.len);
    let mut sel: Vec<u32> = Vec::new();
    let mut new_cols: Vec<Vec<u32>> = vec![Vec::new(); new_var_order.len()];
    let value_of = |t: &Term, i: usize| -> Option<u32> {
        match t {
            Term::Const(c) => Some(c.0),
            Term::Var(v) => var_pos.get(v).map(|&p| data.cols[p][i]),
        }
    };

    for (atom, prescan) in atoms.iter().zip(&prescans) {
        match atom {
            Atom::Concept(c, t) => match prescan {
                None => {
                    // Bound term: a membership filter (the slot binds no
                    // new variable — slot atoms share one variable set).
                    debug_assert!(new_var_order.is_empty());
                    for i in 0..data.len {
                        if !witnesses.pending(i) {
                            continue;
                        }
                        let val = value_of(t, i).expect("filter term is bound");
                        if storage.probe_concept(*c, val, meter) {
                            sel.push(i as u32);
                            witnesses.mark(i);
                        }
                    }
                }
                Some(Prescan::Concept(members)) => {
                    debug_assert_eq!(new_var_order.len(), 1);
                    let members = &members[..members.len().min(limit)];
                    extend_pending(
                        data.len,
                        &mut witnesses,
                        &mut sel,
                        &mut new_cols,
                        &[(0, members)],
                    );
                }
                Some(Prescan::Role(..)) => unreachable!("concept atom prescans members"),
            },
            Atom::Role(r, t1, t2) => {
                let bound1 = matches!(t1, Term::Const(_))
                    || t1.as_var().is_some_and(|v| var_pos.contains_key(&v));
                let bound2 = matches!(t2, Term::Const(_))
                    || t2.as_var().is_some_and(|v| var_pos.contains_key(&v));
                match (bound1, bound2) {
                    (true, true) => {
                        debug_assert!(new_var_order.is_empty());
                        for i in 0..data.len {
                            if !witnesses.pending(i) {
                                continue;
                            }
                            let s = value_of(t1, i).expect("bound");
                            let o = value_of(t2, i).expect("bound");
                            if storage.probe_role(*r, s, o, meter) {
                                sel.push(i as u32);
                                witnesses.mark(i);
                            }
                        }
                    }
                    (true, false) | (false, true) => {
                        debug_assert_eq!(new_var_order.len(), 1);
                        let col = &mut new_cols[0];
                        for i in 0..data.len {
                            if !witnesses.pending(i) {
                                continue;
                            }
                            let before = sel.len();
                            let mut emit = |v: u32| {
                                if sel.len() - before < limit {
                                    sel.push(i as u32);
                                    col.push(v);
                                }
                            };
                            if bound1 {
                                let s = value_of(t1, i).expect("bound");
                                storage.role_objects(*r, s, meter, &mut emit);
                            } else {
                                let o = value_of(t2, i).expect("bound");
                                storage.role_subjects(*r, o, meter, &mut emit);
                            }
                            if sel.len() > before {
                                witnesses.mark(i);
                            }
                        }
                    }
                    (false, false) => {
                        let Some(Prescan::Role(psubs, pobjs)) = prescan else {
                            unreachable!("unbound role atom must have a prescan")
                        };
                        let v1 = t1.as_var().expect("unbound term is a variable");
                        let v2 = t2.as_var().expect("unbound term is a variable");
                        if v1 == v2 {
                            // Self-join r(x, x): keep only s == o pairs.
                            debug_assert_eq!(new_var_order.len(), 1);
                            let diagonal: Vec<u32> = psubs
                                .iter()
                                .zip(pobjs)
                                .filter(|(s, o)| s == o)
                                .map(|(&s, _)| s)
                                .take(limit)
                                .collect();
                            extend_pending(
                                data.len,
                                &mut witnesses,
                                &mut sel,
                                &mut new_cols,
                                &[(0, &diagonal)],
                            );
                        } else {
                            // Atoms may list the shared variable set in
                            // either order; bind by variable identity.
                            let p1 = new_var_order.iter().position(|v| *v == v1);
                            let p2 = new_var_order.iter().position(|v| *v == v2);
                            let (Some(p1), Some(p2)) = (p1, p2) else {
                                unreachable!("slot atoms share one variable set")
                            };
                            let n = psubs.len().min(limit);
                            extend_pending(
                                data.len,
                                &mut witnesses,
                                &mut sel,
                                &mut new_cols,
                                &[(p1, &psubs[..n]), (p2, &pobjs[..n])],
                            );
                        }
                    }
                }
            }
        }
    }
    gather(data, &sel, new_cols)
}

/// One vectorized hash-join step ([`PhysicalOp::BatchHashJoin`]) over
/// the slot's `atoms`: build the slot's extension into a key → values
/// table straight from the block scans (one amortized `on_join_build`),
/// then probe the bound key *column* one [`BATCH_SIZE`] block at a time
/// with one `on_join_probe` per block — per-row counting, amortized.
///
/// The planner only emits hash joins for keyed *expansion* steps (≥ 1
/// bound variable AND ≥ 1 new variable). Because slot atoms share one
/// variable set and an atom has at most two positions, every
/// hash-eligible slot consists of exactly two-distinct-variable role
/// atoms: one bound key variable, one new variable, no constants. An
/// existence step still builds the whole table, but each probe emits at
/// most one value.
fn hash_join_batch(
    storage: &dyn Storage,
    atoms: &[Atom],
    data: &Cols,
    var_pos: &FxHashMap<VarId, usize>,
    new_var_order: &[VarId],
    exists: bool,
    meter: &mut Meter,
) -> Cols {
    let mut key_vars = atoms[0].vars().filter(|v| var_pos.contains_key(v));
    let key_var = key_vars.next().expect("hash join keys on a bound variable");
    assert!(
        key_vars.all(|v| v == key_var),
        "hash join keys on one bound variable"
    );
    assert_eq!(
        new_var_order.len(),
        1,
        "hash join steps bind exactly one new variable"
    );

    let mut table: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    let mut inserted: u64 = 0;
    for atom in atoms {
        let Atom::Role(r, Term::Var(v1), Term::Var(v2)) = atom else {
            unreachable!("hash-eligible slots contain only two-variable role atoms")
        };
        let key_on_subject = *v1 == key_var;
        debug_assert!(
            key_on_subject || *v2 == key_var,
            "slot atom must use the key variable"
        );
        storage.role_blocks(*r, meter, &mut |bs, bo| {
            let (keys, vals) = if key_on_subject { (bs, bo) } else { (bo, bs) };
            inserted += keys.len() as u64;
            for (&k, &v) in keys.iter().zip(vals) {
                table.entry(k).or_default().push(v);
            }
        });
    }
    meter.on_join_build(inserted);

    let key_col = &data.cols[var_pos[&key_var]];
    let mut sel: Vec<u32> = Vec::new();
    let mut out_col: Vec<u32> = Vec::new();
    let mut start = 0usize;
    while start < data.len {
        let end = (start + BATCH_SIZE).min(data.len);
        meter.on_join_probe((end - start) as u64);
        for (i, key) in key_col[start..end].iter().enumerate() {
            if let Some(vals) = table.get(key) {
                let vals = if exists { &vals[..1] } else { &vals[..] };
                for &val in vals {
                    sel.push((start + i) as u32);
                    out_col.push(val);
                }
            }
        }
        start = end;
    }
    gather(data, &sel, vec![out_col])
}

#[cfg(test)]
mod tests {
    use obda_dllite::{ABox, ConceptId, IndividualId, RoleId, Vocabulary};
    use obda_query::{Atom, FolQuery, Slot, Term, VarId, CQ, JUCQ, SCQ, UCQ};

    use crate::executor::{execute, Row};
    use crate::layout::{dph::DphStorage, simple::SimpleStorage, triple::TripleStorage, Storage};
    use crate::meter::Meter;
    use crate::metrics::ExecMetrics;
    use crate::planner::{plan_conjunction, JoinStrategy, PhysicalOp};
    use crate::profile::EngineProfile;

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    fn layouts(abox: &ABox) -> Vec<(&'static str, Box<dyn Storage>)> {
        vec![
            ("simple", Box::new(SimpleStorage::load(abox))),
            ("triple", Box::new(TripleStorage::load(abox))),
            ("dph", Box::new(DphStorage::load(abox))),
        ]
    }

    /// Every join strategy, in the order [`per_strategy`] reports them.
    const STRATEGIES: [JoinStrategy; 3] = [
        JoinStrategy::ForcedInl,
        JoinStrategy::ForcedHash,
        JoinStrategy::CostChosen,
    ];

    /// Run `q` on one storage under every strategy, returning each
    /// strategy's sorted rows and counters in [`STRATEGIES`] order; the
    /// strategies must agree on the rows.
    fn per_strategy(
        storage: &dyn Storage,
        q: &FolQuery,
        ctx: &str,
    ) -> Vec<(Vec<Row>, ExecMetrics)> {
        let profile = EngineProfile::pg_like();
        let runs: Vec<(Vec<Row>, ExecMetrics)> = STRATEGIES
            .iter()
            .map(|&strategy| {
                let mut meter = Meter::new(&profile);
                let mut rows = execute(storage, q, &mut meter, strategy, None, 1);
                rows.sort();
                (rows, meter.metrics)
            })
            .collect();
        for (run, strategy) in runs.iter().zip(STRATEGIES) {
            assert_eq!(run.0, runs[0].0, "{ctx}/{strategy:?}: rows drifted");
        }
        runs
    }

    /// Existence fixture: `A` = x0..x9; `r` fans x0..x7 out to 100 objects
    /// each (x8 and x9 have none); `p` gives x0..x4 three objects each and
    /// `q` gives x3..x9 two each, so x3 and x4 have witnesses under both.
    fn witness_abox() -> ABox {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let (r, p, q) = (voc.role("r"), voc.role("p"), voc.role("q"));
        let xs: Vec<_> = (0..10).map(|i| voc.individual(&format!("x{i}"))).collect();
        let ys: Vec<_> = (0..100).map(|i| voc.individual(&format!("y{i}"))).collect();
        let mut abox = ABox::new();
        for (i, &x) in xs.iter().enumerate() {
            abox.assert_concept(a, x);
            let fan = |role, n| ys[..n].iter().map(move |&y| (role, y));
            let facts = fan(r, if i < 8 { 100 } else { 0 })
                .chain(fan(p, if i < 5 { 3 } else { 0 }))
                .chain(fan(q, if i >= 3 { 2 } else { 0 }));
            for (role, y) in facts {
                abox.assert_role(role, x, y);
            }
        }
        abox
    }

    fn a(t: Term) -> Atom {
        Atom::Concept(ConceptId(0), t)
    }

    fn role(id: u32, s: Term, o: Term) -> Atom {
        Atom::Role(RoleId(id), s, o)
    }

    /// `A(x) ∧ r(x, y)` projecting `x`, fan-out 100: the r step is an
    /// existence step, so each of the 8 witnessed rows is extended once and
    /// the DISTINCT projection inserts the 8 answers, not r's 800 pairs —
    /// under every strategy and layout. Probes stay one per row.
    #[test]
    fn existence_step_extends_each_input_row_once() {
        let abox = witness_abox();
        let q = FolQuery::Cq(CQ::with_var_head(
            vec![VarId(0)],
            vec![a(v(0)), role(0, v(0), v(1))],
        ));
        for (name, storage) in layouts(&abox) {
            let runs = per_strategy(storage.as_ref(), &q, name);
            for ((rows, m), strategy) in runs.iter().zip(STRATEGIES) {
                assert_eq!(rows.len(), 8, "{name}/{strategy:?}: answers");
                assert_eq!(m.hash_build, 8, "{name}/{strategy:?}: projection inserts");
            }
            assert_eq!(runs[0].1.index_probes, 10, "{name}: one r probe per A row");
        }
    }

    /// `A(x) ∧ (p(x, y) ∨ q(x, y))` projecting `x`: p witnesses x0..x4, so
    /// q is probed only for x5..x9 — 15 probes, not 20 — and x3, x4 (which
    /// have witnesses under both atoms) are extended once.
    #[test]
    fn existence_slot_skips_rows_an_earlier_atom_witnessed() {
        let abox = witness_abox();
        let q = FolQuery::Scq(SCQ::new(
            vec![v(0)],
            vec![
                Slot::single(a(v(0))),
                Slot::new(vec![role(1, v(0), v(1)), role(2, v(0), v(1))]),
            ],
        ));
        for (name, storage) in layouts(&abox) {
            let runs = per_strategy(storage.as_ref(), &q, name);
            for ((rows, m), strategy) in runs.iter().zip(STRATEGIES) {
                assert_eq!(rows.len(), 10, "{name}/{strategy:?}: answers");
                assert_eq!(m.hash_build, 10, "{name}/{strategy:?}: projection inserts");
            }
            assert_eq!(
                runs[0].1.index_probes,
                10 + 5,
                "{name}: witnessed rows skip q"
            );
        }
    }

    /// A hash-join existence step still builds the slot's whole extension,
    /// probes once per row, and emits at most one value per probe.
    #[test]
    fn existence_hash_step_builds_everything_and_emits_once() {
        let abox = witness_abox();
        let storage = SimpleStorage::load(&abox);
        let body = [a(v(0)), role(0, v(0), v(1))];
        let slots: Vec<Slot> = body.iter().map(|&at| Slot::single(at)).collect();
        let plan = plan_conjunction(
            &slots,
            &[v(0)],
            storage.stats(),
            storage.layout(),
            JoinStrategy::ForcedHash,
        );
        let r_step = &plan.steps[1];
        assert!(
            matches!(r_step.op, PhysicalOp::BatchHashJoin { .. }) && r_step.exists,
            "{r_step:?}"
        );
        let q = FolQuery::Cq(CQ::with_var_head(vec![VarId(0)], body.to_vec()));
        let (rows, m) = &per_strategy(&storage, &q, "hash")[1];
        assert_eq!(rows.len(), 8);
        assert_eq!((m.join_build, m.join_probe), (800, 10));
        assert_eq!(m.hash_build, 8, "one emitted value per matching probe");
    }

    /// `r(x, y)` projecting `y` binds a live and a dead variable in one
    /// step: it is not an existence step, and all 800 pairs reach the
    /// projection.
    #[test]
    fn step_binding_a_live_variable_enumerates_every_witness() {
        let abox = witness_abox();
        let storage = SimpleStorage::load(&abox);
        let slots = [Slot::single(role(0, v(0), v(1)))];
        for strategy in STRATEGIES {
            let plan =
                plan_conjunction(&slots, &[v(1)], storage.stats(), storage.layout(), strategy);
            assert!(!plan.steps[0].exists, "{strategy:?}");
        }
        let q = FolQuery::Cq(CQ::with_var_head(vec![VarId(1)], vec![role(0, v(0), v(1))]));
        for (rows, m) in per_strategy(&storage, &q, "live") {
            assert_eq!(rows.len(), 100);
            assert_eq!(m.hash_build, 800);
        }
    }

    /// A one-component JUCQ books what the general component join books:
    /// its component's own work plus `materialized += n`,
    /// `hash_build += 2n` (build the `n` component rows, project `n`
    /// joined rows) and `hash_probe += 1` (the unit row) — whether the
    /// component's set is handed over (the head is its columns), projected
    /// onto fewer columns, or read past a constant column.
    #[test]
    fn one_component_join_books_the_general_join() {
        let abox = witness_abox();
        let body = vec![a(v(0)), role(0, v(0), v(1))];
        let tag = Term::Const(IndividualId(0));
        let cases = [
            // (component head, JUCQ head, answers)
            (vec![v(0), v(1)], vec![v(0), v(1)], 800),
            (vec![v(0), v(1)], vec![v(1)], 100),
            (vec![tag, v(0)], vec![v(0)], 8),
            (vec![tag, v(0)], vec![v(0), tag], 8),
        ];
        for (comp_head, head, answers) in cases {
            let comp = UCQ::single(CQ::new(comp_head, body.clone()));
            let jucq = FolQuery::Jucq(JUCQ::new(head, vec![comp.clone()]));
            let want = crate::testkit::reference_rows(&abox, &jucq);
            assert_eq!(want.len(), answers, "{jucq:?}");
            for (name, storage) in layouts(&abox) {
                let ctx = format!("{name}: {jucq:?}");
                let alone = per_strategy(storage.as_ref(), &FolQuery::Ucq(comp.clone()), &ctx);
                let joined = per_strategy(storage.as_ref(), &jucq, &ctx);
                for ((rows, c), (got, j)) in alone.iter().zip(&joined) {
                    let n = rows.len() as u64;
                    assert_eq!(got, &want, "{ctx}");
                    assert_eq!(j.hash_build, c.hash_build + 2 * n, "{ctx}: hash_build");
                    assert_eq!(j.hash_probe, c.hash_probe + 1, "{ctx}: hash_probe");
                    assert_eq!(j.materialized, c.materialized + n, "{ctx}: materialized");
                    let same = ExecMetrics {
                        hash_build: c.hash_build,
                        hash_probe: c.hash_probe,
                        materialized: c.materialized,
                        output: c.output,
                        wall: c.wall,
                        ..*j
                    };
                    assert_eq!(&same, c, "{ctx}");
                }
            }
        }
    }

    /// A prescanned atom whose variables are all dead: a scan-stage step
    /// emits one tuple (a boolean CQ stops at its first witness) and a
    /// cartesian step emits one pair per input row. The prescans still
    /// meter the whole extent (`scanned`, forced INL, simple layout).
    #[test]
    fn dead_prescans_emit_one_witness() {
        let abox = witness_abox();
        let cases = [
            // ∃x. A(x): one scan-stage tuple.
            (vec![], vec![a(v(0))], 1, 1, 10.0),
            // ∃x,y. r(x, y): one scan-stage pair.
            (vec![], vec![role(0, v(0), v(1))], 1, 1, 800.0),
            // ∃x,y. A(x) ∧ r(x, y): one witness per A row that has one
            // (each probe still fetches its 100 results at 0.1).
            (vec![], vec![a(v(0)), role(0, v(0), v(1))], 1, 8, 90.0),
            // q(x) ← A(x) ∧ p(z, w): one p pair per A row.
            (
                vec![VarId(0)],
                vec![a(v(0)), role(1, v(2), v(3))],
                10,
                10,
                25.0,
            ),
        ];
        for (head, body, answers, inserts, scanned) in cases {
            let q = FolQuery::Cq(CQ::with_var_head(head, body));
            for (name, storage) in layouts(&abox) {
                let runs = per_strategy(storage.as_ref(), &q, name);
                for ((rows, m), strategy) in runs.iter().zip(STRATEGIES) {
                    let ctx = format!("{name}/{strategy:?}: {q:?}");
                    assert_eq!(rows.len(), answers, "{ctx}");
                    assert_eq!(m.hash_build, inserts, "{ctx}");
                }
                if name == "simple" {
                    assert!((runs[0].1.scanned - scanned).abs() < 1e-9, "{q:?}");
                }
            }
        }
    }
}
