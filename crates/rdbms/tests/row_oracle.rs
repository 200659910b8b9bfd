//! The executor's meter held to a tuple-at-a-time run of the same plans.
//!
//! `run_conjunction` below is the conjunction pipeline as it ran before
//! execution was batched: one heap row per intermediate tuple, and per
//! row and atom one probe or extension. It is written against the public
//! `Storage`, `Meter` and planner API and runs the product planner's
//! plans, so what it checks is execution. On random CQs and SCQs, under
//! every layout, join strategy and both engine profiles, the executor's
//! rows and all eight `ExecMetrics` counters must equal the oracle's.
//! `db2_like` discounts a rescan of a table, so the scans must also come
//! in the same order. Two fixed cases pin the batch-boundary extents and
//! a union with empty arms.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;

use obda_dllite::{ABox, ConceptId, IndividualId, RoleId, Vocabulary};
use obda_query::testkit::{
    random_abox, random_connected_cq, random_scq, random_tbox, KbShape, Rng,
};
use obda_query::{Atom, FolQuery, Slot, Term, VarId, CQ, SCQ, UCQ};
use obda_rdbms::layout::{dph::DphStorage, simple::SimpleStorage, triple::TripleStorage};
use obda_rdbms::planner::{plan_conjunction, PhysicalOp};
use obda_rdbms::{execute, EngineProfile, ExecMetrics, JoinStrategy, Meter, Row, Storage};

// ---------------------------------------------------------------------
// the oracle
// ---------------------------------------------------------------------

/// Plan `slots` with the product planner and run the plan a tuple at a
/// time, projecting `head` with DISTINCT.
fn run_conjunction(
    storage: &dyn Storage,
    slots: &[Slot],
    head: &[Term],
    strategy: JoinStrategy,
    meter: &mut Meter,
) -> BTreeSet<Row> {
    let mut out = BTreeSet::new();
    if slots.is_empty() {
        let row: Option<Row> = head
            .iter()
            .map(|t| match *t {
                Term::Const(c) => Some(c.0),
                Term::Var(_) => None,
            })
            .collect();
        if let Some(row) = row {
            meter.on_hash_build(1);
            out.insert(row);
        }
        return out;
    }
    let plan = plan_conjunction(slots, head, storage.stats(), storage.layout(), strategy);
    let mut var_pos: HashMap<VarId, usize> = HashMap::new();
    let mut rows: Vec<Row> = vec![Vec::new()];
    for step in &plan.steps {
        let slot = &slots[step.slot];
        let mut new_vars: Vec<VarId> = Vec::new();
        for v in slot.atoms()[0].vars() {
            if !var_pos.contains_key(&v) && !new_vars.contains(&v) {
                new_vars.push(v);
            }
        }
        let step_rows = Step {
            storage,
            var_pos: &var_pos,
            new_vars: &new_vars,
            exists: step.exists,
        };
        rows = match step.op {
            PhysicalOp::BatchHashJoin { .. } => step_rows.hash_join(slot, &rows, meter),
            PhysicalOp::IndexNestedLoop(_) => step_rows.inl(slot, &rows, meter),
        };
        for v in new_vars {
            let len = var_pos.len();
            var_pos.insert(v, len);
        }
        if rows.is_empty() {
            break;
        }
    }
    // Rows outlive the pipeline only when every step ran, so every head
    // variable has a column.
    meter.on_hash_build(rows.len() as u64);
    for row in &rows {
        let value = |t: &Term| match *t {
            Term::Const(c) => c.0,
            Term::Var(v) => row[var_pos[&v]],
        };
        out.insert(head.iter().map(value).collect());
    }
    out
}

/// One step of a tuple-at-a-time run: where the bound variables sit in
/// a row, and the slot's new variables in the order they are appended.
struct Step<'a> {
    storage: &'a dyn Storage,
    var_pos: &'a HashMap<VarId, usize>,
    new_vars: &'a [VarId],
    exists: bool,
}

impl Step<'_> {
    fn bound(&self, t: &Term, row: &Row) -> Option<u32> {
        match *t {
            Term::Const(c) => Some(c.0),
            Term::Var(v) => self.var_pos.get(&v).map(|&p| row[p]),
        }
    }

    /// Index nested loop: per row, per atom, a probe or an extension; an
    /// atom with no bound term is scanned once, before the first row.
    /// An existence step keeps a row's first witness and skips the
    /// slot's later atoms for that row.
    fn inl(&self, slot: &Slot, rows: &[Row], meter: &mut Meter) -> Vec<Row> {
        let free = |t: Term| t.as_var().is_some_and(|v| !self.var_pos.contains_key(&v));
        let prescans: Vec<Option<Vec<(u32, u32)>>> = slot
            .atoms()
            .iter()
            .map(|atom| {
                let unbound = atom.terms().all(free);
                let mut pairs = Vec::new();
                match *atom {
                    Atom::Concept(c, _) if unbound => {
                        self.storage
                            .for_each_concept(c, meter, &mut |x| pairs.push((x, x)))
                    }
                    Atom::Role(r, _, _) if unbound => {
                        self.storage
                            .for_each_role(r, meter, &mut |s, o| pairs.push((s, o)))
                    }
                    _ => return None,
                }
                Some(pairs)
            })
            .collect();
        let limit = if self.exists { 1 } else { usize::MAX };
        let mut next = Vec::new();
        for row in rows {
            for (atom, prescan) in slot.atoms().iter().zip(&prescans) {
                let mut found: Vec<Vec<(VarId, u32)>> = Vec::new();
                match (*atom, prescan) {
                    (Atom::Concept(c, t), None) => {
                        let x = self.bound(&t, row).expect("bound");
                        if self.storage.probe_concept(c, x, meter) {
                            found.push(Vec::new());
                        }
                    }
                    (Atom::Role(r, t1, t2), None) => {
                        match (self.bound(&t1, row), self.bound(&t2, row)) {
                            (Some(s), Some(o)) => {
                                if self.storage.probe_role(r, s, o, meter) {
                                    found.push(Vec::new());
                                }
                            }
                            (Some(s), None) => {
                                let v = t2.as_var().expect("unbound term is a variable");
                                self.storage
                                    .role_objects(r, s, meter, &mut |o| found.push(vec![(v, o)]));
                            }
                            (None, Some(o)) => {
                                let v = t1.as_var().expect("unbound term is a variable");
                                self.storage
                                    .role_subjects(r, o, meter, &mut |s| found.push(vec![(v, s)]));
                            }
                            (None, None) => unreachable!("an unbound atom is prescanned"),
                        }
                    }
                    (Atom::Concept(_, t), Some(pairs)) => {
                        let v = t.as_var().expect("unbound term is a variable");
                        found.extend(pairs.iter().map(|&(x, _)| vec![(v, x)]));
                    }
                    (Atom::Role(_, t1, t2), Some(pairs)) => {
                        let (v1, v2) = (t1.as_var().expect("var"), t2.as_var().expect("var"));
                        found.extend(
                            pairs
                                .iter()
                                .filter(|(s, o)| v1 != v2 || s == o)
                                .map(|&(s, o)| vec![(v1, s), (v2, o)]),
                        );
                    }
                }
                for bindings in found.iter().take(limit) {
                    next.push(self.extend(row, bindings));
                }
                if self.exists && !found.is_empty() {
                    break;
                }
            }
        }
        next
    }

    /// Hash join: build the slot's extension once, keyed on its one bound
    /// variable, then probe once per row.
    fn hash_join(&self, slot: &Slot, rows: &[Row], meter: &mut Meter) -> Vec<Row> {
        let key = slot.atoms()[0]
            .vars()
            .find(|v| self.var_pos.contains_key(v))
            .expect("a hash join keys on a bound variable");
        let mut table: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut inserted = 0;
        for atom in slot.atoms() {
            let Atom::Role(r, t1, _) = *atom else {
                unreachable!("hash-joined slots hold role atoms")
            };
            let key_on_subject = t1 == Term::Var(key);
            self.storage.for_each_role(r, meter, &mut |s, o| {
                let (k, v) = if key_on_subject { (s, o) } else { (o, s) };
                inserted += 1;
                table.entry(k).or_default().push(v);
            });
        }
        meter.on_join_build(inserted);
        let mut next = Vec::new();
        for row in rows {
            meter.on_join_probe(1);
            let k = row[self.var_pos[&key]];
            let vals = table.get(&k).map_or(&[][..], Vec::as_slice);
            let vals = if self.exists {
                &vals[..vals.len().min(1)]
            } else {
                vals
            };
            for &v in vals {
                next.push(self.extend(row, &[(self.new_vars[0], v)]));
            }
        }
        next
    }

    /// `row` with the slot's new variables appended from `bindings`.
    fn extend(&self, row: &Row, bindings: &[(VarId, u32)]) -> Row {
        let mut out = row.clone();
        for v in self.new_vars {
            let &(_, x) = bindings
                .iter()
                .find(|(w, _)| w == v)
                .expect("slot atoms share one variable set");
            out.push(x);
        }
        out
    }
}

/// A CQ's or SCQ's slots and head; `None` for the other dialects.
fn conjunction(q: &FolQuery) -> Option<(Vec<Slot>, &[Term])> {
    match q {
        FolQuery::Cq(cq) => Some((
            cq.atoms().iter().map(|a| Slot::single(*a)).collect(),
            cq.head(),
        )),
        FolQuery::Scq(scq) => Some((scq.slots().to_vec(), scq.head())),
        _ => None,
    }
}

/// A statement's rows and meter under the oracle: a CQ or SCQ, or a UCQ
/// whose arms run in order on one meter, each in its own arm scope.
fn oracle<'p>(
    storage: &dyn Storage,
    q: &FolQuery,
    strategy: JoinStrategy,
    profile: &'p EngineProfile,
) -> (Vec<Row>, Meter<'p>) {
    let mut meter = Meter::new(profile);
    let set = match q {
        FolQuery::Ucq(ucq) => {
            let mut set = BTreeSet::new();
            for cq in ucq.cqs() {
                meter.begin_arm();
                let arm = FolQuery::Cq(cq.clone());
                let (slots, head) = conjunction(&arm).expect("a CQ");
                let rows = run_conjunction(storage, &slots, head, strategy, &mut meter);
                meter.on_hash_build(rows.len() as u64);
                meter.end_arm(rows.len() as u64);
                set.extend(rows);
            }
            set
        }
        _ => {
            let (slots, head) = conjunction(q).expect("the oracle runs CQs, SCQs and UCQs");
            run_conjunction(storage, &slots, head, strategy, &mut meter)
        }
    };
    meter.metrics.output = set.len() as u64;
    (set.into_iter().collect(), meter)
}

/// The executor's sorted rows and meter.
fn product<'p>(
    storage: &dyn Storage,
    q: &FolQuery,
    strategy: JoinStrategy,
    profile: &'p EngineProfile,
) -> (Vec<Row>, Meter<'p>) {
    let mut meter = Meter::new(profile);
    let mut rows = execute(storage, q, &mut meter, strategy, None, 1);
    rows.sort();
    (rows, meter)
}

/// All eight work counters equal; `scanned` up to the reassociation of
/// its `f64` sum (per-block and per-tuple orders add the same terms).
fn assert_metrics_eq(got: &ExecMetrics, want: &ExecMetrics, ctx: &str) {
    let close = (got.scanned - want.scanned).abs() <= 1e-9 * (1.0 + want.scanned.abs());
    assert!(close, "{ctx}: scanned {} vs {}", got.scanned, want.scanned);
    let counts = |m: &ExecMetrics| {
        [
            m.index_probes,
            m.hash_build,
            m.hash_probe,
            m.join_build,
            m.join_probe,
            m.materialized,
            m.output,
        ]
    };
    assert_eq!(
        counts(got),
        counts(want),
        "{ctx}: [index_probes, hash_build, hash_probe, join_build, join_probe, materialized, output]"
    );
}

const STRATEGIES: [JoinStrategy; 3] = [
    JoinStrategy::ForcedInl,
    JoinStrategy::ForcedHash,
    JoinStrategy::CostChosen,
];

fn layouts(abox: &ABox) -> [(&'static str, Box<dyn Storage>); 3] {
    [
        ("simple", Box::new(SimpleStorage::load(abox))),
        ("triple", Box::new(TripleStorage::load(abox))),
        ("dph", Box::new(DphStorage::load(abox))),
    ]
}

/// `q` under every layout, strategy and both profiles: the executor's
/// rows and counters equal the oracle's. Returns the rows of the first
/// run.
fn assert_agrees(abox: &ABox, q: &FolQuery, ctx: &str) -> Vec<Row> {
    let mut first = None;
    for (name, storage) in layouts(abox) {
        for strategy in STRATEGIES {
            for profile in [EngineProfile::pg_like(), EngineProfile::db2_like()] {
                let ctx = format!("{ctx} {name}/{strategy:?}/{}: {q:?}", profile.name());
                let (rows, meter) = product(storage.as_ref(), q, strategy, &profile);
                let (want, oracle_meter) = oracle(storage.as_ref(), q, strategy, &profile);
                assert_eq!(rows, want, "{ctx}: rows");
                assert_metrics_eq(&meter.metrics, &oracle_meter.metrics, &ctx);
                first.get_or_insert(rows);
            }
        }
    }
    first.expect("at least one run")
}

// ---------------------------------------------------------------------
// random CQs and SCQs
// ---------------------------------------------------------------------

fn check_case(seed: u64) {
    let mut rng = Rng::new(seed);
    let shape = KbShape {
        num_individuals: 4 + rng.below(30),
        num_facts: rng.below(200),
        ..KbShape::default()
    };
    let (mut voc, _) = random_tbox(&mut rng, &shape);
    let abox = random_abox(&mut rng, &mut voc, &shape);
    let atoms = 1 + rng.below(4);
    let boolean = rng.chance(0.1);
    let q = if rng.chance(0.5) {
        let cq = random_connected_cq(&mut rng, &voc, atoms, 2);
        let head = if boolean {
            Vec::new()
        } else {
            cq.head().to_vec()
        };
        FolQuery::Cq(CQ::new(head, cq.atoms().to_vec()))
    } else {
        let scq = random_scq(&mut rng, &voc, atoms);
        let head = if boolean {
            Vec::new()
        } else {
            scq.head().to_vec()
        };
        FolQuery::Scq(SCQ::new(head, scq.slots().to_vec()))
    };
    assert_agrees(&abox, &q, &format!("seed {seed}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random KBs, CQs and SCQs (constants, self-joins, existence steps
    /// and boolean heads included).
    #[test]
    fn executor_meters_what_the_row_oracle_meters(seed in 0u64..1_000_000) {
        check_case(seed);
    }
}

// ---------------------------------------------------------------------
// fixed cases
// ---------------------------------------------------------------------

fn v(i: u32) -> Term {
    Term::Var(VarId(i))
}

/// A KB whose extents straddle the batch boundary: concept `A` has
/// `n` members, role `r` has `n` pairs fanning into 7 objects.
fn boundary_abox(n: u32) -> ABox {
    let mut voc = Vocabulary::new();
    let a = voc.concept("A");
    voc.concept("B"); // stays empty
    let r = voc.role("r");
    voc.role("s"); // stays empty
    let inds: Vec<_> = (0..n).map(|k| voc.individual(&format!("i{k}"))).collect();
    let mut abox = ABox::new();
    for &i in &inds {
        abox.assert_concept(a, i);
        abox.assert_role(r, i, IndividualId(i.0 % 7));
    }
    abox
}

/// Extents of exactly BATCH_SIZE−1 / BATCH_SIZE / BATCH_SIZE+1 rows: the
/// block iterators emit a final partial block, one exact block, and a
/// full-plus-one split. A pure scan and a join straddling the edge
/// agree with the oracle on rows and counters.
#[test]
fn batch_boundary_extents_agree_with_the_oracle() {
    assert_eq!(
        obda_rdbms::layout::BATCH_SIZE,
        1024,
        "test pins the block size"
    );
    let scan = FolQuery::Cq(CQ::with_var_head(
        vec![VarId(0)],
        vec![Atom::Concept(ConceptId(0), v(0))],
    ));
    let join = FolQuery::Cq(CQ::with_var_head(
        vec![VarId(0), VarId(1)],
        vec![
            Atom::Concept(ConceptId(0), v(0)),
            Atom::Role(RoleId(0), v(0), v(1)),
        ],
    ));
    for n in [1023u32, 1024, 1025] {
        let abox = boundary_abox(n);
        for (name, q) in [("scan", &scan), ("join", &join)] {
            let got = assert_agrees(&abox, q, &format!("{name} n={n}"));
            assert_eq!(got.len(), n as usize, "{name} n={n}: row count");
        }
    }
}

/// A union interleaving empty arms (empty concept, empty role join)
/// between populated ones: empty column batches pass through gather and
/// projection without skewing a counter. Each arm's delta equals the
/// oracle's, and the deltas sum to the statement totals.
#[test]
fn empty_batches_between_union_arms_agree_with_the_oracle() {
    let abox = boundary_abox(1500);
    let arms = [
        // Empty: concept B has no members.
        CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(1), v(0))]),
        // Populated: 1500 members of A.
        CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(0), v(0))]),
        // Empty again: role s has no pairs, so the join yields nothing.
        CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(ConceptId(0), v(0)),
                Atom::Role(RoleId(1), v(0), v(1)),
            ],
        ),
        // Populated join crossing the batch boundary.
        CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(ConceptId(0), v(0)),
                Atom::Role(RoleId(0), v(0), v(1)),
            ],
        ),
    ];
    let q = FolQuery::Ucq(UCQ::from_cqs(vec![v(0)], arms));
    let got = assert_agrees(&abox, &q, "union");
    assert_eq!(got.len(), 1500, "distinct union size");
    for (name, storage) in layouts(&abox) {
        for strategy in STRATEGIES {
            let profile = EngineProfile::pg_like();
            let ctx = format!("union {name}/{strategy:?}");
            let (_, meter) = product(storage.as_ref(), &q, strategy, &profile);
            let (_, want) = oracle(storage.as_ref(), &q, strategy, &profile);
            assert_eq!(meter.arm_metrics.len(), 4, "{ctx}: one delta per union arm");
            assert_eq!(meter.arm_metrics[0].output, 0, "{ctx}: empty concept arm");
            assert_eq!(meter.arm_metrics[2].output, 0, "{ctx}: empty join arm");
            for (i, (arm, oracle_arm)) in
                meter.arm_metrics.iter().zip(&want.arm_metrics).enumerate()
            {
                assert_metrics_eq(arm, oracle_arm, &format!("{ctx} arm {i}"));
            }
            let mut sum = ExecMetrics::default();
            for arm in &meter.arm_metrics {
                sum.merge(arm);
            }
            sum.output = meter.metrics.output;
            assert_metrics_eq(
                &sum,
                &meter.metrics,
                &format!("{ctx}: arm deltas sum to totals"),
            );
        }
    }
}
