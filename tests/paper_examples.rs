//! Integration tests encoding the paper's running examples end to end,
//! across all workspace layers (parser → reasoning → reformulation →
//! covers → engine).

use obda::core::{is_safe, root_cover, QueryAnalysis};
use obda::dllite::{Dependencies, TBoxClosure};
use obda::prelude::*;
use obda::query::minimize_ucq;
use obda::reform::cover_reformulation;

const EXAMPLE1_KB: &str = r#"
PhDStudent <= Researcher                     # (T1)
exists worksWith <= Researcher               # (T2)
exists worksWith- <= Researcher              # (T3)
role worksWith <= worksWith-                 # (T4)
role supervisedBy <= worksWith               # (T5)
exists supervisedBy <= PhDStudent            # (T6)
PhDStudent <= not exists supervisedBy-       # (T7)
worksWith(Ioana, Francois)                   # (A1)
supervisedBy(Damian, Ioana)                  # (A2)
supervisedBy(Damian, Francois)               # (A3)
"#;

fn example1() -> KnowledgeBase {
    KnowledgeBase::parse(EXAMPLE1_KB).expect("valid document")
}

fn example3_query(kb: &KnowledgeBase) -> CQ {
    let phd = kb.voc().find_concept("PhDStudent").unwrap();
    let works = kb.voc().find_role("worksWith").unwrap();
    CQ::with_var_head(
        vec![VarId(0)],
        vec![
            Atom::Concept(phd, Term::Var(VarId(0))),
            Atom::Role(works, Term::Var(VarId(1)), Term::Var(VarId(0))),
        ],
    )
}

/// Example 2: entailments of the Example-1 KB.
#[test]
fn example2_entailments() {
    let kb = example1();
    let closure = TBoxClosure::compute(kb.tbox());
    let sup = kb.voc().find_role("supervisedBy").unwrap();
    // K |= ∃supervisedBy ⊑ ¬∃supervisedBy⁻.
    assert!(closure.entails_concept_disjointness(
        BasicConcept::Exists(Role::direct(sup)),
        BasicConcept::Exists(Role::inv(sup)),
    ));
    // Assertion entailments via the chase.
    let inst = kb.chase(3);
    let works = kb.voc().find_role("worksWith").unwrap();
    let phd = kb.voc().find_concept("PhDStudent").unwrap();
    let francois = kb.voc().find_individual("Francois").unwrap();
    let ioana = kb.voc().find_individual("Ioana").unwrap();
    let damian = kb.voc().find_individual("Damian").unwrap();
    use obda::dllite::{ChaseFact, ChaseTerm};
    assert!(inst.contains(&ChaseFact::Role(
        works,
        ChaseTerm::Const(francois),
        ChaseTerm::Const(ioana)
    )));
    assert!(inst.contains(&ChaseFact::Concept(phd, ChaseTerm::Const(damian))));
    assert!(inst.contains(&ChaseFact::Role(
        works,
        ChaseTerm::Const(francois),
        ChaseTerm::Const(damian)
    )));
    // And the KB is consistent.
    assert!(kb.is_consistent());
}

/// Example 3 + Example 4 + §2.3: query answering through reformulation,
/// via the engine, on every layout and profile.
#[test]
fn example34_reformulation_through_every_engine() {
    let kb = example1();
    let q = example3_query(&kb);
    let damian = kb.voc().find_individual("Damian").unwrap();

    // Certain answers: {Damian}.
    let truth = certain_answers(kb.tbox(), kb.abox(), &q);
    assert_eq!(truth, std::collections::HashSet::from([vec![damian]]));

    // Table 5: ten union terms; minimal form: four.
    let ucq = perfect_ref(&q, kb.tbox());
    assert_eq!(ucq.len(), 10);
    let minimal = minimize_ucq(&ucq);
    assert_eq!(minimal.len(), 4);

    for layout in [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph] {
        for profile in [EngineProfile::pg_like(), EngineProfile::db2_like()] {
            let engine = Engine::load(kb.abox(), kb.voc(), layout, profile);
            let out = engine
                .evaluate(&FolQuery::Ucq(minimal.clone()))
                .expect("small statement");
            assert_eq!(out.rows, vec![vec![damian.0]], "layout {layout:?}");
        }
    }
}

/// Examples 7–11: unsafe cover loses answers; root cover and generalized
/// cover are correct — evaluated through the engine, not just the
/// reference evaluator.
#[test]
fn examples7_to_11_covers_through_engine() {
    let kb = KnowledgeBase::parse(
        "Graduate <= exists supervisedBy\nrole supervisedBy <= worksWith\n\
         PhDStudent(Damian)\nGraduate(Damian)",
    )
    .unwrap();
    let phd = kb.voc().find_concept("PhDStudent").unwrap();
    let works = kb.voc().find_role("worksWith").unwrap();
    let sup = kb.voc().find_role("supervisedBy").unwrap();
    let q = CQ::with_var_head(
        vec![VarId(0)],
        vec![
            Atom::Concept(phd, Term::Var(VarId(0))),
            Atom::Role(works, Term::Var(VarId(0)), Term::Var(VarId(1))),
            Atom::Role(sup, Term::Var(VarId(2)), Term::Var(VarId(1))),
        ],
    );
    let deps = Dependencies::compute(kb.voc(), kb.tbox());
    let analysis = QueryAnalysis::new(&q, &deps);
    let engine = Engine::load(
        kb.abox(),
        kb.voc(),
        LayoutKind::Simple,
        EngineProfile::pg_like(),
    );
    let damian = kb.voc().find_individual("Damian").unwrap();

    // Unsafe C1 (Example 7).
    let c1 = Cover::new(vec![Fragment::simple(0b011), Fragment::simple(0b100)]);
    assert!(!is_safe(&analysis, &c1));
    let jucq = cover_reformulation(&q, kb.tbox(), &c1.to_specs());
    assert!(engine
        .evaluate(&FolQuery::Jucq(jucq))
        .unwrap()
        .rows
        .is_empty());

    // Root cover C2 (Examples 9/10).
    let croot = root_cover(&analysis);
    assert_eq!(croot.num_fragments(), 2);
    let jucq = cover_reformulation(&q, kb.tbox(), &croot.to_specs());
    assert_eq!(
        engine.evaluate(&FolQuery::Jucq(jucq)).unwrap().rows,
        vec![vec![damian.0]]
    );

    // Generalized cover C3 (Example 11).
    let c3 = Cover::new(vec![
        Fragment::generalized(0b110, 0b110),
        Fragment::generalized(0b011, 0b001),
    ]);
    let jucq = cover_reformulation(&q, kb.tbox(), &c3.to_specs());
    assert_eq!(
        engine.evaluate(&FolQuery::Jucq(jucq)).unwrap().rows,
        vec![vec![damian.0]]
    );
}

/// Golden plans for the paper's worked examples: `explain_plan` pins the
/// slot order, the chosen physical operator, and the per-step cost/row
/// estimates, so any planner or cost-model drift is visible in review.
/// (The engine guarantees the printed plan is the plan that runs —
/// executor and explain share `plan_conjunction`.)
#[test]
fn golden_explain_plans_for_example3() {
    use obda::rdbms::JoinStrategy;
    let kb = example1();
    let q = example3_query(&kb);
    let minimal = minimize_ucq(&perfect_ref(&q, kb.tbox()));
    assert_eq!(minimal.len(), 4);

    // Cost-chosen (the default): on this 3-fact ABox every bound step is
    // a cheap INL probe; no hash join pays off.
    let engine = Engine::load(
        kb.abox(),
        kb.voc(),
        LayoutKind::Simple,
        EngineProfile::pg_like(),
    );
    let plan = engine.explain_plan(&FolQuery::Ucq(minimal.clone()));
    assert_eq!(
        plan.to_string(),
        "strategy=cost-chosen cost=5.0\n\
         arm0: [slot0 scan cost=2.0 rows=2.0]\n\
         arm1: [slot0 scan cost=0.0 rows=0.0] [slot1 inl exists cost=0.0 rows=0.0]\n\
         arm2: [slot0 scan cost=0.0 rows=0.0] [slot1 inl exists cost=0.0 rows=0.0]\n\
         arm3: [slot0 scan cost=0.0 rows=0.0] [slot1 inl exists cost=0.0 rows=0.0]\n",
        "cost-chosen golden plan drifted"
    );

    // Forced-hash: the same slot order, but every keyed step becomes a
    // hash build/probe — spelled `vhash` under the default vectorized
    // pipeline, priced identically to the row-mode `hash`.
    let engine = Engine::load(
        kb.abox(),
        kb.voc(),
        LayoutKind::Simple,
        EngineProfile::pg_like(),
    )
    .with_join_strategy(JoinStrategy::ForcedHash);
    let plan = engine.explain_plan(&FolQuery::Ucq(minimal));
    assert_eq!(
        plan.to_string(),
        "strategy=forced-hash cost=15.0\n\
         arm0: [slot0 scan cost=2.0 rows=2.0]\n\
         arm1: [slot0 scan cost=0.0 rows=0.0] [slot1 vhash exists cost=2.5 rows=0.0]\n\
         arm2: [slot0 scan cost=0.0 rows=0.0] [slot1 vhash exists cost=2.5 rows=0.0]\n\
         arm3: [slot0 scan cost=0.0 rows=0.0] [slot1 vhash exists cost=5.0 rows=0.0]\n",
        "forced-hash golden plan drifted"
    );
}

/// Golden plan for the Example-7/9 root-cover JUCQ: component arms are
/// planned independently; the scalar cost prices the whole statement.
#[test]
fn golden_explain_plan_for_example9_root_cover() {
    let kb = KnowledgeBase::parse(
        "Graduate <= exists supervisedBy\nrole supervisedBy <= worksWith\n\
         PhDStudent(Damian)\nGraduate(Damian)",
    )
    .unwrap();
    let phd = kb.voc().find_concept("PhDStudent").unwrap();
    let works = kb.voc().find_role("worksWith").unwrap();
    let sup = kb.voc().find_role("supervisedBy").unwrap();
    let q = CQ::with_var_head(
        vec![VarId(0)],
        vec![
            Atom::Concept(phd, Term::Var(VarId(0))),
            Atom::Role(works, Term::Var(VarId(0)), Term::Var(VarId(1))),
            Atom::Role(sup, Term::Var(VarId(2)), Term::Var(VarId(1))),
        ],
    );
    let deps = Dependencies::compute(kb.voc(), kb.tbox());
    let analysis = QueryAnalysis::new(&q, &deps);
    let croot = root_cover(&analysis);
    let jucq = cover_reformulation(&q, kb.tbox(), &croot.to_specs());
    let engine = Engine::load(
        kb.abox(),
        kb.voc(),
        LayoutKind::Simple,
        EngineProfile::pg_like(),
    );
    let plan = engine.explain_plan(&FolQuery::Jucq(jucq));
    assert_eq!(
        plan.to_string(),
        "strategy=cost-chosen cost=17.0\n\
         c0.arm0: [slot0 scan cost=1.0 rows=1.0]\n\
         c1.arm0: [slot0 scan cost=0.0 rows=0.0] [slot1 vhash exists cost=0.0 rows=0.0]\n\
         c1.arm1: [slot0 scan cost=0.0 rows=0.0] [slot1 vhash exists cost=0.0 rows=0.0]\n\
         c1.arm2: [slot0 scan cost=0.0 rows=0.0]\n\
         c1.arm3: [slot0 scan cost=1.0 rows=1.0]\n",
        "root-cover golden plan drifted"
    );
}

/// The Example-1 KB becomes inconsistent when a PhD student supervises —
/// checked through both the chase and reformulation routes.
#[test]
fn example1_inconsistency_injection() {
    let kb = KnowledgeBase::parse(&format!("{EXAMPLE1_KB}\nsupervisedBy(Alice, Damian)")).unwrap();
    assert!(!kb.is_consistent());
    assert!(!obda::reform::is_consistent_by_reformulation(
        kb.tbox(),
        kb.abox()
    ));
    let violations = kb.consistency_violations();
    assert_eq!(violations.len(), 1);
}
