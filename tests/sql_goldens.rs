//! Golden tests for `SqlGenerator` output.
//!
//! The generated SQL is now load-bearing twice over: it is the
//! statement-size story of §6.3 (Figure 3's "statement too long"
//! failures), and it is the *input* of the `sqlexec` backend, whose
//! parser accepts exactly this dialect. Any change to the emitted text
//! must therefore be reviewed, not silent: these tests snapshot the SQL
//! for the paper's Example-7 predicates across all three layouts and
//! compare byte-for-byte against `tests/goldens/*.sql`.
//!
//! To bless an intentional dialect change:
//!
//! ```sh
//! OBDA_BLESS=1 cargo test --test sql_goldens && cargo test --test sql_goldens
//! ```
//!
//! Every golden must also parse and lower: the snapshot files double as
//! conformance inputs for the `obda::rdbms::sqlexec` front end.

use std::path::PathBuf;

use obda::dllite::{ConceptId, RoleId, Vocabulary};
use obda::query::{Atom, FolQuery, Slot, Term, VarId, CQ, JUCQ, SCQ, UCQ};
use obda::rdbms::sqlexec::{lower, parse};
use obda::rdbms::{LayoutKind, SqlGenerator, SqlNames};

fn names() -> SqlNames {
    let mut voc = Vocabulary::new();
    voc.concept("PhDStudent");
    voc.concept("Researcher");
    voc.role("worksWith");
    voc.role("supervisedBy");
    SqlNames::from_vocabulary(&voc)
}

fn v(i: u32) -> Term {
    Term::Var(VarId(i))
}

fn generator(layout: LayoutKind) -> SqlGenerator {
    SqlGenerator::new(names(), layout)
}

/// Example 7's shape: q(x) ← PhDStudent(x) ∧ worksWith(x, y).
fn example_cq() -> CQ {
    CQ::with_var_head(
        vec![VarId(0)],
        vec![
            Atom::Concept(ConceptId(0), v(0)),
            Atom::Role(RoleId(0), v(0), v(1)),
        ],
    )
}

fn check_golden(name: &str, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "goldens", name]
        .iter()
        .collect();
    if std::env::var_os("OBDA_BLESS").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden {name}; bless with OBDA_BLESS=1"));
    assert_eq!(
        actual, want,
        "generated SQL drifted from tests/goldens/{name}; review the dialect \
         change and re-bless with OBDA_BLESS=1 if intended"
    );
    // The snapshot is also a front-end conformance input.
    parse(actual)
        .and_then(|parsed| lower(&parsed, &names(), false))
        .unwrap_or_else(|e| panic!("golden {name} no longer parses and lowers: {e}"));
}

#[test]
fn cq_sql_is_pinned_on_every_layout() {
    let q = FolQuery::Cq(example_cq());
    for (layout, file) in [
        (LayoutKind::Simple, "cq_simple.sql"),
        (LayoutKind::Triple, "cq_triple.sql"),
        (LayoutKind::Dph, "cq_dph.sql"),
    ] {
        check_golden(file, &generator(layout).generate(&q));
    }
}

#[test]
fn jucq_with_form_is_pinned() {
    // Two components joined on the shared head variable — §3's
    // `WITH sqlN AS (…)` shape.
    let comp1 = UCQ::from_cqs(
        vec![v(0)],
        [
            CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(0), v(0))]),
            CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(1), v(0))]),
        ],
    );
    let comp2 = UCQ::single(CQ::with_var_head(
        vec![VarId(0)],
        vec![Atom::Role(RoleId(0), v(0), v(1))],
    ));
    let jucq = JUCQ::new(vec![v(0)], vec![comp1, comp2]);
    check_golden(
        "jucq_simple.sql",
        &generator(LayoutKind::Simple).generate(&FolQuery::Jucq(jucq)),
    );
}

#[test]
fn disjunctive_slot_sql_is_pinned() {
    // A slot with a *flipped* second arm: worksWith(x, y) ∨
    // supervisedBy(y, x). The union source must align columns by
    // variable (the executor keys slot extensions by variable, and the
    // sqlexec differential caught the earlier positional form as
    // wrong) — this golden pins the corrected shape.
    let slot = Slot::new(vec![
        Atom::Role(RoleId(0), v(0), v(1)),
        Atom::Role(RoleId(1), v(1), v(0)),
    ]);
    let scq = SCQ::new(
        vec![v(0)],
        vec![Slot::single(Atom::Concept(ConceptId(0), v(0))), slot],
    );
    for (layout, file) in [
        (LayoutKind::Simple, "scq_slot_simple.sql"),
        (LayoutKind::Triple, "scq_slot_triple.sql"),
    ] {
        check_golden(
            file,
            &generator(layout).generate(&FolQuery::Scq(scq.clone())),
        );
    }
}

#[test]
fn boolean_and_constant_forms_are_pinned() {
    // Boolean query: the marker-select form.
    let boolean = CQ::with_var_head(vec![], vec![Atom::Concept(ConceptId(0), v(0))]);
    check_golden(
        "boolean_simple.sql",
        &generator(LayoutKind::Simple).generate(&FolQuery::Cq(boolean)),
    );
    // Constants become literals in the WHERE clause.
    let constant = CQ::new(
        vec![v(0)],
        vec![Atom::Role(
            RoleId(1),
            v(0),
            Term::Const(obda::dllite::IndividualId(42)),
        )],
    );
    check_golden(
        "constant_simple.sql",
        &generator(LayoutKind::Simple).generate(&FolQuery::Cq(constant)),
    );
}
