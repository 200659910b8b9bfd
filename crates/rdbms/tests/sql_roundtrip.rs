//! The SQL front end against the generator it inverts.
//!
//! * **Round trip.** For random queries in all six dialects, on all
//!   three layouts, `lower(parse(generate(q)))` has `q`'s shape — the
//!   same components, arms, slots and join columns, every conjunction
//!   equal modulo renaming — and, run natively, `q`'s rows. The text
//!   does not say which dialect printed it, so the comparison is up to
//!   what the text cannot carry: a one-arm union reads back as a
//!   conjunction, singleton slots as a CQ (whose constructor drops
//!   repeated atoms), and repeated plain arms collapse. The length the
//!   generator counts without building the text is the text's length.
//! * **Mutation.** A generated statement with one token deleted, or two
//!   swapped, is answered or refused with a typed error: never a panic,
//!   whatever reaches the `CQ`/`UCQ`/`JUCQ`/`Slot` constructors and the
//!   planner behind them.
//!
//! Case counts honour `PROPTEST_CASES` (CI's differential job runs 512).

use std::collections::HashMap;

use proptest::prelude::*;

use obda_dllite::{ABox, Vocabulary};
use obda_query::testkit::{random_abox, random_fol_query, random_tbox, KbShape, Rng};
use obda_query::{canonical_key, Atom, CanonKey, FolQuery, Slot, Term, VarId, CQ};
use obda_rdbms::sqlexec::token::tokenize;
use obda_rdbms::sqlexec::{lower, parse};
use obda_rdbms::{Engine, EngineError, EngineProfile, LayoutKind, SqlNames};

const ALL_LAYOUTS: [LayoutKind; 3] = [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph];

fn scenario(seed: u64) -> (Vocabulary, ABox, FolQuery) {
    let mut rng = Rng::new(seed);
    let shape = KbShape::default();
    let (mut voc, _) = random_tbox(&mut rng, &shape);
    let abox = random_abox(&mut rng, &mut voc, &shape);
    let q = random_fol_query(&mut rng, &voc, 4);
    (voc, abox, q)
}

// -- shape ----------------------------------------------------------------

/// One conjunction, as the text shows it.
#[derive(Debug, PartialEq)]
enum ArmShape {
    /// Singleton slots only: a CQ, modulo renaming and atom order.
    Plain(CanonKey),
    /// Head and slots with variables numbered by first occurrence: text
    /// order survives the round trip, so equality is exact.
    Slots(Vec<Term>, Vec<Vec<Atom>>),
}

fn arm_shape(head: &[Term], slots: &[Slot]) -> ArmShape {
    if slots.iter().all(|s| s.len() == 1) {
        let atoms = slots.iter().map(|s| s.atoms()[0]).collect();
        return ArmShape::Plain(canonical_key(&CQ::new(head.to_vec(), atoms)));
    }
    let mut names: HashMap<VarId, u32> = HashMap::new();
    let mut rename = |t: Term| match t {
        Term::Var(v) => {
            let next = names.len() as u32;
            Term::Var(VarId(*names.entry(v).or_insert(next)))
        }
        c => c,
    };
    let slots = slots
        .iter()
        .map(|s| {
            s.atoms()
                .iter()
                .map(|a| a.map_vars(|v| rename(Term::Var(v))))
                .collect()
        })
        .collect();
    ArmShape::Slots(head.iter().map(|&t| rename(t)).collect(), slots)
}

/// A union of conjunctions; repeated plain arms are one disjunct.
fn union_shape(arms: Vec<ArmShape>) -> Vec<ArmShape> {
    let mut out: Vec<ArmShape> = Vec::with_capacity(arms.len());
    for arm in arms {
        if !(matches!(arm, ArmShape::Plain(_)) && out.contains(&arm)) {
            out.push(arm);
        }
    }
    out
}

fn cq_slots(cq: &CQ) -> Vec<Slot> {
    cq.atoms().iter().map(|a| Slot::single(*a)).collect()
}

/// Components (one for the unions and conjunctions), each a list of arm
/// shapes; then which component columns are joined, and the head over
/// them, with join variables numbered by first occurrence.
#[derive(Debug, PartialEq)]
struct Shape {
    components: Vec<Vec<ArmShape>>,
    join: Option<(Vec<Vec<Term>>, Vec<Term>)>,
}

fn shape(q: &FolQuery) -> Shape {
    let flat = |arms: Vec<ArmShape>| Shape {
        components: vec![union_shape(arms)],
        join: None,
    };
    let joined = |components: Vec<Vec<ArmShape>>, heads: Vec<&[Term]>, head: &[Term]| {
        let mut names: HashMap<VarId, u32> = HashMap::new();
        let mut rename = |t: &Term| match t {
            Term::Var(v) => {
                let next = names.len() as u32;
                Term::Var(VarId(*names.entry(*v).or_insert(next)))
            }
            c => *c,
        };
        let heads: Vec<Vec<Term>> = heads
            .into_iter()
            .map(|h| h.iter().map(&mut rename).collect())
            .collect();
        let head = head.iter().map(&mut rename).collect();
        Shape {
            components: components.into_iter().map(union_shape).collect(),
            join: Some((heads, head)),
        }
    };
    match q {
        FolQuery::Cq(cq) => flat(vec![arm_shape(cq.head(), &cq_slots(cq))]),
        FolQuery::Scq(scq) => flat(vec![arm_shape(scq.head(), scq.slots())]),
        FolQuery::Ucq(u) => flat(
            u.cqs()
                .iter()
                .map(|cq| arm_shape(cq.head(), &cq_slots(cq)))
                .collect(),
        ),
        FolQuery::Uscq(u) => flat(
            u.scqs()
                .iter()
                .map(|s| arm_shape(s.head(), s.slots()))
                .collect(),
        ),
        FolQuery::Jucq(j) => joined(
            j.components()
                .iter()
                .map(|c| {
                    c.cqs()
                        .iter()
                        .map(|cq| arm_shape(cq.head(), &cq_slots(cq)))
                        .collect()
                })
                .collect(),
            j.components().iter().map(|c| c.head()).collect(),
            j.head(),
        ),
        FolQuery::Juscq(j) => joined(
            j.components()
                .iter()
                .map(|c| {
                    c.scqs()
                        .iter()
                        .map(|s| arm_shape(s.head(), s.slots()))
                        .collect()
                })
                .collect(),
            j.components().iter().map(|c| c.head()).collect(),
            j.head(),
        ),
    }
}

fn sorted_rows(engine: &Engine, q: &FolQuery) -> Vec<Vec<u32>> {
    let mut rows = engine.evaluate(q).expect("pg-like: no size limit").rows;
    rows.sort();
    rows
}

// -- mutation -------------------------------------------------------------

/// `sql` with token `i` deleted (`j == i`) or tokens `i` and `j` swapped.
fn mutate(sql: &str, i: usize, j: usize) -> String {
    let starts: Vec<usize> = tokenize(sql)
        .expect("generated SQL tokenizes")
        .into_iter()
        .map(|(_, at)| at)
        .collect();
    let n = starts.len();
    let (i, j) = (i % n, j % n);
    let (i, j) = (i.min(j), i.max(j));
    let span = |k: usize| &sql[starts[k]..starts.get(k + 1).copied().unwrap_or(sql.len())];
    let mut out = String::with_capacity(sql.len());
    out.push_str(&sql[..starts[0]]);
    for k in 0..n {
        match k {
            _ if i == j && k == i => {}
            _ if k == i => out.push_str(span(j)),
            _ if k == j => out.push_str(span(i)),
            _ => out.push_str(span(k)),
        }
        // Swapped spans may have lost the blank that kept two words apart.
        out.push(' ');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lowering_inverts_generation(seed in 0u64..1_000_000) {
        let (voc, abox, q) = scenario(seed);
        let names = SqlNames::from_vocabulary(&voc);
        for layout in ALL_LAYOUTS {
            let engine = Engine::load(&abox, &voc, layout, EngineProfile::pg_like());
            let sql = engine.sql_for(&q);
            prop_assert_eq!(engine.sql_len(&q), sql.len(), "seed {} {:?}", seed, layout);
            let back = parse(&sql)
                .and_then(|parsed| lower(&parsed, &names, q.head().is_empty()))
                .unwrap_or_else(|e| panic!("seed {seed} {layout:?}: {e}\n{sql}"));
            prop_assert_eq!(
                shape(&back),
                shape(&q),
                "seed {} {:?}\n{}\n{:?}\n{:?}",
                seed, layout, sql, back, q
            );
            prop_assert_eq!(
                sorted_rows(&engine, &back),
                sorted_rows(&engine, &q),
                "seed {} {:?}\n{}",
                seed, layout, sql
            );
        }
    }

    #[test]
    fn damaged_statements_never_panic(seed in 0u64..1_000_000, i in 0usize..1_000_000, j in 0usize..1_000_000) {
        let (voc, abox, q) = scenario(seed);
        let layout = ALL_LAYOUTS[seed as usize % 3];
        let engine = Engine::load(&abox, &voc, layout, EngineProfile::pg_like());
        let sql = engine.sql_for(&q);
        // Deletions and swaps in equal measure.
        let damaged = mutate(&sql, i, if seed % 2 == 0 { i } else { j });
        match engine.run_sql(&damaged) {
            Ok(_) | Err(EngineError::Sql(_)) => {}
            Err(other) => prop_assert!(false, "seed {}: {}\n{}", seed, other, damaged),
        }
    }
}
