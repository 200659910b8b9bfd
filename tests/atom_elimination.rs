//! Atom elimination: every compile first drops the query atoms the TBox
//! implies from another atom of the query
//! (`obda_core::eliminate_implied_atoms`), and reformulates the smaller
//! query `q′` in its place.
//!
//! * **Soundness** — over random TBoxes with existential right-hand
//!   sides, random ABoxes and random connected CQs, `q` and `q′` have the
//!   same certain answers, and their minimised PerfectRef reformulations
//!   each contain the other (UCQ containment, disjunct by disjunct).
//! * **LUBM** — the 14 shapes on seed-1 data (60 000 facts) print the
//!   atoms they keep, and a server answers each on both backends with
//!   the rows of the minimised PerfectRef reformulation of the whole,
//!   uneliminated query.
//! * **One public path** — `choose_reformulation` under a snapshot's
//!   TBox followed by `prune_fol` under its constraints, the public calls
//!   the benchmark's staged replay makes, compiles every shape to the
//!   `FolQuery` and SQL size `Server::compile` serves. A compile step
//!   that moves off the public path fails here.
//!
//! Case counts honour `PROPTEST_CASES` (CI's differential job runs 512).

use std::sync::OnceLock;

use proptest::prelude::*;

use obda::core::{eliminate_implied_atoms, prune_fol, Strategy};
use obda::dllite::Dependencies;
use obda::prelude::*;
use obda::query::testkit::{random_abox, random_connected_cq, random_tbox, KbShape, Rng};
use obda::query::{contained_in_union, minimize_ucq};

/// A small vocabulary with many axioms, half of them existential, so
/// that random queries often hold an implied atom.
fn shape() -> KbShape {
    KbShape {
        num_concepts: 4,
        num_roles: 3,
        num_axioms: 10,
        num_individuals: 6,
        num_facts: 12,
        existential_bias: 0.5,
    }
}

/// Each of `a`'s disjuncts is contained in some disjunct of `b`.
fn ucq_contained(a: &UCQ, b: &UCQ) -> bool {
    a.cqs().iter().all(|cq| contained_in_union(cq, b.cqs()))
}

/// The random KB and query of `seed`.
fn random_case(seed: u64, atoms: usize) -> (TBox, ABox, CQ) {
    let mut rng = Rng::new(seed);
    let (mut voc, tbox) = random_tbox(&mut rng, &shape());
    let abox = random_abox(&mut rng, &mut voc, &shape());
    let cq = random_connected_cq(&mut rng, &voc, atoms, 2);
    (tbox, abox, cq)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn elimination_keeps_certain_answers_and_reformulations(
        seed in 0u64..1_000_000,
        atoms in 2usize..6,
    ) {
        let (tbox, abox, q) = random_case(seed, atoms);
        let reduced = eliminate_implied_atoms(&q, &tbox);
        prop_assert_eq!(reduced.head(), q.head());
        prop_assert!(reduced.atoms().iter().all(|a| q.atoms().contains(a)));
        prop_assert_eq!(
            certain_answers(&tbox, &abox, &reduced),
            certain_answers(&tbox, &abox, &q),
            "seed {}: certain answers of {:?} and {:?}", seed, reduced, q
        );
        let ucq = minimize_ucq(&perfect_ref_pruned(&q, &tbox));
        let reduced_ucq = minimize_ucq(&perfect_ref_pruned(&reduced, &tbox));
        prop_assert!(ucq_contained(&reduced_ucq, &ucq), "seed {}: q′ ⊄ q", seed);
        prop_assert!(ucq_contained(&ucq, &reduced_ucq), "seed {}: q ⊄ q′", seed);
    }
}

/// The property above is not vacuous: on its distribution, a good share
/// of the random queries lose atoms.
#[test]
fn random_queries_often_hold_implied_atoms() {
    let cases = 400;
    let reduced = (0..cases)
        .filter(|&seed| {
            let (tbox, _, q) = random_case(seed, 2 + seed as usize % 4);
            eliminate_implied_atoms(&q, &tbox).num_atoms() < q.num_atoms()
        })
        .count();
    assert!(
        reduced * 5 >= cases as usize,
        "only {reduced} of {cases} random queries lost an atom"
    );
}

// ---------------------------------------------------------------------
// LUBM
// ---------------------------------------------------------------------

struct Lubm {
    onto: UnivOntology,
    abox: ABox,
    shapes: Vec<(String, CQ)>,
}

/// Seed-1 LUBM data at the benchmark's scale, and its 14 shapes.
fn lubm() -> &'static Lubm {
    static LUBM: OnceLock<Lubm> = OnceLock::new();
    LUBM.get_or_init(|| {
        let mut onto = UnivOntology::build();
        let (abox, _) = generate(
            &mut onto,
            &GenConfig {
                seed: 1,
                target_facts: 60_000,
                ..GenConfig::default()
            },
        );
        let mut shapes: Vec<(String, CQ)> = workload(&onto)
            .into_iter()
            .map(|w| (w.name, w.cq))
            .collect();
        shapes.push(("A4".into(), star_query(&onto, 4)));
        Lubm { onto, abox, shapes }
    })
}

/// The benchmark's serving configuration, without a plan cache.
fn served_config() -> ServerConfig {
    ServerConfig {
        layout: LayoutKind::Simple,
        profile: EngineProfile::pg_like(),
        reform_strategy: Strategy::Gdl { time_budget: None },
        use_constraints: true,
        threads: 1,
        cache_plans: false,
        ..ServerConfig::default()
    }
}

/// Each shape's atoms, and how many it keeps under the LUBM TBox, in
/// workload order: 11 of the 14 lose one to three.
const KEPT: [(&str, usize, usize); 14] = [
    ("Q1", 6, 5),
    ("Q2", 4, 2),
    ("Q3", 5, 4),
    ("Q4", 4, 3),
    ("Q5", 3, 2),
    ("Q6", 6, 5),
    ("Q7", 4, 3),
    ("Q8", 6, 4),
    ("Q9", 5, 2),
    ("Q10", 10, 10),
    ("Q11", 2, 2),
    ("Q12", 5, 3),
    ("Q13", 7, 5),
    ("A4", 4, 4),
];

#[test]
fn lubm_shapes_keep_their_rows_without_implied_atoms() {
    let fx = lubm();
    let voc = &fx.onto.voc;
    let engine = Engine::load(&fx.abox, voc, LayoutKind::Simple, EngineProfile::pg_like());
    let server = Server::new(voc.clone(), fx.onto.tbox.clone(), &fx.abox, served_config());
    let snap = server.snapshot();
    for ((name, q), (pinned, atoms, kept)) in fx.shapes.iter().zip(KEPT) {
        assert_eq!(name, pinned);
        let reduced = eliminate_implied_atoms(q, &fx.onto.tbox);
        let shown: Vec<String> = reduced
            .atoms()
            .iter()
            .map(|a| a.display(voc).to_string())
            .collect();
        println!(
            "{name}: keeps {} of {}: {}",
            reduced.num_atoms(),
            q.num_atoms(),
            shown.join(", ")
        );
        assert_eq!(
            (q.num_atoms(), reduced.num_atoms()),
            (atoms, kept),
            "{name}"
        );

        let reference = FolQuery::Ucq(minimize_ucq(&perfect_ref_pruned(q, &fx.onto.tbox)));
        let mut want = engine.evaluate(&reference).expect("no size limit").rows;
        want.sort();
        for backend in [Backend::Native, Backend::Sql] {
            let out = server
                .query_on_as(&snap, q, backend)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", backend.name()));
            let mut rows = out.outcome.rows;
            rows.sort();
            assert_eq!(rows, want, "{name}/{}: rows", backend.name());
        }
    }
}

/// The staged replay's public calls compile what the server serves.
#[test]
fn the_public_compile_path_equals_the_server_compile() {
    let fx = lubm();
    let deps = Dependencies::compute(&fx.onto.voc, &fx.onto.tbox);
    let server = Server::new(
        fx.onto.voc.clone(),
        fx.onto.tbox.clone(),
        &fx.abox,
        served_config(),
    );
    let snap = server.snapshot();
    let estimator = ExplainEstimator::new(snap.engine());
    let strategy = Strategy::Gdl { time_budget: None };
    let mut eliminated = 0;
    for (name, q) in &fx.shapes {
        let chosen = choose_reformulation(q, snap.tbox(), &deps, &estimator, &strategy);
        eliminated += chosen.eliminated;
        let (fol, _) = prune_fol(&chosen.fol, &snap.constraints());
        let (compiled, _) = server.compile(&snap, q, Backend::Native);
        assert_eq!(fol, compiled.fol, "{name}: FolQuery");
        assert_eq!(
            snap.engine().sql_for(&fol).len(),
            compiled.sql_bytes,
            "{name}: SQL bytes"
        );
        assert_eq!(chosen.eliminated, compiled.eliminated, "{name}");
    }
    assert!(eliminated > 0, "the shapes hold implied atoms");
}
