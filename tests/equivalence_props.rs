//! Property tests of the paper's central theorems on randomized KBs:
//!
//! * Theorem 1 — safe-cover JUCQ reformulations compute the certain
//!   answers;
//! * Theorem 3 — generalized-cover reformulations too;
//! * FOL reducibility — the UCQ reformulation over the plain ABox equals
//!   the chase oracle;
//! * engine vs reference evaluator — every layout computes what the
//!   reference evaluator computes.

use proptest::prelude::*;

use obda::core::{enumerate_generalized_covers, enumerate_safe_covers, QueryAnalysis};
use obda::dllite::Dependencies;
use obda::prelude::*;
use obda::query::testkit::{random_abox, random_connected_cq, random_tbox, KbShape, Rng};
use obda::reform::cover_reformulation;

/// Deterministic fixture from a seed: TBox + ABox + connected CQ.
fn fixture(seed: u64, atoms: usize) -> (Vocabulary, TBox, ABox, CQ) {
    let mut rng = Rng::new(seed);
    let shape = KbShape::default();
    let (mut voc, tbox) = random_tbox(&mut rng, &shape);
    let abox = random_abox(&mut rng, &mut voc, &shape);
    let cq = random_connected_cq(&mut rng, &voc, atoms, 2);
    (voc, tbox, abox, cq)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FOL reducibility: ans(q, ⟨T, A⟩) = ans(qUCQ, ⟨∅, A⟩).
    #[test]
    fn fol_reducibility(seed in 0u64..5_000, atoms in 1usize..4) {
        let (_voc, tbox, abox, cq) = fixture(seed, atoms);
        let truth = certain_answers(&tbox, &abox, &cq);
        let ucq = perfect_ref(&cq, &tbox);
        let got = eval_over_abox(&abox, &FolQuery::Ucq(ucq));
        prop_assert_eq!(got, truth);
    }

    /// Theorem 1: every safe cover's JUCQ equals the certain answers.
    #[test]
    fn theorem1_safe_covers(seed in 0u64..3_000, atoms in 2usize..4) {
        let (voc, tbox, abox, cq) = fixture(seed, atoms);
        let deps = Dependencies::compute(&voc, &tbox);
        let analysis = QueryAnalysis::new(&cq, &deps);
        let truth = certain_answers(&tbox, &abox, &cq);
        for cover in enumerate_safe_covers(&analysis, 8) {
            let jucq = cover_reformulation(&cq, &tbox, &cover.to_specs());
            let got = eval_over_abox(&abox, &FolQuery::Jucq(jucq));
            prop_assert_eq!(&got, &truth, "cover {:?}", cover);
        }
    }

    /// Theorem 3: generalized covers too.
    #[test]
    fn theorem3_generalized_covers(seed in 0u64..3_000, atoms in 2usize..4) {
        let (voc, tbox, abox, cq) = fixture(seed, atoms);
        let deps = Dependencies::compute(&voc, &tbox);
        let analysis = QueryAnalysis::new(&cq, &deps);
        let truth = certain_answers(&tbox, &abox, &cq);
        let space = enumerate_generalized_covers(&analysis, 12);
        for cover in &space.covers {
            let jucq = cover_reformulation(&cq, &tbox, &cover.to_specs());
            let got = eval_over_abox(&abox, &FolQuery::Jucq(jucq));
            prop_assert_eq!(&got, &truth, "cover {:?}", cover);
        }
    }

    /// Engine layouts agree with the reference evaluator on arbitrary
    /// (non-reformulated) queries.
    #[test]
    fn engines_match_reference(seed in 0u64..5_000, atoms in 1usize..4) {
        let (voc, _tbox, abox, cq) = fixture(seed, atoms);
        let q = FolQuery::Cq(cq);
        let mut want: Vec<Vec<u32>> = eval_over_abox(&abox, &q)
            .into_iter()
            .map(|row| row.into_iter().map(|i| i.0).collect())
            .collect();
        want.sort();
        for layout in [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph] {
            let engine = Engine::load(&abox, &voc, layout, EngineProfile::pg_like());
            let mut got = engine.evaluate(&q).expect("no limit").rows;
            got.sort();
            prop_assert_eq!(&got, &want, "layout {:?}", layout);
        }
    }

    /// The USCQ factorization of any reformulation stays equivalent.
    #[test]
    fn uscq_factorization_preserves_answers(seed in 0u64..5_000, atoms in 1usize..3) {
        let (_voc, tbox, abox, cq) = fixture(seed, atoms);
        let ucq = perfect_ref(&cq, &tbox);
        let uscq = obda::reform::factorize_ucq(&ucq);
        let a1 = eval_over_abox(&abox, &FolQuery::Ucq(ucq));
        let a2 = eval_over_abox(&abox, &FolQuery::Uscq(uscq));
        prop_assert_eq!(a1, a2);
    }

    /// Minimization preserves answers.
    #[test]
    fn minimization_preserves_answers(seed in 0u64..5_000, atoms in 1usize..3) {
        let (_voc, tbox, abox, cq) = fixture(seed, atoms);
        let ucq = perfect_ref(&cq, &tbox);
        let minimal = obda::query::minimize_ucq(&ucq);
        prop_assert!(minimal.len() <= ucq.len());
        let a1 = eval_over_abox(&abox, &FolQuery::Ucq(ucq));
        let a2 = eval_over_abox(&abox, &FolQuery::Ucq(minimal));
        prop_assert_eq!(a1, a2);
    }
}
