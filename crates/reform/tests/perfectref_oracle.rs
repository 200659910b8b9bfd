//! PerfectRef against its reference fixpoint
//! (`obda_reform::testkit::reference_perfect_ref`). The exact-form table
//! and the packed keys in front of the canonical dedup may only skip
//! candidates that were generated before, so both variants must return
//! the reference's union: the same disjuncts, in the same order, with the
//! same variable ids. On Q13 and Q6 the table evicts constantly.

use proptest::prelude::*;

use obda_lubm::{star_query, workload, UnivOntology};
use obda_query::testkit::{random_connected_cq, random_tbox, KbShape, Rng};
use obda_query::UCQ;
use obda_reform::testkit::reference_perfect_ref;
use obda_reform::{perfect_ref, perfect_ref_pruned};

/// Disjunct for disjunct, in order, variable ids included.
fn same_union(got: &UCQ, want: &UCQ) -> bool {
    got.head() == want.head() && got.cqs() == want.cqs()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random positive TBoxes (more axioms and more existentials than the
    /// default shape, so specialisations chain and reduce steps meet
    /// unbound variables) and connected CQs of one to four atoms.
    #[test]
    fn perfect_ref_equals_the_reference_fixpoint(seed in 0u64..1_000_000) {
        let mut rng = Rng::new(seed);
        let shape = KbShape {
            num_axioms: 4 + rng.below(10),
            existential_bias: 0.5,
            ..KbShape::default()
        };
        let (voc, tbox) = random_tbox(&mut rng, &shape);
        let atoms = 1 + rng.below(4);
        let cq = random_connected_cq(&mut rng, &voc, atoms, 2);
        let exhaustive = perfect_ref(&cq, &tbox);
        prop_assert!(same_union(&exhaustive, &reference_perfect_ref(&cq, &tbox, false)), "{:?}", cq);
        let pruned = perfect_ref_pruned(&cq, &tbox);
        prop_assert!(same_union(&pruned, &reference_perfect_ref(&cq, &tbox, true)), "{:?}", cq);
    }
}

/// The 14 LUBM shapes, both variants.
#[test]
fn lubm_reformulations_equal_the_reference_fixpoint() {
    let onto = UnivOntology::build();
    let mut shapes: Vec<(String, obda_query::CQ)> = workload(&onto)
        .into_iter()
        .map(|w| (w.name, w.cq))
        .collect();
    shapes.push(("A4".into(), star_query(&onto, 4)));
    for (name, q) in &shapes {
        let pruned = perfect_ref_pruned(q, &onto.tbox);
        assert!(
            same_union(&pruned, &reference_perfect_ref(q, &onto.tbox, true)),
            "{name}: perfect_ref_pruned"
        );
        let exhaustive = perfect_ref(q, &onto.tbox);
        assert!(
            same_union(&exhaustive, &reference_perfect_ref(q, &onto.tbox, false)),
            "{name}: perfect_ref"
        );
    }
}
