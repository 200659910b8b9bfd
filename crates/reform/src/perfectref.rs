//! PerfectRef: the CQ-to-UCQ reformulation of Calvanese et al. \[13\].
//!
//! §2.2 of the paper: the technique exhaustively applies two operations to
//! the input CQ —
//!
//! 1. **specializing** an atom by a backward application of a negation-free
//!    constraint (Table 3), and
//! 2. **specializing two atoms into their most general unifier** (the
//!    *reduce* step),
//!
//! each producing a CQ contained in its parent w.r.t. the TBox, until a
//! fixpoint. The union of all generated CQs is the UCQ reformulation:
//! `ans(q, ⟨T, A⟩) = ans(qUCQ, ⟨∅, A⟩)` for every `T`-consistent `A`.

use std::collections::HashSet;

use obda_dllite::TBox;
use obda_query::{canonical_key, contained_in, mgu_preferring, CanonKey, VarId, CQ, UCQ};

use crate::applicability::specializations;

/// Statistics of one reformulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReformStats {
    /// CQs in the result (after canonical dedup).
    pub generated: usize,
    /// Backward axiom applications attempted.
    pub axiom_applications: usize,
    /// Reduce (unification) steps attempted.
    pub reduce_steps: usize,
    /// Forward-subsumption tests (new candidate against an emitted
    /// disjunct) that passed the predicate-signature test and entered a
    /// homomorphism search. Zero for the exhaustive variant.
    pub containment_searches: usize,
    /// Forward-subsumption tests the signature test answered on its own.
    pub containment_filtered: usize,
}

/// Reformulate `q` w.r.t. `tbox` into its UCQ reformulation — the
/// *exhaustive* fixpoint of \[13\], generating every reachable CQ (the form
/// traced in the paper's Example 4 / Table 5).
pub fn perfect_ref(q: &CQ, tbox: &TBox) -> UCQ {
    perfect_ref_with_stats(q, tbox).0
}

/// Like [`perfect_ref`], also returning run statistics.
pub fn perfect_ref_with_stats(q: &CQ, tbox: &TBox) -> (UCQ, ReformStats) {
    run(q, tbox, false)
}

/// Output-subsumed reformulation — the production variant, standing in
/// for optimized rewriters like RAPID \[14\] (what the paper actually runs).
///
/// The fixpoint exploration is **exhaustive** (identical to
/// [`perfect_ref`] — pruning the exploration itself is unsound: a
/// specialized query can enable axiom applications its subsumer cannot),
/// but a generated CQ only enters the *output* union when it is not
/// plainly contained in an already-emitted disjunct. The result is
/// equivalent to the exhaustive UCQ (every dropped disjunct is subsumed by
/// a kept one) and usually orders of magnitude smaller, which keeps
/// downstream minimization cheap. Property tests cross-check it against
/// the chase oracle.
pub fn perfect_ref_pruned(q: &CQ, tbox: &TBox) -> UCQ {
    perfect_ref_pruned_with_stats(q, tbox).0
}

/// Like [`perfect_ref_pruned`], also returning run statistics.
pub fn perfect_ref_pruned_with_stats(q: &CQ, tbox: &TBox) -> (UCQ, ReformStats) {
    run(q, tbox, true)
}

fn run(q: &CQ, tbox: &TBox, prune: bool) -> (UCQ, ReformStats) {
    let mut run = Run {
        stats: ReformStats::default(),
        ucq: UCQ::single(q.clone()),
        seen: HashSet::from([canonical_key(q)]),
        frontier: vec![q.clone()],
        prune,
    };
    let head_vars: Vec<VarId> = q.head_vars().collect();
    while let Some(current) = run.frontier.pop() {
        // (a) backward constraint applications.
        for spec in specializations(&current, tbox, current.fresh_var()) {
            run.stats.axiom_applications += 1;
            let mut atoms = current.atoms().to_vec();
            atoms[spec.atom_idx] = spec.replacement;
            run.push_new(CQ::new(current.head().to_vec(), atoms));
        }
        // (b) reduce: unify each pair of atoms.
        let n = current.num_atoms();
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (&current.atoms()[i], &current.atoms()[j]);
                if let Some(sigma) = mgu_preferring(a, b, &head_vars) {
                    run.stats.reduce_steps += 1;
                    if sigma.is_empty() {
                        continue; // identical atoms — CQ::new dedups anyway
                    }
                    run.push_new(current.apply(&sigma));
                }
            }
        }
    }
    run.stats.generated = run.ucq.len();
    (run.ucq, run.stats)
}

/// The state of one fixpoint computation.
struct Run {
    stats: ReformStats,
    /// The output union.
    ucq: UCQ,
    /// Every CQ generated so far, emitted or not.
    seen: HashSet<CanonKey>,
    frontier: Vec<CQ>,
    prune: bool,
}

impl Run {
    fn push_new(&mut self, candidate: CQ) {
        let key = canonical_key(&candidate);
        if self.seen.contains(&key) {
            return;
        }
        // Exploration always continues from the candidate — only the
        // *output* is filtered, which preserves completeness.
        self.frontier.push(candidate.clone());
        if !(self.prune && self.subsumed(&candidate)) {
            // Emitted disjuncts are a subset of `seen`, so the key is new
            // to the union as well.
            self.ucq.push_keyed(candidate, key.clone());
        }
        self.seen.insert(key);
    }

    /// Is `candidate` contained in an already-emitted disjunct? A linear
    /// scan: the signature test settles all but a fraction of a percent
    /// of the pairs in one AND each, counted here so that a test can pin
    /// how many searches a reformulation enters.
    fn subsumed(&mut self, candidate: &CQ) -> bool {
        for d in self.ucq.cqs() {
            if !d.signature().is_subset_of(candidate.signature()) {
                self.stats.containment_filtered += 1;
            } else {
                self.stats.containment_searches += 1;
                if contained_in(candidate, d) {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::{example1_tbox, example7_tbox};
    use obda_query::{contained_in, minimize_ucq, same_modulo_renaming, Atom, Term};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    /// Example 4 / Table 5: the UCQ reformulation of
    /// q(x) ← PhDStudent(x) ∧ worksWith(y, x) has exactly 10 disjuncts.
    #[test]
    fn example4_ten_disjuncts() {
        let (voc, tbox) = example1_tbox();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let sup = voc.find_role("supervisedBy").unwrap();
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(phd, v(0)), Atom::Role(works, v(1), v(0))],
        );
        let ucq = perfect_ref(&q, &tbox);
        assert_eq!(ucq.len(), 10, "Table 5 lists q1..q10");

        // Spot-check the named disjuncts of Table 5.
        let expect = [
            // q1(x) ← PhDStudent(x) ∧ worksWith(y, x)
            CQ::with_var_head(
                vec![VarId(0)],
                vec![Atom::Concept(phd, v(0)), Atom::Role(works, v(1), v(0))],
            ),
            // q4(x) ← PhDStudent(x) ∧ supervisedBy(x, y)
            CQ::with_var_head(
                vec![VarId(0)],
                vec![Atom::Concept(phd, v(0)), Atom::Role(sup, v(0), v(1))],
            ),
            // q9(x) ← supervisedBy(x, x)
            CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(sup, v(0), v(0))]),
            // q10(x) ← supervisedBy(x, y)
            CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(sup, v(0), v(1))]),
        ];
        for e in &expect {
            assert!(
                ucq.cqs().iter().any(|c| same_modulo_renaming(c, e)),
                "missing disjunct {e:?}"
            );
        }
    }

    /// §2.3: minimizing Example 4's UCQ leaves q1 ∨ q2 ∨ q3 ∨ q10.
    #[test]
    fn example4_minimal_ucq_has_four_disjuncts() {
        let (voc, tbox) = example1_tbox();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let sup = voc.find_role("supervisedBy").unwrap();
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(phd, v(0)), Atom::Role(works, v(1), v(0))],
        );
        let minimal = minimize_ucq(&perfect_ref(&q, &tbox));
        assert_eq!(minimal.len(), 4);
        // q10 is the absorbing disjunct for q4..q9.
        let q10 = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(sup, v(0), v(1))]);
        assert!(minimal.cqs().iter().any(|c| same_modulo_renaming(c, &q10)));
    }

    /// Example 7: the UCQ reformulation of
    /// q(x) ← PhDStudent(x) ∧ worksWith(x, y) ∧ supervisedBy(z, y)
    /// is exactly q1 ∨ q2 ∨ q3 ∨ q4.
    #[test]
    fn example7_four_disjuncts() {
        let (voc, tbox) = example7_tbox();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let grad = voc.find_concept("Graduate").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let sup = voc.find_role("supervisedBy").unwrap();
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(phd, v(0)),
                Atom::Role(works, v(0), v(1)),
                Atom::Role(sup, v(2), v(1)),
            ],
        );
        let ucq = perfect_ref(&q, &tbox);
        assert_eq!(ucq.len(), 4);
        let q3 = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(phd, v(0)), Atom::Role(sup, v(0), v(1))],
        );
        let q4 = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(phd, v(0)), Atom::Concept(grad, v(0))],
        );
        assert!(ucq.cqs().iter().any(|c| same_modulo_renaming(c, &q3)));
        assert!(ucq.cqs().iter().any(|c| same_modulo_renaming(c, &q4)));
    }

    /// Every generated disjunct is contained in the original query… w.r.t.
    /// the TBox. Plain containment holds only atom-wise for axiom steps,
    /// but each disjunct must at least keep the head arity; and the first
    /// disjunct is the original query itself.
    #[test]
    fn original_query_is_a_disjunct() {
        let (voc, tbox) = example1_tbox();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(phd, v(0)), Atom::Role(works, v(1), v(0))],
        );
        let ucq = perfect_ref(&q, &tbox);
        assert!(same_modulo_renaming(&ucq.cqs()[0], &q));
    }

    /// With an empty TBox the reformulation adds only reduce-steps, all of
    /// which are contained in the original query.
    #[test]
    fn empty_tbox_reduce_only() {
        let tbox = TBox::new();
        // q(x) ← r(x, y) ∧ r(y, z): unifying the two atoms gives r(x, x).
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(obda_dllite::RoleId(0), v(0), v(1)),
                Atom::Role(obda_dllite::RoleId(0), v(1), v(2)),
            ],
        );
        let ucq = perfect_ref(&q, &tbox);
        for cq in ucq.cqs() {
            assert!(contained_in(cq, &q), "reduce steps specialize");
        }
        assert!(ucq.len() >= 2);
    }

    #[test]
    fn stats_are_populated() {
        let (voc, tbox) = example1_tbox();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(phd, v(0)), Atom::Role(works, v(1), v(0))],
        );
        let (_, stats) = perfect_ref_with_stats(&q, &tbox);
        assert_eq!(stats.generated, 10);
        assert!(stats.axiom_applications > 0);
        assert!(stats.reduce_steps > 0);
    }

    /// Concept hierarchies alone: A ⊑ B means q(x) ← B(x) reformulates to
    /// B(x) ∨ A(x).
    #[test]
    fn simple_hierarchy() {
        let mut b = obda_dllite::TBoxBuilder::new();
        b.sub("A", "B").sub("A2", "A");
        let (voc, tbox) = b.finish();
        let bb = voc.find_concept("B").unwrap();
        let q = CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(bb, v(0))]);
        let ucq = perfect_ref(&q, &tbox);
        assert_eq!(ucq.len(), 3, "B ∨ A ∨ A2");
    }

    /// The pruned variant is equivalent to the exhaustive one: same
    /// minimal form on Example 4 (9 raw disjuncts — q10 is forward-
    /// subsumed by the equivalent q8 — but identical after minimization).
    #[test]
    fn pruned_variant_is_equivalent_on_example4() {
        let (voc, tbox) = example1_tbox();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(phd, v(0)), Atom::Role(works, v(1), v(0))],
        );
        let exhaustive = perfect_ref(&q, &tbox);
        let pruned = super::perfect_ref_pruned(&q, &tbox);
        assert!(pruned.len() <= exhaustive.len());
        let m1 = minimize_ucq(&exhaustive);
        let m2 = minimize_ucq(&pruned);
        assert_eq!(m1.len(), m2.len());
        for cq in m1.cqs() {
            assert!(
                m2.cqs().iter().any(|d| obda_query::equivalent(cq, d)),
                "missing equivalent of {cq:?}"
            );
        }
    }

    /// Pruned and exhaustive variants compute the same certain answers on
    /// randomized KBs (cross-checked against the chase oracle).
    #[test]
    fn pruned_variant_is_complete_on_random_kbs() {
        use obda_query::testkit::{random_abox, random_connected_cq, random_tbox, KbShape, Rng};
        use obda_query::{certain_answers, eval_over_abox, FolQuery};
        for seed in 0..60u64 {
            let mut rng = Rng::new(seed);
            let shape = KbShape::default();
            let (mut voc, tbox) = random_tbox(&mut rng, &shape);
            let abox = random_abox(&mut rng, &mut voc, &shape);
            for atoms in 1..=3 {
                let cq = random_connected_cq(&mut rng, &voc, atoms, 2);
                let truth = certain_answers(&tbox, &abox, &cq);
                let pruned = super::perfect_ref_pruned(&cq, &tbox);
                let got = eval_over_abox(&abox, &FolQuery::Ucq(pruned));
                assert_eq!(got, truth, "seed {seed}, atoms {atoms}");
            }
        }
    }
}
