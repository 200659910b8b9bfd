//! Minimization of UCQs and CQ cores.
//!
//! §2.3: the exhaustive CQ-to-UCQ reformulation is highly redundant;
//! minimizing it "by eliminating disjuncts contained in another" yields the
//! minimal UCQ (e.g. Example 4's 10 disjuncts collapse to q1–q3 ∪ q10).
//!
//! Minimisation allocates for the disjuncts it keeps: each input
//! disjunct's core is one copy, folded in place; one labeller packs every
//! core's canonical key into one Fx-hashed [`WordSet`]; and one
//! [`Homomorphisms`] runs every containment search, including the tests
//! of "the query without atom i" that find the core. On the whole-query
//! LUBM reformulations that is about two allocations per input disjunct:
//! Q6 makes 4 484 for 2 196 disjuncts in and 128 out.

use crate::canonical::Canonicaliser;
use crate::cq::CQ;
use crate::fxhash::WordSet;
use crate::homomorphism::Homomorphisms;
use crate::ucq::UCQ;

/// Remove every disjunct contained in another disjunct.
///
/// Each disjunct is first replaced by its core (so `sB(x,z) ∧ sB(x,y)`
/// collapses to `sB(x,y)` — paper q8 vs q10), duplicates modulo renaming
/// are dropped, then containment pruning runs pairwise. Equivalent
/// disjuncts keep their first occurrence. The result is the *minimal UCQ*
/// of §2.3.
pub fn minimize_ucq(ucq: &UCQ) -> UCQ {
    let mut homs = Homomorphisms::new();
    // Core first, then order by ascending atom count: small disjuncts are
    // the likely absorbers, so testing them first kills large disjuncts
    // early and keeps the pairwise phase near-linear in practice.
    let mut cored: Vec<CQ> = ucq.cqs().iter().map(|cq| core(&mut homs, cq)).collect();
    cored.sort_by_key(CQ::num_atoms);
    // Duplicates modulo renaming keep their first occurrence, whose key
    // is the next entry of `keys`.
    let mut labeller = Canonicaliser::new();
    let mut keys = WordSet::default();
    let firsts: Vec<bool> = cored
        .iter()
        .map(|cq| keys.insert(labeller.packed_key(cq.head(), cq.atoms())))
        .collect();
    let mut keep = firsts.clone();
    let n = cored.len();
    for i in 0..n {
        if !keep[i] {
            continue;
        }
        for j in 0..n {
            if i == j || !keep[j] || !keep[i] {
                continue;
            }
            let (ci, cj) = (&cored[i], &cored[j]);
            if homs.contained_in(cj, ci) {
                // j redundant — unless they are equivalent and j comes
                // first, in which case drop i instead.
                if homs.contained_in(ci, cj) && j < i {
                    keep[i] = false;
                } else {
                    keep[j] = false;
                }
            }
        }
    }
    let mut minimal = UCQ::empty(ucq.head().to_vec());
    let mut entry = 0;
    for ((cq, first), keep) in cored.into_iter().zip(firsts).zip(keep) {
        if keep {
            minimal.push_packed(cq, keys.get(entry));
        }
        entry += usize::from(first);
    }
    minimal
}

/// Compute the core of a CQ: repeatedly drop atoms whose removal preserves
/// equivalence. Since removing an atom only generalizes the query
/// (`q ⊑ q'` always holds), the check is a single homomorphism `q' → q`…
/// in the *other* direction: we need `q' ⊑ q`, i.e. a homomorphism from
/// `q` into `q'`.
pub fn cq_core(cq: &CQ) -> CQ {
    core(&mut Homomorphisms::new(), cq)
}

/// [`cq_core`] with the caller's search buffers: one copy of `cq`, and
/// each redundant atom dropped from it in place.
fn core(homs: &mut Homomorphisms, cq: &CQ) -> CQ {
    let mut current = cq.clone();
    'fold: loop {
        for idx in 0..current.num_atoms() {
            if homs.folds_without(&current, idx) {
                current.remove_atom(idx);
                continue 'fold;
            }
        }
        return current;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::homomorphism::equivalent;
    use crate::term::{Term, VarId};
    use obda_dllite::{ConceptId, RoleId};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    #[test]
    fn contained_disjunct_is_dropped() {
        // q_spec(x) ← r(x,y) ∧ A(x) ⊑ q_gen(x) ← r(x,y).
        let q_gen = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(1))]);
        let q_spec = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(RoleId(0), v(0), v(1)),
                Atom::Concept(ConceptId(0), v(0)),
            ],
        );
        let u = UCQ::from_cqs(vec![v(0)], [q_spec, q_gen.clone()]);
        let m = minimize_ucq(&u);
        assert_eq!(m.len(), 1);
        assert!(equivalent(&m.cqs()[0], &q_gen));
    }

    #[test]
    fn incomparable_disjuncts_survive() {
        let a = CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(0), v(0))]);
        let b = CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(1), v(0))]);
        let u = UCQ::from_cqs(vec![v(0)], [a, b]);
        assert_eq!(minimize_ucq(&u).len(), 2);
    }

    #[test]
    fn equivalent_disjuncts_keep_one() {
        // r(x,y) and r(x,z) are the same query (dedup catches this), but
        // r(x,y) vs r(x,y) ∧ r(x,z) are equivalent yet structurally
        // different — exactly one must survive.
        let one = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(1))]);
        let two = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(RoleId(0), v(0), v(1)),
                Atom::Role(RoleId(0), v(0), v(2)),
            ],
        );
        let u = UCQ::from_cqs(vec![v(0)], [two, one]);
        assert_eq!(minimize_ucq(&u).len(), 1);
    }

    #[test]
    fn core_folds_redundant_atom() {
        // q(x) ← r(x,y) ∧ r(x,z): core is a single atom.
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(RoleId(0), v(0), v(1)),
                Atom::Role(RoleId(0), v(0), v(2)),
            ],
        );
        let core = cq_core(&q);
        assert_eq!(core.num_atoms(), 1);
        assert!(equivalent(&core, &q));
    }

    #[test]
    fn core_of_minimal_query_is_identity() {
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(RoleId(0), v(0), v(1)),
                Atom::Concept(ConceptId(0), v(1)),
            ],
        );
        let core = cq_core(&q);
        assert_eq!(core.num_atoms(), 2);
    }

    #[test]
    fn core_respects_head_variables() {
        // q(x, y) ← r(x,y) ∧ r(x,z): the r(x,z) atom folds onto r(x,y),
        // but r(x,y) cannot be dropped (it binds head var y).
        let q = CQ::with_var_head(
            vec![VarId(0), VarId(1)],
            vec![
                Atom::Role(RoleId(0), v(0), v(1)),
                Atom::Role(RoleId(0), v(0), v(2)),
            ],
        );
        let core = cq_core(&q);
        assert_eq!(core.num_atoms(), 1);
        assert_eq!(core.head(), &[v(0), v(1)]);
        assert!(core.atoms()[0].vars().any(|w| w == VarId(1)));
    }
}
