//! Backward applicability of DL-LiteR positive inclusions to query atoms,
//! and the atom-specialization function `gr(g, I)` of PerfectRef
//! (Calvanese et al. \[13\]; §2.2 of the paper).
//!
//! An inclusion `I` is applicable to an atom `g` when `g` could hold
//! *because* `I`'s left-hand side held — i.e. `I`'s right-hand side matches
//! `g`'s extension. For role atoms, matching `∃R`-shaped right-hand sides
//! additionally requires the projected-away position to be **unbound**: an
//! existential variable occurring nowhere else (the `_` of the literature).
//! Otherwise the specialization would forget a join.

use obda_dllite::{Axiom, BasicConcept, ConceptId, Role, RoleId, TBox};
use obda_query::{Atom, Term, VarId, CQ};

/// One backward specialization opportunity: applying `axiom` to the atom at
/// `atom_idx` yields `replacement` (which may consume a fresh variable).
#[derive(Debug, Clone)]
pub struct Specialization {
    pub atom_idx: usize,
    pub axiom: Axiom,
    pub replacement: Atom,
}

/// Enumerate every specialization applicable to any atom of `q` under the
/// positive inclusions of `tbox`. `fresh` is the first variable id safe to
/// mint (callers pass `q.fresh_var()`).
pub fn specializations(q: &CQ, tbox: &TBox, fresh: VarId) -> Vec<Specialization> {
    let mut out = Vec::new();
    specializations_into(q, tbox, fresh, &mut Vec::new(), &mut out);
    out
}

/// [`specializations`] written into `out` (cleared first), with `unbound`
/// as the buffer for `q`'s unbound variables: PerfectRef pops thousands
/// of queries per run and keeps both buffers for all of them.
pub fn specializations_into(
    q: &CQ,
    tbox: &TBox,
    fresh: VarId,
    unbound: &mut Vec<VarId>,
    out: &mut Vec<Specialization>,
) {
    out.clear();
    // The occurrence information every role atom's ∃-tests read, computed
    // once per query rather than once per atom position.
    q.unbound_vars_into(unbound);
    for (idx, atom) in q.atoms().iter().enumerate() {
        match *atom {
            Atom::Concept(c, t) => concept_atom_specs(tbox, idx, c, t, fresh, out),
            Atom::Role(r, t1, t2) => role_atom_specs(unbound, tbox, idx, r, t1, t2, fresh, out),
        }
    }
}

/// Specializations of a concept atom `A(t)`: every positive inclusion
/// `X ⊑ A`.
fn concept_atom_specs(
    tbox: &TBox,
    idx: usize,
    concept: ConceptId,
    t: Term,
    fresh: VarId,
    out: &mut Vec<Specialization>,
) {
    for ci in tbox.concept_inclusions_into(BasicConcept::Atomic(concept)) {
        let replacement = lhs_to_atom(ci.lhs, t, fresh);
        out.push(Specialization {
            atom_idx: idx,
            axiom: Axiom::Concept(*ci),
            replacement,
        });
    }
}

/// Specializations of a role atom `R(t1, t2)`:
/// * role inclusions `S ⊑ R` (always applicable);
/// * concept inclusions `X ⊑ ∃R` when `t2` is unbound;
/// * concept inclusions `X ⊑ ∃R⁻` when `t1` is unbound.
#[allow(clippy::too_many_arguments)]
fn role_atom_specs(
    unbound: &[VarId],
    tbox: &TBox,
    idx: usize,
    role: RoleId,
    t1: Term,
    t2: Term,
    fresh: VarId,
    out: &mut Vec<Specialization>,
) {
    // Role inclusions into R (stored normalized: rhs direct).
    for ri in tbox.role_inclusions_into(role) {
        let replacement = role_expr_atom(ri.lhs, t1, t2);
        out.push(Specialization {
            atom_idx: idx,
            axiom: Axiom::Role(*ri),
            replacement,
        });
    }
    // X ⊑ ∃R: applicable when the object position is unbound.
    if is_unbound_term(unbound, t2) {
        for ci in tbox.concept_inclusions_into(BasicConcept::Exists(Role::direct(role))) {
            let replacement = lhs_to_atom(ci.lhs, t1, fresh);
            out.push(Specialization {
                atom_idx: idx,
                axiom: Axiom::Concept(*ci),
                replacement,
            });
        }
    }
    // X ⊑ ∃R⁻: applicable when the subject position is unbound.
    if is_unbound_term(unbound, t1) {
        for ci in tbox.concept_inclusions_into(BasicConcept::Exists(Role::inv(role))) {
            let replacement = lhs_to_atom(ci.lhs, t2, fresh);
            out.push(Specialization {
                atom_idx: idx,
                axiom: Axiom::Concept(*ci),
                replacement,
            });
        }
    }
}

/// Is the term one of the query's unbound (anonymous-like) variables,
/// given as [`CQ::unbound_vars`]?
fn is_unbound_term(unbound: &[VarId], t: Term) -> bool {
    match t {
        Term::Var(v) => unbound.contains(&v),
        Term::Const(_) => false,
    }
}

/// Materialize an inclusion's left-hand side as an atom centred on `t`.
/// `∃P` becomes `P(t, fresh)`; `∃P⁻` becomes `P(fresh, t)` — the fresh
/// variable occurs once, hence stays unbound.
fn lhs_to_atom(lhs: BasicConcept, t: Term, fresh: VarId) -> Atom {
    match lhs {
        BasicConcept::Atomic(c) => Atom::Concept(c, t),
        BasicConcept::Exists(role) => {
            if role.inverse {
                Atom::Role(role.name, Term::Var(fresh), t)
            } else {
                Atom::Role(role.name, t, Term::Var(fresh))
            }
        }
    }
}

/// Materialize a role expression over the pair `(t1, t2)`: `P` keeps the
/// order, `P⁻` swaps it.
fn role_expr_atom(role: Role, t1: Term, t2: Term) -> Atom {
    if role.inverse {
        Atom::Role(role.name, t2, t1)
    } else {
        Atom::Role(role.name, t1, t2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::example1_tbox;

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    /// Example 4's first steps: the specializations of
    /// q(x) ← PhDStudent(x) ∧ worksWith(y, x).
    #[test]
    fn example4_first_level() {
        let (voc, tbox) = example1_tbox();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let sup = voc.find_role("supervisedBy").unwrap();
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(phd, v(0)), Atom::Role(works, v(1), v(0))],
        );
        let specs = specializations(&q, &tbox, q.fresh_var());
        let replacements: Vec<Atom> = specs.iter().map(|s| s.replacement).collect();
        // (T4) worksWith ⊑ worksWith⁻ backward on worksWith(y, x) gives
        // worksWith(x, y) (paper: q2's role atom).
        assert!(replacements.contains(&Atom::Role(works, v(0), v(1))));
        // (T5) supervisedBy ⊑ worksWith gives supervisedBy(y, x).
        assert!(replacements.contains(&Atom::Role(sup, v(1), v(0))));
        // (T6) ∃supervisedBy ⊑ PhDStudent gives supervisedBy(x, fresh).
        assert!(replacements.contains(&Atom::Role(sup, v(0), v(2))));
        assert_eq!(specs.len(), 3);
    }

    /// ∃R-shaped inclusions only apply when the projected position is
    /// unbound.
    #[test]
    fn exists_requires_unbound_position() {
        let (voc, tbox) = example1_tbox();
        let sup = voc.find_role("supervisedBy").unwrap();
        let phd = voc.find_concept("PhDStudent").unwrap();
        // q(x) ← supervisedBy(x, y) ∧ PhDStudent(y): y is bound (shared),
        // so (T6) cannot rewrite PhDStudent(y)… (T6) goes *into*
        // PhDStudent so it can; but nothing rewrites supervisedBy.
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Role(sup, v(0), v(1)), Atom::Concept(phd, v(1))],
        );
        let specs = specializations(&q, &tbox, q.fresh_var());
        // Only (T6) on PhDStudent(y) applies: supervisedBy(y, fresh).
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].replacement, Atom::Role(sup, v(1), v(2)));

        // Same query but with y unbound in the role atom:
        // q(x) ← supervisedBy(x, y): still nothing into supervisedBy
        // (no axiom concludes ∃supervisedBy in Example 1 — T6 has it on
        // the left).
        let q2 = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(sup, v(0), v(1))]);
        assert!(specializations(&q2, &tbox, q2.fresh_var()).is_empty());
    }

    #[test]
    fn exists_applies_on_unbound_object() {
        // TBox: Graduate ⊑ ∃supervisedBy (Example 7). Atom
        // supervisedBy(x, y) with y unbound → Graduate(x).
        let (voc, tbox) = obda_dllite::example7_tbox();
        let sup = voc.find_role("supervisedBy").unwrap();
        let grad = voc.find_concept("Graduate").unwrap();
        let q = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(sup, v(0), v(1))]);
        let specs = specializations(&q, &tbox, q.fresh_var());
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].replacement, Atom::Concept(grad, v(0)));
    }

    #[test]
    fn inverse_exists_applies_on_unbound_subject() {
        // A ⊑ ∃r⁻ rewrites r(x, y) with x unbound into A(y).
        let mut b = obda_dllite::TBoxBuilder::new();
        b.sub("A", "exists r-");
        let (voc, tbox) = b.finish();
        let r = voc.find_role("r").unwrap();
        let a = voc.find_concept("A").unwrap();
        // head = y (so x is unbound).
        let q = CQ::with_var_head(vec![VarId(1)], vec![Atom::Role(r, v(0), v(1))]);
        let specs = specializations(&q, &tbox, q.fresh_var());
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].replacement, Atom::Concept(a, v(1)));
        // With x in the head, nothing applies.
        let q2 = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(r, v(0), v(1))]);
        // y is unbound but the axiom is into ∃r⁻, needing x unbound.
        assert!(specializations(&q2, &tbox, q2.fresh_var()).is_empty());
    }

    #[test]
    fn constants_are_never_unbound() {
        let mut b = obda_dllite::TBoxBuilder::new();
        b.sub("A", "exists r");
        let (mut voc, tbox) = b.finish();
        let r = voc.find_role("r").unwrap();
        let c = voc.individual("c");
        // r(x, c): object is a constant — A ⊑ ∃r must not apply.
        let q = CQ::new(
            vec![Term::Var(VarId(0))],
            vec![Atom::Role(r, v(0), Term::Const(c))],
        );
        assert!(specializations(&q, &tbox, q.fresh_var()).is_empty());
    }

    #[test]
    fn inverse_role_inclusion_swaps_arguments() {
        // r ⊑ s⁻ (normalized r⁻ ⊑ s): backward on s(x, y) yields r(y, x).
        let mut b = obda_dllite::TBoxBuilder::new();
        b.sub_role("r", "s-");
        let (voc, tbox) = b.finish();
        let r = voc.find_role("r").unwrap();
        let s = voc.find_role("s").unwrap();
        let q = CQ::with_var_head(vec![VarId(0), VarId(1)], vec![Atom::Role(s, v(0), v(1))]);
        let specs = specializations(&q, &tbox, q.fresh_var());
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].replacement, Atom::Role(r, v(1), v(0)));
    }
}
