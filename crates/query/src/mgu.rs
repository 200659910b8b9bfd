//! Most general unifiers of query atoms.
//!
//! The *reduce* step of the CQ-to-UCQ technique (§2.2, Example 4)
//! specializes two atoms of a query into their mgu. Unification here is
//! first-order unification restricted to flat terms (variables and
//! constants) — no function symbols, so it always terminates in one pass
//! per position.

use crate::atom::Atom;
use crate::term::{Subst, Term, VarId};

/// Compute the most general unifier of two atoms, if any.
///
/// Returns a substitution `σ` with `a.apply(σ) == b.apply(σ)`. Atoms over
/// different predicates never unify. When a variable meets a variable, the
/// larger id is bound to the smaller so that unifiers are deterministic.
/// Allocates nothing: the positions are walked in place and the
/// substitution is held inline.
pub fn mgu(a: &Atom, b: &Atom) -> Option<Subst> {
    let (pairs, n) = match (a, b) {
        (Atom::Concept(c1, t1), Atom::Concept(c2, t2)) if c1 == c2 => ([(*t1, *t2); 2], 1),
        (Atom::Role(r1, s1, o1), Atom::Role(r2, s2, o2)) if r1 == r2 => {
            ([(*s1, *s2), (*o1, *o2)], 2)
        }
        _ => return None,
    };
    let mut subst = Subst::new();
    for &(x, y) in &pairs[..n] {
        let rx = subst.resolve(x);
        let ry = subst.resolve(y);
        match (rx, ry) {
            (Term::Const(c1), Term::Const(c2)) => {
                if c1 != c2 {
                    return None;
                }
            }
            (Term::Var(v), t @ Term::Const(_)) | (t @ Term::Const(_), Term::Var(v)) => {
                subst.bind(v, t);
            }
            (Term::Var(v1), Term::Var(v2)) => {
                if v1 != v2 {
                    // Deterministic orientation: bind larger to smaller.
                    if v1.0 < v2.0 {
                        subst.bind(v2, Term::Var(v1));
                    } else {
                        subst.bind(v1, Term::Var(v2));
                    }
                }
            }
        }
    }
    Some(subst)
}

/// Unify, preferring to keep *head* variables as representatives.
///
/// The reduce step of PerfectRef must not rename head variables away: in
/// paper Example 7 the mgu of `supervisedBy(x, y)` and `supervisedBy(z, y)`
/// is taken to be `supervisedBy(x, y)` *because `x` is the head variable*.
/// `mgu_preferring` reorients variable-variable bindings so that variables
/// in `keep` survive whenever possible (two `keep` variables meeting still
/// unify, oriented by id).
pub fn mgu_preferring(a: &Atom, b: &Atom, keep: &[VarId]) -> Option<Subst> {
    let raw = mgu(a, b)?;
    // The unified variables fall into equivalence classes, one per
    // terminal representative under `raw`. Each class's representative is
    // re-picked: a constant if present, otherwise the smallest kept
    // variable, otherwise the smallest variable. Rebinding whole classes
    // (rather than flipping individual edges) keeps the substitution
    // acyclic no matter how chains interleave. A class is the variables
    // `raw` binds that resolve to one representative, plus that
    // representative; at most four variables take part, so the classes
    // are found by scanning them, not by grouping them in a map.
    let mut vars = [VarId(0); 4];
    let mut n = 0;
    for (v, _) in raw.iter() {
        for w in [Some(v), raw.resolve(Term::Var(v)).as_var()]
            .into_iter()
            .flatten()
        {
            if !vars[..n].contains(&w) {
                vars[n] = w;
                n += 1;
            }
        }
    }
    let vars = &vars[..n];
    let mut oriented = Subst::new();
    for &v in vars {
        let rep = raw.resolve(Term::Var(v));
        if rep.is_const() {
            oriented.bind(v, rep);
            continue;
        }
        let class = vars
            .iter()
            .copied()
            .filter(|&w| raw.resolve(Term::Var(w)) == rep);
        let chosen = class
            .clone()
            .filter(|w| keep.contains(w))
            .min()
            .or_else(|| class.min())
            .expect("a class holds its representative");
        oriented.bind(v, Term::Var(chosen));
    }
    debug_assert_eq!(a.apply(&oriented), b.apply(&oriented));
    Some(oriented)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::{ConceptId, IndividualId, RoleId};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }
    fn c(i: u32) -> Term {
        Term::Const(IndividualId(i))
    }

    #[test]
    fn different_predicates_never_unify() {
        let a = Atom::Concept(ConceptId(0), v(0));
        let b = Atom::Concept(ConceptId(1), v(0));
        assert!(mgu(&a, &b).is_none());
        let r = Atom::Role(RoleId(0), v(0), v(1));
        let s = Atom::Role(RoleId(1), v(0), v(1));
        assert!(mgu(&r, &s).is_none());
        assert!(mgu(&a, &r).is_none());
    }

    #[test]
    fn var_var_unification_is_deterministic() {
        let a = Atom::Role(RoleId(0), v(0), v(2));
        let b = Atom::Role(RoleId(0), v(1), v(2));
        let s = mgu(&a, &b).unwrap();
        assert_eq!(a.apply(&s), b.apply(&s));
        // Larger id bound to smaller.
        assert_eq!(s.resolve(v(1)), v(0));
    }

    #[test]
    fn var_const_unification() {
        let a = Atom::Concept(ConceptId(0), v(0));
        let b = Atom::Concept(ConceptId(0), c(7));
        let s = mgu(&a, &b).unwrap();
        assert_eq!(s.resolve(v(0)), c(7));
    }

    #[test]
    fn const_clash_fails() {
        let a = Atom::Concept(ConceptId(0), c(1));
        let b = Atom::Concept(ConceptId(0), c(2));
        assert!(mgu(&a, &b).is_none());
    }

    #[test]
    fn chained_positions() {
        // r(x, x) vs r(y, c): x↦y then y↦c.
        let a = Atom::Role(RoleId(0), v(0), v(0));
        let b = Atom::Role(RoleId(0), v(1), c(3));
        let s = mgu(&a, &b).unwrap();
        assert_eq!(a.apply(&s), b.apply(&s));
        assert_eq!(s.resolve(v(0)), c(3));
        assert_eq!(s.resolve(v(1)), c(3));
    }

    #[test]
    fn example7_mgu_keeps_head_variable() {
        // supervisedBy(x, y) ∧ supervisedBy(z, y) with head x: the unifier
        // must keep x (bind z := x), yielding supervisedBy(x, y).
        let x = VarId(0);
        let y = VarId(1);
        let z = VarId(2);
        let a = Atom::Role(RoleId(0), Term::Var(x), Term::Var(y));
        let b = Atom::Role(RoleId(0), Term::Var(z), Term::Var(y));
        let s = mgu_preferring(&a, &b, &[x]).unwrap();
        assert_eq!(
            a.apply(&s),
            Atom::Role(RoleId(0), Term::Var(x), Term::Var(y))
        );
        assert_eq!(s.resolve(Term::Var(z)), Term::Var(x));
    }

    #[test]
    fn preferring_flips_even_when_id_order_disagrees() {
        // Head var has the *larger* id; plain mgu would eliminate it.
        let head = VarId(5);
        let other = VarId(1);
        let a = Atom::Concept(ConceptId(0), Term::Var(head));
        let b = Atom::Concept(ConceptId(0), Term::Var(other));
        let s = mgu_preferring(&a, &b, &[head]).unwrap();
        assert_eq!(s.resolve(Term::Var(other)), Term::Var(head));
    }

    #[test]
    fn identical_atoms_unify_with_empty_subst() {
        let a = Atom::Role(RoleId(0), v(0), v(1));
        let s = mgu(&a, &a).unwrap();
        assert!(s.is_empty());
    }
}
