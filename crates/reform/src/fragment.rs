//! Fragment queries of a CQ — Definitions 2 and 7 of the paper.
//!
//! A cover splits a query's atoms into fragments; each fragment induces a
//! *fragment query* whose head exposes exactly the variables the rest of
//! the query needs: the original head variables occurring in the fragment
//! plus the existential variables shared with other fragments.
//!
//! Generalized fragments `f‖g` (Definition 7) carry extra atoms `f ⊇ g`
//! acting as semijoin reducers: the atoms of `f \ g` only filter, so the
//! head is computed from `g` alone.

use std::collections::BTreeSet;

use obda_query::{Term, VarId, CQ};

/// A (generalized) fragment of a query, as atom indices into the query
/// body. Simple fragments have `f == g`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FragmentSpec {
    /// Body atoms of the fragment query (`f`).
    pub f: Vec<usize>,
    /// The "exported" atom set (`g ⊆ f`) determining the head.
    pub g: Vec<usize>,
}

impl FragmentSpec {
    /// A simple fragment (`f == g`).
    pub fn simple(atoms: Vec<usize>) -> Self {
        let mut f = atoms;
        f.sort_unstable();
        f.dedup();
        FragmentSpec { g: f.clone(), f }
    }

    /// A generalized fragment `f‖g`; `g` must be a subset of `f`.
    pub fn generalized(f: Vec<usize>, g: Vec<usize>) -> Self {
        let mut f = f;
        f.sort_unstable();
        f.dedup();
        let mut g = g;
        g.sort_unstable();
        g.dedup();
        debug_assert!(g.iter().all(|i| f.contains(i)), "g ⊆ f violated");
        FragmentSpec { f, g }
    }

    pub fn is_simple(&self) -> bool {
        self.f == self.g
    }

    /// Variables of the `g`-atoms of this fragment.
    pub fn g_vars(&self, q: &CQ) -> BTreeSet<VarId> {
        self.g
            .iter()
            .flat_map(|&i| q.atoms()[i].vars().collect::<Vec<_>>())
            .collect()
    }
}

/// Compute the fragment query `q|f‖g` (Def. 7; Def. 2 when `f == g`).
///
/// Head = original head variables of `q` occurring in `g`'s atoms, plus
/// variables of `g`'s atoms shared with the `g`-atoms of *another*
/// fragment. Head order: original head variables first (in head order),
/// then shared existentials in ascending id — deterministic so downstream
/// joins and SQL are stable.
pub fn fragment_query(q: &CQ, spec: &FragmentSpec, all: &[FragmentSpec]) -> CQ {
    let g_vars = spec.g_vars(q);
    // Vars of other fragments' g-atoms.
    let mut other_vars: BTreeSet<VarId> = BTreeSet::new();
    for other in all {
        if other == spec {
            continue;
        }
        other_vars.extend(other.g_vars(q));
    }

    let mut head: Vec<Term> = Vec::new();
    let mut seen: BTreeSet<VarId> = BTreeSet::new();
    // Original head vars present in g.
    for hv in q.head_vars() {
        if g_vars.contains(&hv) && seen.insert(hv) {
            head.push(Term::Var(hv));
        }
    }
    // Shared existentials.
    for &v in &g_vars {
        if other_vars.contains(&v) && seen.insert(v) {
            head.push(Term::Var(v));
        }
    }

    let atoms = spec.f.iter().map(|&i| q.atoms()[i]).collect();
    CQ::new(head, atoms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::{ConceptId, RoleId};
    use obda_query::Atom;

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    /// Example 6: fragment queries of q(x, y) ← teachesTo(v, x) ∧
    /// teachesTo(v, y) ∧ supervisedBy(x, w) ∧ supervisedBy(y, w) w.r.t.
    /// C = {{teachesTo(v,x), supervisedBy(x,w)}, {teachesTo(v,y),
    /// supervisedBy(y,w)}}.
    #[test]
    fn example6_fragment_queries() {
        let teaches = RoleId(0);
        let sup = RoleId(1);
        // vars: x=0, y=1, v=2, w=3.
        let q = CQ::with_var_head(
            vec![VarId(0), VarId(1)],
            vec![
                Atom::Role(teaches, v(2), v(0)),
                Atom::Role(teaches, v(2), v(1)),
                Atom::Role(sup, v(0), v(3)),
                Atom::Role(sup, v(1), v(3)),
            ],
        );
        let f1 = FragmentSpec::simple(vec![0, 2]);
        let f2 = FragmentSpec::simple(vec![1, 3]);
        let all = [f1.clone(), f2.clone()];
        let q1 = fragment_query(&q, &f1, &all);
        let q2 = fragment_query(&q, &f2, &all);
        // q|f1(x, v, w) — head {x} ∪ shared {v, w}.
        let h1: BTreeSet<VarId> = q1.head_vars().collect();
        assert_eq!(h1, BTreeSet::from([VarId(0), VarId(2), VarId(3)]));
        assert_eq!(q1.num_atoms(), 2);
        // q|f2(y, v, w).
        let h2: BTreeSet<VarId> = q2.head_vars().collect();
        assert_eq!(h2, BTreeSet::from([VarId(1), VarId(2), VarId(3)]));
    }

    /// Example 11: the generalized cover C3 = {f1‖f1, f2‖f0} over
    /// q(x) ← PhDStudent(x) ∧ worksWith(x, y) ∧ supervisedBy(z, y).
    /// Atom order: 0 = PhDStudent(x), 1 = worksWith(x, y),
    /// 2 = supervisedBy(z, y). Vars x=0, y=1, z=2.
    #[test]
    fn example11_generalized_fragment_queries() {
        let phd = ConceptId(0);
        let works = RoleId(0);
        let sup = RoleId(1);
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(phd, v(0)),
                Atom::Role(works, v(0), v(1)),
                Atom::Role(sup, v(2), v(1)),
            ],
        );
        // f0 = {PhDStudent(x)}, f1 = {worksWith, supervisedBy},
        // f2 = {PhDStudent, worksWith}.
        let frag1 = FragmentSpec::generalized(vec![1, 2], vec![1, 2]); // f1‖f1
        let frag2 = FragmentSpec::generalized(vec![0, 1], vec![0]); // f2‖f0
        let all = [frag1.clone(), frag2.clone()];

        // q|f1‖f1(x): y is not exported because the other fragment's g
        // (= f0) does not mention y.
        let q1 = fragment_query(&q, &frag1, &all);
        assert_eq!(q1.head(), &[v(0)]);
        assert_eq!(q1.num_atoms(), 2);

        // q|f2‖f0(x): body = PhDStudent(x) ∧ worksWith(x, y), head (x).
        let q2 = fragment_query(&q, &frag2, &all);
        assert_eq!(q2.head(), &[v(0)]);
        assert_eq!(q2.num_atoms(), 2);
    }

    /// Definition 2 sanity: single-fragment cover exposes exactly the
    /// original head.
    #[test]
    fn trivial_cover_keeps_head() {
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(ConceptId(0), v(0)),
                Atom::Role(RoleId(0), v(0), v(1)),
            ],
        );
        let f = FragmentSpec::simple(vec![0, 1]);
        let fq = fragment_query(&q, &f, &[f.clone()]);
        assert_eq!(fq.head(), q.head());
        assert_eq!(fq.atoms(), q.atoms());
    }

    /// Head variables not occurring in a fragment are not exported by it.
    #[test]
    fn head_var_outside_fragment_not_exported() {
        // q(x, y) ← A(x) ∧ r(x, y).
        let q = CQ::with_var_head(
            vec![VarId(0), VarId(1)],
            vec![
                Atom::Concept(ConceptId(0), v(0)),
                Atom::Role(RoleId(0), v(0), v(1)),
            ],
        );
        let f1 = FragmentSpec::simple(vec![0]);
        let f2 = FragmentSpec::simple(vec![1]);
        let all = [f1.clone(), f2.clone()];
        let q1 = fragment_query(&q, &f1, &all);
        // Fragment {A(x)} exports only x (head var present + shared).
        assert_eq!(q1.head(), &[v(0)]);
        let q2 = fragment_query(&q, &f2, &all);
        // Fragment {r(x, y)} exports x (head+shared) and y (head).
        assert_eq!(q2.head(), &[v(0), v(1)]);
    }

    #[test]
    fn g_subset_invariant() {
        let spec = FragmentSpec::generalized(vec![2, 0, 1], vec![1]);
        assert_eq!(spec.f, vec![0, 1, 2]);
        assert_eq!(spec.g, vec![1]);
        assert!(!spec.is_simple());
        assert!(FragmentSpec::simple(vec![1, 0]).is_simple());
    }
}
