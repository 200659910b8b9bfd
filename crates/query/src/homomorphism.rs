//! Homomorphisms between conjunctive queries, and CQ/UCQ containment.
//!
//! `q1 ⊑ q2` (every answer of `q1` is an answer of `q2` over every
//! database) iff there is a homomorphism from `q2` into `q1` mapping head
//! to head positionally (Chandra–Merlin). Containment drives UCQ
//! minimization (§2.3: "minimizing qUCQ by eliminating disjuncts contained
//! in another").

use std::cmp::Reverse;

use crate::atom::Atom;
use crate::cq::{PredSig, CQ};
use crate::term::{Term, VarId};

/// A variable assignment, in the order the search bound the variables.
///
/// During the search it doubles as the undo trail: binding pushes,
/// backtracking truncates. Queries here have a few dozen variables at
/// most, so a linear scan beats hashing.
pub type Assignment = Vec<(VarId, Term)>;

fn lookup(assign: &Assignment, v: VarId) -> Option<Term> {
    assign.iter().find(|(w, _)| *w == v).map(|&(_, t)| t)
}

/// Find a homomorphism from `from` into `to`: a mapping `h` of `from`'s
/// variables to `to`'s terms such that every atom of `from` lands on an
/// atom of `to`, and `h(head(from)) == head(to)` positionally.
///
/// Returns the assignment if one exists. This is the one containment
/// kernel: [`contained_in`], [`equivalent`], [`contained_in_union`],
/// `cq_core`, `minimize_ucq` and PerfectRef's forward subsumption all end
/// here. Most pairs they ask about do not share their predicates, so the
/// signature test comes first and allocates nothing. A search that is
/// entered here allocates its assignment and atom order; callers that
/// search many pairs keep a [`Homomorphisms`] instead, which reuses them.
pub fn homomorphism(from: &CQ, to: &CQ) -> Option<Assignment> {
    let mut homs = Homomorphisms::new();
    homs.exists(from, to)
        .then(|| std::mem::take(&mut homs.assign))
}

/// The homomorphism search with buffers that outlive one search: once
/// the first searches have sized them, a search allocates nothing.
#[derive(Debug, Default)]
pub struct Homomorphisms {
    assign: Assignment,
    /// `from`'s atoms in search order, with their sort keys.
    order: Vec<(Reverse<usize>, usize, Atom)>,
}

impl Homomorphisms {
    pub fn new() -> Self {
        Self::default()
    }

    /// Is there a homomorphism from `from` into `to` (see
    /// [`homomorphism`])?
    pub fn exists(&mut self, from: &CQ, to: &CQ) -> bool {
        self.search(from, to.head(), to.atoms(), to.signature(), None)
    }

    /// `q1 ⊑ q2`, as [`contained_in`].
    pub fn contained_in(&mut self, q1: &CQ, q2: &CQ) -> bool {
        self.exists(q2, q1)
    }

    /// Is there a homomorphism from `q` into `q` without its atom `skip`?
    /// Then that atom is redundant — the step of `cq_core` — and the
    /// smaller query need not be built to find out.
    pub fn folds_without(&mut self, q: &CQ, skip: usize) -> bool {
        let rest = q.atoms().iter().enumerate().filter(|&(i, _)| i != skip);
        let sig = PredSig::of_iter(rest.map(|(_, a)| a));
        self.search(q, q.head(), q.atoms(), sig, Some(skip))
    }

    /// The search behind every entry point: `from` into the query
    /// `to_head ← to_atoms` (minus the atom at `skip`), whose body has
    /// the signature `to_sig`.
    fn search(
        &mut self,
        from: &CQ,
        to_head: &[Term],
        to_atoms: &[Atom],
        to_sig: PredSig,
        skip: Option<usize>,
    ) -> bool {
        if !from.signature().is_subset_of(to_sig) || from.head().len() != to_head.len() {
            return false;
        }
        let assign = &mut self.assign;
        assign.clear();
        // Seed with the head mapping.
        for (&ft, &tt) in from.head().iter().zip(to_head) {
            if !bind(ft, tt, assign) {
                return false;
            }
        }
        // Order atoms: most-constrained first (more already-assigned
        // variables, then rarer predicates in `to`).
        let targets = || {
            to_atoms
                .iter()
                .enumerate()
                .filter(move |&(i, _)| Some(i) != skip)
                .map(|(_, t)| t)
        };
        self.order.clear();
        for a in from.atoms() {
            let assigned = a.vars().filter(|&v| lookup(assign, v).is_some()).count();
            let candidates = targets().filter(|t| t.pred() == a.pred()).count();
            if candidates == 0 {
                return false; // signatures collided
            }
            self.order.push((Reverse(assigned), candidates, *a));
        }
        self.order
            .sort_by_key(|&(assigned, candidates, _)| (assigned, candidates));
        search(&self.order, to_atoms, skip, assign)
    }
}

fn search(
    order: &[(Reverse<usize>, usize, Atom)],
    targets: &[Atom],
    skip: Option<usize>,
    assign: &mut Assignment,
) -> bool {
    let Some((&(_, _, atom), rest)) = order.split_first() else {
        return true;
    };
    let mark = assign.len();
    for (i, target) in targets.iter().enumerate() {
        if Some(i) != skip && map_atom(&atom, target, assign) && search(rest, targets, skip, assign)
        {
            return true;
        }
        assign.truncate(mark);
    }
    false
}

/// Extend `assign` so that `atom` maps onto `target`. On conflict returns
/// false and may leave bindings behind for the caller to truncate.
fn map_atom(atom: &Atom, target: &Atom, assign: &mut Assignment) -> bool {
    match (atom, target) {
        (Atom::Concept(c, t), Atom::Concept(d, u)) => c == d && bind(*t, *u, assign),
        (Atom::Role(r, t1, t2), Atom::Role(s, u1, u2)) => {
            r == s && bind(*t1, *u1, assign) && bind(*t2, *u2, assign)
        }
        _ => false,
    }
}

/// Require `h(t) == u`, binding `t` if it is a still-free variable.
fn bind(t: Term, u: Term, assign: &mut Assignment) -> bool {
    match t {
        Term::Const(_) => t == u,
        Term::Var(v) => match lookup(assign, v) {
            Some(prev) => prev == u,
            None => {
                assign.push((v, u));
                true
            }
        },
    }
}

/// `q1 ⊑ q2`: is every answer of `q1` also an answer of `q2`, over every
/// database?
pub fn contained_in(q1: &CQ, q2: &CQ) -> bool {
    Homomorphisms::new().contained_in(q1, q2)
}

/// `q1 ≡ q2`: mutual containment.
pub fn equivalent(q1: &CQ, q2: &CQ) -> bool {
    contained_in(q1, q2) && contained_in(q2, q1)
}

/// Is `cq` contained in the union of `disjuncts`? For plain CQs (no
/// interpreted predicates), containment in a union implies containment in a
/// single disjunct (Sagiv–Yannakakis), so this is a linear scan.
pub fn contained_in_union(cq: &CQ, disjuncts: &[CQ]) -> bool {
    disjuncts.iter().any(|d| contained_in(cq, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::{ConceptId, IndividualId, RoleId};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    #[test]
    fn specialization_is_contained() {
        // q2(x) ← worksWith(y, x) contains q1(x) ← supervisedBy… no —
        // same predicate case: q_sup(x) ← r(x, y) ∧ A(x) is contained in
        // q_gen(x) ← r(x, y).
        let q_gen = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(1))]);
        let q_spec = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(RoleId(0), v(0), v(1)),
                Atom::Concept(ConceptId(0), v(0)),
            ],
        );
        assert!(contained_in(&q_spec, &q_gen));
        assert!(!contained_in(&q_gen, &q_spec));
    }

    #[test]
    fn table5_q9_contained_in_q10() {
        // q9(x) ← supervisedBy(x, x) is contained in
        // q10(x) ← supervisedBy(x, y) (paper Table 5 / §2.3: q1..q9 are all
        // contained in q10).
        let q9 = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(0))]);
        let q10 = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(1))]);
        assert!(contained_in(&q9, &q10));
        assert!(!contained_in(&q10, &q9));
    }

    #[test]
    fn head_positions_must_align() {
        // q(x, y) ← r(x, y) vs q(y, x) ← r(x, y): not equivalent.
        let a = CQ::with_var_head(
            vec![VarId(0), VarId(1)],
            vec![Atom::Role(RoleId(0), v(0), v(1))],
        );
        let b = CQ::with_var_head(
            vec![VarId(1), VarId(0)],
            vec![Atom::Role(RoleId(0), v(0), v(1))],
        );
        assert!(!contained_in(&a, &b));
        assert!(!contained_in(&b, &a));
        assert!(equivalent(&a, &a));
    }

    #[test]
    fn constants_must_match() {
        let qc = CQ::new(
            vec![Term::Var(VarId(0))],
            vec![Atom::Role(RoleId(0), v(0), Term::Const(IndividualId(5)))],
        );
        let qv = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(1))]);
        // Constant query is a specialization of the variable query.
        assert!(contained_in(&qc, &qv));
        assert!(!contained_in(&qv, &qc));
    }

    #[test]
    fn folding_two_atoms_onto_one() {
        // q_two(x) ← r(x, y) ∧ r(x, z) ≡ q_one(x) ← r(x, y): hom maps both
        // atoms onto the single one.
        let q_two = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(RoleId(0), v(0), v(1)),
                Atom::Role(RoleId(0), v(0), v(2)),
            ],
        );
        let q_one = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(1))]);
        assert!(equivalent(&q_two, &q_one));
    }

    #[test]
    fn path_not_contained_in_cycle_query() {
        // q_cycle(x) ← r(x, x); q_path(x) ← r(x, y). cycle ⊑ path but not
        // conversely.
        let q_cycle = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(0))]);
        let q_path = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(1))]);
        assert!(contained_in(&q_cycle, &q_path));
        assert!(!contained_in(&q_path, &q_cycle));
    }

    #[test]
    fn union_containment_scans_disjuncts() {
        let q = CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(0), v(0))]);
        let d1 = CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(1), v(0))]);
        let d2 = CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(0), v(0))]);
        assert!(contained_in_union(&q, &[d1.clone(), d2]));
        assert!(!contained_in_union(&q, &[d1]));
    }

    #[test]
    fn boolean_queries() {
        let q1 = CQ::with_var_head(vec![], vec![Atom::Role(RoleId(0), v(0), v(1))]);
        let q2 = CQ::with_var_head(vec![], vec![Atom::Role(RoleId(0), v(0), v(0))]);
        assert!(contained_in(&q2, &q1));
        assert!(!contained_in(&q1, &q2));
    }
}
