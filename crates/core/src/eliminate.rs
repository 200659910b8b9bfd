//! Atom elimination: before anything is reformulated, drop the query
//! atoms the TBox already implies from another atom of the same query
//! (Gottlob, Orsi, Pieris, arXiv 1405.2848). `Student(x)` next to
//! `takesCourse(x, y)` under `∃takesCourse ⊑ Student` selects nothing the
//! role atom does not, yet PerfectRef specialises it and the cover search
//! partitions it like any other atom.
//!
//! An atom `α` is implied by another atom `β` of the query when
//!
//! * `α = A(t)` and `β` puts `t` into a basic concept `B` with
//!   `T ⊨ B ⊑ A`: `β = B(t)`, or `β = S(t, u)` with `B = ∃S`, or
//!   `β = S(u, t)` with `B = ∃S⁻`;
//! * `α = R(s, t)` and `β` is `S(s, t)` with `T ⊨ S ⊑ R`, or `S(t, s)`
//!   with `T ⊨ S⁻ ⊑ R`;
//! * `α = R(t, y)` (or `R(y, t)`), `y` a variable that occurs nowhere
//!   else in the query, head included, and `β` puts `t` into a `B` with
//!   `T ⊨ B ⊑ ∃R` (or `∃R⁻`). Only a lone `y` may be any individual:
//!   shared, it would have to be the one `β`'s other atoms pick.
//!
//! Entailment walks the TBox's own inclusion index backwards
//! ([`TBox::concept_inclusions_into`], [`TBox::role_inclusions_into`],
//! `S ⊑ R` read as `∃S ⊑ ∃R` too): sound, and complete for the positive
//! inclusions between basic concepts and roles that PerfectRef applies,
//! at a few index lookups per atom. Nothing is saturated per TBox.
//!
//! Each step removes one atom implied by an atom that stays, so the
//! result is `T`-equivalent to the query and has the same head.

use obda_dllite::{BasicConcept, Role, TBox};
use obda_query::{Atom, Term, CQ};

/// `q` without the atoms `tbox` implies from the atoms it keeps: the
/// first implied atom is removed, then the next in the smaller query,
/// until none is. The head and the order of the kept atoms are `q`'s.
pub fn eliminate_implied_atoms(q: &CQ, tbox: &TBox) -> CQ {
    let mut atoms = q.atoms().to_vec();
    let mut below: Vec<Below> = atoms.iter().map(|&a| Below::of(a, tbox)).collect();
    while let Some(i) = (0..atoms.len()).find(|&i| below[i].implies(i, &atoms, q.head())) {
        atoms.remove(i);
        below.remove(i);
    }
    CQ::from_distinct(q.head().to_vec(), atoms)
}

/// An atom's terms, and what it follows from under the TBox.
enum Below {
    /// `A(t)`: every basic concept `B` with `T ⊨ B ⊑ A`.
    Concept { t: Term, from: Vec<BasicConcept> },
    /// `R(s, t)`: every role `P` with `T ⊨ P ⊑ R`, and every basic
    /// concept below `∃R` (for a lone `t`) and below `∃R⁻` (for a lone
    /// `s`).
    Role {
        s: Term,
        t: Term,
        roles: Vec<Role>,
        subject: Vec<BasicConcept>,
        object: Vec<BasicConcept>,
    },
}

impl Below {
    fn of(atom: Atom, tbox: &TBox) -> Below {
        match atom {
            Atom::Concept(a, t) => Below::Concept {
                t,
                from: concepts_below(tbox, BasicConcept::Atomic(a)),
            },
            Atom::Role(r, s, t) => Below::Role {
                s,
                t,
                roles: roles_below(tbox, Role::direct(r)),
                subject: concepts_below(tbox, BasicConcept::Exists(Role::direct(r))),
                object: concepts_below(tbox, BasicConcept::Exists(Role::inv(r))),
            },
        }
    }

    /// Does another atom of `atoms` imply `atoms[i]`, whose `Below` this is?
    fn implies(&self, i: usize, atoms: &[Atom], head: &[Term]) -> bool {
        let mut others = atoms[..i].iter().chain(&atoms[i + 1..]);
        match *self {
            Below::Concept { t, ref from } => others.any(|b| puts_in(b, t, from)),
            Below::Role {
                s,
                t,
                ref roles,
                ref subject,
                ref object,
            } => {
                let (lone_s, lone_t) = (lone(s, atoms, head), lone(t, atoms, head));
                others.any(|b| {
                    let same_pairs = match *b {
                        Atom::Role(p, u, v) => {
                            (u, v) == (s, t) && roles.contains(&Role::direct(p))
                                || (u, v) == (t, s) && roles.contains(&Role::inv(p))
                        }
                        Atom::Concept(..) => false,
                    };
                    same_pairs
                        || lone_t && puts_in(b, s, subject)
                        || lone_s && puts_in(b, t, object)
                })
            }
        }
    }
}

/// Does atom `b` put `t` into one of `concepts`?
fn puts_in(b: &Atom, t: Term, concepts: &[BasicConcept]) -> bool {
    match *b {
        Atom::Concept(c, u) => u == t && concepts.contains(&BasicConcept::Atomic(c)),
        Atom::Role(p, u, v) => {
            u == t && concepts.contains(&BasicConcept::Exists(Role::direct(p)))
                || v == t && concepts.contains(&BasicConcept::Exists(Role::inv(p)))
        }
    }
}

/// Is `t` a variable with one occurrence in the body and none in the head?
fn lone(t: Term, atoms: &[Atom], head: &[Term]) -> bool {
    let occurrences = atoms.iter().flat_map(Atom::terms).filter(|&u| u == t);
    t.as_var().is_some() && !head.contains(&t) && occurrences.count() == 1
}

/// The roles `P` with `P ⊑ r` told, `r` itself first.
fn roles_into(tbox: &TBox, r: Role) -> impl Iterator<Item = Role> + '_ {
    // The index holds inclusions with a direct right-hand side; into
    // `R⁻` means the inverse of one into `R`.
    let subs = tbox.role_inclusions_into(r.name).iter();
    subs.map(move |ri| if r.inverse { ri.lhs.inverted() } else { ri.lhs })
}

/// Every role `P` with `T ⊨ P ⊑ top`, `top` included.
fn roles_below(tbox: &TBox, top: Role) -> Vec<Role> {
    let mut found = vec![top];
    let mut next = 0;
    while let Some(&r) = found.get(next) {
        next += 1;
        for sub in roles_into(tbox, r) {
            if !found.contains(&sub) {
                found.push(sub);
            }
        }
    }
    found
}

/// Every basic concept `B` with `T ⊨ B ⊑ top`, `top` included: the told
/// inclusions into each one found, and `∃S ⊑ ∃R` for every `S ⊑ R`.
fn concepts_below(tbox: &TBox, top: BasicConcept) -> Vec<BasicConcept> {
    let mut found = vec![top];
    let mut next = 0;
    while let Some(&c) = found.get(next) {
        next += 1;
        let told = tbox.concept_inclusions_into(c).iter().map(|ci| ci.lhs);
        let via_roles = match c {
            BasicConcept::Exists(r) => Some(roles_into(tbox, r).map(BasicConcept::Exists)),
            BasicConcept::Atomic(_) => None,
        };
        for sub in told.chain(via_roles.into_iter().flatten()) {
            if !found.contains(&sub) {
                found.push(sub);
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::TBoxBuilder;
    use obda_query::VarId;

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    /// `PhDStudent ⊑ Student`, `∃takesCourse ⊑ Student`,
    /// `∃teacherOf⁻ ⊑ Course`, `Professor ⊑ ∃teacherOf`,
    /// `headOf ⊑ worksFor`, `advisor ⊑ knows⁻`.
    fn builder() -> TBoxBuilder {
        let mut b = TBoxBuilder::new();
        b.sub("PhDStudent", "Student")
            .sub("exists takesCourse", "Student")
            .sub("exists teacherOf-", "Course")
            .sub("Professor", "exists teacherOf")
            .sub_role("headOf", "worksFor")
            .sub_role("advisor", "knows-");
        b
    }

    fn kept(b: &mut TBoxBuilder, head: &[u32], atoms: &[(&str, &[Term])]) -> Vec<usize> {
        let body: Vec<Atom> = atoms
            .iter()
            .map(|(name, terms)| match terms {
                [t] => Atom::Concept(b.voc.concept(name), *t),
                [s, t] => Atom::Role(b.voc.role(name), *s, *t),
                _ => unreachable!(),
            })
            .collect();
        let q = CQ::with_var_head(head.iter().map(|&i| VarId(i)).collect(), body.clone());
        let reduced = eliminate_implied_atoms(&q, &b.tbox);
        assert_eq!(reduced.head(), q.head());
        reduced
            .atoms()
            .iter()
            .map(|a| body.iter().position(|b| b == a).unwrap())
            .collect()
    }

    #[test]
    fn concept_atoms_implied_on_the_same_term_go() {
        let mut b = builder();
        let q = [("Student", &[v(0)][..]), ("PhDStudent", &[v(0)][..])];
        assert_eq!(kept(&mut b, &[0], &q), [1]);
        let q = [("Student", &[v(0)][..]), ("takesCourse", &[v(0), v(1)][..])];
        assert_eq!(kept(&mut b, &[0, 1], &q), [1]);
        let q = [("Course", &[v(1)][..]), ("teacherOf", &[v(0), v(1)][..])];
        assert_eq!(kept(&mut b, &[0], &q), [1], "∃teacherOf⁻ ⊑ Course");
    }

    #[test]
    fn the_implying_term_must_sit_in_the_implying_position() {
        let mut b = builder();
        let q = [("Student", &[v(1)][..]), ("takesCourse", &[v(0), v(1)][..])];
        assert_eq!(kept(&mut b, &[0], &q), [0, 1], "∃takesCourse⁻ ⋢ Student");
        let q = [("Course", &[v(0)][..]), ("teacherOf", &[v(0), v(1)][..])];
        assert_eq!(kept(&mut b, &[0], &q), [0, 1], "∃teacherOf ⋢ Course");
        let q = [
            ("worksFor", &[v(1), v(0)][..]),
            ("headOf", &[v(0), v(1)][..]),
        ];
        assert_eq!(kept(&mut b, &[0], &q), [0, 1], "headOf⁻ ⋢ worksFor");
    }

    #[test]
    fn role_atoms_implied_on_the_same_pair_go() {
        let mut b = builder();
        let q = [
            ("worksFor", &[v(0), v(1)][..]),
            ("headOf", &[v(0), v(1)][..]),
        ];
        assert_eq!(kept(&mut b, &[0, 1], &q), [1]);
        let q = [("knows", &[v(1), v(0)][..]), ("advisor", &[v(0), v(1)][..])];
        assert_eq!(kept(&mut b, &[0, 1], &q), [1], "advisor ⊑ knows⁻");
    }

    #[test]
    fn an_existential_atom_goes_only_on_a_lone_variable() {
        let mut b = builder();
        let q = [("Professor", &[v(0)][..]), ("teacherOf", &[v(0), v(1)][..])];
        assert_eq!(kept(&mut b, &[0], &q), [0], "y is lone");
        assert_eq!(kept(&mut b, &[0, 1], &q), [0, 1], "y is an answer");
        let q = [
            ("Professor", &[v(0)][..]),
            ("teacherOf", &[v(0), v(1)][..]),
            ("Seminar", &[v(1)][..]),
        ];
        assert_eq!(kept(&mut b, &[0], &q), [0, 1, 2], "y is joined");
        let q = [("Professor", &[v(1)][..]), ("teacherOf", &[v(0), v(1)][..])];
        assert_eq!(
            kept(&mut b, &[0], &q),
            [0, 1],
            "∃teacherOf⁻ is not ∃teacherOf"
        );
    }

    #[test]
    fn elimination_repeats_on_the_smaller_query() {
        // Course(y) goes for teacherOf(x, y); then y is lone and
        // teacherOf(x, y) goes for Professor(x).
        let mut b = builder();
        let q = [
            ("teacherOf", &[v(0), v(1)][..]),
            ("Professor", &[v(0)][..]),
            ("Course", &[v(1)][..]),
        ];
        assert_eq!(kept(&mut b, &[0], &q), [1]);
    }

    #[test]
    fn role_inclusions_carry_existentials_through_chains() {
        // ∃headOf ⊑ ∃worksFor, and ∃advisor ⊑ ∃knows⁻.
        let mut b = builder();
        let q = [
            ("worksFor", &[v(0), v(2)][..]),
            ("headOf", &[v(0), v(1)][..]),
        ];
        assert_eq!(kept(&mut b, &[0, 1], &q), [1]);
        let q = [("knows", &[v(2), v(0)][..]), ("advisor", &[v(0), v(1)][..])];
        assert_eq!(kept(&mut b, &[0, 1], &q), [1]);
        let q = [("knows", &[v(0), v(2)][..]), ("advisor", &[v(0), v(1)][..])];
        assert_eq!(kept(&mut b, &[0, 1], &q), [0, 1]);
    }

    #[test]
    fn a_lone_atom_stays() {
        let mut b = builder();
        assert_eq!(kept(&mut b, &[0], &[("Student", &[v(0)][..])]), [0]);
    }
}
