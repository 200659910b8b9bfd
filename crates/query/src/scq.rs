//! Semi-conjunctive queries (SCQ) and unions thereof (USCQ).
//!
//! Table 4: an SCQ is a join of unions of single-atom CQs —
//! `q(x̄) ← (a¹₁ ∨ · · · ∨ a^k₁) ∧ · · · ∧ (a¹ₙ ∨ · · · ∨ a^kₙ)`.
//! We additionally require all atoms of one disjunctive *slot* to use the
//! same variable set, which keeps each slot translatable to a plain SQL
//! `UNION` of single-table selects (the factorization in
//! `obda-reform::uscq` only merges such atoms).

use std::collections::BTreeSet;
use std::fmt;

use obda_dllite::Vocabulary;

use crate::atom::Atom;
use crate::term::{Term, VarId};

/// One disjunctive slot of an SCQ: `a¹ ∨ · · · ∨ aᵏ`, all over the same
/// variable set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Slot {
    atoms: Vec<Atom>,
}

impl Slot {
    /// Build a slot; panics if the atoms do not share one variable set.
    pub fn new(atoms: Vec<Atom>) -> Self {
        assert!(!atoms.is_empty(), "slot needs at least one atom");
        let first = var_set(&atoms[0]);
        for a in &atoms[1..] {
            assert_eq!(var_set(a), first, "slot atoms must share one variable set");
        }
        Slot { atoms }
    }

    pub fn single(atom: Atom) -> Self {
        Slot { atoms: vec![atom] }
    }

    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The shared variable set of the slot.
    pub fn vars(&self) -> BTreeSet<VarId> {
        var_set(&self.atoms[0])
    }

    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Try to add an atom; fails (returning `false`) if variable sets
    /// differ or the atom is already present.
    pub fn try_push(&mut self, atom: Atom) -> bool {
        if var_set(&atom) != self.vars() || self.atoms.contains(&atom) {
            return false;
        }
        self.atoms.push(atom);
        true
    }
}

fn var_set(a: &Atom) -> BTreeSet<VarId> {
    a.vars().collect()
}

/// A semi-conjunctive query: a conjunction of slots.
#[derive(Clone, Debug, PartialEq)]
pub struct SCQ {
    head: Vec<Term>,
    slots: Vec<Slot>,
}

impl SCQ {
    pub fn new(head: Vec<Term>, slots: Vec<Slot>) -> Self {
        SCQ { head, slots }
    }

    /// The trivial SCQ of a CQ: one singleton slot per atom.
    pub fn from_cq(cq: &crate::cq::CQ) -> Self {
        SCQ {
            head: cq.head().to_vec(),
            slots: cq.atoms().iter().map(|a| Slot::single(*a)).collect(),
        }
    }

    pub fn head(&self) -> &[Term] {
        &self.head
    }

    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of CQs this SCQ is equivalent to (product of slot widths).
    pub fn equivalent_cq_count(&self) -> usize {
        self.slots.iter().map(Slot::len).product()
    }

    pub fn display<'a>(&'a self, voc: &'a Vocabulary) -> impl fmt::Display + 'a {
        struct D<'a>(&'a SCQ, &'a Vocabulary);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                for (i, slot) in self.0.slots.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ^ ")?;
                    }
                    write!(f, "(")?;
                    for (j, a) in slot.atoms.iter().enumerate() {
                        if j > 0 {
                            write!(f, " v ")?;
                        }
                        write!(f, "{}", a.display(self.1))?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
        D(self, voc)
    }
}

/// A union of SCQs.
#[derive(Clone, Debug, PartialEq)]
pub struct USCQ {
    head: Vec<Term>,
    scqs: Vec<SCQ>,
}

impl USCQ {
    /// Member SCQs must share the USCQ head *positionally* (same arity):
    /// like UCQ disjuncts, an SCQ may specialize the nominal head (e.g.
    /// `(x, x)` under a nominal `(x, y)` after a reduce step) — evaluation
    /// projects each SCQ's own head, so position `i` always carries the
    /// nominal variable `i`'s value.
    pub fn new(head: Vec<Term>, scqs: Vec<SCQ>) -> Self {
        for s in &scqs {
            assert_eq!(
                s.head().len(),
                head.len(),
                "all SCQs share the USCQ head arity"
            );
        }
        USCQ { head, scqs }
    }

    pub fn head(&self) -> &[Term] {
        &self.head
    }

    pub fn scqs(&self) -> &[SCQ] {
        &self.scqs
    }

    pub fn len(&self) -> usize {
        self.scqs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.scqs.is_empty()
    }

    /// Number of plain CQs this USCQ covers.
    pub fn equivalent_cq_count(&self) -> usize {
        self.scqs.iter().map(SCQ::equivalent_cq_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::CQ;
    use obda_dllite::{ConceptId, RoleId};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    #[test]
    fn slot_enforces_same_variable_set() {
        let a = Atom::Role(RoleId(0), v(0), v(1));
        let b = Atom::Role(RoleId(1), v(0), v(1));
        let mut slot = Slot::new(vec![a, b]);
        assert_eq!(slot.len(), 2);
        // r2(x, z) has a different variable set.
        assert!(!slot.try_push(Atom::Role(RoleId(2), v(0), v(2))));
        // Swapped positions keep the same *set* — allowed.
        assert!(slot.try_push(Atom::Role(RoleId(2), v(1), v(0))));
        // Duplicates rejected.
        assert!(!slot.try_push(a));
    }

    #[test]
    #[should_panic(expected = "share one variable set")]
    fn slot_constructor_panics_on_mismatch() {
        Slot::new(vec![
            Atom::Role(RoleId(0), v(0), v(1)),
            Atom::Concept(ConceptId(0), v(0)),
        ]);
    }

    #[test]
    fn equivalent_cq_count_is_product() {
        let slot1 = Slot::new(vec![
            Atom::Role(RoleId(0), v(0), v(1)),
            Atom::Role(RoleId(1), v(0), v(1)),
        ]);
        let slot2 = Slot::single(Atom::Concept(ConceptId(0), v(0)));
        let scq = SCQ::new(vec![v(0)], vec![slot1, slot2]);
        assert_eq!(scq.equivalent_cq_count(), 2);
        assert_eq!(crate::FolQuery::Scq(scq.clone()).total_atoms(), 3);
        let uscq = USCQ::new(
            vec![v(0)],
            vec![
                scq.clone(),
                SCQ::new(
                    vec![v(0)],
                    vec![Slot::single(Atom::Concept(ConceptId(1), v(0)))],
                ),
            ],
        );
        assert_eq!(uscq.equivalent_cq_count(), 3);
    }

    #[test]
    fn from_cq_builds_singleton_slots() {
        let cq = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(ConceptId(0), v(0)),
                Atom::Role(RoleId(0), v(0), v(1)),
            ],
        );
        let scq = SCQ::from_cq(&cq);
        assert_eq!(scq.num_slots(), 2);
        assert_eq!(scq.equivalent_cq_count(), 1);
    }
}
