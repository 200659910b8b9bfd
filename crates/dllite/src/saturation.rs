//! TBox saturation: the deductive closure of a DL-LiteR TBox.
//!
//! Computes all concept/role inclusions (positive and negative) entailed by
//! a TBox, enabling the entailment checks of paper Example 2 (e.g.
//! `K ⊨ ∃supervisedBy ⊑ ¬∃supervisedBy⁻` from (T6) + (T7)).
//!
//! Saturation rules (standard for DL-LiteR, cf. the paper's technical
//! report \[8\]):
//!
//! 1. `B1 ⊑ B2, B2 ⊑ B3 ⊢ B1 ⊑ B3` (transitivity on basic concepts)
//! 2. `R1 ⊑ R2, R2 ⊑ R3 ⊢ R1 ⊑ R3` (transitivity on roles), with the
//!    inverse closure `R1 ⊑ R2 ⊢ R1⁻ ⊑ R2⁻`
//! 3. `R1 ⊑ R2 ⊢ ∃R1 ⊑ ∃R2` and `∃R1⁻ ⊑ ∃R2⁻`
//! 4. `B1 ⊑ B2, B2 ⊑ ¬B3 ⊢ B1 ⊑ ¬B3`
//! 5. `B ⊑ ¬B' ⊢ B' ⊑ ¬B` (disjointness is symmetric)
//! 6. `R1 ⊑ R2, R2 ⊑ ¬R3 ⊢ R1 ⊑ ¬R3`, and role-disjointness symmetry and
//!    inverse closure.
//!
//! Note rule 3 together with rule 1 derives e.g. `B ⊑ ∃S` from `B ⊑ ∃R`
//! and `R ⊑ S`.

use std::collections::HashSet;

use crate::axiom::Axiom;
use crate::expr::{BasicConcept, Role};
use crate::tbox::TBox;

/// The deductive closure of a TBox, as explicit relation sets.
///
/// Role inclusions are stored in *both* orientations (`(l, r)` and
/// `(l⁻, r⁻)`), so lookups need no normalization.
#[derive(Debug, Default)]
pub struct TBoxClosure {
    pos_concept: HashSet<(BasicConcept, BasicConcept)>,
    neg_concept: HashSet<(BasicConcept, BasicConcept)>,
    pos_role: HashSet<(Role, Role)>,
    neg_role: HashSet<(Role, Role)>,
}

impl TBoxClosure {
    /// Saturate `tbox`.
    pub fn compute(tbox: &TBox) -> Self {
        let mut c = TBoxClosure::default();
        let mut agenda: Vec<Item> = Vec::new();
        for ax in tbox.axioms() {
            for item in Item::from_axiom(ax) {
                c.push(item, &mut agenda);
            }
        }
        while let Some(item) = agenda.pop() {
            let derived = c.combine(item);
            for d in derived {
                c.push(d, &mut agenda);
            }
        }
        c
    }

    /// `K ⊨ B1 ⊑ B2`? (Reflexivity included.)
    pub fn entails_concept_inclusion(&self, b1: BasicConcept, b2: BasicConcept) -> bool {
        b1 == b2 || self.pos_concept.contains(&(b1, b2))
    }

    /// `K ⊨ B1 ⊑ ¬B2`?
    pub fn entails_concept_disjointness(&self, b1: BasicConcept, b2: BasicConcept) -> bool {
        self.neg_concept.contains(&(b1, b2))
    }

    /// `K ⊨ R1 ⊑ R2`? (Reflexivity included.)
    pub fn entails_role_inclusion(&self, r1: Role, r2: Role) -> bool {
        r1 == r2 || self.pos_role.contains(&(r1, r2))
    }

    /// `K ⊨ R1 ⊑ ¬R2`?
    pub fn entails_role_disjointness(&self, r1: Role, r2: Role) -> bool {
        self.neg_role.contains(&(r1, r2))
    }

    /// All entailed positive concept inclusions (the non-reflexive ones).
    /// The constraint miner walks these: they are exactly the
    /// specialization edges PerfectRef can introduce between union arms,
    /// so data-level extent comparisons outside this set can never be
    /// consulted by constraint-driven pruning.
    pub fn positive_concept_inclusions(
        &self,
    ) -> impl Iterator<Item = (BasicConcept, BasicConcept)> + '_ {
        self.pos_concept.iter().copied()
    }

    /// All entailed positive role inclusions (both orientations, as
    /// stored).
    pub fn positive_role_inclusions(&self) -> impl Iterator<Item = (Role, Role)> + '_ {
        self.pos_role.iter().copied()
    }

    pub fn num_positive_concept(&self) -> usize {
        self.pos_concept.len()
    }

    pub fn num_positive_role(&self) -> usize {
        self.pos_role.len()
    }

    fn push(&mut self, item: Item, agenda: &mut Vec<Item>) {
        let new = match item {
            Item::PosC(a, b) => a != b && self.pos_concept.insert((a, b)),
            Item::NegC(a, b) => self.neg_concept.insert((a, b)),
            Item::PosR(a, b) => a != b && self.pos_role.insert((a, b)),
            Item::NegR(a, b) => self.neg_role.insert((a, b)),
        };
        if new {
            agenda.push(item);
        }
    }

    /// All items derivable by combining `item` with the current closure
    /// (one application of each rule).
    fn combine(&self, item: Item) -> Vec<Item> {
        let mut out = Vec::new();
        match item {
            Item::PosC(b1, b2) => {
                // rule 1 both directions, rule 4.
                for &(x, y) in &self.pos_concept {
                    if x == b2 {
                        out.push(Item::PosC(b1, y));
                    }
                    if y == b1 {
                        out.push(Item::PosC(x, b2));
                    }
                }
                for &(x, y) in &self.neg_concept {
                    if x == b2 {
                        out.push(Item::NegC(b1, y));
                    }
                }
            }
            Item::NegC(b1, b2) => {
                // rule 5 symmetry; rule 4 with existing positives.
                out.push(Item::NegC(b2, b1));
                for &(x, y) in &self.pos_concept {
                    if y == b1 {
                        out.push(Item::NegC(x, b2));
                    }
                }
            }
            Item::PosR(r1, r2) => {
                // inverse closure.
                out.push(Item::PosR(r1.inverted(), r2.inverted()));
                // rule 3: ∃-lift.
                out.push(Item::PosC(
                    BasicConcept::Exists(r1),
                    BasicConcept::Exists(r2),
                ));
                // rule 2 both directions.
                for &(x, y) in &self.pos_role {
                    if x == r2 {
                        out.push(Item::PosR(r1, y));
                    }
                    if y == r1 {
                        out.push(Item::PosR(x, r2));
                    }
                }
                // rule 6 with existing negatives.
                for &(x, y) in &self.neg_role {
                    if x == r2 {
                        out.push(Item::NegR(r1, y));
                    }
                }
            }
            Item::NegR(r1, r2) => {
                out.push(Item::NegR(r2, r1));
                out.push(Item::NegR(r1.inverted(), r2.inverted()));
                for &(x, y) in &self.pos_role {
                    if y == r1 {
                        out.push(Item::NegR(x, r2));
                    }
                }
            }
        }
        out
    }
}

/// A closure item: one inclusion of one of the four kinds.
#[derive(Clone, Copy, Debug)]
enum Item {
    PosC(BasicConcept, BasicConcept),
    NegC(BasicConcept, BasicConcept),
    PosR(Role, Role),
    NegR(Role, Role),
}

impl Item {
    fn from_axiom(ax: &Axiom) -> Vec<Item> {
        match *ax {
            Axiom::Concept(ci) if !ci.negated => vec![Item::PosC(ci.lhs, ci.rhs)],
            Axiom::Concept(ci) => vec![Item::NegC(ci.lhs, ci.rhs)],
            Axiom::Role(ri) if !ri.negated => vec![Item::PosR(ri.lhs, ri.rhs)],
            Axiom::Role(ri) => vec![Item::NegR(ri.lhs, ri.rhs)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tbox::{example1_tbox, TBoxBuilder};

    /// Example 2, first bullet: ∃supervisedBy ⊑ ¬∃supervisedBy⁻ from
    /// (T6) + (T7).
    #[test]
    fn example2_negative_entailment() {
        let (voc, tbox) = example1_tbox();
        let closure = TBoxClosure::compute(&tbox);
        let sup = voc.find_role("supervisedBy").unwrap();
        let lhs = BasicConcept::Exists(Role::direct(sup));
        let rhs = BasicConcept::Exists(Role::inv(sup));
        assert!(closure.entails_concept_disjointness(lhs, rhs));
        // And by symmetry:
        assert!(closure.entails_concept_disjointness(rhs, lhs));
    }

    #[test]
    fn transitive_concept_chain() {
        let mut b = TBoxBuilder::new();
        b.sub("A", "B").sub("B", "C").sub("C", "D");
        let (voc, tbox) = b.finish();
        let closure = TBoxClosure::compute(&tbox);
        let a = BasicConcept::Atomic(voc.find_concept("A").unwrap());
        let d = BasicConcept::Atomic(voc.find_concept("D").unwrap());
        assert!(closure.entails_concept_inclusion(a, d));
        assert!(!closure.entails_concept_inclusion(d, a));
    }

    #[test]
    fn role_transitivity_through_inverses() {
        // r ⊑ s⁻ and s ⊑ t gives r ⊑ t⁻ (via s⁻ ⊑ t⁻).
        let mut b = TBoxBuilder::new();
        b.sub_role("r", "s-").sub_role("s", "t");
        let (voc, tbox) = b.finish();
        let closure = TBoxClosure::compute(&tbox);
        let r = Role::direct(voc.find_role("r").unwrap());
        let t = Role::direct(voc.find_role("t").unwrap());
        assert!(closure.entails_role_inclusion(r, t.inverted()));
        assert!(closure.entails_role_inclusion(r.inverted(), t));
        assert!(!closure.entails_role_inclusion(r, t));
    }

    #[test]
    fn exists_lift_composes_with_concept_chain() {
        // B ⊑ ∃r, r ⊑ s ⊢ B ⊑ ∃s.
        let mut b = TBoxBuilder::new();
        b.sub("B", "exists r").sub_role("r", "s");
        let (voc, tbox) = b.finish();
        let closure = TBoxClosure::compute(&tbox);
        let bb = BasicConcept::Atomic(voc.find_concept("B").unwrap());
        let s = voc.find_role("s").unwrap();
        assert!(closure.entails_concept_inclusion(bb, BasicConcept::Exists(Role::direct(s))));
        assert!(!closure.entails_concept_inclusion(bb, BasicConcept::Exists(Role::inv(s))));
    }

    #[test]
    fn reflexivity_is_implicit() {
        let (voc, tbox) = example1_tbox();
        let closure = TBoxClosure::compute(&tbox);
        let phd = BasicConcept::Atomic(voc.find_concept("PhDStudent").unwrap());
        assert!(closure.entails_concept_inclusion(phd, phd));
    }

    #[test]
    fn negative_propagates_down_role_hierarchy() {
        // r ⊑ s, s ⊑ ¬t ⊢ r ⊑ ¬t, and symmetric t ⊑ ¬r.
        let mut b = TBoxBuilder::new();
        b.sub_role("r", "s").disjoint_role("s", "t");
        let (voc, tbox) = b.finish();
        let closure = TBoxClosure::compute(&tbox);
        let r = Role::direct(voc.find_role("r").unwrap());
        let t = Role::direct(voc.find_role("t").unwrap());
        assert!(closure.entails_role_disjointness(r, t));
        assert!(closure.entails_role_disjointness(t, r));
        assert!(closure.entails_role_disjointness(r.inverted(), t.inverted()));
    }

    #[test]
    fn example1_closure_counts_are_stable() {
        // Regression guard: the Example-1 closure has a fixed size.
        let (_, tbox) = example1_tbox();
        let closure = TBoxClosure::compute(&tbox);
        assert!(closure.num_positive_concept() >= 6);
        assert!(closure.num_positive_role() >= 2);
    }
}
