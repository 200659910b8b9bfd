//! The three shapes behind Table 4's six dialects.
//!
//! The dialects come in pairs that evaluate, price and print alike:
//! CQ/SCQ are **conjunctions** (of atoms, or of disjunctive slots),
//! UCQ/USCQ **unions** of them, and JUCQ/JUSCQ **joins** of unions (§3's
//! `WITH … AS` shape). Code that walks a query is written once per shape
//! against these traits, and [`FolQuery::visit`](crate::FolQuery::visit)
//! is the one place that tells the six dialects apart.

use crate::atom::Atom;
use crate::cq::CQ;
use crate::jucq::{JUCQ, JUSCQ};
use crate::scq::{Slot, SCQ, USCQ};
use crate::term::Term;
use crate::ucq::UCQ;

/// One conjunct of a conjunction: a disjunctive [`Slot`], or a single
/// [`Atom`] (a CQ's body is read in place, as its atoms' singleton slots
/// would be).
pub trait Conjunct {
    fn atoms(&self) -> &[Atom];
}

impl Conjunct for Slot {
    fn atoms(&self) -> &[Atom] {
        Slot::atoms(self)
    }
}

impl Conjunct for Atom {
    fn atoms(&self) -> &[Atom] {
        std::slice::from_ref(self)
    }
}

/// A conjunction projecting its head: a CQ over its atoms, or an SCQ
/// over its slots.
pub trait Conjunction: Sync {
    type Conjunct: Conjunct;
    fn body(&self) -> &[Self::Conjunct];
    fn head(&self) -> &[Term];
}

impl Conjunction for CQ {
    type Conjunct = Atom;
    fn body(&self) -> &[Atom] {
        self.atoms()
    }
    fn head(&self) -> &[Term] {
        CQ::head(self)
    }
}

impl Conjunction for SCQ {
    type Conjunct = Slot;
    fn body(&self) -> &[Slot] {
        self.slots()
    }
    fn head(&self) -> &[Term] {
        SCQ::head(self)
    }
}

/// A union of conjunctions: a UCQ, or a USCQ.
pub trait Union: Sync {
    type Arm: Conjunction;
    fn arms(&self) -> &[Self::Arm];
    fn head(&self) -> &[Term];
    /// The number of CQs the union flattens to (a UCQ's is its length).
    fn equivalent_cq_count(&self) -> usize;
}

impl Union for UCQ {
    type Arm = CQ;
    fn arms(&self) -> &[CQ] {
        self.cqs()
    }
    fn head(&self) -> &[Term] {
        UCQ::head(self)
    }
    fn equivalent_cq_count(&self) -> usize {
        self.len()
    }
}

impl Union for USCQ {
    type Arm = SCQ;
    fn arms(&self) -> &[SCQ] {
        self.scqs()
    }
    fn head(&self) -> &[Term] {
        USCQ::head(self)
    }
    fn equivalent_cq_count(&self) -> usize {
        USCQ::equivalent_cq_count(self)
    }
}

/// A join of unions on their shared head variables: a JUCQ, or a JUSCQ.
pub trait Join {
    type Component: Union;
    fn components(&self) -> &[Self::Component];
    fn head(&self) -> &[Term];
}

impl Join for JUCQ {
    type Component = UCQ;
    fn components(&self) -> &[UCQ] {
        JUCQ::components(self)
    }
    fn head(&self) -> &[Term] {
        JUCQ::head(self)
    }
}

impl Join for JUSCQ {
    type Component = USCQ;
    fn components(&self) -> &[USCQ] {
        JUSCQ::components(self)
    }
    fn head(&self) -> &[Term] {
        JUSCQ::head(self)
    }
}

/// Code run on a query once per shape, through
/// [`FolQuery::visit`](crate::FolQuery::visit). `'q` is the query's
/// lifetime, so an output may borrow from it.
pub trait Visitor<'q> {
    type Out;
    fn conjunction<C: Conjunction>(&mut self, c: &'q C) -> Self::Out;
    fn union<U: Union>(&mut self, u: &'q U) -> Self::Out;
    fn join<J: Join>(&mut self, j: &'q J) -> Self::Out;
}
