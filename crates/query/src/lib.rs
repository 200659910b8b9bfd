//! # obda-query
//!
//! FOL query dialects and operations for the cover-based query answering
//! framework: the six dialects of the paper's Table 4 (CQ, SCQ, UCQ, USCQ,
//! JUCQ, JUSCQ), most-general unifiers, homomorphisms and containment, UCQ
//! minimization, canonical forms, a reference evaluator over chased
//! instances (the certain-answer oracle), and seeded random generators for
//! property tests.

pub mod atom;
pub mod canonical;
pub mod cq;
pub mod eval;
pub mod fol;
pub mod fxhash;
pub mod homomorphism;
pub mod jucq;
pub mod mgu;
pub mod minimize;
pub mod scq;
pub mod shape;
pub mod term;
pub mod testkit;
pub mod ucq;

pub use atom::Atom;
pub use canonical::{canonical_key, canonicalize, same_modulo_renaming, CanonKey, Canonicaliser};
pub use cq::{connected_subset, PredSig, CQ};
pub use eval::{certain_answers, eval_fol, eval_over_abox};
pub use fol::FolQuery;
pub use homomorphism::{contained_in, contained_in_union, equivalent, homomorphism, Homomorphisms};
pub use jucq::{JUCQ, JUSCQ};
pub use mgu::{mgu, mgu_preferring};
pub use minimize::{cq_core, minimize_ucq};
pub use scq::{Slot, SCQ, USCQ};
pub use shape::{Conjunct, Conjunction, Join, Union, Visitor};
pub use term::{Subst, Term, VarId};
pub use ucq::UCQ;
