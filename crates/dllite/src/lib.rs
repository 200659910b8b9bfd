//! # obda-dllite
//!
//! DL-LiteR knowledge bases: the ontology substrate of the cover-based
//! query answering framework (Bursztyn, Goasdoué, Manolescu, VLDB 2016).
//!
//! DL-LiteR is the description logic underpinning W3C's OWL2 QL. A
//! knowledge base `K = ⟨T, A⟩` couples a [`TBox`] (deductive constraints:
//! concept/role inclusions, possibly negated on the right-hand side) with
//! an [`ABox`] (explicit facts). This crate provides:
//!
//! * the vocabulary and expression model ([`Vocabulary`], [`BasicConcept`],
//!   [`Role`], [`Axiom`]) covering all 22 DL-LiteR constraint forms;
//! * predicate dependencies `dep(N)` (Definition 4 of the paper), the
//!   backbone of cover safety ([`Dependencies`]);
//! * TBox saturation and inclusion entailment ([`TBoxClosure`]);
//! * a bounded restricted chase ([`chase()`](chase::chase)) serving as the certain-answer
//!   oracle in tests;
//! * consistency checking against negative constraints
//!   ([`check_consistency`]);
//! * a small text format for KBs ([`parse_kb`]).

pub mod abox;
pub mod axiom;
pub mod bitset;
pub mod chase;
pub mod consistency;
pub mod constraints;
pub mod delta;
pub mod deps;
pub mod expr;
pub mod fxhash;
pub mod ids;
pub mod kb;
pub mod parser;
pub mod saturation;
pub mod tbox;
pub mod txn;
pub mod vocab;

pub use abox::{example1_abox, ABox};
pub use axiom::{Axiom, ConceptInclusion, RoleInclusion};
pub use bitset::BitSet;
pub use chase::{chase, ChaseFact, ChaseInstance, ChaseTerm};
pub use consistency::{check_consistency, is_consistent, Violation};
pub use constraints::{ConstraintSet, Extents, MiningStats};
pub use delta::AboxDelta;
pub use deps::Dependencies;
pub use expr::{BasicConcept, Role};
pub use ids::{ConceptId, IndividualId, PredId, RoleId};
pub use kb::KnowledgeBase;
pub use parser::{parse_kb, ParseError, ParsedKb};
pub use saturation::TBoxClosure;
pub use tbox::{example1_tbox, example7_tbox, TBox, TBoxBuilder};
pub use txn::WorkingSet;
pub use vocab::Vocabulary;
