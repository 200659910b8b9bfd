//! # obda-reform
//!
//! FOL reformulation for DL-LiteR:
//!
//! * [`perfect_ref`] — the CQ-to-UCQ technique of Calvanese et al. \[13\]
//!   (backward axiom application + reduce/unification fixpoint);
//! * [`factorize_ucq`] — UCQ → USCQ factorization standing in for the
//!   CQ-to-USCQ technique of \[33\];
//! * [`fragment_query`] / [`cover_reformulation`] — fragment queries
//!   (Definitions 2 and 7) and cover-based JUCQ/JUSCQ reformulations
//!   (Definition 3, §5.2);
//! * [`violation_queries`] — consistency checking via reformulation.

pub mod applicability;
pub mod cover_reform;
pub mod fragment;
pub mod perfectref;
pub mod prune;
pub mod testkit;
pub mod uscq_factorize;
pub mod violations;

pub use applicability::{specializations, specializations_into, Specialization};
pub use cover_reform::{cover_reformulation, cover_reformulation_juscq, trivial_reformulation};
pub use fragment::{fragment_query, FragmentSpec};
pub use perfectref::{
    perfect_ref, perfect_ref_pruned, perfect_ref_pruned_with_stats, perfect_ref_with_stats,
    ReformStats,
};
pub use prune::{arm_provably_empty, data_contained, prune_fol, prune_ucq, PruneStats, PrunedUcq};
pub use uscq_factorize::factorize_ucq;
pub use violations::{is_consistent_by_reformulation, violation_queries, violation_query};
