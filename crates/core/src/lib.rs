//! # obda-core
//!
//! The paper's primary contribution: **cost-driven cover-based query
//! answering** for FOL-reducible OBDA settings, instantiated to DL-LiteR.
//!
//! * [`Cover`] / [`Fragment`] — query covers (Definition 1) and
//!   generalized covers (§5.2) over atom bitmasks;
//! * [`QueryAnalysis`], [`root_cover`], [`is_safe`] — the safety machinery
//!   of Definitions 5–6 built on predicate dependencies (Definition 4);
//! * [`enumerate_safe_covers`] — the lattice `Lq` (Theorem 2, §5.1);
//! * [`enumerate_generalized_covers`] — the space `Gq` (§5.2);
//! * [`gdl()`] / [`edl()`] — the greedy and exhaustive cost-driven searches of
//!   §5.3 (Algorithm 1), including the §6.4 time-limited variant;
//! * [`CostEstimator`] — the cost abstraction `ε` (engine-backed
//!   implementations live in `obda-rdbms`);
//! * [`eliminate_implied_atoms`] — the query atoms the TBox implies from
//!   other atoms of the query, dropped before reformulation;
//! * [`choose_reformulation`] — the strategy surface benchmarked in §6;
//! * [`RewriteContext`] — one data generation's rewriting inputs (TBox
//!   scope, mined constraints, live TBox and fragment memo) and its
//!   single compile entry.

pub mod answer;
pub mod bell;
pub mod cost;
pub mod cover;
pub mod edl;
pub mod eliminate;
pub mod gdl;
pub mod genspace;
pub mod lattice;
pub mod reform_cache;
pub mod rewrite;
pub mod safety;

pub use answer::{choose_reformulation, Chosen, SearchStats, Strategy};
pub use bell::{bell_number, blocks_of, Partitions};
pub use cost::{CostEstimator, InstrumentedEstimator, StructuralEstimator};
pub use cover::{full_mask, mask_indices, mask_len, AtomMask, Cover, Fragment};
pub use edl::edl;
pub use eliminate::eliminate_implied_atoms;
pub use gdl::{gdl, moves_from, GdlConfig, SearchOutcome};
pub use genspace::{connected_supersets, enumerate_generalized_covers, genspace_size, GenSpace};
pub use lattice::{enumerate_safe_covers, lattice_size, precedes};
pub use obda_reform::{arm_provably_empty, prune_fol, prune_ucq, PruneStats, PrunedUcq};
pub use reform_cache::{FragmentMemo, FragmentStats, ReformCache};
pub use rewrite::{RewriteContext, Rewritten, TBoxScope};
pub use safety::{is_safe, root_cover, QueryAnalysis};
