//! The rewriting context of one data generation: everything a
//! compilation reads besides the query, the cost estimator and the
//! strategy, grouped by what can invalidate it.
//!
//! A [`TBoxScope`] holds what depends on the TBox alone: the TBox, its
//! predicate dependencies (cover safety) and the saturated closure that
//! guides constraint mining. A [`RewriteContext`] adds what one
//! generation's data derives from it: the completeness constraints
//! (Hovland et al., arXiv 1605.04263), the **dead** predicates they imply
//! (no facts, and no facts below them either), and the *live TBox* — the
//! scope's without the inclusions out of the dead predicates — with the
//! [`FragmentMemo`] of every fragment reformulated under it.
//!
//! The data-dependent parts are derived by the first reader, from extents
//! the caller supplies on demand. [`RewriteContext::next`] makes the next
//! generation's context under the same TBox; [`RewriteContext::new`]
//! starts over. A memo is only ever reachable together with the TBox it
//! was filled under.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use obda_dllite::{ConstraintSet, Dependencies, Extents, PredId, TBox, TBoxClosure};
use obda_query::CQ;
use obda_reform::prune_fol;

use crate::answer::{choose_memoised, Chosen, Strategy};
use crate::cost::CostEstimator;
use crate::reform_cache::FragmentMemo;

/// The half of a compilation that depends on the TBox alone, for as long
/// as the TBox lives. Shared behind an `Arc` by every generation that
/// keeps the TBox.
pub struct TBoxScope {
    tbox: TBox,
    deps: Dependencies,
    closure: OnceLock<TBoxClosure>,
}

impl TBoxScope {
    /// The loaded TBox, every axiom of it.
    pub fn tbox(&self) -> &TBox {
        &self.tbox
    }

    /// The saturated TBox, computed on first use and then shared by
    /// every generation's mining run.
    pub fn closure(&self) -> &TBoxClosure {
        self.closure
            .get_or_init(|| TBoxClosure::compute(&self.tbox))
    }
}

/// The TBox a generation reformulates under and the reformulation of
/// every fragment compiled under it so far. Every generation with the
/// same dead set shares one, so a memoised reformulation is a pure
/// function of (fragment, live TBox).
struct LiveTBox {
    /// Sorted.
    dead: Vec<PredId>,
    tbox: TBox,
    fragments: FragmentMemo,
}

/// One generation's rewriting inputs: its [`TBoxScope`], its mined
/// constraints, its dead predicates and its live TBox with the fragment
/// memo. `Send + Sync`: concurrent compilations share one context.
pub struct RewriteContext {
    scope: Arc<TBoxScope>,
    /// Whether the data shapes reformulation at all: with it, compiles
    /// mine constraints, prune by them and reformulate under the live
    /// TBox; without, the live TBox is the scope's.
    mines: bool,
    constraints: OnceLock<Arc<ConstraintSet>>,
    live: OnceLock<Arc<LiveTBox>>,
    /// The predecessor's live TBox, taken over if the dead set is equal.
    handed: Option<Arc<LiveTBox>>,
}

/// What [`RewriteContext::compile`] chose, and what it derived on the
/// way.
pub struct Rewritten {
    pub chosen: Chosen,
    /// How long mining the generation's constraints took, when this call
    /// is the one that mined them (the closure's one-off saturation is
    /// not counted: it is not a per-generation cost).
    pub mined_in: Option<Duration>,
    /// Whether this call built a new live TBox (with an empty memo)
    /// rather than take over its predecessor's.
    pub built_live: bool,
}

impl RewriteContext {
    /// The first generation under `tbox`.
    pub fn new(tbox: TBox, deps: Dependencies, mines: bool) -> Self {
        let scope = TBoxScope {
            tbox,
            deps,
            closure: OnceLock::new(),
        };
        RewriteContext {
            scope: Arc::new(scope),
            mines,
            constraints: OnceLock::new(),
            live: OnceLock::new(),
            handed: None,
        }
    }

    /// The context of the next generation under the same TBox, for data
    /// that may differ: the scope is shared, constraints are mined
    /// afresh, and the live TBox this generation derived (or was handed)
    /// is handed on, to be kept while the dead set is equal.
    pub fn next(&self) -> Self {
        RewriteContext {
            scope: Arc::clone(&self.scope),
            mines: self.mines,
            constraints: OnceLock::new(),
            live: OnceLock::new(),
            handed: self.live.get().or(self.handed.as_ref()).cloned(),
        }
    }

    pub fn scope(&self) -> &Arc<TBoxScope> {
        &self.scope
    }

    /// The completeness constraints of this generation's data, mined from
    /// `extents` on first use along the scope's closure.
    pub fn constraints(&self, extents: impl FnOnce() -> Extents) -> &Arc<ConstraintSet> {
        self.constraints_timed(extents).0
    }

    fn constraints_timed(
        &self,
        extents: impl FnOnce() -> Extents,
    ) -> (&Arc<ConstraintSet>, Option<Duration>) {
        let mut mined_in = None;
        let set = self.constraints.get_or_init(|| {
            let closure = self.scope.closure();
            let started = Instant::now();
            let set = ConstraintSet::mine(closure, &extents());
            mined_in = Some(started.elapsed());
            Arc::new(set)
        });
        (set, mined_in)
    }

    /// The TBox every compilation against this generation reformulates
    /// under: the loaded TBox without the inclusions out of the dead
    /// predicates, or the loaded TBox itself on a context that does not
    /// mine. Cover safety still reads the scope's dependencies.
    pub fn tbox(&self, extents: impl FnOnce() -> Extents) -> &TBox {
        &self.live(extents).0.tbox
    }

    /// The predicates that have no facts and no facts below them, sorted
    /// (none on a context that does not mine).
    pub fn dead_predicates(&self, extents: impl FnOnce() -> Extents) -> &[PredId] {
        &self.live(extents).0.dead
    }

    /// Fragment reformulations memoised under the live TBox this
    /// generation derived or was handed (0 before either).
    pub fn memoised_fragments(&self) -> usize {
        let live = self.live.get().or(self.handed.as_ref());
        live.map_or(0, |live| live.fragments.len())
    }

    /// This generation's live TBox, and whether this call built a new one.
    fn live(&self, extents: impl FnOnce() -> Extents) -> (&LiveTBox, bool) {
        let mut built = false;
        let live = self.live.get_or_init(|| {
            let dead = if self.mines {
                self.constraints(extents)
                    .dead_predicates(self.scope.closure())
            } else {
                Vec::new()
            };
            match &self.handed {
                Some(live) if live.dead == dead => Arc::clone(live),
                _ => {
                    built = true;
                    Arc::new(LiveTBox {
                        tbox: self.scope.tbox.without_inclusions_from(&dead),
                        dead,
                        fragments: FragmentMemo::new(),
                    })
                }
            }
        });
        (live, built)
    }

    /// Choose the reformulation of `q` under `strategy` against this
    /// generation. Fragments are reformulated under the live TBox —
    /// through its memo when `memoise` — and cover choice reads
    /// `estimator`; a context that mines then prunes the chosen
    /// reformulation by the constraints. Only the memo outlives the
    /// call, so the result equals a memo-less compile's.
    pub fn compile(
        &self,
        q: &CQ,
        estimator: &dyn CostEstimator,
        strategy: &Strategy,
        extents: impl Fn() -> Extents,
        memoise: bool,
    ) -> Rewritten {
        let (constraints, mined_in) = match self.mines {
            true => {
                let (set, mined_in) = self.constraints_timed(&extents);
                (Some(set), mined_in)
            }
            false => (None, None),
        };
        let (live, built_live) = self.live(&extents);
        let memo = memoise.then_some(&live.fragments);
        let deps = &self.scope.deps;
        let mut chosen = choose_memoised(q, &live.tbox, deps, estimator, strategy, memo);
        if let Some(constraints) = constraints {
            let (fol, stats) = prune_fol(&chosen.fol, constraints);
            chosen.fol = fol;
            chosen.pruned = Some(stats);
        }
        Rewritten {
            chosen,
            mined_in,
            built_live,
        }
    }
}
