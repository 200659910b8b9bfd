//! End-to-end reformulation selection: the strategies compared in the
//! paper's evaluation (Figures 2 and 3).

use std::time::Duration;

use obda_dllite::{Dependencies, TBox};
use obda_query::{FolQuery, CQ, UCQ};
use obda_reform::PruneStats;

use crate::cost::CostEstimator;
use crate::cover::Cover;
use crate::edl::edl_in;
use crate::eliminate::eliminate_implied_atoms;
use crate::gdl::{gdl_in, GdlConfig, SearchOutcome};
use crate::reform_cache::{reformulate_fragment, FragmentMemo, FragmentStats, ReformCache};
use crate::safety::{root_cover, QueryAnalysis};

/// Which reformulation to produce — the four bars of Figure 2 plus EDL
/// and the USCQ route of \[33\].
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// The standard (minimized) UCQ reformulation of the literature.
    Ucq,
    /// The raw, non-minimized PerfectRef output (ablation baseline).
    RawUcq,
    /// The minimized UCQ factorized into a USCQ (Thomazo \[33\]: "USCQ
    /// reformulations are shown to perform overall better than UCQ ones in
    /// an RDBMS", §7).
    Uscq,
    /// The fixed JUCQ derived from the root cover.
    CrootJucq,
    /// Greedy cost-driven search (optionally time-limited).
    Gdl { time_budget: Option<Duration> },
    /// Exhaustive search with a cap on the generalized space.
    Edl { cap: usize },
}

/// A chosen reformulation, ready for SQL translation / evaluation.
#[derive(Debug, Clone)]
pub struct Chosen {
    pub fol: FolQuery,
    /// The underlying cover (None for plain UCQ strategies). Its
    /// fragments index the atoms of the query *after* elimination
    /// ([`eliminate_implied_atoms`]): the kept atoms, in the query's
    /// order.
    pub cover: Option<Cover>,
    /// How many atoms elimination dropped before reformulation.
    pub eliminated: usize,
    /// Estimated cost if a cost-driven strategy ran.
    pub est_cost: Option<f64>,
    /// Search statistics if a search ran.
    pub search: Option<SearchStats>,
    /// Constraint-pruning statistics, when the compile pruned by a
    /// generation's constraints (see
    /// [`RewriteContext::compile`](crate::RewriteContext::compile)).
    pub pruned: Option<PruneStats>,
    /// How many fragment reformulations a [`FragmentMemo`] supplied and
    /// how many PerfectRef computed (the whole query counts as one
    /// fragment under the plain UCQ strategies).
    pub fragments: FragmentStats,
}

/// Compact search statistics (mirrors [`SearchOutcome`]).
#[derive(Debug, Clone, Copy)]
pub struct SearchStats {
    pub explored_simple: usize,
    pub explored_generalized: usize,
    pub moves_applied: usize,
    pub elapsed: Duration,
    pub cost_estimation_time: Duration,
    pub cost_estimation_calls: usize,
    pub budget_exhausted: bool,
}

impl From<&SearchOutcome> for SearchStats {
    fn from(o: &SearchOutcome) -> Self {
        SearchStats {
            explored_simple: o.explored_simple,
            explored_generalized: o.explored_generalized,
            moves_applied: o.moves_applied,
            elapsed: o.elapsed,
            cost_estimation_time: o.cost_estimation_time,
            cost_estimation_calls: o.cost_estimation_calls,
            budget_exhausted: o.budget_exhausted,
        }
    }
}

/// Produce the reformulation selected by `strategy`.
///
/// `estimator` is consulted only by the cost-driven strategies. A
/// server compiles against a generation's
/// [`RewriteContext`](crate::RewriteContext) instead, which also
/// memoises fragments and prunes by the generation's constraints.
pub fn choose_reformulation(
    q: &CQ,
    tbox: &TBox,
    deps: &Dependencies,
    estimator: &dyn CostEstimator,
    strategy: &Strategy,
) -> Chosen {
    choose_memoised(q, tbox, deps, estimator, strategy, None)
}

/// The one compilation path behind every strategy. It first drops the
/// atoms `tbox` implies from other atoms of `q`
/// ([`eliminate_implied_atoms`]), so every strategy reformulates, and
/// searches covers of, the `T`-equivalent smaller query. Fragment
/// reformulation depends on the TBox alone: with a `memo` (which must
/// belong to `tbox`, as a [`RewriteContext`](crate::RewriteContext)
/// guarantees) every strategy takes its PerfectRef results from it and
/// adds the ones it had to compute. Cover choice from `estimator`'s
/// statistics is recomputed on every call, so the result equals a
/// memo-less call's.
pub(crate) fn choose_memoised(
    q: &CQ,
    tbox: &TBox,
    deps: &Dependencies,
    estimator: &dyn CostEstimator,
    strategy: &Strategy,
    memo: Option<&FragmentMemo>,
) -> Chosen {
    let reduced = eliminate_implied_atoms(q, tbox);
    let eliminated = q.num_atoms() - reduced.num_atoms();
    let q = &reduced;
    // The whole query as a single fragment (the plain UCQ strategies).
    let whole = |minimize: bool, shape: fn(UCQ) -> FolQuery| {
        let mut fragments = FragmentStats::default();
        let ucq = reformulate_fragment(q, tbox, minimize, memo, &mut fragments);
        Chosen {
            fol: shape(UCQ::clone(&ucq)),
            cover: None,
            eliminated,
            est_cost: None,
            search: None,
            pruned: None,
            fragments,
        }
    };
    let searched = |out: SearchOutcome, fragments: FragmentStats| Chosen {
        search: Some(SearchStats::from(&out)),
        fol: FolQuery::Jucq(out.jucq),
        cover: Some(out.cover),
        eliminated,
        est_cost: Some(out.cost),
        pruned: None,
        fragments,
    };
    match strategy {
        Strategy::Ucq => whole(true, FolQuery::Ucq),
        Strategy::RawUcq => whole(false, FolQuery::Ucq),
        Strategy::Uscq => whole(true, |ucq| FolQuery::Uscq(obda_reform::factorize_ucq(&ucq))),
        Strategy::CrootJucq => {
            let analysis = QueryAnalysis::new(q, deps);
            let croot = root_cover(&analysis);
            let mut cache = ReformCache::with_memo(q, tbox, true, memo);
            let jucq = cache.jucq_for(&croot);
            Chosen {
                fol: FolQuery::Jucq(jucq),
                cover: Some(croot),
                eliminated,
                est_cost: None,
                search: None,
                pruned: None,
                fragments: cache.fragments(),
            }
        }
        Strategy::Gdl { time_budget } => {
            let analysis = QueryAnalysis::new(q, deps);
            let config = GdlConfig {
                time_budget: *time_budget,
                ..Default::default()
            };
            let mut cache = ReformCache::with_memo(q, tbox, config.minimize_fragments, memo);
            let out = gdl_in(&mut cache, &analysis, estimator, &config);
            searched(out, cache.fragments())
        }
        Strategy::Edl { cap } => {
            let analysis = QueryAnalysis::new(q, deps);
            let mut cache = ReformCache::with_memo(q, tbox, true, memo);
            let out = edl_in(&mut cache, &analysis, estimator, *cap);
            searched(out, cache.fragments())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::StructuralEstimator;
    use obda_dllite::{example7_tbox, ABox, KnowledgeBase};
    use obda_query::{certain_answers, eval_over_abox, Atom, Term, VarId};

    /// All strategies compute the same (certain) answers on the Example-7
    /// KB — the headline correctness claim (Theorems 1 and 3) across the
    /// strategy surface.
    #[test]
    fn all_strategies_agree_with_certain_answers() {
        let (mut voc, tbox) = example7_tbox();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let grad = voc.find_concept("Graduate").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let sup = voc.find_role("supervisedBy").unwrap();
        let damian = voc.individual("Damian");
        let ioana = voc.individual("Ioana");
        let mut abox = ABox::new();
        abox.assert_concept(phd, damian);
        abox.assert_concept(grad, damian);
        abox.assert_concept(phd, ioana);
        abox.assert_role(works, ioana, damian);
        abox.assert_role(sup, damian, ioana);
        let kb = KnowledgeBase::new(voc, tbox, abox);
        let deps = kb.compute_deps();

        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(phd, Term::Var(VarId(0))),
                Atom::Role(works, Term::Var(VarId(0)), Term::Var(VarId(1))),
                Atom::Role(sup, Term::Var(VarId(2)), Term::Var(VarId(1))),
            ],
        );
        let truth = certain_answers(kb.tbox(), kb.abox(), &q);
        assert!(!truth.is_empty(), "fixture must have answers");

        let strategies = [
            Strategy::Ucq,
            Strategy::RawUcq,
            Strategy::Uscq,
            Strategy::CrootJucq,
            Strategy::Gdl { time_budget: None },
            Strategy::Gdl {
                time_budget: Some(Duration::from_millis(20)),
            },
            Strategy::Edl { cap: 0 },
        ];
        for s in &strategies {
            let chosen = choose_reformulation(&q, kb.tbox(), &deps, &StructuralEstimator, s);
            let got = eval_over_abox(kb.abox(), &chosen.fol);
            assert_eq!(got, truth, "strategy {s:?}");
        }
    }

    #[test]
    fn ucq_strategy_is_minimized() {
        let (voc, tbox) = example7_tbox();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let sup = voc.find_role("supervisedBy").unwrap();
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(phd, Term::Var(VarId(0))),
                Atom::Role(works, Term::Var(VarId(0)), Term::Var(VarId(1))),
                Atom::Role(sup, Term::Var(VarId(2)), Term::Var(VarId(1))),
            ],
        );
        let deps = Dependencies::compute(&voc, &tbox);
        let min = choose_reformulation(&q, &tbox, &deps, &StructuralEstimator, &Strategy::Ucq);
        let raw = choose_reformulation(&q, &tbox, &deps, &StructuralEstimator, &Strategy::RawUcq);
        assert!(min.fol.equivalent_cq_count() <= raw.fol.equivalent_cq_count());
    }

    #[test]
    fn gdl_reports_stats_and_cover() {
        let (voc, tbox) = example7_tbox();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(phd, Term::Var(VarId(0)))],
        );
        let deps = Dependencies::compute(&voc, &tbox);
        let chosen = choose_reformulation(
            &q,
            &tbox,
            &deps,
            &StructuralEstimator,
            &Strategy::Gdl { time_budget: None },
        );
        assert!(chosen.cover.is_some());
        assert!(chosen.est_cost.is_some());
        assert!(chosen.search.is_some());
    }
}
