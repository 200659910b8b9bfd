//! GDL — Greedy Cover Search for DL-LiteR (Algorithm 1).
//!
//! Starting from the root cover, GDL repeatedly explores the set of
//! possible next moves: **unioning** two fragments (a step down the safe
//! cover lattice `Lq`) or **enlarging** a fragment with a connected atom
//! (a step into the generalized space `Gq`). The best cost-improving move
//! is applied; the search stops when no move improves the current cover's
//! estimated cost.
//!
//! Both move kinds are monotone (union decreases the fragment count;
//! enlarge strictly grows a fragment), so the search cannot cycle and
//! terminates after at most `O(n²)` moves.
//!
//! §6.4: a **time-limited** variant stops the exploration once a wall-clock
//! budget is exhausted, returning the best cover found so far — the paper
//! finds 20 ms budgets already capture most of the benefit.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use obda_dllite::TBox;
use obda_query::{FolQuery, CQ, JUCQ};

use crate::cost::{CostEstimator, InstrumentedEstimator};
use crate::cover::{Cover, Fragment};
use crate::reform_cache::ReformCache;
use crate::safety::{root_cover, QueryAnalysis};

/// Tuning knobs for the greedy search.
#[derive(Debug, Clone)]
pub struct GdlConfig {
    /// Wall-clock budget; `None` runs to convergence (§6.4 uses 20 ms).
    pub time_budget: Option<Duration>,
    /// Explore enlarge moves (the `Gq` space). Disabling restricts the
    /// search to the safe-cover lattice — the ablation of §6.3's
    /// observation that GDL picks a generalized cover about half the time.
    pub explore_generalized: bool,
    /// Explore union moves (the `Lq` lattice).
    pub explore_unions: bool,
    /// Minimize fragment UCQs before costing (RAPID-style output).
    pub minimize_fragments: bool,
}

impl Default for GdlConfig {
    fn default() -> Self {
        GdlConfig {
            time_budget: None,
            explore_generalized: true,
            explore_unions: true,
            minimize_fragments: true,
        }
    }
}

/// Outcome of a cover search (GDL or EDL).
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The selected cover.
    pub cover: Cover,
    /// Its JUCQ reformulation (what gets shipped to the RDBMS).
    pub jucq: JUCQ,
    /// Estimated cost of `jucq`.
    pub cost: f64,
    /// Distinct simple (Lq) covers whose cost was estimated.
    pub explored_simple: usize,
    /// Distinct generalized (Gq \ Lq) covers whose cost was estimated.
    pub explored_generalized: usize,
    /// Moves applied from the root cover to the result.
    pub moves_applied: usize,
    /// Total wall-clock time of the search.
    pub elapsed: Duration,
    /// Portion spent inside the cost estimator (§6.4's dominant term).
    pub cost_estimation_time: Duration,
    /// Number of cost estimator invocations.
    pub cost_estimation_calls: usize,
    /// True if the time budget expired before convergence.
    pub budget_exhausted: bool,
}

/// Run GDL on `q` w.r.t. `tbox`.
pub fn gdl(
    q: &CQ,
    tbox: &TBox,
    analysis: &QueryAnalysis,
    estimator: &dyn CostEstimator,
    config: &GdlConfig,
) -> SearchOutcome {
    let mut cache = ReformCache::new(q, tbox, config.minimize_fragments);
    gdl_in(&mut cache, analysis, estimator, config)
}

/// [`gdl`] over a caller-supplied [`ReformCache`] — the query, the TBox,
/// fragment minimisation and any shared [`crate::FragmentMemo`] are the
/// cache's (so `config.minimize_fragments` is not consulted), and the
/// caller can read the cache's counters afterwards.
pub(crate) fn gdl_in(
    cache: &mut ReformCache<'_>,
    analysis: &QueryAnalysis,
    estimator: &dyn CostEstimator,
    config: &GdlConfig,
) -> SearchOutcome {
    let start = Instant::now();
    let deadline = config.time_budget.map(|b| start + b);
    let instrumented = InstrumentedEstimator::new(estimator);
    let mut cost_memo: HashMap<Cover, f64> = HashMap::new();
    let mut explored_simple = 0usize;
    let mut explored_generalized = 0usize;

    let evaluate = |cover: &Cover,
                    cache: &mut ReformCache,
                    memo: &mut HashMap<Cover, f64>,
                    simple: &mut usize,
                    gen: &mut usize|
     -> f64 {
        if let Some(&c) = memo.get(cover) {
            return c;
        }
        let jucq = cache.jucq_for(cover);
        let cost = instrumented.estimate(&FolQuery::Jucq(jucq));
        memo.insert(cover.clone(), cost);
        if cover.is_simple() {
            *simple += 1;
        } else {
            *gen += 1;
        }
        cost
    };

    let mut current = root_cover(analysis);
    let mut current_cost = evaluate(
        &current,
        cache,
        &mut cost_memo,
        &mut explored_simple,
        &mut explored_generalized,
    );
    let mut moves_applied = 0usize;
    let mut budget_exhausted = false;

    'search: loop {
        let mut best_move: Option<(Cover, f64)> = None;
        for candidate in moves_from(&current, analysis, config) {
            if let Some(d) = deadline {
                if Instant::now() > d {
                    budget_exhausted = true;
                    break;
                }
            }
            let cost = evaluate(
                &candidate,
                cache,
                &mut cost_memo,
                &mut explored_simple,
                &mut explored_generalized,
            );
            let improves = match &best_move {
                None => cost <= current_cost,
                Some((_, best)) => cost < *best,
            };
            if improves {
                best_move = Some((candidate, cost));
            }
        }
        match best_move {
            Some((cover, cost)) => {
                current = cover;
                current_cost = cost;
                moves_applied += 1;
                if budget_exhausted {
                    break 'search;
                }
            }
            None => break 'search,
        }
    }

    let jucq = cache.jucq_for(&current);
    SearchOutcome {
        cover: current,
        jucq,
        cost: current_cost,
        explored_simple,
        explored_generalized,
        moves_applied,
        elapsed: start.elapsed(),
        cost_estimation_time: instrumented.elapsed(),
        cost_estimation_calls: instrumented.calls(),
        budget_exhausted,
    }
}

/// All covers reachable from `cover` in one GDL move.
pub fn moves_from(cover: &Cover, analysis: &QueryAnalysis, config: &GdlConfig) -> Vec<Cover> {
    let mut out = Vec::new();
    let frs = cover.fragments();
    // Union moves: C.union(f1, f2).
    if config.explore_unions && frs.len() >= 2 {
        for i in 0..frs.len() {
            for j in (i + 1)..frs.len() {
                let merged = Fragment::generalized(frs[i].f | frs[j].f, frs[i].g | frs[j].g);
                let mut rest: Vec<Fragment> = frs
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != i && k != j)
                    .map(|(_, f)| *f)
                    .collect();
                rest.push(merged);
                let cand = Cover::new(rest);
                if cand.no_inclusion() {
                    out.push(cand);
                }
            }
        }
    }
    // Enlarge moves: C.enlarge(f, a) for atoms a connected to f.
    if config.explore_generalized {
        for i in 0..frs.len() {
            let neigh = analysis.neighbors(frs[i].f);
            for a in crate::cover::mask_indices(neigh) {
                let grown = Fragment::generalized(frs[i].f | (1 << a), frs[i].g);
                let mut rest: Vec<Fragment> = frs
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != i)
                    .map(|(_, f)| *f)
                    .collect();
                rest.push(grown);
                let cand = Cover::new(rest);
                if cand.no_inclusion() {
                    out.push(cand);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::StructuralEstimator;
    use obda_dllite::{example7_tbox, Dependencies};
    use obda_query::{Atom, Term, VarId};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    fn example7() -> (CQ, obda_dllite::TBox, QueryAnalysis) {
        let (voc, tbox) = example7_tbox();
        let deps = Dependencies::compute(&voc, &tbox);
        let phd = voc.find_concept("PhDStudent").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let sup = voc.find_role("supervisedBy").unwrap();
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(phd, v(0)),
                Atom::Role(works, v(0), v(1)),
                Atom::Role(sup, v(2), v(1)),
            ],
        );
        let analysis = QueryAnalysis::new(&q, &deps);
        (q, tbox, analysis)
    }

    #[test]
    fn gdl_terminates_and_reports() {
        let (q, tbox, analysis) = example7();
        let out = gdl(
            &q,
            &tbox,
            &analysis,
            &StructuralEstimator,
            &GdlConfig::default(),
        );
        assert!(out.cost.is_finite());
        assert!(out.explored_simple + out.explored_generalized >= 1);
        assert!(!out.budget_exhausted);
        assert!(out.cost_estimation_calls >= 1);
        // The selected cover's JUCQ must expose the original head.
        assert_eq!(out.jucq.head(), q.head());
    }

    #[test]
    fn gdl_result_is_no_worse_than_croot() {
        let (q, tbox, analysis) = example7();
        let est = StructuralEstimator;
        let croot = root_cover(&analysis);
        let mut cache = ReformCache::new(&q, &tbox, true);
        let croot_cost = est.estimate(&FolQuery::Jucq(cache.jucq_for(&croot)));
        let out = gdl(&q, &tbox, &analysis, &est, &GdlConfig::default());
        assert!(out.cost <= croot_cost);
    }

    #[test]
    fn disabling_generalized_stays_in_lq() {
        let (q, tbox, analysis) = example7();
        let config = GdlConfig {
            explore_generalized: false,
            ..Default::default()
        };
        let out = gdl(&q, &tbox, &analysis, &StructuralEstimator, &config);
        assert!(out.cover.is_simple());
        assert_eq!(out.explored_generalized, 0);
    }

    #[test]
    fn moves_are_monotone_no_cycles() {
        let (_q, _tbox, analysis) = example7();
        let config = GdlConfig::default();
        let start = root_cover(&analysis);
        for m in moves_from(&start, &analysis, &config) {
            let fewer_fragments = m.num_fragments() < start.num_fragments();
            let grew: usize = m
                .fragments()
                .iter()
                .map(|f| f.f.count_ones() as usize)
                .sum();
            let orig: usize = start
                .fragments()
                .iter()
                .map(|f| f.f.count_ones() as usize)
                .sum();
            assert!(fewer_fragments || grew > orig, "move must be monotone");
        }
    }

    #[test]
    fn time_budget_zero_still_returns_valid_cover() {
        let (q, tbox, analysis) = example7();
        let config = GdlConfig {
            time_budget: Some(Duration::from_millis(0)),
            ..Default::default()
        };
        let out = gdl(&q, &tbox, &analysis, &StructuralEstimator, &config);
        // Degenerate budget: we still get the root cover reformulation.
        assert!(out.cost.is_finite());
        assert_eq!(out.jucq.head().len(), 1);
    }

    #[test]
    fn enlarge_moves_respect_connectivity() {
        let (_q, _tbox, analysis) = example7();
        let config = GdlConfig {
            explore_unions: false,
            ..Default::default()
        };
        let start = root_cover(&analysis);
        for m in moves_from(&start, &analysis, &config) {
            for fr in m.fragments() {
                assert!(analysis.is_connected(fr.f), "{m:?}");
            }
        }
    }
}
