//! EDL — Exhaustive Covers for DL-LiteR (§5.3).
//!
//! Enumerates all safe covers (`Lq`) and all generalized covers (`Gq`, up
//! to a hard cap — the space is exponential, cf. Table 6) and returns the
//! cover with minimal estimated cost. Impractical beyond very small
//! queries; kept for ground truth in tests and for the Table-6 experiment.

use std::collections::HashMap;
use std::time::Instant;

use obda_dllite::TBox;
use obda_query::{FolQuery, CQ};

use crate::cost::{CostEstimator, InstrumentedEstimator};
use crate::cover::Cover;
use crate::gdl::SearchOutcome;
use crate::genspace::enumerate_generalized_covers;
use crate::reform_cache::ReformCache;
use crate::safety::QueryAnalysis;

/// Exhaustive search over `Lq ∪ Gq` (capped at `cap` generalized covers;
/// 0 = unlimited).
pub fn edl(
    q: &CQ,
    tbox: &TBox,
    analysis: &QueryAnalysis,
    estimator: &dyn CostEstimator,
    cap: usize,
    minimize_fragments: bool,
) -> SearchOutcome {
    let mut cache = ReformCache::new(q, tbox, minimize_fragments);
    edl_in(&mut cache, analysis, estimator, cap)
}

/// [`edl`] over a caller-supplied [`ReformCache`], which brings the
/// query, the TBox, fragment minimisation and any shared memo.
pub(crate) fn edl_in(
    cache: &mut ReformCache<'_>,
    analysis: &QueryAnalysis,
    estimator: &dyn CostEstimator,
    cap: usize,
) -> SearchOutcome {
    let start = Instant::now();
    let instrumented = InstrumentedEstimator::new(estimator);
    let mut memo: HashMap<Cover, f64> = HashMap::new();

    let space = enumerate_generalized_covers(analysis, cap);
    let mut best: Option<(Cover, f64)> = None;
    let mut explored_simple = 0usize;
    let mut explored_generalized = 0usize;
    for cover in &space.covers {
        let cost = match memo.get(cover) {
            Some(&c) => c,
            None => {
                let jucq = cache.jucq_for(cover);
                let c = instrumented.estimate(&FolQuery::Jucq(jucq));
                memo.insert(cover.clone(), c);
                if cover.is_simple() {
                    explored_simple += 1;
                } else {
                    explored_generalized += 1;
                }
                c
            }
        };
        if best.as_ref().is_none_or(|(_, b)| cost < *b) {
            best = Some((cover.clone(), cost));
        }
    }
    let (cover, cost) = best.expect("Gq contains at least the root cover");
    let jucq = cache.jucq_for(&cover);
    SearchOutcome {
        cover,
        jucq,
        cost,
        explored_simple,
        explored_generalized,
        moves_applied: 0,
        elapsed: start.elapsed(),
        cost_estimation_time: instrumented.elapsed(),
        cost_estimation_calls: instrumented.calls(),
        budget_exhausted: space.truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::StructuralEstimator;
    use crate::gdl::{gdl, GdlConfig};
    use obda_dllite::{example7_tbox, Dependencies};
    use obda_query::{Atom, Term, VarId};

    fn example7() -> (CQ, obda_dllite::TBox, QueryAnalysis) {
        let (voc, tbox) = example7_tbox();
        let deps = Dependencies::compute(&voc, &tbox);
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
        let analysis = QueryAnalysis::new(&q, &deps);
        (q, tbox, analysis)
    }

    #[test]
    fn edl_finds_global_optimum() {
        let (q, tbox, analysis) = example7();
        let out = edl(&q, &tbox, &analysis, &StructuralEstimator, 0, true);
        assert!(!out.budget_exhausted);
        assert!(out.explored_simple >= 2, "Lq has 2 covers here");
        assert!(out.explored_generalized >= 1);
        // GDL (greedy) can never beat EDL (exhaustive).
        let g = gdl(
            &q,
            &tbox,
            &analysis,
            &StructuralEstimator,
            &GdlConfig::default(),
        );
        assert!(out.cost <= g.cost + 1e-9);
    }

    #[test]
    fn edl_cap_reports_truncation() {
        let (q, tbox, analysis) = example7();
        let out = edl(&q, &tbox, &analysis, &StructuralEstimator, 2, true);
        assert!(out.budget_exhausted);
        assert!(out.explored_simple + out.explored_generalized <= 2);
    }
}
