//! Adapters plugging the engine's cost estimation into the search
//! framework's [`obda_core::CostEstimator`] trait — the ε of Problem 1.

use obda_core::CostEstimator;
use obda_query::FolQuery;

use crate::cost_model::CostModel;
use crate::engine::Engine;

impl CostEstimator for CostModel<'_> {
    fn estimate(&self, q: &FolQuery) -> f64 {
        self.estimate_fol(q)
    }

    fn name(&self) -> &str {
        self.model_name()
    }
}

/// The "ask the engine" estimator: GDL/RDBMS in Figures 2–3. Each call
/// corresponds to an `explain` round-trip (the §6.4 overhead the
/// time-limited variant works around).
pub struct ExplainEstimator<'e> {
    engine: &'e Engine,
}

impl<'e> ExplainEstimator<'e> {
    pub fn new(engine: &'e Engine) -> Self {
        ExplainEstimator { engine }
    }
}

impl CostEstimator for ExplainEstimator<'_> {
    fn estimate(&self, q: &FolQuery) -> f64 {
        self.engine.explain(q)
    }

    fn name(&self) -> &str {
        "rdbms"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::testutil::small_abox;
    use crate::layout::LayoutKind;
    use crate::profile::EngineProfile;
    use obda_dllite::ConceptId;
    use obda_query::{Atom, Term, VarId, CQ};

    #[test]
    fn adapters_expose_names_and_estimates() {
        let (voc, abox) = small_abox();
        let engine = Engine::load(&abox, &voc, LayoutKind::Simple, EngineProfile::pg_like());
        let q = FolQuery::Cq(CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(ConceptId(0), Term::Var(VarId(0)))],
        ));
        let explain = ExplainEstimator::new(&engine);
        assert_eq!(explain.name(), "rdbms");
        assert!(explain.estimate(&q) > 0.0);
        let ext = engine.ext_cost_model();
        assert_eq!(CostEstimator::name(&ext), "ext");
        assert!(CostEstimator::estimate(&ext, &q) > 0.0);
    }
}
