//! # obda-bench
//!
//! Shared harness for regenerating the paper's tables and figures: dataset
//! construction at configurable scales, strategy × engine × layout sweeps,
//! and fixed-width table rendering. Each table/figure has a binary in
//! `src/bin`, named after it (`fig2`, `fig3`, `table6`, ...).

use std::time::Duration;

use obda_core::{choose_reformulation, Chosen, CostEstimator, Strategy};
use obda_dllite::{ABox, Dependencies};
use obda_lubm::{generate, GenConfig, UnivOntology, WorkloadQuery};
use obda_query::CQ;
use obda_rdbms::{Engine, EngineError, EngineProfile, ExplainEstimator, LayoutKind};

/// Benchmark scales: fact counts standing in for the paper's 15M / 100M
/// server-scale ABoxes, scaled down to run on one machine in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Small,
    Large,
}

impl Scale {
    /// Target fact count, overridable via `OBDA_SCALE_SMALL` /
    /// `OBDA_SCALE_LARGE`.
    pub fn target_facts(self) -> usize {
        let (var, default) = match self {
            Scale::Small => ("OBDA_SCALE_SMALL", 60_000),
            Scale::Large => ("OBDA_SCALE_LARGE", 300_000),
        };
        std::env::var(var)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    pub fn label(self) -> &'static str {
        match self {
            Scale::Small => "small (15M-regime)",
            Scale::Large => "large (100M-regime)",
        }
    }
}

/// A generated dataset: ontology + ABox + dependency sets.
pub struct Dataset {
    pub onto: UnivOntology,
    pub abox: ABox,
    pub deps: Dependencies,
    pub facts: usize,
}

impl Dataset {
    pub fn build(scale: Scale) -> Self {
        Self::build_with_facts(scale.target_facts())
    }

    /// Build a dataset with an explicit fact-count target (used by
    /// criterion benches, which want small fixed fixtures).
    pub fn build_with_facts(target_facts: usize) -> Self {
        let mut onto = UnivOntology::build();
        let config = GenConfig {
            target_facts,
            ..Default::default()
        };
        let (abox, report) = generate(&mut onto, &config);
        let deps = Dependencies::compute(&onto.voc, &onto.tbox);
        Dataset {
            onto,
            abox,
            deps,
            facts: report.facts,
        }
    }

    pub fn engine(&self, layout: LayoutKind, profile: EngineProfile) -> Engine {
        Engine::load(&self.abox, &self.onto.voc, layout, profile)
    }

    pub fn workload(&self) -> Vec<WorkloadQuery> {
        obda_lubm::workload(&self.onto)
    }
}

/// Which cost estimator a strategy run consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// The engine's own explain (GDL/RDBMS in the figures).
    Rdbms,
    /// The external textbook model (GDL/ext).
    Ext,
}

/// One measured cell of a figure.
#[derive(Debug, Clone)]
pub struct Cell {
    pub query: String,
    pub strategy: String,
    /// Wall-clock execution time of the chosen reformulation.
    pub wall: Option<Duration>,
    /// Simulated (profile-scaled work-unit) time.
    pub simulated: Option<Duration>,
    /// SQL statement size shipped to the engine.
    pub sql_bytes: usize,
    /// Engine error, e.g. statement too long (Figure 3's missing bars).
    pub error: Option<String>,
    /// Number of result rows.
    pub rows: usize,
    /// Union terms in the chosen reformulation.
    pub union_terms: usize,
}

/// Choose a reformulation under `strategy` and evaluate it on `engine`.
pub fn run_cell(
    dataset: &Dataset,
    engine: &Engine,
    query: &WorkloadQuery,
    strategy: &Strategy,
    estimator: EstimatorKind,
    label: &str,
) -> Cell {
    let chosen = choose(dataset, engine, &query.cq, strategy, estimator);
    let union_terms = chosen.fol.equivalent_cq_count();
    match engine.evaluate(&chosen.fol) {
        Ok(outcome) => Cell {
            query: query.name.clone(),
            strategy: label.to_owned(),
            wall: Some(outcome.metrics.wall),
            simulated: Some(outcome.simulated),
            sql_bytes: outcome.sql_bytes,
            error: None,
            rows: outcome.rows.len(),
            union_terms,
        },
        Err(EngineError::StatementTooLong { size, limit }) => Cell {
            query: query.name.clone(),
            strategy: label.to_owned(),
            wall: None,
            simulated: None,
            sql_bytes: size,
            error: Some(format!("statement too long ({size} > {limit})")),
            rows: 0,
            union_terms,
        },
        Err(other) => Cell {
            query: query.name.clone(),
            strategy: label.to_owned(),
            wall: None,
            simulated: None,
            sql_bytes: 0,
            error: Some(other.to_string()),
            rows: 0,
            union_terms,
        },
    }
}

/// Run strategy selection with the right estimator wiring.
pub fn choose(
    dataset: &Dataset,
    engine: &Engine,
    cq: &CQ,
    strategy: &Strategy,
    estimator: EstimatorKind,
) -> Chosen {
    match estimator {
        EstimatorKind::Rdbms => {
            let est = ExplainEstimator::new(engine);
            choose_reformulation(cq, &dataset.onto.tbox, &dataset.deps, &est, strategy)
        }
        EstimatorKind::Ext => {
            let est = engine.ext_cost_model();
            choose_with(&est, dataset, cq, strategy)
        }
    }
}

fn choose_with(est: &dyn CostEstimator, dataset: &Dataset, cq: &CQ, strategy: &Strategy) -> Chosen {
    choose_reformulation(cq, &dataset.onto.tbox, &dataset.deps, est, strategy)
}

/// Render cells as a fixed-width table grouped by query.
pub fn render_table(title: &str, cells: &[Cell]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:<6} {:<22} {:>10} {:>10} {:>9} {:>8} {:>10}  {}",
        "query", "strategy", "wall_ms", "sim_ms", "rows", "unions", "sql_bytes", "note"
    );
    for c in cells {
        let wall = c
            .wall
            .map(|d| format!("{:.2}", d.as_secs_f64() * 1e3))
            .unwrap_or_else(|| "-".into());
        let sim = c
            .simulated
            .map(|d| format!("{:.2}", d.as_secs_f64() * 1e3))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "{:<6} {:<22} {:>10} {:>10} {:>9} {:>8} {:>10}  {}",
            c.query,
            c.strategy,
            wall,
            sim,
            c.rows,
            c.union_terms,
            c.sql_bytes,
            c.error.as_deref().unwrap_or("")
        );
    }
    out
}

/// Format a duration in milliseconds with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> Dataset {
        std::env::set_var("OBDA_SCALE_SMALL", "2000");
        Dataset::build(Scale::Small)
    }

    #[test]
    fn dataset_builds_and_loads() {
        let d = tiny_dataset();
        assert!(d.facts >= 2000);
        let engine = d.engine(LayoutKind::Simple, EngineProfile::pg_like());
        assert!(engine.stats().total_facts >= 2000);
        assert_eq!(d.workload().len(), 13);
    }

    #[test]
    fn run_cell_produces_measurements() {
        let d = tiny_dataset();
        let engine = d.engine(LayoutKind::Simple, EngineProfile::pg_like());
        let wl = d.workload();
        let q12 = wl.iter().find(|q| q.name == "Q12").unwrap();
        let cell = run_cell(
            &d,
            &engine,
            q12,
            &Strategy::CrootJucq,
            EstimatorKind::Ext,
            "Croot",
        );
        assert!(cell.error.is_none(), "{:?}", cell.error);
        assert!(cell.wall.is_some());
        assert!(cell.sql_bytes > 0);
    }

    #[test]
    fn render_table_formats() {
        let cell = Cell {
            query: "Q1".into(),
            strategy: "UCQ".into(),
            wall: Some(Duration::from_millis(5)),
            simulated: Some(Duration::from_millis(7)),
            sql_bytes: 123,
            error: None,
            rows: 10,
            union_terms: 42,
        };
        let table = render_table("test", &[cell]);
        assert!(table.contains("Q1"));
        assert!(table.contains("5.00"));
    }
}
