//! # obda — cover-based cost-driven query answering for DL-LiteR
//!
//! A from-scratch Rust reproduction of *"Teaching an RDBMS about
//! ontological constraints"* (Bursztyn, Goasdoué, Manolescu, VLDB 2016):
//! ontology-based data access where answering a conjunctive query `q`
//! under a DL-LiteR TBox `T` reduces to evaluating a FOL reformulation of
//! `q` over the plain data — and where, instead of the single textbook UCQ
//! reformulation, a cost-driven search picks the cheapest among many
//! equivalent **cover-based** reformulations (JUCQs/JUSCQs).
//!
//! This facade crate re-exports the workspace layers:
//!
//! * [`dllite`] — knowledge bases: vocabulary, TBox/ABox, saturation,
//!   dependencies (`dep(N)`), consistency, bounded chase;
//! * [`query`] — the FOL dialects of the paper's Table 4 plus
//!   homomorphisms, containment, minimization and a reference evaluator;
//! * [`reform`] — PerfectRef CQ-to-UCQ reformulation, USCQ factorization,
//!   fragment queries and cover-based reformulation;
//! * [`core`] — covers, safety, the lattice `Lq`, the generalized space
//!   `Gq`, and the EDL/GDL cost-driven searches;
//! * [`rdbms`] — the in-memory engine substrate: three storage layouts,
//!   planner/executor, SQL generation plus a SQL front end that reads
//!   the text back onto the same executor (`rdbms::sqlexec`, selectable
//!   via `Backend::Sql` — the paper's delegate-to-the-RDBMS loop,
//!   closed), engine profiles, cost
//!   models, the concurrent serving layer (snapshots + plan cache +
//!   parallel union-arm execution), and the durable ABox store (binary
//!   snapshots, write-ahead log, crash recovery, incremental apply);
//! * [`lubm`] — the LUBM∃-style benchmark: ontology, data generator,
//!   workload queries.
//!
//! ## Quickstart
//!
//! ```
//! use obda::prelude::*;
//!
//! // A tiny KB: PhD students are researchers; the ABox stores only the
//! // specific fact.
//! let kb = KnowledgeBase::parse(
//!     "PhDStudent <= Researcher\nPhDStudent(Damian)",
//! )
//! .unwrap();
//!
//! // q(x) <- Researcher(x): evaluation alone finds nothing…
//! let researcher = kb.voc().find_concept("Researcher").unwrap();
//! let q = CQ::with_var_head(
//!     vec![VarId(0)],
//!     vec![Atom::Concept(researcher, Term::Var(VarId(0)))],
//! );
//! assert!(eval_over_abox(kb.abox(), &FolQuery::Cq(q.clone())).is_empty());
//!
//! // …but the UCQ reformulation folds the ontology into the query.
//! let ucq = perfect_ref(&q, kb.tbox());
//! let answers = eval_over_abox(kb.abox(), &FolQuery::Ucq(ucq));
//! assert_eq!(answers.len(), 1);
//! ```

pub use obda_core as core;
pub use obda_dllite as dllite;
pub use obda_lubm as lubm;
pub use obda_query as query;
pub use obda_rdbms as rdbms;
pub use obda_reform as reform;

/// The most commonly used items, for examples and downstream callers.
pub mod prelude {
    pub use obda_core::{
        choose_reformulation, edl, gdl, root_cover, CostEstimator, Cover, Fragment, GdlConfig,
        QueryAnalysis, Strategy, StructuralEstimator,
    };
    pub use obda_dllite::{
        is_consistent, ABox, AboxDelta, Axiom, BasicConcept, ConceptId, ConstraintSet,
        IndividualId, KnowledgeBase, PredId, Role, RoleId, TBox, TBoxBuilder, Vocabulary,
    };
    pub use obda_lubm::{generate, star_query, workload, GenConfig, UnivOntology};
    pub use obda_query::{
        certain_answers, eval_over_abox, Atom, FolQuery, Term, VarId, CQ, JUCQ, UCQ,
    };
    pub use obda_rdbms::{
        Backend, DurableStore, Engine, EngineProfile, ExplainEstimator, LayoutKind,
        MetricsEndpoint, MetricsRegistry, Server, ServerConfig, ServerError, StoreError, Txn,
    };
    pub use obda_reform::{
        cover_reformulation, fragment_query, perfect_ref, perfect_ref_pruned, FragmentSpec,
    };
}

#[cfg(test)]
mod tests {
    /// The eleven root integration suites rely on cargo's `tests/`
    /// autodiscovery. Guard against someone disabling it or renaming a
    /// suite file: each must exist, and the manifest must not opt out.
    #[test]
    fn integration_suites_are_registered() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        for suite in [
            "end_to_end",
            "paper_examples",
            "failure_injection",
            "equivalence_props",
            "differential",
            "concurrency",
            "persistence",
            "sql_goldens",
            "pgwire",
            "transactions",
            "constraints",
        ] {
            let path = root.join("tests").join(format!("{suite}.rs"));
            assert!(
                path.is_file(),
                "integration suite missing: {}",
                path.display()
            );
        }
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        let disables_autotests = manifest
            .lines()
            .map(|l| l.split('#').next().unwrap_or("").replace([' ', '\t'], ""))
            .any(|l| l.starts_with("autotests=false"));
        assert!(
            !disables_autotests,
            "tests/ autodiscovery must stay enabled so all eleven suites are test targets"
        );
    }
}
