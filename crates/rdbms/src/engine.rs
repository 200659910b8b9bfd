//! The engine facade: storage + profile + SQL front end + explain.
//!
//! Plays the role of "PostgreSQL / DB2 storing the ABox" in the paper's
//! architecture (Figure 1's right side): it receives a FOL reformulation,
//! translates it to SQL (enforcing the profile's statement-size limit),
//! evaluates it, and exposes a cost estimation (`explain`) that the
//! cost-driven search algorithms can consult.

use std::fmt;
use std::time::{Duration, Instant};

use obda_dllite::{ABox, AboxDelta, ConceptId, Extents, IndividualId, RoleId, Vocabulary};
use obda_query::{FolQuery, Term, CQ};

use crate::cost_model::CostModel;
use crate::executor::{execute, prepare_plans, PreparedPlans, Row};
use crate::layout::dph::DphStorage;
use crate::layout::simple::SimpleStorage;
use crate::layout::triple::TripleStorage;
use crate::layout::{LayoutKind, Storage};
use crate::meter::Meter;
use crate::metrics::ExecMetrics;
use crate::planner::{plan_conjunction, Conjunct, ConjunctionPlan, ExecMode, JoinStrategy};
use crate::profile::EngineProfile;
use crate::sql::{SqlGenerator, SqlNames};
use crate::sqlexec::{Backend, SqlError};
use crate::stats::CatalogStats;

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The SQL translation exceeds the profile's statement-size limit —
    /// DB2's "statement is too long or too complex" (§6.3).
    StatementTooLong { size: usize, limit: usize },
    /// The SQL backend failed to parse or lower a statement. For
    /// generator-produced SQL this indicates a generator/lowering bug
    /// (the differential harness keeps it unreachable); for raw SQL via
    /// [`Engine::run_sql`] it is an ordinary user error.
    Sql(SqlError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::StatementTooLong { size, limit } => write!(
                f,
                "The statement is too long or too complex. Current SQL statement size is {size} (limit {limit})"
            ),
            EngineError::Sql(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Result of evaluating one statement.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub rows: Vec<Row>,
    pub metrics: ExecMetrics,
    /// Per-union-arm metric deltas (empty for non-union shapes). For a
    /// top-level UCQ/USCQ these sum to `metrics` on every work counter —
    /// the invariant the differential testkit asserts.
    pub arm_metrics: Vec<ExecMetrics>,
    /// Length of the SQL translation shipped to the engine.
    pub sql_bytes: usize,
    /// Simulated execution time under the engine profile (work units ×
    /// profile scale) — comparable across profiles, unlike wall time.
    pub simulated: Duration,
    /// Under [`Backend::Sql`]: what the statement text was turned into
    /// before it ran (`None` under the native backend).
    pub lowered: Option<Lowered>,
}

/// What the SQL backend made of a statement's text: the query it
/// denotes and the plans that ran — the statement's real `EXPLAIN`, and
/// the estimates to hold its measured work against.
#[derive(Debug, Clone)]
pub struct Lowered {
    pub fol: FolQuery,
    pub plans: PreparedPlans,
    /// Parse + lower + plan time, paid per execution (the plan cache
    /// holds the text). Part of `metrics.wall`.
    pub took: Duration,
}

/// Evaluation controls for [`Engine::evaluate_opts`]. The default is the
/// classic path: engine-configured strategy, inline planning, sequential
/// execution, SQL regenerated per call.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalOptions<'a> {
    /// Join-strategy override (`None` = the engine's configured one).
    pub strategy: Option<JoinStrategy>,
    /// Stored plans to replay instead of planning inline. Ignored by the
    /// SQL backend, which plans what it lowers from the text.
    pub prepared: Option<&'a PreparedPlans>,
    /// Worker threads for union-arm / component fan-out (`0` or `1` =
    /// sequential).
    pub threads: usize,
    /// Precomputed SQL translation size; skips regenerating the SQL text
    /// (the statement-size check still runs against it).
    pub sql_bytes: Option<usize>,
    /// Precomputed SQL translation text — the serving layer's cached
    /// compilation hands it to the SQL backend so the hot path skips
    /// regenerating the statement. Takes precedence over `sql_bytes`.
    pub sql_text: Option<&'a str>,
    /// Execution-backend override (`None` = the engine's configured
    /// one). The serving layer's wire sessions select their backend per
    /// connection, against one shared engine snapshot.
    pub backend: Option<Backend>,
    /// Read by nothing (there is one native pipeline): kept only until
    /// the benchmark package stops naming it.
    pub mode: Option<ExecMode>,
}

/// An RDBMS instance: one loaded ABox under one layout and profile.
///
/// `Engine` is `Send + Sync` (storage is immutable after load; every
/// evaluation carries its own [`Meter`]), so one loaded instance can
/// serve many OS threads concurrently — the property the serving layer's
/// `Arc`-shared snapshots build on.
pub struct Engine {
    storage: Box<dyn Storage>,
    profile: EngineProfile,
    join_strategy: JoinStrategy,
    sql: SqlGenerator,
    backend: Backend,
}

/// Compile-time enforcement of the thread-safety contract above.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};

/// Cloning an engine clones the storage behind the trait object
/// ([`Storage::boxed_clone`]): under the simple and triple layouts that
/// is one reference-count bump per predicate table and per statistics
/// map, and the clone shares them all with the original until
/// [`Engine::apply_delta`] writes to one, which copies that one. This is
/// how the serving layer opens a generation — clone the published
/// engine, apply the delta, swap it in — at the cost of the tables the
/// delta touches, and how a transaction's overlay reads its own writes.
/// The entity layout copies its two wide tables whole (its only path;
/// see `layout::dph`).
impl Clone for Engine {
    fn clone(&self) -> Self {
        Engine {
            storage: self.storage.boxed_clone(),
            profile: self.profile.clone(),
            join_strategy: self.join_strategy,
            sql: self.sql.clone(),
            backend: self.backend,
        }
    }
}

impl Engine {
    /// Load an ABox under the given layout and profile. Physical operator
    /// choice defaults to [`JoinStrategy::CostChosen`].
    pub fn load(abox: &ABox, voc: &Vocabulary, layout: LayoutKind, profile: EngineProfile) -> Self {
        let storage: Box<dyn Storage> = match layout {
            LayoutKind::Simple => Box::new(SimpleStorage::load(abox)),
            LayoutKind::Triple => Box::new(TripleStorage::load(abox)),
            LayoutKind::Dph => Box::new(DphStorage::load(abox)),
        };
        let sql = SqlGenerator::new(SqlNames::from_vocabulary(voc), layout);
        Engine {
            storage,
            profile,
            join_strategy: JoinStrategy::CostChosen,
            sql,
            backend: Backend::Native,
        }
    }

    /// Maintain the loaded tables, indexes and statistics under one
    /// **effective** [`AboxDelta`] (the sub-delta `ABox::apply` returns),
    /// in place — the incremental alternative to a full [`Engine::load`].
    /// After the call the engine answers exactly as one loaded from the
    /// mutated ABox (the differential mutation suite proves it per layout
    /// and strategy). SQL naming is unaffected: deltas cannot introduce
    /// concept or role names, and individual ids never appear in SQL.
    pub fn apply_delta(&mut self, delta: &AboxDelta) {
        self.storage.apply_delta(delta);
    }

    /// Pin the physical operator strategy (forced modes drive the
    /// differential harness and the benchmarks).
    pub fn with_join_strategy(mut self, strategy: JoinStrategy) -> Self {
        self.join_strategy = strategy;
        self
    }

    pub fn join_strategy(&self) -> JoinStrategy {
        self.join_strategy
    }

    /// Select how a query reaches the executor: [`Backend::Native`]
    /// plans and runs the `FolQuery` it is given; [`Backend::Sql`]
    /// generates the SQL translation, parses it, lowers it back
    /// ([`crate::sqlexec`]) and plans and runs *that* — the paper's
    /// "delegate to the RDBMS" path, end to end, through the same
    /// planner and operators. The differential harness proves the two
    /// agree on every answer set.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    pub fn backend(&self) -> Backend {
        self.backend
    }

    pub fn layout(&self) -> LayoutKind {
        self.storage.layout()
    }

    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    pub fn stats(&self) -> &CatalogStats {
        self.storage.stats()
    }

    /// Point lookup: does the stored ABox assert `c(a)`? Backs the
    /// transaction layer's read-your-own-writes resolution, where a
    /// working-set retraction only becomes a delta deletion if the fact
    /// exists in the pinned snapshot. Metered against a scratch meter —
    /// probes are not part of any query's cost accounting.
    pub fn probe_concept(&self, c: ConceptId, a: IndividualId) -> bool {
        let mut m = Meter::new(&self.profile);
        self.storage.probe_concept(c, a.0, &mut m)
    }

    /// Point lookup: does the stored ABox assert `r(a, b)`? See
    /// [`Engine::probe_concept`].
    pub fn probe_role(&self, r: RoleId, a: IndividualId, b: IndividualId) -> bool {
        let mut m = Meter::new(&self.profile);
        self.storage.probe_role(r, a.0, b.0, &mut m)
    }

    /// Materialize the stored predicate extents for constraint mining
    /// (`ConstraintSet::mine`). Zero-cardinality predicates get **no**
    /// entry — their absence is exactly what mining reads as emptiness.
    /// Metered against a scratch meter: mining is snapshot bookkeeping,
    /// not part of any query's cost accounting.
    pub fn extract_extents(&self, voc: &Vocabulary) -> Extents {
        let mut m = Meter::new(&self.profile);
        let mut ext = Extents::default();
        for c in voc.concept_ids() {
            if self.stats().concept_card(c.0) == 0 {
                continue;
            }
            let set = ext.concepts.entry(c).or_default();
            self.storage.for_each_concept(c, &mut m, &mut |a| {
                set.insert(a);
            });
        }
        for r in voc.role_ids() {
            if self.stats().role_card(r.0) == 0 {
                continue;
            }
            let set = ext.roles.entry(r).or_default();
            self.storage.for_each_role(r, &mut m, &mut |a, b| {
                set.insert((a, b));
            });
        }
        ext
    }

    /// The SQL translation of a query under this engine's layout.
    pub fn sql_for(&self, q: &FolQuery) -> String {
        self.sql.generate(q)
    }

    /// Evaluate a FOL query end to end: SQL translation (with the
    /// statement-size check), execution, metering — under the engine's
    /// configured join strategy.
    pub fn evaluate(&self, q: &FolQuery) -> Result<QueryOutcome, EngineError> {
        self.evaluate_with(q, self.join_strategy)
    }

    /// Evaluate under an explicit [`JoinStrategy`], regardless of the
    /// engine's configured one.
    pub fn evaluate_with(
        &self,
        q: &FolQuery,
        strategy: JoinStrategy,
    ) -> Result<QueryOutcome, EngineError> {
        self.evaluate_opts(
            q,
            &EvalOptions {
                strategy: Some(strategy),
                ..EvalOptions::default()
            },
        )
    }

    /// Plan every conjunction of `q` against this engine's statistics and
    /// layout under the configured join strategy — the cacheable artifact
    /// the serving layer stores per canonical query key.
    pub fn prepare(&self, q: &FolQuery) -> PreparedPlans {
        self.prepare_with(q, self.join_strategy)
    }

    /// [`Engine::prepare`] under an explicit strategy.
    pub fn prepare_with(&self, q: &FolQuery, strategy: JoinStrategy) -> PreparedPlans {
        prepare_plans(q, self.storage.stats(), self.storage.layout(), strategy)
    }

    /// The full-control evaluation entry point: optional strategy
    /// override, optional stored plans, optional intra-query parallelism,
    /// optional precomputed SQL size (the serving layer's hot path skips
    /// regenerating the SQL text of a cached statement).
    pub fn evaluate_opts(
        &self,
        q: &FolQuery,
        opts: &EvalOptions<'_>,
    ) -> Result<QueryOutcome, EngineError> {
        // §6.3: a statement over the limit is rejected from its length
        // alone — a cached length (`sql_bytes`) without regenerating the
        // text it could never ship, a text before it is parsed.
        let generated;
        let (text, sql_bytes) = match (opts.sql_text, opts.sql_bytes) {
            (Some(t), _) => (Some(t), t.len()),
            (None, Some(n)) => (None, n),
            (None, None) => {
                generated = self.sql.generate(q);
                (Some(generated.as_str()), generated.len())
            }
        };
        self.check_statement_size(sql_bytes)?;
        let strategy = opts.strategy.unwrap_or(self.join_strategy);
        if opts.backend.unwrap_or(self.backend) == Backend::Sql {
            // The delegation path: the answer is what the SQL text says.
            // Of `q` only the emptiness of its head is consulted (see
            // `sqlexec::lower`); stored plans describe `q`, not the
            // text, and are not replayed.
            let regenerated;
            let text = match text {
                Some(t) => t,
                None => {
                    regenerated = self.sql.generate(q);
                    &regenerated
                }
            };
            let boolean = q.head().is_empty();
            return self.run_sql_statement(text, boolean, strategy, opts.threads);
        }
        Ok(self.run(q, sql_bytes, strategy, opts.prepared, opts.threads))
    }

    fn check_statement_size(&self, size: usize) -> Result<(), EngineError> {
        match self.profile.max_statement_bytes {
            Some(limit) if size > limit => Err(EngineError::StatementTooLong { size, limit }),
            _ => Ok(()),
        }
    }

    /// Execute and meter one query: the operator pipeline both backends
    /// end in.
    fn run(
        &self,
        q: &FolQuery,
        sql_bytes: usize,
        strategy: JoinStrategy,
        prepared: Option<&PreparedPlans>,
        threads: usize,
    ) -> QueryOutcome {
        let start = Instant::now();
        let mut meter = Meter::new(&self.profile);
        let rows = execute(
            self.storage.as_ref(),
            q,
            &mut meter,
            strategy,
            prepared,
            threads,
        );
        let mut metrics = meter.metrics;
        metrics.wall = start.elapsed();
        let simulated = metrics.simulated(&self.profile);
        QueryOutcome {
            rows,
            metrics,
            arm_metrics: meter.arm_metrics,
            sql_bytes,
            simulated,
            lowered: None,
        }
    }

    /// Run a raw SQL statement of the generated dialect (see
    /// [`crate::sqlexec`]) against the loaded ABox, regardless of the
    /// configured backend. The profile's statement-size limit applies.
    pub fn run_sql(&self, sql: &str) -> Result<QueryOutcome, EngineError> {
        self.check_statement_size(sql.len())?;
        self.run_sql_statement(sql, false, self.join_strategy, 1)
    }

    /// The SQL path: parse → lower → plan → execute. The caller has
    /// checked the statement's size. `boolean` is the one bit the text
    /// cannot carry (see [`crate::sqlexec::lower()`]).
    fn run_sql_statement(
        &self,
        sql: &str,
        boolean: bool,
        strategy: JoinStrategy,
        threads: usize,
    ) -> Result<QueryOutcome, EngineError> {
        let start = Instant::now();
        let fol = crate::sqlexec::parse(sql)
            .and_then(|parsed| crate::sqlexec::lower(&parsed, self.sql.names(), boolean))
            .map_err(EngineError::Sql)?;
        let plans = prepare_plans(&fol, self.storage.stats(), self.storage.layout(), strategy);
        let took = start.elapsed();
        let mut outcome = self.run(&fol, sql.len(), strategy, Some(&plans), threads);
        outcome.metrics.wall += took;
        outcome.lowered = Some(Lowered { fol, plans, took });
        Ok(outcome)
    }

    /// The engine's own cost estimation ("explain"). Statements over the
    /// size limit estimate to infinity — they cannot run at all.
    pub fn explain(&self, q: &FolQuery) -> f64 {
        if let Some(limit) = self.profile.max_statement_bytes {
            if self.sql.generate(q).len() > limit {
                return f64::INFINITY;
            }
        }
        self.rdbms_cost_model().estimate_fol(q)
    }

    /// The structured explain: per conjunction (CQ, SCQ, union arm, JUCQ
    /// component arm), the slot order and the physical operator chosen
    /// for each step, with per-step cost and row estimates — the same
    /// [`crate::planner::plan_conjunction`] the executor will follow, so the printed plan
    /// is the plan that runs.
    pub fn explain_plan(&self, q: &FolQuery) -> ExplainPlan {
        let mut arms = Vec::new();
        let mut add_cq = |label: String, cq: &CQ| {
            arms.push(self.arm_plan(label, cq.atoms(), cq.head()));
        };
        match q {
            FolQuery::Cq(cq) => add_cq("cq".into(), cq),
            FolQuery::Ucq(ucq) => {
                for (i, cq) in ucq.cqs().iter().enumerate() {
                    add_cq(format!("arm{i}"), cq);
                }
            }
            FolQuery::Scq(scq) => arms.push(self.arm_plan("scq".into(), scq.slots(), scq.head())),
            FolQuery::Uscq(uscq) => {
                for (i, scq) in uscq.scqs().iter().enumerate() {
                    arms.push(self.arm_plan(format!("arm{i}"), scq.slots(), scq.head()));
                }
            }
            FolQuery::Jucq(jucq) => {
                for (ci, comp) in jucq.components().iter().enumerate() {
                    for (i, cq) in comp.cqs().iter().enumerate() {
                        add_cq(format!("c{ci}.arm{i}"), cq);
                    }
                }
            }
            FolQuery::Juscq(juscq) => {
                for (ci, comp) in juscq.components().iter().enumerate() {
                    for (i, scq) in comp.scqs().iter().enumerate() {
                        arms.push(self.arm_plan(format!("c{ci}.arm{i}"), scq.slots(), scq.head()));
                    }
                }
            }
        }
        ExplainPlan {
            strategy: self.join_strategy,
            total_cost: self.explain(q),
            arms,
        }
    }

    fn arm_plan<C: Conjunct>(&self, label: String, slots: &[C], head: &[Term]) -> ArmPlan {
        let plan = plan_conjunction(
            slots,
            head,
            self.storage.stats(),
            self.storage.layout(),
            self.join_strategy,
        );
        ArmPlan { label, plan }
    }

    /// The engine-side cost model (profile quirks included), pricing
    /// under the engine's join strategy.
    pub fn rdbms_cost_model(&self) -> CostModel<'_> {
        CostModel::rdbms(self.storage.stats(), self.storage.layout(), &self.profile)
            .with_strategy(self.join_strategy)
    }

    /// The external (paper-side) cost model over this engine's statistics.
    pub fn ext_cost_model(&self) -> CostModel<'_> {
        CostModel::ext(self.storage.stats(), self.storage.layout())
            .with_strategy(self.join_strategy)
    }
}

/// One conjunction's plan inside an [`ExplainPlan`].
#[derive(Debug, Clone)]
pub struct ArmPlan {
    pub label: String,
    pub plan: ConjunctionPlan,
}

/// Structured explain output: the operator-annotated plan of every
/// conjunction in the statement.
#[derive(Debug, Clone)]
pub struct ExplainPlan {
    pub strategy: JoinStrategy,
    /// The scalar `explain` estimate for the whole statement (profile
    /// quirks included) — what cost-driven search compares.
    pub total_cost: f64,
    pub arms: Vec<ArmPlan>,
}

impl fmt::Display for ExplainPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "strategy={} cost={:.1}",
            self.strategy.name(),
            self.total_cost
        )?;
        for arm in &self.arms {
            write!(f, "{}:", arm.label)?;
            for step in &arm.plan.steps {
                write!(f, " {step}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::testutil::small_abox;
    use obda_dllite::{ConceptId, RoleId};
    use obda_query::{Atom, Term, VarId, CQ, UCQ};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    fn engine(layout: LayoutKind, profile: EngineProfile) -> Engine {
        let (voc, abox) = small_abox();
        Engine::load(&abox, &voc, layout, profile)
    }

    #[test]
    fn evaluate_returns_rows_and_metrics() {
        let e = engine(LayoutKind::Simple, EngineProfile::pg_like());
        let q = FolQuery::Cq(CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(ConceptId(0), v(0))],
        ));
        let out = e.evaluate(&q).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert!(out.metrics.work_units() > 0.0);
        assert!(out.sql_bytes > 0);
    }

    #[test]
    fn all_layouts_agree_on_answers() {
        let q = FolQuery::Cq(CQ::with_var_head(
            vec![VarId(0), VarId(1)],
            vec![
                Atom::Concept(ConceptId(0), v(0)),
                Atom::Role(RoleId(0), v(0), v(1)),
            ],
        ));
        let mut results = Vec::new();
        for layout in [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph] {
            let e = engine(layout, EngineProfile::pg_like());
            let mut rows = e.evaluate(&q).unwrap().rows;
            rows.sort();
            results.push(rows);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn statement_size_limit_fires() {
        let mut profile = EngineProfile::db2_like();
        profile.max_statement_bytes = Some(200); // tiny limit for the test
        let e = engine(LayoutKind::Dph, profile);
        let u = UCQ::from_cqs(
            vec![v(0)],
            (0..3).map(|i| {
                CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(i % 2), v(0), v(1))])
            }),
        );
        let err = e.evaluate(&FolQuery::Ucq(u.clone())).unwrap_err();
        match err {
            EngineError::StatementTooLong { size, limit } => {
                assert!(size > limit);
            }
            other => panic!("expected StatementTooLong, got {other}"),
        }
        assert!(e.explain(&FolQuery::Ucq(u)).is_infinite());
    }

    #[test]
    fn pg_profile_has_no_statement_limit() {
        let e = engine(LayoutKind::Dph, EngineProfile::pg_like());
        let u = UCQ::from_cqs(
            vec![v(0)],
            (0..20).map(|i| {
                CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(i % 2), v(0), v(1))])
            }),
        );
        assert!(e.evaluate(&FolQuery::Ucq(u)).is_ok());
    }

    #[test]
    fn explain_is_finite_for_small_queries() {
        let e = engine(LayoutKind::Simple, EngineProfile::db2_like());
        let q = FolQuery::Cq(CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(ConceptId(0), v(0))],
        ));
        let cost = e.explain(&q);
        assert!(cost.is_finite() && cost > 0.0);
    }

    #[test]
    fn evaluate_with_agrees_across_strategies_and_explain_shows_ops() {
        let q = FolQuery::Cq(CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(ConceptId(0), v(0)),
                Atom::Role(RoleId(0), v(0), v(1)),
                Atom::Concept(ConceptId(1), v(1)),
            ],
        ));
        let e = engine(LayoutKind::Simple, EngineProfile::pg_like());
        let mut base: Option<Vec<crate::executor::Row>> = None;
        for strategy in [
            JoinStrategy::ForcedInl,
            JoinStrategy::ForcedHash,
            JoinStrategy::CostChosen,
        ] {
            let mut rows = e.evaluate_with(&q, strategy).unwrap().rows;
            rows.sort();
            match &base {
                None => base = Some(rows),
                Some(b) => assert_eq!(b, &rows, "{strategy:?}"),
            }
        }
        // Explain output names the strategy and one operator per step.
        let (voc, abox) = small_abox();
        let forced = Engine::load(&abox, &voc, LayoutKind::Simple, EngineProfile::pg_like())
            .with_join_strategy(JoinStrategy::ForcedHash);
        let plan = forced.explain_plan(&q);
        assert_eq!(plan.strategy, JoinStrategy::ForcedHash);
        assert_eq!(plan.arms.len(), 1);
        assert_eq!(plan.arms[0].plan.steps.len(), 3);
        let text = plan.to_string();
        assert!(text.contains("strategy=forced-hash"), "{text}");
        assert!(text.contains("hash"), "{text}");
        // The scalar explain prices the same strategy the engine runs.
        assert!(forced.explain(&q).is_finite());
    }

    #[test]
    fn explain_plan_covers_union_arms() {
        let e = engine(LayoutKind::Simple, EngineProfile::pg_like());
        let u = UCQ::from_cqs(
            vec![v(0)],
            (0..3).map(|i| {
                CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(i), v(0))])
            }),
        );
        let plan = e.explain_plan(&FolQuery::Ucq(u));
        assert_eq!(plan.arms.len(), 3);
        assert!(plan.arms.iter().all(|a| a.plan.steps.len() == 1));
    }

    #[test]
    fn outcome_reports_arm_metrics_for_unions() {
        let e = engine(LayoutKind::Simple, EngineProfile::pg_like());
        let u = UCQ::from_cqs(
            vec![v(0)],
            (0..2).map(|i| {
                CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(i), v(0))])
            }),
        );
        let out = e.evaluate(&FolQuery::Ucq(u)).unwrap();
        assert_eq!(out.arm_metrics.len(), 2);
        let scanned: f64 = out.arm_metrics.iter().map(|m| m.scanned).sum();
        assert_eq!(scanned, out.metrics.scanned);
    }

    #[test]
    fn cloned_engine_applies_deltas_without_disturbing_the_original() {
        let (voc, abox) = small_abox();
        let q = FolQuery::Cq(CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(ConceptId(0), v(0))],
        ));
        for layout in [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph] {
            let original = Engine::load(&abox, &voc, layout, EngineProfile::pg_like());
            let before = original.evaluate(&q).unwrap().rows.len();

            let mut scratch = abox.clone();
            let delta = obda_dllite::AboxDelta::new()
                .insert_concept(ConceptId(0), obda_dllite::IndividualId(3))
                .delete_concept(ConceptId(0), obda_dllite::IndividualId(0));
            let eff = scratch.apply(&delta);

            let mut next = original.clone();
            next.apply_delta(&eff);

            // The clone sees the mutation; the original is untouched
            // (snapshot isolation at the engine level).
            assert_eq!(original.evaluate(&q).unwrap().rows.len(), before);
            let mut got = next.evaluate(&q).unwrap().rows;
            got.sort();
            let rebuilt = Engine::load(&scratch, &voc, layout, EngineProfile::pg_like());
            let mut want = rebuilt.evaluate(&q).unwrap().rows;
            want.sort();
            assert_eq!(got, want, "{layout:?}");
            assert_eq!(next.stats(), rebuilt.stats(), "{layout:?} stats");
        }
    }

    #[test]
    fn sql_backend_agrees_with_native_on_every_layout() {
        let q = FolQuery::Cq(CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(ConceptId(0), v(0)),
                Atom::Role(RoleId(0), v(0), v(1)),
            ],
        ));
        for layout in [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph] {
            let native = engine(layout, EngineProfile::pg_like());
            let sql = native.clone().with_backend(crate::sqlexec::Backend::Sql);
            assert_eq!(sql.backend(), crate::sqlexec::Backend::Sql);
            let mut a = native.evaluate(&q).unwrap().rows;
            let out = sql.evaluate(&q).unwrap();
            let mut b = out.rows;
            a.sort();
            b.sort();
            assert_eq!(a, b, "{layout:?}");
            assert!(out.sql_bytes > 0);
            assert!(
                out.metrics.work_units() > 0.0,
                "{layout:?}: SQL work metered"
            );
        }
    }

    #[test]
    fn sql_backend_maps_boolean_queries_to_the_empty_tuple() {
        let e = engine(LayoutKind::Simple, EngineProfile::pg_like());
        let sql = e.clone().with_backend(crate::sqlexec::Backend::Sql);
        let exists = FolQuery::Cq(CQ::with_var_head(
            vec![],
            vec![Atom::Concept(ConceptId(0), v(0))],
        ));
        assert_eq!(e.evaluate(&exists).unwrap().rows, vec![Vec::<u32>::new()]);
        assert_eq!(sql.evaluate(&exists).unwrap().rows, vec![Vec::<u32>::new()]);
        // s = {(1,0)} has no reflexive pair: the boolean answer is empty.
        let empty = FolQuery::Cq(CQ::with_var_head(
            vec![],
            vec![Atom::Role(RoleId(1), v(0), v(0))],
        ));
        assert!(e.evaluate(&empty).unwrap().rows.is_empty());
        assert!(sql.evaluate(&empty).unwrap().rows.is_empty());
    }

    #[test]
    fn ground_disjunctive_slots_are_existence_checks_on_both_backends() {
        use obda_query::{Slot, SCQ};
        // A fully-ground slot: A(i2) ∨ B(i2). i2 ∈ B, so the disjunction
        // holds and the other slot's rows pass through; flipping to a
        // non-member (i3) empties the answer.
        let member = Term::Const(obda_dllite::IndividualId(2));
        let non_member = Term::Const(obda_dllite::IndividualId(3));
        for (ground, expect_rows) in [(member, 2usize), (non_member, 0usize)] {
            let slot = Slot::new(vec![
                Atom::Concept(ConceptId(0), ground),
                Atom::Concept(ConceptId(1), ground),
            ]);
            let q = FolQuery::Scq(SCQ::new(
                vec![v(0)],
                vec![Slot::single(Atom::Concept(ConceptId(0), v(0))), slot],
            ));
            for layout in [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph] {
                let native = engine(layout, EngineProfile::pg_like());
                let sql = native.clone().with_backend(crate::sqlexec::Backend::Sql);
                let mut a = native.evaluate(&q).unwrap().rows;
                let mut b = sql.evaluate(&q).unwrap_or_else(|e| {
                    panic!(
                        "{layout:?}: ground slot SQL failed: {e}\n{}",
                        sql.sql_for(&q)
                    )
                });
                a.sort();
                b.rows.sort();
                assert_eq!(a, b.rows, "{layout:?}");
                assert_eq!(a.len(), expect_rows, "{layout:?}");
            }
        }
    }

    #[test]
    fn run_sql_answers_raw_statements() {
        let e = engine(LayoutKind::Simple, EngineProfile::pg_like());
        let mut rows = e
            .run_sql("SELECT DISTINCT t0.s AS h0 FROM r_r t0 WHERE t0.o = 2")
            .unwrap()
            .rows;
        rows.sort();
        assert_eq!(rows, vec![vec![0], vec![3]]);
        // Errors surface as EngineError::Sql.
        match e.run_sql("SELECT nope FROM nowhere") {
            Err(EngineError::Sql(_)) => {}
            other => panic!("expected a SQL error, got {other:?}"),
        }
    }

    /// §6.3: an oversized statement is refused from its length, by one
    /// check that sits before parsing — a cached length needs no text,
    /// and a text that is not even SQL is still "too long".
    #[test]
    fn sql_backend_enforces_the_statement_limit() {
        let mut profile = EngineProfile::db2_like();
        profile.max_statement_bytes = Some(200);
        let e = engine(LayoutKind::Dph, profile).with_backend(crate::sqlexec::Backend::Sql);
        let q = FolQuery::Cq(CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Role(RoleId(0), v(0), v(1))],
        ));
        let garbage = "?".repeat(201);
        for opts in [
            EvalOptions::default(),
            EvalOptions {
                sql_bytes: Some(201),
                ..EvalOptions::default()
            },
            EvalOptions {
                sql_text: Some(&garbage),
                ..EvalOptions::default()
            },
        ] {
            match e.evaluate_opts(&q, &opts) {
                Err(EngineError::StatementTooLong { size, limit: 200 }) => assert!(size > 200),
                other => panic!("expected StatementTooLong, got {other:?}"),
            }
        }
        assert!(matches!(
            e.run_sql(&garbage),
            Err(EngineError::StatementTooLong { size: 201, .. })
        ));
        // Within the limit the same text is a tokenizer error.
        assert!(matches!(
            e.run_sql("?"),
            Err(EngineError::Sql(SqlError::Tokenize { pos: 0, .. }))
        ));
    }

    /// The delegation loop is honest: under the SQL backend the rows are
    /// those of the *text*, whatever query came with it.
    #[test]
    fn sql_backend_rows_follow_the_text() {
        let q1 = FolQuery::Cq(CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(ConceptId(0), v(0))],
        ));
        let q2 = FolQuery::Cq(CQ::with_var_head(
            vec![VarId(0), VarId(1)],
            vec![Atom::Role(RoleId(0), v(0), v(1))],
        ));
        for layout in [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph] {
            let e = engine(layout, EngineProfile::pg_like());
            let text = e.sql_for(&q2);
            let out = e
                .evaluate_opts(
                    &q1,
                    &EvalOptions {
                        sql_text: Some(&text),
                        backend: Some(crate::sqlexec::Backend::Sql),
                        ..EvalOptions::default()
                    },
                )
                .unwrap();
            let native = e.evaluate(&q2).unwrap();
            let lowered = out
                .lowered
                .as_ref()
                .expect("the SQL path reports what it ran");
            assert_eq!(lowered.fol, q2, "{layout:?}");
            assert_eq!(lowered.plans.plans.len(), 1);
            assert_eq!(out.sql_bytes, text.len());
            // One executor: same rows, same work on every counter.
            crate::testkit::assert_same_execution(&out, &native, &format!("{layout:?}"));
            assert!(native.lowered.is_none());
        }
    }

    #[test]
    fn simulated_time_is_positive() {
        let e = engine(LayoutKind::Simple, EngineProfile::db2_like());
        let q = FolQuery::Cq(CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Role(RoleId(0), v(0), v(1))],
        ));
        let out = e.evaluate(&q).unwrap();
        assert!(out.simulated.as_nanos() > 0);
    }
}
