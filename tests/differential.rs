//! The differential suite: physical-operator equivalence as an oracle.
//!
//! The executor owns two physical join operators (index-nested-loop and
//! build/probe hash join) plus a cost-chosen mix. These tests prove the
//! three modes interchangeable on every storage layout:
//!
//! * property tests over random KBs and random queries in *every*
//!   Table-4 dialect (CQ/UCQ/SCQ/USCQ/JUCQ/JUSCQ);
//! * an end-to-end sweep over the 14 LUBM workload queries, reformulated
//!   both via PerfectRef (UCQ) and via cover-based reformulation (JUCQ);
//! * the metering audit: per-union-arm metrics sum to statement totals;
//! * EXPLAIN's plans are the plans prepared for the executor, in every
//!   dialect;
//! * the performance guarantee behind the cost-chosen default: measured
//!   work never exceeds forced-INL on the LUBM workload.
//!
//! Case counts honour `PROPTEST_CASES` (CI's differential job raises it
//! to 512; the default quick run stays small).

use proptest::prelude::*;

use obda::dllite::Dependencies;
use obda::prelude::*;
use obda::query::testkit::{
    random_abox, random_delta, random_fol_query, random_tbox, random_ucq, KbShape, Rng,
};
use obda::rdbms::testkit::{
    differential_check, differential_constraints_check, differential_constraints_mutation_check,
    differential_mutation_check, ALL_STRATEGIES,
};
use obda::rdbms::{Backend, JoinStrategy};

/// A deterministic random scenario: vocabulary, ABox, any-dialect query.
fn scenario(seed: u64, shape: &KbShape, max_atoms: usize) -> (Vocabulary, ABox, FolQuery) {
    let mut rng = Rng::new(seed);
    let (mut voc, _) = random_tbox(&mut rng, shape);
    let abox = random_abox(&mut rng, &mut voc, shape);
    let q = random_fol_query(&mut rng, &voc, max_atoms);
    (voc, abox, q)
}

proptest! {
    // Configured high so CI's differential job (PROPTEST_CASES=512) can
    // run the full complement; the main job's PROPTEST_CASES=32 keeps
    // the quick run quick (the vendored proptest only caps downward).
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Forced-hash ≡ forced-INL ≡ cost-chosen on all three layouts, for
    /// random queries in every dialect over random ABoxes.
    #[test]
    fn physical_strategies_agree_on_random_queries(seed in 0u64..1_000_000) {
        let (voc, abox, q) = scenario(seed, &KbShape::default(), 4);
        differential_check(&voc, &abox, &q, &format!("seed {seed}"));
    }

    /// Denser ABoxes (more individuals and facts) push the planner's
    /// cardinality estimates high enough that cost-chosen plans really
    /// mix operators — same equivalence must hold.
    #[test]
    fn physical_strategies_agree_on_dense_aboxes(seed in 0u64..1_000_000) {
        let shape = KbShape {
            num_individuals: 30,
            num_facts: 120,
            ..KbShape::default()
        };
        let (voc, abox, q) = scenario(seed, &shape, 5);
        differential_check(&voc, &abox, &q, &format!("dense seed {seed}"));
    }

    /// The reformulation pipeline feeds the engine UCQs: PerfectRef
    /// output over random TBoxes must answer identically under every
    /// strategy too (and the arm-metrics invariant holds per arm).
    #[test]
    fn reformulated_ucqs_agree(seed in 0u64..1_000_000) {
        let mut rng = Rng::new(seed);
        let shape = KbShape::default();
        let (mut voc, tbox) = random_tbox(&mut rng, &shape);
        let abox = random_abox(&mut rng, &mut voc, &shape);
        let cq = obda::query::testkit::random_connected_cq(&mut rng, &voc, 3, 2);
        let ucq = perfect_ref(&cq, &tbox);
        if !ucq.is_empty() {
            differential_check(&voc, &abox, &FolQuery::Ucq(ucq), &format!("reform seed {seed}"));
        }
    }

    /// The **mutation phase**: apply a random `AboxDelta` (inserts over
    /// known and batch-fresh individuals, duplicate inserts, deletes of
    /// existing and of missing facts), then assert the incremental
    /// engines answer exactly like engines rebuilt from scratch — across
    /// all layout × strategy combinations, with counter-exact catalog
    /// statistics — and that the full differential harness still holds
    /// on the mutated state.
    #[test]
    fn incremental_apply_matches_rebuild(seed in 0u64..1_000_000) {
        let mut rng = Rng::new(seed);
        let shape = KbShape::default();
        let (mut voc, _) = random_tbox(&mut rng, &shape);
        let abox = random_abox(&mut rng, &mut voc, &shape);
        let q = random_fol_query(&mut rng, &voc, 4);
        let delta = random_delta(&mut rng, &voc, &abox, 8, 0);
        differential_mutation_check(&voc, &abox, &delta, &q, &format!("mutation seed {seed}"));

        // The mutated state is an ordinary KB: the full harness
        // (18 executions + stored-plan replay + parallel arms) holds.
        let mut mutated = abox.clone();
        for name in &delta.new_individuals {
            voc.individual(name);
        }
        mutated.apply(&delta);
        differential_check(&voc, &mutated, &q, &format!("post-mutation seed {seed}"));
    }

    /// Chained mutation: N sequential deltas applied incrementally to
    /// one engine must leave its statistics counter-exact vs. a rebuild
    /// from the final ABox, on every layout (deletes that empty tables
    /// and re-inserts included).
    #[test]
    fn chained_deltas_keep_stats_exact(seed in 0u64..1_000_000) {
        let mut rng = Rng::new(seed);
        let shape = KbShape::default();
        let (mut voc, _) = random_tbox(&mut rng, &shape);
        let mut abox = random_abox(&mut rng, &mut voc, &shape);
        let mut engines: Vec<_> = [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph]
            .into_iter()
            .map(|l| Engine::load(&abox, &voc, l, EngineProfile::pg_like()))
            .collect();
        for step in 0..4 {
            let delta = random_delta(&mut rng, &voc, &abox, 6, step);
            for name in &delta.new_individuals {
                voc.individual(name);
            }
            let effective = abox.apply(&delta);
            for engine in &mut engines {
                engine.apply_delta(&effective);
            }
        }
        let want = obda::rdbms::CatalogStats::from_abox(&abox);
        for engine in &engines {
            prop_assert_eq!(
                engine.stats(),
                &want,
                "seed {}: {:?} stats drifted from rebuild",
                seed,
                engine.layout()
            );
        }
    }

    /// Random *UCQs* (not just reformulations) with several arms keep
    /// the per-arm metering invariant under every strategy — the
    /// regression test for the meter audit.
    #[test]
    fn ucq_arm_metrics_sum_to_totals(seed in 0u64..1_000_000) {
        let mut rng = Rng::new(seed);
        let shape = KbShape::default();
        let (mut voc, _) = random_tbox(&mut rng, &shape);
        let abox = random_abox(&mut rng, &mut voc, &shape);
        let ucq = random_ucq(&mut rng, &voc, 4, 3);
        let arms = ucq.len();
        let q = FolQuery::Ucq(ucq);
        for layout in [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph] {
            let engine = Engine::load(&abox, &voc, layout, EngineProfile::pg_like());
            for strategy in ALL_STRATEGIES {
                let out = engine.evaluate_with(&q, strategy).unwrap();
                prop_assert_eq!(out.arm_metrics.len(), arms);
                // The harness asserts counter-by-counter equality:
                obda::rdbms::testkit::assert_arm_metrics_sum(
                    &q,
                    &out,
                    &format!("seed {seed} {layout:?} {}", strategy.name()),
                );
            }
        }
    }

    /// EXPLAIN prints the plans that run: for random queries in every
    /// dialect, under every layout and join strategy, the plans of
    /// `explain_plan`'s non-empty arms are the plans `prepare_with`
    /// stores for the executor, in order.
    #[test]
    fn explain_plan_prints_the_prepared_plans(seed in 0u64..1_000_000) {
        let (voc, abox, q) = scenario(seed, &KbShape::default(), 4);
        for layout in [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph] {
            let engine = Engine::load(&abox, &voc, layout, EngineProfile::pg_like());
            for strategy in ALL_STRATEGIES {
                let explained: Vec<String> = engine
                    .clone()
                    .with_join_strategy(strategy)
                    .explain_plan(&q)
                    .arms
                    .iter()
                    .filter(|arm| !arm.plan.steps.is_empty())
                    .map(|arm| format!("{:?}", arm.plan))
                    .collect();
                let prepared: Vec<String> = engine
                    .prepare_with(&q, strategy)
                    .plans
                    .iter()
                    .map(|plan| format!("{plan:?}"))
                    .collect();
                prop_assert_eq!(
                    explained,
                    prepared,
                    "seed {} {:?} {}: {:?}",
                    seed,
                    layout,
                    strategy.name(),
                    q
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// LUBM end-to-end differential
// ---------------------------------------------------------------------

/// Shared LUBM fixture: dataset plus the 14 workload queries (Q1–Q13 +
/// the A5 star query), each pre-reformulated via PerfectRef (UCQ) and
/// via the root cover (JUCQ). Built once per process.
struct LubmFixture {
    onto: UnivOntology,
    abox: ABox,
    /// (name, UCQ reformulation, root-cover JUCQ reformulation).
    queries: Vec<(String, UCQ, JUCQ)>,
}

fn lubm_fixture() -> &'static LubmFixture {
    static FIXTURE: std::sync::OnceLock<LubmFixture> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut onto = UnivOntology::build();
        let config = GenConfig {
            target_facts: 800,
            ..Default::default()
        };
        let (abox, _) = generate(&mut onto, &config);
        let deps = Dependencies::compute(&onto.voc, &onto.tbox);
        let mut cqs: Vec<(String, CQ)> = workload(&onto)
            .into_iter()
            .map(|w| (w.name, w.cq))
            .collect();
        cqs.push(("A5".to_owned(), star_query(&onto, 5)));
        let queries = cqs
            .into_iter()
            .map(|(name, cq)| {
                let ucq = perfect_ref(&cq, &onto.tbox);
                let analysis = QueryAnalysis::new(&cq, &deps);
                let croot = root_cover(&analysis);
                let jucq = cover_reformulation(&cq, &onto.tbox, &croot.to_specs());
                (name, ucq, jucq)
            })
            .collect();
        LubmFixture {
            onto,
            abox,
            queries,
        }
    })
}

/// All 14 LUBM queries, reformulated via PerfectRef (UCQ) **and** via
/// cover-based reformulation (root-cover JUCQ), produce identical
/// answers under forced-INL, forced-hash, and cost-chosen execution.
#[test]
fn lubm_workload_differential_across_reformulations() {
    let fx = lubm_fixture();
    let engine = Engine::load(
        &fx.abox,
        &fx.onto.voc,
        LayoutKind::Simple,
        EngineProfile::pg_like(),
    );
    assert_eq!(fx.queries.len(), 14);
    for (name, ucq, jucq) in &fx.queries {
        let mut results: Vec<Vec<Vec<u32>>> = Vec::new();
        for strategy in ALL_STRATEGIES {
            for q in [FolQuery::Ucq(ucq.clone()), FolQuery::Jucq(jucq.clone())] {
                let mut rows = engine
                    .evaluate_with(&q, strategy)
                    .expect("pg-like: no statement limit")
                    .rows;
                rows.sort();
                results.push(rows);
            }
        }
        for r in &results[1..] {
            assert_eq!(
                r, &results[0],
                "{name}: reformulation × strategy row-set mismatch"
            );
        }
    }
}

/// The SQL-delegation acceptance bar: all 14 LUBM workload queries,
/// reformulated via PerfectRef (UCQ) **and** via the root cover (JUCQ),
/// answered through generate-SQL → parse → execute on every layout with
/// exactly the native executor's row sets — the paper's "delegate to the
/// RDBMS" loop, closed end to end.
///
/// Statements beyond the DB2 statement-size limit are the *other* half
/// of the paper's story: §6.3 finds reformulations on the RDF layout
/// "too large for evaluation" (Figure 3's "statement is too long or too
/// complex"). For those, the asserted behaviour is the rejection itself
/// — a DB2-profiled engine must refuse them — instead of a
/// multi-hundred-megabyte execution.
#[test]
fn lubm_workload_sql_backend_parity() {
    let fx = lubm_fixture();
    let native = Engine::load(
        &fx.abox,
        &fx.onto.voc,
        LayoutKind::Simple,
        EngineProfile::pg_like(),
    );
    let db2_limit = EngineProfile::db2_like()
        .max_statement_bytes
        .expect("the DB2 profile models the §6.3 statement-size limit");
    let mut executed = [0usize; 3];
    let mut rejected = 0usize;
    for (li, layout) in [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph]
        .into_iter()
        .enumerate()
    {
        let sql_engine = Engine::load(&fx.abox, &fx.onto.voc, layout, EngineProfile::pg_like())
            .with_backend(Backend::Sql);
        let db2_engine = Engine::load(&fx.abox, &fx.onto.voc, layout, EngineProfile::db2_like())
            .with_backend(Backend::Sql);
        for (name, ucq, jucq) in &fx.queries {
            for q in [FolQuery::Ucq(ucq.clone()), FolQuery::Jucq(jucq.clone())] {
                // Generate the statement once; the size check and the
                // evaluation below both reuse it (DPH translations reach
                // hundreds of megabytes).
                let sql = sql_engine.sql_for(&q);
                let opts = obda::rdbms::EvalOptions {
                    sql_text: Some(&sql),
                    sql_bytes: Some(sql.len()),
                    ..Default::default()
                };
                if sql.len() > db2_limit {
                    // Figure 3: the statement cannot run at all (the
                    // rejection comes from the cached length alone).
                    let err = db2_engine
                        .evaluate_opts(&q, &opts)
                        .expect_err("oversized statement must be refused");
                    assert!(
                        matches!(err, obda::rdbms::EngineError::StatementTooLong { .. }),
                        "{name}: wrong rejection under {layout:?}: {err}"
                    );
                    rejected += 1;
                    continue;
                }
                let mut want = native.evaluate(&q).unwrap().rows;
                want.sort();
                let out = sql_engine
                    .evaluate_opts(&q, &opts)
                    .unwrap_or_else(|e| panic!("{name}: SQL backend failed under {layout:?}: {e}"));
                let mut rows = out.rows;
                rows.sort();
                assert_eq!(rows, want, "{name}: SQL backend mismatch under {layout:?}");
                assert!(out.sql_bytes > 0);
                executed[li] += 1;
            }
        }
    }
    // Guard the test's own coverage: most statements execute on the
    // compact layouts, and the RDF layout both executes several AND
    // reproduces the Figure-3 rejections.
    assert!(
        executed[0] >= 20 && executed[1] >= 20,
        "simple/triple must execute most statements: {executed:?}"
    );
    assert!(
        executed[2] >= 8,
        "DPH must execute its within-limit statements: {executed:?}"
    );
    assert!(
        rejected >= 4,
        "the §6.3 statement-size failures must be reproduced ({rejected} rejected)"
    );
}

/// The acceptance bar for the cost-chosen default: measured work units
/// never exceed forced-INL on any LUBM PerfectRef reformulation, and the
/// scan-heavy arms win by a clear margin in aggregate.
#[test]
fn cost_chosen_work_never_exceeds_forced_inl_on_lubm() {
    let fx = lubm_fixture();
    let engine = Engine::load(
        &fx.abox,
        &fx.onto.voc,
        LayoutKind::Simple,
        EngineProfile::pg_like(),
    );
    let mut total_inl = 0.0f64;
    let mut total_chosen = 0.0f64;
    for (name, ucq, _) in &fx.queries {
        let q = FolQuery::Ucq(ucq.clone());
        let inl = engine
            .evaluate_with(&q, JoinStrategy::ForcedInl)
            .unwrap()
            .metrics
            .work_units();
        let chosen = engine
            .evaluate_with(&q, JoinStrategy::CostChosen)
            .unwrap()
            .metrics
            .work_units();
        // Per query: at least matching (small tolerance for estimate
        // noise around the break-even point).
        assert!(
            chosen <= inl * 1.05 + 50.0,
            "{name}: cost-chosen {chosen} worse than forced-INL {inl}"
        );
        total_inl += inl;
        total_chosen += chosen;
    }
    // In aggregate the mix must strictly win on this scan-heavy workload.
    assert!(
        total_chosen < total_inl,
        "aggregate: chosen {total_chosen} vs inl {total_inl}"
    );
}

// ---------------------------------------------------------------------
// serving-layer differential: plan cache on/off × threads 1/N
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The serving layer must be answer-invisible: a warm plan cache
    /// with parallel arm execution returns exactly the rows of a cold
    /// per-call pipeline, including on a head-renamed / atom-reordered
    /// variant of the query (which must HIT the canonical-key cache).
    /// Any divergence here is a cache-key or merge-order bug.
    #[test]
    fn serving_layer_parity_cache_and_threads(seed in 0u64..1_000_000) {
        let mut rng = Rng::new(seed);
        let shape = KbShape::default();
        let (mut voc, tbox) = random_tbox(&mut rng, &shape);
        let abox = random_abox(&mut rng, &mut voc, &shape);
        let cq = obda::query::testkit::random_connected_cq(&mut rng, &voc, 3, 2);

        let cold = Server::new(voc.clone(), tbox.clone(), &abox, ServerConfig {
            cache_plans: false,
            threads: 1,
            ..ServerConfig::default()
        });
        let warm = Server::new(voc.clone(), tbox.clone(), &abox, ServerConfig {
            cache_plans: true,
            threads: 3,
            ..ServerConfig::default()
        });

        let mut want = cold.query(&cq).unwrap().outcome.rows;
        want.sort();

        let miss = warm.query(&cq).unwrap();
        prop_assert!(!miss.cache_hit);
        let mut got = miss.outcome.rows;
        got.sort();
        prop_assert_eq!(&got, &want, "seed {}: cold vs warm-miss", seed);

        // Head vars renamed (+100), atoms reversed: same canonical key,
        // same answers, served from the cache.
        let shift = |t: &Term| match t {
            Term::Var(v) => Term::Var(VarId(v.0 + 100)),
            c => *c,
        };
        let variant = CQ::new(
            cq.head().iter().map(&shift).collect(),
            cq.atoms().iter().rev().map(|a| a.map_vars(|v| shift(&Term::Var(v)))).collect(),
        );
        let hit = warm.query(&variant).unwrap();
        prop_assert!(hit.cache_hit, "seed {}: variant must hit the cache", seed);
        let mut rows = hit.outcome.rows;
        rows.sort();
        prop_assert_eq!(&rows, &want, "seed {}: cached plan vs cold pipeline", seed);
    }
}

// ---------------------------------------------------------------------
// constraints parity: pruning is invisible in the answers
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Constraint-driven reformulation pruning is answer-invisible on
    /// random KBs: for random connected CQs over random TBoxes, the
    /// constraints mined from the ABox prune only union arms the
    /// reference evaluator shows empty or subsumed, and the answers
    /// stay row-identical — across both parity strategies, all three
    /// layouts and both execution backends.
    #[test]
    fn constraint_pruning_is_answer_invisible(seed in 0u64..1_000_000) {
        let mut rng = Rng::new(seed);
        let shape = KbShape::default();
        let (mut voc, tbox) = random_tbox(&mut rng, &shape);
        let abox = random_abox(&mut rng, &mut voc, &shape);
        let atoms = 1 + rng.below(3);
        let cq = obda::query::testkit::random_connected_cq(&mut rng, &voc, atoms, 2);
        differential_constraints_check(&voc, &tbox, &abox, &cq, &format!("cons seed {seed}"));
    }

    /// After a random ABox mutation, stale constraints must never be
    /// applied: the harness re-mines on the mutated state, asserts the
    /// stale set is genuinely violated whenever it stops holding, and
    /// re-runs the full constraints parity sweep against fresh
    /// constraints only.
    #[test]
    fn stale_constraints_never_survive_mutation(seed in 0u64..1_000_000) {
        let mut rng = Rng::new(seed);
        let shape = KbShape::default();
        let (mut voc, tbox) = random_tbox(&mut rng, &shape);
        let abox = random_abox(&mut rng, &mut voc, &shape);
        let atoms = 1 + rng.below(3);
        let cq = obda::query::testkit::random_connected_cq(&mut rng, &voc, atoms, 2);
        let delta = random_delta(&mut rng, &voc, &abox, 8, seed as usize);
        differential_constraints_mutation_check(
            &voc,
            &tbox,
            &abox,
            &delta,
            &cq,
            &format!("cons mutation seed {seed}"),
        );
    }
}

// ---------------------------------------------------------------------
// generation-stable compilation: the TBox scope outlives commits
// ---------------------------------------------------------------------

/// `delta` as `INSERT` / `DELETE` wire statements (inserts first, like
/// [`ABox::apply`]); names resolve in `voc`, which already interns the
/// delta's new individuals.
fn wire_statements(voc: &Vocabulary, delta: &AboxDelta) -> Vec<String> {
    let ind = |i: IndividualId| voc.individual_name(i).to_owned();
    let concept =
        |&(c, a): &(ConceptId, IndividualId)| format!("{}({})", voc.concept_name(c), ind(a));
    let role = |&(r, a, b): &(RoleId, IndividualId, IndividualId)| {
        format!("{}({}, {})", voc.role_name(r), ind(a), ind(b))
    };
    let statement = |verb: &str, facts: Vec<String>| {
        (!facts.is_empty()).then(|| format!("{verb} {}", facts.join(", ")))
    };
    let inserts = delta.insert_concepts.iter().map(concept);
    let inserts = inserts.chain(delta.insert_roles.iter().map(role)).collect();
    let deletes = delta.delete_concepts.iter().map(concept);
    let deletes = deletes.chain(delta.delete_roles.iter().map(role)).collect();
    [statement("INSERT", inserts), statement("DELETE", deletes)]
        .into_iter()
        .flatten()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Keeping the TBox-only half of compilation across generations is
    /// invisible in what gets compiled: over a random sequence of insert
    /// *and delete* deltas — alternately one-shot `apply_batch` calls and
    /// `BEGIN … COMMIT` blocks over a wire session — every generation's
    /// compilation on the caching server (reformulation, SQL size) and
    /// its rows equal those of a `cache_plans = false` twin that shares
    /// nothing with it, under both backends, and the rows equal the
    /// certain answers.
    ///
    /// And the memo is what serves the recompiles (asserted on the
    /// counters, never on time). PerfectRef runs under each generation's
    /// live TBox, which a write keeps exactly when it leaves the dead
    /// predicates alone; a write that changes them must build a new live
    /// TBox, with an empty memo. On the steps that keep it, once
    /// generation 0 has compiled every query, a strategy whose fragments
    /// do not depend on the data (the root cover, the exhaustive search)
    /// never runs PerfectRef again. GDL's path through the cover space
    /// follows the statistics, so a write can lead it to a fragment it
    /// has not met; it must still take every fragment it *has* met — the
    /// root cover's at least — from the memo.
    #[test]
    fn compilation_is_generation_stable(seed in 0u64..1_000_000) {
        let mut rng = Rng::new(seed);
        let shape = KbShape::default();
        let (mut voc, tbox) = random_tbox(&mut rng, &shape);
        let mut abox = random_abox(&mut rng, &mut voc, &shape);
        // Distinct shapes only: canonical variants share one plan-cache
        // entry, whose reformulation carries the first variant's names.
        let mut queries: Vec<CQ> = Vec::new();
        for _ in 0..3 {
            let atoms = 1 + rng.below(3);
            let cq = obda::query::testkit::random_connected_cq(&mut rng, &voc, atoms, 2);
            let key = obda::query::canonical_key(&cq);
            if queries.iter().all(|q| obda::query::canonical_key(q) != key) {
                queries.push(cq);
            }
        }
        let strategy = [
            obda::core::Strategy::Gdl { time_budget: None },
            obda::core::Strategy::Edl { cap: 0 },
            obda::core::Strategy::CrootJucq,
        ][(seed % 3) as usize]
            .clone();
        let data_independent = !matches!(strategy, obda::core::Strategy::Gdl { .. });
        let config = |cache_plans| ServerConfig {
            cache_plans,
            reform_strategy: strategy.clone(),
            ..ServerConfig::default()
        };
        let caching = std::sync::Arc::new(Server::new(voc.clone(), tbox.clone(), &abox, config(true)));
        let twin = Server::new(voc.clone(), tbox.clone(), &abox, config(false));
        let mut listener = obda::rdbms::pgwire::PgListener::bind(
            "127.0.0.1:0",
            caching.clone(),
            obda::rdbms::pgwire::PgConfig::default(),
        )
        .expect("bind ephemeral port");
        let mut wire = obda::rdbms::pgwire::WireClient::connect(&listener.local_addr(), &[])
            .expect("startup completes");
        let builds = || caching.observe().get(obda::rdbms::observe::Counter::LiveTBoxBuilds);
        let mut dead_before: Vec<PredId> = Vec::new();

        for step in 0..4usize {
            if step > 0 {
                let mut delta = random_delta(&mut rng, &voc, &abox, 6, step);
                // Introduce every fresh individual by an INSERT, in
                // declaration order: a wire session interns a name when a
                // fact first mentions it, and must hand out the ids the
                // batch path predicts.
                let base = voc.num_individuals() as u32;
                let fresh = 0..delta.new_individuals.len() as u32;
                delta.insert_concepts.splice(
                    0..0,
                    fresh.map(|k| (ConceptId(0), IndividualId(base + k))),
                );
                for name in &delta.new_individuals {
                    voc.individual(name);
                }
                if step % 2 == 1 {
                    caching.apply_batch(&delta).expect("batch commits");
                } else {
                    wire.simple_query("BEGIN").expect("BEGIN");
                    for statement in wire_statements(&voc, &delta) {
                        wire.simple_query(&statement).expect("in-transaction write");
                    }
                    let done = wire.simple_query("COMMIT").expect("COMMIT");
                    prop_assert_eq!(&done[0].tag, "COMMIT", "seed {} step {}", seed, step);
                }
                twin.apply_batch(&delta).expect("twin commits");
                abox.apply(&delta);
            }

            let (before, built_before) = (caching.cache_stats(), builds());
            let (snap, twin_snap) = (caching.snapshot(), twin.snapshot());
            for (qi, cq) in queries.iter().enumerate() {
                let truth: std::collections::BTreeSet<Vec<u32>> = certain_answers(&tbox, &abox, cq)
                    .into_iter()
                    .map(|row| row.into_iter().map(|i| i.0).collect())
                    .collect();
                for backend in [Backend::Native, Backend::Sql] {
                    let at = format!("seed {seed} step {step} q{qi} {}", backend.name());
                    let (compiled, _) = caching.compile(&snap, cq, backend);
                    let (cold, _) = twin.compile(&twin_snap, cq, backend);
                    prop_assert_eq!(&compiled.fol, &cold.fol, "{}: reformulation", at);
                    prop_assert_eq!(compiled.sql_bytes, cold.sql_bytes, "{}: SQL size", at);
                    let rows = |server: &Server, snap| {
                        let out = server.query_on_as(snap, cq, backend).expect("query answers");
                        out.outcome.rows.into_iter().collect::<std::collections::BTreeSet<_>>()
                    };
                    let got = rows(&caching, &snap);
                    prop_assert_eq!(&got, &rows(&twin, &twin_snap), "{}: cold twin", at);
                    prop_assert_eq!(&got, &truth, "{}: certain answers", at);
                }
            }
            let after = caching.cache_stats();
            let dead = snap.dead_predicates().to_vec();
            if step > 0 && dead != dead_before {
                prop_assert_eq!(
                    builds(), built_before + 1,
                    "seed {} step {}: the dead set changed, the live TBox did not", seed, step
                );
            } else if step > 0 {
                prop_assert_eq!(
                    builds(), built_before,
                    "seed {} step {}: the dead set held, the live TBox was rebuilt", seed, step
                );
                if data_independent {
                    prop_assert_eq!(
                        after.fragment_memo_misses, before.fragment_memo_misses,
                        "seed {} step {}: a recompile ran PerfectRef", seed, step
                    );
                }
                prop_assert!(
                    after.misses == before.misses
                        || after.fragment_memo_hits > before.fragment_memo_hits,
                    "seed {} step {}: recompiles bypassed the memo", seed, step
                );
            }
            dead_before = dead;
        }
        let cold = twin.cache_stats();
        prop_assert_eq!((cold.fragment_memo_hits, cold.fragment_memo_entries), (0, 0));
        wire.terminate();
        listener.shutdown();
    }
}
