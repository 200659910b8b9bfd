//! The executor differential harness: the oracle that makes physical
//! operator work safe to change.
//!
//! [`differential_check`] runs one FOL query under **every** storage
//! layout × join strategy (forced index-nested-loop, forced hash,
//! cost-chosen), asserts all nine executions return the same row set,
//! cross-checks the reference evaluator, and audits the meter's
//! per-union-arm accounting ([`assert_arm_metrics_sum`]). Each
//! combination is additionally replayed through **stored plans**
//! (`prepare` + `evaluate_opts`, the plan-cache hot path) and through
//! **parallel arm execution** (3 worker threads), asserting row-set and
//! work-counter parity with the sequential inline-planned run — so a
//! cache-key or merge-order bug fails here, not in production. The meter
//! counts themselves are held to a tuple-at-a-time run of the same plans
//! by the row oracle (`tests/row_oracle.rs`). Every layout also answers
//! through the **SQL backend**
//! (generate-SQL → parse → lower via [`crate::sqlexec`] → plan →
//! execute) with answer-set equality — making generated-SQL
//! correctness a tested property — and with the work counters of the
//! native run of the lowered query: one executor under both backends. Any future executor change — new operator, new layout,
//! planner rewrite — is covered by pointing this harness (plus the
//! random query generators in `obda_query::testkit`) at the new code
//! path.

use obda_core::{choose_reformulation, prune_fol, prune_ucq, Strategy, StructuralEstimator};
use obda_dllite::{ABox, AboxDelta, ConstraintSet, Dependencies, TBox, Vocabulary};
use obda_query::{eval_over_abox, FolQuery, CQ, UCQ};

use crate::engine::{Engine, EvalOptions, QueryOutcome};
use crate::executor::Row;
use crate::layout::LayoutKind;
use crate::metrics::ExecMetrics;
use crate::planner::JoinStrategy;
use crate::profile::EngineProfile;
use crate::sqlexec::Backend;

/// Every storage layout the engine supports.
pub const ALL_LAYOUTS: [LayoutKind; 3] = [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph];

/// Every physical operator strategy.
pub const ALL_STRATEGIES: [JoinStrategy; 3] = [
    JoinStrategy::ForcedInl,
    JoinStrategy::ForcedHash,
    JoinStrategy::CostChosen,
];

/// Sorted engine rows from the reference evaluator (the semantics
/// oracle).
pub fn reference_rows(abox: &ABox, q: &FolQuery) -> Vec<Row> {
    let mut rows: Vec<Row> = eval_over_abox(abox, q)
        .into_iter()
        .map(|row| row.into_iter().map(|i| i.0).collect())
        .collect();
    rows.sort();
    rows
}

/// Execute `q` under every layout × strategy (pg-like profile: no
/// statement-size limit can interfere), asserting every combination
/// returns the reference evaluator's row set and that union-arm metrics
/// sum to the statement totals. Returns the canonical sorted rows.
///
/// `context` is prepended to assertion messages (pass a seed).
pub fn differential_check(voc: &Vocabulary, abox: &ABox, q: &FolQuery, context: &str) -> Vec<Row> {
    let want = reference_rows(abox, q);
    for layout in ALL_LAYOUTS {
        let engine = Engine::load(abox, voc, layout, EngineProfile::pg_like());
        for strategy in ALL_STRATEGIES {
            let out = engine
                .evaluate_with(q, strategy)
                .expect("pg-like profile has no statement limit");
            let mut rows = out.rows.clone();
            rows.sort();
            assert_eq!(
                rows,
                want,
                "{context}: row-set mismatch under {layout:?}/{}",
                strategy.name()
            );
            assert_arm_metrics_sum(q, &out, context);

            // Stored-plan replay (the plan-cache hot path) must be
            // indistinguishable from inline planning: same rows, same
            // work on every counter.
            let prepared = engine.prepare_with(q, strategy);
            let replay = engine
                .evaluate_opts(
                    q,
                    &EvalOptions {
                        strategy: Some(strategy),
                        prepared: Some(&prepared),
                        ..EvalOptions::default()
                    },
                )
                .expect("pg-like profile has no statement limit");
            assert_same_execution(
                &out,
                &replay,
                &format!(
                    "{context}: stored-plan replay, {layout:?}/{}",
                    strategy.name()
                ),
            );
            assert_arm_metrics_sum(q, &replay, context);

            // Parallel arm execution (3 workers) must return the same
            // rows with identical deterministic work totals (pg-like has
            // no rescan discount, so per-arm meters sum exactly).
            let par = engine
                .evaluate_opts(
                    q,
                    &EvalOptions {
                        strategy: Some(strategy),
                        prepared: Some(&prepared),
                        threads: 3,
                        ..EvalOptions::default()
                    },
                )
                .expect("pg-like profile has no statement limit");
            assert_same_execution(
                &out,
                &par,
                &format!("{context}: parallel arms, {layout:?}/{}", strategy.name()),
            );
            assert_arm_metrics_sum(q, &par, context);
        }

        // The SQL-delegation backend: generate the layout's SQL
        // translation, parse it, lower it, and run what it says —
        // answer-set equality makes generated-SQL correctness a
        // property, not an assumption.
        let sql_engine = engine.clone().with_backend(Backend::Sql);
        let out = sql_engine.evaluate(q).unwrap_or_else(|e| {
            panic!(
                "{context}: SQL backend failed under {layout:?}: {e}\nSQL:\n{}",
                engine.sql_for(q)
            )
        });
        let mut rows = out.rows.clone();
        rows.sort();
        assert_eq!(
            rows,
            want,
            "{context}: SQL backend row-set mismatch under {layout:?}\nSQL:\n{}",
            engine.sql_for(q)
        );
        // One executor: the SQL run *is* the native run of the lowered
        // query, counter for counter.
        let lowered = out.lowered.as_ref().expect("the SQL path lowers");
        let direct = engine
            .evaluate(&lowered.fol)
            .expect("pg-like profile has no statement limit");
        assert_same_execution(
            &out,
            &direct,
            &format!("{context}: SQL backend vs native run of the lowered query, {layout:?}"),
        );
    }
    want
}

/// The reformulation strategies the constraints parity harness sweeps:
/// the plain UCQ route and the fixed root-cover JUCQ route — the two
/// shapes [`obda_core::prune_fol`] rewrites.
pub const PARITY_STRATEGIES: [Strategy; 2] = [Strategy::Ucq, Strategy::CrootJucq];

/// The **constraints parity phase** of the differential harness: prove
/// that constraint-driven pruning is invisible in the answers.
///
/// Starting from a *conjunctive* query (pruning happens during
/// reformulation, so the harness must own that step), for each of
/// [`PARITY_STRATEGIES`]:
///
/// 1. reformulate **without** constraints and **with** constraints
///    mined from `abox` (the same mining the serving layer runs per
///    snapshot generation);
/// 2. assert the two reformulations are reference-evaluator
///    row-identical — pruning never changes the answer relation;
/// 3. for the UCQ shape, re-derive the pruned arms and assert each
///    **empty-pruned** arm really evaluates to zero rows and each
///    **subsumed-pruned** arm's rows are already contained in the
///    pruned union's rows — no arm is dropped on a false proof;
/// 4. execute both reformulations under every storage layout on the
///    native **and** SQL backends, asserting every execution returns
///    the reference row set.
///
/// Returns the canonical sorted rows (identical across strategies).
pub fn differential_constraints_check(
    voc: &Vocabulary,
    tbox: &TBox,
    abox: &ABox,
    cq: &CQ,
    context: &str,
) -> Vec<Row> {
    let deps = Dependencies::compute(voc, tbox);
    let cons = ConstraintSet::mine_from_abox(tbox, abox);
    assert!(
        cons.holds_on(abox),
        "{context}: mined constraints must hold on the ABox they came from"
    );
    let mut canonical: Option<Vec<Row>> = None;
    for strategy in &PARITY_STRATEGIES {
        let off = choose_reformulation(cq, tbox, &deps, &StructuralEstimator, strategy);
        let (on, stats) = prune_fol(&off.fol, &cons);
        let want = reference_rows(abox, &off.fol);
        let got = reference_rows(abox, &on);
        assert_eq!(
            got, want,
            "{context}: pruning changed the answer relation under {strategy:?}"
        );
        assert!(
            stats.kept >= 1 || stats.arms_in == 0,
            "{context}: pruning must never empty a union ({stats:?})"
        );

        // Arm-level soundness, on the shape where arms are addressable.
        if let FolQuery::Ucq(ucq) = &off.fol {
            let pruned = prune_ucq(ucq, &cons);
            assert_eq!(
                pruned.stats(),
                stats,
                "{context}: prune_ucq and prune_fol disagree"
            );
            for arm in &pruned.empty_arms {
                let rows = reference_rows(abox, &FolQuery::Ucq(UCQ::single(arm.clone())));
                assert!(
                    rows.is_empty(),
                    "{context}: arm pruned as provably empty has {} rows: {arm:?}",
                    rows.len()
                );
            }
            for arm in &pruned.subsumed_arms {
                for row in reference_rows(abox, &FolQuery::Ucq(UCQ::single(arm.clone()))) {
                    assert!(
                        want.contains(&row),
                        "{context}: arm pruned as subsumed contributes unseen row {row:?}: {arm:?}"
                    );
                }
            }
        }

        // Execution parity: every layout, native and SQL backends, both
        // reformulations — all equal to the reference rows.
        for layout in ALL_LAYOUTS {
            let engine = Engine::load(abox, voc, layout, EngineProfile::pg_like());
            let sql_engine = engine.clone().with_backend(Backend::Sql);
            for (tag, fol) in [("off", &off.fol), ("on", &on)] {
                for (backend, eng) in [("native", &engine), ("sql", &sql_engine)] {
                    let mut rows = eng
                        .evaluate(fol)
                        .unwrap_or_else(|e| {
                            panic!(
                                "{context}: constraints={tag} failed under \
                                 {layout:?}/{backend}/{strategy:?}: {e}\nSQL:\n{}",
                                eng.sql_for(fol)
                            )
                        })
                        .rows;
                    rows.sort();
                    assert_eq!(
                        rows, want,
                        "{context}: constraints={tag} row-set mismatch under \
                         {layout:?}/{backend}/{strategy:?}"
                    );
                }
            }
        }
        if let Some(prev) = &canonical {
            assert_eq!(prev, &want, "{context}: strategies disagree on answers");
        } else {
            canonical = Some(want);
        }
    }
    canonical.unwrap_or_default()
}

/// The **constraint invalidation phase**: prove that ABox mutation
/// re-mines rather than reuses constraints.
///
/// Mines constraints from the pre-delta state, applies `delta`, and
/// asserts (a) whenever the old constraints no longer hold on the
/// mutated data the freshly-mined set differs from the stale one, and
/// (b) pruning with the *fresh* set is answer-preserving on the mutated
/// state across [`PARITY_STRATEGIES`], all layouts, and both backends —
/// i.e. the serving layer's mine-per-generation discipline is the
/// correct one. Returns the canonical sorted rows over the mutated
/// state.
pub fn differential_constraints_mutation_check(
    voc: &Vocabulary,
    tbox: &TBox,
    abox: &ABox,
    delta: &AboxDelta,
    cq: &CQ,
    context: &str,
) -> Vec<Row> {
    let stale = ConstraintSet::mine_from_abox(tbox, abox);
    let mut voc2 = voc.clone();
    for name in &delta.new_individuals {
        voc2.individual(name);
    }
    let mut mutated = abox.clone();
    mutated.apply(delta);
    let fresh = ConstraintSet::mine_from_abox(tbox, &mutated);
    assert!(
        fresh.holds_on(&mutated),
        "{context}: freshly mined constraints must hold on the mutated ABox"
    );
    // `holds_on` is the staleness oracle. A violated stale set can never
    // equal the fresh one (`fresh` holds where `stale` does not), and —
    // since the empty set vacuously holds everywhere — it necessarily
    // carried real constraints the delta just broke.
    if !stale.holds_on(&mutated) {
        assert!(
            !stale.is_empty(),
            "{context}: an empty constraint set cannot be violated"
        );
    }
    differential_constraints_check(&voc2, tbox, &mutated, cq, context)
}

/// The **mutation phase** of the differential harness: apply a delta
/// batch *incrementally* to engines loaded from `abox`, and assert they
/// are indistinguishable — on answers under every strategy, and on
/// catalog statistics exactly — from engines rebuilt from scratch on the
/// mutated ABox, across every layout. The reference evaluator on the
/// mutated ABox is the semantics oracle. Chained mutation is covered by
/// calling this repeatedly on successive states. Returns the canonical
/// sorted rows over the mutated ABox.
pub fn differential_mutation_check(
    voc: &Vocabulary,
    abox: &ABox,
    delta: &AboxDelta,
    q: &FolQuery,
    context: &str,
) -> Vec<Row> {
    // The vocabulary after the batch interns its new individuals.
    let mut voc2 = voc.clone();
    for name in &delta.new_individuals {
        voc2.individual(name);
    }
    // The mutated ABox and the effective sub-delta that produced it.
    let mut mutated = abox.clone();
    let effective = mutated.apply(delta);
    let want = reference_rows(&mutated, q);

    for layout in ALL_LAYOUTS {
        let mut incremental = Engine::load(abox, &voc2, layout, EngineProfile::pg_like());
        incremental.apply_delta(&effective);
        let rebuilt = Engine::load(&mutated, &voc2, layout, EngineProfile::pg_like());
        assert_eq!(
            incremental.stats(),
            rebuilt.stats(),
            "{context}: incremental stats must equal rebuild under {layout:?}"
        );
        for strategy in ALL_STRATEGIES {
            for (tag, engine) in [("incremental", &incremental), ("rebuilt", &rebuilt)] {
                let mut rows = engine
                    .evaluate_with(q, strategy)
                    .expect("pg-like profile has no statement limit")
                    .rows;
                rows.sort();
                assert_eq!(
                    rows,
                    want,
                    "{context}: {tag} row-set mismatch under {layout:?}/{}",
                    strategy.name()
                );
            }
        }

        // The SQL backend over delta-maintained storage: the text is
        // generated, read back and planned against the *mutated*
        // statistics.
        let sql_engine = incremental.clone().with_backend(Backend::Sql);
        let mut rows = sql_engine
            .evaluate(q)
            .unwrap_or_else(|e| panic!("{context}: SQL backend failed under {layout:?}: {e}"))
            .rows;
        rows.sort();
        assert_eq!(
            rows, want,
            "{context}: SQL backend row-set mismatch on mutated state under {layout:?}"
        );
    }
    want
}

/// Two executions of one statement must agree on the row set and on
/// every work counter (`wall` excluded; `scanned` compared with a float
/// tolerance since parallel merging reassociates f64 sums).
pub fn assert_same_execution(a: &QueryOutcome, b: &QueryOutcome, context: &str) {
    let mut ra = a.rows.clone();
    let mut rb = b.rows.clone();
    ra.sort();
    rb.sort();
    assert_eq!(ra, rb, "{context}: row sets differ");
    let (ma, mb) = (&a.metrics, &b.metrics);
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs()));
    assert!(
        close(ma.scanned, mb.scanned),
        "{context}: scanned {} vs {}",
        ma.scanned,
        mb.scanned
    );
    assert_eq!(ma.index_probes, mb.index_probes, "{context}: index_probes");
    assert_eq!(ma.hash_build, mb.hash_build, "{context}: hash_build");
    assert_eq!(ma.hash_probe, mb.hash_probe, "{context}: hash_probe");
    assert_eq!(ma.join_build, mb.join_build, "{context}: join_build");
    assert_eq!(ma.join_probe, mb.join_probe, "{context}: join_probe");
    assert_eq!(ma.materialized, mb.materialized, "{context}: materialized");
    assert_eq!(ma.output, mb.output, "{context}: output");
}

/// For top-level unions, the per-arm metric deltas must sum to the
/// statement totals on every work counter — every metered operation of a
/// union evaluation happens inside an arm scope. (`output` and `wall`
/// are statement-level and excluded.)
pub fn assert_arm_metrics_sum(q: &FolQuery, out: &QueryOutcome, context: &str) {
    let arms = match q {
        FolQuery::Ucq(u) => u.cqs().len(),
        FolQuery::Uscq(u) => u.scqs().len(),
        _ => return,
    };
    assert_eq!(
        out.arm_metrics.len(),
        arms,
        "{context}: one metric delta per union arm"
    );
    let mut sum = ExecMetrics::default();
    for a in &out.arm_metrics {
        sum.merge(a);
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()));
    assert!(
        close(sum.scanned, out.metrics.scanned),
        "{context}: arm scanned sums {} != total {}",
        sum.scanned,
        out.metrics.scanned
    );
    assert_eq!(sum.index_probes, out.metrics.index_probes, "{context}");
    assert_eq!(sum.hash_build, out.metrics.hash_build, "{context}");
    assert_eq!(sum.hash_probe, out.metrics.hash_probe, "{context}");
    assert_eq!(sum.join_build, out.metrics.join_build, "{context}");
    assert_eq!(sum.join_probe, out.metrics.join_probe, "{context}");
    assert_eq!(sum.materialized, out.metrics.materialized, "{context}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_query::testkit::{
        random_abox, random_connected_cq, random_delta, random_fol_query, random_tbox, KbShape, Rng,
    };

    /// The harness on randomized inputs — the in-crate version of the
    /// workspace `tests/differential.rs` suite.
    #[test]
    fn randomized_differential_smoke() {
        let shape = KbShape::default();
        for seed in 0..15u64 {
            let mut rng = Rng::new(seed);
            let (mut voc, _) = random_tbox(&mut rng, &shape);
            let abox = random_abox(&mut rng, &mut voc, &shape);
            for k in 0..3 {
                let q = random_fol_query(&mut rng, &voc, 3);
                differential_check(&voc, &abox, &q, &format!("seed {seed}.{k}"));
            }
        }
    }

    /// The constraints parity harness on randomized KBs and CQs — the
    /// in-crate version of the workspace proptest suite.
    #[test]
    fn randomized_constraints_parity_smoke() {
        let shape = KbShape::default();
        for seed in 0..10u64 {
            let mut rng = Rng::new(1000 + seed);
            let (mut voc, tbox) = random_tbox(&mut rng, &shape);
            let abox = random_abox(&mut rng, &mut voc, &shape);
            for k in 0..2 {
                let atoms = 1 + rng.below(3);
                let cq = random_connected_cq(&mut rng, &voc, atoms, 2);
                differential_constraints_check(
                    &voc,
                    &tbox,
                    &abox,
                    &cq,
                    &format!("constraints seed {seed}.{k}"),
                );
            }
        }
    }

    /// Constraint invalidation under random mutation: stale constraints
    /// are detected by `holds_on` and fresh ones stay answer-preserving.
    #[test]
    fn randomized_constraints_mutation_smoke() {
        let shape = KbShape::default();
        for seed in 0..10u64 {
            let mut rng = Rng::new(2000 + seed);
            let (mut voc, tbox) = random_tbox(&mut rng, &shape);
            let abox = random_abox(&mut rng, &mut voc, &shape);
            let delta = random_delta(&mut rng, &voc, &abox, 8, seed as usize);
            let atoms = 1 + rng.below(3);
            let cq = random_connected_cq(&mut rng, &voc, atoms, 2);
            differential_constraints_mutation_check(
                &voc,
                &tbox,
                &abox,
                &delta,
                &cq,
                &format!("constraints mutation seed {seed}"),
            );
        }
    }
}
