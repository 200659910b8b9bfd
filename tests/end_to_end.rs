//! End-to-end integration over the LUBM∃-style benchmark: every strategy,
//! every layout, both engine profiles — all must return exactly the
//! certain answers (Theorems 1 and 3 at system level).

use std::collections::HashSet;

use obda::core::{choose_reformulation, Strategy};
use obda::dllite::Dependencies;
use obda::prelude::*;

fn small_dataset() -> (UnivOntology, ABox, Dependencies) {
    let mut onto = UnivOntology::build();
    let config = GenConfig {
        target_facts: 3_000,
        ..Default::default()
    };
    let (abox, _) = generate(&mut onto, &config);
    let deps = Dependencies::compute(&onto.voc, &onto.tbox);
    (onto, abox, deps)
}

/// The generated data is consistent with the ontology (both routes).
#[test]
fn generated_data_is_consistent() {
    let (onto, abox, _) = small_dataset();
    assert!(is_consistent(&onto.voc, &onto.tbox, &abox));
}

/// Strategies × layouts × profiles agree with the certain-answer oracle
/// on a representative workload subset (kept small: oracle evaluation is
/// exponential-ish in data size).
#[test]
fn strategies_layouts_profiles_agree_with_oracle() {
    let (onto, abox, deps) = small_dataset();
    let wl = workload(&onto);
    let subset = ["Q3", "Q8", "Q12", "Q2"];
    for q in wl.iter().filter(|q| subset.contains(&q.name.as_str())) {
        let truth: HashSet<Vec<u32>> = certain_answers(&onto.tbox, &abox, &q.cq)
            .into_iter()
            .map(|row| row.into_iter().map(|i| i.0).collect())
            .collect();
        for layout in [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph] {
            for profile in [EngineProfile::pg_like(), EngineProfile::db2_like()] {
                let engine = Engine::load(&abox, &onto.voc, layout, profile);
                for strategy in [
                    Strategy::Ucq,
                    Strategy::CrootJucq,
                    Strategy::Gdl { time_budget: None },
                ] {
                    let est = engine.ext_cost_model();
                    let chosen = choose_reformulation(&q.cq, &onto.tbox, &deps, &est, &strategy);
                    match engine.evaluate(&chosen.fol) {
                        Ok(out) => {
                            let got: HashSet<Vec<u32>> = out.rows.into_iter().collect();
                            assert_eq!(got, truth, "{} under {strategy:?} on {layout:?}", q.name);
                        }
                        Err(e) => {
                            // Only the DPH layout under the DB2 profile may
                            // legitimately refuse (statement size).
                            assert_eq!(layout, LayoutKind::Dph, "{e}");
                        }
                    }
                }
            }
        }
    }
}

/// The engine's explain estimator and the external model both rank a
/// selective single-CQ far below a full UCQ reformulation.
#[test]
fn cost_models_are_sane_on_real_data() {
    let (onto, abox, _) = small_dataset();
    let engine = Engine::load(
        &abox,
        &onto.voc,
        LayoutKind::Simple,
        EngineProfile::pg_like(),
    );
    let wl = workload(&onto);
    let q5 = wl.iter().find(|q| q.name == "Q5").unwrap();
    let full = obda::reform::perfect_ref_pruned(&q5.cq, &onto.tbox);
    let single = FolQuery::Cq(q5.cq.clone());
    let ucq = FolQuery::Ucq(full);
    assert!(engine.explain(&single) < engine.explain(&ucq));
    let ext = engine.ext_cost_model();
    assert!(ext.estimate_fol(&single) < ext.estimate_fol(&ucq));
}

/// The DB2RDF-like layout rejects the big minimal UCQs under the DB2
/// statement-size limit — the Figure-3 failure mode — while the simple
/// layout accepts them.
#[test]
fn statement_size_failure_mode() {
    let (onto, abox, deps) = small_dataset();
    let wl = workload(&onto);
    let q10 = wl.iter().find(|q| q.name == "Q10").unwrap();
    let mut profile = EngineProfile::db2_like();
    profile.max_statement_bytes = Some(200_000); // small-scale stand-in
    let rdf = Engine::load(&abox, &onto.voc, LayoutKind::Dph, profile.clone());
    let simple = Engine::load(&abox, &onto.voc, LayoutKind::Simple, profile);
    let est = simple.ext_cost_model();
    let chosen = choose_reformulation(&q10.cq, &onto.tbox, &deps, &est, &Strategy::Ucq);
    assert!(simple.evaluate(&chosen.fol).is_ok(), "simple layout fits");
    let err = rdf.evaluate(&chosen.fol);
    assert!(err.is_err(), "DPH layout must exceed the statement limit");
}

/// Reformulation finds answers that plain evaluation misses on the
/// incomplete generated data — the reason OBDA exists.
#[test]
fn reformulation_beats_plain_evaluation() {
    let (onto, abox, _) = small_dataset();
    let wl = workload(&onto);
    let q5 = wl.iter().find(|q| q.name == "Q5").unwrap();
    let plain = eval_over_abox(&abox, &FolQuery::Cq(q5.cq.clone()));
    let reformulated = eval_over_abox(
        &abox,
        &FolQuery::Ucq(obda::reform::perfect_ref_pruned(&q5.cq, &onto.tbox)),
    );
    assert!(
        reformulated.len() > plain.len(),
        "reformulation must surface implied answers ({} vs {})",
        reformulated.len(),
        plain.len()
    );
}

/// Regression: per-arm [`ExecMetrics`] used to report `wall` as zero on
/// every path (the arm scope computed it as a delta of a counter nobody
/// advanced), so any consumer summing arm walls — EXPLAIN ANALYZE's
/// per-arm annotations, the stage traces — saw silence. Arms must now
/// carry real wall clock, on both the sequential and the parallel
/// executor, cold and warm.
#[test]
fn union_arm_metrics_carry_wall_clock() {
    use obda::core::Strategy;

    let (onto, abox, _) = small_dataset();
    for threads in [1usize, 2] {
        let srv = Server::new(
            onto.voc.clone(),
            onto.tbox.clone(),
            &abox,
            ServerConfig {
                reform_strategy: Strategy::Ucq,
                threads,
                ..ServerConfig::default()
            },
        );
        let wl = workload(&onto);
        let q5 = wl.iter().find(|q| q.name == "Q5").unwrap();
        // Cold, then warm: the cache-hit replay must be as observable as
        // the miss.
        let cold = srv.query(&q5.cq).expect("cold Q5");
        assert!(!cold.cache_hit);
        let warm = srv.query(&q5.cq).expect("warm Q5");
        assert!(warm.cache_hit);
        for (label, out) in [("cold", &cold.outcome), ("warm", &warm.outcome)] {
            assert!(
                out.metrics.wall > std::time::Duration::ZERO,
                "{label} (threads={threads}): total wall must be populated"
            );
            assert!(
                out.arm_metrics.len() > 1,
                "{label}: Q5's UCQ reformulation has multiple arms"
            );
            let arm_wall_sum: std::time::Duration = out.arm_metrics.iter().map(|m| m.wall).sum();
            assert!(
                arm_wall_sum > std::time::Duration::ZERO,
                "{label} (threads={threads}): arm walls must not all be zero"
            );
        }
        // The serving layer surfaced the execute span in the outcome.
        assert!(warm.spans.execute > std::time::Duration::ZERO);
        assert_eq!(
            warm.spans.reformulate,
            std::time::Duration::ZERO,
            "a cache hit skips reformulation, and the trace says so"
        );
    }
}

/// The constrained route — mined ABox completeness constraints pruning
/// union arms before execution — agrees with the certain-answer oracle
/// exactly like the unconstrained route, on every layout and both
/// pruning-relevant strategies, and never prunes a union to emptiness.
#[test]
fn constrained_strategies_agree_with_oracle() {
    let (onto, abox, deps) = small_dataset();
    let cons = obda::dllite::ConstraintSet::mine_from_abox(&onto.tbox, &abox);
    let wl = workload(&onto);
    let subset = ["Q3", "Q12"];
    for q in wl.iter().filter(|q| subset.contains(&q.name.as_str())) {
        let truth: HashSet<Vec<u32>> = certain_answers(&onto.tbox, &abox, &q.cq)
            .into_iter()
            .map(|row| row.into_iter().map(|i| i.0).collect())
            .collect();
        for layout in [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph] {
            let engine = Engine::load(&abox, &onto.voc, layout, EngineProfile::pg_like());
            for strategy in [Strategy::Ucq, Strategy::CrootJucq] {
                let est = engine.ext_cost_model();
                let chosen = choose_reformulation(&q.cq, &onto.tbox, &deps, &est, &strategy);
                let (pruned, stats) = obda::core::prune_fol(&chosen.fol, &cons);
                assert!(stats.kept >= 1, "pruning must never empty the union");
                let got: HashSet<Vec<u32>> = engine
                    .evaluate(&pruned)
                    .expect("pg-like profile has no statement limit")
                    .rows
                    .into_iter()
                    .collect();
                assert_eq!(
                    got, truth,
                    "{} constrained {strategy:?} on {layout:?}",
                    q.name
                );
            }
        }
    }
}
