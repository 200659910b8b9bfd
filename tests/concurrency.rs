//! The serving-layer stress suite: many client threads replaying a mixed
//! LUBM workload against one shared [`Server`], snapshot isolation across
//! concurrent reloads, and the metering invariant under parallel
//! union-arm execution. CI runs this file in release mode (the
//! `threaded-stress` job) so data races and merge-order nondeterminism
//! fail there.

use obda::core::root_cover;
use obda::dllite::Dependencies;
use obda::prelude::*;
use obda::rdbms::observe::{backend_index, Counter};
use obda::rdbms::testkit::{assert_arm_metrics_sum, assert_same_execution};
use obda::rdbms::EvalOptions;

/// Client threads for the replay tests.
const CLIENT_THREADS: usize = 8;

struct Fixture {
    onto: UnivOntology,
    abox: ABox,
    queries: Vec<(String, CQ)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut onto = UnivOntology::build();
        let config = GenConfig {
            target_facts: 800,
            ..Default::default()
        };
        let (abox, _) = generate(&mut onto, &config);
        let mut queries: Vec<(String, CQ)> = workload(&onto)
            .into_iter()
            .map(|w| (w.name, w.cq))
            .collect();
        queries.push(("A4".to_owned(), star_query(&onto, 4)));
        Fixture {
            onto,
            abox,
            queries,
        }
    })
}

fn server_config(cache: bool, threads: usize) -> ServerConfig {
    ServerConfig {
        // Root-cover JUCQ keeps the per-miss pipeline deterministic.
        reform_strategy: obda::core::Strategy::CrootJucq,
        cache_plans: cache,
        threads,
        ..ServerConfig::default()
    }
}

/// Mixed LUBM replay: N client threads × R rounds over 14 query shapes
/// against one warm server with intra-query parallelism. Every response
/// must be row-identical to the cold single-threaded pipeline, and after
/// the first round every compilation must come from the plan cache.
#[test]
fn threaded_lubm_replay_is_consistent() {
    let fx = fixture();
    let cold = Server::new(
        fx.onto.voc.clone(),
        fx.onto.tbox.clone(),
        &fx.abox,
        server_config(false, 1),
    );
    let expected: Vec<(String, Vec<Vec<u32>>)> = fx
        .queries
        .iter()
        .map(|(name, cq)| {
            let mut rows = cold.query(cq).expect("pg-like: no limit").outcome.rows;
            rows.sort();
            (name.clone(), rows)
        })
        .collect();

    let srv = Server::new(
        fx.onto.voc.clone(),
        fx.onto.tbox.clone(),
        &fx.abox,
        server_config(true, 2),
    );
    // Prime once so the replay measures the steady state.
    for (_, cq) in &fx.queries {
        srv.query(cq).unwrap();
    }
    let clients = CLIENT_THREADS;
    let rounds = 3usize;
    std::thread::scope(|s| {
        for c in 0..clients {
            let srv = &srv;
            let fx = &*fx;
            let expected = &expected;
            s.spawn(move || {
                for r in 0..rounds {
                    // Each client walks the workload at a different phase
                    // so distinct query shapes are in flight at once.
                    for k in 0..fx.queries.len() {
                        let i = (k + c + r) % fx.queries.len();
                        let (name, cq) = &fx.queries[i];
                        let out = srv.query(cq).unwrap();
                        assert!(out.cache_hit, "{name}: must be cached after priming");
                        let mut rows = out.outcome.rows;
                        rows.sort();
                        assert_eq!(rows, expected[i].1, "{name}: client {c} round {r}");
                    }
                }
            });
        }
    });
    let stats = srv.cache_stats();
    assert_eq!(stats.misses, fx.queries.len() as u64, "one miss per shape");
    assert_eq!(
        stats.hits,
        (clients * rounds * fx.queries.len()) as u64,
        "every replayed call must hit"
    );
}

/// Snapshot isolation: clients querying while the ABox is reloaded must
/// each see a *consistent* generation — rows matching either the old or
/// the new KB exactly, never a mixture, and never a stale plan on the
/// new generation.
#[test]
fn reload_during_replay_is_snapshot_isolated() {
    let fx = fixture();
    let (_, q2) = fx
        .queries
        .iter()
        .find(|(n, _)| n == "Q2")
        .expect("workload has Q2");

    // The mutated KB: duplicate the ABox and add a fresh advised student.
    let mut voc2 = fx.onto.voc.clone();
    let grad = voc2.find_concept("GraduateStudent").unwrap();
    let prof = voc2.find_concept("Professor").unwrap();
    let advisor = voc2.find_role("advisor").unwrap();
    let works_for = voc2.find_role("worksFor").unwrap();
    let stu = voc2.individual("stress-student");
    let adv = voc2.individual("stress-professor");
    let dept = voc2.individual("stress-department");
    let mut abox2 = fx.abox.clone();
    abox2.assert_concept(grad, stu);
    abox2.assert_concept(prof, adv);
    abox2.assert_role(advisor, stu, adv);
    abox2.assert_role(works_for, adv, dept);

    let srv = Server::new(
        voc2.clone(),
        fx.onto.tbox.clone(),
        &fx.abox,
        server_config(true, 1),
    );
    let mut want_old = srv.query(q2).unwrap().outcome.rows;
    want_old.sort();
    let cold_new = Server::new(
        voc2.clone(),
        fx.onto.tbox.clone(),
        &abox2,
        server_config(false, 1),
    );
    let mut want_new = cold_new.query(q2).unwrap().outcome.rows;
    want_new.sort();
    assert_ne!(want_old, want_new, "the mutation must be observable");

    std::thread::scope(|s| {
        for _ in 0..CLIENT_THREADS {
            let srv = &srv;
            let (want_old, want_new) = (&want_old, &want_new);
            s.spawn(move || {
                for _ in 0..20 {
                    let out = srv.query(q2).unwrap();
                    let gen = out.generation;
                    let mut rows = out.outcome.rows;
                    rows.sort();
                    let want = if gen == 0 { want_old } else { want_new };
                    assert_eq!(&rows, want, "generation {gen} must be self-consistent");
                }
            });
        }
        // Publish the mutation midway through the replay storm.
        srv.reload_abox(&abox2).expect("reload commits");
    });

    // Steady state after the reload: new rows, generation 1, cache warm.
    let after = srv.query(q2).unwrap();
    assert_eq!(after.generation, 1);
    let mut rows = after.outcome.rows;
    rows.sort();
    assert_eq!(rows, want_new);
    assert!(srv.cache_stats().invalidated >= 1, "stale entries dropped");
}

/// The arm-metrics invariant under parallel execution, on real LUBM
/// UCQ reformulations: per-arm deltas sum to statement totals, and
/// parallel totals equal sequential totals counter-for-counter under the
/// discount-free pg-like profile.
#[test]
fn parallel_arm_metrics_match_sequential_on_lubm() {
    let fx = fixture();
    let engine = Engine::load(
        &fx.abox,
        &fx.onto.voc,
        LayoutKind::Simple,
        EngineProfile::pg_like(),
    );
    let deps = Dependencies::compute(&fx.onto.voc, &fx.onto.tbox);
    let mut multi_arm = 0;
    for (name, cq) in &fx.queries {
        let ucq = perfect_ref(cq, &fx.onto.tbox);
        if ucq.is_empty() {
            continue;
        }
        if ucq.len() > 1 {
            multi_arm += 1;
        }
        let q = FolQuery::Ucq(ucq);
        let seq = engine.evaluate(&q).unwrap();
        let par = engine
            .evaluate_opts(
                &q,
                &EvalOptions {
                    threads: 4,
                    ..EvalOptions::default()
                },
            )
            .unwrap();
        assert_arm_metrics_sum(&q, &par, name);
        assert_same_execution(&seq, &par, &format!("{name}: sequential vs 4 threads"));

        // The root-cover JUCQ path (component fan-out) must agree too.
        let analysis = obda::core::QueryAnalysis::new(cq, &deps);
        let croot = root_cover(&analysis);
        let jucq = cover_reformulation(cq, &fx.onto.tbox, &croot.to_specs());
        let jq = FolQuery::Jucq(jucq);
        let jseq = engine.evaluate(&jq).unwrap();
        let jpar = engine
            .evaluate_opts(
                &jq,
                &EvalOptions {
                    threads: 4,
                    ..EvalOptions::default()
                },
            )
            .unwrap();
        assert_same_execution(
            &jseq,
            &jpar,
            &format!("{name}: JUCQ sequential vs 4 threads"),
        );
        assert!(
            jpar.arm_metrics.is_empty(),
            "{name}: component work belongs to no arm"
        );
    }
    assert!(multi_arm >= 5, "the workload must exercise real unions");
}

/// The metrics registry under contention: relaxed atomics may reorder,
/// but counters must never *lose* increments. Hammer a bare registry
/// from 8 threads, then replay the workload from 8 clients against one
/// server, and check both against exact expected totals.
#[test]
fn metrics_registry_counts_exactly_under_contention() {
    use obda::rdbms::MetricsRegistry;
    use std::time::Duration;

    // Bare registry: 8 threads × 10_000 record calls each.
    let reg = MetricsRegistry::new();
    let threads = 8usize;
    let per_thread = 10_000u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let reg = &reg;
            s.spawn(move || {
                for i in 0..per_thread {
                    let backend = if (t as u64 + i) % 2 == 0 {
                        Backend::Native
                    } else {
                        Backend::Sql
                    };
                    reg.record_query(backend, Duration::from_micros(i % 500), 3);
                    reg.record_wal_append(10, false);
                    reg.add(Counter::ConnectionsAdmitted, 1);
                }
            });
        }
    });
    let total = threads as u64 * per_thread;
    let queries =
        |reg: &MetricsRegistry, b: Backend| reg.get(Counter::Queries.at(backend_index(b)));
    assert_eq!(
        queries(&reg, Backend::Native) + queries(&reg, Backend::Sql),
        total
    );
    assert_eq!(reg.get(Counter::QueryRows), total * 3);
    assert_eq!(reg.get(Counter::WalAppends), total);
    assert_eq!(reg.get(Counter::WalBytes), total * 10);
    assert_eq!(reg.get(Counter::ConnectionsAdmitted), total);
    // The histograms saw every observation exactly once.
    assert_eq!(
        reg.latency(Backend::Native).count() + reg.latency(Backend::Sql).count(),
        total
    );

    // Server replay: every query one thread issues lands in the served
    // counters exactly once — no lost updates, no double counting.
    let fx = fixture();
    let srv = Server::new(
        fx.onto.voc.clone(),
        fx.onto.tbox.clone(),
        &fx.abox,
        server_config(true, 1),
    );
    let mut primed_rows = 0u64;
    for (_, cq) in &fx.queries {
        primed_rows += srv.query(cq).unwrap().outcome.rows.len() as u64;
    }
    let primed = queries(srv.observe(), Backend::Native);
    assert_eq!(
        primed,
        fx.queries.len() as u64,
        "one served query per prime"
    );
    let clients = 8usize;
    let rounds = 2usize;
    let rows_served = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for c in 0..clients {
            let srv = &srv;
            let fx = &*fx;
            let rows_served = &rows_served;
            s.spawn(move || {
                for r in 0..rounds {
                    for k in 0..fx.queries.len() {
                        let (_, cq) = &fx.queries[(k + c + r) % fx.queries.len()];
                        let out = srv.query(cq).unwrap();
                        rows_served.fetch_add(
                            out.outcome.rows.len() as u64,
                            std::sync::atomic::Ordering::Relaxed,
                        );
                    }
                }
            });
        }
    });
    let replayed = (clients * rounds * fx.queries.len()) as u64;
    let observe = srv.observe();
    assert_eq!(
        queries(observe, Backend::Native),
        primed + replayed,
        "served-query counter must match the exact number of calls"
    );
    assert_eq!(
        observe.latency(Backend::Native).count(),
        primed + replayed,
        "latency histogram must see every served query"
    );
    assert_eq!(
        observe.get(Counter::QueryRows),
        primed_rows + rows_served.load(std::sync::atomic::Ordering::Relaxed),
        "row counter must equal the rows actually returned"
    );
}
