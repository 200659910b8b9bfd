//! The constraints suite: ABox completeness constraints (Hovland et
//! al., arXiv 1605.04263) mined per snapshot and used to prune UCQ /
//! JUCQ reformulations *before* SQL generation.
//!
//! The acceptance story is §6.3's failure mode run backwards: on the
//! DPH layout under the DB2-like statement-size limit, workload queries
//! whose naive reformulations are rejected as "statement too long"
//! become *answerable* once provably-empty and data-subsumed union arms
//! are dropped — and the answers match the native reference exactly.
//!
//! Golden files pin the pruned artefacts (`tests/goldens/q13_pruned_*`,
//! `tests/goldens/q13_explain_*`):
//!
//! ```sh
//! OBDA_BLESS=1 cargo test --release --test constraints \
//!     && cargo test --release --test constraints
//! ```
//!
//! Cost note: Q13's reformulations (minimized PerfectRef, and PerfectRef
//! per root-cover fragment) are hundreds of union arms; since the
//! containment kernel rejects by predicate signature they take seconds
//! even unoptimized, so the whole suite runs in debug and release alike.
//! The suite still computes each exactly once and derives the pruned
//! variant with [`prune_fol`] (the same call
//! `choose_reformulation_constrained` makes after strategy selection, so
//! the artefacts under test are the served ones).

use std::path::PathBuf;
use std::sync::OnceLock;

use obda::core::{prune_fol, PruneStats};
use obda::dllite::Dependencies;
use obda::lubm::{UnivOntology, WorkloadQuery};
use obda::prelude::*;
use obda::query::minimize_ucq;
use obda::rdbms::observe::{Counter, PruneReason};
use obda::rdbms::pgwire::{PgConfig, PgListener, WireClient};
use obda::rdbms::testkit::differential_constraints_check;
use obda::rdbms::{EngineError, EvalOptions};

/// Q13's wire-language rendering (the 7-atom cyclic query; see
/// `obda_lubm::queries`): teaching professors with a degree from the
/// university their department belongs to.
const Q13_WIRE: &str = "SELECT ?x WHERE Professor(?x), memberOf(?x, ?y1), \
     Department(?y1), subOrganizationOf(?y1, ?y2), University(?y2), \
     degreeFrom(?x, ?y2), teacherOf(?x, ?y3)";

struct Fixture {
    onto: UnivOntology,
    abox: ABox,
    deps: Dependencies,
    cons: ConstraintSet,
    queries: Vec<WorkloadQuery>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut onto = UnivOntology::build();
        let (abox, _report) = generate(
            &mut onto,
            &GenConfig {
                target_facts: 800,
                ..Default::default()
            },
        );
        let deps = Dependencies::compute(&onto.voc, &onto.tbox);
        let cons = ConstraintSet::mine_from_abox(&onto.tbox, &abox);
        let queries = workload(&onto);
        Fixture {
            onto,
            abox,
            deps,
            cons,
            queries,
        }
    })
}

/// Q13's UCQ route (minimized PerfectRef, then constraint pruning) over
/// the uneliminated query: unlike `Strategy::Ucq`, which first drops
/// the atoms the TBox implies, this reformulates Q13 as written.
/// Computed once and shared.
fn q13_ucq() -> &'static (FolQuery, FolQuery, PruneStats) {
    static UCQ: OnceLock<(FolQuery, FolQuery, PruneStats)> = OnceLock::new();
    UCQ.get_or_init(|| {
        let fx = fixture();
        let off = FolQuery::Ucq(minimize_ucq(&perfect_ref_pruned(
            fx.query("Q13"),
            &fx.onto.tbox,
        )));
        let (on, stats) = prune_fol(&off, &fx.cons);
        (off, on, stats)
    })
}

impl Fixture {
    fn query(&self, name: &str) -> &CQ {
        &self
            .queries
            .iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("workload has {name}"))
            .cq
    }

    fn engine(&self, layout: LayoutKind, profile: EngineProfile) -> Engine {
        Engine::load(&self.abox, &self.onto.voc, layout, profile)
    }

    /// The native reference rows for a reformulation: simple layout,
    /// no statement-size limit, sorted.
    fn reference(&self, fol: &FolQuery) -> Vec<Vec<u32>> {
        let mut rows = self
            .engine(LayoutKind::Simple, EngineProfile::pg_like())
            .evaluate(fol)
            .expect("the pg-like profile has no statement limit")
            .rows;
        rows.sort();
        rows
    }

    /// The root-cover JUCQ for a workload query, unpruned and pruned.
    fn croot(&self, name: &str) -> (FolQuery, FolQuery, PruneStats) {
        let off = choose_reformulation(
            self.query(name),
            &self.onto.tbox,
            &self.deps,
            &StructuralEstimator,
            &Strategy::CrootJucq,
        )
        .fol;
        let (on, stats) = prune_fol(&off, &self.cons);
        (off, on, stats)
    }
}

/// Union arms the server pruned so far, as `(provably_empty, data_subsumed)`.
fn pruned_arms(server: &Server) -> (u64, u64) {
    let arms = |r: PruneReason| server.observe().get(Counter::PrunedArms.at(r as usize));
    (arms(PruneReason::Empty), arms(PruneReason::Subsumed))
}

fn check_golden(name: &str, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "goldens", name]
        .iter()
        .collect();
    if std::env::var_os("OBDA_BLESS").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden {name}; bless with OBDA_BLESS=1"));
    assert_eq!(
        actual, want,
        "pruned artefact drifted from tests/goldens/{name}; review the \
         pruning change and re-bless with OBDA_BLESS=1 if intended"
    );
}

/// FNV-1a, for digesting statements too large to pin verbatim.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// mining
// ---------------------------------------------------------------------

/// The LUBM generator leaves many ontology predicates empty and many
/// specializations exactly covering their parents — the mined
/// constraint set must be substantial, and must hold on the data it
/// was mined from (the soundness precondition for every pruning step).
#[test]
fn mined_constraints_on_lubm_are_sound_and_substantial() {
    let fx = fixture();
    assert!(!fx.cons.is_empty(), "LUBM must yield constraints");
    assert!(
        fx.cons.holds_on(&fx.abox),
        "mined constraints must hold on the ABox they were mined from"
    );
    let stats = fx.cons.stats();
    assert!(stats.empty_preds > 0, "generator leaves predicates empty");
    assert!(
        stats.unary_inclusions > 0,
        "specializations must cover parents somewhere in LUBM"
    );
}

// ---------------------------------------------------------------------
// parity: pruning is invisible in the answers
// ---------------------------------------------------------------------

/// The full constraint-aware differential harness on Q4: both parity
/// strategies, all three layouts, both backends, constraints off vs on
/// — row-identical with the reference evaluator, never pruning an arm
/// the reference evaluator shows non-empty.
#[test]
fn q4_constraints_full_harness_parity() {
    let fx = fixture();
    let rows = differential_constraints_check(
        &fx.onto.voc,
        &fx.onto.tbox,
        &fx.abox,
        fx.query("Q4"),
        "LUBM Q4",
    );
    assert!(!rows.is_empty(), "the fixture must give Q4 answers");
}

/// Q13's UCQ route, constraints off vs on, across all three layouts
/// and both execution backends: every combination returns exactly the
/// native reference rows. (Q13's reformulation is shared through the
/// fixture — see the module doc — so this sweep asserts execution
/// parity on the exact pruned shape the server caches.)
#[test]
fn q13_ucq_parity_across_layouts_and_backends() {
    let fx = fixture();
    let (off, on, stats) = q13_ucq();
    assert!(stats.kept >= 1, "pruning must never empty the union");
    assert!(stats.total_pruned() > 0, "Q13 must have prunable arms");
    let want = fx.reference(off);
    assert!(!want.is_empty(), "the fixture must give Q13 answers");

    for layout in [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph] {
        let native = fx.engine(layout, EngineProfile::pg_like());
        let sql = fx
            .engine(layout, EngineProfile::pg_like())
            .with_backend(Backend::Sql);
        for (setting, fol) in [("off", off), ("on", on)] {
            let mut rows = native.evaluate(fol).expect("native evaluates").rows;
            rows.sort();
            assert_eq!(
                rows, want,
                "{layout:?}/native constraints {setting}: rows must match reference"
            );
            let text = sql.sql_for(fol);
            let opts = EvalOptions {
                sql_text: Some(&text),
                sql_bytes: Some(text.len()),
                ..Default::default()
            };
            let mut rows = sql.evaluate_opts(fol, &opts).expect("sql evaluates").rows;
            rows.sort();
            assert_eq!(
                rows, want,
                "{layout:?}/sql constraints {setting}: rows must match reference"
            );
        }
    }
}

// ---------------------------------------------------------------------
// the §6.3 rescue: rejected statements become answerable
// ---------------------------------------------------------------------

/// Q10 on the DPH layout overflows the real DB2-like statement limit
/// under *both* reformulation strategies; with constraints the pruned
/// statement fits and returns exactly the native reference rows.
#[test]
fn q10_statement_too_long_becomes_answerable_on_dph() {
    let fx = fixture();
    let db2 = EngineProfile::db2_like();
    let limit = db2.max_statement_bytes.expect("DB2 profile has a limit");
    let engine = fx.engine(LayoutKind::Dph, db2).with_backend(Backend::Sql);
    let cq = fx.query("Q10");

    // Both strategy shapes, constructed once each (the pruned variant
    // derives from the unpruned one exactly as the constrained route
    // does).
    let ucq_off = FolQuery::Ucq(minimize_ucq(&perfect_ref_pruned(cq, &fx.onto.tbox)));
    let (croot_off, croot_on, _) = fx.croot("Q10");
    let (ucq_on, _) = prune_fol(&ucq_off, &fx.cons);

    for (strategy, off, on) in [
        ("Ucq", &ucq_off, &ucq_on),
        ("CrootJucq", &croot_off, &croot_on),
    ] {
        // Without constraints: the statement cannot run at all.
        let sql_off = engine.sql_for(off);
        assert!(
            sql_off.len() > limit,
            "{strategy}: Q10 DPH must overflow the DB2 limit unpruned \
             ({} <= {limit})",
            sql_off.len()
        );
        let opts = EvalOptions {
            sql_text: Some(&sql_off),
            sql_bytes: Some(sql_off.len()),
            ..Default::default()
        };
        match engine.evaluate_opts(off, &opts) {
            Err(EngineError::StatementTooLong { size, limit: l }) => {
                assert_eq!(size, sql_off.len());
                assert_eq!(l, limit);
            }
            Err(other) => panic!("{strategy}: expected StatementTooLong, got {other}"),
            Ok(_) => panic!("{strategy}: oversized statement must be rejected"),
        }

        // With constraints: it fits, runs, and matches the reference.
        let sql_on = engine.sql_for(on);
        assert!(
            sql_on.len() <= limit,
            "{strategy}: pruned Q10 DPH must fit ({} > {limit})",
            sql_on.len()
        );
        let opts = EvalOptions {
            sql_text: Some(&sql_on),
            sql_bytes: Some(sql_on.len()),
            ..Default::default()
        };
        let mut rows = engine
            .evaluate_opts(on, &opts)
            .expect("pruned statement fits the limit")
            .rows;
        rows.sort();
        assert_eq!(
            rows,
            fx.reference(off),
            "{strategy}: pruned Q10 answers must match the native reference"
        );
    }
}

/// Q13's root-cover JUCQ on DPH is ~1.4 MB at this fixture scale —
/// under the stock 2 MB DB2 limit, over the limit of any stricter
/// engine (at the paper's scale it reaches hundreds of megabytes).
/// Under a tightened profile the same rescue holds: rejected unpruned,
/// answered pruned, reference parity.
#[test]
fn q13_root_cover_answers_under_a_tightened_limit() {
    let fx = fixture();
    let mut profile = EngineProfile::db2_like();
    let limit = 1_000_000;
    profile.max_statement_bytes = Some(limit);
    let engine = fx
        .engine(LayoutKind::Dph, profile)
        .with_backend(Backend::Sql);

    let (off, on, stats) = fx.croot("Q13");
    assert!(stats.total_pruned() > 0, "Q13 must have prunable arms");

    let sql_off = engine.sql_for(&off);
    assert!(
        sql_off.len() > limit,
        "unpruned root-cover Q13 must overflow"
    );
    let opts = EvalOptions {
        sql_text: Some(&sql_off),
        sql_bytes: Some(sql_off.len()),
        ..Default::default()
    };
    assert!(
        matches!(
            engine.evaluate_opts(&off, &opts),
            Err(EngineError::StatementTooLong { .. })
        ),
        "unpruned root-cover Q13 must be rejected"
    );

    let sql_on = engine.sql_for(&on);
    assert!(
        sql_on.len() <= limit,
        "pruned root-cover Q13 must fit ({} > {limit})",
        sql_on.len()
    );
    let opts = EvalOptions {
        sql_text: Some(&sql_on),
        sql_bytes: Some(sql_on.len()),
        ..Default::default()
    };
    let mut rows = engine
        .evaluate_opts(&on, &opts)
        .expect("pruned statement fits")
        .rows;
    rows.sort();
    assert_eq!(
        rows,
        fx.reference(&off),
        "pruned root-cover Q13 must return the reference rows"
    );
    assert!(!rows.is_empty(), "the fixture must give Q13 answers");
}

// ---------------------------------------------------------------------
// serving layer: the rescue end-to-end through Server, with metrics
// ---------------------------------------------------------------------

/// The same rescue through the serving layer: a DB2-profiled SQL-backend
/// server on the DPH layout rejects Q10 with constraints off and answers
/// it with constraints on — counting the pruned arms in the metrics
/// registry, and replaying the pruned plan from the cache.
#[test]
fn server_turns_q10_rejection_into_answers_and_counts_pruning() {
    let fx = fixture();
    let cq = fx.query("Q10");
    let config = |use_constraints| ServerConfig {
        layout: LayoutKind::Dph,
        profile: EngineProfile::db2_like(),
        backend: Backend::Sql,
        reform_strategy: Strategy::CrootJucq,
        use_constraints,
        ..ServerConfig::default()
    };

    let off = Server::new(
        fx.onto.voc.clone(),
        fx.onto.tbox.clone(),
        &fx.abox,
        config(false),
    );
    match off.query(cq) {
        Err(EngineError::StatementTooLong { .. }) => {}
        Err(other) => panic!("constraints off: expected StatementTooLong, got {other}"),
        Ok(outcome) => panic!(
            "constraints off: expected StatementTooLong, got {} rows",
            outcome.outcome.rows.len()
        ),
    }
    assert_eq!(
        pruned_arms(&off),
        (0, 0),
        "constraints off must not count pruned arms"
    );

    let on = Server::new(
        fx.onto.voc.clone(),
        fx.onto.tbox.clone(),
        &fx.abox,
        config(true),
    );
    let (croot_off, _, _) = fx.croot("Q10");
    let reference = fx.reference(&croot_off);
    let miss = on.query(cq).expect("constraints on: Q10 must answer");
    assert!(!miss.cache_hit);
    let mut rows = miss.outcome.rows;
    rows.sort();
    assert_eq!(
        rows, reference,
        "server rows must match the native reference"
    );

    let (empty, subsumed) = pruned_arms(&on);
    assert!(
        empty + subsumed > 0,
        "the metrics registry must count pruned arms"
    );

    // The cached compilation *is* the pruned plan: the warm path replays
    // it without re-mining or re-pruning.
    let hit = on.query(cq).expect("warm Q10");
    assert!(hit.cache_hit, "second query must hit the plan cache");
    let mut rows = hit.outcome.rows;
    rows.sort();
    assert_eq!(rows, reference);
    assert_eq!(
        pruned_arms(&on),
        (empty, subsumed),
        "a cache hit must not re-count pruned arms"
    );
}

// ---------------------------------------------------------------------
// goldens: the pruned artefacts are reviewed, not silent
// ---------------------------------------------------------------------

/// The pruned Q13 UCQ statement, pinned byte-for-byte on the simple and
/// triple layouts (and the snapshots double as `sqlexec` parser
/// conformance inputs). The DPH statement is far too large to review
/// verbatim — its golden pins a digest: byte count, FNV-1a hash, and
/// the arm counts before/after pruning.
#[test]
fn q13_pruned_sql_is_pinned_on_every_layout() {
    let fx = fixture();
    let (_, on, stats) = q13_ucq();

    for (layout, file) in [
        (LayoutKind::Simple, "q13_pruned_simple.sql"),
        (LayoutKind::Triple, "q13_pruned_triple.sql"),
    ] {
        let sql = fx.engine(layout, EngineProfile::pg_like()).sql_for(on);
        check_golden(file, &sql);
        obda::rdbms::sqlexec::parse(&sql)
            .unwrap_or_else(|e| panic!("golden {file} no longer parses: {e}"));
    }

    let dph = fx
        .engine(LayoutKind::Dph, EngineProfile::pg_like())
        .sql_for(on);
    obda::rdbms::sqlexec::parse(&dph).expect("pruned DPH statement parses");
    let digest = format!(
        "bytes={}\nfnv1a64={:016x}\narms_in={}\narms_kept={}\n",
        dph.len(),
        fnv1a64(dph.as_bytes()),
        stats.arms_in,
        stats.kept,
    );
    check_golden("q13_pruned_dph.digest", &digest);
}

/// The pruned Q13 *plan*, pinned through the wire front end's
/// `EXPLAIN ANALYZE` on all three layouts (root-cover strategy — the
/// §6.3 headline shape). Wall-clock lines (`measured:` / `accuracy:`)
/// are stripped; what remains — strategy header, the `constraints:`
/// pruning summary, per-arm plan steps and predicted costs — is
/// deterministic for the fixed generator seed.
#[test]
fn q13_pruned_explain_plan_is_pinned_on_the_wire() {
    let fx = fixture();
    for (layout, file) in [
        (LayoutKind::Simple, "q13_explain_simple.txt"),
        (LayoutKind::Triple, "q13_explain_triple.txt"),
        (LayoutKind::Dph, "q13_explain_dph.txt"),
    ] {
        let server = Server::new(
            fx.onto.voc.clone(),
            fx.onto.tbox.clone(),
            &fx.abox,
            ServerConfig {
                layout,
                reform_strategy: Strategy::CrootJucq,
                ..ServerConfig::default()
            },
        );
        let mut listener = PgListener::bind(
            "127.0.0.1:0",
            std::sync::Arc::new(server),
            PgConfig::default(),
        )
        .expect("bind ephemeral port");
        let mut client =
            WireClient::connect(&listener.local_addr(), &[]).expect("startup completes");
        let r = client
            .simple_query(&format!("EXPLAIN ANALYZE {Q13_WIRE}"))
            .expect("EXPLAIN ANALYZE answers");
        assert_eq!(r[0].columns, vec!["QUERY PLAN"]);
        let plan: String = r[0]
            .rows
            .iter()
            .map(|row| row[0].as_str())
            .filter(|l| !l.contains("measured:") && !l.starts_with("accuracy:"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(
            plan.contains("constraints: arms_pruned="),
            "{layout:?}: the plan must report pruning:\n{plan}"
        );
        check_golden(file, &plan);
        client.terminate();
        listener.shutdown();
    }
}
