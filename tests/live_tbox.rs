//! The live TBox: each generation reformulates under the loaded TBox
//! without the positive inclusions out of its **dead** predicates, the
//! ones with no facts and no facts below them either
//! (`ConstraintSet::dead_predicates`). The arms those inclusions build
//! can only be dropped as empty by constraint pruning, so PerfectRef
//! skips them.
//!
//! * **Equivalence** — over random TBox/ABox pairs and random connected
//!   CQs, and over the 14 LUBM shapes on seed-1 data, PerfectRef under
//!   the live TBox returns exactly the full run's disjuncts that mention
//!   no dead predicate, in the same order and with the same variable
//!   ids; the same holds after `minimize_ucq`, `prune_fol` returns the
//!   same reformulation, and the answers are the certain answers.
//! * **Writes that change the dead set** — a fact inserted into a dead
//!   predicate is answered inside its transaction and after `COMMIT`,
//!   and deleting a predicate's last fact keeps answers equal to the
//!   oracle: over the wire and through `apply_batch`, with the plan
//!   cache on and off, under both backends. `live_tbox_builds` counts
//!   one build for a write that changes the dead set and none for one
//!   that does not.
//! * **Durability** — a checkpoint and a compaction taken while a
//!   predicate is dead persist the loaded TBox, so a reopened server
//!   answers through the inclusions out of it once it has facts.
//!
//! Case counts honour `PROPTEST_CASES` (CI's differential job runs 512).

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use obda::core::{prune_fol, RewriteContext};
use obda::dllite::{Dependencies, Extents};
use obda::prelude::*;
use obda::query::minimize_ucq;
use obda::query::testkit::{random_abox, random_connected_cq, random_tbox, KbShape, Rng};
use obda::rdbms::observe::Counter;
use obda::rdbms::pgwire::{PgConfig, PgListener, WireClient};
use obda::rdbms::store::recover;
use obda::reform::perfect_ref_pruned_with_stats;

/// The rewrite context a server makes for `tbox`; its accessors derive
/// the constraints, dead set and live TBox of `abox` on first use.
fn context_of(voc: &Vocabulary, tbox: &TBox) -> RewriteContext {
    RewriteContext::new(tbox.clone(), Dependencies::compute(voc, tbox), true)
}

fn mentions_dead(cq: &CQ, dead: &[PredId]) -> bool {
    cq.atoms()
        .iter()
        .any(|a| dead.binary_search(&a.pred()).is_ok())
}

fn without_dead<'a>(ucq: &'a UCQ, dead: &[PredId]) -> Vec<&'a CQ> {
    ucq.cqs()
        .iter()
        .filter(|cq| !mentions_dead(cq, dead))
        .collect()
}

/// What one query's reformulation under the live TBox saved.
struct Compared {
    full_candidates: usize,
    live_candidates: usize,
    full_minimal: usize,
    live_minimal: usize,
    /// The pruned live reformulation (the one a server serves).
    served: FolQuery,
}

/// PerfectRef, minimisation and pruning under the live TBox against the
/// same steps under the full one. A query that itself mentions a dead
/// predicate keeps it in every disjunct of both runs, and pruning
/// keeps one empty arm of its own choosing; only the answers (none) are
/// compared then.
fn compare(tbox: &TBox, live: &RewriteContext, abox: &ABox, cq: &CQ, at: &str) -> Compared {
    let extents = || Extents::from_abox(abox);
    let (full, full_run) = perfect_ref_pruned_with_stats(cq, tbox);
    let (lived, live_run) = perfect_ref_pruned_with_stats(cq, live.tbox(extents));
    let dead = live.dead_predicates(extents);
    let cons = live.constraints(extents);
    let (min_full, min_live) = (minimize_ucq(&full), minimize_ucq(&lived));
    let (pruned_full, full_stats) = prune_fol(&FolQuery::Ucq(min_full.clone()), cons);
    let (pruned_live, live_stats) = prune_fol(&FolQuery::Ucq(min_live.clone()), cons);
    if mentions_dead(cq, dead) {
        assert!(
            lived.cqs().iter().all(|d| mentions_dead(d, dead)),
            "{at}: a disjunct lost the query's dead atom"
        );
        assert!(without_dead(&full, dead).is_empty(), "{at}");
    } else {
        let kept: Vec<&CQ> = lived.cqs().iter().collect();
        assert_eq!(kept, without_dead(&full, dead), "{at}: PerfectRef");
        let kept: Vec<&CQ> = min_live.cqs().iter().collect();
        assert_eq!(kept, without_dead(&min_full, dead), "{at}: minimize_ucq");
        assert_eq!(pruned_live, pruned_full, "{at}: prune_fol");
        assert_eq!(live_stats.kept, full_stats.kept, "{at}: arms kept");
        assert_eq!(
            live_stats.subsumed_pruned, full_stats.subsumed_pruned,
            "{at}"
        );
    }
    Compared {
        full_candidates: full_run.candidates,
        live_candidates: live_run.candidates,
        full_minimal: min_full.len(),
        live_minimal: min_live.len(),
        served: pruned_live,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random TBox/ABox pairs, half of them sparse enough that most
    /// predicates are empty, and random connected CQs: the live run is
    /// the full run minus its dead disjuncts, and answers the certain
    /// answers.
    #[test]
    fn live_tbox_reformulation_equals_the_full_one_without_dead_arms(
        seed in 0u64..1_000_000,
        atoms in 1usize..4,
    ) {
        let mut rng = Rng::new(seed);
        let shape = KbShape {
            num_facts: if seed % 2 == 0 { 14 } else { 5 },
            ..KbShape::default()
        };
        let (mut voc, tbox) = random_tbox(&mut rng, &shape);
        let abox = random_abox(&mut rng, &mut voc, &shape);
        let cq = random_connected_cq(&mut rng, &voc, atoms, 2);
        let live = context_of(&voc, &tbox);
        let at = format!("seed {seed}");
        let compared = compare(&tbox, &live, &abox, &cq, &at);
        prop_assert_eq!(
            eval_over_abox(&abox, &compared.served),
            certain_answers(&tbox, &abox, &cq),
            "{}: certain answers", at
        );
    }
}

/// The 14 LUBM shapes on seed-1 data (60 000 facts, the benchmark's
/// scale): same equivalence, and the same rows as the full TBox's
/// minimised reformulation on the engine.
#[test]
fn lubm_shapes_reformulate_alike_under_the_live_tbox() {
    let mut onto = UnivOntology::build();
    let (abox, _) = generate(
        &mut onto,
        &GenConfig {
            seed: 1,
            target_facts: 60_000,
            ..GenConfig::default()
        },
    );
    let live = context_of(&onto.voc, &onto.tbox);
    let dead = live.dead_predicates(|| Extents::from_abox(&abox));
    assert!(!dead.is_empty(), "seed 1 leaves predicates dead");
    let engine = Engine::load(
        &abox,
        &onto.voc,
        LayoutKind::Simple,
        EngineProfile::pg_like(),
    );
    let rows = |fol: &FolQuery| {
        let mut rows = engine
            .evaluate(fol)
            .expect("the pg-like profile has no limit")
            .rows;
        rows.sort();
        rows
    };
    let mut shapes: Vec<(String, CQ)> = workload(&onto)
        .into_iter()
        .map(|w| (w.name, w.cq))
        .collect();
    shapes.push(("A4".into(), star_query(&onto, 4)));
    let (mut full, mut lived) = (0, 0);
    for (name, cq) in &shapes {
        let compared = compare(&onto.tbox, &live, &abox, cq, name);
        let reference = FolQuery::Ucq(minimize_ucq(&obda::reform::perfect_ref_pruned(
            cq, &onto.tbox,
        )));
        assert_eq!(rows(&compared.served), rows(&reference), "{name}: rows");
        assert!(compared.live_minimal <= compared.full_minimal, "{name}");
        full += compared.full_candidates;
        lived += compared.live_candidates;
    }
    assert!(
        lived < full,
        "dead inclusions built {full} candidates, live ones {lived}"
    );
}

// ---------------------------------------------------------------------
// Writes that change the dead set
// ---------------------------------------------------------------------

/// `PhDStudent ⊑ Student ⊑ Person`, `Professor ⊑ Person`,
/// `∃advises ⊑ Professor`, and one Student and one Professor. `Person`
/// has no facts but is fed by both; `PhDStudent` and `advises` are dead.
fn toy_kb() -> (Vocabulary, TBox, ABox) {
    let mut b = TBoxBuilder::new();
    b.sub("PhDStudent", "Student")
        .sub("Student", "Person")
        .sub("Professor", "Person")
        .sub("exists advises", "Professor");
    let (mut voc, tbox) = b.finish();
    let mut abox = ABox::new();
    let student = voc.find_concept("Student").unwrap();
    let professor = voc.find_concept("Professor").unwrap();
    let (ann, bob) = (voc.individual("ann"), voc.individual("bob"));
    abox.assert_concept(student, ann);
    abox.assert_concept(professor, bob);
    (voc, tbox, abox)
}

const PERSON_WIRE: &str = "SELECT ?x WHERE Person(?x)";

fn person(voc: &Vocabulary) -> CQ {
    let person = voc.find_concept("Person").unwrap();
    CQ::with_var_head(
        vec![VarId(0)],
        vec![Atom::Concept(person, Term::Var(VarId(0)))],
    )
}

/// The certain answers to `Person(x)`, as names.
fn oracle(voc: &Vocabulary, tbox: &TBox, abox: &ABox) -> BTreeSet<String> {
    certain_answers(tbox, abox, &person(voc))
        .into_iter()
        .map(|row| voc.individual_name(row[0]).to_string())
        .collect()
}

fn wire_names(client: &mut WireClient, text: &str) -> BTreeSet<String> {
    let r = client.simple_query(text).expect("query answers");
    r[0].rows.iter().map(|row| row[0].clone()).collect()
}

fn dead_names(server: &Server) -> Vec<String> {
    let snap = server.snapshot();
    let voc = snap.vocabulary();
    snap.dead_predicates()
        .iter()
        .map(|&p| match p {
            PredId::Concept(c) => voc.concept_name(c).to_string(),
            PredId::Role(r) => voc.role_name(r).to_string(),
        })
        .collect()
}

fn configs() -> Vec<(bool, Backend)> {
    let mut all = Vec::new();
    for cache_plans in [true, false] {
        for backend in [Backend::Native, Backend::Sql] {
            all.push((cache_plans, backend));
        }
    }
    all
}

fn toy_server(cache_plans: bool, backend: Backend) -> (Vocabulary, TBox, ABox, Arc<Server>) {
    let (voc, tbox, abox) = toy_kb();
    let server = Server::new(
        voc.clone(),
        tbox.clone(),
        &abox,
        ServerConfig {
            cache_plans,
            backend,
            ..ServerConfig::default()
        },
    );
    (voc, tbox, abox, Arc::new(server))
}

#[test]
fn batch_writes_that_change_the_dead_set_keep_answers_certain() {
    for (cache_plans, backend) in configs() {
        let at = format!("cache_plans={cache_plans} {}", backend.name());
        let (mut voc, tbox, mut abox, server) = toy_server(cache_plans, backend);
        let q = person(&voc);
        let served = |server: &Server| -> BTreeSet<String> {
            let snap = server.snapshot();
            let out = server
                .query_on_as(&snap, &q, backend)
                .expect("query answers");
            let names = snap.vocabulary();
            out.outcome
                .rows
                .iter()
                .map(|row| names.individual_name(IndividualId(row[0])).to_string())
                .collect()
        };
        assert_eq!(served(&server), oracle(&voc, &tbox, &abox), "{at}");
        assert_eq!(dead_names(&server), ["PhDStudent", "advises"], "{at}");

        // Case 1: a fact inserted into a dead predicate.
        let phd = voc.find_concept("PhDStudent").unwrap();
        let cat = voc.individual("cat");
        let mut delta = AboxDelta::new().insert_concept(phd, cat);
        delta.new_individuals.push("cat".into());
        server.apply_batch(&delta).expect("batch commits");
        abox.apply(&delta);
        assert!(served(&server).contains("cat"), "{at}: the PhD student");
        assert_eq!(served(&server), oracle(&voc, &tbox, &abox), "{at}");
        assert_eq!(dead_names(&server), ["advises"], "{at}");

        // Case 2: deleting a predicate's last fact.
        let professor = voc.find_concept("Professor").unwrap();
        let bob = voc.find_individual("bob").unwrap();
        let delta = AboxDelta::new().delete_concept(professor, bob);
        server.apply_batch(&delta).expect("batch commits");
        abox.apply(&delta);
        assert_eq!(served(&server), oracle(&voc, &tbox, &abox), "{at}");
        assert_eq!(dead_names(&server), ["Professor", "advises"], "{at}");
    }
}

#[test]
fn wire_writes_that_change_the_dead_set_keep_answers_certain() {
    for (cache_plans, backend) in configs() {
        let at = format!("cache_plans={cache_plans} {}", backend.name());
        let (mut voc, tbox, mut abox, server) = toy_server(cache_plans, backend);
        let mut listener = PgListener::bind("127.0.0.1:0", server.clone(), PgConfig::default())
            .expect("bind ephemeral port");
        let mut client =
            WireClient::connect(&listener.local_addr(), &[("backend", backend.name())])
                .expect("startup completes");
        assert_eq!(
            wire_names(&mut client, PERSON_WIRE),
            oracle(&voc, &tbox, &abox),
            "{at}"
        );

        // Case 1: a fact inserted into a dead predicate, answered inside
        // its transaction (an overlay with a dead set of its own) and
        // after COMMIT.
        client.simple_query("BEGIN").expect("BEGIN");
        client
            .simple_query("INSERT PhDStudent(cat)")
            .expect("in-transaction INSERT");
        let inside = wire_names(&mut client, PERSON_WIRE);
        assert!(inside.contains("cat"), "{at}: read your own write");
        let done = client.simple_query("COMMIT").expect("COMMIT");
        assert_eq!(done[0].tag, "COMMIT", "{at}");
        let phd = voc.find_concept("PhDStudent").unwrap();
        abox.assert_concept(phd, voc.individual("cat"));
        assert_eq!(
            wire_names(&mut client, PERSON_WIRE),
            inside,
            "{at}: after COMMIT"
        );
        assert_eq!(inside, oracle(&voc, &tbox, &abox), "{at}");

        // Case 2: deleting a predicate's last fact — Professor's kills
        // it, Student's leaves it fed by cat.
        client
            .simple_query("DELETE Student(ann), Professor(bob)")
            .expect("autocommit DELETE");
        let student = voc.find_concept("Student").unwrap();
        let professor = voc.find_concept("Professor").unwrap();
        abox.retract_concept(student, voc.find_individual("ann").unwrap());
        abox.retract_concept(professor, voc.find_individual("bob").unwrap());
        assert_eq!(
            wire_names(&mut client, PERSON_WIRE),
            oracle(&voc, &tbox, &abox),
            "{at}"
        );
        assert_eq!(dead_names(&server), ["Professor", "advises"], "{at}");

        client.terminate();
        listener.shutdown();
    }
}

/// The certain answers to `Person(x)` on a server, as names.
fn served_names(server: &Server) -> BTreeSet<String> {
    let snap = server.snapshot();
    let out = server.query_on(&snap, &person(snap.vocabulary()));
    let names = snap.vocabulary();
    out.expect("query answers")
        .outcome
        .rows
        .iter()
        .map(|row| names.individual_name(IndividualId(row[0])).to_string())
        .collect()
}

/// Durability keeps the *loaded* TBox, not the live one. A checkpoint and
/// a `reload_abox` compaction are each taken while `PhDStudent` is dead;
/// after each the store holds every loaded axiom, and a reopened server
/// that sees a `PhDStudent` answers it through `PhDStudent ⊑ Student`.
#[test]
fn durable_writes_persist_the_loaded_tbox_while_predicates_are_dead() {
    let (voc, tbox, abox) = toy_kb();
    let loaded = oracle(&voc, &tbox, &abox);
    let dir = std::env::temp_dir().join(format!("obda-live-tbox-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut server =
        Server::create_durable(&dir, voc, tbox.clone(), &abox, ServerConfig::default())
            .expect("store created");
    for (step, newcomer) in [("checkpoint", "cat"), ("reload_abox", "dan")] {
        assert_eq!(served_names(&server), loaded, "{step}");
        assert_eq!(dead_names(&server), ["PhDStudent", "advises"], "{step}");
        match step {
            "checkpoint" => server.checkpoint().expect("checkpoint"),
            _ => {
                server.reload_abox(&abox).expect("compaction");
            }
        }
        drop(server);
        let stored = recover(&dir).expect("store recovers");
        assert_eq!(stored.tbox.axioms(), tbox.axioms(), "{step}");

        server = Server::open(&dir, ServerConfig::default()).expect("store reopens");
        let mut voc = server.snapshot().vocabulary().clone();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let mut delta = AboxDelta::new().insert_concept(phd, voc.individual(newcomer));
        delta.new_individuals.push(newcomer.into());
        server.apply_batch(&delta).expect("batch commits");
        let mut grown = abox.clone();
        grown.apply(&delta);
        let answers = served_names(&server);
        assert!(answers.contains(newcomer), "{step}: the PhD student");
        assert_eq!(answers, oracle(&voc, &tbox, &grown), "{step}");
        // Back to the loaded facts: `PhDStudent` is dead again.
        server.reload_abox(&abox).expect("reload");
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `live_tbox_builds` moves by one for a write that changes the dead set
/// and stays for one that does not.
#[test]
fn live_tbox_builds_count_dead_set_changes_on_the_wire() {
    let (_, _, _, server) = toy_server(true, Backend::Native);
    let mut listener = PgListener::bind("127.0.0.1:0", server.clone(), PgConfig::default())
        .expect("bind ephemeral port");
    let mut client = WireClient::connect(&listener.local_addr(), &[]).expect("startup completes");
    let builds = |client: &mut WireClient| -> u64 {
        let r = client.simple_query("SHOW metrics").expect("SHOW metrics");
        let row = r[0].rows.iter().find(|row| row[0] == "live_tbox_builds");
        row.expect("live_tbox_builds is shown")[1].parse().unwrap()
    };
    let memo_misses = || server.observe().get(Counter::FragmentMemoMisses);

    wire_names(&mut client, PERSON_WIRE);
    let first = builds(&mut client);
    assert_eq!(first, 1, "generation 0 builds its live TBox");
    let computed = memo_misses();

    client.simple_query("INSERT Student(dan)").expect("INSERT");
    wire_names(&mut client, PERSON_WIRE);
    assert_eq!(builds(&mut client), first, "Student was live already");
    assert_eq!(memo_misses(), computed, "the recompile took the memo");

    client
        .simple_query("INSERT PhDStudent(cat)")
        .expect("INSERT");
    wire_names(&mut client, PERSON_WIRE);
    assert_eq!(builds(&mut client), first + 1, "PhDStudent came alive");
    assert!(memo_misses() > computed, "a new live TBox, an empty memo");

    client.terminate();
    listener.shutdown();
}
