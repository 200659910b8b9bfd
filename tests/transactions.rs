//! The transaction suite: snapshot isolation, first-committer-wins,
//! group commit, and fuzzy checkpoints, end to end.
//!
//! The acceptance bar is the differential property at the bottom:
//! N interleaved writers with mixed commits and rollbacks must leave the
//! server — vocabulary, catalog statistics, layout state, query answers,
//! and the durable on-disk state — exactly where serially replaying only
//! the committed transactions, in commit order, leaves a fresh server.
//! A fuzzy checkpoint taken mid-stream must not perturb any of it.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use obda::prelude::*;
use obda::query::testkit::{random_abox, random_connected_cq, random_tbox, KbShape, Rng};
use obda::rdbms::store::recover;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obda-txn-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Example-7 fixture KB plus a query with a non-trivial reformulation.
fn fixture() -> (Vocabulary, TBox, ABox, CQ) {
    let (mut voc, tbox) = obda::dllite::example7_tbox();
    let phd = voc.find_concept("PhDStudent").unwrap();
    let works = voc.find_role("worksWith").unwrap();
    let damian = voc.individual("Damian");
    let ioana = voc.individual("Ioana");
    let mut abox = ABox::new();
    abox.assert_concept(phd, damian);
    abox.assert_role(works, ioana, damian);
    let q = CQ::with_var_head(
        vec![VarId(0)],
        vec![Atom::Concept(phd, Term::Var(VarId(0)))],
    );
    (voc, tbox, abox, q)
}

fn sorted_rows(out: obda::rdbms::ServerOutcome) -> Vec<Vec<u32>> {
    let mut rows = out.outcome.rows;
    rows.sort();
    rows
}

#[test]
fn read_your_own_writes_under_snapshot_isolation() {
    let (voc, tbox, abox, q) = fixture();
    let phd = voc.find_concept("PhDStudent").unwrap();
    let ioana = voc.find_individual("Ioana").unwrap();
    let server = Server::new(voc, tbox, &abox, ServerConfig::default());
    let baseline = sorted_rows(server.query(&q).unwrap());

    let mut txn = server.begin();
    assert!(!txn.contains_concept(phd, ioana));
    txn.insert_concept(phd, ioana);
    assert!(txn.contains_concept(phd, ioana), "read-your-own-writes");
    let in_txn = sorted_rows(txn.query(&q).unwrap());
    assert!(
        in_txn.contains(&vec![ioana.0]),
        "in-transaction query sees the buffered insert"
    );

    // Other sessions see nothing until commit.
    assert_eq!(sorted_rows(server.query(&q).unwrap()), baseline);
    assert_eq!(server.generation(), 0);

    let generation = txn.commit().unwrap();
    assert_eq!(generation, 1);
    assert_eq!(
        sorted_rows(server.query(&q).unwrap()),
        in_txn,
        "committed state equals the transaction's own view"
    );
}

#[test]
fn rollback_and_drop_discard_everything() {
    let (voc, tbox, abox, q) = fixture();
    let phd = voc.find_concept("PhDStudent").unwrap();
    let ioana = voc.find_individual("Ioana").unwrap();
    let server = Server::new(voc, tbox, &abox, ServerConfig::default());
    let baseline = sorted_rows(server.query(&q).unwrap());

    let mut txn = server.begin();
    txn.insert_concept(phd, ioana);
    let newbie = txn.individual("Rollback_Newbie");
    txn.insert_concept(phd, newbie);
    txn.rollback();

    let mut txn = server.begin();
    txn.insert_concept(phd, ioana);
    drop(txn); // implicit rollback

    assert_eq!(server.generation(), 0, "nothing published");
    assert_eq!(sorted_rows(server.query(&q).unwrap()), baseline);
    assert!(
        server
            .snapshot()
            .vocabulary()
            .find_individual("Rollback_Newbie")
            .is_none(),
        "rolled-back names are never interned"
    );
    let stats = server.txn_stats();
    assert_eq!((stats.committed, stats.active), (0, 0));
}

#[test]
fn empty_commit_is_a_noop() {
    let (voc, tbox, abox, _) = fixture();
    let server = Server::new(voc, tbox, &abox, ServerConfig::default());
    let txn = server.begin();
    let generation = txn.commit().unwrap();
    assert_eq!(generation, 0, "empty commit returns the pinned generation");
    assert_eq!(server.generation(), 0, "no generation bump");
}

#[test]
fn first_committer_wins_on_overlapping_keys() {
    let (voc, tbox, abox, _) = fixture();
    let phd = voc.find_concept("PhDStudent").unwrap();
    let works = voc.find_role("worksWith").unwrap();
    let ioana = voc.find_individual("Ioana").unwrap();
    let damian = voc.find_individual("Damian").unwrap();
    let server = Server::new(voc, tbox, &abox, ServerConfig::default());

    // Overlap: both write the fact key PhDStudent(Ioana).
    let mut first = server.begin();
    let mut second = server.begin();
    first.insert_concept(phd, ioana);
    second.retract_concept(phd, ioana);
    first.commit().unwrap();
    match second.commit() {
        Err(ServerError::Conflict { committed_in }) => assert_eq!(committed_in, 1),
        other => panic!("expected Conflict, got {other:?}"),
    }
    assert_eq!(server.txn_stats().conflicts, 1);

    // Disjoint keys: both commit, in order.
    let mut third = server.begin();
    let mut fourth = server.begin();
    third.insert_role(works, damian, ioana);
    fourth.retract_concept(phd, damian);
    assert_eq!(third.commit().unwrap(), 2);
    assert_eq!(fourth.commit().unwrap(), 3);

    // A transaction begun *after* the first commit does not conflict
    // with it: only writes committed past the begin generation count.
    let mut fifth = server.begin();
    fifth.insert_concept(phd, ioana);
    assert_eq!(fifth.commit().unwrap(), 4);
}

#[test]
fn new_individuals_remap_to_final_ids_at_commit() {
    let (voc, tbox, abox, _) = fixture();
    let phd = voc.find_concept("PhDStudent").unwrap();
    let works = voc.find_role("worksWith").unwrap();
    let base = voc.num_individuals();
    let server = Server::new(voc, tbox, &abox, ServerConfig::default());

    // Two concurrent transactions introduce names; their provisional ids
    // alias (both allocate base+0) but commit remaps them apart.
    let mut a = server.begin();
    let mut b = server.begin();
    let alice = a.individual("Alice_New");
    let bob = b.individual("Bob_New");
    assert_eq!(alice.0 as usize, base, "provisional ids alias across txns");
    assert_eq!(bob.0 as usize, base);
    a.insert_concept(phd, alice);
    b.insert_role(works, bob, bob);
    a.commit().unwrap();
    b.commit().unwrap();

    let snap = server.snapshot();
    let final_alice = snap.vocabulary().find_individual("Alice_New").unwrap();
    let final_bob = snap.vocabulary().find_individual("Bob_New").unwrap();
    assert_ne!(final_alice, final_bob);
    assert!(snap.engine().probe_concept(phd, final_alice));
    assert!(snap.engine().probe_role(works, final_bob, final_bob));
    assert!(!snap.engine().probe_concept(phd, final_bob));
}

#[test]
fn concurrent_writers_commit_in_groups_and_lose_nothing() {
    let (voc, tbox, abox, _) = fixture();
    let phd = voc.find_concept("PhDStudent").unwrap();
    let dir = scratch("group-commit");
    let server =
        Arc::new(Server::create_durable(&dir, voc, tbox, &abox, ServerConfig::default()).unwrap());

    const WRITERS: usize = 8;
    let committed = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let server = Arc::clone(&server);
            let committed = Arc::clone(&committed);
            scope.spawn(move || {
                let mut txn = server.begin();
                let id = txn.individual(&format!("Writer_{w}"));
                txn.insert_concept(phd, id);
                txn.commit().unwrap();
                committed.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(committed.load(Ordering::SeqCst), WRITERS as u64);

    let stats = server.txn_stats();
    assert_eq!(stats.committed, WRITERS as u64);
    assert_eq!(stats.conflicts, 0);
    assert!(
        stats.commit_groups >= 1 && stats.commit_groups <= WRITERS as u64,
        "every commit rode some group: {stats:?}"
    );
    assert_eq!(server.generation(), WRITERS as u64);

    let snap = server.snapshot();
    for w in 0..WRITERS {
        let id = snap
            .vocabulary()
            .find_individual(&format!("Writer_{w}"))
            .unwrap_or_else(|| panic!("Writer_{w} must be interned"));
        assert!(snap.engine().probe_concept(phd, id));
    }
    drop(server);

    // Recovery agrees: every committed transaction survives restart.
    let reopened = Server::open(&dir, ServerConfig::default()).unwrap();
    assert_eq!(reopened.generation(), WRITERS as u64);
    let snap = reopened.snapshot();
    for w in 0..WRITERS {
        assert!(snap
            .vocabulary()
            .find_individual(&format!("Writer_{w}"))
            .is_some());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pinned_snapshot_survives_commits_and_fuzzy_checkpoint() {
    let (voc, tbox, abox, q) = fixture();
    let phd = voc.find_concept("PhDStudent").unwrap();
    let works = voc.find_role("worksWith").unwrap();
    let ioana = voc.find_individual("Ioana").unwrap();
    let damian = voc.find_individual("Damian").unwrap();
    let dir = scratch("pinned-ckpt");
    let server = Server::create_durable(&dir, voc, tbox, &abox, ServerConfig::default()).unwrap();

    let mut reader = server.begin();
    let before = sorted_rows(reader.query(&q).unwrap());

    // Concurrent commits and a fuzzy checkpoint while `reader` is open.
    let mut w1 = server.begin();
    w1.insert_concept(phd, ioana);
    w1.commit().unwrap();
    server.checkpoint().unwrap();
    let mut w2 = server.begin();
    w2.retract_concept(phd, damian);
    w2.commit().unwrap();

    // The reader still answers from its pinned generation.
    assert_eq!(reader.begin_generation(), 0);
    assert_eq!(sorted_rows(reader.query(&q).unwrap()), before);
    // And a disjoint write from the old snapshot still commits.
    reader.insert_role(works, ioana, ioana);
    reader.commit().unwrap();

    drop(server);
    let reopened = Server::open(&dir, ServerConfig::default()).unwrap();
    assert_eq!(reopened.generation(), 3);
    let snap = reopened.snapshot();
    assert!(snap.engine().probe_concept(phd, ioana));
    assert!(!snap.engine().probe_concept(phd, damian));
    assert!(snap.engine().probe_role(works, ioana, ioana));
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// The acceptance differential: interleaved writers ≡ serial replay.
// ---------------------------------------------------------------------------

/// One buffered fact operation, individual-addressed *by name* so the
/// same script replays identically on a server with different interned
/// ids (new names get different final ids under different interleavings).
#[derive(Clone, Debug)]
enum Op {
    Concept(ConceptId, String, bool),
    Role(RoleId, String, String, bool),
}

fn apply_op(txn: &mut Txn<'_>, op: &Op) {
    match op {
        Op::Concept(c, name, present) => {
            let a = txn.individual(name);
            if *present {
                txn.insert_concept(*c, a);
            } else {
                txn.retract_concept(*c, a);
            }
        }
        Op::Role(r, a_name, b_name, present) => {
            let a = txn.individual(a_name);
            let b = txn.individual(b_name);
            if *present {
                txn.insert_role(*r, a, b);
            } else {
                txn.retract_role(*r, a, b);
            }
        }
    }
}

/// A writer's script: its buffered ops plus whether it tries to commit
/// (it may still lose first-committer-wins) or rolls back.
#[derive(Clone, Debug)]
struct Script {
    ops: Vec<Op>,
    commits: bool,
}

fn random_scripts(rng: &mut Rng, voc: &Vocabulary, writers: usize) -> Vec<Script> {
    let individuals: Vec<String> = (0..voc.num_individuals())
        .map(|i| voc.individual_name(IndividualId(i as u32)).to_string())
        .collect();
    (0..writers)
        .map(|w| {
            let mut ops = Vec::new();
            for k in 0..(1 + rng.below(5)) {
                // A fresh name with 25% probability; writers never share
                // fresh names, so name collisions only happen on base
                // individuals (where they are the point: conflicts).
                let pick = |rng: &mut Rng, salt: usize| {
                    if rng.chance(0.25) {
                        format!("w{w}_fresh_{salt}")
                    } else {
                        individuals[rng.below(individuals.len())].clone()
                    }
                };
                let present = rng.chance(0.7);
                if rng.chance(0.5) {
                    let c = ConceptId(rng.below(voc.num_concepts()) as u32);
                    let name = pick(rng, k);
                    ops.push(Op::Concept(c, name, present));
                } else {
                    let r = RoleId(rng.below(voc.num_roles()) as u32);
                    let a = pick(rng, k);
                    let b = pick(rng, k + 100);
                    ops.push(Op::Role(r, a, b, present));
                }
            }
            Script {
                ops,
                commits: rng.chance(0.8),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// N interleaved writers with mixed commits, rollbacks, and
    /// first-committer-wins losses — plus a fuzzy checkpoint somewhere
    /// mid-stream — leave the server exactly where serially replaying
    /// only the committed transactions, in commit order, leaves a fresh
    /// one: same vocabulary, same catalog statistics, same answers under
    /// every layout, and the same recovered on-disk state.
    #[test]
    fn interleaved_writers_equal_serial_replay(seed in 0u64..1_000_000) {
        for layout in [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph] {
            let mut rng = Rng::new(seed ^ (layout as u64).wrapping_mul(0x9e37_79b9));
            let shape = KbShape::default();
            let (mut voc, tbox) = random_tbox(&mut rng, &shape);
            let abox = random_abox(&mut rng, &mut voc, &shape);
            let config = ServerConfig { layout, compact_every: 0, ..ServerConfig::default() };

            let live_dir = scratch(&format!("prop-live-{seed}-{}", layout.name()));
            let serial_dir = scratch(&format!("prop-serial-{seed}-{}", layout.name()));
            let live = Server::create_durable(
                &live_dir, voc.clone(), tbox.clone(), &abox, config.clone(),
            ).unwrap();

            let writers = 2 + rng.below(3);
            let scripts = random_scripts(&mut rng, &voc, writers);

            // Interleave: open all writers up front, then repeatedly pick
            // one with work left and run its next action (op, or finish).
            // A fuzzy checkpoint fires at one random step.
            let mut txns: Vec<Option<Txn<'_>>> =
                (0..writers).map(|_| Some(live.begin())).collect();
            let mut cursor = vec![0usize; writers];
            let total_actions: usize =
                scripts.iter().map(|s| s.ops.len() + 1).sum();
            let ckpt_at = rng.below(total_actions + 1);
            let mut commit_order: Vec<usize> = Vec::new();
            for step in 0..total_actions {
                if step == ckpt_at {
                    live.checkpoint().unwrap();
                }
                // Pick a writer with actions remaining.
                let alive: Vec<usize> = (0..writers)
                    .filter(|&w| cursor[w] <= scripts[w].ops.len())
                    .collect();
                let w = alive[rng.below(alive.len())];
                if cursor[w] < scripts[w].ops.len() {
                    apply_op(txns[w].as_mut().unwrap(), &scripts[w].ops[cursor[w]]);
                } else {
                    let txn = txns[w].take().unwrap();
                    if scripts[w].commits {
                        match txn.commit() {
                            Ok(_) => commit_order.push(w),
                            Err(ServerError::Conflict { .. }) => {} // FCW loser
                            Err(other) => panic!("unexpected commit error: {other}"),
                        }
                    } else {
                        txn.rollback();
                    }
                }
                cursor[w] += 1;
            }
            if ckpt_at == total_actions {
                live.checkpoint().unwrap();
            }

            // Serial replay of exactly the committed transactions, in
            // commit order, each on a fresh snapshot (no concurrency, so
            // none can conflict).
            let serial = Server::create_durable(
                &serial_dir, voc.clone(), tbox.clone(), &abox, config.clone(),
            ).unwrap();
            for &w in &commit_order {
                let mut txn = serial.begin();
                for op in &scripts[w].ops {
                    apply_op(&mut txn, op);
                }
                txn.commit().unwrap();
            }

            // Server state: vocabulary, catalog stats, query answers.
            let live_snap = live.snapshot();
            let serial_snap = serial.snapshot();
            prop_assert_eq!(
                live_snap.generation(), commit_order.len() as u64,
                "one generation per committed transaction (layout {})", layout.name()
            );
            prop_assert_eq!(live_snap.vocabulary(), serial_snap.vocabulary());
            prop_assert_eq!(
                live_snap.engine().stats(), serial_snap.engine().stats(),
                "catalog stats must match serial replay (layout {})", layout.name()
            );
            for _ in 0..3 {
                let atoms = 1 + rng.below(3);
                let cq = random_connected_cq(&mut rng, &voc, atoms, 2);
                let a = sorted_rows(live.query(&cq).unwrap());
                let b = sorted_rows(serial.query(&cq).unwrap());
                prop_assert_eq!(a, b, "answers diverge (layout {})", layout.name());
            }

            // Durable state: both recover to the same KB, checkpoint or
            // not on the live side.
            drop(txns);
            drop(live);
            drop(serial);
            let live_kb = recover(&live_dir).unwrap();
            let serial_kb = recover(&serial_dir).unwrap();
            prop_assert_eq!(live_kb.generation, serial_kb.generation);
            prop_assert_eq!(&live_kb.voc, &serial_kb.voc);
            prop_assert_eq!(&live_kb.abox, &serial_kb.abox);
            std::fs::remove_dir_all(&live_dir).unwrap();
            std::fs::remove_dir_all(&serial_dir).unwrap();
        }
    }
}

/// Constraint staleness across the write paths: mined ABox completeness
/// constraints are cached per snapshot generation, so every route that
/// publishes a new generation — `apply_batch`, a committed transaction —
/// and the in-transaction overlay itself must re-mine rather than reuse
/// the pre-write constraint set. A stale set would keep pruning a union
/// arm whose predicate the write just populated, silently dropping rows.
mod stale_constraints {
    use super::*;
    // `proptest::prelude::Strategy` (a trait) shadows the enum upstream.
    use obda::core::Strategy;

    /// `Apprentice ⊑ Builder`, ABox `{Builder(b0)}`, `q(x) ← Builder(x)`.
    /// PerfectRef yields `Builder(x) ∨ Apprentice(x)`; while `Apprentice`
    /// has no facts (and nothing below it has any) the mined constraints
    /// make it dead, and the live TBox never builds the second arm, so
    /// the tests below revolve around inserting the first `Apprentice`
    /// fact.
    fn tiny() -> (
        Vocabulary,
        TBox,
        ABox,
        CQ,
        ConceptId,
        IndividualId,
        IndividualId,
    ) {
        let mut b = TBoxBuilder::new();
        b.sub("Apprentice", "Builder");
        let (mut voc, tbox) = b.finish();
        let appr = voc.find_concept("Apprentice").unwrap();
        let builder = voc.find_concept("Builder").unwrap();
        let b0 = voc.individual("b0");
        // Pre-interned so post-construction writes can reference it.
        let a0 = voc.individual("a0");
        let mut abox = ABox::new();
        abox.assert_concept(builder, b0);
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(builder, Term::Var(VarId(0)))],
        );
        (voc, tbox, abox, q, appr, a0, b0)
    }

    fn config() -> ServerConfig {
        ServerConfig {
            reform_strategy: Strategy::Ucq,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn apply_batch_refreshes_mined_constraints() {
        let (voc, tbox, abox, q, appr, a0, b0) = tiny();
        let server = Server::new(voc, tbox, &abox, config());

        // Cold query: the Apprentice arm is dropped — the live TBox of a
        // generation where Apprentice is dead never builds it.
        assert_eq!(sorted_rows(server.query(&q).unwrap()), vec![vec![b0.0]]);
        let snap = server.snapshot();
        assert_eq!(snap.dead_predicates(), [PredId::Concept(appr)]);
        let (compiled, _) = server.compile(&snap, &q, Backend::Native);
        assert_eq!(
            compiled.fol,
            FolQuery::Ucq(UCQ::single(q.clone())),
            "the Apprentice arm must be dropped"
        );

        // The pre-write constraint set is sound for the pre-write ABox
        // and must be recognizably stale for the post-write one.
        let stale = server.snapshot().constraints();
        assert!(stale.holds_on(&abox));
        let delta = AboxDelta::new().insert_concept(appr, a0);
        let mut mutated = abox.clone();
        mutated.apply(&delta);
        assert!(
            !stale.holds_on(&mutated),
            "pre-write constraints must not hold once Apprentice is populated"
        );

        // After the batch the pruned arm is live again: a0 is a certain
        // answer (Apprentice ⊑ Builder) and must come back.
        let generation = server.apply_batch(&delta).unwrap();
        assert_eq!(generation, 1);
        assert!(server.snapshot().constraints().holds_on(&mutated));
        assert!(server.snapshot().dead_predicates().is_empty());
        assert_eq!(
            sorted_rows(server.query(&q).unwrap()),
            vec![vec![b0.0], vec![a0.0]],
            "a stale constraint set would keep dropping the Apprentice arm"
        );
    }

    #[test]
    fn committed_transaction_refreshes_mined_constraints() {
        let (voc, tbox, abox, q, appr, a0, b0) = tiny();
        let server = Server::new(voc.clone(), tbox.clone(), &abox, config());
        let mut off_config = config();
        off_config.use_constraints = false;
        let witness = Server::new(voc, tbox, &abox, off_config);

        assert_eq!(sorted_rows(server.query(&q).unwrap()), vec![vec![b0.0]]);

        let mut txn = server.begin();
        txn.insert_concept(appr, a0);
        // The overlay mines its own constraints over base + buffered
        // writes; a leaked base-generation set would prune the arm and
        // hide the transaction's own insert.
        assert_eq!(
            sorted_rows(txn.query(&q).unwrap()),
            vec![vec![b0.0], vec![a0.0]],
            "read-your-own-writes through the reformulated arm"
        );
        // Other sessions still see the pre-write pruned answer.
        assert_eq!(sorted_rows(server.query(&q).unwrap()), vec![vec![b0.0]]);

        txn.commit().unwrap();
        let mut wtxn = witness.begin();
        wtxn.insert_concept(appr, a0);
        wtxn.commit().unwrap();
        assert_eq!(
            sorted_rows(server.query(&q).unwrap()),
            sorted_rows(witness.query(&q).unwrap()),
            "constraints-on answers must match the constraints-off witness after commit"
        );
        assert_eq!(
            sorted_rows(server.query(&q).unwrap()),
            vec![vec![b0.0], vec![a0.0]]
        );
    }
}
