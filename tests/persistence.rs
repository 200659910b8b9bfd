//! The persistence suite: durable snapshots, WAL crash recovery, and the
//! serving layer's incremental apply path, end to end.
//!
//! The recovery tests simulate the failure CI injects — a writer killed
//! mid-WAL-append — by tearing the log file at arbitrary byte offsets
//! and reopening the store. "Exact state" means: the recovered
//! vocabulary, ABox and generation equal the pre-crash ones
//! (`PartialEq`), every layout's catalog statistics are counter-exact vs.
//! a rebuild, and the reopened server answers the workload row-for-row
//! like a never-crashed one.

use std::path::PathBuf;

use proptest::prelude::*;

use obda::dllite::AboxDelta;
use obda::prelude::*;
use obda::query::testkit::{random_abox, random_delta, random_tbox, KbShape, Rng};
use obda::rdbms::store::{self, recover, TailStatus};
use obda::rdbms::ServerConfig;

/// A unique scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obda-persistence-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Example-7 fixture KB plus a query with a non-trivial reformulation.
fn fixture() -> (Vocabulary, TBox, ABox, CQ) {
    let (mut voc, tbox) = obda::dllite::example7_tbox();
    let phd = voc.find_concept("PhDStudent").unwrap();
    let works = voc.find_role("worksWith").unwrap();
    let sup = voc.find_role("supervisedBy").unwrap();
    let damian = voc.individual("Damian");
    let ioana = voc.individual("Ioana");
    let mut abox = ABox::new();
    abox.assert_concept(phd, damian);
    abox.assert_concept(phd, ioana);
    abox.assert_role(works, ioana, damian);
    abox.assert_role(sup, damian, ioana);
    let q = CQ::with_var_head(
        vec![VarId(0)],
        vec![
            Atom::Concept(phd, Term::Var(VarId(0))),
            Atom::Role(works, Term::Var(VarId(0)), Term::Var(VarId(1))),
        ],
    );
    (voc, tbox, abox, q)
}

fn sorted_rows(out: obda::rdbms::ServerOutcome) -> Vec<Vec<u32>> {
    let mut rows = out.outcome.rows;
    rows.sort();
    rows
}

#[test]
fn snapshot_of_lubm_data_is_byte_identical_after_roundtrip() {
    let mut onto = UnivOntology::build();
    let (abox, _) = generate(
        &mut onto,
        &GenConfig {
            target_facts: 600,
            ..Default::default()
        },
    );
    let bytes = store::encode_snapshot(&onto.voc, &onto.tbox, &abox, 17);
    let (voc2, tbox2, abox2, generation) = store::decode_snapshot(&bytes, "mem").unwrap();
    assert_eq!(generation, 17);
    assert_eq!(voc2, onto.voc);
    assert_eq!(abox2, abox);
    assert_eq!(tbox2.axioms(), onto.tbox.axioms());
    assert_eq!(
        store::encode_snapshot(&voc2, &tbox2, &abox2, generation),
        bytes,
        "decode → encode must reproduce the snapshot byte-for-byte"
    );
}

#[test]
fn durable_server_survives_restart_with_exact_state() {
    let dir = scratch("restart");
    let (voc, tbox, abox, q) = fixture();
    let phd = voc.find_concept("PhDStudent").unwrap();
    let works = voc.find_role("worksWith").unwrap();
    let damian = voc.find_individual("Damian").unwrap();
    let ioana = voc.find_individual("Ioana").unwrap();

    let srv =
        Server::create_durable(&dir, voc.clone(), tbox, &abox, ServerConfig::default()).unwrap();
    // Two batches: one interning a fresh individual, one deleting.
    let garcia = obda::dllite::IndividualId(voc.num_individuals() as u32);
    let g1 = srv
        .apply_batch(
            &AboxDelta {
                new_individuals: vec!["Garcia".into()],
                ..AboxDelta::new()
            }
            .insert_concept(phd, garcia)
            .insert_role(works, garcia, damian),
        )
        .unwrap();
    let g2 = srv
        .apply_batch(&AboxDelta::new().delete_role(works, ioana, damian))
        .unwrap();
    assert_eq!((g1, g2), (1, 2));
    let want = sorted_rows(srv.query(&q).unwrap());
    drop(srv); // process "crash": nothing flushed beyond the WAL appends

    let reopened = Server::open(&dir, ServerConfig::default()).unwrap();
    assert_eq!(reopened.generation(), 2, "generation survives recovery");
    assert!(reopened.is_durable());
    let got = sorted_rows(reopened.query(&q).unwrap());
    assert_eq!(got, want, "recovered server answers identically");

    // And the recovered state keeps accepting batches.
    let g3 = reopened
        .apply_batch(&AboxDelta::new().insert_role(works, ioana, damian))
        .unwrap();
    assert_eq!(g3, 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A reopened server starts a fresh TBox scope — it reformulates once,
/// from the TBox that rode in the store's snapshot — and from then on
/// commits recompile out of that scope's memo like on any other server.
#[test]
fn reopened_server_builds_its_own_fragment_memo_and_keeps_it_across_commits() {
    let dir = scratch("memo");
    let (voc, tbox, abox, q) = fixture();
    let phd = voc.find_concept("PhDStudent").unwrap();
    let damian = voc.find_individual("Damian").unwrap();
    let srv = Server::create_durable(&dir, voc, tbox, &abox, ServerConfig::default()).unwrap();
    srv.query(&q).unwrap();
    srv.apply_batch(&AboxDelta::new().delete_concept(phd, damian))
        .unwrap();
    let want = sorted_rows(srv.query(&q).unwrap());
    let computed_once = srv.cache_stats().fragment_memo_misses;
    assert!(computed_once > 0);
    drop(srv);

    let reopened = Server::open(&dir, ServerConfig::default()).unwrap();
    assert_eq!(reopened.cache_stats().fragment_memo_entries, 0);
    assert_eq!(sorted_rows(reopened.query(&q).unwrap()), want);
    let primed = reopened.cache_stats();
    assert_eq!(primed.fragment_memo_hits, 0, "nothing survives the process");
    assert_eq!(primed.fragment_memo_misses, computed_once);

    reopened
        .apply_batch(&AboxDelta::new().insert_concept(phd, damian))
        .unwrap();
    let out = reopened.query(&q).unwrap();
    assert!(!out.cache_hit);
    let after = reopened.cache_stats();
    assert_eq!(after.fragment_memo_misses, primed.fragment_memo_misses);
    assert!(after.fragment_memo_hits > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_final_record_recovers_to_last_acknowledged_batch() {
    let dir = scratch("torn");
    let (voc, tbox, abox, q) = fixture();
    let phd = voc.find_concept("PhDStudent").unwrap();
    let works = voc.find_role("worksWith").unwrap();
    let damian = voc.find_individual("Damian").unwrap();
    let ioana = voc.find_individual("Ioana").unwrap();

    let srv = Server::create_durable(&dir, voc, tbox, &abox, ServerConfig::default()).unwrap();
    srv.apply_batch(&AboxDelta::new().delete_concept(phd, damian))
        .unwrap();
    let after_first = recover(&dir).unwrap();
    srv.apply_batch(&AboxDelta::new().insert_role(works, damian, ioana))
        .unwrap();
    drop(srv);

    // The writer dies mid-append of batch 2: chop bytes off the log.
    let wal = dir.join("wal.bin");
    let len = std::fs::metadata(&wal).unwrap().len();
    store::wal::truncate_to(&wal, len - 7).unwrap();

    let kb = recover(&dir).unwrap();
    assert!(kb.torn_tail, "the tear must be detected");
    assert_eq!(kb.generation, 1, "batch 2 was torn, batch 1 survives");
    assert_eq!(kb.abox, after_first.abox, "exact pre-crash state");
    assert_eq!(kb.voc, after_first.voc);

    // Server::open truncates the tear and serves batch-1 state.
    let reopened = Server::open(&dir, ServerConfig::default()).unwrap();
    assert_eq!(reopened.generation(), 1);
    let cold = Server::new(
        kb.voc.clone(),
        kb.tbox.clone(),
        &kb.abox,
        ServerConfig::default(),
    );
    assert_eq!(
        sorted_rows(reopened.query(&q).unwrap()),
        sorted_rows(cold.query(&q).unwrap())
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn auto_compaction_folds_wal_and_recovery_stays_exact() {
    let dir = scratch("compact");
    let (voc, tbox, abox, q) = fixture();
    let phd = voc.find_concept("PhDStudent").unwrap();
    let srv = Server::create_durable(
        &dir,
        voc.clone(),
        tbox,
        &abox,
        ServerConfig {
            compact_every: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // Five batches with compact_every=2: at least two compactions.
    for k in 0..5u32 {
        let fresh = obda::dllite::IndividualId(voc.num_individuals() as u32 + k);
        srv.apply_batch(
            &AboxDelta {
                new_individuals: vec![format!("auto{k}")],
                ..AboxDelta::new()
            }
            .insert_concept(phd, fresh),
        )
        .unwrap();
    }
    assert_eq!(srv.generation(), 5);
    let want = sorted_rows(srv.query(&q).unwrap());
    drop(srv);

    let kb = recover(&dir).unwrap();
    assert_eq!(kb.generation, 5);
    assert!(
        kb.snapshot_generation >= 4,
        "compaction must have folded the WAL (snapshot at {}, expected ≥ 4)",
        kb.snapshot_generation
    );
    let reopened = Server::open(&dir, ServerConfig::default()).unwrap();
    assert_eq!(sorted_rows(reopened.query(&q).unwrap()), want);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite regression: a prepared plan compiled against generation `g`
/// (pinned via `snapshot()`) must keep executing correctly after an
/// `apply_batch` publishes `g+1` — against generation `g`'s data, which
/// the pinned snapshot owns immutably — while the live path recompiles
/// for `g+1` (the cache key embeds the generation).
#[test]
fn prepared_plan_from_generation_g_survives_g_plus_1() {
    let (voc, tbox, abox, q) = fixture();
    let phd = voc.find_concept("PhDStudent").unwrap();
    let ioana = voc.find_individual("Ioana").unwrap();
    let srv = Server::new(voc, tbox, &abox, ServerConfig::default());

    // Compile + cache the plan at generation 0, and pin the snapshot the
    // way an in-flight client would.
    let pinned = srv.snapshot();
    let first = srv.query_on(&pinned, &q).unwrap();
    assert_eq!((first.generation, first.cache_hit), (0, false));
    let want_g0 = {
        let mut rows = first.outcome.rows;
        rows.sort();
        rows
    };

    srv.apply_batch(&AboxDelta::new().delete_concept(phd, ioana))
        .unwrap();

    // Replaying on the pinned snapshot hits the generation-0 cache entry
    // ... which is gone (invalidated), so it recompiles against the
    // pinned snapshot's own engine — and must reproduce generation-0
    // answers exactly.
    let replay = srv.query_on(&pinned, &q).unwrap();
    assert_eq!(replay.generation, 0);
    assert_eq!(sorted_rows(replay), want_g0, "g-plan answers g-data");

    // The live path serves g+1: the deletion is visible and the stale
    // plan was never reused (miss, not hit).
    let live = srv.query(&q).unwrap();
    assert_eq!(live.generation, 1);
    assert!(!live.cache_hit);
    assert!(sorted_rows(live).len() < want_g0.len());
}

/// Incremental ingest beats a full reload: a durable server holding 90 %
/// of a 20 000-fact LUBM ABox ingests the rest as ten 1 % batches, and
/// the average `apply_batch` must be at least 5× faster than one
/// `reload_abox` of the whole ABox on the same server (best of 3
/// rounds, each on a fresh store).
#[test]
fn apply_batch_is_five_times_faster_than_reload_abox() {
    let mut onto = UnivOntology::build();
    let config = GenConfig {
        target_facts: 20_000,
        ..Default::default()
    };
    let (full, _) = generate(&mut onto, &config);
    let (concepts, roles) = (full.concept_assertions(), full.role_assertions());
    let (cc, rc) = (concepts.len() * 90 / 100, roles.len() * 90 / 100);
    let mut base = ABox::new();
    for &(c, i) in &concepts[..cc] {
        base.assert_concept(c, i);
    }
    for &(r, a, b) in &roles[..rc] {
        base.assert_role(r, a, b);
    }
    let (ctail, rtail) = (&concepts[cc..], &roles[rc..]);
    let batches: Vec<AboxDelta> = (0..10)
        .map(|k| AboxDelta {
            insert_concepts: ctail[ctail.len() * k / 10..ctail.len() * (k + 1) / 10].to_vec(),
            insert_roles: rtail[rtail.len() * k / 10..rtail.len() * (k + 1) / 10].to_vec(),
            ..AboxDelta::new()
        })
        .collect();

    let dir = scratch("ingest");
    let mut best_apply = std::time::Duration::MAX;
    let mut best_reload = std::time::Duration::MAX;
    for round in 0..3 {
        let srv = Server::create_durable(
            &dir.join(format!("r{round}")),
            onto.voc.clone(),
            onto.tbox.clone(),
            &base,
            ServerConfig {
                compact_every: 0, // time the append path, not compaction
                ..ServerConfig::default()
            },
        )
        .unwrap();
        // The first clone after a bulk load pays allocator warm-up that
        // steady-state batches never see.
        srv.apply_batch(&AboxDelta::new()).unwrap();
        let start = std::time::Instant::now();
        for batch in &batches {
            srv.apply_batch(batch).unwrap();
        }
        best_apply = best_apply.min(start.elapsed() / batches.len() as u32);
        let start = std::time::Instant::now();
        srv.reload_abox(&full).unwrap();
        best_reload = best_reload.min(start.elapsed());
    }
    let _ = std::fs::remove_dir_all(&dir);
    let speedup = best_reload.as_secs_f64() / best_apply.as_secs_f64();
    println!(
        "apply_batch {:.3} ms/batch, reload_abox {:.3} ms ({speedup:.1}x)",
        best_apply.as_secs_f64() * 1e3,
        best_reload.as_secs_f64() * 1e3
    );
    assert!(
        speedup >= 5.0,
        "incremental apply is {speedup:.1}x faster than a full reload, below the 5x bar"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Crash-anywhere recovery: random KB, random delta batches, a tear
    /// at a random byte offset anywhere past the last fully acknowledged
    /// prefix — recovery must reproduce exactly the state reached by the
    /// batches whose records survived intact.
    #[test]
    fn recovery_replays_to_exact_prefix_state(seed in 0u64..1_000_000, chop in 0u64..64) {
        let dir = scratch(&format!("prop-{seed}-{chop}"));
        let mut rng = Rng::new(seed);
        let shape = KbShape::default();
        let (mut voc, tbox) = random_tbox(&mut rng, &shape);
        let abox = random_abox(&mut rng, &mut voc, &shape);

        let srv = Server::create_durable(
            &dir,
            voc.clone(),
            tbox,
            &abox,
            ServerConfig {
                compact_every: 0, // keep every batch in the WAL
                ..ServerConfig::default()
            },
        ).unwrap();

        // Apply 1..4 random batches, tracking each intermediate state.
        let mut states = vec![(voc.clone(), abox.clone())];
        let mut live_voc = voc;
        let mut live_abox = abox;
        let batches = 1 + rng.below(3);
        for step in 0..batches {
            let delta = random_delta(&mut rng, &live_voc, &live_abox, 6, step);
            srv.apply_batch(&delta).unwrap();
            for name in &delta.new_individuals {
                live_voc.individual(name);
            }
            live_abox.apply(&delta);
            states.push((live_voc.clone(), live_abox.clone()));
        }
        drop(srv);

        // Tear the WAL `chop` bytes short (0 = clean shutdown).
        let wal = dir.join("wal.bin");
        let header = 20u64;
        let len = std::fs::metadata(&wal).unwrap().len();
        let cut = len.saturating_sub(chop).max(header);
        store::wal::truncate_to(&wal, cut).unwrap();
        let (_, surviving, tail) = store::wal::read_wal(&wal).unwrap();
        if cut == len {
            prop_assert_eq!(tail, TailStatus::Clean);
        }

        // Recovery must land exactly on the state after the surviving
        // batches — vocabulary, ABox and generation.
        let kb = recover(&dir).unwrap();
        let (want_voc, want_abox) = &states[surviving.len()];
        prop_assert_eq!(kb.generation, surviving.len() as u64);
        prop_assert_eq!(&kb.voc, want_voc, "seed {}: vocabulary", seed);
        prop_assert_eq!(&kb.abox, want_abox, "seed {}: abox", seed);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Transaction crash recovery: group-commit records and torn groups.
// ---------------------------------------------------------------------------

/// A torn tail *inside* a multi-transaction group-commit record drops
/// the whole group: the record's checksum covers all member deltas, so
/// recovery lands exactly on the last intact record — never on a half
/// group (which could split transactions that were acknowledged
/// together).
#[test]
fn torn_tail_inside_a_group_commit_record_drops_the_whole_group() {
    let dir = scratch("torn-group");
    let (voc, tbox, abox, _) = fixture();
    let phd = voc.find_concept("PhDStudent").unwrap();
    let works = voc.find_role("worksWith").unwrap();
    let damian = voc.find_individual("Damian").unwrap();
    let ioana = voc.find_individual("Ioana").unwrap();

    let mut store = DurableStore::create(&dir, &voc, &tbox, &abox, 0).unwrap();
    // One single-transaction record, then one three-transaction group.
    store
        .append(&AboxDelta::new().insert_concept(phd, ioana))
        .unwrap();
    let group = [
        AboxDelta::new().insert_role(works, damian, ioana),
        AboxDelta::new().delete_concept(phd, damian),
        AboxDelta {
            new_individuals: vec!["Garcia".into()],
            ..AboxDelta::new()
        },
    ];
    store.append_group(&group).unwrap();
    drop(store);

    let wal = dir.join("wal.bin");
    let intact_len = std::fs::metadata(&wal).unwrap().len();

    // Sanity: intact, all four transactions (1 + group of 3) replay.
    let (_, batches, tail) = store::wal::read_wal(&wal).unwrap();
    assert_eq!(tail, TailStatus::Clean);
    assert_eq!(batches.len(), 4, "groups flatten to their transactions");
    assert_eq!(recover(&dir).unwrap().generation, 4);

    // Chop anywhere inside the group record: even with the first member
    // delta's bytes fully present, the whole group must vanish.
    for chop in 1..=24u64 {
        store::wal::truncate_to(&wal, intact_len - chop).unwrap();
        let (_, batches, tail) = store::wal::read_wal(&wal).unwrap();
        assert_eq!(
            batches.len(),
            1,
            "chop {chop}: only the first record survives"
        );
        assert!(matches!(tail, TailStatus::Torn { .. }));
        let kb = recover(&dir).unwrap();
        assert_eq!(kb.generation, 1, "chop {chop}");
        assert!(kb.abox.has_concept(phd, ioana));
        assert!(!kb.abox.has_role(works, damian, ioana));
        assert!(kb.voc.find_individual("Garcia").is_none());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One buffered transaction operation, for the crash proptest below.
#[derive(Clone, Debug)]
enum TxnOp {
    Concept(obda::dllite::ConceptId, String, bool),
    Role(obda::dllite::RoleId, String, String, bool),
}

fn apply_txn_op(txn: &mut Txn<'_>, op: &TxnOp) {
    match op {
        TxnOp::Concept(c, name, present) => {
            let a = txn.individual(name);
            if *present {
                txn.insert_concept(*c, a);
            } else {
                txn.retract_concept(*c, a);
            }
        }
        TxnOp::Role(r, a_name, b_name, present) => {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash-anywhere recovery over *transactions*: interleaved writers
    /// with mixed commits, rollbacks and first-committer-wins losses,
    /// then a tear at a random byte offset — recovery must reproduce
    /// exactly the serial replay of the committed prefix whose records
    /// survived intact. Rolled-back and conflicted transactions never
    /// reach the log, so they can never reappear.
    #[test]
    fn txn_crash_recovery_replays_committed_prefix(
        seed in 0u64..1_000_000,
        chop in 0u64..96,
    ) {
        let dir = scratch(&format!("txn-prop-{seed}-{chop}"));
        let mut rng = Rng::new(seed);
        let shape = KbShape::default();
        let (mut voc, tbox) = random_tbox(&mut rng, &shape);
        let abox = random_abox(&mut rng, &mut voc, &shape);

        let srv = Server::create_durable(
            &dir,
            voc.clone(),
            tbox,
            &abox,
            ServerConfig { compact_every: 0, ..ServerConfig::default() },
        ).unwrap();

        // Random writer scripts over shared individuals + fresh names.
        let names: Vec<String> = (0..voc.num_individuals())
            .map(|i| voc.individual_name(obda::dllite::IndividualId(i as u32)).to_string())
            .collect();
        let writers = 2 + rng.below(2);
        let scripts: Vec<(Vec<TxnOp>, bool)> = (0..writers).map(|w| {
            let ops = (0..1 + rng.below(4)).map(|k| {
                let pick = |rng: &mut Rng, salt: usize| if rng.chance(0.3) {
                    format!("w{w}_new_{salt}")
                } else {
                    names[rng.below(names.len())].clone()
                };
                let present = rng.chance(0.7);
                if rng.chance(0.5) {
                    let c = obda::dllite::ConceptId(rng.below(voc.num_concepts()) as u32);
                    TxnOp::Concept(c, pick(&mut rng, k), present)
                } else {
                    let r = obda::dllite::RoleId(rng.below(voc.num_roles()) as u32);
                    let a = pick(&mut rng, k);
                    let b = pick(&mut rng, k + 50);
                    TxnOp::Role(r, a, b, present)
                }
            }).collect();
            (ops, rng.chance(0.75))
        }).collect();

        // Interleave ops, then finish each writer; track the model state
        // after every successful commit (the WAL-visible prefix states).
        let mut txns: Vec<Option<Txn<'_>>> = (0..writers).map(|_| Some(srv.begin())).collect();
        let mut cursor = vec![0usize; writers];
        let mut model_voc = voc;
        let mut model_abox = abox;
        let mut states = vec![(model_voc.clone(), model_abox.clone())];
        let total: usize = scripts.iter().map(|(ops, _)| ops.len() + 1).sum();
        for _ in 0..total {
            let alive: Vec<usize> = (0..writers)
                .filter(|&w| cursor[w] <= scripts[w].0.len())
                .collect();
            let w = alive[rng.below(alive.len())];
            if cursor[w] < scripts[w].0.len() {
                apply_txn_op(txns[w].as_mut().unwrap(), &scripts[w].0[cursor[w]]);
            } else {
                let txn = txns[w].take().unwrap();
                if scripts[w].1 {
                    let base = txn.snapshot().vocabulary().num_individuals();
                    let ws = txn.working_set().clone();
                    if txn.commit().is_ok() {
                        // Replay the commit on the model: intern the new
                        // names in allocation order, remap provisional
                        // ids, apply the flattened delta.
                        let finals: Vec<obda::dllite::IndividualId> = ws
                            .new_individuals()
                            .iter()
                            .map(|n| model_voc.individual(n))
                            .collect();
                        let delta = ws.delta_with(|id| {
                            if (id.0 as usize) >= base {
                                finals[id.0 as usize - base]
                            } else {
                                id
                            }
                        });
                        model_abox.apply(&delta);
                        states.push((model_voc.clone(), model_abox.clone()));
                    }
                } else {
                    txn.rollback();
                }
            }
            cursor[w] += 1;
        }
        drop(txns);
        drop(srv);

        // Tear the WAL `chop` bytes short and recover.
        let wal = dir.join("wal.bin");
        let header = 20u64;
        let len = std::fs::metadata(&wal).unwrap().len();
        let cut = len.saturating_sub(chop).max(header);
        store::wal::truncate_to(&wal, cut).unwrap();
        let (_, surviving, _) = store::wal::read_wal(&wal).unwrap();

        let kb = recover(&dir).unwrap();
        prop_assert!(surviving.len() < states.len(),
            "surviving transactions cannot exceed commits");
        let (want_voc, want_abox) = &states[surviving.len()];
        prop_assert_eq!(kb.generation, surviving.len() as u64);
        prop_assert_eq!(&kb.voc, want_voc, "seed {}: vocabulary", seed);
        prop_assert_eq!(&kb.abox, want_abox, "seed {}: abox", seed);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
