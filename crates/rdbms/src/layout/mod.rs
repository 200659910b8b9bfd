//! Storage layouts for the ABox.
//!
//! §6.1 evaluates three physical designs:
//!
//! * **simple** — one unary table per concept, one binary table per role,
//!   all one- and two-attribute indexes ([`simple::SimpleStorage`]);
//! * **triple** — a single `(pred, subj, obj)` table with predicate-first
//!   clustering (a common RDF-store baseline; an extra ablation here);
//! * **DPH/RPH** — the DB2RDF entity-oriented layout \[9\]: wide rows
//!   bundling a subject's predicates into hashed columns, plus the reverse
//!   table ([`dph::DphStorage`]).
//!
//! All layouts expose the same [`Storage`] access-path interface; they
//! differ in which operations are cheap, in how much work scans cost, and
//! in the SQL text they force (`crate::sql`).

pub mod dph;
pub mod posting;
pub mod simple;
pub mod triple;

use obda_dllite::{AboxDelta, ConceptId, RoleId};

use crate::meter::Meter;
use crate::stats::CatalogStats;

/// Number of values per column block in the vectorized execution
/// pipeline: scans, hash probes and distinct-projection all move data in
/// chunks of at most this many `u32`s (see `crate::columnar`).
pub const BATCH_SIZE: usize = 1024;

/// Which layout a storage implements (drives SQL generation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutKind {
    Simple,
    Triple,
    Dph,
}

impl LayoutKind {
    pub fn name(&self) -> &'static str {
        match self {
            LayoutKind::Simple => "simple",
            LayoutKind::Triple => "triple",
            LayoutKind::Dph => "rdf-dph",
        }
    }
}

/// Uniform access-path interface over the stored ABox.
///
/// Every access reports its work to the [`Meter`]; executors never touch
/// the data behind the meter's back, so measured work units are complete.
pub trait Storage: Send + Sync {
    fn layout(&self) -> LayoutKind;

    fn stats(&self) -> &CatalogStats;

    /// Scan all members of concept `c`.
    fn for_each_concept(&self, c: ConceptId, m: &mut Meter, f: &mut dyn FnMut(u32));

    /// Scan all pairs of role `r`.
    fn for_each_role(&self, r: RoleId, m: &mut Meter, f: &mut dyn FnMut(u32, u32));

    /// Scan all members of concept `c` in column blocks of at most
    /// [`BATCH_SIZE`] values. Same extent, order, and metering as
    /// [`Storage::for_each_concept`] (one logical scan for the whole
    /// extent, not one per block); layouts with columnar extents override
    /// this to hand out zero-copy slices.
    fn concept_blocks(&self, c: ConceptId, m: &mut Meter, f: &mut dyn FnMut(&[u32])) {
        let mut buf = Vec::new();
        self.for_each_concept(c, m, &mut |v| buf.push(v));
        for block in buf.chunks(BATCH_SIZE) {
            f(block);
        }
    }

    /// Scan all pairs of role `r` as parallel subject/object column
    /// blocks of at most [`BATCH_SIZE`] pairs. Same extent, order, and
    /// metering as [`Storage::for_each_role`].
    fn role_blocks(&self, r: RoleId, m: &mut Meter, f: &mut dyn FnMut(&[u32], &[u32])) {
        let (mut subs, mut objs) = (Vec::new(), Vec::new());
        self.for_each_role(r, m, &mut |s, o| {
            subs.push(s);
            objs.push(o);
        });
        for (bs, bo) in subs.chunks(BATCH_SIZE).zip(objs.chunks(BATCH_SIZE)) {
            f(bs, bo);
        }
    }

    /// Membership probe `c(v)`.
    fn probe_concept(&self, c: ConceptId, v: u32, m: &mut Meter) -> bool;

    /// Objects `o` with `r(s, o)`.
    fn role_objects(&self, r: RoleId, s: u32, m: &mut Meter, f: &mut dyn FnMut(u32));

    /// Subjects `s` with `r(s, o)`.
    fn role_subjects(&self, r: RoleId, o: u32, m: &mut Meter, f: &mut dyn FnMut(u32));

    /// Pair probe `r(s, o)`.
    fn probe_role(&self, r: RoleId, s: u32, o: u32, m: &mut Meter) -> bool;

    /// Maintain the stored tables, indexes and [`CatalogStats`] under one
    /// **effective** delta (the sub-delta [`obda_dllite::ABox::apply`]
    /// returns: inserts that were new w.r.t. the ABox this storage
    /// mirrors, deletes that hit). Insertions commit before deletions,
    /// matching the ABox batch semantics, so after the call the storage
    /// answers exactly as if reloaded from the mutated ABox.
    fn apply_delta(&mut self, delta: &AboxDelta);

    /// Clone the storage behind the trait object — the first step of
    /// the incremental apply path: the serving layer clones the current
    /// snapshot's storage, applies the delta to the clone, and publishes
    /// it as the next generation while readers keep the old one. The
    /// simple and triple layouts clone by bumping one pointer per
    /// predicate and copy a table when a delta first writes to it, so a
    /// generation costs what its delta touches; the entity layout has no
    /// per-predicate unit to share and copies its tables whole (see
    /// [`dph::DphStorage`]). Either way the original is never written
    /// through the clone.
    fn boxed_clone(&self) -> Box<dyn Storage>;
}

#[cfg(test)]
pub(crate) mod testutil {
    use obda_dllite::{ABox, Vocabulary};

    /// A tiny shared fixture: A = {i0, i1}, B = {i2},
    /// r = {(i0,i1), (i0,i2), (i3,i2)}, s = {(i1,i0)}.
    pub fn small_abox() -> (Vocabulary, ABox) {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let b = voc.concept("B");
        let r = voc.role("r");
        let s = voc.role("s");
        let i: Vec<_> = (0..4).map(|k| voc.individual(&format!("i{k}"))).collect();
        let mut abox = ABox::new();
        abox.assert_concept(a, i[0]);
        abox.assert_concept(a, i[1]);
        abox.assert_concept(b, i[2]);
        abox.assert_role(r, i[0], i[1]);
        abox.assert_role(r, i[0], i[2]);
        abox.assert_role(r, i[3], i[2]);
        abox.assert_role(s, i[1], i[0]);
        (voc, abox)
    }

    /// Exercise the full [`super::Storage`] contract on any layout.
    pub fn check_storage_contract(storage: &dyn super::Storage) {
        use crate::meter::Meter;
        use crate::profile::EngineProfile;
        let profile = EngineProfile::pg_like();
        let mut m = Meter::new(&profile);

        // Concept scan.
        let mut members = Vec::new();
        storage.for_each_concept(obda_dllite::ConceptId(0), &mut m, &mut |v| members.push(v));
        members.sort_unstable();
        assert_eq!(members, vec![0, 1], "A = {{i0, i1}}");

        // Role scan.
        let mut pairs = Vec::new();
        storage.for_each_role(obda_dllite::RoleId(0), &mut m, &mut |s, o| {
            pairs.push((s, o))
        });
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (3, 2)]);

        // Probes.
        assert!(storage.probe_concept(obda_dllite::ConceptId(0), 1, &mut m));
        assert!(!storage.probe_concept(obda_dllite::ConceptId(0), 2, &mut m));
        assert!(storage.probe_role(obda_dllite::RoleId(0), 0, 2, &mut m));
        assert!(!storage.probe_role(obda_dllite::RoleId(0), 2, 0, &mut m));

        // Bound-subject lookup.
        let mut objs = Vec::new();
        storage.role_objects(obda_dllite::RoleId(0), 0, &mut m, &mut |o| objs.push(o));
        objs.sort_unstable();
        assert_eq!(objs, vec![1, 2]);

        // Bound-object lookup.
        let mut subs = Vec::new();
        storage.role_subjects(obda_dllite::RoleId(0), 2, &mut m, &mut |s| subs.push(s));
        subs.sort_unstable();
        assert_eq!(subs, vec![0, 3]);

        // Missing predicates yield nothing.
        let mut none = Vec::new();
        storage.for_each_concept(obda_dllite::ConceptId(99), &mut m, &mut |v| none.push(v));
        storage.for_each_role(obda_dllite::RoleId(99), &mut m, &mut |a, _| none.push(a));
        assert!(none.is_empty());

        // Work was metered.
        assert!(m.metrics.work_units() > 0.0);

        // Block scans see the same extents in the same order as the
        // row-at-a-time scans, with identical metering (so the batched
        // executor's work units match the row executor's exactly).
        let mut rows_m = Meter::new(&profile);
        let mut blocks_m = Meter::new(&profile);
        let mut row_members = Vec::new();
        storage.for_each_concept(obda_dllite::ConceptId(0), &mut rows_m, &mut |v| {
            row_members.push(v)
        });
        let mut block_members = Vec::new();
        storage.concept_blocks(obda_dllite::ConceptId(0), &mut blocks_m, &mut |b| {
            block_members.extend_from_slice(b)
        });
        assert_eq!(row_members, block_members, "concept blocks == scan");
        let mut row_pairs = Vec::new();
        storage.for_each_role(obda_dllite::RoleId(0), &mut rows_m, &mut |s, o| {
            row_pairs.push((s, o))
        });
        let mut block_pairs = Vec::new();
        storage.role_blocks(obda_dllite::RoleId(0), &mut blocks_m, &mut |bs, bo| {
            assert!(bs.len() <= super::BATCH_SIZE && bs.len() == bo.len());
            block_pairs.extend(bs.iter().copied().zip(bo.iter().copied()))
        });
        assert_eq!(row_pairs, block_pairs, "role blocks == scan");
        assert_eq!(
            rows_m.metrics.scanned, blocks_m.metrics.scanned,
            "block scans meter exactly like row scans"
        );
        storage.concept_blocks(obda_dllite::ConceptId(99), &mut blocks_m, &mut |_| {
            panic!("missing concept must yield no blocks")
        });
        storage.role_blocks(obda_dllite::RoleId(99), &mut blocks_m, &mut |_, _| {
            panic!("missing role must yield no blocks")
        });
    }

    /// Observable-state equality of two storages over a vocabulary-wide
    /// probe sweep: every concept extension, role extension, bound-side
    /// lookup, and the full catalog statistics.
    pub fn assert_same_contents(
        a: &dyn super::Storage,
        b: &dyn super::Storage,
        voc: &Vocabulary,
        context: &str,
    ) {
        use crate::meter::Meter;
        use crate::profile::EngineProfile;
        let profile = EngineProfile::pg_like();
        let mut m = Meter::new(&profile);
        for c in voc.concept_ids() {
            let collect = |s: &dyn super::Storage, m: &mut Meter| {
                let mut v = Vec::new();
                s.for_each_concept(c, m, &mut |i| v.push(i));
                v.sort_unstable();
                v
            };
            assert_eq!(
                collect(a, &mut m),
                collect(b, &mut m),
                "{context}: concept {c:?} extension"
            );
        }
        for r in voc.role_ids() {
            let collect = |s: &dyn super::Storage, m: &mut Meter| {
                let mut v = Vec::new();
                s.for_each_role(r, m, &mut |x, y| v.push((x, y)));
                v.sort_unstable();
                v
            };
            let pairs = collect(a, &mut m);
            assert_eq!(pairs, collect(b, &mut m), "{context}: role {r:?} extension");
            for &(s, o) in &pairs {
                assert!(a.probe_role(r, s, o, &mut m), "{context}: pair probe");
                let mut objs_a = Vec::new();
                a.role_objects(r, s, &mut m, &mut |v| objs_a.push(v));
                let mut objs_b = Vec::new();
                b.role_objects(r, s, &mut m, &mut |v| objs_b.push(v));
                objs_a.sort_unstable();
                objs_b.sort_unstable();
                assert_eq!(objs_a, objs_b, "{context}: objects of {r:?}({s}, _)");
                let mut subs_a = Vec::new();
                a.role_subjects(r, o, &mut m, &mut |v| subs_a.push(v));
                let mut subs_b = Vec::new();
                b.role_subjects(r, o, &mut m, &mut |v| subs_b.push(v));
                subs_a.sort_unstable();
                subs_b.sort_unstable();
                assert_eq!(subs_a, subs_b, "{context}: subjects of {r:?}(_, {o})");
            }
        }
        assert_eq!(a.stats(), b.stats(), "{context}: catalog statistics");
    }

    /// Everything a reader can observe of a storage, order included:
    /// scan order of every extent, every bound-side lookup and pair
    /// probe along it, membership probes over every individual, and the
    /// catalog. Two dumps of one storage taken at different times are
    /// equal iff nothing a reader pinned to it could see has moved.
    #[derive(Debug, PartialEq)]
    pub struct Observed {
        /// Per concept: its scan, and `probe_concept` of every individual.
        concepts: Vec<(Vec<u32>, Vec<bool>)>,
        /// Per role: its scan, each pair with its lookups.
        roles: Vec<Vec<ObservedPair>>,
        stats: crate::stats::CatalogStats,
    }

    #[derive(Debug, PartialEq)]
    struct ObservedPair {
        pair: (u32, u32),
        objects_of_subject: Vec<u32>,
        subjects_of_object: Vec<u32>,
        probe: bool,
    }

    pub fn observe(storage: &dyn super::Storage, voc: &Vocabulary) -> Observed {
        use crate::meter::Meter;
        use crate::profile::EngineProfile;
        let profile = EngineProfile::pg_like();
        let m = &mut Meter::new(&profile);
        let concepts = voc
            .concept_ids()
            .map(|c| {
                let mut rows = Vec::new();
                storage.for_each_concept(c, m, &mut |i| rows.push(i));
                let probes = voc
                    .individual_ids()
                    .map(|i| storage.probe_concept(c, i.0, m))
                    .collect();
                (rows, probes)
            })
            .collect();
        let roles = voc
            .role_ids()
            .map(|r| {
                let mut pairs = Vec::new();
                storage.for_each_role(r, m, &mut |s, o| pairs.push((s, o)));
                pairs
                    .into_iter()
                    .map(|(s, o)| {
                        let (mut objs, mut subs) = (Vec::new(), Vec::new());
                        storage.role_objects(r, s, m, &mut |v| objs.push(v));
                        storage.role_subjects(r, o, m, &mut |v| subs.push(v));
                        ObservedPair {
                            pair: (s, o),
                            objects_of_subject: objs,
                            subjects_of_object: subs,
                            probe: storage.probe_role(r, s, o, m),
                        }
                    })
                    .collect()
            })
            .collect();
        Observed {
            concepts,
            roles,
            stats: storage.stats().clone(),
        }
    }

    /// The incremental-maintenance contract shared by every layout, run
    /// the way the serving layer runs it — each generation is a
    /// [`super::Storage::boxed_clone`] of the last with a delta applied:
    /// the new generation is observably identical to a storage freshly
    /// loaded from the mutated ABox — inserts (including into brand-new
    /// tables), deletes (including emptying a table), and the statistics
    /// — and every earlier generation still reads exactly as it did
    /// before its successors were written.
    pub fn check_incremental_matches_reload(
        make: impl Fn(&obda_dllite::ABox) -> Box<dyn super::Storage>,
    ) {
        use obda_dllite::AboxDelta;
        let (mut voc, mut abox) = small_abox();
        let a = voc.find_concept("A").unwrap();
        let b = voc.find_concept("B").unwrap();
        let c_new = voc.concept("CNew"); // table that does not exist yet
        let r = voc.find_role("r").unwrap();
        let s = voc.find_role("s").unwrap();
        let i: Vec<_> = (0..4)
            .map(|k| voc.find_individual(&format!("i{k}")).unwrap())
            .collect();
        let i4 = voc.individual("i4");

        let gen0 = make(&abox);
        let gen0_was = observe(gen0.as_ref(), &voc);
        let mut gen1 = gen0.boxed_clone();
        let delta = AboxDelta::new()
            .insert_concept(c_new, i4)
            .insert_concept(a, i[2])
            .insert_concept(a, i[0]) // duplicate: ineffective
            .insert_role(r, i4, i[0])
            .insert_role(s, i[1], i[0]) // duplicate: ineffective
            .delete_concept(b, i[2]) // empties concept B
            .delete_role(r, i[0], i[1])
            .delete_role(s, i[1], i[0]) // empties role s
            .delete_role(r, i[2], i[2]); // miss: ineffective
        let eff = abox.apply(&delta);
        gen1.apply_delta(&eff);
        let reloaded = make(&abox);
        assert_same_contents(gen1.as_ref(), reloaded.as_ref(), &voc, "after delta");
        assert_eq!(
            observe(gen0.as_ref(), &voc),
            gen0_was,
            "pinned generation 0"
        );
        let gen1_was = observe(gen1.as_ref(), &voc);

        // A second wave on the already-mutated storage (covers spill /
        // posting-list paths that only show up on non-fresh tables).
        let delta2 = AboxDelta::new()
            .insert_role(r, i4, i[1])
            .insert_role(r, i4, i[2])
            .delete_concept(c_new, i4) // empties the table created above
            .delete_role(r, i4, i[0]);
        let mut gen2 = gen1.boxed_clone();
        let eff2 = abox.apply(&delta2);
        gen2.apply_delta(&eff2);
        let reloaded2 = make(&abox);
        assert_same_contents(gen2.as_ref(), reloaded2.as_ref(), &voc, "after delta 2");
        assert_eq!(
            observe(gen0.as_ref(), &voc),
            gen0_was,
            "pinned generation 0"
        );
        assert_eq!(
            observe(gen1.as_ref(), &voc),
            gen1_was,
            "pinned generation 1"
        );
    }
}

#[cfg(test)]
mod tests {
    use obda_dllite::ABox;
    use obda_query::testkit::{random_abox, random_delta, random_tbox, KbShape, Rng};
    use proptest::prelude::*;

    use super::dph::DphStorage;
    use super::simple::SimpleStorage;
    use super::testutil::{assert_same_contents, observe};
    use super::triple::TripleStorage;
    use super::Storage;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Isolation survives sharing: over a random chain of deltas,
        /// each generation cloned from the last, the newest generation
        /// equals a fresh load (rows, lookups, counter-exact catalog)
        /// and every retired generation still reads, bit for bit, as it
        /// did when it was current — on all three layouts.
        #[test]
        fn pinned_generations_never_move(seed in 0u64..1_000_000) {
            let mut rng = Rng::new(seed);
            let shape = KbShape::default();
            let (mut voc0, _) = random_tbox(&mut rng, &shape);
            let abox0 = random_abox(&mut rng, &mut voc0, &shape);
            type Load = fn(&ABox) -> Box<dyn Storage>;
            let loaders: [Load; 3] = [
                |a| Box::new(SimpleStorage::load(a)),
                |a| Box::new(TripleStorage::load(a)),
                |a| Box::new(DphStorage::load(a)),
            ];
            for load in loaders {
                // The same chain of deltas for every layout.
                let mut rng = Rng::new(seed + 1);
                let (mut voc, mut abox) = (voc0.clone(), abox0.clone());
                let mut generations = vec![load(&abox)];
                for step in 0..4 {
                    let delta = random_delta(&mut rng, &voc, &abox, 6, step);
                    for name in &delta.new_individuals {
                        voc.individual(name);
                    }
                    let effective = abox.apply(&delta);
                    let pinned: Vec<_> = generations
                        .iter()
                        .map(|g| observe(g.as_ref(), &voc))
                        .collect();
                    let mut next = generations[step].boxed_clone();
                    next.apply_delta(&effective);
                    let context = format!("seed {seed} step {step}");
                    assert_same_contents(next.as_ref(), load(&abox).as_ref(), &voc, &context);
                    for (g, was) in generations.iter().zip(&pinned) {
                        prop_assert_eq!(&observe(g.as_ref(), &voc), was, "{}", context);
                    }
                    generations.push(next);
                }
            }
        }
    }
}
