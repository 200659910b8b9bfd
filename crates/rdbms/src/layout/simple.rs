//! The *simple layout*: a unary table per concept, a binary table per
//! role, with all one- and two-attribute indexes (§6.1). Facts are
//! dictionary-encoded `u32`s (the `Vocabulary` is the dictionary).

use std::sync::Arc;

use obda_dllite::{ABox, AboxDelta, ConceptId, RoleId};

use crate::fxhash::FxHashMap;
use crate::layout::posting::{push_posting, remove_posting, Posting};
use crate::layout::{LayoutKind, Storage, BATCH_SIZE};
use crate::meter::{tk_concept, tk_role, Meter};
use crate::stats::{share_values, CatalogStats};

/// A unary (concept) table: member vector plus membership index. The
/// index stores each member's row position, making deletion O(1)
/// (`swap_remove` + one fix-up) — deletions run inside the serving
/// layer's writer critical section, where a per-fact table scan would
/// stall concurrent writes.
#[derive(Debug, Default, Clone)]
struct UnaryTable {
    rows: Vec<u32>,
    index: FxHashMap<u32, u32>,
}

impl UnaryTable {
    fn insert(&mut self, i: u32) {
        if let std::collections::hash_map::Entry::Vacant(e) = self.index.entry(i) {
            e.insert(self.rows.len() as u32);
            self.rows.push(i);
        }
    }

    fn delete(&mut self, i: u32) {
        if let Some(pos) = self.index.remove(&i) {
            self.rows.swap_remove(pos as usize);
            if let Some(&moved) = self.rows.get(pos as usize) {
                self.index.insert(moved, pos);
            }
        }
    }
}

/// Object column value of a row that has no object: the triple layout
/// keeps a concept's members in a [`BinaryTable`] as `(member,
/// NO_OBJECT)`. Never a dictionary id (those are dense from 0).
pub(super) const NO_OBJECT: u32 = u32::MAX;

/// A binary (role) table: parallel subject/object column vectors plus
/// hash indexes on each attribute and on the pair. The columnar split
/// (rather than a `Vec<(u32, u32)>` row vector) lets block scans hand
/// zero-copy `&[u32]` slices to the vectorized executor. Posting lists
/// inline small fan-outs ([`Posting`]) so the copy a delta's first write
/// to the table pays stays a near-memcpy, and the pair index stores row
/// positions so deletion is O(1) like [`UnaryTable`]'s. [`NO_OBJECT`]
/// is not indexed by object — it would be one posting as long as the
/// table.
#[derive(Debug, Default, Clone)]
pub(super) struct BinaryTable {
    pub(super) subs: Vec<u32>,
    pub(super) objs: Vec<u32>,
    pub(super) by_subject: FxHashMap<u32, Posting>,
    pub(super) by_object: FxHashMap<u32, Posting>,
    pub(super) pairs: FxHashMap<(u32, u32), u32>,
}

impl BinaryTable {
    pub(super) fn len(&self) -> usize {
        self.subs.len()
    }

    pub(super) fn insert(&mut self, a: u32, b: u32) {
        if let std::collections::hash_map::Entry::Vacant(e) = self.pairs.entry((a, b)) {
            e.insert(self.subs.len() as u32);
            self.subs.push(a);
            self.objs.push(b);
            push_posting(&mut self.by_subject, a, b);
            if b != NO_OBJECT {
                push_posting(&mut self.by_object, b, a);
            }
        }
    }

    pub(super) fn delete(&mut self, a: u32, b: u32) {
        if let Some(pos) = self.pairs.remove(&(a, b)) {
            self.subs.swap_remove(pos as usize);
            self.objs.swap_remove(pos as usize);
            if let Some(&s) = self.subs.get(pos as usize) {
                let o = self.objs[pos as usize];
                self.pairs.insert((s, o), pos);
            }
            remove_posting(&mut self.by_subject, &a, b);
            if b != NO_OBJECT {
                remove_posting(&mut self.by_object, &b, a);
            }
        }
    }
}

/// Simple-layout storage. Each table sits behind its own `Arc`: a clone
/// is one pointer bump per predicate, and [`Storage::apply_delta`]
/// copies a table the first time it writes to it
/// ([`Arc::make_mut`]), so a generation shares with its predecessor
/// every table the delta between them did not name.
#[derive(Clone)]
pub struct SimpleStorage {
    concepts: FxHashMap<u32, Arc<UnaryTable>>,
    roles: FxHashMap<u32, Arc<BinaryTable>>,
    stats: CatalogStats,
}

impl SimpleStorage {
    pub fn load(abox: &ABox) -> Self {
        let mut concepts: FxHashMap<u32, UnaryTable> = FxHashMap::default();
        for &(c, i) in abox.concept_assertions() {
            concepts.entry(c.0).or_default().insert(i.0);
        }
        let mut roles: FxHashMap<u32, BinaryTable> = FxHashMap::default();
        for &(r, a, b) in abox.role_assertions() {
            roles.entry(r.0).or_default().insert(a.0, b.0);
        }
        SimpleStorage {
            concepts: share_values(concepts),
            roles: share_values(roles),
            stats: CatalogStats::from_abox(abox),
        }
    }
}

impl Storage for SimpleStorage {
    fn layout(&self) -> LayoutKind {
        LayoutKind::Simple
    }

    fn stats(&self) -> &CatalogStats {
        &self.stats
    }

    fn for_each_concept(&self, c: ConceptId, m: &mut Meter, f: &mut dyn FnMut(u32)) {
        if let Some(t) = self.concepts.get(&c.0) {
            m.on_scan(tk_concept(c.0), t.rows.len() as u64);
            for &v in &t.rows {
                f(v);
            }
        }
    }

    fn for_each_role(&self, r: RoleId, m: &mut Meter, f: &mut dyn FnMut(u32, u32)) {
        if let Some(t) = self.roles.get(&r.0) {
            m.on_scan(tk_role(r.0), t.len() as u64);
            for (&a, &b) in t.subs.iter().zip(&t.objs) {
                f(a, b);
            }
        }
    }

    fn concept_blocks(&self, c: ConceptId, m: &mut Meter, f: &mut dyn FnMut(&[u32])) {
        if let Some(t) = self.concepts.get(&c.0) {
            m.on_scan(tk_concept(c.0), t.rows.len() as u64);
            for block in t.rows.chunks(BATCH_SIZE) {
                f(block);
            }
        }
    }

    fn role_blocks(&self, r: RoleId, m: &mut Meter, f: &mut dyn FnMut(&[u32], &[u32])) {
        if let Some(t) = self.roles.get(&r.0) {
            m.on_scan(tk_role(r.0), t.len() as u64);
            for (bs, bo) in t.subs.chunks(BATCH_SIZE).zip(t.objs.chunks(BATCH_SIZE)) {
                f(bs, bo);
            }
        }
    }

    fn probe_concept(&self, c: ConceptId, v: u32, m: &mut Meter) -> bool {
        m.on_probe(1);
        self.concepts
            .get(&c.0)
            .is_some_and(|t| t.index.contains_key(&v))
    }

    fn role_objects(&self, r: RoleId, s: u32, m: &mut Meter, f: &mut dyn FnMut(u32)) {
        if let Some(t) = self.roles.get(&r.0) {
            if let Some(objs) = t.by_subject.get(&s) {
                m.on_probe(objs.len() as u64);
                for &o in objs.slice() {
                    f(o);
                }
                return;
            }
        }
        m.on_probe(0);
    }

    fn role_subjects(&self, r: RoleId, o: u32, m: &mut Meter, f: &mut dyn FnMut(u32)) {
        if let Some(t) = self.roles.get(&r.0) {
            if let Some(subs) = t.by_object.get(&o) {
                m.on_probe(subs.len() as u64);
                for &s in subs.slice() {
                    f(s);
                }
                return;
            }
        }
        m.on_probe(0);
    }

    fn probe_role(&self, r: RoleId, s: u32, o: u32, m: &mut Meter) -> bool {
        m.on_probe(1);
        self.roles
            .get(&r.0)
            .is_some_and(|t| t.pairs.contains_key(&(s, o)))
    }

    fn apply_delta(&mut self, delta: &AboxDelta) {
        for &(c, i) in &delta.insert_concepts {
            Arc::make_mut(self.concepts.entry(c.0).or_default()).insert(i.0);
        }
        for &(r, a, b) in &delta.insert_roles {
            Arc::make_mut(self.roles.entry(r.0).or_default()).insert(a.0, b.0);
        }
        for &(c, i) in &delta.delete_concepts {
            if let Some(t) = self.concepts.get_mut(&c.0) {
                let t = Arc::make_mut(t);
                t.delete(i.0);
                if t.rows.is_empty() {
                    self.concepts.remove(&c.0);
                }
            }
        }
        for &(r, a, b) in &delta.delete_roles {
            if let Some(t) = self.roles.get_mut(&r.0) {
                let t = Arc::make_mut(t);
                t.delete(a.0, b.0);
                if t.subs.is_empty() {
                    self.roles.remove(&r.0);
                }
            }
        }
        self.stats.apply_delta(delta);
    }

    fn boxed_clone(&self) -> Box<dyn Storage> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::testutil::{check_storage_contract, small_abox};

    #[test]
    fn contract() {
        let (_, abox) = small_abox();
        let storage = SimpleStorage::load(&abox);
        check_storage_contract(&storage);
        assert_eq!(storage.layout(), LayoutKind::Simple);
    }

    #[test]
    fn duplicate_assertions_deduplicate() {
        let (voc, _) = small_abox();
        let a = voc.find_concept("A").unwrap();
        let i0 = voc.find_individual("i0").unwrap();
        let mut abox = ABox::new();
        abox.assert_concept(a, i0);
        abox.assert_concept(a, i0);
        let storage = SimpleStorage::load(&abox);
        assert_eq!(storage.stats().concept_card(a.0), 1);
    }

    #[test]
    fn stats_match_content() {
        let (voc, abox) = small_abox();
        let storage = SimpleStorage::load(&abox);
        let r = voc.find_role("r").unwrap();
        assert_eq!(storage.stats().role_card(r.0), 3);
        assert_eq!(storage.stats().role_distinct_subjects(r.0), 2);
    }

    #[test]
    fn incremental_apply_matches_fresh_load() {
        crate::layout::testutil::check_incremental_matches_reload(|abox| {
            Box::new(SimpleStorage::load(abox))
        });
    }

    #[test]
    fn a_delta_copies_exactly_the_tables_it_writes() {
        let (voc, mut abox) = small_abox();
        let (a, b) = (
            voc.find_concept("A").unwrap(),
            voc.find_concept("B").unwrap(),
        );
        let (r, s) = (voc.find_role("r").unwrap(), voc.find_role("s").unwrap());
        let i3 = voc.find_individual("i3").unwrap();
        let base = SimpleStorage::load(&abox);
        let mut next = base.clone();
        let delta = AboxDelta::new()
            .insert_concept(a, i3)
            .delete_role(s, voc.find_individual("i1").unwrap(), i3) // a miss: not effective
            .insert_role(r, i3, i3);
        next.apply_delta(&abox.apply(&delta));
        // Written: concept A and role r. Everything else is the same
        // allocation in both generations.
        assert!(!Arc::ptr_eq(&base.concepts[&a.0], &next.concepts[&a.0]));
        assert!(Arc::ptr_eq(&base.concepts[&b.0], &next.concepts[&b.0]));
        assert!(!Arc::ptr_eq(&base.roles[&r.0], &next.roles[&r.0]));
        assert!(Arc::ptr_eq(&base.roles[&s.0], &next.roles[&s.0]));
        assert_eq!(
            base.concepts[&a.0].rows.len(),
            2,
            "the original kept its rows"
        );
        assert_eq!(next.concepts[&a.0].rows.len(), 3);
    }
}
