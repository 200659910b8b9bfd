//! The *triple layout*: a single `(pred, subj, obj)` table clustered by
//! predicate, with `(pred, subj)` and `(pred, obj)` hash indexes.
//!
//! A common RDF-store physical design; included as an ablation between the
//! simple layout (per-predicate tables) and the DPH entity layout. Scans
//! touch wider rows than the simple layout (the predicate column rides
//! along), modeled as a per-tuple width factor.
//!
//! Physically the predicate clustering is represented as one cluster
//! per predicate code — the in-memory image of a predicate-clustered
//! B-tree with its `(pred, subj)` and `(pred, obj)` index ranges: a
//! predicate scan touches exactly its cluster's rows, and an insert
//! lands at the end of its predicate's cluster instead of rewriting a
//! global sorted vector. That makes incremental maintenance
//! ([`Storage::apply_delta`]) O(1) per inserted or deleted triple, while
//! the metering (`WIDTH_FACTOR` per scanned tuple, per-row probe counts)
//! is unchanged from the sorted representation it replaces. A cluster is
//! the simple layout's `BinaryTable` (a concept's rows carry
//! `NO_OBJECT`), each behind its own `Arc`, so a clone is a pointer
//! bump per predicate and a delta copies only the clusters it writes.

use std::sync::Arc;

use obda_dllite::{ABox, AboxDelta, ConceptId, RoleId};

use crate::fxhash::FxHashMap;
use crate::layout::simple::{BinaryTable, NO_OBJECT};
use crate::layout::{LayoutKind, Storage, BATCH_SIZE};
use crate::meter::{Meter, TK_TRIPLES};
use crate::stats::{share_values, CatalogStats};

/// Predicate code disambiguating concepts from roles in the shared table.
fn code_concept(c: u32) -> u32 {
    c << 1
}

fn code_role(r: u32) -> u32 {
    (r << 1) | 1
}

/// Extra scan cost per tuple relative to the simple layout (wider rows,
/// predicate column).
const WIDTH_FACTOR: f64 = 1.5;

/// Triple-table storage.
#[derive(Clone)]
pub struct TripleStorage {
    /// Predicate code → its cluster of `(s, o)` rows with their indexes.
    /// The ABox guarantees row uniqueness.
    clusters: FxHashMap<u32, Arc<BinaryTable>>,
    stats: CatalogStats,
}

impl TripleStorage {
    pub fn load(abox: &ABox) -> Self {
        let mut clusters: FxHashMap<u32, BinaryTable> = FxHashMap::default();
        for &(c, i) in abox.concept_assertions() {
            let cluster = clusters.entry(code_concept(c.0)).or_default();
            cluster.insert(i.0, NO_OBJECT);
        }
        for &(r, a, b) in abox.role_assertions() {
            clusters.entry(code_role(r.0)).or_default().insert(a.0, b.0);
        }
        TripleStorage {
            clusters: share_values(clusters),
            stats: CatalogStats::from_abox(abox),
        }
    }

    fn insert_triple(&mut self, code: u32, s: u32, o: u32) {
        Arc::make_mut(self.clusters.entry(code).or_default()).insert(s, o);
    }

    fn delete_triple(&mut self, code: u32, s: u32, o: u32) {
        if let Some(cluster) = self.clusters.get_mut(&code) {
            let cluster = Arc::make_mut(cluster);
            cluster.delete(s, o);
            if cluster.subs.is_empty() {
                self.clusters.remove(&code);
            }
        }
    }

    fn cluster(&self, code: u32) -> Option<&BinaryTable> {
        self.clusters.get(&code).map(|c| &**c)
    }

    /// Width-factor metering for one full cluster scan — a single
    /// [`Meter::on_scan`] for the whole logical scan regardless of how
    /// many blocks it is delivered in, so batched and row execution
    /// meter identically.
    fn meter_cluster_scan(m: &mut Meter, len: usize) {
        m.on_scan(TK_TRIPLES, (len as f64 * WIDTH_FACTOR) as u64);
    }
}

impl Storage for TripleStorage {
    fn layout(&self) -> LayoutKind {
        LayoutKind::Triple
    }

    fn stats(&self) -> &CatalogStats {
        &self.stats
    }

    fn for_each_concept(&self, c: ConceptId, m: &mut Meter, f: &mut dyn FnMut(u32)) {
        let cluster = self.cluster(code_concept(c.0));
        Self::meter_cluster_scan(m, cluster.map_or(0, BinaryTable::len));
        if let Some(cluster) = cluster {
            for &s in &cluster.subs {
                f(s);
            }
        }
    }

    fn for_each_role(&self, r: RoleId, m: &mut Meter, f: &mut dyn FnMut(u32, u32)) {
        let cluster = self.cluster(code_role(r.0));
        Self::meter_cluster_scan(m, cluster.map_or(0, BinaryTable::len));
        if let Some(cluster) = cluster {
            for (&s, &o) in cluster.subs.iter().zip(&cluster.objs) {
                f(s, o);
            }
        }
    }

    fn concept_blocks(&self, c: ConceptId, m: &mut Meter, f: &mut dyn FnMut(&[u32])) {
        let cluster = self.cluster(code_concept(c.0));
        Self::meter_cluster_scan(m, cluster.map_or(0, BinaryTable::len));
        if let Some(cluster) = cluster {
            for block in cluster.subs.chunks(BATCH_SIZE) {
                f(block);
            }
        }
    }

    fn role_blocks(&self, r: RoleId, m: &mut Meter, f: &mut dyn FnMut(&[u32], &[u32])) {
        let cluster = self.cluster(code_role(r.0));
        Self::meter_cluster_scan(m, cluster.map_or(0, BinaryTable::len));
        if let Some(cluster) = cluster {
            for (bs, bo) in cluster
                .subs
                .chunks(BATCH_SIZE)
                .zip(cluster.objs.chunks(BATCH_SIZE))
            {
                f(bs, bo);
            }
        }
    }

    fn probe_concept(&self, c: ConceptId, v: u32, m: &mut Meter) -> bool {
        m.on_probe(1);
        self.cluster(code_concept(c.0))
            .is_some_and(|t| t.by_subject.contains_key(&v))
    }

    fn role_objects(&self, r: RoleId, s: u32, m: &mut Meter, f: &mut dyn FnMut(u32)) {
        match self
            .cluster(code_role(r.0))
            .and_then(|t| t.by_subject.get(&s))
        {
            Some(objs) => {
                m.on_probe(objs.len() as u64);
                for &o in objs.slice() {
                    f(o);
                }
            }
            None => m.on_probe(0),
        }
    }

    fn role_subjects(&self, r: RoleId, o: u32, m: &mut Meter, f: &mut dyn FnMut(u32)) {
        match self
            .cluster(code_role(r.0))
            .and_then(|t| t.by_object.get(&o))
        {
            Some(subs) => {
                m.on_probe(subs.len() as u64);
                for &s in subs.slice() {
                    f(s);
                }
            }
            None => m.on_probe(0),
        }
    }

    fn probe_role(&self, r: RoleId, s: u32, o: u32, m: &mut Meter) -> bool {
        m.on_probe(1);
        self.cluster(code_role(r.0))
            .is_some_and(|t| t.pairs.contains_key(&(s, o)))
    }

    fn apply_delta(&mut self, delta: &AboxDelta) {
        for &(c, i) in &delta.insert_concepts {
            self.insert_triple(code_concept(c.0), i.0, NO_OBJECT);
        }
        for &(r, a, b) in &delta.insert_roles {
            self.insert_triple(code_role(r.0), a.0, b.0);
        }
        for &(c, i) in &delta.delete_concepts {
            self.delete_triple(code_concept(c.0), i.0, NO_OBJECT);
        }
        for &(r, a, b) in &delta.delete_roles {
            self.delete_triple(code_role(r.0), a.0, b.0);
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
    use crate::profile::EngineProfile;

    #[test]
    fn contract() {
        let (_, abox) = small_abox();
        let storage = TripleStorage::load(&abox);
        check_storage_contract(&storage);
        assert_eq!(storage.layout(), LayoutKind::Triple);
    }

    #[test]
    fn scans_cost_more_than_simple_layout() {
        let (voc, abox) = small_abox();
        let triple = TripleStorage::load(&abox);
        let simple = crate::layout::simple::SimpleStorage::load(&abox);
        let profile = EngineProfile::pg_like();
        let r = voc.find_role("r").unwrap();

        let mut mt = Meter::new(&profile);
        triple.for_each_role(r, &mut mt, &mut |_, _| {});
        let mut ms = Meter::new(&profile);
        simple.for_each_role(r, &mut ms, &mut |_, _| {});
        assert!(mt.metrics.scanned > ms.metrics.scanned);
    }

    #[test]
    fn concept_and_role_codes_do_not_collide() {
        // Concept 1 and role 0 / role 1 must live in distinct extents.
        assert_ne!(code_concept(1), code_role(0));
        assert_ne!(code_concept(1), code_role(1));
        assert_ne!(code_concept(0), code_role(0));
    }

    #[test]
    fn incremental_apply_matches_fresh_load() {
        crate::layout::testutil::check_incremental_matches_reload(|abox| {
            Box::new(TripleStorage::load(abox))
        });
    }

    #[test]
    fn delete_shrinks_the_metered_extent() {
        let (voc, mut abox) = small_abox();
        let r = voc.find_role("r").unwrap();
        let mut storage = TripleStorage::load(&abox);
        let pairs: Vec<_> = abox.role_pairs(r).collect();
        let mut delta = obda_dllite::AboxDelta::new();
        for &(s, o) in &pairs {
            delta.delete_roles.push((r, s, o));
        }
        let eff = abox.apply(&delta);
        storage.apply_delta(&eff);
        let profile = EngineProfile::pg_like();
        let mut m = Meter::new(&profile);
        let mut n = 0;
        storage.for_each_role(r, &mut m, &mut |_, _| n += 1);
        assert_eq!(n, 0);
        assert_eq!(m.metrics.scanned, 0.0, "empty extent scans zero tuples");
    }

    #[test]
    fn a_delta_copies_exactly_the_clusters_it_writes() {
        let (voc, mut abox) = small_abox();
        let (a, r) = (voc.find_concept("A").unwrap(), voc.find_role("r").unwrap());
        let i3 = voc.find_individual("i3").unwrap();
        let base = TripleStorage::load(&abox);
        let mut next = base.clone();
        let delta = AboxDelta::new()
            .insert_concept(a, i3)
            .insert_role(r, i3, i3);
        next.apply_delta(&abox.apply(&delta));
        let written = [code_concept(a.0), code_role(r.0)];
        assert_eq!(base.clusters.len(), 4, "A, B, r, s");
        for (code, cluster) in &base.clusters {
            assert_eq!(
                Arc::ptr_eq(cluster, &next.clusters[code]),
                !written.contains(code),
                "cluster {code} shared iff the delta did not write it"
            );
        }
    }
}
