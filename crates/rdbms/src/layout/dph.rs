//! The DB2RDF-like entity layout \[9\]: DPH (direct primary hash) and RPH
//! (reverse primary hash) tables.
//!
//! Each DPH row bundles one subject's `(predicate, value)` entries into
//! `k` hashed column pairs; a subject with more predicates (or repeated
//! predicates — multi-valued) *spills* into additional rows. The RPH table
//! mirrors the structure keyed by object. The design shines for
//! entity-centric lookups (bound subject → one hashed row fetch) and is
//! poor for predicate-extension scans — every scan walks the whole wide
//! table. §6.3 finds it "not the best alternative when evaluating queries
//! issued from reformulation against an ontology"; this module reproduces
//! both effects, and `crate::sql` reproduces the statement-size blowup of
//! its SQL (per-atom CASE over candidate columns).

use obda_dllite::{ABox, AboxDelta, ConceptId, RoleId};

use crate::fxhash::FxHashMap;
use crate::layout::{LayoutKind, Storage, BATCH_SIZE};
use crate::meter::{Meter, TK_DPH, TK_RPH};
use crate::stats::CatalogStats;

/// Number of (pred, val) column pairs per row — DB2RDF determines this
/// from the data; we fix a typical value.
pub const DPH_COLUMNS: usize = 8;

/// Predicate code: concepts and roles share the column space.
fn code_concept(c: u32) -> u32 {
    c << 1
}

fn code_role(r: u32) -> u32 {
    (r << 1) | 1
}

/// Marker value for concept membership entries (DB2RDF stores the type
/// predicate like any other).
const TYPE_MARKER: u32 = u32::MAX;

/// One wide row: key plus up to [`DPH_COLUMNS`] (pred, val) entries.
#[derive(Debug, Clone)]
struct WideRow {
    key: u32,
    entries: Vec<(u32, u32)>, // (pred code, value)
}

/// Repack trigger: a table is rebuilt once tombstones outnumber live
/// rows **and** there are at least this many of them. The floor keeps
/// tiny tables (where a handful of tombstones is harmless and a rebuild
/// churns the copy-on-write clone for nothing) on the cheap path.
const REPACK_MIN_DEAD: usize = 8;

/// One side of the entity layout (DPH keyed by subject, RPH by object):
/// the wide-row vector plus the key → row-indices index.
#[derive(Debug, Clone, Default)]
struct WideTable {
    rows: Vec<WideRow>,
    by_key: FxHashMap<u32, Vec<u32>>,
    /// Tombstone count: rows whose entries were all deleted. Maintained
    /// incrementally so the repack check is O(1) per `apply_delta`.
    dead: u32,
}

impl WideTable {
    /// Incremental insert: append the entry to the key's last row if a
    /// column pair is free, else spill into a fresh row at the end of the
    /// table — the same placement DB2RDF performs on a live table (a
    /// fresh bulk load may pack the same data into fewer rows; compaction
    /// restores the packed form).
    fn insert(&mut self, key: u32, entry: (u32, u32)) {
        let indices = self.by_key.entry(key).or_default();
        if let Some(&last) = indices.last() {
            let row = &mut self.rows[last as usize];
            if row.entries.len() < DPH_COLUMNS {
                if row.entries.is_empty() {
                    // Reusing a tombstone revives it.
                    self.dead -= 1;
                }
                row.entries.push(entry);
                return;
            }
        }
        indices.push(self.rows.len() as u32);
        self.rows.push(WideRow {
            key,
            entries: vec![entry],
        });
    }

    /// Incremental delete: remove the entry from whichever of the key's
    /// rows holds it. A row emptied by deletion stays as a tombstone —
    /// predicate scans still touch it (the un-vacuumed-page effect) —
    /// until [`WideTable::repack_if_needed`] rebuilds the table.
    fn delete(&mut self, key: u32, entry: (u32, u32)) {
        let Some(indices) = self.by_key.get(&key) else {
            return;
        };
        for &idx in indices {
            let row = &mut self.rows[idx as usize];
            if let Some(pos) = row.entries.iter().position(|&e| e == entry) {
                row.entries.swap_remove(pos);
                if row.entries.is_empty() {
                    self.dead += 1;
                }
                return;
            }
        }
    }

    /// VACUUM analogue, run at the end of every `apply_delta`: once
    /// tombstones outnumber live rows (and clear [`REPACK_MIN_DEAD`]),
    /// rebuild the table from its live entries. Without this, a
    /// delete-heavy workload grows the wide-row vector without bound and
    /// every predicate scan pays for rows that hold nothing.
    fn repack_if_needed(&mut self) {
        let dead = self.dead as usize;
        if dead < REPACK_MIN_DEAD || dead * 2 <= self.rows.len() {
            return;
        }
        let mut live: FxHashMap<u32, Vec<(u32, u32)>> = FxHashMap::default();
        for row in &self.rows {
            if !row.entries.is_empty() {
                live.entry(row.key)
                    .or_default()
                    .extend_from_slice(&row.entries);
            }
        }
        *self = pack_rows(live);
    }
}

/// Column position a predicate hashes to (its *primary* column; conflicts
/// spill to the next free slot, which is why SQL must CASE over all
/// candidate columns).
pub fn primary_column(pred_code: u32) -> usize {
    (pred_code as usize * 2654435761) % DPH_COLUMNS
}

/// Entity-layout storage: DPH + RPH.
///
/// Unlike the per-predicate layouts, a clone copies both wide tables
/// whole, every generation. There is no smaller unit to share: a wide
/// row bundles *every* predicate of its subject, so a delta naming one
/// predicate rewrites rows that all the subject's other predicates live
/// in, and a predicate's extent is scattered over the whole row vector.
/// Measured at the benchmark's 60 533-fact LUBM ABox: 2.9–3.1 ms per
/// clone (the simple layout's pointer-bump clone is 0.01 ms). No
/// benchmark workload and no default configuration serves from this
/// layout; it exists for the paper's §6.3 comparison.
#[derive(Clone)]
pub struct DphStorage {
    dph: WideTable,
    rph: WideTable,
    stats: CatalogStats,
}

impl DphStorage {
    pub fn load(abox: &ABox) -> Self {
        // Gather per-subject and per-object entry lists.
        let mut by_subject: FxHashMap<u32, Vec<(u32, u32)>> = FxHashMap::default();
        let mut by_object: FxHashMap<u32, Vec<(u32, u32)>> = FxHashMap::default();
        for &(c, i) in abox.concept_assertions() {
            by_subject
                .entry(i.0)
                .or_default()
                .push((code_concept(c.0), TYPE_MARKER));
        }
        for &(r, a, b) in abox.role_assertions() {
            by_subject
                .entry(a.0)
                .or_default()
                .push((code_role(r.0), b.0));
            by_object
                .entry(b.0)
                .or_default()
                .push((code_role(r.0), a.0));
        }
        DphStorage {
            dph: pack_rows(by_subject),
            rph: pack_rows(by_object),
            stats: CatalogStats::from_abox(abox),
        }
    }

    /// Total DPH rows (spills and tombstones included) — the cost of any
    /// predicate scan.
    pub fn dph_rows(&self) -> usize {
        self.dph.rows.len()
    }
}

/// Pack entry lists into wide rows of at most [`DPH_COLUMNS`] entries,
/// each predicate placed at (or probed after) its primary column; overflow
/// spills into extra rows for the same key.
fn pack_rows(map: FxHashMap<u32, Vec<(u32, u32)>>) -> WideTable {
    let mut table = WideTable::default();
    let mut keys: Vec<u32> = map.keys().copied().collect();
    keys.sort_unstable(); // deterministic layout
    for key in keys {
        let entries = &map[&key];
        for chunk in entries.chunks(DPH_COLUMNS) {
            table
                .by_key
                .entry(key)
                .or_default()
                .push(table.rows.len() as u32);
            table.rows.push(WideRow {
                key,
                entries: chunk.to_vec(),
            });
        }
    }
    table
}

impl Storage for DphStorage {
    fn layout(&self) -> LayoutKind {
        LayoutKind::Dph
    }

    fn stats(&self) -> &CatalogStats {
        &self.stats
    }

    fn for_each_concept(&self, c: ConceptId, m: &mut Meter, f: &mut dyn FnMut(u32)) {
        // Full DPH scan: every wide row is touched (the layout has no
        // per-predicate extent).
        let code = code_concept(c.0);
        m.on_scan(TK_DPH, (self.dph.rows.len() * 2) as u64);
        for row in &self.dph.rows {
            if row.entries.iter().any(|&(p, _)| p == code) {
                f(row.key);
            }
        }
    }

    fn for_each_role(&self, r: RoleId, m: &mut Meter, f: &mut dyn FnMut(u32, u32)) {
        let code = code_role(r.0);
        m.on_scan(TK_DPH, (self.dph.rows.len() * 2) as u64);
        for row in &self.dph.rows {
            for &(p, v) in &row.entries {
                if p == code {
                    f(row.key, v);
                }
            }
        }
    }

    fn concept_blocks(&self, c: ConceptId, m: &mut Meter, f: &mut dyn FnMut(&[u32])) {
        // Same full-table walk and metering as `for_each_concept`; the
        // matching keys are staged into a block-sized scratch column
        // (the layout has no contiguous per-predicate extent to slice).
        let code = code_concept(c.0);
        m.on_scan(TK_DPH, (self.dph.rows.len() * 2) as u64);
        let mut buf = Vec::with_capacity(BATCH_SIZE);
        for row in &self.dph.rows {
            if row.entries.iter().any(|&(p, _)| p == code) {
                buf.push(row.key);
                if buf.len() == BATCH_SIZE {
                    f(&buf);
                    buf.clear();
                }
            }
        }
        if !buf.is_empty() {
            f(&buf);
        }
    }

    fn role_blocks(&self, r: RoleId, m: &mut Meter, f: &mut dyn FnMut(&[u32], &[u32])) {
        let code = code_role(r.0);
        m.on_scan(TK_DPH, (self.dph.rows.len() * 2) as u64);
        let mut subs = Vec::with_capacity(BATCH_SIZE);
        let mut objs = Vec::with_capacity(BATCH_SIZE);
        for row in &self.dph.rows {
            for &(p, v) in &row.entries {
                if p == code {
                    subs.push(row.key);
                    objs.push(v);
                    if subs.len() == BATCH_SIZE {
                        f(&subs, &objs);
                        subs.clear();
                        objs.clear();
                    }
                }
            }
        }
        if !subs.is_empty() {
            f(&subs, &objs);
        }
    }

    fn probe_concept(&self, c: ConceptId, v: u32, m: &mut Meter) -> bool {
        m.on_probe(1);
        let code = code_concept(c.0);
        self.dph.by_key.get(&v).is_some_and(|rows| {
            rows.iter().any(|&idx| {
                self.dph.rows[idx as usize]
                    .entries
                    .iter()
                    .any(|&(p, _)| p == code)
            })
        })
    }

    fn role_objects(&self, r: RoleId, s: u32, m: &mut Meter, f: &mut dyn FnMut(u32)) {
        let code = code_role(r.0);
        match self.dph.by_key.get(&s) {
            Some(rows) => {
                m.on_probe(rows.len() as u64);
                for &idx in rows {
                    for &(p, v) in &self.dph.rows[idx as usize].entries {
                        if p == code {
                            f(v);
                        }
                    }
                }
            }
            None => m.on_probe(0),
        }
    }

    fn role_subjects(&self, r: RoleId, o: u32, m: &mut Meter, f: &mut dyn FnMut(u32)) {
        let code = code_role(r.0);
        match self.rph.by_key.get(&o) {
            Some(rows) => {
                m.on_probe(rows.len() as u64);
                for &idx in rows {
                    for &(p, v) in &self.rph.rows[idx as usize].entries {
                        if p == code {
                            f(v);
                        }
                    }
                }
            }
            None => m.on_probe(0),
        }
    }

    fn probe_role(&self, r: RoleId, s: u32, o: u32, m: &mut Meter) -> bool {
        let code = code_role(r.0);
        m.on_probe(1);
        self.dph.by_key.get(&s).is_some_and(|rows| {
            rows.iter().any(|&idx| {
                self.dph.rows[idx as usize]
                    .entries
                    .iter()
                    .any(|&(p, v)| p == code && v == o)
            })
        })
    }

    fn apply_delta(&mut self, delta: &AboxDelta) {
        for &(c, i) in &delta.insert_concepts {
            self.dph.insert(i.0, (code_concept(c.0), TYPE_MARKER));
        }
        for &(r, a, b) in &delta.insert_roles {
            self.dph.insert(a.0, (code_role(r.0), b.0));
            self.rph.insert(b.0, (code_role(r.0), a.0));
        }
        for &(c, i) in &delta.delete_concepts {
            self.dph.delete(i.0, (code_concept(c.0), TYPE_MARKER));
        }
        for &(r, a, b) in &delta.delete_roles {
            self.dph.delete(a.0, (code_role(r.0), b.0));
            self.rph.delete(b.0, (code_role(r.0), a.0));
        }
        self.dph.repack_if_needed();
        self.rph.repack_if_needed();
        self.stats.apply_delta(delta);
    }

    fn boxed_clone(&self) -> Box<dyn Storage> {
        Box::new(self.clone())
    }
}

// RPH scans account against TK_RPH when used; expose for tests.
#[allow(dead_code)]
fn rph_table_key() -> crate::meter::TableKey {
    TK_RPH
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::testutil::{check_storage_contract, small_abox};
    use crate::profile::EngineProfile;
    use obda_dllite::Vocabulary;

    #[test]
    fn contract() {
        let (_, abox) = small_abox();
        let storage = DphStorage::load(&abox);
        check_storage_contract(&storage);
        assert_eq!(storage.layout(), LayoutKind::Dph);
    }

    #[test]
    fn spill_rows_for_wide_subjects() {
        let mut voc = Vocabulary::new();
        let s = voc.individual("hub");
        let t = voc.individual("t");
        let mut abox = ABox::new();
        // One subject with 20 role assertions: must spill into ≥3 rows of
        // 8 columns.
        for i in 0..20 {
            let r = voc.role(&format!("r{i}"));
            abox.assert_role(r, s, t);
        }
        let storage = DphStorage::load(&abox);
        assert!(storage.dph_rows() >= 3, "20 entries / 8 cols → ≥3 rows");
        // All 20 still retrievable.
        let profile = EngineProfile::pg_like();
        let mut m = Meter::new(&profile);
        let mut count = 0;
        for i in 0..20u32 {
            storage.role_objects(obda_dllite::RoleId(i), s.0, &mut m, &mut |_| count += 1);
        }
        assert_eq!(count, 20);
    }

    #[test]
    fn scans_are_much_costlier_than_simple() {
        let (voc, abox) = small_abox();
        let dph = DphStorage::load(&abox);
        let simple = crate::layout::simple::SimpleStorage::load(&abox);
        let profile = EngineProfile::pg_like();
        let r = voc.find_role("s").unwrap(); // tiny table: 1 pair
        let mut md = Meter::new(&profile);
        dph.for_each_role(r, &mut md, &mut |_, _| {});
        let mut ms = Meter::new(&profile);
        simple.for_each_role(r, &mut ms, &mut |_, _| {});
        // DPH scans the whole wide table even for a 1-pair predicate.
        assert!(md.metrics.scanned > ms.metrics.scanned * 2.0);
    }

    #[test]
    fn primary_column_is_stable_and_in_range() {
        for code in 0..100 {
            let col = primary_column(code);
            assert!(col < DPH_COLUMNS);
            assert_eq!(col, primary_column(code));
        }
    }

    #[test]
    fn incremental_apply_matches_fresh_load() {
        crate::layout::testutil::check_incremental_matches_reload(|abox| {
            Box::new(DphStorage::load(abox))
        });
    }

    #[test]
    fn incremental_inserts_spill_and_deletes_tombstone() {
        let mut voc = Vocabulary::new();
        let s = voc.individual("hub");
        let t = voc.individual("t");
        let mut abox = ABox::new();
        let roles: Vec<_> = (0..20).map(|i| voc.role(&format!("r{i}"))).collect();
        abox.assert_role(roles[0], s, t);
        let mut storage = DphStorage::load(&abox);
        assert_eq!(storage.dph_rows(), 1);

        // 19 incremental inserts on one subject must spill past one row.
        let mut delta = obda_dllite::AboxDelta::new();
        for &r in &roles[1..] {
            delta.insert_roles.push((r, s, t));
        }
        let eff = abox.apply(&delta);
        storage.apply_delta(&eff);
        assert!(storage.dph_rows() >= 3, "20 entries / 8 cols → ≥3 rows");
        let profile = EngineProfile::pg_like();
        let mut m = Meter::new(&profile);
        let mut count = 0;
        for &r in &roles {
            storage.role_objects(r, s.0, &mut m, &mut |_| count += 1);
        }
        assert_eq!(count, 20);

        // Deleting everything leaves tombstone rows (scans still touch
        // them) but no retrievable entries. The table stays under the
        // REPACK_MIN_DEAD floor, so no repack fires here.
        let mut wipe = obda_dllite::AboxDelta::new();
        for &r in &roles {
            wipe.delete_roles.push((r, s, t));
        }
        let eff = abox.apply(&wipe);
        storage.apply_delta(&eff);
        assert!(
            storage.dph_rows() >= 3,
            "below the repack floor, tombstones persist"
        );
        let mut gone = 0;
        for &r in &roles {
            storage.role_objects(r, s.0, &mut m, &mut |_| gone += 1);
        }
        assert_eq!(gone, 0);
        assert_eq!(storage.stats().total_facts, 0);
    }

    #[test]
    fn heavy_churn_repacks_and_scan_cost_stops_degrading() {
        let mut voc = Vocabulary::new();
        let r = voc.role("r");
        let t = voc.individual("t");
        let mut abox = ABox::new();
        let mut storage = DphStorage::load(&abox);
        let profile = EngineProfile::pg_like();

        // 40 waves of 16 single-entry subjects: each wave inserts fresh
        // facts and deletes the previous wave's, emptying one row per
        // dead subject. Without the repack threshold the wide-row vector
        // would end up ~640 rows of tombstones.
        let waves = 40usize;
        let per_wave = 16usize;
        for wave in 0..waves {
            let mut delta = obda_dllite::AboxDelta::new();
            for k in 0..per_wave {
                let s = voc.individual(&format!("s{wave}_{k}"));
                delta.insert_roles.push((r, s, t));
            }
            if wave > 0 {
                for k in 0..per_wave {
                    let s = voc.find_individual(&format!("s{}_{k}", wave - 1)).unwrap();
                    delta.delete_roles.push((r, s, t));
                }
            }
            let eff = abox.apply(&delta);
            storage.apply_delta(&eff);
            // Tombstones never outnumber the live rows for long.
            assert!(
                storage.dph_rows() <= 4 * per_wave + 2 * REPACK_MIN_DEAD,
                "wave {wave}: {} rows — tombstones are accumulating",
                storage.dph_rows()
            );
        }

        // Scan cost is a function of live data, not churn history: the
        // churned table scans like a fresh load of the same ABox (the
        // width-2 metering makes a tombstone-free scan 2 tuples per row).
        let reloaded = DphStorage::load(&abox);
        let mut churned_m = Meter::new(&profile);
        let mut fresh_m = Meter::new(&profile);
        let mut n = 0;
        storage.for_each_role(r, &mut churned_m, &mut |_, _| n += 1);
        reloaded.for_each_role(r, &mut fresh_m, &mut |_, _| {});
        assert_eq!(n, per_wave, "only the last wave's facts remain");
        assert!(
            churned_m.metrics.scanned <= fresh_m.metrics.scanned * 3.0,
            "churned scan ({}) must stay near fresh-load scan ({})",
            churned_m.metrics.scanned,
            fresh_m.metrics.scanned
        );

        // And the table still answers exactly like a fresh load.
        crate::layout::testutil::assert_same_contents(&storage, &reloaded, &voc, "after churn");
    }

    #[test]
    fn multivalued_predicates_survive_packing() {
        let mut voc = Vocabulary::new();
        let r = voc.role("r");
        let s = voc.individual("s");
        let mut abox = ABox::new();
        for i in 0..12 {
            let o = voc.individual(&format!("o{i}"));
            abox.assert_role(r, s, o);
        }
        let storage = DphStorage::load(&abox);
        let profile = EngineProfile::pg_like();
        let mut m = Meter::new(&profile);
        let mut objs = Vec::new();
        storage.role_objects(r, s.0, &mut m, &mut |o| objs.push(o));
        assert_eq!(objs.len(), 12, "multi-valued predicate spills correctly");
    }
}
