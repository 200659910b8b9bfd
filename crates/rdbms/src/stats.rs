//! Catalog statistics: per-table cardinalities and per-attribute distinct
//! counts, the inputs of both cost models (§6.1: "statistics on the stored
//! data (cardinality and number of distinct values in each stored table
//! attribute)").
//!
//! Statistics are maintained **incrementally** under [`AboxDelta`]
//! batches: instead of bare distinct counts the catalog keeps per-value
//! occurrence counters, so a deletion knows when the last pair with a
//! given subject (or object, or individual) disappears. The maps are kept
//! *canonical* — an entry whose counter reaches zero is removed — which
//! makes incremental maintenance **counter-exact**: after any sequence of
//! deltas, `apply_delta` leaves the catalog structurally equal
//! (`PartialEq`) to [`CatalogStats::from_abox`] on the resulting ABox.
//! The differential suite asserts exactly that property.
//!
//! The per-value counter maps are as large as the data (one entry per
//! distinct subject and object of every role, one per individual), and
//! every published generation owns a catalog. Each map therefore sits
//! behind its own `Arc` and is written through [`Arc::make_mut`]: a clone
//! bumps pointers, and a delta copies the maps of the roles it names
//! (and the individual reference counts, which every fact touches).

use std::sync::Arc;

use obda_dllite::{ABox, AboxDelta};

use crate::fxhash::FxHashMap;

/// Which role attribute a hash-join build side is keyed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySide {
    Subject,
    Object,
}

/// Occurrence counters per value (canonical: no zero entries).
type Counts = FxHashMap<u32, u64>;

/// Statistics over the stored ABox, layout-independent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatalogStats {
    concept_rows: Counts,
    role_rows: Counts,
    /// Per role: subject value → number of pairs with that subject.
    role_subj_counts: FxHashMap<u32, Arc<Counts>>,
    /// Per role: object value → number of pairs with that object.
    role_obj_counts: FxHashMap<u32, Arc<Counts>>,
    /// Individual id → number of facts mentioning it (concept membership
    /// counts once; a role pair counts each position, so a reflexive pair
    /// counts its individual twice).
    individual_refs: Arc<Counts>,
    pub num_individuals: u64,
    pub total_facts: u64,
}

/// Put each value of a per-predicate map, built unshared, behind its
/// own `Arc` — once, so a bulk load pays no reference-count check per
/// fact (what [`Arc::make_mut`] on the write path would cost it).
pub(crate) fn share_values<T>(map: FxHashMap<u32, T>) -> FxHashMap<u32, Arc<T>> {
    map.into_iter().map(|(k, v)| (k, Arc::new(v))).collect()
}

/// Bump a counter in a canonical count map.
fn count_up(map: &mut Counts, key: u32) {
    *map.entry(key).or_insert(0) += 1;
}

/// Decrement a counter, removing the entry at zero (canonical form).
fn count_down(map: &mut Counts, key: u32) {
    match map.get_mut(&key) {
        Some(n) if *n > 1 => *n -= 1,
        Some(_) => {
            map.remove(&key);
        }
        None => debug_assert!(false, "decrement of untracked key {key}"),
    }
}

impl CatalogStats {
    /// Compute statistics from an ABox (whose assertions are distinct).
    /// Counts into unshared maps and wraps them at the end; the
    /// counter-exactness property holds [`CatalogStats::apply_delta`],
    /// which counts through the `Arc`s, to this.
    pub fn from_abox(abox: &ABox) -> Self {
        let mut concept_rows = Counts::default();
        let mut role_rows = Counts::default();
        let mut subj_counts: FxHashMap<u32, Counts> = FxHashMap::default();
        let mut obj_counts: FxHashMap<u32, Counts> = FxHashMap::default();
        let mut individual_refs = Counts::default();
        for &(c, i) in abox.concept_assertions() {
            count_up(&mut concept_rows, c.0);
            count_up(&mut individual_refs, i.0);
        }
        for &(r, a, b) in abox.role_assertions() {
            count_up(&mut role_rows, r.0);
            count_up(subj_counts.entry(r.0).or_default(), a.0);
            count_up(obj_counts.entry(r.0).or_default(), b.0);
            count_up(&mut individual_refs, a.0);
            count_up(&mut individual_refs, b.0);
        }
        CatalogStats {
            concept_rows,
            role_rows,
            role_subj_counts: share_values(subj_counts),
            role_obj_counts: share_values(obj_counts),
            num_individuals: individual_refs.len() as u64,
            individual_refs: Arc::new(individual_refs),
            total_facts: abox.len() as u64,
        }
    }

    /// Maintain the catalog under one **effective** delta (the sub-delta
    /// [`ABox::apply`] reports: inserts that were new, deletes that hit).
    /// Feeding a non-effective delta (duplicate inserts, misses) would
    /// double-count — the storage layouts guarantee effectiveness.
    pub fn apply_delta(&mut self, delta: &AboxDelta) {
        for &(c, i) in &delta.insert_concepts {
            self.add_concept(c.0, i.0);
        }
        for &(r, a, b) in &delta.insert_roles {
            self.add_role(r.0, a.0, b.0);
        }
        for &(c, i) in &delta.delete_concepts {
            self.remove_concept(c.0, i.0);
        }
        for &(r, a, b) in &delta.delete_roles {
            self.remove_role(r.0, a.0, b.0);
        }
    }

    fn add_concept(&mut self, c: u32, i: u32) {
        count_up(&mut self.concept_rows, c);
        self.touch_individual(i);
        self.total_facts += 1;
    }

    fn remove_concept(&mut self, c: u32, i: u32) {
        count_down(&mut self.concept_rows, c);
        self.release_individual(i);
        self.total_facts -= 1;
    }

    fn add_role(&mut self, r: u32, a: u32, b: u32) {
        count_up(&mut self.role_rows, r);
        count_up(
            Arc::make_mut(self.role_subj_counts.entry(r).or_default()),
            a,
        );
        count_up(Arc::make_mut(self.role_obj_counts.entry(r).or_default()), b);
        self.touch_individual(a);
        self.touch_individual(b);
        self.total_facts += 1;
    }

    fn remove_role(&mut self, r: u32, a: u32, b: u32) {
        count_down(&mut self.role_rows, r);
        let subj = self
            .role_subj_counts
            .get_mut(&r)
            .map(Arc::make_mut)
            .expect("role with pairs has a subject-count map");
        count_down(subj, a);
        if subj.is_empty() {
            self.role_subj_counts.remove(&r);
        }
        let obj = self
            .role_obj_counts
            .get_mut(&r)
            .map(Arc::make_mut)
            .expect("role with pairs has an object-count map");
        count_down(obj, b);
        if obj.is_empty() {
            self.role_obj_counts.remove(&r);
        }
        self.release_individual(a);
        self.release_individual(b);
        self.total_facts -= 1;
    }

    fn touch_individual(&mut self, i: u32) {
        let refs = Arc::make_mut(&mut self.individual_refs)
            .entry(i)
            .or_insert(0);
        if *refs == 0 {
            self.num_individuals += 1;
        }
        *refs += 1;
    }

    fn release_individual(&mut self, i: u32) {
        let refs = Arc::make_mut(&mut self.individual_refs);
        count_down(refs, i);
        if !refs.contains_key(&i) {
            self.num_individuals -= 1;
        }
    }

    /// Rows in concept table `c` (0 if absent).
    pub fn concept_card(&self, c: u32) -> u64 {
        self.concept_rows.get(&c).copied().unwrap_or(0)
    }

    /// Rows in role table `r`.
    pub fn role_card(&self, r: u32) -> u64 {
        self.role_rows.get(&r).copied().unwrap_or(0)
    }

    /// Distinct subjects of role `r`.
    pub fn role_distinct_subjects(&self, r: u32) -> u64 {
        self.role_subj_counts.get(&r).map_or(0, |m| m.len() as u64)
    }

    /// Distinct objects of role `r`.
    pub fn role_distinct_objects(&self, r: u32) -> u64 {
        self.role_obj_counts.get(&r).map_or(0, |m| m.len() as u64)
    }

    /// Rows a hash-join build side holds for role `r` (its full
    /// extension — the build scans the table once).
    pub fn role_build_rows(&self, r: u32) -> u64 {
        self.role_card(r)
    }

    /// Rows a hash-join build side holds for concept `c`.
    pub fn concept_build_rows(&self, c: u32) -> u64 {
        self.concept_card(c)
    }

    /// Distinct hash keys when role `r` is keyed on `side`: bounds the
    /// build table's bucket count and drives the expected matches per
    /// probe ([`CatalogStats::role_matches_per_key`]).
    pub fn role_distinct_keys(&self, r: u32, side: KeySide) -> u64 {
        match side {
            KeySide::Subject => self.role_distinct_subjects(r),
            KeySide::Object => self.role_distinct_objects(r),
        }
    }

    /// Expected matches per successful hash probe into role `r` keyed on
    /// `side` — identical to the index fan-out, which is what makes INL
    /// and hash joins directly comparable in the cost model.
    pub fn role_matches_per_key(&self, r: u32, side: KeySide) -> f64 {
        match side {
            KeySide::Subject => self.role_fanout_s(r),
            KeySide::Object => self.role_fanout_o(r),
        }
    }

    /// Average fan-out of role `r` from a bound subject (≥ 0).
    pub fn role_fanout_s(&self, r: u32) -> f64 {
        let d = self.role_distinct_subjects(r);
        if d == 0 {
            0.0
        } else {
            self.role_card(r) as f64 / d as f64
        }
    }

    /// Average fan-in of role `r` from a bound object.
    pub fn role_fanout_o(&self, r: u32) -> f64 {
        let d = self.role_distinct_objects(r);
        if d == 0 {
            0.0
        } else {
            self.role_card(r) as f64 / d as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::{IndividualId, Vocabulary};

    fn sample() -> (Vocabulary, ABox) {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let r = voc.role("r");
        let mut abox = ABox::new();
        let i: Vec<_> = (0..5).map(|k| voc.individual(&format!("i{k}"))).collect();
        abox.assert_concept(a, i[0]);
        abox.assert_concept(a, i[1]);
        abox.assert_role(r, i[0], i[1]);
        abox.assert_role(r, i[0], i[2]);
        abox.assert_role(r, i[3], i[2]);
        (voc, abox)
    }

    #[test]
    fn cardinalities() {
        let (voc, abox) = sample();
        let stats = CatalogStats::from_abox(&abox);
        let a = voc.find_concept("A").unwrap();
        let r = voc.find_role("r").unwrap();
        assert_eq!(stats.concept_card(a.0), 2);
        assert_eq!(stats.role_card(r.0), 3);
        assert_eq!(stats.role_distinct_subjects(r.0), 2); // i0, i3
        assert_eq!(stats.role_distinct_objects(r.0), 2); // i1, i2
        assert_eq!(stats.num_individuals, 4); // i0..i3 (i4 unused)
        assert_eq!(stats.total_facts, 5);
    }

    #[test]
    fn fanouts() {
        let (voc, abox) = sample();
        let stats = CatalogStats::from_abox(&abox);
        let r = voc.find_role("r").unwrap();
        assert_eq!(stats.role_fanout_s(r.0), 1.5);
        assert_eq!(stats.role_fanout_o(r.0), 1.5);
        assert_eq!(stats.role_fanout_s(999), 0.0, "missing table");
    }

    #[test]
    fn missing_tables_are_zero() {
        let stats = CatalogStats::default();
        assert_eq!(stats.concept_card(0), 0);
        assert_eq!(stats.role_card(0), 0);
    }

    #[test]
    fn delta_maintenance_is_counter_exact() {
        let (voc, mut abox) = sample();
        let mut stats = CatalogStats::from_abox(&abox);
        let a = voc.find_concept("A").unwrap();
        let r = voc.find_role("r").unwrap();
        let i0 = voc.find_individual("i0").unwrap();
        let i1 = voc.find_individual("i1").unwrap();
        let i4 = voc.find_individual("i4").unwrap();
        let delta = obda_dllite::AboxDelta::new()
            .insert_concept(a, i4)
            .insert_role(r, i4, i0)
            .delete_role(r, i0, i1)
            .delete_concept(a, i0);
        let eff = abox.apply(&delta);
        assert_eq!(eff.len(), 4, "all four changes are effective");
        stats.apply_delta(&eff);
        assert_eq!(
            stats,
            CatalogStats::from_abox(&abox),
            "incremental catalog must equal rebuild-from-scratch"
        );
        assert_eq!(stats.concept_card(a.0), 2); // i1, i4
        assert_eq!(stats.role_distinct_subjects(r.0), 3); // i0, i3, i4
    }

    #[test]
    fn delta_maintenance_canonicalizes_empty_tables() {
        let (voc, mut abox) = sample();
        let mut stats = CatalogStats::from_abox(&abox);
        let r = voc.find_role("r").unwrap();
        // Delete every pair of r: the role's maps must disappear, leaving
        // the catalog structurally equal to one that never saw r.
        let mut delta = obda_dllite::AboxDelta::new();
        for (s, o) in abox.role_pairs(r).collect::<Vec<_>>() {
            delta.delete_roles.push((r, s, o));
        }
        let eff = abox.apply(&delta);
        stats.apply_delta(&eff);
        assert_eq!(stats, CatalogStats::from_abox(&abox));
        assert_eq!(stats.role_card(r.0), 0);
        assert_eq!(stats.role_distinct_subjects(r.0), 0);
        assert_eq!(stats.role_fanout_s(r.0), 0.0);
    }

    #[test]
    fn reflexive_pairs_keep_individual_refs_balanced() {
        let mut voc = Vocabulary::new();
        let r = voc.role("r");
        let x = voc.individual("x");
        let mut abox = ABox::new();
        abox.assert_role(r, x, x);
        let mut stats = CatalogStats::from_abox(&abox);
        assert_eq!(stats.num_individuals, 1);
        let eff = abox.apply(&obda_dllite::AboxDelta::new().delete_role(r, x, x));
        stats.apply_delta(&eff);
        assert_eq!(stats.num_individuals, 0);
        assert_eq!(stats, CatalogStats::from_abox(&abox));
        assert_eq!(stats, CatalogStats::default(), "fully canonical at empty");
    }

    #[test]
    fn build_side_estimates_match_catalog() {
        let (voc, abox) = sample();
        let stats = CatalogStats::from_abox(&abox);
        let a = voc.find_concept("A").unwrap();
        let r = voc.find_role("r").unwrap();
        assert_eq!(stats.concept_build_rows(a.0), stats.concept_card(a.0));
        assert_eq!(stats.role_build_rows(r.0), stats.role_card(r.0));
        assert_eq!(stats.role_distinct_keys(r.0, KeySide::Subject), 2);
        assert_eq!(stats.role_distinct_keys(r.0, KeySide::Object), 2);
        assert_eq!(
            stats.role_matches_per_key(r.0, KeySide::Subject),
            stats.role_fanout_s(r.0)
        );
        assert_eq!(
            stats.role_matches_per_key(r.0, KeySide::Object),
            stats.role_fanout_o(r.0)
        );
    }

    #[test]
    fn a_delta_copies_only_the_count_maps_of_the_roles_it_names() {
        let (mut voc, mut abox) = sample();
        let r = voc.find_role("r").unwrap();
        let s = voc.role("s");
        let (i0, i1) = (IndividualId(0), IndividualId(1));
        abox.assert_role(s, i0, i1);
        let base = CatalogStats::from_abox(&abox);
        let rebuilt = CatalogStats::from_abox(&abox);
        let mut next = base.clone();
        assert!(Arc::ptr_eq(&base.individual_refs, &next.individual_refs));
        next.apply_delta(&abox.apply(&AboxDelta::new().insert_role(s, i1, i0)));
        assert!(Arc::ptr_eq(
            &base.role_subj_counts[&r.0],
            &next.role_subj_counts[&r.0]
        ));
        assert!(Arc::ptr_eq(
            &base.role_obj_counts[&r.0],
            &next.role_obj_counts[&r.0]
        ));
        assert!(!Arc::ptr_eq(
            &base.role_subj_counts[&s.0],
            &next.role_subj_counts[&s.0]
        ));
        assert!(!Arc::ptr_eq(
            &base.role_obj_counts[&s.0],
            &next.role_obj_counts[&s.0]
        ));
        assert!(!Arc::ptr_eq(&base.individual_refs, &next.individual_refs));
        assert_eq!(base, rebuilt, "the original kept its counts");
        assert_eq!(next, CatalogStats::from_abox(&abox));
    }
}
