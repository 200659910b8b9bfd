//! String interning for concept, role and individual names.
//!
//! The paper's experimental setting dictionary-encodes all facts into
//! integers before storing them in the RDBMS (§6.1, "simple layout"); the
//! [`Vocabulary`] is that dictionary, shared by the TBox, the ABox, queries
//! and the storage engine.
//!
//! ## Prefix and tail
//!
//! The serving layer freezes one vocabulary per published data
//! generation, and a transaction that reads its own writes extends a
//! private copy, so `clone()` sits on the commit path. Each namespace is
//! therefore a **frozen prefix** behind an `Arc` plus a small **private
//! tail**: ids stay dense and stable (`prefix.len() + k` for the k-th
//! tail name), a lookup tries the prefix and then the tail with no lock
//! anywhere, and a clone is one pointer bump plus a copy of the tail.
//! Each name is stored once, as an `Arc<str>` shared by the name → id map
//! and the id → name vector.
//!
//! Interning writes to the prefix directly while nobody shares it (bulk
//! load, data generation and recovery never build a tail, and a tail left
//! over from a shared past moves across without copying a name). While
//! the prefix is shared, new names go to the tail, and the tail is
//! *folded* — the prefix copied once, the tail appended — when it
//! outgrows `1 / FOLD_FRACTION` of the prefix.
//!
//! The alternative of one append-only interner under a per-generation
//! length watermark shares even the newest names, but readers would then
//! race the appending writer: every name rendered into a result row
//! would take a lock (or need an unsafe stable-address arena). A prefix
//! that never changes once shared needs neither.

use std::collections::HashMap;
use std::sync::Arc;

use crate::ids::{ConceptId, IndividualId, PredId, RoleId};

/// A shared prefix is folded once the tail exceeds this fraction of it.
/// A fold copies the `P` prefix entries and happens once per `P / 8`
/// names interned, so interning stays amortised O(1) (at most 8 entry
/// copies per new name), while a clone copies at most `P / 8` tail
/// entries instead of `P`. An entry copy is a reference-count bump, not a
/// string allocation, so neither side of the trade is steep; 8 keeps the
/// fold (a pause under the serving layer's writer lock) to once every few
/// hundred commits at the benchmark's 20 k individuals and 4 new names
/// per commit.
const FOLD_FRACTION: usize = 8;

/// A run of names with the (namespace-wide) ids they were interned at.
#[derive(Debug, Default, Clone)]
struct NameRun {
    by_name: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

impl NameRun {
    fn push(&mut self, name: Arc<str>, id: u32) {
        self.names.push(Arc::clone(&name));
        self.by_name.insert(name, id);
    }

    /// Move every name of `tail` to the end of `self`.
    fn append(&mut self, tail: &mut NameRun) {
        self.names.append(&mut tail.names);
        self.by_name.extend(tail.by_name.drain());
    }
}

/// A bidirectional name ↔ dense-id map for one namespace: a frozen
/// prefix that clones share, and this copy's own tail (module docs).
#[derive(Debug, Default, Clone)]
struct Interner {
    prefix: Arc<NameRun>,
    tail: NameRun,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(id) = self.get(name) {
            return id;
        }
        let id = self.len() as u32;
        match Arc::get_mut(&mut self.prefix) {
            Some(prefix) => {
                prefix.append(&mut self.tail);
                prefix.push(name.into(), id);
            }
            None => {
                self.tail.push(name.into(), id);
                if self.tail.names.len() * FOLD_FRACTION > self.prefix.names.len() {
                    self.fold();
                }
            }
        }
        id
    }

    /// Replace a shared prefix by a private copy extended with the tail.
    fn fold(&mut self) {
        let mut merged = NameRun::clone(&self.prefix);
        merged.append(&mut self.tail);
        self.prefix = Arc::new(merged);
    }

    fn get(&self, name: &str) -> Option<u32> {
        self.prefix
            .by_name
            .get(name)
            .or_else(|| self.tail.by_name.get(name))
            .copied()
    }

    fn name(&self, id: u32) -> Option<&str> {
        let id = id as usize;
        let frozen = self.prefix.names.len();
        let name = match id.checked_sub(frozen) {
            None => self.prefix.names.get(id),
            Some(k) => self.tail.names.get(k),
        };
        name.map(|s| &**s)
    }

    fn len(&self) -> usize {
        self.prefix.names.len() + self.tail.names.len()
    }

    /// Every name, in id order.
    fn names(&self) -> impl Iterator<Item = &Arc<str>> {
        self.prefix.names.iter().chain(&self.tail.names)
    }
}

/// Same names at the same ids, wherever each side splits them.
impl PartialEq for Interner {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.names().eq(other.names())
    }
}

impl Eq for Interner {}

/// The three vocabularies `NC`, `NR`, `NI` of a knowledge base.
///
/// Interning is append-only: ids are dense, stable, and allocation order is
/// deterministic given insertion order, which keeps data generation and test
/// fixtures reproducible.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Vocabulary {
    concepts: Interner,
    roles: Interner,
    individuals: Interner,
}

impl Vocabulary {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a concept name, returning its id (existing or fresh).
    pub fn concept(&mut self, name: &str) -> ConceptId {
        ConceptId(self.concepts.intern(name))
    }

    /// Intern a role name, returning its id (existing or fresh).
    pub fn role(&mut self, name: &str) -> RoleId {
        RoleId(self.roles.intern(name))
    }

    /// Intern an individual name, returning its id (existing or fresh).
    pub fn individual(&mut self, name: &str) -> IndividualId {
        IndividualId(self.individuals.intern(name))
    }

    /// Look up an already-interned concept.
    pub fn find_concept(&self, name: &str) -> Option<ConceptId> {
        self.concepts.get(name).map(ConceptId)
    }

    /// Look up an already-interned role.
    pub fn find_role(&self, name: &str) -> Option<RoleId> {
        self.roles.get(name).map(RoleId)
    }

    /// Look up an already-interned individual.
    pub fn find_individual(&self, name: &str) -> Option<IndividualId> {
        self.individuals.get(name).map(IndividualId)
    }

    pub fn concept_name(&self, id: ConceptId) -> &str {
        self.concepts.name(id.0).unwrap_or("<unknown-concept>")
    }

    pub fn role_name(&self, id: RoleId) -> &str {
        self.roles.name(id.0).unwrap_or("<unknown-role>")
    }

    pub fn individual_name(&self, id: IndividualId) -> &str {
        self.individuals
            .name(id.0)
            .unwrap_or("<unknown-individual>")
    }

    pub fn pred_name(&self, id: PredId) -> &str {
        match id {
            PredId::Concept(c) => self.concept_name(c),
            PredId::Role(r) => self.role_name(r),
        }
    }

    pub fn num_concepts(&self) -> usize {
        self.concepts.len()
    }

    pub fn num_roles(&self) -> usize {
        self.roles.len()
    }

    pub fn num_individuals(&self) -> usize {
        self.individuals.len()
    }

    /// Total number of predicate names (`|NC| + |NR|`), the width of
    /// dependency bitsets.
    pub fn num_preds(&self) -> usize {
        self.num_concepts() + self.num_roles()
    }

    /// Iterate over all concept ids in allocation order.
    pub fn concept_ids(&self) -> impl Iterator<Item = ConceptId> {
        (0..self.num_concepts() as u32).map(ConceptId)
    }

    /// Iterate over all role ids in allocation order.
    pub fn role_ids(&self) -> impl Iterator<Item = RoleId> {
        (0..self.num_roles() as u32).map(RoleId)
    }

    /// Iterate over all individual ids in allocation order.
    pub fn individual_ids(&self) -> impl Iterator<Item = IndividualId> {
        (0..self.num_individuals() as u32).map(IndividualId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.concept("Researcher");
        let b = v.concept("Researcher");
        assert_eq!(a, b);
        assert_eq!(v.num_concepts(), 1);
    }

    #[test]
    fn namespaces_are_disjoint() {
        let mut v = Vocabulary::new();
        let c = v.concept("worksWith");
        let r = v.role("worksWith");
        // Same string, different namespaces, both id 0 in their own space.
        assert_eq!(c.0, 0);
        assert_eq!(r.0, 0);
        assert_eq!(v.num_concepts(), 1);
        assert_eq!(v.num_roles(), 1);
    }

    #[test]
    fn lookup_roundtrip() {
        let mut v = Vocabulary::new();
        let c = v.concept("PhDStudent");
        let r = v.role("supervisedBy");
        let i = v.individual("Damian");
        assert_eq!(v.concept_name(c), "PhDStudent");
        assert_eq!(v.role_name(r), "supervisedBy");
        assert_eq!(v.individual_name(i), "Damian");
        assert_eq!(v.find_concept("PhDStudent"), Some(c));
        assert_eq!(v.find_role("supervisedBy"), Some(r));
        assert_eq!(v.find_individual("Damian"), Some(i));
        assert_eq!(v.find_concept("Nope"), None);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut v = Vocabulary::new();
        let ids: Vec<ConceptId> = ["A", "B", "C"].iter().map(|n| v.concept(n)).collect();
        assert_eq!(ids, vec![ConceptId(0), ConceptId(1), ConceptId(2)]);
        let all: Vec<ConceptId> = v.concept_ids().collect();
        assert_eq!(all, ids);
    }

    #[test]
    fn pred_name_dispatches() {
        let mut v = Vocabulary::new();
        let c = v.concept("A");
        let r = v.role("r");
        assert_eq!(v.pred_name(PredId::Concept(c)), "A");
        assert_eq!(v.pred_name(PredId::Role(r)), "r");
    }

    /// SplitMix64, so a case is a pure function of its seed.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Names the model test draws from: few enough that re-interning a
    /// known name is as common as interning a new one.
    const POOL: u64 = 48;

    fn assert_matches_model(voc: &Vocabulary, model: &[String]) {
        assert_eq!(voc.num_individuals(), model.len(), "ids are dense");
        for (id, name) in model.iter().enumerate() {
            let id = IndividualId(id as u32);
            assert_eq!(voc.individual_name(id), name, "ids are stable");
            assert_eq!(voc.find_individual(name), Some(id));
        }
        for k in 0..POOL {
            let name = format!("n{k}");
            if !model.contains(&name) {
                assert_eq!(voc.find_individual(&name), None, "a name nobody gave it");
            }
        }
        // The same names interned in one go sit wholly in an unshared
        // prefix: equality must not see the split.
        let mut rebuilt = Vocabulary::new();
        for name in model {
            rebuilt.individual(name);
        }
        assert_eq!(voc, &rebuilt);
        assert_eq!(&rebuilt, voc);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random interleavings of intern, clone, intern on a clone,
        /// dropping a copy (which can unshare a prefix again) and forced
        /// folds, each live copy checked against a plain `Vec<String>`.
        #[test]
        fn interner_matches_a_vec_model(seed in 0u64..u64::MAX) {
            let mut rng = seed;
            let mut copies: Vec<(Vocabulary, Vec<String>)> = vec![Default::default()];
            for step in 0..160 {
                let at = (next(&mut rng) % copies.len() as u64) as usize;
                match next(&mut rng) % 10 {
                    0 if copies.len() < 5 => copies.push(copies[at].clone()),
                    1 if copies.len() > 1 => drop(copies.swap_remove(at)),
                    2 => copies[at].0.individuals.fold(),
                    _ => {
                        let (voc, model) = &mut copies[at];
                        let name = format!("n{}", next(&mut rng) % POOL);
                        let known = model.iter().position(|n| *n == name);
                        let id = voc.individual(&name).0 as usize;
                        prop_assert_eq!(id, known.unwrap_or(model.len()));
                        if known.is_none() {
                            model.push(name);
                        }
                    }
                }
                // The copy just written every step; every copy (none
                // may have seen another's names) every few steps.
                for (i, (voc, model)) in copies.iter().enumerate() {
                    if i == at || step % 16 == 15 {
                        assert_matches_model(voc, model);
                    }
                }
            }
            // Copies are equal exactly when their models are.
            for (a, model_a) in &copies {
                for (b, model_b) in &copies {
                    prop_assert_eq!(a == b, model_a == model_b);
                }
            }
        }
    }

    #[test]
    fn a_shared_prefix_grows_a_tail_and_folds_past_the_threshold() {
        let mut master = Vocabulary::new();
        for k in 0..64 {
            master.individual(&format!("base{k}"));
        }
        assert!(
            master.individuals.tail.names.is_empty(),
            "unshared: in place"
        );
        let frozen = master.clone();
        assert!(Arc::ptr_eq(
            &master.individuals.prefix,
            &frozen.individuals.prefix
        ));
        // 64 / FOLD_FRACTION names fit in the tail; the next one folds.
        for k in 0..64 / FOLD_FRACTION {
            master.individual(&format!("new{k}"));
            assert!(Arc::ptr_eq(
                &master.individuals.prefix,
                &frozen.individuals.prefix
            ));
        }
        assert_eq!(master.individuals.tail.names.len(), 64 / FOLD_FRACTION);
        master.individual("one more");
        assert!(!Arc::ptr_eq(
            &master.individuals.prefix,
            &frozen.individuals.prefix
        ));
        assert!(master.individuals.tail.names.is_empty(), "folded");
        assert_eq!(frozen.num_individuals(), 64, "the clone saw none of it");
        assert_eq!(master.num_individuals(), 64 + 64 / FOLD_FRACTION + 1);
        // Once the clone is gone the prefix is private again: in place.
        drop(frozen);
        let prefix = Arc::as_ptr(&master.individuals.prefix);
        master.individual("in place");
        assert_eq!(Arc::as_ptr(&master.individuals.prefix), prefix);
        assert!(master.individuals.tail.names.is_empty());
    }
}
