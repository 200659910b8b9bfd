//! The TBox: a deduplicated set of DL-LiteR axioms with the applicability
//! indexes needed by backward reformulation (PerfectRef) and by the
//! dependency analysis of Definition 4.

use std::collections::HashSet;

use crate::axiom::{Axiom, ConceptInclusion, RoleInclusion};
use crate::expr::{BasicConcept, Role};
use crate::ids::{PredId, RoleId};
use crate::vocab::Vocabulary;

/// An ontology: a set of DL-LiteR constraints over a [`Vocabulary`].
///
/// Role inclusions are stored normalized (direct role on the right-hand
/// side, see [`Axiom::normalized`]); all accessors observe that invariant.
#[derive(Debug, Default, Clone)]
pub struct TBox {
    axioms: Vec<Axiom>,
    seen: HashSet<Axiom>,
    /// Positive concept inclusions grouped by their right-hand side, the key
    /// lookup of backward application: to specialize an atom matching `rhs`,
    /// enumerate this bucket. Indexed densely by [`rhs_slot`] — vocabulary
    /// ids are dense — so PerfectRef's lookups, several per query it
    /// generates, are an array index rather than a hash.
    by_concept_rhs: Vec<Vec<ConceptInclusion>>,
    /// Positive role inclusions grouped by right-hand-side role *name*
    /// (normalized direct), indexed by its id.
    by_role_rhs: Vec<Vec<RoleInclusion>>,
}

/// The bucket of `by_concept_rhs` holding inclusions into `rhs`: atomic
/// concepts on multiples of 3, `∃R` and `∃R⁻` on the two slots after
/// them, so each id ranges over its own slots.
fn rhs_slot(rhs: BasicConcept) -> usize {
    match rhs {
        BasicConcept::Atomic(c) => 3 * c.0 as usize,
        BasicConcept::Exists(r) => 3 * r.name.0 as usize + 1 + usize::from(r.inverse),
    }
}

/// The bucket at `slot`, grown into existence.
fn bucket<T>(buckets: &mut Vec<Vec<T>>, slot: usize) -> &mut Vec<T> {
    if buckets.len() <= slot {
        buckets.resize_with(slot + 1, Vec::new);
    }
    &mut buckets[slot]
}

impl TBox {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an axiom (idempotent modulo [`Axiom::normalized`]).
    /// Returns `true` if the axiom was new.
    pub fn add(&mut self, axiom: Axiom) -> bool {
        let axiom = axiom.normalized();
        if !self.seen.insert(axiom) {
            return false;
        }
        match axiom {
            Axiom::Concept(ci) if !ci.negated => {
                bucket(&mut self.by_concept_rhs, rhs_slot(ci.rhs)).push(ci);
            }
            Axiom::Role(ri) if !ri.negated => {
                debug_assert!(!ri.rhs.inverse);
                bucket(&mut self.by_role_rhs, ri.rhs.name.0 as usize).push(ri);
            }
            _ => {}
        }
        self.axioms.push(axiom);
        true
    }

    pub fn extend<I: IntoIterator<Item = Axiom>>(&mut self, axioms: I) {
        for ax in axioms {
            self.add(ax);
        }
    }

    pub fn len(&self) -> usize {
        self.axioms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.axioms.is_empty()
    }

    pub fn contains(&self, axiom: &Axiom) -> bool {
        self.seen.contains(&axiom.normalized())
    }

    /// All axioms in insertion order (normalized).
    pub fn axioms(&self) -> &[Axiom] {
        &self.axioms
    }

    /// All positive axioms (the ones driving reformulation and the chase).
    pub fn positive_axioms(&self) -> impl Iterator<Item = &Axiom> {
        self.axioms.iter().filter(|a| a.is_positive())
    }

    /// All negative axioms (disjointness constraints, checked for
    /// consistency only).
    pub fn negative_axioms(&self) -> impl Iterator<Item = &Axiom> {
        self.axioms.iter().filter(|a| a.is_negative())
    }

    /// Positive concept inclusions whose right-hand side is exactly `rhs`.
    ///
    /// Backward application: an atom whose extension is `rhs` may hold
    /// *because* any of the returned `lhs` held.
    pub fn concept_inclusions_into(&self, rhs: BasicConcept) -> &[ConceptInclusion] {
        self.by_concept_rhs
            .get(rhs_slot(rhs))
            .map_or(&[], Vec::as_slice)
    }

    /// Positive role inclusions whose right-hand side mentions the role name
    /// of `rhs`. The returned inclusions are normalized (`rhs` direct), so a
    /// caller asking about `R⁻ ⊑ ...` forms must invert both sides.
    pub fn role_inclusions_into(&self, rhs: RoleId) -> &[RoleInclusion] {
        self.by_role_rhs
            .get(rhs.0 as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// This TBox without the positive inclusions whose sub-side predicate
    /// is in `dead` (sorted), the rest in their order. When no predicate
    /// specialising into a dead one has facts either
    /// ([`ConstraintSet::dead_predicates`](crate::ConstraintSet::dead_predicates)),
    /// PerfectRef under the result builds exactly the disjuncts it builds
    /// under `self` that mention no dead predicate.
    pub fn without_inclusions_from(&self, dead: &[PredId]) -> TBox {
        let live = |p: PredId| dead.binary_search(&p).is_err();
        let mut kept = TBox::new();
        kept.extend(self.axioms.iter().copied().filter(|ax| match ax {
            Axiom::Concept(ci) => ci.negated || live(ci.lhs.cr()),
            Axiom::Role(ri) => ri.negated || live(ri.lhs.cr()),
        }));
        kept
    }

    /// Number of positive axioms.
    pub fn num_positive(&self) -> usize {
        self.positive_axioms().count()
    }

    /// Number of negative (disjointness) axioms.
    pub fn num_negative(&self) -> usize {
        self.negative_axioms().count()
    }

    pub fn display<'a>(&'a self, voc: &'a Vocabulary) -> impl std::fmt::Display + 'a {
        struct D<'a>(&'a TBox, &'a Vocabulary);
        impl std::fmt::Display for D<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                for ax in &self.0.axioms {
                    writeln!(f, "{}", ax.display(self.1))?;
                }
                Ok(())
            }
        }
        D(self, voc)
    }
}

/// Convenience builder used by tests, examples and the LUBM generator.
///
/// Wraps a [`Vocabulary`] and a [`TBox`] and exposes name-based axiom
/// construction: `b.sub("PhDStudent", "Researcher")`.
#[derive(Debug, Default)]
pub struct TBoxBuilder {
    pub voc: Vocabulary,
    pub tbox: TBox,
}

impl TBoxBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse a basic-concept spec: `"A"`, `"exists r"`, `"exists r-"`.
    pub fn basic(&mut self, spec: &str) -> BasicConcept {
        let spec = spec.trim();
        if let Some(role_part) = spec.strip_prefix("exists ") {
            BasicConcept::Exists(self.role_expr(role_part))
        } else {
            BasicConcept::Atomic(self.voc.concept(spec))
        }
    }

    /// Parse a role spec: `"r"` or `"r-"`.
    pub fn role_expr(&mut self, spec: &str) -> Role {
        let spec = spec.trim();
        if let Some(name) = spec.strip_suffix('-') {
            Role::inv(self.voc.role(name))
        } else {
            Role::direct(self.voc.role(spec))
        }
    }

    /// Positive concept inclusion from specs.
    pub fn sub(&mut self, lhs: &str, rhs: &str) -> &mut Self {
        let l = self.basic(lhs);
        let r = self.basic(rhs);
        self.tbox.add(Axiom::concept(l, r));
        self
    }

    /// Negative concept inclusion (`lhs ⊑ ¬rhs`) from specs.
    pub fn disjoint(&mut self, lhs: &str, rhs: &str) -> &mut Self {
        let l = self.basic(lhs);
        let r = self.basic(rhs);
        self.tbox.add(Axiom::concept_neg(l, r));
        self
    }

    /// Positive role inclusion from specs.
    pub fn sub_role(&mut self, lhs: &str, rhs: &str) -> &mut Self {
        let l = self.role_expr(lhs);
        let r = self.role_expr(rhs);
        self.tbox.add(Axiom::role(l, r));
        self
    }

    /// Negative role inclusion from specs.
    pub fn disjoint_role(&mut self, lhs: &str, rhs: &str) -> &mut Self {
        let l = self.role_expr(lhs);
        let r = self.role_expr(rhs);
        self.tbox.add(Axiom::role_neg(l, r));
        self
    }

    pub fn finish(self) -> (Vocabulary, TBox) {
        (self.voc, self.tbox)
    }
}

/// Build the sample TBox of paper Table 2 (Example 1). Used across the
/// workspace in tests and docs.
pub fn example1_tbox() -> (Vocabulary, TBox) {
    let mut b = TBoxBuilder::new();
    b.sub("PhDStudent", "Researcher") // (T1)
        .sub("exists worksWith", "Researcher") // (T2)
        .sub("exists worksWith-", "Researcher") // (T3)
        .sub_role("worksWith", "worksWith-") // (T4)
        .sub_role("supervisedBy", "worksWith") // (T5)
        .sub("exists supervisedBy", "PhDStudent") // (T6)
        .disjoint("PhDStudent", "exists supervisedBy-"); // (T7)
    b.finish()
}

/// Build the running-example TBox of paper Example 7:
/// `Graduate ⊑ ∃supervisedBy`, `supervisedBy ⊑ worksWith`.
pub fn example7_tbox() -> (Vocabulary, TBox) {
    let mut b = TBoxBuilder::new();
    // Intern the concepts/roles in a stable order first so tests can rely
    // on ids: PhDStudent, Graduate, worksWith, supervisedBy.
    b.voc.concept("PhDStudent");
    b.voc.concept("Graduate");
    b.voc.role("worksWith");
    b.voc.role("supervisedBy");
    b.sub("Graduate", "exists supervisedBy")
        .sub_role("supervisedBy", "worksWith");
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ConceptId;

    #[test]
    fn add_deduplicates() {
        let (_, mut tbox) = example1_tbox();
        let n = tbox.len();
        let a = BasicConcept::Atomic(ConceptId(0));
        let b = BasicConcept::Atomic(ConceptId(1));
        assert!(!tbox.add(Axiom::concept(a, b)), "T1 already present");
        assert_eq!(tbox.len(), n);
    }

    #[test]
    fn example1_has_expected_shape() {
        let (voc, tbox) = example1_tbox();
        assert_eq!(tbox.len(), 7);
        assert_eq!(tbox.num_positive(), 6);
        assert_eq!(tbox.num_negative(), 1);
        assert_eq!(voc.num_concepts(), 2); // PhDStudent, Researcher
        assert_eq!(voc.num_roles(), 2); // worksWith, supervisedBy
    }

    #[test]
    fn rhs_index_finds_backward_applicable_axioms() {
        let (voc, tbox) = example1_tbox();
        let researcher = voc.find_concept("Researcher").unwrap();
        let into_researcher = tbox.concept_inclusions_into(BasicConcept::Atomic(researcher));
        // T1, T2, T3 all conclude Researcher.
        assert_eq!(into_researcher.len(), 3);

        let works = voc.find_role("worksWith").unwrap();
        let into_works = tbox.role_inclusions_into(works);
        // T4 (worksWith ⊑ worksWith⁻, normalized to worksWith⁻ ⊑ worksWith)
        // and T5 (supervisedBy ⊑ worksWith).
        assert_eq!(into_works.len(), 2);
        for ri in into_works {
            assert!(!ri.rhs.inverse, "index stores normalized inclusions");
            assert_eq!(ri.rhs.name, works);
        }
    }

    #[test]
    fn negative_axioms_not_indexed_for_backward_application() {
        let (voc, tbox) = example1_tbox();
        let sup = voc.find_role("supervisedBy").unwrap();
        let phd = voc.find_concept("PhDStudent").unwrap();
        // T7 is PhDStudent ⊑ ¬∃supervisedBy⁻; it must not show up as a way
        // to derive ∃supervisedBy⁻.
        let bucket = tbox.concept_inclusions_into(BasicConcept::Exists(Role::inv(sup)));
        assert!(bucket.iter().all(|ci| !ci.negated));
        assert!(bucket.is_empty());
        // ...but T6's bucket (into PhDStudent) exists.
        assert_eq!(
            tbox.concept_inclusions_into(BasicConcept::Atomic(phd))
                .len(),
            1
        );
    }

    #[test]
    fn builder_parses_inverse_and_exists() {
        let mut b = TBoxBuilder::new();
        let e = b.basic("exists r-");
        match e {
            BasicConcept::Exists(r) => assert!(r.inverse),
            _ => panic!("expected exists"),
        }
        let a = b.basic("Plain");
        assert!(matches!(a, BasicConcept::Atomic(_)));
    }
}
