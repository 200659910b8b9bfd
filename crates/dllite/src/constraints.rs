//! ABox completeness constraints: data-level extent inclusions mined per
//! snapshot generation, used to prune UCQ/JUCQ reformulations.
//!
//! Following Hovland et al., "OBDA Constraints for Effective Query
//! Answering" (arXiv 1605.04263): a DL-LiteR reformulation compensates
//! for *incomplete* data by unioning every TBox-entailed specialization
//! of every atom. When the stored data happens to be complete for a pair
//! of predicates — every `C'`-member is already asserted as `C`, or a
//! role's pairs are already present under a super-role — the
//! specialized union arms retrieve nothing new and can be dropped
//! *before* SQL generation. Likewise, arms over predicates with empty
//! extents retrieve nothing at all.
//!
//! A [`ConstraintSet`] is a set of facts about one concrete ABox
//! snapshot:
//!
//! * **emptiness** — predicate `p` has no facts;
//! * **unary inclusions** — `ext(b1) ⊆ ext(b2)` between basic-concept
//!   extents, where `ext(A)` is the asserted members of `A`,
//!   `ext(∃R)` the asserted subjects of `R`, and `ext(∃R⁻)` its
//!   asserted objects;
//! * **role inclusions** — `pairs(R1) ⊆ pairs(R2)` between role
//!   expressions (inverses swap the pair).
//!
//! Candidate pairs are taken from the [`TBoxClosure`]: PerfectRef only
//! specializes atoms along entailed inclusions, so those are the only
//! pairs a pruner ever consults. Both directions of each closure edge
//! are tested — the *completeness* direction (`ext(sub) ⊆ ext(sup)`,
//! i.e. the data already asserts the general predicate) is the one that
//! licenses dropping specialized arms.
//!
//! Constraints are true of exactly one generation. Callers must re-mine
//! (or [`ConstraintSet::holds_on`]-validate) after any write; the
//! serving layer does this structurally by caching the set on the
//! per-generation engine snapshot.

use crate::abox::ABox;
use crate::expr::{BasicConcept, Role};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ids::{ConceptId, PredId, RoleId};
use crate::saturation::TBoxClosure;
use crate::tbox::TBox;

/// Materialized per-predicate extents of one ABox snapshot — the input
/// to constraint mining. Built in one pass from an [`ABox`], or by a
/// storage layout scanning its own tables.
#[derive(Debug, Default, Clone)]
pub struct Extents {
    pub concepts: FxHashMap<ConceptId, FxHashSet<u32>>,
    pub roles: FxHashMap<RoleId, FxHashSet<(u32, u32)>>,
}

impl Extents {
    pub fn from_abox(abox: &ABox) -> Self {
        let mut e = Extents::default();
        for &(c, a) in abox.concept_assertions() {
            e.concepts.entry(c).or_default().insert(a.0);
        }
        for &(r, a, b) in abox.role_assertions() {
            e.roles.entry(r).or_default().insert((a.0, b.0));
        }
        e
    }

    fn pred_is_empty(&self, p: PredId) -> bool {
        match p {
            PredId::Concept(c) => self.concepts.get(&c).is_none_or(FxHashSet::is_empty),
            PredId::Role(r) => self.roles.get(&r).is_none_or(FxHashSet::is_empty),
        }
    }
}

/// Unary extents (`ext(A)`, `ext(∃R)`, `ext(∃R⁻)`) over an [`Extents`],
/// shared across all closure-pair checks of one mining run. Concept
/// extents are borrowed as stored; role projections are materialized on
/// first use.
struct UnaryCache<'a> {
    ext: &'a Extents,
    projections: FxHashMap<Role, FxHashSet<u32>>,
    empty: FxHashSet<u32>,
}

impl<'a> UnaryCache<'a> {
    fn new(ext: &'a Extents) -> Self {
        UnaryCache {
            ext,
            projections: FxHashMap::default(),
            empty: FxHashSet::default(),
        }
    }

    fn materialize(&mut self, b: BasicConcept) {
        if let BasicConcept::Exists(r) = b {
            let ext = self.ext;
            self.projections.entry(r).or_insert_with(|| {
                let pairs = ext.roles.get(&r.name).into_iter().flatten();
                pairs.map(|&(s, o)| if r.inverse { o } else { s }).collect()
            });
        }
    }

    /// The extent of `b`, which [`UnaryCache::materialize`] has seen.
    fn view(&self, b: BasicConcept) -> &FxHashSet<u32> {
        match b {
            BasicConcept::Atomic(c) => self.ext.concepts.get(&c).unwrap_or(&self.empty),
            BasicConcept::Exists(r) => &self.projections[&r],
        }
    }

    /// `ext(sub) ⊆ ext(sup)` on this snapshot?
    fn included(&mut self, sub: BasicConcept, sup: BasicConcept) -> bool {
        self.materialize(sub);
        self.materialize(sup);
        let (s, p) = (self.view(sub), self.view(sup));
        s.len() <= p.len() && s.iter().all(|x| p.contains(x))
    }
}

/// `pairs(sub) ⊆ pairs(sup)` over role expressions (inverse swaps).
fn role_ext_included(ext: &Extents, sub: Role, sup: Role) -> bool {
    let empty = FxHashSet::default();
    let subs = ext.roles.get(&sub.name).unwrap_or(&empty);
    let sups = ext.roles.get(&sup.name).unwrap_or(&empty);
    subs.iter().all(|&(a, b)| {
        let (a, b) = if sub.inverse { (b, a) } else { (a, b) };
        let key = if sup.inverse { (b, a) } else { (a, b) };
        sups.contains(&key)
    })
}

/// Summary counters from one mining run (surfaced by EXPLAIN and the
/// benches).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MiningStats {
    /// Closure pairs whose extents were compared (each direction counts).
    pub pairs_checked: usize,
    /// Predicates found empty.
    pub empty_preds: usize,
    /// Unary extent inclusions found to hold.
    pub unary_inclusions: usize,
    /// Role pair inclusions found to hold.
    pub role_inclusions: usize,
}

/// Completeness/exactness constraints of one ABox snapshot.
#[derive(Debug, Default, Clone)]
pub struct ConstraintSet {
    empty: FxHashSet<PredId>,
    /// `(b1, b2)` means `ext(b1) ⊆ ext(b2)` on the mined snapshot.
    unary: FxHashSet<(BasicConcept, BasicConcept)>,
    /// `(r1, r2)` means `pairs(r1) ⊆ pairs(r2)` on the mined snapshot
    /// (stored in both orientations, like the closure).
    roles: FxHashSet<(Role, Role)>,
    stats: MiningStats,
}

impl ConstraintSet {
    /// Mine constraints from materialized extents, guided by the TBox
    /// closure: only entailed inclusion pairs are compared (both
    /// directions), because those are the only edges along which
    /// PerfectRef specializes atoms.
    pub fn mine(closure: &TBoxClosure, ext: &Extents) -> Self {
        let mut set = ConstraintSet::default();
        let mut preds: FxHashSet<PredId> = FxHashSet::default();
        for (b1, b2) in closure.positive_concept_inclusions() {
            preds.insert(b1.cr());
            preds.insert(b2.cr());
        }
        for (r1, r2) in closure.positive_role_inclusions() {
            preds.insert(PredId::Role(r1.name));
            preds.insert(PredId::Role(r2.name));
        }
        // Emptiness across everything the snapshot knows about, plus
        // every predicate the closure mentions (a predicate with no
        // extent entry is empty too).
        preds.extend(ext.concepts.keys().map(|&c| PredId::Concept(c)));
        preds.extend(ext.roles.keys().map(|&r| PredId::Role(r)));
        for p in preds {
            if ext.pred_is_empty(p) {
                set.empty.insert(p);
            }
        }

        let mut unary = UnaryCache::new(ext);
        for (b1, b2) in closure.positive_concept_inclusions() {
            for (sub, sup) in [(b1, b2), (b2, b1)] {
                set.stats.pairs_checked += 1;
                if unary.included(sub, sup) {
                    set.unary.insert((sub, sup));
                }
            }
        }
        for (r1, r2) in closure.positive_role_inclusions() {
            for (sub, sup) in [(r1, r2), (r2, r1)] {
                set.stats.pairs_checked += 1;
                if role_ext_included(ext, sub, sup) {
                    // Store both orientations so lookups need no
                    // normalization: pairs(r1) ⊆ pairs(r2) iff
                    // pairs(r1⁻) ⊆ pairs(r2⁻).
                    set.roles.insert((sub, sup));
                    set.roles.insert((sub.inverted(), sup.inverted()));
                }
            }
        }
        set.stats.empty_preds = set.empty.len();
        set.stats.unary_inclusions = set.unary.len();
        set.stats.role_inclusions = set.roles.len();
        set
    }

    /// Convenience: saturate `tbox` and mine straight from an ABox.
    pub fn mine_from_abox(tbox: &TBox, abox: &ABox) -> Self {
        Self::mine(&TBoxClosure::compute(tbox), &Extents::from_abox(abox))
    }

    /// Does predicate `p` have an empty extent on the mined snapshot?
    pub fn pred_is_empty(&self, p: PredId) -> bool {
        self.empty.contains(&p)
    }

    /// The predicates that are **dead** on the mined snapshot, sorted: a
    /// dead predicate has no facts and neither has any predicate the
    /// `closure` entails into it, so no specialisation of an atom over it
    /// can match anything. Emptiness alone is not enough: an empty
    /// predicate with facts below it (LUBM's `Person`) answers through
    /// its specialisations. `closure` must be the mined TBox's.
    pub fn dead_predicates(&self, closure: &TBoxClosure) -> Vec<PredId> {
        let mut fed: FxHashSet<PredId> = FxHashSet::default();
        for (sub, sup) in closure.positive_concept_inclusions() {
            if !self.pred_is_empty(sub.cr()) {
                fed.insert(sup.cr());
            }
        }
        for (sub, sup) in closure.positive_role_inclusions() {
            if !self.pred_is_empty(sub.cr()) {
                fed.insert(sup.cr());
            }
        }
        let mut dead: Vec<PredId> = self.empty.difference(&fed).copied().collect();
        dead.sort_unstable();
        dead
    }

    /// `ext(sub) ⊆ ext(sup)` on the mined snapshot? Reflexivity included,
    /// so the plain (constraint-free) homomorphism is a special case.
    pub fn unary_included(&self, sub: BasicConcept, sup: BasicConcept) -> bool {
        sub == sup || self.unary.contains(&(sub, sup))
    }

    /// `pairs(sub) ⊆ pairs(sup)` on the mined snapshot? Reflexivity
    /// included.
    pub fn role_included(&self, sub: Role, sup: Role) -> bool {
        sub == sup || self.roles.contains(&(sub, sup))
    }

    pub fn stats(&self) -> MiningStats {
        self.stats
    }

    /// Total mined facts (emptiness + inclusions) — a cheap size gauge
    /// for EXPLAIN and logs.
    pub fn len(&self) -> usize {
        self.empty.len() + self.unary.len() + self.roles.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Re-validate every mined constraint against `abox`. `true` iff all
    /// still hold. The mutation/property suites call this to prove that
    /// a write which breaks a constraint really is detected (and hence
    /// that serving a stale set would have been unsound — the serving
    /// layer prevents it by construction, re-mining per generation).
    pub fn holds_on(&self, abox: &ABox) -> bool {
        let ext = Extents::from_abox(abox);
        if self.empty.iter().any(|&p| !ext.pred_is_empty(p)) {
            return false;
        }
        let mut unary = UnaryCache::new(&ext);
        if !self
            .unary
            .iter()
            .all(|&(sub, sup)| unary.included(sub, sup))
        {
            return false;
        }
        self.roles
            .iter()
            .all(|&(sub, sup)| role_ext_included(&ext, sub, sup))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tbox::TBoxBuilder;
    use crate::vocab::Vocabulary;

    fn fixture() -> (Vocabulary, TBox, ABox) {
        let mut b = TBoxBuilder::new();
        b.sub("PhDStudent", "Student")
            .sub("Student", "Person")
            .sub("exists advises", "Professor")
            .sub("Professor", "Person")
            .sub_role("headOf", "worksFor");
        let (mut voc, tbox) = b.finish();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let student = voc.find_concept("Student").unwrap();
        let prof = voc.find_concept("Professor").unwrap();
        let advises = voc.find_role("advises").unwrap();
        let head = voc.find_role("headOf").unwrap();
        let works = voc.find_role("worksFor").unwrap();
        let a = voc.individual("a");
        let b_ = voc.individual("b");
        let c = voc.individual("c");
        let mut abox = ABox::new();
        // Complete: every PhDStudent is also asserted a Student.
        abox.assert_concept(phd, a);
        abox.assert_concept(student, a);
        abox.assert_concept(student, b_);
        // Complete: every advises subject is asserted a Professor.
        abox.assert_role(advises, c, a);
        abox.assert_concept(prof, c);
        // Complete: every headOf pair is also a worksFor pair.
        abox.assert_role(head, c, a);
        abox.assert_role(works, c, a);
        abox.assert_role(works, b_, a);
        (voc, tbox, abox)
    }

    #[test]
    fn mines_emptiness_and_inclusions() {
        let (voc, tbox, abox) = fixture();
        let cons = ConstraintSet::mine_from_abox(&tbox, &abox);
        let person = voc.find_concept("Person").unwrap();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let student = voc.find_concept("Student").unwrap();
        let prof = voc.find_concept("Professor").unwrap();
        let advises = voc.find_role("advises").unwrap();
        let head = voc.find_role("headOf").unwrap();
        let works = voc.find_role("worksFor").unwrap();
        // Person has no assertions at all.
        assert!(cons.pred_is_empty(PredId::Concept(person)));
        assert!(!cons.pred_is_empty(PredId::Concept(student)));
        // ext(PhDStudent) ⊆ ext(Student) but not conversely.
        assert!(cons.unary_included(BasicConcept::Atomic(phd), BasicConcept::Atomic(student)));
        assert!(!cons.unary_included(BasicConcept::Atomic(student), BasicConcept::Atomic(phd)));
        // ext(∃advises) ⊆ ext(Professor).
        assert!(cons.unary_included(
            BasicConcept::Exists(Role::direct(advises)),
            BasicConcept::Atomic(prof)
        ));
        // pairs(headOf) ⊆ pairs(worksFor), in both orientations.
        assert!(cons.role_included(Role::direct(head), Role::direct(works)));
        assert!(cons.role_included(Role::inv(head), Role::inv(works)));
        assert!(!cons.role_included(Role::direct(works), Role::direct(head)));
        // Reflexivity.
        assert!(cons.unary_included(BasicConcept::Atomic(phd), BasicConcept::Atomic(phd)));
        assert!(cons.role_included(Role::direct(head), Role::direct(head)));
        assert!(cons.len() > 0);
    }

    #[test]
    fn closure_guidance_only_compares_entailed_pairs() {
        // Student and Professor are not related by the TBox, so even if
        // their extents coincided, no inclusion would be mined.
        let mut b = TBoxBuilder::new();
        b.sub("Student", "Person").sub("Professor", "Person");
        let (mut voc, tbox) = b.finish();
        let student = voc.find_concept("Student").unwrap();
        let prof = voc.find_concept("Professor").unwrap();
        let x = voc.individual("x");
        let mut abox = ABox::new();
        abox.assert_concept(student, x);
        abox.assert_concept(prof, x);
        let cons = ConstraintSet::mine_from_abox(&tbox, &abox);
        assert!(!cons.unary_included(BasicConcept::Atomic(student), BasicConcept::Atomic(prof)));
    }

    #[test]
    fn holds_on_detects_broken_constraints() {
        let (mut voc, tbox, abox) = fixture();
        let cons = ConstraintSet::mine_from_abox(&tbox, &abox);
        assert!(cons.holds_on(&abox), "constraints hold where mined");

        // Break the PhDStudent ⊆ Student completeness.
        let phd = voc.find_concept("PhDStudent").unwrap();
        let fresh = voc.individual("fresh");
        let mut broken = abox.clone();
        broken.assert_concept(phd, fresh);
        assert!(!cons.holds_on(&broken), "new PhD without Student breaks it");

        // Break an emptiness constraint.
        let person = voc.find_concept("Person").unwrap();
        let mut broken2 = abox.clone();
        broken2.assert_concept(person, fresh);
        assert!(!cons.holds_on(&broken2), "Person is no longer empty");

        // A harmless write keeps everything valid.
        let student = voc.find_concept("Student").unwrap();
        let mut fine = abox.clone();
        fine.assert_concept(student, fresh);
        assert!(cons.holds_on(&fine));
    }

    #[test]
    fn deletion_can_break_inclusions() {
        let (mut voc, tbox, abox) = fixture();
        let cons = ConstraintSet::mine_from_abox(&tbox, &abox);
        let student = voc.find_concept("Student").unwrap();
        let a = voc.individual("a");
        let mut broken = abox.clone();
        // Removing Student(a) leaves PhDStudent(a) uncovered.
        broken.retract_concept(student, a);
        assert!(!cons.holds_on(&broken));
    }
}
