//! Constraint-driven pruning of reformulations (Hovland et al.,
//! arXiv 1605.04263, adapted to the cover-based pipeline).
//!
//! A UCQ reformulation unions every TBox-entailed specialization of the
//! input CQ, because the data may be incomplete. Given a
//! [`ConstraintSet`] mined from the *actual* snapshot, two kinds of arms
//! are provably redundant on that snapshot:
//!
//! * **provably empty** — an arm mentioning a predicate whose extent is
//!   empty can return no rows;
//! * **data-subsumed** — an arm whose answers are contained in a
//!   retained arm's answers *on any database satisfying the
//!   constraints*, witnessed by a constraint-relaxed homomorphism
//!   ([`data_contained`]).
//!
//! Both checks are per-snapshot facts, so pruned plans are only valid
//! for the generation whose constraints produced them — the serving
//! layer guarantees this by caching plans and constraints under the
//! same generation key.
//!
//! Soundness of [`data_contained`]`(sub, keeper, cons)`: it searches for
//! a map `h` from `keeper`'s variables to `sub`'s terms such that heads
//! agree positionally and every `keeper` atom `a` is *covered* by some
//! `sub` atom `t` — satisfaction of `t` implies satisfaction of `h(a)`
//! under the mined extent inclusions (with inverse-role position swaps,
//! and concept↔role crossings through `∃R`/`∃R⁻` extents). For any row
//! of `sub` with witness assignment `σ`, `σ∘h` (extended with the
//! existential witnesses the `∃`-coverages provide for `keeper`'s
//! unbound variables) then satisfies `keeper` with the same head row —
//! so dropping `sub` loses nothing. With an empty constraint set the
//! relation degenerates to the classic homomorphism containment used by
//! UCQ minimization.

use obda_dllite::constraints::ConstraintSet;
use obda_dllite::{BasicConcept, PredId, Role};
use obda_query::{Atom, FolQuery, Term, VarId, CQ, JUCQ, UCQ};

/// Counters from one pruning pass (surfaced by EXPLAIN, the metrics
/// registry, and the benches).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PruneStats {
    /// Union arms examined.
    pub arms_in: usize,
    /// Arms dropped because a predicate's extent is empty.
    pub empty_pruned: usize,
    /// Arms dropped because a retained arm data-subsumes them.
    pub subsumed_pruned: usize,
    /// Arms kept.
    pub kept: usize,
}

impl PruneStats {
    pub fn total_pruned(&self) -> usize {
        self.empty_pruned + self.subsumed_pruned
    }

    fn absorb(&mut self, other: &PruneStats) {
        self.arms_in += other.arms_in;
        self.empty_pruned += other.empty_pruned;
        self.subsumed_pruned += other.subsumed_pruned;
        self.kept += other.kept;
    }
}

/// Result of pruning one UCQ: the survivors plus the dropped arms, kept
/// so harnesses can check every drop against a reference evaluator.
#[derive(Debug, Clone)]
pub struct PrunedUcq {
    pub ucq: UCQ,
    /// Arms dropped by the emptiness check.
    pub empty_arms: Vec<CQ>,
    /// Arms dropped by data-subsumption.
    pub subsumed_arms: Vec<CQ>,
}

impl PrunedUcq {
    pub fn stats(&self) -> PruneStats {
        PruneStats {
            arms_in: self.ucq.len() + self.empty_arms.len() + self.subsumed_arms.len(),
            empty_pruned: self.empty_arms.len(),
            subsumed_pruned: self.subsumed_arms.len(),
            kept: self.ucq.len(),
        }
    }
}

/// Does the arm mention a predicate with a provably empty extent?
pub fn arm_provably_empty(cq: &CQ, cons: &ConstraintSet) -> bool {
    cq.atoms().iter().any(|a| cons.pred_is_empty(a.pred()))
}

/// Prune a UCQ against mined constraints. The union is never emptied
/// completely: if every arm is provably empty, the cheapest one is kept
/// as a representative so downstream SQL generation still has a valid
/// statement (it evaluates over empty extents at negligible cost).
///
/// Arms are handled by index until the end, where each is copied once
/// into the survivors or the dropped lists; the pairwise search itself
/// allocates nothing per pair. In unions of four live arms or more, a
/// pair whose predicates rule containment out skips the search.
pub fn prune_ucq(ucq: &UCQ, cons: &ConstraintSet) -> PrunedUcq {
    let arms = ucq.cqs();
    let (mut live, mut empty): (Vec<usize>, Vec<usize>) =
        (0..arms.len()).partition(|&i| !arm_provably_empty(&arms[i], cons));
    if live.is_empty() {
        if let Some(pos) = (0..empty.len()).min_by_key(|&i| arms[empty[i]].num_atoms()) {
            live.push(empty.remove(pos));
        }
    }

    // Each live arm's unbound variables, worked out once, not once per
    // pair: those of `live[k]` are `unbound[ends[k - 1]..ends[k]]`.
    let (mut unbound, mut ends, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
    for &arm in &live {
        arms[arm].unbound_vars_into(&mut scratch);
        unbound.extend_from_slice(&scratch);
        ends.push(unbound.len());
    }
    let unbound_of = |k: usize| &unbound[if k == 0 { 0 } else { ends[k - 1] }..ends[k]];

    // Pairwise data-subsumption, mirroring `minimize_ucq`: arm `j` is
    // dropped when a still-kept arm `i` data-contains it; mutual
    // containment keeps the earlier arm (deterministic given the input
    // order, which the reformulation fixes).
    let filter = (live.len() >= FILTER_MIN_ARMS).then(|| CoverFilter::new(arms, &live, cons));
    let mut bindings = Vec::new();
    let mut contained = |sub: usize, keeper: usize| {
        filter.as_ref().is_none_or(|f| f.may_cover(sub, keeper))
            && covered_by(
                &arms[live[sub]],
                &arms[live[keeper]],
                unbound_of(keeper),
                &mut bindings,
                cons,
            )
    };
    let n = live.len();
    let mut keep = vec![true; n];
    for i in 0..n {
        if !keep[i] {
            continue;
        }
        for j in 0..n {
            if i == j || !keep[j] || !keep[i] {
                continue;
            }
            if contained(j, i) {
                if contained(i, j) && j < i {
                    keep[i] = false;
                } else {
                    keep[j] = false;
                }
            }
        }
    }
    let mut kept = vec![false; arms.len()];
    let mut subsumed_arms = Vec::new();
    for (&arm, &k) in live.iter().zip(&keep) {
        if k {
            kept[arm] = true;
        } else {
            subsumed_arms.push(arms[arm].clone());
        }
    }
    PrunedUcq {
        ucq: ucq.select(|i| kept[i]),
        empty_arms: empty.iter().map(|&i| arms[i].clone()).collect(),
        subsumed_arms,
    }
}

/// The fewest live arms for which [`prune_ucq`] builds a [`CoverFilter`]:
/// a smaller union has at most six ordered pairs to search, so a filter
/// could save little there.
const FILTER_MIN_ARMS: usize = 4;

/// Which live arms can data-contain which, judged by predicates alone.
/// [`covered_by`] must cover every keeper atom by some sub atom, so the
/// keeper's predicates (its *signature*) must lie inside the predicates
/// the sub's atoms can cover (its *reach*). That is a necessary condition
/// only: a pair that passes still runs the search, so the same arms are
/// kept.
struct CoverFilter {
    /// Words per bitset: one bit per distinct predicate of the live arms.
    words: usize,
    /// Per live arm, its signature's words, then its reach's.
    bits: Vec<u64>,
}

impl CoverFilter {
    fn new(arms: &[CQ], live: &[usize], cons: &ConstraintSet) -> Self {
        // A predicate's bit is its index among the live arms' distinct
        // predicates, sorted.
        let mut preds: Vec<PredId> =
            Vec::with_capacity(live.iter().map(|&arm| arms[arm].num_atoms()).sum());
        for &arm in live {
            preds.extend(arms[arm].atoms().iter().map(Atom::pred));
        }
        preds.sort_unstable();
        preds.dedup();
        let words = preds.len().div_ceil(64);
        // `coverable[s]`: the predicates an atom over `preds[s]` can
        // cover. Over canonical atoms whose keeper variables are all
        // unbound, `coverage_modes` finds every mode that any pair of
        // atoms over the same two predicates has, and maybe more.
        let (x, y) = (VarId(0), VarId(1));
        let canonical = |p: PredId| match p {
            PredId::Concept(c) => Atom::Concept(c, Term::Var(x)),
            PredId::Role(r) => Atom::Role(r, Term::Var(x), Term::Var(y)),
        };
        let mut coverable = vec![0u64; preds.len() * words];
        for (s, &sub) in preds.iter().enumerate() {
            let t = canonical(sub);
            for (k, &keeper) in preds.iter().enumerate() {
                if coverage_modes(&canonical(keeper), &t, &[x, y], cons).len > 0 {
                    coverable[s * words + k / 64] |= 1 << (k % 64);
                }
            }
        }
        let mut bits = vec![0u64; live.len() * 2 * words];
        for (arm, arm_bits) in live.iter().zip(bits.chunks_exact_mut(2 * words)) {
            let (signature, reach) = arm_bits.split_at_mut(words);
            for atom in arms[*arm].atoms() {
                let p = preds
                    .binary_search(&atom.pred())
                    .expect("a live arm's predicate");
                signature[p / 64] |= 1 << (p % 64);
                for (r, c) in reach.iter_mut().zip(&coverable[p * words..(p + 1) * words]) {
                    *r |= c;
                }
            }
        }
        CoverFilter { words, bits }
    }

    fn signature(&self, arm: usize) -> &[u64] {
        &self.bits[2 * arm * self.words..(2 * arm + 1) * self.words]
    }

    fn reach(&self, arm: usize) -> &[u64] {
        &self.bits[(2 * arm + 1) * self.words..(2 * arm + 2) * self.words]
    }

    /// May live arm `keeper` cover live arm `sub`? `false` proves that
    /// [`covered_by`] fails for the pair.
    fn may_cover(&self, sub: usize, keeper: usize) -> bool {
        self.signature(keeper)
            .iter()
            .zip(self.reach(sub))
            .all(|(s, r)| s & !r == 0)
    }
}

/// Prune any reformulation shape. UCQs are pruned directly; JUCQs are
/// pruned component-wise (sound: each component's answer relation is
/// preserved, hence so is the join). CQ and the factorized SCQ shapes
/// pass through unchanged.
pub fn prune_fol(fol: &FolQuery, cons: &ConstraintSet) -> (FolQuery, PruneStats) {
    match fol {
        FolQuery::Ucq(u) => {
            let p = prune_ucq(u, cons);
            let stats = p.stats();
            (FolQuery::Ucq(p.ucq), stats)
        }
        FolQuery::Jucq(j) => {
            let mut stats = PruneStats::default();
            let comps: Vec<UCQ> = j
                .components()
                .iter()
                .map(|c| {
                    let p = prune_ucq(c, cons);
                    stats.absorb(&p.stats());
                    p.ucq
                })
                .collect();
            (FolQuery::Jucq(JUCQ::new(j.head().to_vec(), comps)), stats)
        }
        other => (other.clone(), PruneStats::default()),
    }
}

/// Is `answers(sub) ⊆ answers(keeper)` on every database satisfying
/// `cons`? Sufficient check via a constraint-relaxed homomorphism from
/// `keeper` into `sub` (see the module docs for the soundness argument).
/// Reflexive over the classic containment: with no mined constraints
/// this is exactly `contained_in(sub, keeper)`.
pub fn data_contained(sub: &CQ, keeper: &CQ, cons: &ConstraintSet) -> bool {
    covered_by(sub, keeper, &keeper.unbound_vars(), &mut Vec::new(), cons)
}

/// [`data_contained`], given `keeper`'s unbound variables
/// ([`CQ::unbound_vars`]) and a buffer for the mapping.
fn covered_by(
    sub: &CQ,
    keeper: &CQ,
    unbound: &[VarId],
    bindings: &mut Vec<(VarId, Term)>,
    cons: &ConstraintSet,
) -> bool {
    if keeper.head().len() != sub.head().len() {
        return false;
    }
    bindings.clear();
    // Seed the mapping from the heads: position i of keeper must land on
    // position i of sub.
    for (kt, st) in keeper.head().iter().zip(sub.head()) {
        if !bind(bindings, *kt, *st) {
            return false;
        }
    }
    search(keeper.atoms(), 0, sub, unbound, bindings, cons)
}

/// Try to extend the mapping with `keeper-term ↦ sub-term`. The mapping
/// is a short list of `(keeper variable, sub term)` pairs that doubles as
/// its own undo trail: backtracking truncates it.
fn bind(bindings: &mut Vec<(VarId, Term)>, kt: Term, st: Term) -> bool {
    match kt {
        Term::Const(c) => st == Term::Const(c),
        Term::Var(v) => match bindings.iter().find(|(w, _)| *w == v) {
            Some(&(_, prev)) => prev == st,
            None => {
                bindings.push((v, st));
                true
            }
        },
    }
}

/// One way a `sub` atom can cover a `keeper` atom: the positional
/// `(keeper-term, sub-term)` pairs that must unify, at most two. Pairs
/// omitted by `∃`-coverage correspond to unbound keeper variables whose
/// witness the constraint supplies.
#[derive(Clone, Copy)]
struct Mode {
    pairs: [(Term, Term); 2],
    len: usize,
}

/// A placeholder for the unused entries of [`Modes`].
const NO_MODE: Mode = Mode {
    pairs: [(Term::Var(VarId(0)), Term::Var(VarId(0))); 2],
    len: 0,
};

impl Mode {
    fn pairs(&self) -> &[(Term, Term)] {
        &self.pairs[..self.len]
    }
}

/// Every [`Mode`] of one pair of atoms, held inline: a role atom covering
/// a role atom has the most, two exact ones and two for each unbound
/// position.
struct Modes {
    modes: [Mode; 6],
    len: usize,
}

impl Modes {
    fn push(&mut self, pairs: &[(Term, Term)]) {
        let mode = &mut self.modes[self.len];
        mode.pairs[..pairs.len()].copy_from_slice(pairs);
        mode.len = pairs.len();
        self.len += 1;
    }

    fn as_slice(&self) -> &[Mode] {
        &self.modes[..self.len]
    }
}

/// The ways `t` can cover `a` (see [`Mode`]).
fn coverage_modes(a: &Atom, t: &Atom, unbound: &[VarId], cons: &ConstraintSet) -> Modes {
    let is_unbound = |term: &Term| matches!(term, Term::Var(v) if unbound.contains(v));
    let mut modes = Modes {
        modes: [NO_MODE; 6],
        len: 0,
    };
    match *a {
        Atom::Concept(c, tau) => {
            let target = BasicConcept::Atomic(c);
            match *t {
                Atom::Concept(c2, s1) => {
                    if cons.unary_included(BasicConcept::Atomic(c2), target) {
                        modes.push(&[(tau, s1)]);
                    }
                }
                Atom::Role(r2, s1, s2) => {
                    if cons.unary_included(BasicConcept::Exists(Role::direct(r2)), target) {
                        modes.push(&[(tau, s1)]);
                    }
                    if cons.unary_included(BasicConcept::Exists(Role::inv(r2)), target) {
                        modes.push(&[(tau, s2)]);
                    }
                }
            }
        }
        Atom::Role(r, tau1, tau2) => {
            let direct = Role::direct(r);
            // Exact coverage: both positions map.
            if let Atom::Role(r2, s1, s2) = *t {
                if cons.role_included(Role::direct(r2), direct) {
                    modes.push(&[(tau1, s1), (tau2, s2)]);
                }
                if cons.role_included(Role::inv(r2), direct) {
                    modes.push(&[(tau1, s2), (tau2, s1)]);
                }
            }
            // ∃-coverage: an unbound object variable only needs a
            // witness, which membership in ext(∃r) provides.
            if is_unbound(&tau2) {
                let dom = BasicConcept::Exists(direct);
                match *t {
                    Atom::Concept(c2, s1) => {
                        if cons.unary_included(BasicConcept::Atomic(c2), dom) {
                            modes.push(&[(tau1, s1)]);
                        }
                    }
                    Atom::Role(r2, s1, s2) => {
                        if cons.unary_included(BasicConcept::Exists(Role::direct(r2)), dom) {
                            modes.push(&[(tau1, s1)]);
                        }
                        if cons.unary_included(BasicConcept::Exists(Role::inv(r2)), dom) {
                            modes.push(&[(tau1, s2)]);
                        }
                    }
                }
            }
            // Symmetric for an unbound subject variable via ext(∃r⁻).
            if is_unbound(&tau1) {
                let rng = BasicConcept::Exists(direct.inverted());
                match *t {
                    Atom::Concept(c2, s1) => {
                        if cons.unary_included(BasicConcept::Atomic(c2), rng) {
                            modes.push(&[(tau2, s1)]);
                        }
                    }
                    Atom::Role(r2, s1, s2) => {
                        if cons.unary_included(BasicConcept::Exists(Role::direct(r2)), rng) {
                            modes.push(&[(tau2, s1)]);
                        }
                        if cons.unary_included(BasicConcept::Exists(Role::inv(r2)), rng) {
                            modes.push(&[(tau2, s2)]);
                        }
                    }
                }
            }
        }
    }
    modes
}

/// Backtracking search: cover keeper atom `idx` and onwards.
fn search(
    atoms: &[Atom],
    idx: usize,
    sub: &CQ,
    unbound: &[VarId],
    bindings: &mut Vec<(VarId, Term)>,
    cons: &ConstraintSet,
) -> bool {
    let Some(a) = atoms.get(idx) else {
        return true;
    };
    for t in sub.atoms() {
        for mode in coverage_modes(a, t, unbound, cons).as_slice() {
            let mark = bindings.len();
            if mode.pairs().iter().all(|&(kt, st)| bind(bindings, kt, st))
                && search(atoms, idx + 1, sub, unbound, bindings, cons)
            {
                return true;
            }
            bindings.truncate(mark);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::{ABox, ConceptId, RoleId, TBoxBuilder, Vocabulary};
    use obda_query::testkit::{random_abox, random_cq_with_head_arity, random_tbox, KbShape, Rng};
    use proptest::prelude::*;

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    /// PhDStudent ⊑ Student, data complete for the pair; advises domain
    /// complete for Professor; Lecturer empty.
    fn fixture() -> (obda_dllite::Vocabulary, ConstraintSet) {
        let mut b = TBoxBuilder::new();
        b.sub("PhDStudent", "Student")
            .sub("Lecturer", "Student")
            .sub("exists advises", "Professor")
            .sub("Professor", "exists advises");
        let (mut voc, tbox) = b.finish();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let student = voc.find_concept("Student").unwrap();
        let prof = voc.find_concept("Professor").unwrap();
        let advises = voc.find_role("advises").unwrap();
        let a = voc.individual("a");
        let b_ = voc.individual("b");
        let mut abox = ABox::new();
        abox.assert_concept(phd, a);
        abox.assert_concept(student, a);
        abox.assert_concept(student, b_);
        abox.assert_role(advises, a, b_);
        abox.assert_concept(prof, a);
        let cons = ConstraintSet::mine_from_abox(&tbox, &abox);
        (voc, cons)
    }

    #[test]
    fn empty_arms_are_dropped() {
        let (voc, cons) = fixture();
        let student = voc.find_concept("Student").unwrap();
        let lecturer = voc.find_concept("Lecturer").unwrap();
        let u = UCQ::from_cqs(
            vec![v(0)],
            [
                CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(student, v(0))]),
                CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(lecturer, v(0))]),
            ],
        );
        let p = prune_ucq(&u, &cons);
        assert_eq!(p.ucq.len(), 1);
        assert_eq!(p.empty_arms.len(), 1);
        assert_eq!(p.stats().empty_pruned, 1);
    }

    #[test]
    fn complete_specialization_is_subsumed() {
        let (voc, cons) = fixture();
        let student = voc.find_concept("Student").unwrap();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let u = UCQ::from_cqs(
            vec![v(0)],
            [
                CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(student, v(0))]),
                CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(phd, v(0))]),
            ],
        );
        let p = prune_ucq(&u, &cons);
        assert_eq!(p.ucq.len(), 1, "PhD arm is covered by the Student arm");
        assert_eq!(p.subsumed_arms.len(), 1);
        assert!(matches!(
            p.ucq.cqs()[0].atoms()[0],
            Atom::Concept(c, _) if c == student
        ));
    }

    #[test]
    fn incomplete_specialization_is_kept() {
        let (voc, cons) = fixture();
        // Student does not data-include PhDStudent in the other
        // direction, so a Student arm is NOT pruned by a PhD arm.
        let student = voc.find_concept("Student").unwrap();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let u = UCQ::from_cqs(
            vec![v(0)],
            [
                CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(phd, v(0))]),
                CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(student, v(0))]),
            ],
        );
        // Keeper candidates: the PhD arm cannot absorb the Student arm.
        let p = prune_ucq(&u, &cons);
        assert_eq!(p.ucq.len(), 1, "but PhD is absorbed by Student");
        // The kept arm must be the Student one.
        assert!(matches!(
            p.ucq.cqs()[0].atoms()[0],
            Atom::Concept(c, _) if c == student
        ));
    }

    #[test]
    fn exists_coverage_handles_unbound_object() {
        let (voc, cons) = fixture();
        // keeper: q(x) <- advises(x, y) with y unbound; sub: q(x) <-
        // Professor(x). ext(Professor) ⊆ ext(∃advises) was mined, so the
        // Professor arm is data-contained in the advises arm.
        let prof = voc.find_concept("Professor").unwrap();
        let advises = voc.find_role("advises").unwrap();
        let keeper = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(advises, v(0), v(1))]);
        let sub = CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(prof, v(0))]);
        assert!(data_contained(&sub, &keeper, &cons));
        // A bound object variable must not use the ∃-coverage.
        let keeper_bound = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(advises, v(0), v(1)),
                Atom::Concept(voc.find_concept("Student").unwrap(), v(1)),
            ],
        );
        assert!(!data_contained(&sub, &keeper_bound, &cons));
    }

    #[test]
    fn plain_homomorphism_still_works_without_constraints() {
        let cons = ConstraintSet::default();
        let r = obda_dllite::RoleId(0);
        let general = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(r, v(0), v(1))]);
        let special = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(r, v(0), v(0))]);
        assert!(data_contained(&special, &general, &cons));
        assert!(!data_contained(&general, &special, &cons));
    }

    #[test]
    fn all_empty_union_keeps_a_representative() {
        let (voc, cons) = fixture();
        let lecturer = voc.find_concept("Lecturer").unwrap();
        let u = UCQ::single(CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(lecturer, v(0))],
        ));
        let p = prune_ucq(&u, &cons);
        assert_eq!(p.ucq.len(), 1, "never emit an empty union");
        assert!(p.empty_arms.is_empty());
    }

    #[test]
    fn jucq_components_are_pruned_independently() {
        let (voc, cons) = fixture();
        let student = voc.find_concept("Student").unwrap();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let advises = voc.find_role("advises").unwrap();
        let c1 = UCQ::from_cqs(
            vec![v(0)],
            [
                CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(student, v(0))]),
                CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(phd, v(0))]),
            ],
        );
        let c2 = UCQ::single(CQ::with_var_head(
            vec![VarId(0), VarId(1)],
            vec![Atom::Role(advises, v(0), v(1))],
        ));
        let j = FolQuery::Jucq(JUCQ::new(vec![v(0), v(1)], vec![c1, c2]));
        let (pruned, stats) = prune_fol(&j, &cons);
        assert_eq!(stats.arms_in, 3);
        assert_eq!(stats.subsumed_pruned, 1);
        assert_eq!(stats.kept, 2);
        match pruned {
            FolQuery::Jucq(j2) => assert_eq!(j2.total_cqs(), 2),
            other => panic!("shape preserved, got {other:?}"),
        }
    }

    /// `keeper` with some atoms moved to another predicate over the same
    /// terms (a role's maybe reversed) and maybe one atom added: pairs
    /// that data-containment relates far more often than random ones do.
    fn variant(rng: &mut Rng, voc: &Vocabulary, keeper: &CQ) -> CQ {
        let mut atoms = keeper.atoms().to_vec();
        for atom in &mut atoms {
            if rng.chance(0.5) {
                *atom = match *atom {
                    Atom::Concept(_, t) => {
                        Atom::Concept(ConceptId(rng.below(voc.num_concepts()) as u32), t)
                    }
                    Atom::Role(_, s, t) => {
                        let r = RoleId(rng.below(voc.num_roles()) as u32);
                        if rng.chance(0.3) {
                            Atom::Role(r, t, s)
                        } else {
                            Atom::Role(r, s, t)
                        }
                    }
                };
            }
        }
        if rng.chance(0.3) {
            let vars: Vec<VarId> = keeper.atoms().iter().flat_map(|a| a.vars()).collect();
            let x = Term::Var(vars[rng.below(vars.len())]);
            atoms.push(Atom::Concept(
                ConceptId(rng.below(voc.num_concepts()) as u32),
                x,
            ));
        }
        CQ::new(keeper.head().to_vec(), atoms)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The filter only skips pairs the search would reject: whenever
        /// `data_contained(sub, keeper)` holds, the keeper's signature is
        /// inside the sub's reach. Random TBoxes and ABoxes give the
        /// mined constraint sets (and now and then none at all).
        #[test]
        fn data_containment_implies_signature_inside_reach(seed in 0u64..1_000_000) {
            let mut rng = Rng::new(seed);
            let shape = KbShape {
                num_axioms: 4 + rng.below(12),
                num_facts: 10 + rng.below(40),
                existential_bias: 0.4,
                ..KbShape::default()
            };
            let (mut voc, tbox) = random_tbox(&mut rng, &shape);
            let abox = random_abox(&mut rng, &mut voc, &shape);
            let cons = if rng.chance(0.1) {
                ConstraintSet::default()
            } else {
                ConstraintSet::mine_from_abox(&tbox, &abox)
            };
            let arity = 1 + rng.below(2);
            let atoms = 1 + rng.below(4);
            let keeper = random_cq_with_head_arity(&mut rng, &voc, atoms, arity);
            let mut others = vec![keeper.clone()];
            for _ in 0..4 {
                others.push(variant(&mut rng, &voc, &keeper));
            }
            let atoms = 1 + rng.below(4);
            others.push(random_cq_with_head_arity(&mut rng, &voc, atoms, arity));
            for other in &others {
                let arms = [other.clone(), keeper.clone()];
                let filter = CoverFilter::new(&arms, &[0, 1], &cons);
                for (sub, keeper) in [(0, 1), (1, 0)] {
                    if data_contained(&arms[sub], &arms[keeper], &cons) {
                        prop_assert!(
                            filter.may_cover(sub, keeper),
                            "{:?} contained in {:?}",
                            arms[sub],
                            arms[keeper]
                        );
                    }
                }
            }
        }
    }
}
