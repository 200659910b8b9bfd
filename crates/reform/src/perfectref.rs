//! PerfectRef: the CQ-to-UCQ reformulation of Calvanese et al. \[13\].
//!
//! §2.2 of the paper: the technique exhaustively applies two operations to
//! the input CQ —
//!
//! 1. **specializing** an atom by a backward application of a negation-free
//!    constraint (Table 3), and
//! 2. **specializing two atoms into their most general unifier** (the
//!    *reduce* step),
//!
//! each producing a CQ contained in its parent w.r.t. the TBox, until a
//! fixpoint. The union of all generated CQs is the UCQ reformulation:
//! `ans(q, ⟨T, A⟩) = ans(qUCQ, ⟨∅, A⟩)` for every `T`-consistent `A`.
//!
//! Recognising repeats is most of the fixpoint's work: on LUBM Q13 it
//! builds 90 994 candidate CQs, of which 19 004 are new. A candidate is
//! spelled into reused buffers and becomes a `CQ` only when it is new; a
//! bounded table of exact forms (`RecentForms`) settles most repeats
//! without a canonical labelling, and the rest are labelled into packed
//! `u32` keys held in an Fx-hashed set (`Run::push_new`).

use obda_dllite::TBox;
use obda_query::fxhash::{hash_words, FxHashSet};
use obda_query::{contained_in, mgu_preferring, Atom, Canonicaliser, Term, VarId, CQ, UCQ};

use crate::applicability::specializations;

/// Statistics of one reformulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReformStats {
    /// CQs in the result (after canonical dedup).
    pub generated: usize,
    /// Backward axiom applications attempted.
    pub axiom_applications: usize,
    /// Reduce (unification) steps attempted.
    pub reduce_steps: usize,
    /// Forward-subsumption tests (new candidate against an emitted
    /// disjunct) that passed the predicate-signature test and entered a
    /// homomorphism search. Zero for the exhaustive variant.
    pub containment_searches: usize,
    /// Forward-subsumption tests the signature test answered on its own.
    pub containment_filtered: usize,
    /// Candidate CQs the fixpoint built: one per backward axiom
    /// application and per reduce step with a non-trivial unifier.
    pub candidates: usize,
    /// Candidates that were canonically labelled to be looked up among the
    /// CQs generated so far. The others repeated, variable for variable, a
    /// candidate the run still remembered (see `Run::push_new`).
    pub canonicalised: usize,
}

/// Reformulate `q` w.r.t. `tbox` into its UCQ reformulation — the
/// *exhaustive* fixpoint of \[13\], generating every reachable CQ (the form
/// traced in the paper's Example 4 / Table 5).
pub fn perfect_ref(q: &CQ, tbox: &TBox) -> UCQ {
    perfect_ref_with_stats(q, tbox).0
}

/// Like [`perfect_ref`], also returning run statistics.
pub fn perfect_ref_with_stats(q: &CQ, tbox: &TBox) -> (UCQ, ReformStats) {
    run(q, tbox, false)
}

/// Output-subsumed reformulation — the production variant, standing in
/// for optimized rewriters like RAPID \[14\] (what the paper actually runs).
///
/// The fixpoint exploration is **exhaustive** (identical to
/// [`perfect_ref`] — pruning the exploration itself is unsound: a
/// specialized query can enable axiom applications its subsumer cannot),
/// but a generated CQ only enters the *output* union when it is not
/// plainly contained in an already-emitted disjunct. The result is
/// equivalent to the exhaustive UCQ (every dropped disjunct is subsumed by
/// a kept one) and usually orders of magnitude smaller, which keeps
/// downstream minimization cheap. Property tests cross-check it against
/// the chase oracle.
pub fn perfect_ref_pruned(q: &CQ, tbox: &TBox) -> UCQ {
    perfect_ref_pruned_with_stats(q, tbox).0
}

/// Like [`perfect_ref_pruned`], also returning run statistics.
pub fn perfect_ref_pruned_with_stats(q: &CQ, tbox: &TBox) -> (UCQ, ReformStats) {
    run(q, tbox, true)
}

fn run(q: &CQ, tbox: &TBox, prune: bool) -> (UCQ, ReformStats) {
    let mut run = Run {
        stats: ReformStats::default(),
        ucq: UCQ::single(q.clone()),
        seen: FxHashSet::default(),
        labeller: Canonicaliser::new(),
        forms: RecentForms::new(),
        frontier: vec![q.clone()],
        prune,
    };
    let key = run.labeller.packed_key(q.head(), q.atoms());
    run.seen.insert(key.into());
    let head_vars: Vec<VarId> = q.head_vars().collect();
    // Each candidate is spelled out in these buffers; only a new one
    // becomes a `CQ`.
    let (mut head, mut atoms) = (Vec::new(), Vec::new());
    while let Some(current) = run.frontier.pop() {
        // (a) backward constraint applications.
        for spec in specializations(&current, tbox, current.fresh_var()) {
            run.stats.axiom_applications += 1;
            atoms.clear();
            atoms.extend_from_slice(current.atoms());
            atoms[spec.atom_idx] = spec.replacement;
            run.push_new(current.head(), &mut atoms);
        }
        // (b) reduce: unify each pair of atoms.
        let n = current.num_atoms();
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (&current.atoms()[i], &current.atoms()[j]);
                if let Some(sigma) = mgu_preferring(a, b, &head_vars) {
                    run.stats.reduce_steps += 1;
                    if sigma.is_empty() {
                        continue; // identical atoms — CQ::new dedups anyway
                    }
                    // `current.apply(&sigma)`, spelled into the buffers.
                    head.clear();
                    head.extend(current.head().iter().map(|&t| sigma.resolve(t)));
                    atoms.clear();
                    atoms.extend(current.atoms().iter().map(|a| a.apply(&sigma)));
                    run.push_new(&head, &mut atoms);
                }
            }
        }
    }
    run.stats.generated = run.ucq.len();
    (run.ucq, run.stats)
}

/// The state of one fixpoint computation.
struct Run {
    stats: ReformStats,
    /// The output union.
    ucq: UCQ,
    /// The packed canonical key of every CQ generated so far, emitted or
    /// not.
    seen: FxHashSet<Box<[u32]>>,
    labeller: Canonicaliser,
    /// Candidates labelled lately, exactly as they were built.
    forms: RecentForms,
    frontier: Vec<CQ>,
    prune: bool,
}

impl Run {
    /// Offer the candidate `head ← atoms`, its atoms as built: repeats
    /// are dropped here, keeping first occurrences, as `CQ::new` would.
    ///
    /// Most candidates were generated before: two independent
    /// specialisations applied in either order build the same CQ twice,
    /// with the same variable ids. So before labelling, the candidate is
    /// looked up exactly in `forms`. That is sound because a form enters
    /// `forms` only below, once its canonical key is in `seen` (inserted
    /// by this call or an earlier one), and `seen` never shrinks: a form
    /// found there is a CQ already generated, and skipping it is what the
    /// key lookup would have done. Eviction only costs a later repeat its
    /// labelling. The output — the disjuncts, their order and their
    /// variable ids — does not depend on what `forms` holds.
    fn push_new(&mut self, head: &[Term], atoms: &mut Vec<Atom>) {
        dedup_atoms(atoms);
        self.stats.candidates += 1;
        if self.forms.contains(head, atoms) {
            return;
        }
        self.stats.canonicalised += 1;
        let key = self.labeller.packed_key(head, atoms);
        let new = !self.seen.contains(key);
        if new {
            self.seen.insert(key.into());
        }
        self.forms.remember();
        if !new {
            return;
        }
        let candidate = CQ::new(head.to_vec(), atoms.clone());
        // Exploration always continues from the candidate — only the
        // *output* is filtered, which preserves completeness.
        if !(self.prune && self.subsumed(&candidate)) {
            // Emitted disjuncts are a subset of `seen`, so the key is new
            // to the union as well.
            self.ucq.push_keyed(candidate.clone(), self.labeller.key());
        }
        self.frontier.push(candidate);
    }

    /// Is `candidate` contained in an already-emitted disjunct? A linear
    /// scan: the signature test settles all but a fraction of a percent
    /// of the pairs in one AND each, counted here so that a test can pin
    /// how many searches a reformulation enters.
    fn subsumed(&mut self, candidate: &CQ) -> bool {
        for d in self.ucq.cqs() {
            if !d.signature().is_subset_of(candidate.signature()) {
                self.stats.containment_filtered += 1;
            } else {
                self.stats.containment_searches += 1;
                if contained_in(candidate, d) {
                    return true;
                }
            }
        }
        false
    }
}

/// Drop repeated atoms in place, keeping first occurrences in order.
fn dedup_atoms(atoms: &mut Vec<Atom>) {
    let mut kept = 0;
    for i in 0..atoms.len() {
        let atom = atoms[i];
        if !atoms[..kept].contains(&atom) {
            atoms[kept] = atom;
            kept += 1;
        }
    }
    atoms.truncate(kept);
}

/// log2 of the slots a [`RecentForms`] table grows to.
const FORM_SLOT_BITS: u32 = 12;
/// log2 of the slots a run starts with; the table grows 4× at a time.
const FORM_FIRST_SLOT_BITS: u32 = 6;
/// Words per slot: a length, then up to 31 words of spelled form.
const FORM_STRIDE: usize = 32;

/// The candidates a run labelled most recently, spelled exactly (see
/// [`spell`]) in a direct-mapped table indexed by the spelling's Fx hash.
///
/// The size is a memory/recall trade. On Q13, 52 375 of the 90 994
/// candidates repeat an earlier candidate exactly, but a repeat usually
/// comes back only after the whole subtree of the other specialisation
/// order has been explored (the frontier is a stack), so recall grows
/// slowly with the table: with 2^12 slots 60 919 candidates are still
/// labelled, with 2^14 53 091, and only a set of every form (≈ 39 k CQs
/// alive for the run) would get down to 38 619. 2^12 slots of 128 bytes
/// are 512 KiB, well under what packing saves on the 19 004 keys of
/// `seen`; 2^14 slots (2 MiB) did not run measurably faster. Q6 and Q9
/// repeat within any of these sizes (10 271 and 7 432 labelled).
///
/// A run starts with 2^6 slots and grows 4× each time it has written
/// twice its slot count. Most runs are small: a `cold_compile` pass of
/// the benchmark (LUBM, seed 1) makes ≈ 200 PerfectRef runs building
/// ≈ 208 k candidates, the median run builds 11, and 1 404 of 2 046
/// runs never leave 2^6 slots while 40 reach 2^12. Against a table of
/// 2^12 slots from the start (10 alternated 12 s pairs, 2 cores), growing
/// keeps `cold_compile` at the same speed (77.5 vs 76.4 ops/s, 5/10)
/// and its peak RSS 0.8 MB lower (24.4 → 23.6 MB, 10/10).
struct RecentForms {
    table: Vec<u32>,
    slot_bits: u32,
    /// Forms written since the table last grew.
    written: usize,
    /// The form looked up last, and its slot (`None`: it does not fit).
    form: Vec<u32>,
    slot: Option<usize>,
}

impl RecentForms {
    fn new() -> Self {
        RecentForms {
            table: vec![0; FORM_STRIDE << FORM_FIRST_SLOT_BITS],
            slot_bits: FORM_FIRST_SLOT_BITS,
            written: 0,
            form: Vec::with_capacity(FORM_STRIDE),
            slot: None,
        }
    }

    /// Does the table hold exactly `head ← atoms`? The form and its slot
    /// are kept for [`remember`](Self::remember).
    fn contains(&mut self, head: &[Term], atoms: &[Atom]) -> bool {
        self.slot = None;
        if spell(head, atoms, &mut self.form).is_none() {
            return false;
        }
        let slot = self.slot_of(&self.form);
        self.slot = Some(slot);
        let stored = &self.table[slot * FORM_STRIDE..][..FORM_STRIDE];
        stored[0] as usize == self.form.len() && stored[1..=self.form.len()] == self.form[..]
    }

    /// Store the form looked up last, whose key the caller has put in
    /// `seen`, over whatever its slot held.
    fn remember(&mut self) {
        let Some(slot) = self.slot else {
            return;
        };
        let stored = &mut self.table[slot * FORM_STRIDE..][..FORM_STRIDE];
        stored[0] = self.form.len() as u32;
        stored[1..=self.form.len()].copy_from_slice(&self.form);
        self.written += 1;
        if self.written > 2 << self.slot_bits && self.slot_bits < FORM_SLOT_BITS {
            self.grow();
        }
    }

    /// A long run: move every form into a table 4× larger. Forms in
    /// distinct slots differ in the top bits of their hashes, so they
    /// land in distinct slots again and none is lost.
    fn grow(&mut self) {
        let old = std::mem::take(&mut self.table);
        self.slot_bits = (self.slot_bits + 2).min(FORM_SLOT_BITS);
        self.table = vec![0; FORM_STRIDE << self.slot_bits];
        self.written = 0;
        for stored in old.chunks_exact(FORM_STRIDE) {
            let form = &stored[..=stored[0] as usize][1..];
            if !form.is_empty() {
                let slot = self.slot_of(form);
                self.table[slot * FORM_STRIDE..][..=form.len()]
                    .copy_from_slice(&stored[..=form.len()]);
            }
        }
    }

    /// The slot of a spelled form: the top bits of its Fx hash.
    fn slot_of(&self, form: &[u32]) -> usize {
        (hash_words(form) >> (64 - self.slot_bits)) as usize
    }
}

/// Spell `head ← atoms` into `out`: the head's length, each head term,
/// then per atom its predicate (`id << 1 | is_role`) and its terms
/// (`var << 1`, `const << 1 | 1`). The predicate word says how many terms
/// follow, so equal spellings mean equal forms. `None` when an id needs
/// the top bit or the spelling does not fit a slot.
fn spell(head: &[Term], atoms: &[Atom], out: &mut Vec<u32>) -> Option<()> {
    fn word(id: u32, bit: u32) -> Option<u32> {
        (id < 1 << 31).then_some(id << 1 | bit)
    }
    fn term(t: Term) -> Option<u32> {
        match t {
            Term::Var(v) => word(v.0, 0),
            Term::Const(c) => word(c.0, 1),
        }
    }
    out.clear();
    out.push(head.len() as u32);
    for &t in head {
        out.push(term(t)?);
    }
    for atom in atoms {
        match *atom {
            Atom::Concept(c, t) => out.extend([word(c.0, 0)?, term(t)?]),
            Atom::Role(r, t1, t2) => out.extend([word(r.0, 1)?, term(t1)?, term(t2)?]),
        }
    }
    (out.len() < FORM_STRIDE).then_some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::{example1_tbox, example7_tbox};
    use obda_query::{contained_in, minimize_ucq, same_modulo_renaming, Atom, Term};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    /// Example 4 / Table 5: the UCQ reformulation of
    /// q(x) ← PhDStudent(x) ∧ worksWith(y, x) has exactly 10 disjuncts.
    #[test]
    fn example4_ten_disjuncts() {
        let (voc, tbox) = example1_tbox();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let sup = voc.find_role("supervisedBy").unwrap();
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(phd, v(0)), Atom::Role(works, v(1), v(0))],
        );
        let ucq = perfect_ref(&q, &tbox);
        assert_eq!(ucq.len(), 10, "Table 5 lists q1..q10");

        // Spot-check the named disjuncts of Table 5.
        let expect = [
            // q1(x) ← PhDStudent(x) ∧ worksWith(y, x)
            CQ::with_var_head(
                vec![VarId(0)],
                vec![Atom::Concept(phd, v(0)), Atom::Role(works, v(1), v(0))],
            ),
            // q4(x) ← PhDStudent(x) ∧ supervisedBy(x, y)
            CQ::with_var_head(
                vec![VarId(0)],
                vec![Atom::Concept(phd, v(0)), Atom::Role(sup, v(0), v(1))],
            ),
            // q9(x) ← supervisedBy(x, x)
            CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(sup, v(0), v(0))]),
            // q10(x) ← supervisedBy(x, y)
            CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(sup, v(0), v(1))]),
        ];
        for e in &expect {
            assert!(
                ucq.cqs().iter().any(|c| same_modulo_renaming(c, e)),
                "missing disjunct {e:?}"
            );
        }
    }

    /// §2.3: minimizing Example 4's UCQ leaves q1 ∨ q2 ∨ q3 ∨ q10.
    #[test]
    fn example4_minimal_ucq_has_four_disjuncts() {
        let (voc, tbox) = example1_tbox();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let sup = voc.find_role("supervisedBy").unwrap();
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(phd, v(0)), Atom::Role(works, v(1), v(0))],
        );
        let minimal = minimize_ucq(&perfect_ref(&q, &tbox));
        assert_eq!(minimal.len(), 4);
        // q10 is the absorbing disjunct for q4..q9.
        let q10 = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(sup, v(0), v(1))]);
        assert!(minimal.cqs().iter().any(|c| same_modulo_renaming(c, &q10)));
    }

    /// Example 7: the UCQ reformulation of
    /// q(x) ← PhDStudent(x) ∧ worksWith(x, y) ∧ supervisedBy(z, y)
    /// is exactly q1 ∨ q2 ∨ q3 ∨ q4.
    #[test]
    fn example7_four_disjuncts() {
        let (voc, tbox) = example7_tbox();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let grad = voc.find_concept("Graduate").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let sup = voc.find_role("supervisedBy").unwrap();
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(phd, v(0)),
                Atom::Role(works, v(0), v(1)),
                Atom::Role(sup, v(2), v(1)),
            ],
        );
        let ucq = perfect_ref(&q, &tbox);
        assert_eq!(ucq.len(), 4);
        let q3 = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(phd, v(0)), Atom::Role(sup, v(0), v(1))],
        );
        let q4 = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(phd, v(0)), Atom::Concept(grad, v(0))],
        );
        assert!(ucq.cqs().iter().any(|c| same_modulo_renaming(c, &q3)));
        assert!(ucq.cqs().iter().any(|c| same_modulo_renaming(c, &q4)));
    }

    /// Every generated disjunct is contained in the original query… w.r.t.
    /// the TBox. Plain containment holds only atom-wise for axiom steps,
    /// but each disjunct must at least keep the head arity; and the first
    /// disjunct is the original query itself.
    #[test]
    fn original_query_is_a_disjunct() {
        let (voc, tbox) = example1_tbox();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(phd, v(0)), Atom::Role(works, v(1), v(0))],
        );
        let ucq = perfect_ref(&q, &tbox);
        assert!(same_modulo_renaming(&ucq.cqs()[0], &q));
    }

    /// With an empty TBox the reformulation adds only reduce-steps, all of
    /// which are contained in the original query.
    #[test]
    fn empty_tbox_reduce_only() {
        let tbox = TBox::new();
        // q(x) ← r(x, y) ∧ r(y, z): unifying the two atoms gives r(x, x).
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(obda_dllite::RoleId(0), v(0), v(1)),
                Atom::Role(obda_dllite::RoleId(0), v(1), v(2)),
            ],
        );
        let ucq = perfect_ref(&q, &tbox);
        for cq in ucq.cqs() {
            assert!(contained_in(cq, &q), "reduce steps specialize");
        }
        assert!(ucq.len() >= 2);
    }

    #[test]
    fn stats_are_populated() {
        let (voc, tbox) = example1_tbox();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(phd, v(0)), Atom::Role(works, v(1), v(0))],
        );
        let (_, stats) = perfect_ref_with_stats(&q, &tbox);
        assert_eq!(stats.generated, 10);
        assert!(stats.axiom_applications > 0);
        assert!(stats.reduce_steps > 0);
    }

    fn concept(id: u32, x: u32) -> Atom {
        Atom::Concept(obda_dllite::ConceptId(id), v(x))
    }

    /// A hit in `RecentForms` drops the candidate, so a lookup must match
    /// the slot's occupant word for word and in length. Two forms that
    /// share a slot with a stored one are brute-forced: one differs from
    /// it only in its last word, the other only by one more atom.
    #[test]
    fn recent_forms_match_whole_forms_only() {
        let head = [v(0)];
        let slot = |atoms: &[Atom]| {
            let mut form = Vec::new();
            spell(&head, atoms, &mut form).unwrap();
            RecentForms::new().slot_of(&form)
        };
        let stored = vec![concept(0, 0), concept(1, 1)];
        let home = slot(&stored);
        let last_word = (2..)
            .map(|x| vec![concept(0, 0), concept(1, x)])
            .find(|atoms| slot(atoms) == home)
            .unwrap();
        let one_more = (2..)
            .map(|x| vec![concept(0, 0), concept(1, 1), concept(2, x)])
            .find(|atoms| slot(atoms) == home)
            .unwrap();
        for other in [&last_word, &one_more] {
            for (kept, probe) in [(&stored, other), (other, &stored)] {
                let mut forms = RecentForms::new();
                assert!(!forms.contains(&head, kept));
                forms.remember();
                assert!(forms.contains(&head, kept));
                assert!(
                    !forms.contains(&head, probe),
                    "{probe:?} taken for {kept:?}"
                );
            }
        }
    }

    /// Growing the table keeps every form it held, at each size up to
    /// the largest.
    #[test]
    fn recent_forms_keep_every_form_when_growing() {
        let head = [v(0)];
        let mut forms = RecentForms::new();
        let candidates: Vec<Vec<Atom>> = (0..48).map(|id| vec![concept(id, 0)]).collect();
        for atoms in &candidates {
            assert!(!forms.contains(&head, atoms));
            forms.remember();
        }
        let held: Vec<bool> = candidates
            .iter()
            .map(|atoms| forms.contains(&head, atoms))
            .collect();
        // 48 forms in 64 slots: some collided, most are held.
        assert!(held.iter().filter(|&&h| h).count() > 24);
        while forms.slot_bits < FORM_SLOT_BITS {
            forms.grow();
            for (atoms, &h) in candidates.iter().zip(&held) {
                assert_eq!(
                    forms.contains(&head, atoms),
                    h,
                    "{atoms:?} at 2^{}",
                    forms.slot_bits
                );
            }
        }
    }

    /// Concept hierarchies alone: A ⊑ B means q(x) ← B(x) reformulates to
    /// B(x) ∨ A(x).
    #[test]
    fn simple_hierarchy() {
        let mut b = obda_dllite::TBoxBuilder::new();
        b.sub("A", "B").sub("A2", "A");
        let (voc, tbox) = b.finish();
        let bb = voc.find_concept("B").unwrap();
        let q = CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(bb, v(0))]);
        let ucq = perfect_ref(&q, &tbox);
        assert_eq!(ucq.len(), 3, "B ∨ A ∨ A2");
    }

    /// The pruned variant is equivalent to the exhaustive one: same
    /// minimal form on Example 4 (9 raw disjuncts — q10 is forward-
    /// subsumed by the equivalent q8 — but identical after minimization).
    #[test]
    fn pruned_variant_is_equivalent_on_example4() {
        let (voc, tbox) = example1_tbox();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(phd, v(0)), Atom::Role(works, v(1), v(0))],
        );
        let exhaustive = perfect_ref(&q, &tbox);
        let pruned = super::perfect_ref_pruned(&q, &tbox);
        assert!(pruned.len() <= exhaustive.len());
        let m1 = minimize_ucq(&exhaustive);
        let m2 = minimize_ucq(&pruned);
        assert_eq!(m1.len(), m2.len());
        for cq in m1.cqs() {
            assert!(
                m2.cqs().iter().any(|d| obda_query::equivalent(cq, d)),
                "missing equivalent of {cq:?}"
            );
        }
    }

    /// Pruned and exhaustive variants compute the same certain answers on
    /// randomized KBs (cross-checked against the chase oracle).
    #[test]
    fn pruned_variant_is_complete_on_random_kbs() {
        use obda_query::testkit::{random_abox, random_connected_cq, random_tbox, KbShape, Rng};
        use obda_query::{certain_answers, eval_over_abox, FolQuery};
        for seed in 0..60u64 {
            let mut rng = Rng::new(seed);
            let shape = KbShape::default();
            let (mut voc, tbox) = random_tbox(&mut rng, &shape);
            let abox = random_abox(&mut rng, &mut voc, &shape);
            for atoms in 1..=3 {
                let cq = random_connected_cq(&mut rng, &voc, atoms, 2);
                let truth = certain_answers(&tbox, &abox, &cq);
                let pruned = super::perfect_ref_pruned(&cq, &tbox);
                let got = eval_over_abox(&abox, &FolQuery::Ucq(pruned));
                assert_eq!(got, truth, "seed {seed}, atoms {atoms}");
            }
        }
    }
}
