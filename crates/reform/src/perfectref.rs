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
//! bounded table of forms spelled up to a renaming (`RecentForms`)
//! settles 37 705 repeats without a canonical labelling, and the other
//! 53 289 are labelled into packed `u32` keys held in an Fx-hashed
//! [`WordSet`] (`Run::push_new`).
//!
//! Those are the figures under LUBM's TBox alone, the ones the pins
//! test holds. A server reformulates under each generation's *live*
//! TBox, without the inclusions out of predicates that have no facts
//! and none below them (ARCHITECTURE.md §2): as served on LUBM seed 1
//! (60 k facts), Q13's run builds 25 167 candidates, labels 12 415 and
//! emits 253 disjuncts (808 under the TBox alone), the same ones minus
//! those over dead predicates.
//!
//! The run allocates for what it keeps: a new CQ costs its head and
//! body, and an emitted one a copy for the union; everything per
//! candidate or per popped query — the unifier, the specialisations, the
//! spelled form, the key, the containment search — lives in buffers the
//! run owns. On Q13 that is 39 789 allocations for 19 005 CQs generated,
//! 2.1 each, counted by `tests/kernel_allocations.rs`.

use std::hash::Hasher;

use obda_dllite::TBox;
use obda_query::fxhash::{hash_words, FxHasher, WordSet};
use obda_query::{
    mgu_preferring, Atom, Canonicaliser, Homomorphisms, PredSig, Term, VarId, CQ, UCQ,
};

use crate::applicability::specializations_into;

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
        sigs: vec![q.signature()],
        seen: WordSet::default(),
        labeller: Canonicaliser::new(),
        homs: Homomorphisms::new(),
        forms: RecentForms::new(),
        frontier: vec![q.clone()],
        prune,
    };
    run.seen
        .insert(run.labeller.packed_key(q.head(), q.atoms()));
    let head_vars: Vec<VarId> = q.head_vars().collect();
    // Each candidate is spelled out in these buffers; only a new one
    // becomes a `CQ`. The specialisations of a popped query and its
    // unbound variables have buffers of their own.
    let (mut head, mut atoms) = (Vec::new(), Vec::new());
    let (mut specs, mut unbound) = (Vec::new(), Vec::new());
    while let Some(current) = run.frontier.pop() {
        // (a) backward constraint applications.
        specializations_into(
            &current,
            tbox,
            current.fresh_var(),
            &mut unbound,
            &mut specs,
        );
        for spec in &specs {
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
    /// The signature of each disjunct of `ucq`, in order: the
    /// forward-subsumption scan reads these, not the disjuncts.
    sigs: Vec<PredSig>,
    /// The packed canonical key of every CQ generated so far, emitted or
    /// not.
    seen: WordSet,
    labeller: Canonicaliser,
    homs: Homomorphisms,
    /// Candidates labelled lately, as they were built up to a renaming.
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
    /// with the same variable ids, and other orders build renamings of
    /// it. So before labelling, the candidate is looked up in `forms`,
    /// spelled with its variables renumbered by first occurrence. That is
    /// sound because a renaming keeps the canonical key, a form enters
    /// `forms` only below, once its canonical key is in `seen` (inserted
    /// by this call or an earlier one), and `seen` never shrinks: a form
    /// found there is a CQ already generated, and skipping it is what the
    /// key lookup would have done. Eviction only costs a later repeat its
    /// labelling. The output — the disjuncts, their order and their
    /// variable ids — does not depend on what `forms` holds.
    ///
    /// Only a new candidate allocates: it becomes one `CQ`, copied once
    /// more if it enters the union.
    fn push_new(&mut self, head: &[Term], atoms: &mut Vec<Atom>) {
        self.stats.candidates += 1;
        if self.forms.dedup_and_find(head, atoms) {
            return;
        }
        self.stats.canonicalised += 1;
        let new = self.seen.insert(self.labeller.packed_key(head, atoms));
        self.forms.remember();
        if !new {
            return;
        }
        let candidate = CQ::from_distinct(head.to_vec(), atoms.clone());
        // Exploration always continues from the candidate — only the
        // *output* is filtered, which preserves completeness.
        if !(self.prune && self.subsumed(&candidate)) {
            // Emitted disjuncts are a subset of `seen`, so the key — the
            // entry just inserted — is new to the union as well.
            self.sigs.push(candidate.signature());
            let key = self.seen.get(self.seen.len() - 1);
            self.ucq.push_packed(candidate.clone(), key);
        }
        self.frontier.push(candidate);
    }

    /// Is `candidate` contained in an already-emitted disjunct? A linear
    /// scan of the disjuncts' signatures: the signature test settles all
    /// but a fraction of a percent of the pairs in one AND each, counted
    /// here so that a test can pin how many searches a reformulation
    /// enters.
    fn subsumed(&mut self, candidate: &CQ) -> bool {
        let sig = candidate.signature();
        for (i, d) in self.sigs.iter().enumerate() {
            if !d.is_subset_of(sig) {
                self.stats.containment_filtered += 1;
            } else {
                self.stats.containment_searches += 1;
                if self.homs.contained_in(candidate, &self.ucq.cqs()[i]) {
                    return true;
                }
            }
        }
        false
    }
}

/// log2 of the slots a [`RecentForms`] table grows to.
const FORM_SLOT_BITS: u32 = 12;
/// log2 of the slots a run starts with; the table grows 4× at a time.
const FORM_FIRST_SLOT_BITS: u32 = 6;
/// Words per slot: a length, then up to 31 words of spelled form.
const FORM_STRIDE: usize = 32;
/// Variable ids a spelling renumbers; a candidate using a larger one is
/// not looked up.
const FORM_VAR_RANGE: usize = 64;

/// The candidates a run labelled most recently, spelled up to a renaming
/// (see [`RecentForms::dedup_and_find`]) in a direct-mapped table indexed
/// by the spelling's Fx hash.
///
/// The size is a memory/recall trade. On Q13, most of the 90 994
/// candidates repeat an earlier candidate up to a renaming, but a repeat
/// usually comes back only after the whole subtree of the other
/// specialisation order has been explored (the frontier is a stack), so
/// recall grows slowly with the table: with 2^12 slots 53 289 candidates
/// are still labelled (60 919 when forms were spelled with their own
/// variable ids), and only a set of every form (≈ 39 k CQs alive for the
/// run) would get down to the 19 004 new ones plus their first spellings.
/// 2^12 slots of 128 bytes are 512 KiB; 2^14 slots (2 MiB) did not run
/// measurably faster. Q6 and Q9 label 9 208 and 6 105.
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
    /// The renumbering of the form being spelled: variable `v`'s number,
    /// or `UNNUMBERED`, and how many variables are numbered so far.
    number: [u8; FORM_VAR_RANGE],
    numbered: u8,
}

const UNNUMBERED: u8 = u8::MAX;

impl RecentForms {
    fn new() -> Self {
        RecentForms {
            table: vec![0; FORM_STRIDE << FORM_FIRST_SLOT_BITS],
            slot_bits: FORM_FIRST_SLOT_BITS,
            written: 0,
            form: Vec::with_capacity(FORM_STRIDE),
            slot: None,
            number: [UNNUMBERED; FORM_VAR_RANGE],
            numbered: 0,
        }
    }

    /// Drop the repeated atoms of `head ← atoms` in place, keeping first
    /// occurrences in order, and say whether the table holds the result
    /// up to a renaming. One pass over the atoms dedups, spells and
    /// hashes; the form and its slot are kept for
    /// [`remember`](Self::remember).
    ///
    /// The spelling is the head's length, each head term, then per atom
    /// its predicate (`id << 1 | is_role`) and its terms: a variable as
    /// `n << 1` where `n` numbers the variables by first occurrence, a
    /// constant as `id << 1 | 1`. The predicate word says how many terms
    /// follow, so equal spellings mean forms equal up to a renaming of
    /// their variables. A candidate is not looked up (a miss) when an id
    /// needs the top bit, a variable id is [`FORM_VAR_RANGE`] or more, or
    /// the spelling does not fit a slot.
    fn dedup_and_find(&mut self, head: &[Term], atoms: &mut Vec<Atom>) -> bool {
        self.number = [UNNUMBERED; FORM_VAR_RANGE];
        self.numbered = 0;
        let mut hasher = FxHasher::default();
        self.form.clear();
        let mut fits = self.push_word(&mut hasher, Some(head.len() as u32));
        for &t in head {
            let word = self.term_word(t);
            fits = fits && self.push_word(&mut hasher, word);
        }
        let mut kept = 0;
        for i in 0..atoms.len() {
            let atom = atoms[i];
            if atoms[..kept].contains(&atom) {
                continue;
            }
            atoms[kept] = atom;
            kept += 1;
            if !fits {
                continue;
            }
            let (words, len) = match atom {
                Atom::Concept(c, t) => ([word(c.0, 0), self.term_word(t), None], 2),
                Atom::Role(r, t1, t2) => {
                    ([word(r.0, 1), self.term_word(t1), self.term_word(t2)], 3)
                }
            };
            for w in &words[..len] {
                fits = fits && self.push_word(&mut hasher, *w);
            }
        }
        atoms.truncate(kept);
        self.slot = None;
        if !fits {
            return false;
        }
        let slot = self.slot_index(hasher.finish());
        self.slot = Some(slot);
        let stored = &self.table[slot * FORM_STRIDE..][..FORM_STRIDE];
        stored[0] as usize == self.form.len() && stored[1..=self.form.len()] == self.form[..]
    }

    /// Append a word of the spelling, if there is one and room for it.
    fn push_word(&mut self, hasher: &mut FxHasher, word: Option<u32>) -> bool {
        match word {
            Some(w) if self.form.len() + 1 < FORM_STRIDE => {
                self.form.push(w);
                hasher.write_u32(w);
                true
            }
            _ => false,
        }
    }

    /// The word of a term, numbering a variable met for the first time.
    fn term_word(&mut self, t: Term) -> Option<u32> {
        match t {
            Term::Const(c) => word(c.0, 1),
            Term::Var(v) => {
                let v = v.0 as usize;
                if v >= FORM_VAR_RANGE {
                    return None;
                }
                if self.number[v] == UNNUMBERED {
                    self.number[v] = self.numbered;
                    self.numbered += 1;
                }
                Some(u32::from(self.number[v]) << 1)
            }
        }
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
                let slot = self.slot_index(hash_words(form));
                self.table[slot * FORM_STRIDE..][..=form.len()]
                    .copy_from_slice(&stored[..=form.len()]);
            }
        }
    }

    /// The slot of a spelled form: the top bits of its Fx hash.
    fn slot_index(&self, hash: u64) -> usize {
        (hash >> (64 - self.slot_bits)) as usize
    }
}

/// `id << 1 | bit`, or `None` when `id` needs the top bit.
fn word(id: u32, bit: u32) -> Option<u32> {
    (id < 1 << 31).then_some(id << 1 | bit)
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

    /// Look `head ← atoms` up in `forms` as PerfectRef does, deduplicating
    /// a copy of the atoms.
    fn find(forms: &mut RecentForms, head: &[Term], atoms: &[Atom]) -> bool {
        forms.dedup_and_find(head, &mut atoms.to_vec())
    }

    /// The slot a fresh table gives `head ← atoms`.
    fn home(head: &[Term], atoms: &[Atom]) -> usize {
        let mut forms = RecentForms::new();
        find(&mut forms, head, atoms);
        forms.slot.unwrap()
    }

    /// A hit in `RecentForms` drops the candidate, so a lookup must match
    /// the slot's occupant word for word and in length. Two forms that
    /// share a slot with a stored one are brute-forced: one differs from
    /// it only in its last word (a constant), the other only by one more
    /// atom.
    #[test]
    fn recent_forms_match_whole_forms_only() {
        let head = [v(0)];
        let constant = |id: u32| {
            Atom::Concept(
                obda_dllite::ConceptId(1),
                Term::Const(obda_dllite::IndividualId(id)),
            )
        };
        let stored = vec![concept(0, 0), constant(1)];
        let slot = home(&head, &stored);
        let last_word = (2..)
            .map(|c| vec![concept(0, 0), constant(c)])
            .find(|atoms| home(&head, atoms) == slot)
            .unwrap();
        let one_more = (2..)
            .map(|id| vec![concept(0, 0), constant(1), concept(id, 0)])
            .find(|atoms| home(&head, atoms) == slot)
            .unwrap();
        for other in [&last_word, &one_more] {
            for (kept, probe) in [(&stored, other), (other, &stored)] {
                let mut forms = RecentForms::new();
                assert!(!find(&mut forms, &head, kept));
                forms.remember();
                assert!(find(&mut forms, &head, kept));
                assert!(
                    !find(&mut forms, &head, probe),
                    "{probe:?} taken for {kept:?}"
                );
            }
        }
    }

    /// Forms are spelled with their variables renumbered by first
    /// occurrence: a renaming of a remembered candidate, head variables
    /// included, is a hit; the same atoms with another pattern of equal
    /// variables are not.
    #[test]
    fn recent_forms_match_up_to_a_renaming() {
        let (r, a) = (obda_dllite::RoleId(0), obda_dllite::ConceptId(0));
        let mut forms = RecentForms::new();
        // q(x) ← R(x, y) ∧ A(y)
        let stored = [Atom::Role(r, v(0), v(1)), Atom::Concept(a, v(1))];
        assert!(!find(&mut forms, &[v(0)], &stored));
        forms.remember();
        // q(w) ← R(w, z) ∧ A(z), and with the repeat of R(w, z) that
        // the lookup drops.
        let renamed = [Atom::Role(r, v(7), v(3)), Atom::Concept(a, v(3))];
        assert!(find(&mut forms, &[v(7)], &renamed));
        let mut repeated = vec![renamed[0], renamed[0], renamed[1]];
        assert!(forms.dedup_and_find(&[v(7)], &mut repeated));
        assert_eq!(repeated, renamed);
        // q(x) ← R(x, y) ∧ A(x), q(y) ← R(x, y) ∧ A(y), q(x) ← R(x, x) ∧ A(x)
        for (head, atoms) in [
            (v(0), [Atom::Role(r, v(0), v(1)), Atom::Concept(a, v(0))]),
            (v(1), [Atom::Role(r, v(0), v(1)), Atom::Concept(a, v(1))]),
            (v(0), [Atom::Role(r, v(0), v(0)), Atom::Concept(a, v(0))]),
        ] {
            assert!(!find(&mut forms, &[head], &atoms), "{head:?} ← {atoms:?}");
        }
    }

    /// A variable id past the renumbering's range leaves the candidate
    /// unspelled: it is never looked up nor remembered (a miss, never a
    /// wrong hit), and its repeated atoms are still dropped.
    #[test]
    fn recent_forms_skip_variables_out_of_range() {
        let r = obda_dllite::RoleId(0);
        let far = FORM_VAR_RANGE as u32;
        let mut forms = RecentForms::new();
        let near = [Atom::Role(r, v(0), v(1))];
        assert!(!find(&mut forms, &[v(0)], &near));
        forms.remember();
        let mut atoms = vec![Atom::Role(r, v(0), v(far)), Atom::Role(r, v(0), v(far))];
        assert!(!forms.dedup_and_find(&[v(0)], &mut atoms));
        assert_eq!(forms.slot, None, "not looked up");
        assert_eq!(atoms.len(), 1);
        forms.remember();
        assert!(!find(&mut forms, &[v(0)], &atoms));
        assert!(find(&mut forms, &[v(0)], &near));
        // A renaming into range is an ordinary hit.
        assert!(find(
            &mut forms,
            &[v(0)],
            &[Atom::Role(r, v(0), v(far - 1))]
        ));
    }

    /// Growing the table keeps every form it held, at each size up to
    /// the largest.
    #[test]
    fn recent_forms_keep_every_form_when_growing() {
        let head = [v(0)];
        let mut forms = RecentForms::new();
        let candidates: Vec<Vec<Atom>> = (0..48).map(|id| vec![concept(id, 0)]).collect();
        for atoms in &candidates {
            assert!(!find(&mut forms, &head, atoms));
            forms.remember();
        }
        let held: Vec<bool> = candidates
            .iter()
            .map(|atoms| find(&mut forms, &head, atoms))
            .collect();
        // 48 forms in 64 slots: some collided, most are held.
        assert!(held.iter().filter(|&&h| h).count() > 24);
        while forms.slot_bits < FORM_SLOT_BITS {
            forms.grow();
            for (atoms, &h) in candidates.iter().zip(&held) {
                assert_eq!(
                    find(&mut forms, &head, atoms),
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
