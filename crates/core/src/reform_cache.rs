//! Memoized fragment reformulation.
//!
//! EDL and GDL evaluate many covers sharing fragments; reformulating a
//! fragment (PerfectRef + minimization) depends only on its atom set and
//! its exported head, so results are cached across candidate covers.
//! Sharing fragments bounds how *often* PerfectRef runs; that one run is
//! cheap only since the containment kernel rejects by predicate
//! signature (ARCHITECTURE.md §2) — until then it was 99 % of a cold
//! cover search, the reverse of the paper's §6.4, where cost estimation
//! dominates. Estimation is now cheap as well, since the planner prices
//! each union arm in place over bitsets: in process (seed 1, 60 k facts,
//! the light shapes counted three times, as `cold_compile` sends them)
//! it takes ≈ 4.6 of the ≈ 33 ms a pass over the LUBM shapes spends
//! compiling (20.3 of 59 before), and makes 529 of the 33 746 heap
//! allocations `choose_reformulation` makes for the 14 shapes (139 494
//! of 172 711 before).
//!
//! Two lifetimes are involved. A [`ReformCache`] lives for one search
//! over one query and is keyed by fragment *position* (atom mask +
//! exported head). A [`FragmentMemo`] is keyed by the fragment query
//! itself and lives as long as its TBox: a fragment's reformulation is a
//! pure function of (fragment CQ, TBox). A
//! [`RewriteContext`](crate::RewriteContext) keeps one per *live* TBox
//! (the loaded one without the inclusions out of predicates that have
//! no facts and none below them), so only an ABox write that changes
//! those dead predicates can retire it, and a server that
//! recompiles the same shapes after every commit pays PerfectRef once
//! per live TBox instead of once per generation.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use obda_dllite::TBox;
use obda_query::{minimize_ucq, Term, CQ, JUCQ, UCQ};
use obda_reform::{fragment_query, perfect_ref_pruned_with_stats};

use crate::cover::{AtomMask, Cover};

/// Union arms a [`FragmentMemo`] retains before it stops admitting new
/// entries. A GDL compile of all 14 LUBM shapes memoises 68 fragments
/// with 2 421 arms between them; the bound only matters for a stream of
/// one-off queries (distinct constants), which would otherwise grow the
/// memo for the TBox's whole lifetime. A full memo keeps serving what
/// it holds.
const MEMO_ARM_BUDGET: usize = 1 << 16;

/// Fragment reformulations shared by every search against one TBox,
/// across threads and snapshot generations. The memo never learns which
/// TBox it belongs to: the owner creates one per TBox and drops it with
/// the TBox, so invalidation is structural.
#[derive(Default)]
pub struct FragmentMemo {
    inner: RwLock<MemoInner>,
}

#[derive(Default)]
struct MemoInner {
    /// Indexed by the minimise flag, so lookups borrow the fragment CQ.
    by_minimize: [HashMap<CQ, Arc<UCQ>>; 2],
    arms: usize,
}

impl FragmentMemo {
    pub fn new() -> Self {
        Self::default()
    }

    /// Every state of the map is servable (entries are only ever added,
    /// each one complete), so a poisoned guard is recovered.
    fn get(&self, fq: &CQ, minimize: bool) -> Option<Arc<UCQ>> {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        inner.by_minimize[usize::from(minimize)].get(fq).cloned()
    }

    /// Keep `ucq` for `fq`, returning the retained reformulation — the
    /// first one stored if a concurrent search got there before us (both
    /// computed the same deterministic result).
    fn insert(&self, fq: &CQ, minimize: bool, ucq: Arc<UCQ>) -> Arc<UCQ> {
        let mut guard = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *guard;
        if inner.arms + ucq.len() > MEMO_ARM_BUDGET {
            return ucq;
        }
        match inner.by_minimize[usize::from(minimize)].entry(fq.clone()) {
            Entry::Occupied(first) => Arc::clone(first.get()),
            Entry::Vacant(slot) => {
                inner.arms += ucq.len();
                Arc::clone(slot.insert(ucq))
            }
        }
    }

    /// Memoised fragment reformulations (both minimise settings).
    pub fn len(&self) -> usize {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        inner.by_minimize.iter().map(HashMap::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Where the fragment reformulations of one compilation came from: the
/// shared [`FragmentMemo`], or PerfectRef runs of its own.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FragmentStats {
    pub memoised: usize,
    pub computed: usize,
    /// Candidate CQs the computed fragments' PerfectRef runs built, and
    /// how many of them were canonically labelled (the
    /// [`ReformStats`](obda_reform::ReformStats) counts, summed).
    pub perfectref_candidates: usize,
    pub perfectref_canonicalised: usize,
}

/// The UCQ reformulation of one fragment query — the single place
/// PerfectRef runs for every strategy. With a `memo`, a hit skips the
/// run; a miss computes *outside* the memo's lock and stores the result.
pub(crate) fn reformulate_fragment(
    fq: &CQ,
    tbox: &TBox,
    minimize: bool,
    memo: Option<&FragmentMemo>,
    stats: &mut FragmentStats,
) -> Arc<UCQ> {
    if let Some(hit) = memo.and_then(|m| m.get(fq, minimize)) {
        stats.memoised += 1;
        return hit;
    }
    stats.computed += 1;
    let (mut ucq, run) = perfect_ref_pruned_with_stats(fq, tbox);
    stats.perfectref_candidates += run.candidates;
    stats.perfectref_canonicalised += run.canonicalised;
    if minimize {
        ucq = minimize_ucq(&ucq);
    }
    let ucq = Arc::new(ucq);
    match memo {
        Some(m) => m.insert(fq, minimize, ucq),
        None => ucq,
    }
}

/// Cache of fragment-UCQ reformulations for one (query, TBox) pair.
pub struct ReformCache<'a> {
    q: &'a CQ,
    tbox: &'a TBox,
    /// Minimize each fragment UCQ before assembly (what a production
    /// rewriter like RAPID emits).
    pub minimize: bool,
    memo: Option<&'a FragmentMemo>,
    cache: HashMap<(AtomMask, Vec<Term>), Arc<UCQ>>,
    hits: usize,
    misses: usize,
    fragments: FragmentStats,
}

impl<'a> ReformCache<'a> {
    pub fn new(q: &'a CQ, tbox: &'a TBox, minimize: bool) -> Self {
        Self::with_memo(q, tbox, minimize, None)
    }

    /// A cache whose local misses fall through to `memo` (which must
    /// belong to `tbox`) before running PerfectRef.
    pub fn with_memo(
        q: &'a CQ,
        tbox: &'a TBox,
        minimize: bool,
        memo: Option<&'a FragmentMemo>,
    ) -> Self {
        ReformCache {
            q,
            tbox,
            minimize,
            memo,
            cache: HashMap::new(),
            hits: 0,
            misses: 0,
            fragments: FragmentStats::default(),
        }
    }

    /// Build the JUCQ reformulation of `cover` (Definition 3 / §5.2),
    /// reusing cached fragment reformulations.
    pub fn jucq_for(&mut self, cover: &Cover) -> JUCQ {
        let specs = cover.to_specs();
        let components: Vec<UCQ> = cover
            .fragments()
            .iter()
            .zip(&specs)
            .map(|(fr, spec)| {
                let fq = fragment_query(self.q, spec, &specs);
                let key = (fr.f, fq.head().to_vec());
                if let Some(u) = self.cache.get(&key) {
                    self.hits += 1;
                    return UCQ::clone(u);
                }
                self.misses += 1;
                let ucq = reformulate_fragment(
                    &fq,
                    self.tbox,
                    self.minimize,
                    self.memo,
                    &mut self.fragments,
                );
                let component = UCQ::clone(&ucq);
                self.cache.insert(key, ucq);
                component
            })
            .collect();
        JUCQ::new(self.q.head().to_vec(), components)
    }

    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Fragments this cache had not seen before; each was then served by
    /// the shared memo or computed (see [`ReformCache::fragments`]).
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// How the local misses were resolved.
    pub fn fragments(&self) -> FragmentStats {
        self.fragments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::Fragment;
    use obda_dllite::example7_tbox;
    use obda_query::{Atom, VarId};

    fn setup() -> (CQ, obda_dllite::TBox) {
        let (voc, tbox) = example7_tbox();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let sup = voc.find_role("supervisedBy").unwrap();
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(phd, Term::Var(VarId(0))),
                Atom::Role(works, Term::Var(VarId(0)), Term::Var(VarId(1))),
                Atom::Role(sup, Term::Var(VarId(2)), Term::Var(VarId(1))),
            ],
        );
        (q, tbox)
    }

    #[test]
    fn repeated_covers_hit_the_cache() {
        let (q, tbox) = setup();
        let mut cache = ReformCache::new(&q, &tbox, true);
        let cover = Cover::new(vec![Fragment::simple(0b001), Fragment::simple(0b110)]);
        let j1 = cache.jucq_for(&cover);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
        let j2 = cache.jucq_for(&cover);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 2);
        assert_eq!(j1, j2);
    }

    #[test]
    fn shared_fragments_are_reused_across_covers() {
        let (q, tbox) = setup();
        let mut cache = ReformCache::new(&q, &tbox, true);
        let c1 = Cover::new(vec![Fragment::simple(0b001), Fragment::simple(0b110)]);
        let c2 = Cover::new(vec![
            Fragment::simple(0b001),
            Fragment::generalized(0b111, 0b110),
        ]);
        cache.jucq_for(&c1);
        let misses_before = cache.misses();
        cache.jucq_for(&c2);
        // Fragment {0} exports the same head in both covers — cached.
        assert_eq!(cache.misses(), misses_before + 1);
        assert!(cache.hits() >= 1);
    }

    /// The serving path compiles reformulations on worker threads; a
    /// cache mid-build must be movable across them (compile-time check).
    #[test]
    fn reform_cache_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ReformCache<'_>>();
    }

    #[test]
    fn a_full_memo_refuses_new_entries_and_keeps_serving_old_ones() {
        use obda_dllite::{ConceptId, IndividualId};
        let about = |i: u32| {
            let who = Term::Const(IndividualId(i));
            CQ::new(vec![who], vec![Atom::Concept(ConceptId(0), who)])
        };
        let head = vec![Term::Var(VarId(0))];
        let wide = UCQ::from_cqs(head, (0..MEMO_ARM_BUDGET as u32).map(about));
        assert_eq!(wide.len(), MEMO_ARM_BUDGET);
        let wide = Arc::new(wide);
        let memo = FragmentMemo::new();
        let (first, second) = (about(0), about(1));
        let kept = memo.insert(&first, true, Arc::clone(&wide));
        assert!(Arc::ptr_eq(&kept, &wide), "exactly the budget still fits");

        let refused = memo.insert(&second, true, Arc::new(UCQ::single(about(1))));
        assert_eq!(refused.len(), 1, "the caller still gets its result");
        assert!(memo.get(&second, true).is_none());
        assert_eq!(memo.len(), 1);
        assert!(Arc::ptr_eq(&memo.get(&first, true).unwrap(), &wide));
    }

    #[test]
    fn minimized_components_are_no_larger() {
        let (q, tbox) = setup();
        let cover = Cover::trivial(q.num_atoms());
        let raw = ReformCache::new(&q, &tbox, false).jucq_for(&cover);
        let min = ReformCache::new(&q, &tbox, true).jucq_for(&cover);
        assert!(min.total_cqs() <= raw.total_cqs());
    }
}
