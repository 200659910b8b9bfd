//! Unions of conjunctive queries.

use std::cell::RefCell;
use std::fmt;

use obda_dllite::Vocabulary;

use crate::atom::Atom;
use crate::canonical::Canonicaliser;
use crate::cq::CQ;
use crate::fxhash::WordSet;
use crate::term::Term;

thread_local! {
    /// The labeller behind [`UCQ::push`]: its buffers are sized by the
    /// first queries a thread labels and reused for every later one.
    static LABELLER: RefCell<Canonicaliser> = RefCell::new(Canonicaliser::new());
}

/// The packed canonical key of `head ← atoms` (see
/// [`Canonicaliser::packed_key`]), handed to `f`.
fn with_packed_key<R>(head: &[Term], atoms: &[Atom], f: impl FnOnce(&[u32]) -> R) -> R {
    LABELLER.with(|labeller| f(labeller.borrow_mut().packed_key(head, atoms)))
}

/// A UCQ: `q(x̄) ← CQ1(x̄) ∨ · · · ∨ CQn(x̄)` (Table 4). All disjuncts share
/// the same head. Disjuncts are deduplicated modulo existential-variable
/// renaming and atom order.
#[derive(Clone, Debug)]
pub struct UCQ {
    head: Vec<Term>,
    cqs: Vec<CQ>,
    /// The packed canonical key of each disjunct: entry `i` is `cqs[i]`'s.
    keys: WordSet,
}

/// Two unions are equal when they list the same disjuncts in the same
/// order; the keys follow from the disjuncts.
impl PartialEq for UCQ {
    fn eq(&self, other: &Self) -> bool {
        self.head == other.head && self.cqs == other.cqs
    }
}

impl UCQ {
    /// An empty union with the given head (unsatisfiable query).
    pub fn empty(head: Vec<Term>) -> Self {
        UCQ {
            head,
            cqs: Vec::new(),
            keys: WordSet::default(),
        }
    }

    /// Single-disjunct UCQ.
    pub fn single(cq: CQ) -> Self {
        let mut u = UCQ::empty(cq.head().to_vec());
        u.push(cq);
        u
    }

    /// Build from disjuncts; panics if heads disagree (programming error).
    pub fn from_cqs(head: Vec<Term>, cqs: impl IntoIterator<Item = CQ>) -> Self {
        let mut u = UCQ::empty(head);
        for cq in cqs {
            u.push(cq);
        }
        u
    }

    /// Add a disjunct; returns `true` if it was new modulo renaming.
    ///
    /// Disjunct heads must agree with the UCQ head *positionally* (same
    /// arity): a disjunct may specialize the nominal head — e.g. a reduce
    /// step unifying two answer variables yields head `(x, x)` under a
    /// nominal head `(x, y)` — and evaluation projects each disjunct's own
    /// head, so position `i` always carries the nominal variable `i`'s
    /// value.
    pub fn push(&mut self, cq: CQ) -> bool {
        let new = with_packed_key(cq.head(), cq.atoms(), |key| self.insert_key(&cq, key));
        if new {
            self.cqs.push(cq);
        }
        new
    }

    /// [`push`](Self::push) for a caller that already holds the disjunct's
    /// packed canonical key ([`Canonicaliser::packed_key`]) — the key is
    /// the expensive part of an insertion, and PerfectRef and
    /// `minimize_ucq` need it beforehand for their own deduplication.
    pub fn push_packed(&mut self, cq: CQ, key: &[u32]) -> bool {
        debug_assert!(
            with_packed_key(cq.head(), cq.atoms(), |own| own == key),
            "key belongs to the disjunct"
        );
        let new = self.insert_key(&cq, key);
        if new {
            self.cqs.push(cq);
        }
        new
    }

    /// Record the key of `cq`, about to be pushed if it is new.
    fn insert_key(&mut self, cq: &CQ, key: &[u32]) -> bool {
        assert_eq!(
            cq.head().len(),
            self.head.len(),
            "all disjuncts share the UCQ head arity"
        );
        self.keys.insert(key)
    }

    /// The union of the disjuncts whose index `keep` accepts, in order.
    /// They stay distinct, so their keys are copied, not recomputed.
    pub fn select(&self, mut keep: impl FnMut(usize) -> bool) -> UCQ {
        let mut u = UCQ::empty(self.head.clone());
        for (i, cq) in self.cqs.iter().enumerate() {
            if keep(i) {
                u.keys.insert(self.keys.get(i));
                u.cqs.push(cq.clone());
            }
        }
        u
    }

    pub fn head(&self) -> &[Term] {
        &self.head
    }

    pub fn cqs(&self) -> &[CQ] {
        &self.cqs
    }

    /// Number of union terms — the paper's rough complexity measure for a
    /// reformulation (§6.1: "unions of 35 to 667 CQs").
    pub fn len(&self) -> usize {
        self.cqs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cqs.is_empty()
    }

    /// Total number of atoms across all disjuncts.
    pub fn total_atoms(&self) -> usize {
        self.cqs.iter().map(CQ::num_atoms).sum()
    }

    pub fn display<'a>(&'a self, voc: &'a Vocabulary) -> impl fmt::Display + 'a {
        struct D<'a>(&'a UCQ, &'a Vocabulary);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                for (i, cq) in self.0.cqs.iter().enumerate() {
                    if i > 0 {
                        writeln!(f, " UNION")?;
                    }
                    write!(f, "  {}", cq.display(self.1))?;
                }
                Ok(())
            }
        }
        D(self, voc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::term::VarId;
    use obda_dllite::{ConceptId, RoleId};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    #[test]
    fn push_deduplicates_modulo_renaming() {
        let cq1 = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(1))]);
        let cq2 = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(5))]);
        let mut u = UCQ::single(cq1);
        assert!(!u.push(cq2), "renamed duplicate rejected");
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn distinct_disjuncts_accumulate() {
        let cq1 = CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(0), v(0))]);
        let cq2 = CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(1), v(0))]);
        let u = UCQ::from_cqs(vec![v(0)], [cq1, cq2]);
        assert_eq!(u.len(), 2);
        assert_eq!(u.total_atoms(), 2);
    }

    #[test]
    #[should_panic(expected = "share the UCQ head arity")]
    fn mismatched_head_arity_panics() {
        let cq1 = CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(0), v(0))]);
        let cq2 = CQ::with_var_head(
            vec![VarId(0), VarId(1)],
            vec![Atom::Role(RoleId(0), v(0), v(1))],
        );
        let mut u = UCQ::single(cq1);
        u.push(cq2);
    }

    #[test]
    fn specialized_heads_are_accepted() {
        // A disjunct whose head unified two answer variables.
        let nominal = CQ::with_var_head(
            vec![VarId(0), VarId(1)],
            vec![Atom::Role(RoleId(0), v(0), v(1))],
        );
        let specialized = CQ::with_var_head(
            vec![VarId(0), VarId(0)],
            vec![Atom::Role(RoleId(0), v(0), v(0))],
        );
        let mut u = UCQ::single(nominal);
        assert!(u.push(specialized));
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn select_keeps_keys_with_their_disjuncts() {
        let cqs: Vec<CQ> = (0..4)
            .map(|c| CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(c), v(0))]))
            .collect();
        let u = UCQ::from_cqs(vec![v(0)], cqs.clone());
        let mut odd = u.select(|i| i % 2 == 1);
        assert_eq!(odd.cqs(), &[cqs[1].clone(), cqs[3].clone()]);
        assert!(!odd.push(cqs[3].clone()), "the key came along");
        assert!(odd.push(cqs[0].clone()));
        assert_eq!(
            odd,
            UCQ::from_cqs(vec![v(0)], [1, 3, 0].map(|i| cqs[i].clone()))
        );
    }

    #[test]
    fn empty_ucq_is_unsatisfiable_marker() {
        let u = UCQ::empty(vec![v(0)]);
        assert!(u.is_empty());
        assert_eq!(u.len(), 0);
    }
}
