//! Unions of conjunctive queries.

use std::collections::HashSet;
use std::fmt;

use obda_dllite::Vocabulary;

use crate::canonical::{canonical_key, CanonKey};
use crate::cq::CQ;
use crate::term::Term;

/// A UCQ: `q(x̄) ← CQ1(x̄) ∨ · · · ∨ CQn(x̄)` (Table 4). All disjuncts share
/// the same head. Disjuncts are deduplicated modulo existential-variable
/// renaming and atom order.
#[derive(Clone, Debug, PartialEq)]
pub struct UCQ {
    head: Vec<Term>,
    cqs: Vec<CQ>,
    keys: HashSet<CanonKey>,
}

impl UCQ {
    /// An empty union with the given head (unsatisfiable query).
    pub fn empty(head: Vec<Term>) -> Self {
        UCQ {
            head,
            cqs: Vec::new(),
            keys: HashSet::new(),
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
        let key = canonical_key(&cq);
        self.push_keyed(cq, key)
    }

    /// [`push`](Self::push) for a caller that already holds
    /// `canonical_key(&cq)` — the key is the expensive part of an
    /// insertion, and PerfectRef and `minimize_ucq` need it beforehand
    /// for their own deduplication.
    pub fn push_keyed(&mut self, cq: CQ, key: CanonKey) -> bool {
        assert_eq!(
            cq.head().len(),
            self.head.len(),
            "all disjuncts share the UCQ head arity"
        );
        debug_assert_eq!(key, canonical_key(&cq), "key belongs to the disjunct");
        if self.keys.insert(key) {
            self.cqs.push(cq);
            true
        } else {
            false
        }
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
    fn empty_ucq_is_unsatisfiable_marker() {
        let u = UCQ::empty(vec![v(0)]);
        assert!(u.is_empty());
        assert_eq!(u.len(), 0);
    }
}
