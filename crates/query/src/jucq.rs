//! Joins of UCQs (JUCQ) and joins of USCQs (JUSCQ).
//!
//! Table 4: `q(x̄) ← UCQ1(x̄1) ∧ · · · ∧ UCQn(x̄n)`. These are the shapes
//! produced by cover-based reformulation (Definition 3): one UCQ per cover
//! fragment, joined on shared variables, projecting the original head.
//!
//! The SQL translation (§3) materializes each component with
//! `WITH SQLi AS (…)` and joins them under `SELECT DISTINCT`.

use std::collections::BTreeSet;
use std::fmt;

use obda_dllite::Vocabulary;

use crate::scq::USCQ;
use crate::term::{Term, VarId};
use crate::ucq::UCQ;

/// A join of UCQs. `head` is the original query head; every head variable
/// must be exported by at least one component.
#[derive(Clone, Debug, PartialEq)]
pub struct JUCQ {
    head: Vec<Term>,
    components: Vec<UCQ>,
}

impl JUCQ {
    pub fn new(head: Vec<Term>, components: Vec<UCQ>) -> Self {
        let exported: BTreeSet<VarId> = components
            .iter()
            .flat_map(|c| c.head().iter().filter_map(|t| t.as_var()))
            .collect();
        for t in &head {
            if let Term::Var(v) = t {
                assert!(
                    exported.contains(v),
                    "head variable {v:?} not exported by any component"
                );
            }
        }
        JUCQ { head, components }
    }

    pub fn head(&self) -> &[Term] {
        &self.head
    }

    pub fn components(&self) -> &[UCQ] {
        &self.components
    }

    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Join variables: variables exported by two or more components.
    pub fn join_vars(&self) -> BTreeSet<VarId> {
        let mut seen = BTreeSet::new();
        let mut joined = BTreeSet::new();
        for c in &self.components {
            let vars: BTreeSet<VarId> = c.head().iter().filter_map(|t| t.as_var()).collect();
            for v in vars {
                if !seen.insert(v) {
                    joined.insert(v);
                }
            }
        }
        joined
    }

    /// Total union terms across components (complexity measure).
    pub fn total_cqs(&self) -> usize {
        self.components.iter().map(UCQ::len).sum()
    }

    pub fn display<'a>(&'a self, voc: &'a Vocabulary) -> impl fmt::Display + 'a {
        struct D<'a>(&'a JUCQ, &'a Vocabulary);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                for (i, c) in self.0.components.iter().enumerate() {
                    writeln!(f, "COMPONENT {i}:")?;
                    writeln!(f, "{}", c.display(self.1))?;
                }
                Ok(())
            }
        }
        D(self, voc)
    }
}

/// A join of USCQs — the shape of generalized-cover reformulations when
/// fragments are rewritten into USCQs instead of UCQs.
#[derive(Clone, Debug, PartialEq)]
pub struct JUSCQ {
    head: Vec<Term>,
    components: Vec<USCQ>,
}

impl JUSCQ {
    pub fn new(head: Vec<Term>, components: Vec<USCQ>) -> Self {
        JUSCQ { head, components }
    }

    pub fn head(&self) -> &[Term] {
        &self.head
    }

    pub fn components(&self) -> &[USCQ] {
        &self.components
    }

    pub fn num_components(&self) -> usize {
        self.components.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::cq::CQ;
    use obda_dllite::{ConceptId, RoleId};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    fn ucq_over(head: Vec<Term>, atoms: Vec<Atom>) -> UCQ {
        UCQ::single(CQ::new(head, atoms))
    }

    #[test]
    fn join_vars_are_shared_exports() {
        // Component 1 exports (x, y); component 2 exports (y).
        let c1 = ucq_over(vec![v(0), v(1)], vec![Atom::Role(RoleId(0), v(0), v(1))]);
        let c2 = ucq_over(vec![v(1)], vec![Atom::Role(RoleId(1), v(2), v(1))]);
        let j = JUCQ::new(vec![v(0)], vec![c1, c2]);
        let jv: Vec<VarId> = j.join_vars().into_iter().collect();
        assert_eq!(jv, vec![VarId(1)]);
        assert_eq!(j.num_components(), 2);
    }

    #[test]
    #[should_panic(expected = "not exported")]
    fn head_var_must_be_exported() {
        let c1 = ucq_over(vec![v(1)], vec![Atom::Concept(ConceptId(0), v(1))]);
        JUCQ::new(vec![v(0)], vec![c1]);
    }

    #[test]
    fn totals_aggregate_components() {
        let c1 = UCQ::from_cqs(
            vec![v(0)],
            [
                CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(0), v(0))]),
                CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(1), v(0))]),
            ],
        );
        let c2 = ucq_over(vec![v(0)], vec![Atom::Role(RoleId(0), v(0), v(1))]);
        let j = JUCQ::new(vec![v(0)], vec![c1, c2]);
        assert_eq!(j.total_cqs(), 3);
        assert_eq!(crate::FolQuery::Jucq(j).total_atoms(), 3);
    }
}
