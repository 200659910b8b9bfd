//! The envelope type over all FOL query dialects of Table 4.

use crate::cq::CQ;
use crate::jucq::{JUCQ, JUSCQ};
use crate::scq::{SCQ, USCQ};
use crate::shape::{Conjunct, Conjunction, Join, Union, Visitor};
use crate::term::Term;
use crate::ucq::UCQ;

/// Any FOL query this workspace can evaluate or translate to SQL: the six
/// dialects of Table 4.
#[derive(Clone, Debug, PartialEq)]
pub enum FolQuery {
    Cq(CQ),
    Ucq(UCQ),
    Scq(SCQ),
    Uscq(USCQ),
    Jucq(JUCQ),
    Juscq(JUSCQ),
}

impl FolQuery {
    /// Run the visitor method for this query's shape: the one place that
    /// tells the dialects apart (besides their names).
    pub fn visit<'q, V: Visitor<'q>>(&'q self, v: &mut V) -> V::Out {
        match self {
            FolQuery::Cq(q) => v.conjunction(q),
            FolQuery::Scq(q) => v.conjunction(q),
            FolQuery::Ucq(q) => v.union(q),
            FolQuery::Uscq(q) => v.union(q),
            FolQuery::Jucq(q) => v.join(q),
            FolQuery::Juscq(q) => v.join(q),
        }
    }

    pub fn head(&self) -> &[Term] {
        self.visit(&mut Head)
    }

    /// Dialect name as in Table 4.
    pub fn dialect(&self) -> &'static str {
        match self {
            FolQuery::Cq(_) => "CQ",
            FolQuery::Ucq(_) => "UCQ",
            FolQuery::Scq(_) => "SCQ",
            FolQuery::Uscq(_) => "USCQ",
            FolQuery::Jucq(_) => "JUCQ",
            FolQuery::Juscq(_) => "JUSCQ",
        }
    }

    /// Total number of atoms in the formula — a size measure that tracks
    /// the length of the SQL translation.
    pub fn total_atoms(&self) -> usize {
        self.visit(&mut Size).0
    }

    /// Number of union terms when flattened to a UCQ (the paper's
    /// complexity proxy), without performing the flattening.
    pub fn equivalent_cq_count(&self) -> usize {
        self.visit(&mut Size).1
    }
}

struct Head;

impl<'q> Visitor<'q> for Head {
    type Out = &'q [Term];
    fn conjunction<C: Conjunction>(&mut self, c: &'q C) -> &'q [Term] {
        c.head()
    }
    fn union<U: Union>(&mut self, u: &'q U) -> &'q [Term] {
        u.head()
    }
    fn join<J: Join>(&mut self, j: &'q J) -> &'q [Term] {
        j.head()
    }
}

/// (atoms, equivalent CQs). A conjunction flattens to the product of its
/// slot widths, a join to the product of its components' counts, an
/// empty component counting as one.
struct Size;

impl Visitor<'_> for Size {
    type Out = (usize, usize);
    fn conjunction<C: Conjunction>(&mut self, c: &C) -> (usize, usize) {
        let widths = c.body().iter().map(|s| s.atoms().len());
        (widths.clone().sum(), widths.product())
    }
    fn union<U: Union>(&mut self, u: &U) -> (usize, usize) {
        let atoms = u.arms().iter().map(|a| self.conjunction(a).0).sum();
        (atoms, u.equivalent_cq_count())
    }
    fn join<J: Join>(&mut self, j: &J) -> (usize, usize) {
        j.components().iter().fold((0, 1), |(atoms, cqs), c| {
            let (a, n) = self.union(c);
            (atoms + a, cqs * n.max(1))
        })
    }
}

impl From<CQ> for FolQuery {
    fn from(q: CQ) -> Self {
        FolQuery::Cq(q)
    }
}

impl From<UCQ> for FolQuery {
    fn from(q: UCQ) -> Self {
        FolQuery::Ucq(q)
    }
}

impl From<JUCQ> for FolQuery {
    fn from(q: JUCQ) -> Self {
        FolQuery::Jucq(q)
    }
}

impl From<USCQ> for FolQuery {
    fn from(q: USCQ) -> Self {
        FolQuery::Uscq(q)
    }
}

impl From<JUSCQ> for FolQuery {
    fn from(q: JUSCQ) -> Self {
        FolQuery::Juscq(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::term::VarId;
    use obda_dllite::ConceptId;

    #[test]
    fn dialect_names_match_table4() {
        let cq = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(ConceptId(0), Term::Var(VarId(0)))],
        );
        assert_eq!(FolQuery::from(cq.clone()).dialect(), "CQ");
        assert_eq!(FolQuery::from(UCQ::single(cq.clone())).dialect(), "UCQ");
        assert_eq!(
            FolQuery::Jucq(JUCQ::new(vec![Term::Var(VarId(0))], vec![UCQ::single(cq)])).dialect(),
            "JUCQ"
        );
    }

    #[test]
    fn equivalent_cq_count_multiplies_components() {
        let c0 = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(ConceptId(0), Term::Var(VarId(0)))],
        );
        let c1 = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(ConceptId(1), Term::Var(VarId(0)))],
        );
        let u = UCQ::from_cqs(vec![Term::Var(VarId(0))], [c0, c1]);
        let j = JUCQ::new(vec![Term::Var(VarId(0))], vec![u.clone(), u]);
        assert_eq!(FolQuery::Jucq(j).equivalent_cq_count(), 4);
    }
}
