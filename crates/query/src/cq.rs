//! Conjunctive queries (select-project-join queries).
//!
//! `q(x̄) ← a1 ∧ · · · ∧ an` — §2.2 of the paper. The head is a vector of
//! terms: usually variables, but reformulation steps (most general unifiers
//! meeting constants) can specialize a head variable to a constant, so the
//! general form is kept.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use obda_dllite::{PredId, Vocabulary};

use crate::atom::{fmt_term, Atom};
use crate::term::{Subst, Term, VarId};

/// The set of body predicates of a CQ, folded into 128 bits.
///
/// A homomorphism maps every atom onto an atom of the same predicate, so
/// `from.signature() ⊆ to.signature()` is *necessary* for one to exist
/// from `from` into `to`. Predicates that share a bit only make the test
/// pass more often; it never rejects a pair the search would accept.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PredSig(u128);

impl PredSig {
    fn of(atoms: &[Atom]) -> Self {
        Self::of_iter(atoms)
    }

    /// The signature of `atoms`, however they are listed.
    pub(crate) fn of_iter<'a>(atoms: impl IntoIterator<Item = &'a Atom>) -> Self {
        PredSig(atoms.into_iter().fold(0, |sig, a| {
            // Concepts on even bits, roles on odd ones: ids are dense per
            // kind, so small vocabularies get a bit per predicate.
            let bit = match a.pred() {
                PredId::Concept(c) => 2 * (c.0 % 64),
                PredId::Role(r) => 2 * (r.0 % 64) + 1,
            };
            sig | 1u128 << bit
        }))
    }

    /// Does every bit set here also appear in `other`?
    pub fn is_subset_of(self, other: PredSig) -> bool {
        self.0 & !other.0 == 0
    }
}

/// A conjunctive query. Body atoms are kept as a duplicate-free vector in
/// insertion order.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CQ {
    head: Vec<Term>,
    atoms: Vec<Atom>,
    /// Always `PredSig::of(&atoms)`, so the derived `Eq`/`Hash` see
    /// nothing the atoms do not already determine.
    sig: PredSig,
}

impl CQ {
    /// Build a CQ; duplicate atoms are dropped (CQ bodies are sets),
    /// keeping first occurrences in order.
    pub fn new(head: Vec<Term>, mut atoms: Vec<Atom>) -> Self {
        let mut kept = 0;
        for i in 0..atoms.len() {
            let atom = atoms[i];
            if !atoms[..kept].contains(&atom) {
                atoms[kept] = atom;
                kept += 1;
            }
        }
        atoms.truncate(kept);
        Self::from_distinct(head, atoms)
    }

    /// Build a CQ from atoms the caller has already deduplicated, as
    /// [`CQ::new`] would have left them; skips its quadratic scan.
    pub fn from_distinct(head: Vec<Term>, atoms: Vec<Atom>) -> Self {
        debug_assert!(
            atoms
                .iter()
                .enumerate()
                .all(|(i, a)| !atoms[..i].contains(a)),
            "repeated atom"
        );
        CQ {
            head,
            sig: PredSig::of(&atoms),
            atoms,
        }
    }

    /// A CQ with an all-variable head.
    pub fn with_var_head(head: Vec<VarId>, atoms: Vec<Atom>) -> Self {
        Self::new(head.into_iter().map(Term::Var).collect(), atoms)
    }

    pub fn head(&self) -> &[Term] {
        &self.head
    }

    /// Head variables in position order (skipping constants).
    pub fn head_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.head.iter().filter_map(|t| t.as_var())
    }

    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// The body's predicate signature (see [`PredSig`]).
    pub fn signature(&self) -> PredSig {
        self.sig
    }

    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// All variables of the query (body ∪ head), sorted.
    pub fn all_vars(&self) -> BTreeSet<VarId> {
        let mut s: BTreeSet<VarId> = self.atoms.iter().flat_map(|a| a.vars()).collect();
        s.extend(self.head_vars());
        s
    }

    /// Existential (non-head) variables, sorted.
    pub fn existential_vars(&self) -> BTreeSet<VarId> {
        let head: BTreeSet<VarId> = self.head_vars().collect();
        self.atoms
            .iter()
            .flat_map(|a| a.vars())
            .filter(|v| !head.contains(v))
            .collect()
    }

    /// Number of occurrences of each variable across body atom positions.
    pub fn var_occurrences(&self) -> HashMap<VarId, usize> {
        let mut m = HashMap::new();
        for a in &self.atoms {
            for v in a.vars() {
                *m.entry(v).or_insert(0) += 1;
            }
        }
        m
    }

    /// Is `v` *unbound* in the PerfectRef sense: an existential variable
    /// with a single occurrence in the body? Such a variable behaves like
    /// the anonymous `_` of the reformulation literature. Counts with an
    /// early exit at the second occurrence; allocates nothing.
    pub fn is_unbound(&self, v: VarId) -> bool {
        if self.head_vars().any(|h| h == v) {
            return false;
        }
        let mut occurrences = self.atoms.iter().flat_map(Atom::vars).filter(|&w| w == v);
        occurrences.next().is_some() && occurrences.next().is_none()
    }

    /// Every unbound variable (see [`CQ::is_unbound`]), sorted: one sort of
    /// the body's variable occurrences, for callers that test many
    /// positions of one query.
    pub fn unbound_vars(&self) -> Vec<VarId> {
        let mut vars = Vec::new();
        self.unbound_vars_into(&mut vars);
        vars
    }

    /// [`CQ::unbound_vars`] written into `vars` (cleared first), so that a
    /// caller labelling many queries reuses one buffer.
    pub fn unbound_vars_into(&self, vars: &mut Vec<VarId>) {
        vars.clear();
        vars.extend(self.atoms.iter().flat_map(Atom::vars));
        vars.sort_unstable();
        let mut kept = 0;
        let mut i = 0;
        while i < vars.len() {
            let v = vars[i];
            let run = vars[i..].iter().take_while(|&&w| w == v).count();
            if run == 1 && !self.head_vars().any(|h| h == v) {
                vars[kept] = v;
                kept += 1;
            }
            i += run;
        }
        vars.truncate(kept);
    }

    /// First variable id strictly greater than every id in use. Scans the
    /// terms; allocates nothing.
    pub fn fresh_var(&self) -> VarId {
        let body = self.atoms.iter().flat_map(Atom::vars);
        let max = self.head_vars().chain(body).map(|v| v.0).max();
        VarId(max.map_or(0, |m| m + 1))
    }

    /// Apply a substitution to body and head.
    pub fn apply(&self, subst: &Subst) -> CQ {
        let head = self.head.iter().map(|&t| subst.resolve(t)).collect();
        let atoms = self.atoms.iter().map(|a| a.apply(subst)).collect();
        CQ::new(head, atoms)
    }

    /// Rename every variable by adding `offset` (for renaming two queries
    /// apart before unification).
    pub fn shift_vars(&self, offset: u32) -> CQ {
        let head = self
            .head
            .iter()
            .map(|&t| match t {
                Term::Var(v) => Term::Var(VarId(v.0 + offset)),
                c => c,
            })
            .collect();
        let atoms = self
            .atoms
            .iter()
            .map(|a| a.map_vars(|v| Term::Var(VarId(v.0 + offset))))
            .collect();
        CQ::new(head, atoms)
    }

    /// Is the query connected (§2.2: queries without cartesian products)?
    /// Atoms are connected when they share a variable. Empty and
    /// single-atom queries are connected.
    pub fn is_connected(&self) -> bool {
        connected_subset(&self.atoms, &(0..self.atoms.len()).collect::<Vec<_>>())
    }

    /// Remove the atom at `idx`, keeping head and the rest.
    pub fn without_atom(&self, idx: usize) -> CQ {
        let mut cq = self.clone();
        cq.remove_atom(idx);
        cq
    }

    /// [`CQ::without_atom`] in place.
    pub fn remove_atom(&mut self, idx: usize) {
        self.atoms.remove(idx);
        self.sig = PredSig::of(&self.atoms);
    }

    pub fn display<'a>(&'a self, voc: &'a Vocabulary) -> impl fmt::Display + 'a {
        struct D<'a>(&'a CQ, &'a Vocabulary);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "q(")?;
                for (i, t) in self.0.head.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", fmt_term(*t, self.1))?;
                }
                write!(f, ") <- ")?;
                for (i, a) in self.0.atoms.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ^ ")?;
                    }
                    write!(f, "{}", a.display(self.1))?;
                }
                Ok(())
            }
        }
        D(self, voc)
    }
}

/// Are the atoms at `indices` of `atoms` connected through shared
/// variables? (Union-find over the induced sub-hypergraph.)
pub fn connected_subset(atoms: &[Atom], indices: &[usize]) -> bool {
    if indices.len() <= 1 {
        return true;
    }
    let n = indices.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    // Map each variable to the first atom (within the subset) using it.
    let mut var_owner: HashMap<VarId, usize> = HashMap::new();
    for (pos, &idx) in indices.iter().enumerate() {
        for v in atoms[idx].vars() {
            match var_owner.get(&v) {
                Some(&owner) => {
                    let (a, b) = (find(&mut parent, owner), find(&mut parent, pos));
                    if a != b {
                        parent[a] = b;
                    }
                }
                None => {
                    var_owner.insert(v, pos);
                }
            }
        }
    }
    let root = find(&mut parent, 0);
    (1..n).all(|i| find(&mut parent, i) == root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::{ConceptId, IndividualId, RoleId};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    /// The query of Example 3: q(x) ← PhDStudent(x) ∧ worksWith(y, x).
    fn example3_cq() -> CQ {
        CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(ConceptId(0), v(0)),
                Atom::Role(RoleId(0), v(1), v(0)),
            ],
        )
    }

    #[test]
    fn duplicate_atoms_collapse() {
        let a = Atom::Concept(ConceptId(0), v(0));
        let q = CQ::with_var_head(vec![VarId(0)], vec![a, a]);
        assert_eq!(q.num_atoms(), 1);
    }

    #[test]
    fn vars_and_existentials() {
        let q = example3_cq();
        let all: Vec<VarId> = q.all_vars().into_iter().collect();
        assert_eq!(all, vec![VarId(0), VarId(1)]);
        let ex: Vec<VarId> = q.existential_vars().into_iter().collect();
        assert_eq!(ex, vec![VarId(1)]);
    }

    #[test]
    fn unbound_variable_detection() {
        let q = example3_cq();
        assert!(q.is_unbound(VarId(1)), "y occurs once, not in head");
        assert!(!q.is_unbound(VarId(0)), "x is a head variable");
        // A variable occurring twice is bound even if existential.
        let q2 = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(RoleId(0), v(0), v(1)),
                Atom::Role(RoleId(1), v(1), v(2)),
            ],
        );
        assert!(!q2.is_unbound(VarId(1)));
        assert!(q2.is_unbound(VarId(2)));
        assert_eq!(q2.unbound_vars(), vec![VarId(2)]);
        assert_eq!(q.unbound_vars(), vec![VarId(1)]);
        // A variable absent from the body is not unbound.
        assert!(!q2.is_unbound(VarId(9)));
    }

    #[test]
    fn connectivity() {
        let q = example3_cq();
        assert!(q.is_connected());
        let disconnected = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(ConceptId(0), v(0)),
                Atom::Concept(ConceptId(1), v(1)),
            ],
        );
        assert!(!disconnected.is_connected());
        // Single atom and empty bodies are connected.
        assert!(CQ::with_var_head(vec![], vec![Atom::Concept(ConceptId(0), v(0))]).is_connected());
        assert!(CQ::with_var_head(vec![], vec![]).is_connected());
    }

    #[test]
    fn fresh_var_exceeds_all() {
        let q = example3_cq();
        assert_eq!(q.fresh_var(), VarId(2));
        let empty = CQ::with_var_head(vec![], vec![]);
        assert_eq!(empty.fresh_var(), VarId(0));
    }

    #[test]
    fn shift_vars_renames_consistently() {
        let q = example3_cq().shift_vars(10);
        let all: Vec<VarId> = q.all_vars().into_iter().collect();
        assert_eq!(all, vec![VarId(10), VarId(11)]);
        assert_eq!(q.head(), &[v(10)]);
    }

    #[test]
    fn apply_substitutes_head_and_body() {
        let q = example3_cq();
        let mut s = Subst::new();
        s.bind(VarId(0), Term::Const(IndividualId(9)));
        let q2 = q.apply(&s);
        assert_eq!(q2.head(), &[Term::Const(IndividualId(9))]);
        assert!(q2
            .atoms()
            .iter()
            .all(|a| a.terms().all(|t| t != Term::Var(VarId(0)))));
    }

    #[test]
    fn without_atom_drops_one() {
        let q = example3_cq();
        let q2 = q.without_atom(0);
        assert_eq!(q2.num_atoms(), 1);
        assert!(matches!(q2.atoms()[0], Atom::Role(..)));
    }
}
