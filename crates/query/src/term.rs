//! Terms and substitutions for FOL queries.

use std::fmt;

use obda_dllite::IndividualId;

/// A query variable. Ids are local to a query; fresh variables are minted
/// by incrementing past the query's maximum id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub u32);

/// A term: a variable or a constant (individual).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Term {
    Var(VarId),
    Const(IndividualId),
}

impl Term {
    pub fn as_var(self) -> Option<VarId> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    pub fn is_var(self) -> bool {
        matches!(self, Term::Var(_))
    }

    pub fn is_const(self) -> bool {
        matches!(self, Term::Const(_))
    }
}

impl From<VarId> for Term {
    fn from(v: VarId) -> Self {
        Term::Var(v)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "?{}", v.0),
            Term::Const(c) => write!(f, "{}", c),
        }
    }
}

/// The most bindings a [`Subst`] holds. Unifying two flat atoms meets
/// at most four variables, and a binding eliminates one of them.
const SUBST_CAPACITY: usize = 4;

/// A substitution `Var → Term` with transitive lookup (after composing
/// unifiers a variable may map to another mapped variable).
///
/// Held inline: the unifiers of the reduce step bind at most
/// four variables, so a lookup is a scan of a few words and
/// building one allocates nothing. Equality is that of the binding sets,
/// whatever order the bindings were made in.
#[derive(Clone, Copy, Debug)]
pub struct Subst {
    len: usize,
    bindings: [(VarId, Term); SUBST_CAPACITY],
}

impl Default for Subst {
    fn default() -> Self {
        Subst {
            len: 0,
            bindings: [(VarId(0), Term::Var(VarId(0))); SUBST_CAPACITY],
        }
    }
}

impl PartialEq for Subst {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|(v, t)| other.get(v) == Some(t))
    }
}

impl Eq for Subst {}

impl Subst {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `v := t`, replacing an earlier binding of `v`. An identity
    /// binding (`v := v`) is a no-op — storing it would make `resolve`
    /// cycle. Callers must ensure no longer cycles (`v` not reachable
    /// from `t`); with variable-to-variable bindings oriented consistently
    /// this holds by construction in the unifier.
    ///
    /// # Panics
    ///
    /// When a fifth variable is bound.
    pub fn bind(&mut self, v: VarId, t: Term) {
        if Term::Var(v) == t {
            return;
        }
        if let Some(slot) = self.bindings[..self.len].iter_mut().find(|(w, _)| *w == v) {
            slot.1 = t;
            return;
        }
        assert!(
            self.len < SUBST_CAPACITY,
            "a substitution binds at most {SUBST_CAPACITY} variables"
        );
        self.bindings[self.len] = (v, t);
        self.len += 1;
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// The term `v` is bound to directly, if any.
    pub fn get(&self, v: VarId) -> Option<Term> {
        self.iter().find(|&(w, _)| w == v).map(|(_, t)| t)
    }

    /// Resolve a term through the substitution until a fixpoint.
    pub fn resolve(&self, t: Term) -> Term {
        let mut cur = t;
        // Bounded walk to defend against accidental cycles in debug builds.
        for _ in 0..=self.len {
            match cur {
                Term::Var(v) => match self.get(v) {
                    Some(next) => cur = next,
                    None => return cur,
                },
                Term::Const(_) => return cur,
            }
        }
        debug_assert!(false, "substitution cycle");
        cur
    }

    /// Iterate over raw bindings, in the order they were made.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, Term)> + '_ {
        self.bindings[..self.len].iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_follows_chains() {
        let mut s = Subst::new();
        s.bind(VarId(0), Term::Var(VarId(1)));
        s.bind(VarId(1), Term::Const(IndividualId(7)));
        assert_eq!(s.resolve(Term::Var(VarId(0))), Term::Const(IndividualId(7)));
        assert_eq!(s.resolve(Term::Var(VarId(1))), Term::Const(IndividualId(7)));
        assert_eq!(s.resolve(Term::Var(VarId(2))), Term::Var(VarId(2)));
        assert_eq!(
            s.resolve(Term::Const(IndividualId(3))),
            Term::Const(IndividualId(3))
        );
    }

    #[test]
    fn equality_ignores_binding_order_and_rebinding_replaces() {
        let (x, y) = (VarId(0), VarId(1));
        let c = Term::Const(IndividualId(7));
        let mut a = Subst::new();
        a.bind(x, c);
        a.bind(y, Term::Var(x));
        let mut b = Subst::new();
        b.bind(y, Term::Var(x));
        b.bind(x, Term::Var(y));
        assert_ne!(a, b);
        b.bind(x, c);
        assert_eq!(a, b);
        assert_eq!(b.len(), 2);
        b.bind(y, Term::Var(y));
        assert_eq!(b.len(), 2, "an identity binding is a no-op");
    }

    #[test]
    fn term_accessors() {
        assert!(Term::Var(VarId(0)).is_var());
        assert!(Term::Const(IndividualId(0)).is_const());
        assert_eq!(Term::Var(VarId(3)).as_var(), Some(VarId(3)));
        assert_eq!(Term::Const(IndividualId(3)).as_var(), None);
    }
}
