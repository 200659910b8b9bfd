//! Canonical forms of conjunctive queries.
//!
//! The PerfectRef fixpoint (and every set of CQs in this workspace) needs
//! to deduplicate queries *modulo renaming of existential variables and
//! reordering of body atoms*. Head terms are fixed — all CQs produced while
//! reformulating one query share the same head — so only existential
//! variables are relabeled.
//!
//! The canonical key is the lexicographically smallest encoding of the atom
//! sequence over all atom orders, with existential variables numbered by
//! first appearance. A branch-and-bound search keeps this exact; queries in
//! this domain have ≤ ~12 atoms and very few ties, so few branches are
//! explored; each step works on dense arrays prepared once per query (no
//! hashing or allocation inside the search — PerfectRef canonicalises every
//! candidate it generates, ~91 000 for LUBM Q13).

use crate::atom::Atom;
use crate::cq::CQ;
use crate::term::{Term, VarId};

/// Encoded term: orders constants < head vars < existential vars, with
/// not-yet-numbered existentials comparing greatest (so chosen atoms prefer
/// already-seen variables — a standard canonical-labeling refinement).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
enum Code {
    Const(u32),
    Head(u32),
    Exist(u32),
    Fresh,
}

/// Encoded atom: predicate tag/id then position codes.
type AtomCode = (u8, u32, Code, Code);

/// The canonical key of a CQ: head encoding plus minimal atom encoding.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CanonKey {
    head: Vec<Code>,
    atoms: Vec<AtomCode>,
}

/// Compute the canonical key of `cq`.
pub fn canonical_key(cq: &CQ) -> CanonKey {
    Labelling::of(cq).key
}

/// Rewrite `cq` into its canonical form: atoms in canonical order,
/// existential variables renumbered densely *after* the head variables.
/// Two CQs are equal modulo renaming iff their canonical forms are
/// structurally equal. Used by the USCQ factorizer to align disjuncts.
pub fn canonicalize(cq: &CQ) -> CQ {
    let labelling = Labelling::of(cq);
    // Head variables keep their ids; existential variables are packed after
    // the largest head id to avoid collisions.
    let base = cq
        .head_vars()
        .map(|v| v.0)
        .max()
        .map(|m| m + 1)
        .unwrap_or(0);
    let rename = |v: VarId| match labelling.exist_number(v) {
        Some(e) => Term::Var(VarId(base + e)),
        None => Term::Var(v), // head var
    };
    let atoms = labelling
        .perm
        .iter()
        .map(|&i| cq.atoms()[i].map_vars(rename))
        .collect();
    CQ::new(cq.head().to_vec(), atoms)
}

/// Are two CQs identical up to existential-variable renaming and atom
/// order?
pub fn same_modulo_renaming(a: &CQ, b: &CQ) -> bool {
    a.num_atoms() == b.num_atoms() && canonical_key(a) == canonical_key(b)
}

/// A body term with its variable resolved once, before the search: the
/// branch loop then encodes terms by array lookup instead of by hashing
/// variable ids.
#[derive(Clone, Copy)]
enum Slot {
    Const(u32),
    Head(u32),
    /// Dense index of an existential variable (by first body occurrence).
    Exist(usize),
}

/// An atom over [`Slot`]s; a concept's second slot is `Const(0)`, which
/// encodes to the padding the key uses for unary atoms.
type SlotAtom = (u8, u32, [Slot; 2]);

const UNNUMBERED: u32 = u32::MAX;

/// The result of the canonical-labelling search.
struct Labelling {
    key: CanonKey,
    /// Atom indices of `cq` in canonical order.
    perm: Vec<usize>,
    /// Existential variables by dense index, and the number each got.
    exist_vars: Vec<VarId>,
    exist_num: Vec<u32>,
}

impl Labelling {
    fn of(cq: &CQ) -> Labelling {
        // Head variables get stable numbers by first head occurrence.
        let mut head_vars: Vec<VarId> = Vec::new();
        let head = cq
            .head()
            .iter()
            .map(|&t| match t {
                Term::Const(c) => Code::Const(c.0),
                Term::Var(v) => Code::Head(index_of(&mut head_vars, v) as u32),
            })
            .collect();
        let mut exist_vars: Vec<VarId> = Vec::new();
        let mut slot = |t: Term| match t {
            Term::Const(c) => Slot::Const(c.0),
            Term::Var(v) => match head_vars.iter().position(|&h| h == v) {
                Some(h) => Slot::Head(h as u32),
                None => Slot::Exist(index_of(&mut exist_vars, v)),
            },
        };
        let atoms: Vec<SlotAtom> = cq
            .atoms()
            .iter()
            .map(|a| match *a {
                Atom::Concept(c, t) => (0, c.0, [slot(t), Slot::Const(0)]),
                Atom::Role(r, t1, t2) => (1, r.0, [slot(t1), slot(t2)]),
            })
            .collect();

        let n = atoms.len();
        let mut search = Search {
            atoms: &atoms,
            used: vec![false; n],
            exist_num: vec![UNNUMBERED; exist_vars.len()],
            numbered: 0,
            prefix: Vec::with_capacity(n),
            perm: Vec::with_capacity(n),
            best: Vec::with_capacity(n),
            best_perm: Vec::with_capacity(n),
            best_exist_num: vec![UNNUMBERED; exist_vars.len()],
            found: false,
        };
        search.run();
        Labelling {
            key: CanonKey {
                head,
                atoms: search.best,
            },
            perm: search.best_perm,
            exist_vars,
            exist_num: search.best_exist_num,
        }
    }

    fn exist_number(&self, v: VarId) -> Option<u32> {
        let i = self.exist_vars.iter().position(|&w| w == v)?;
        Some(self.exist_num[i])
    }
}

/// Position of `v` in `vars`, appending it if absent. Queries have a few
/// dozen variables at most, so a scan beats hashing.
fn index_of(vars: &mut Vec<VarId>, v: VarId) -> usize {
    vars.iter().position(|&w| w == v).unwrap_or_else(|| {
        vars.push(v);
        vars.len() - 1
    })
}

/// Branch-and-bound state. Every buffer is sized once in
/// [`Labelling::of`]; the search itself allocates nothing.
struct Search<'a> {
    atoms: &'a [SlotAtom],
    used: Vec<bool>,
    /// Number given to each existential so far, or [`UNNUMBERED`].
    exist_num: Vec<u32>,
    numbered: u32,
    prefix: Vec<AtomCode>,
    perm: Vec<usize>,
    best: Vec<AtomCode>,
    best_perm: Vec<usize>,
    best_exist_num: Vec<u32>,
    found: bool,
}

impl Search<'_> {
    fn encode_slot(&self, s: Slot) -> Code {
        match s {
            Slot::Const(c) => Code::Const(c),
            Slot::Head(h) => Code::Head(h),
            Slot::Exist(i) => match self.exist_num[i] {
                UNNUMBERED => Code::Fresh,
                e => Code::Exist(e),
            },
        }
    }

    fn encode_atom(&self, i: usize) -> AtomCode {
        let (tag, pred, [s1, s2]) = self.atoms[i];
        (tag, pred, self.encode_slot(s1), self.encode_slot(s2))
    }

    fn run(&mut self) {
        let n = self.atoms.len();
        let d = self.prefix.len();
        if d == n {
            // Fresh codes in the final encoding would mean un-numbered vars,
            // impossible: numbering happens as atoms are committed.
            if !self.found || self.prefix < self.best {
                self.found = true;
                self.best.clone_from(&self.prefix);
                self.best_perm.clone_from(&self.perm);
                self.best_exist_num.clone_from(&self.exist_num);
            }
            return;
        }
        // Prune: if the current prefix already exceeds the best at this
        // depth, stop. (Compare prefix against best's prefix.)
        if self.found && self.prefix.as_slice() > &self.best[..d] {
            return;
        }
        // Find minimal encoding among unused atoms.
        let min_code = (0..n)
            .filter(|&i| !self.used[i])
            .map(|i| self.encode_atom(i))
            .min()
            .expect("at least one unused atom");
        // Branch on every unused atom achieving the minimum.
        for i in 0..n {
            if self.used[i] || self.encode_atom(i) != min_code {
                continue;
            }
            // Commit: number fresh existential vars by position order.
            let before = self.numbered;
            let mut newly = [usize::MAX; 2];
            for (k, s) in self.atoms[i].2.into_iter().enumerate() {
                if let Slot::Exist(e) = s {
                    if self.exist_num[e] == UNNUMBERED {
                        self.exist_num[e] = self.numbered;
                        self.numbered += 1;
                        newly[k] = e;
                    }
                }
            }
            // Re-encode with the numbering applied.
            let committed = self.encode_atom(i);
            self.used[i] = true;
            self.prefix.push(committed);
            self.perm.push(i);
            self.run();
            self.perm.pop();
            self.prefix.pop();
            self.used[i] = false;
            for e in newly {
                if e != usize::MAX {
                    self.exist_num[e] = UNNUMBERED;
                }
            }
            self.numbered = before;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::{ConceptId, IndividualId, RoleId};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    #[test]
    fn renamed_existentials_are_equal() {
        // q(x) ← r(x, y) vs q(x) ← r(x, z).
        let a = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(1))]);
        let b = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(7))]);
        assert!(same_modulo_renaming(&a, &b));
    }

    #[test]
    fn atom_order_is_irrelevant() {
        let a1 = Atom::Concept(ConceptId(0), v(0));
        let a2 = Atom::Role(RoleId(0), v(1), v(0));
        let q1 = CQ::with_var_head(vec![VarId(0)], vec![a1, a2]);
        let q2 = CQ::with_var_head(vec![VarId(0)], vec![a2, a1]);
        assert!(same_modulo_renaming(&q1, &q2));
    }

    #[test]
    fn head_variables_are_rigid() {
        // q(x) ← A(x) differs from q(y) ← A(x): the second has an
        // existential body variable and a *different* head binding.
        let qa = CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(0), v(0))]);
        let qb = CQ::with_var_head(vec![VarId(1)], vec![Atom::Concept(ConceptId(0), v(0))]);
        assert!(!same_modulo_renaming(&qa, &qb));
    }

    #[test]
    fn distinct_structures_differ() {
        // r(x, y) ∧ r(y, z) — a path — vs r(x, y) ∧ r(x, z) — a fork.
        let path = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(RoleId(0), v(0), v(1)),
                Atom::Role(RoleId(0), v(1), v(2)),
            ],
        );
        let fork = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(RoleId(0), v(0), v(1)),
                Atom::Role(RoleId(0), v(0), v(2)),
            ],
        );
        assert!(!same_modulo_renaming(&path, &fork));
    }

    #[test]
    fn shared_vs_distinct_existentials_differ() {
        // r(x, y) ∧ s(z, y) — join on y — vs r(x, y) ∧ s(z, w).
        let joined = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(RoleId(0), v(0), v(1)),
                Atom::Role(RoleId(1), v(2), v(1)),
            ],
        );
        let apart = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(RoleId(0), v(0), v(1)),
                Atom::Role(RoleId(1), v(2), v(3)),
            ],
        );
        assert!(!same_modulo_renaming(&joined, &apart));
    }

    #[test]
    fn constants_are_rigid() {
        let qa = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Role(RoleId(0), v(0), Term::Const(IndividualId(1)))],
        );
        let qb = CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Role(RoleId(0), v(0), Term::Const(IndividualId(2)))],
        );
        assert!(!same_modulo_renaming(&qa, &qb));
    }

    #[test]
    fn symmetric_queries_canonicalize_with_ties() {
        // r(x, y) ∧ r(x, z) has an automorphism swapping y/z; both orders
        // must produce the same key.
        let q1 = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(RoleId(0), v(0), v(1)),
                Atom::Role(RoleId(0), v(0), v(2)),
            ],
        );
        let q2 = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(RoleId(0), v(0), v(2)),
                Atom::Role(RoleId(0), v(0), v(1)),
            ],
        );
        assert_eq!(canonical_key(&q1), canonical_key(&q2));
    }

    #[test]
    fn canonicalize_produces_equal_forms() {
        let a = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(RoleId(0), v(0), v(5)),
                Atom::Concept(ConceptId(2), v(5)),
            ],
        );
        let b = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(ConceptId(2), v(9)),
                Atom::Role(RoleId(0), v(0), v(9)),
            ],
        );
        let ca = super::canonicalize(&a);
        let cb = super::canonicalize(&b);
        assert_eq!(ca, cb, "canonical forms are structurally equal");
        assert!(
            same_modulo_renaming(&ca, &a),
            "canonicalize preserves the query"
        );
    }

    #[test]
    fn canonicalize_is_idempotent() {
        let q = CQ::with_var_head(
            vec![VarId(3)],
            vec![
                Atom::Role(RoleId(1), v(3), v(7)),
                Atom::Role(RoleId(0), v(7), v(4)),
                Atom::Concept(ConceptId(0), v(4)),
            ],
        );
        let c1 = super::canonicalize(&q);
        let c2 = super::canonicalize(&c1);
        assert_eq!(c1, c2);
    }

    /// The serving layer's plan cache keys on `canonical_key`, so the key
    /// must be invariant under exactly the transformations a client may
    /// apply to a repeated query: renaming head variables, renaming
    /// existential variables, and reordering body atoms — all at once.
    #[test]
    fn cache_key_invariance_under_combined_renaming_and_reordering() {
        let q = CQ::with_var_head(
            vec![VarId(0), VarId(1)],
            vec![
                Atom::Concept(ConceptId(3), v(0)),
                Atom::Role(RoleId(1), v(0), v(2)),
                Atom::Role(RoleId(0), v(2), v(1)),
                Atom::Concept(ConceptId(1), v(2)),
            ],
        );
        // Head vars 0,1 → 40,41; existential 2 → 77; atoms rotated and
        // partially swapped.
        let variant = CQ::with_var_head(
            vec![VarId(40), VarId(41)],
            vec![
                Atom::Role(RoleId(0), v(77), v(41)),
                Atom::Concept(ConceptId(1), v(77)),
                Atom::Concept(ConceptId(3), v(40)),
                Atom::Role(RoleId(1), v(40), v(77)),
            ],
        );
        assert_eq!(canonical_key(&q), canonical_key(&variant));
    }

    /// Queries that differ only in head-variable *order* must NOT share a
    /// key: the cache would otherwise serve column-permuted rows.
    #[test]
    fn cache_key_distinguishes_head_column_order() {
        let body = vec![Atom::Role(RoleId(0), v(0), v(1))];
        let xy = CQ::with_var_head(vec![VarId(0), VarId(1)], body.clone());
        let yx = CQ::with_var_head(vec![VarId(1), VarId(0)], body);
        assert_ne!(canonical_key(&xy), canonical_key(&yx));
    }

    /// A repeated head variable is not the same query as two distinct
    /// head variables (q(x,x) vs q(x,y) over the same body).
    #[test]
    fn cache_key_distinguishes_repeated_head_vars() {
        let body = vec![Atom::Role(RoleId(0), v(0), v(1))];
        let xx = CQ::with_var_head(vec![VarId(0), VarId(0)], body.clone());
        let xy = CQ::with_var_head(vec![VarId(0), VarId(1)], body);
        assert_ne!(canonical_key(&xx), canonical_key(&xy));
    }

    /// Duplicate atoms change the multiset encoding but not the query's
    /// semantics — the key treats them as distinct structures, which is
    /// safe for a cache (a miss, never a wrong hit).
    #[test]
    fn cache_key_is_deterministic_across_recomputation() {
        let q = CQ::with_var_head(
            vec![VarId(2)],
            vec![
                Atom::Role(RoleId(2), v(2), v(5)),
                Atom::Role(RoleId(2), v(5), v(2)),
                Atom::Concept(ConceptId(0), v(5)),
            ],
        );
        assert_eq!(canonical_key(&q), canonical_key(&q.clone()));
    }

    #[test]
    fn shift_invariance() {
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(RoleId(0), v(0), v(1)),
                Atom::Concept(ConceptId(2), v(1)),
            ],
        );
        let shifted = CQ::with_var_head(
            vec![VarId(10)],
            vec![
                Atom::Role(RoleId(0), v(10), v(11)),
                Atom::Concept(ConceptId(2), v(11)),
            ],
        );
        assert!(same_modulo_renaming(&q, &shifted));
    }
}
