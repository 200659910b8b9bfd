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
//! explored; each step works on dense arrays prepared once per query, and
//! a [`Canonicaliser`] keeps those arrays across queries, so labelling
//! allocates nothing. PerfectRef labels every candidate that does not
//! repeat a recent one up to a renaming — 53 289 of the 90 994 it builds
//! for LUBM Q13 — and keeps the keys [packed](Canonicaliser::packed_key)
//! into `u32` words; `minimize_ucq` labels every core with one labeller,
//! and a `UCQ` keeps its disjuncts' packed keys.

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
    let mut labeller = Canonicaliser::new();
    labeller.label(cq.head(), cq.atoms());
    CanonKey {
        head: labeller.head,
        atoms: labeller.best,
    }
}

/// Rewrite `cq` into its canonical form: atoms in canonical order,
/// existential variables renumbered densely *after* the head variables.
/// Two CQs are equal modulo renaming iff their canonical forms are
/// structurally equal. Used by the USCQ factorizer to align disjuncts.
pub fn canonicalize(cq: &CQ) -> CQ {
    let mut labelling = Canonicaliser::new();
    labelling.label(cq.head(), cq.atoms());
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
        .best_perm
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

/// The canonical-labelling search, with buffers that outlive one query.
///
/// [`canonical_key`] and [`canonicalize`] label one query with a fresh
/// labeller. A caller that labels many queries — PerfectRef canonicalises
/// tens of thousands of candidates per run — keeps one and asks for
/// [`packed_key`](Self::packed_key): once the first queries have sized the
/// buffers, labelling and packing allocate nothing.
#[derive(Default)]
pub struct Canonicaliser {
    /// Head encoding, and head variables by first head occurrence.
    head: Vec<Code>,
    head_vars: Vec<VarId>,
    /// Existential variables by dense index (first body occurrence).
    exist_vars: Vec<VarId>,
    atoms: Vec<SlotAtom>,
    used: Vec<bool>,
    /// Number given to each existential so far, or [`UNNUMBERED`].
    exist_num: Vec<u32>,
    numbered: u32,
    prefix: Vec<AtomCode>,
    perm: Vec<usize>,
    /// The atoms achieving each open level's minimal encoding, as a stack
    /// of per-level runs.
    ties: Vec<usize>,
    best: Vec<AtomCode>,
    /// Atom indices in canonical order, and the number each existential
    /// got, in the best labelling.
    best_perm: Vec<usize>,
    best_exist_num: Vec<u32>,
    found: bool,
    packed: Vec<u32>,
}

impl Canonicaliser {
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical key of the query `head ← atoms`, packed into `u32`
    /// words: two queries' packed keys are equal exactly when their
    /// [`CanonKey`]s are (the encoding is at `pack_key`). The slice lives
    /// until the next call.
    pub fn packed_key(&mut self, head: &[Term], atoms: &[Atom]) -> &[u32] {
        self.label(head, atoms);
        self.packed.clear();
        pack_key(&self.head, &self.best, &mut self.packed);
        &self.packed
    }

    /// Run the search on `head ← atoms`, leaving its result in `head`,
    /// `best`, `best_perm` and `best_exist_num`.
    fn label(&mut self, head: &[Term], atoms: &[Atom]) {
        // Head variables get stable numbers by first head occurrence.
        self.head_vars.clear();
        self.head.clear();
        for &t in head {
            let code = match t {
                Term::Const(c) => Code::Const(c.0),
                Term::Var(v) => Code::Head(index_of(&mut self.head_vars, v) as u32),
            };
            self.head.push(code);
        }
        self.exist_vars.clear();
        let (head_vars, exist_vars) = (&self.head_vars, &mut self.exist_vars);
        let mut slot = |t: Term| match t {
            Term::Const(c) => Slot::Const(c.0),
            Term::Var(v) => match head_vars.iter().position(|&h| h == v) {
                Some(h) => Slot::Head(h as u32),
                None => Slot::Exist(index_of(exist_vars, v)),
            },
        };
        self.atoms.clear();
        self.atoms.extend(atoms.iter().map(|a| match *a {
            Atom::Concept(c, t) => (0, c.0, [slot(t), Slot::Const(0)]),
            Atom::Role(r, t1, t2) => (1, r.0, [slot(t1), slot(t2)]),
        }));

        let (n, vars) = (self.atoms.len(), self.exist_vars.len());
        self.used.clear();
        self.used.resize(n, false);
        self.exist_num.clear();
        self.exist_num.resize(vars, UNNUMBERED);
        self.numbered = 0;
        self.prefix.clear();
        self.perm.clear();
        self.ties.clear();
        self.best.clear();
        self.best_perm.clear();
        self.best_exist_num.clear();
        self.best_exist_num.resize(vars, UNNUMBERED);
        self.found = false;
        self.search(false);
    }

    fn exist_number(&self, v: VarId) -> Option<u32> {
        let i = self.exist_vars.iter().position(|&w| w == v)?;
        Some(self.best_exist_num[i])
    }

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

    /// Branch and bound below the current prefix; returns whether it
    /// improved `best`. `tied` says the prefix equals `best`'s prefix of
    /// the same length; otherwise it is smaller, or nothing is found yet.
    /// The comparison is carried down one code at a time instead of
    /// re-comparing whole prefixes at every node, and each level encodes
    /// its atoms once to find its minimum. The tree, the order it is
    /// walked in and the leaf kept (the first smallest) are those of the
    /// plain exhaustive search, so keys and canonical forms are too.
    fn search(&mut self, mut tied: bool) -> bool {
        let n = self.atoms.len();
        let d = self.prefix.len();
        if d == n {
            // Fresh codes in the final encoding would mean un-numbered vars,
            // impossible: numbering happens as atoms are committed.
            if self.found && tied {
                return false; // equal to the best: the first one stays
            }
            self.found = true;
            self.best.clone_from(&self.prefix);
            self.best_perm.clone_from(&self.perm);
            self.best_exist_num.clone_from(&self.exist_num);
            return true;
        }
        // Branch on every unused atom achieving the minimal encoding, in
        // index order.
        let start = self.ties.len();
        let mut min_code = None;
        for i in 0..n {
            if self.used[i] {
                continue;
            }
            let code = self.encode_atom(i);
            match min_code {
                Some(m) if code > m => continue,
                Some(m) if code == m => {}
                _ => {
                    min_code = Some(code);
                    self.ties.truncate(start);
                }
            }
            self.ties.push(i);
        }
        let end = self.ties.len();
        let mut improved = false;
        for k in start..end {
            let i = self.ties[k];
            // Commit: number fresh existential vars by position order.
            let before = self.numbered;
            let mut newly = [usize::MAX; 2];
            for (p, s) in self.atoms[i].2.into_iter().enumerate() {
                if let Slot::Exist(e) = s {
                    if self.exist_num[e] == UNNUMBERED {
                        self.exist_num[e] = self.numbered;
                        self.numbered += 1;
                        newly[p] = e;
                    }
                }
            }
            // Re-encode with the numbering applied; a prefix tied with the
            // best stops where it first exceeds it.
            let committed = self.encode_atom(i);
            let bounded = self.found && tied;
            if !(bounded && committed > self.best[d]) {
                self.used[i] = true;
                self.prefix.push(committed);
                self.perm.push(i);
                if self.search(bounded && committed == self.best[d]) {
                    // The new best extends this prefix.
                    improved = true;
                    tied = true;
                }
                self.perm.pop();
                self.prefix.pop();
                self.used[i] = false;
            }
            for e in newly {
                if e != usize::MAX {
                    self.exist_num[e] = UNNUMBERED;
                }
            }
            self.numbered = before;
        }
        self.ties.truncate(start);
        improved
    }
}

/// Pack a canonical key into `u32` words, injectively: the head's length,
/// the head's codes, then per atom a header (predicate id and kind) and
/// its codes — one for a concept, whose padding code is always
/// `Const(0)`, two for a role. A code is `value << 2 | tag` (tag 0 const,
/// 1 head, 2 existential) and a header `id << 2 | kind`; a value of 2^30
/// or more is escaped as `3 | tag << 2` followed by the value. Every item
/// is self-delimiting, so equal words mean equal keys and conversely.
fn pack_key(head: &[Code], atoms: &[AtomCode], out: &mut Vec<u32>) {
    fn push(out: &mut Vec<u32>, tag: u32, value: u32) {
        if value < 1 << 30 {
            out.push(value << 2 | tag);
        } else {
            out.extend([3 | tag << 2, value]);
        }
    }
    fn push_code(out: &mut Vec<u32>, code: Code) {
        match code {
            Code::Const(c) => push(out, 0, c),
            Code::Head(h) => push(out, 1, h),
            Code::Exist(e) => push(out, 2, e),
            Code::Fresh => unreachable!("a complete labelling numbers every variable"),
        }
    }
    out.push(head.len() as u32);
    for &code in head {
        push_code(out, code);
    }
    for &(kind, pred, c1, c2) in atoms {
        push(out, u32::from(kind), pred);
        push_code(out, c1);
        if kind == 1 {
            push_code(out, c2);
        }
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

    /// Ids of 2^30 and above take the escaped packing, so packed keys
    /// stay as distinct as the keys they pack (a plain `id << 2` would
    /// wrap 2^30 onto 0).
    #[test]
    fn packed_keys_escape_large_ids() {
        let q = |c: u32, r: u32| {
            CQ::with_var_head(
                vec![VarId(0)],
                vec![Atom::Role(RoleId(r), v(0), Term::Const(IndividualId(c)))],
            )
        };
        let ids = [
            (0, 0),
            (1 << 30, 0),
            ((1 << 30) + 1, 0),
            (0, 1 << 30),
            (u32::MAX, u32::MAX),
        ];
        let mut labeller = Canonicaliser::new();
        let packed: Vec<Vec<u32>> = ids
            .iter()
            .map(|&(c, r)| {
                labeller
                    .packed_key(q(c, r).head(), q(c, r).atoms())
                    .to_vec()
            })
            .collect();
        for i in 0..ids.len() {
            for j in 0..i {
                assert_ne!(packed[i], packed[j], "{:?} vs {:?}", ids[i], ids[j]);
            }
        }
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
