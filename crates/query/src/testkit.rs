//! Seeded random generators for KBs, ABoxes and queries.
//!
//! Used by property tests across the workspace (reformulation soundness /
//! completeness vs the chase oracle, cover equivalence, engine vs reference
//! evaluator). Everything is driven by a simple SplitMix64 PRNG so that the
//! crate needs no test-only dependencies and failures reproduce from a
//! printed seed.

use obda_dllite::{ABox, Axiom, BasicConcept, Role, TBox, Vocabulary};

use crate::atom::Atom;
use crate::cq::CQ;
use crate::fol::FolQuery;
use crate::jucq::{JUCQ, JUSCQ};
use crate::scq::{Slot, SCQ, USCQ};
use crate::term::{Term, VarId};
use crate::ucq::UCQ;

/// SplitMix64: tiny, high-quality, deterministic.
#[derive(Clone, Debug)]
pub struct Rng(pub u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9E3779B97F4A7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Bernoulli with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

/// Shape parameters for random KB generation.
#[derive(Clone, Debug)]
pub struct KbShape {
    pub num_concepts: usize,
    pub num_roles: usize,
    pub num_axioms: usize,
    pub num_individuals: usize,
    pub num_facts: usize,
    /// Probability that a generated axiom is existential on the RHS.
    pub existential_bias: f64,
}

impl Default for KbShape {
    fn default() -> Self {
        KbShape {
            num_concepts: 5,
            num_roles: 3,
            num_axioms: 8,
            num_individuals: 8,
            num_facts: 14,
            existential_bias: 0.3,
        }
    }
}

/// Generate a random positive-only DL-LiteR TBox (negation-free KBs are
/// always consistent, §2.1 — ideal for query-answering property tests).
pub fn random_tbox(rng: &mut Rng, shape: &KbShape) -> (Vocabulary, TBox) {
    let mut voc = Vocabulary::new();
    for i in 0..shape.num_concepts {
        voc.concept(&format!("C{i}"));
    }
    for i in 0..shape.num_roles {
        voc.role(&format!("r{i}"));
    }
    let mut tbox = TBox::new();
    for _ in 0..shape.num_axioms {
        let ax = random_axiom(rng, &voc, shape.existential_bias);
        tbox.add(ax);
    }
    (voc, tbox)
}

fn random_basic(rng: &mut Rng, voc: &Vocabulary) -> BasicConcept {
    if voc.num_roles() > 0 && rng.chance(0.4) {
        BasicConcept::Exists(random_role(rng, voc))
    } else {
        let c = rng.below(voc.num_concepts());
        BasicConcept::Atomic(obda_dllite::ConceptId(c as u32))
    }
}

fn random_role(rng: &mut Rng, voc: &Vocabulary) -> Role {
    let r = obda_dllite::RoleId(rng.below(voc.num_roles()) as u32);
    if rng.chance(0.3) {
        Role::inv(r)
    } else {
        Role::direct(r)
    }
}

fn random_axiom(rng: &mut Rng, voc: &Vocabulary, existential_bias: f64) -> Axiom {
    if voc.num_roles() > 0 && rng.chance(0.25) {
        // Role inclusion.
        Axiom::role(random_role(rng, voc), random_role(rng, voc))
    } else {
        let lhs = random_basic(rng, voc);
        let rhs = if voc.num_roles() > 0 && rng.chance(existential_bias) {
            BasicConcept::Exists(random_role(rng, voc))
        } else {
            random_basic(rng, voc)
        };
        Axiom::concept(lhs, rhs)
    }
}

/// Generate a random ABox over the vocabulary.
pub fn random_abox(rng: &mut Rng, voc: &mut Vocabulary, shape: &KbShape) -> ABox {
    for i in 0..shape.num_individuals {
        voc.individual(&format!("i{i}"));
    }
    let mut abox = ABox::new();
    for _ in 0..shape.num_facts {
        if voc.num_roles() > 0 && rng.chance(0.5) {
            let r = obda_dllite::RoleId(rng.below(voc.num_roles()) as u32);
            let a = obda_dllite::IndividualId(rng.below(shape.num_individuals) as u32);
            let b = obda_dllite::IndividualId(rng.below(shape.num_individuals) as u32);
            abox.assert_role(r, a, b);
        } else {
            let c = obda_dllite::ConceptId(rng.below(voc.num_concepts()) as u32);
            let a = obda_dllite::IndividualId(rng.below(shape.num_individuals) as u32);
            abox.assert_concept(c, a);
        }
    }
    abox
}

/// Generate a random [`obda_dllite::AboxDelta`] against an existing
/// ABox: a mix of insertions over known individuals, insertions
/// referencing **fresh** batch-interned individuals, duplicate
/// insertions (no-ops), deletions of existing facts, and deletions of
/// facts that were never asserted (no-ops) — every edge the incremental
/// apply path must survive. `tag` disambiguates fresh-individual names
/// across chained deltas of one scenario.
pub fn random_delta(
    rng: &mut Rng,
    voc: &Vocabulary,
    abox: &ABox,
    max_changes: usize,
    tag: usize,
) -> obda_dllite::AboxDelta {
    use obda_dllite::{AboxDelta, ConceptId, IndividualId, RoleId};
    let mut delta = AboxDelta::new();
    let mut num_inds = voc.num_individuals();
    let concepts = voc.num_concepts().max(1);
    let roles = voc.num_roles();
    let changes = 1 + rng.below(max_changes.max(1));
    for k in 0..changes {
        // A quarter of the batches grow the dictionary.
        if num_inds == 0 || rng.chance(0.25) {
            delta.new_individuals.push(format!("fresh{tag}_{k}"));
            num_inds += 1;
        }
        let ind = |rng: &mut Rng| IndividualId(rng.below(num_inds) as u32);
        match rng.below(4) {
            0 => {
                let c = ConceptId(rng.below(concepts) as u32);
                delta.insert_concepts.push((c, ind(rng)));
            }
            1 if roles > 0 => {
                let r = RoleId(rng.below(roles) as u32);
                delta.insert_roles.push((r, ind(rng), ind(rng)));
            }
            2 => {
                // Delete an existing fact when there is one; a random
                // (likely missing) one otherwise.
                let concept_facts = abox.concept_assertions();
                if !concept_facts.is_empty() && rng.chance(0.7) {
                    let &(c, i) = &concept_facts[rng.below(concept_facts.len())];
                    delta.delete_concepts.push((c, i));
                } else {
                    let c = ConceptId(rng.below(concepts) as u32);
                    delta.delete_concepts.push((c, ind(rng)));
                }
            }
            _ => {
                let role_facts = abox.role_assertions();
                if !role_facts.is_empty() && rng.chance(0.7) {
                    let &(r, a, b) = &role_facts[rng.below(role_facts.len())];
                    delta.delete_roles.push((r, a, b));
                } else if roles > 0 {
                    let r = RoleId(rng.below(roles) as u32);
                    delta.delete_roles.push((r, ind(rng), ind(rng)));
                }
            }
        }
    }
    // Occasionally duplicate an insertion verbatim (a same-batch no-op).
    if !delta.insert_concepts.is_empty() && rng.chance(0.3) {
        let dup = delta.insert_concepts[rng.below(delta.insert_concepts.len())];
        delta.insert_concepts.push(dup);
    }
    delta
}

/// Generate a random *connected* CQ with `num_atoms` atoms and up to
/// `max_head` head variables.
pub fn random_connected_cq(
    rng: &mut Rng,
    voc: &Vocabulary,
    num_atoms: usize,
    max_head: usize,
) -> CQ {
    assert!(num_atoms >= 1);
    let mut atoms: Vec<Atom> = Vec::with_capacity(num_atoms);
    let mut next_var = 0u32;
    let fresh = |next_var: &mut u32| {
        let v = VarId(*next_var);
        *next_var += 1;
        v
    };
    // Seed atom.
    let first_var = fresh(&mut next_var);
    atoms.push(random_atom_with(rng, voc, first_var, &mut next_var));
    // Each further atom reuses a variable from an existing atom, keeping
    // the query connected. Duplicate atoms would be collapsed by `CQ::new`
    // (set semantics), so retry until distinct.
    while atoms.len() < num_atoms {
        let existing: Vec<VarId> = atoms.iter().flat_map(|a| a.vars()).collect();
        let anchor = existing[rng.below(existing.len())];
        let atom = random_atom_with(rng, voc, anchor, &mut next_var);
        if !atoms.contains(&atom) {
            atoms.push(atom);
        }
    }
    // Head: a nonempty subset of the variables (≤ max_head).
    let mut vars: Vec<VarId> = atoms.iter().flat_map(|a| a.vars()).collect();
    vars.sort_unstable();
    vars.dedup();
    let head_len = 1 + rng.below(max_head.min(vars.len()));
    let mut head = Vec::with_capacity(head_len);
    for _ in 0..head_len {
        let v = vars[rng.below(vars.len())];
        if !head.contains(&v) {
            head.push(v);
        }
    }
    CQ::with_var_head(head, atoms)
}

// ---------------------------------------------------------------------
// Table-4 dialect generators (differential-harness inputs)
// ---------------------------------------------------------------------

/// Random connected CQ with an **exact** head arity — union arms must
/// agree with the nominal head positionally, so the free-arity
/// [`random_connected_cq`] doesn't fit there. Head variables may repeat
/// (legal, and exercises the projection path).
pub fn random_cq_with_head_arity(
    rng: &mut Rng,
    voc: &Vocabulary,
    num_atoms: usize,
    arity: usize,
) -> CQ {
    let base = random_connected_cq(rng, voc, num_atoms, arity.max(1));
    let vars: Vec<VarId> = base.all_vars().into_iter().collect();
    let head: Vec<VarId> = (0..arity).map(|_| vars[rng.below(vars.len())]).collect();
    CQ::with_var_head(head, base.atoms().to_vec())
}

/// Random UCQ: `1..=max_arms` connected CQs sharing one head arity.
pub fn random_ucq(rng: &mut Rng, voc: &Vocabulary, max_arms: usize, max_atoms: usize) -> UCQ {
    let arity = 1 + rng.below(2);
    let arms = 1 + rng.below(max_arms);
    let cqs: Vec<CQ> = (0..arms)
        .map(|_| {
            let atoms = 1 + rng.below(max_atoms);
            random_cq_with_head_arity(rng, voc, atoms, arity)
        })
        .collect();
    UCQ::from_cqs(cqs[0].head().to_vec(), cqs)
}

/// Widen a CQ's singleton slots into random disjunctions (same variable
/// set per slot, as `Slot` requires).
fn widen_slots(rng: &mut Rng, voc: &Vocabulary, cq: &CQ) -> Vec<Slot> {
    let mut slots: Vec<Slot> = cq.atoms().iter().map(|a| Slot::single(*a)).collect();
    for slot in &mut slots {
        while rng.chance(0.4) {
            let variant = variant_atom(rng, voc, &slot.atoms()[0]);
            slot.try_push(variant); // may reject duplicates — fine
        }
    }
    slots
}

/// An atom over the same variable set as `proto` but a fresh predicate
/// (and possibly flipped role positions).
fn variant_atom(rng: &mut Rng, voc: &Vocabulary, proto: &Atom) -> Atom {
    match proto {
        Atom::Concept(_, t) => Atom::Concept(
            obda_dllite::ConceptId(rng.below(voc.num_concepts()) as u32),
            *t,
        ),
        Atom::Role(_, t1, t2) => {
            let r = obda_dllite::RoleId(rng.below(voc.num_roles()) as u32);
            if rng.chance(0.5) {
                Atom::Role(r, *t1, *t2)
            } else {
                Atom::Role(r, *t2, *t1)
            }
        }
    }
}

/// Random SCQ with an exact head arity: a connected CQ whose slots are
/// widened into disjunctions.
pub fn random_scq_with_head_arity(
    rng: &mut Rng,
    voc: &Vocabulary,
    num_atoms: usize,
    arity: usize,
) -> SCQ {
    let cq = random_cq_with_head_arity(rng, voc, num_atoms, arity);
    let slots = widen_slots(rng, voc, &cq);
    SCQ::new(cq.head().to_vec(), slots)
}

/// Random SCQ (free head arity 1–2).
pub fn random_scq(rng: &mut Rng, voc: &Vocabulary, num_atoms: usize) -> SCQ {
    let arity = 1 + rng.below(2);
    random_scq_with_head_arity(rng, voc, num_atoms, arity)
}

/// Random USCQ: `1..=max_arms` SCQs sharing one head arity.
pub fn random_uscq(rng: &mut Rng, voc: &Vocabulary, max_arms: usize, max_atoms: usize) -> USCQ {
    let arity = 1 + rng.below(2);
    let arms = 1 + rng.below(max_arms);
    let scqs: Vec<SCQ> = (0..arms)
        .map(|_| {
            let atoms = 1 + rng.below(max_atoms);
            random_scq_with_head_arity(rng, voc, atoms, arity)
        })
        .collect();
    USCQ::new(scqs[0].head().to_vec(), scqs)
}

/// Random JUCQ: components are UCQs whose arms all contain `VarId(0)`
/// (the generator's seed variable), joined on it.
pub fn random_jucq(
    rng: &mut Rng,
    voc: &Vocabulary,
    max_components: usize,
    max_atoms: usize,
) -> JUCQ {
    let head = vec![Term::Var(VarId(0))];
    let n = 1 + rng.below(max_components);
    let components: Vec<UCQ> = (0..n)
        .map(|_| {
            let arms = 1 + rng.below(2);
            let cqs: Vec<CQ> = (0..arms)
                .map(|_| {
                    let atoms = 1 + rng.below(max_atoms);
                    let base = random_connected_cq(rng, voc, atoms, 1);
                    // Re-head on the seed variable, present in every base.
                    CQ::with_var_head(vec![VarId(0)], base.atoms().to_vec())
                })
                .collect();
            UCQ::from_cqs(head.clone(), cqs)
        })
        .collect();
    JUCQ::new(head, components)
}

/// Random JUSCQ: like [`random_jucq`] with widened (disjunctive) slots.
pub fn random_juscq(
    rng: &mut Rng,
    voc: &Vocabulary,
    max_components: usize,
    max_atoms: usize,
) -> JUSCQ {
    let head = vec![Term::Var(VarId(0))];
    let n = 1 + rng.below(max_components);
    let components: Vec<USCQ> = (0..n)
        .map(|_| {
            let arms = 1 + rng.below(2);
            let scqs: Vec<SCQ> = (0..arms)
                .map(|_| {
                    let atoms = 1 + rng.below(max_atoms);
                    let base = random_connected_cq(rng, voc, atoms, 1);
                    let cq = CQ::with_var_head(vec![VarId(0)], base.atoms().to_vec());
                    let slots = widen_slots(rng, voc, &cq);
                    SCQ::new(cq.head().to_vec(), slots)
                })
                .collect();
            USCQ::new(head.clone(), scqs)
        })
        .collect();
    JUSCQ::new(head, components)
}

/// A random query in **any** Table-4 dialect — the input shape of the
/// executor differential harness.
pub fn random_fol_query(rng: &mut Rng, voc: &Vocabulary, max_atoms: usize) -> FolQuery {
    let dialect = rng.below(6);
    let atoms = 1 + rng.below(max_atoms);
    match dialect {
        0 => FolQuery::Cq(random_connected_cq(rng, voc, atoms, 2)),
        1 => FolQuery::Ucq(random_ucq(rng, voc, 3, max_atoms)),
        2 => FolQuery::Scq(random_scq(rng, voc, atoms)),
        3 => FolQuery::Uscq(random_uscq(rng, voc, 2, max_atoms)),
        4 => FolQuery::Jucq(random_jucq(rng, voc, 2, max_atoms)),
        _ => FolQuery::Juscq(random_juscq(rng, voc, 2, max_atoms)),
    }
}

/// An atom guaranteed to use `anchor`; role atoms' other position may be
/// a fresh variable, the anchor again, or — when the vocabulary already
/// has individuals — a **constant** (real query loads mix constants in,
/// and constant-keyed access paths have their own planner/executor code
/// paths that differential tests must reach).
fn random_atom_with(rng: &mut Rng, voc: &Vocabulary, anchor: VarId, next_var: &mut u32) -> Atom {
    if voc.num_roles() > 0 && rng.chance(0.6) {
        let r = obda_dllite::RoleId(rng.below(voc.num_roles()) as u32);
        let other = if voc.num_individuals() > 0 && rng.chance(0.15) {
            Term::Const(obda_dllite::IndividualId(
                rng.below(voc.num_individuals()) as u32
            ))
        } else if rng.chance(0.8) {
            let v = VarId(*next_var);
            *next_var += 1;
            Term::Var(v)
        } else {
            Term::Var(anchor)
        };
        if rng.chance(0.5) {
            Atom::Role(r, Term::Var(anchor), other)
        } else {
            Atom::Role(r, other, Term::Var(anchor))
        }
    } else {
        let c = obda_dllite::ConceptId(rng.below(voc.num_concepts()) as u32);
        Atom::Concept(c, Term::Var(anchor))
    }
}

// ---------------------------------------------------------------------
// Brute-force references for the containment kernel
// ---------------------------------------------------------------------

/// A random CQ for containment-kernel tests, over no vocabulary: a few
/// variables and constants (constants reach the head too), few enough
/// predicates that they repeat, and predicate ids 64 apart, which share
/// a [`PredSig`](crate::PredSig) bit — so some pairs pass the signature
/// test without sharing their predicates. Head arity varies from CQ to
/// CQ, the body has `1..=max_atoms` atoms and need not be connected.
pub fn random_kernel_cq(rng: &mut Rng, max_atoms: usize) -> CQ {
    const PRED_IDS: [u32; 4] = [0, 1, 64, 65];
    let term = |rng: &mut Rng| {
        if rng.chance(0.2) {
            Term::Const(obda_dllite::IndividualId(rng.below(2) as u32))
        } else {
            Term::Var(VarId(rng.below(4) as u32))
        }
    };
    let atoms = (0..1 + rng.below(max_atoms))
        .map(|_| {
            let id = PRED_IDS[rng.below(PRED_IDS.len())];
            if rng.chance(0.5) {
                Atom::Concept(obda_dllite::ConceptId(id), term(rng))
            } else {
                Atom::Role(obda_dllite::RoleId(id), term(rng), term(rng))
            }
        })
        .collect();
    let head = (0..rng.below(3)).map(|_| term(rng)).collect();
    CQ::new(head, atoms)
}

/// A CQ that maps homomorphically into `to` by construction: some of
/// `to`'s atoms (with repetition), all variables renamed apart, and
/// some body positions generalised to fresh variables.
pub fn random_generalisation(rng: &mut Rng, to: &CQ) -> CQ {
    let rename = |v: VarId| Term::Var(VarId(v.0 + 100));
    let mut fresh = 200;
    let mut atoms = Vec::new();
    for _ in 0..to.num_atoms() {
        let atom = to.atoms()[rng.below(to.num_atoms())].map_vars(rename);
        let mut generalise = |t: Term| {
            if rng.chance(0.3) {
                fresh += 1;
                Term::Var(VarId(fresh))
            } else {
                t
            }
        };
        atoms.push(match atom {
            Atom::Concept(c, t) => Atom::Concept(c, generalise(t)),
            Atom::Role(r, t1, t2) => Atom::Role(r, generalise(t1), generalise(t2)),
        });
    }
    let head = to
        .head()
        .iter()
        .map(|t| t.as_var().map_or(*t, rename))
        .collect();
    CQ::new(head, atoms)
}

/// Require `map(t) == u`, extending `map` when `t` is an unmapped
/// variable.
fn map_term(map: &mut Vec<(VarId, Term)>, t: Term, u: Term) -> bool {
    match t {
        Term::Const(_) => t == u,
        Term::Var(v) => match map.iter().find(|(w, _)| *w == v) {
            Some(&(_, prev)) => prev == u,
            None => {
                map.push((v, u));
                true
            }
        },
    }
}

fn map_atom(map: &mut Vec<(VarId, Term)>, a: &Atom, b: &Atom) -> bool {
    a.pred() == b.pred() && a.terms().zip(b.terms()).all(|(t, u)| map_term(map, t, u))
}

fn map_head(map: &mut Vec<(VarId, Term)>, a: &CQ, b: &CQ) -> bool {
    a.head().len() == b.head().len()
        && a.head()
            .iter()
            .zip(b.head())
            .all(|(&t, &u)| map_term(map, t, u))
}

/// Reference for [`homomorphism`](crate::homomorphism()): try **every**
/// function from `from`'s atoms to `to`'s atoms and accept one that a
/// single variable mapping, agreeing with the heads, induces.
/// `|to|^|from|` candidates — for small test queries only.
pub fn brute_force_homomorphism(from: &CQ, to: &CQ) -> bool {
    let (n, m) = (from.num_atoms(), to.num_atoms());
    if m == 0 && n > 0 {
        return false;
    }
    let mut choice = vec![0usize; n];
    loop {
        let mut map = Vec::new();
        if map_head(&mut map, from, to)
            && (0..n).all(|i| map_atom(&mut map, &from.atoms()[i], &to.atoms()[choice[i]]))
        {
            return true;
        }
        // Next function, as an n-digit counter in base m.
        let Some(i) = (0..n).find(|&i| choice[i] + 1 < m) else {
            return false;
        };
        choice[i] += 1;
        choice[..i].fill(0);
    }
}

/// Reference for [`same_modulo_renaming`](crate::same_modulo_renaming):
/// try **every** bijection between the two atom lists and accept one
/// induced by an injective variable-to-variable renaming that also
/// carries head onto head. `n!` candidates — for small test queries only.
pub fn brute_force_same_modulo_renaming(a: &CQ, b: &CQ) -> bool {
    fn extend(a: &CQ, b: &CQ, perm: &mut Vec<usize>) -> bool {
        if perm.len() == a.num_atoms() {
            let mut map = Vec::new();
            return map_head(&mut map, a, b)
                && (0..perm.len()).all(|i| map_atom(&mut map, &a.atoms()[i], &b.atoms()[perm[i]]))
                && map.iter().all(|(_, u)| u.is_var())
                && (0..map.len()).all(|i| (0..i).all(|j| map[i].1 != map[j].1));
        }
        (0..b.num_atoms()).any(|j| {
            if perm.contains(&j) {
                return false;
            }
            perm.push(j);
            let found = extend(a, b, perm);
            perm.pop();
            found
        })
    }
    a.num_atoms() == b.num_atoms() && extend(a, b, &mut Vec::new())
}

/// `cq` with its variables renamed injectively and its atoms shuffled.
pub fn random_variant(rng: &mut Rng, cq: &CQ) -> CQ {
    // An affine map with an odd multiplier is a bijection on `u32`.
    let (mul, add) = (2 * rng.below(50) as u32 + 1, rng.below(1000) as u32);
    let rename = |v: VarId| Term::Var(VarId(v.0.wrapping_mul(mul).wrapping_add(add)));
    let mut atoms: Vec<Atom> = cq.atoms().iter().map(|a| a.map_vars(rename)).collect();
    for i in (1..atoms.len()).rev() {
        atoms.swap(i, rng.below(i + 1));
    }
    let head = cq
        .head()
        .iter()
        .map(|t| t.as_var().map_or(*t, rename))
        .collect();
    CQ::new(head, atoms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn generated_cqs_are_connected() {
        let shape = KbShape::default();
        for seed in 0..50 {
            let mut rng = Rng::new(seed);
            let (voc, _) = random_tbox(&mut rng, &shape);
            for n in 1..=6 {
                let cq = random_connected_cq(&mut rng, &voc, n, 2);
                assert_eq!(cq.num_atoms(), n, "seed {seed}");
                assert!(cq.is_connected(), "seed {seed}: {cq:?}");
                assert!(!cq.head().is_empty());
            }
        }
    }

    #[test]
    fn generated_dialects_are_well_formed() {
        let shape = KbShape::default();
        for seed in 0..30u64 {
            let mut rng = Rng::new(seed);
            let (voc, _) = random_tbox(&mut rng, &shape);
            for _ in 0..6 {
                match random_fol_query(&mut rng, &voc, 3) {
                    FolQuery::Cq(cq) => assert!(cq.num_atoms() >= 1),
                    FolQuery::Ucq(u) => {
                        assert!(!u.is_empty());
                        for cq in u.cqs() {
                            assert_eq!(cq.head().len(), u.head().len(), "seed {seed}");
                        }
                    }
                    FolQuery::Scq(s) => {
                        assert!(s.num_slots() >= 1);
                        assert!(s.equivalent_cq_count() >= 1);
                    }
                    FolQuery::Uscq(u) => {
                        assert!(!u.is_empty());
                        for s in u.scqs() {
                            assert_eq!(s.head().len(), u.head().len(), "seed {seed}");
                        }
                    }
                    FolQuery::Jucq(j) => {
                        assert!(j.num_components() >= 1);
                        for c in j.components() {
                            assert_eq!(c.head(), j.head(), "components join on the head");
                        }
                    }
                    FolQuery::Juscq(j) => assert!(j.num_components() >= 1),
                }
            }
        }
    }

    #[test]
    fn generated_tbox_is_positive_only() {
        let mut rng = Rng::new(7);
        let (_, tbox) = random_tbox(&mut rng, &KbShape::default());
        assert_eq!(tbox.num_negative(), 0);
    }

    #[test]
    fn generated_abox_respects_shape() {
        let mut rng = Rng::new(9);
        let shape = KbShape::default();
        let (mut voc, _) = random_tbox(&mut rng, &shape);
        let abox = random_abox(&mut rng, &mut voc, &shape);
        assert!(abox.len() <= shape.num_facts);
        assert!(abox.len() > 0);
    }
}
