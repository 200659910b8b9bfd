//! Property tests of the query-algebra primitives: unification,
//! homomorphisms, containment, canonicalization, cores.

use proptest::prelude::*;

use obda_dllite::{ConceptId, IndividualId, RoleId};
use obda_query::testkit::{
    brute_force_homomorphism, brute_force_same_modulo_renaming, random_connected_cq,
    random_generalisation, random_kernel_cq, random_tbox, random_variant, KbShape, Rng,
};
use obda_query::{
    canonical_key, canonicalize, contained_in, cq_core, equivalent, homomorphism, mgu,
    mgu_preferring, same_modulo_renaming, Atom, Canonicaliser, Homomorphisms, Subst, Term, VarId,
    CQ,
};

/// The unifier as it was before `Subst` was held inline: a `HashMap` of
/// bindings, and `mgu_preferring` grouping classes in a second map. The
/// inline one must bind exactly what this one binds.
mod oracle {
    use std::collections::HashMap;

    use obda_query::{Atom, Term, VarId};

    pub type MapSubst = HashMap<VarId, Term>;

    fn bind(s: &mut MapSubst, v: VarId, t: Term) {
        if Term::Var(v) != t {
            s.insert(v, t);
        }
    }

    pub fn resolve(s: &MapSubst, t: Term) -> Term {
        let mut cur = t;
        for _ in 0..=s.len() {
            match cur {
                Term::Var(v) => match s.get(&v) {
                    Some(&next) => cur = next,
                    None => return cur,
                },
                Term::Const(_) => return cur,
            }
        }
        panic!("substitution cycle")
    }

    pub fn mgu(a: &Atom, b: &Atom) -> Option<MapSubst> {
        let pairs: Vec<(Term, Term)> = match (a, b) {
            (Atom::Concept(c1, t1), Atom::Concept(c2, t2)) if c1 == c2 => vec![(*t1, *t2)],
            (Atom::Role(r1, s1, o1), Atom::Role(r2, s2, o2)) if r1 == r2 => {
                vec![(*s1, *s2), (*o1, *o2)]
            }
            _ => return None,
        };
        let mut subst = MapSubst::new();
        for (x, y) in pairs {
            match (resolve(&subst, x), resolve(&subst, y)) {
                (Term::Const(c1), Term::Const(c2)) => {
                    if c1 != c2 {
                        return None;
                    }
                }
                (Term::Var(v), t @ Term::Const(_)) | (t @ Term::Const(_), Term::Var(v)) => {
                    bind(&mut subst, v, t)
                }
                (Term::Var(v1), Term::Var(v2)) => {
                    if v1.0 < v2.0 {
                        bind(&mut subst, v2, Term::Var(v1));
                    } else if v1 != v2 {
                        bind(&mut subst, v1, Term::Var(v2));
                    }
                }
            }
        }
        Some(subst)
    }

    pub fn mgu_preferring(a: &Atom, b: &Atom, keep: &[VarId]) -> Option<MapSubst> {
        let raw = mgu(a, b)?;
        let mut classes: HashMap<Term, Vec<VarId>> = HashMap::new();
        for &v in raw.keys() {
            classes
                .entry(resolve(&raw, Term::Var(v)))
                .or_default()
                .push(v);
        }
        let mut oriented = MapSubst::new();
        for (rep, mut members) in classes {
            match rep {
                Term::Const(_) => {
                    for v in members {
                        bind(&mut oriented, v, rep);
                    }
                }
                Term::Var(rv) => {
                    members.push(rv);
                    members.sort_unstable();
                    members.dedup();
                    let chosen = members
                        .iter()
                        .copied()
                        .filter(|m| keep.contains(m))
                        .min()
                        .unwrap_or(members[0]);
                    for v in members {
                        if v != chosen {
                            bind(&mut oriented, v, Term::Var(chosen));
                        }
                    }
                }
            }
        }
        Some(oriented)
    }
}

/// A flat term over four variables and two constants.
fn flat_term(rng: &mut Rng) -> Term {
    if rng.chance(0.75) {
        Term::Var(VarId(rng.below(4) as u32))
    } else {
        Term::Const(IndividualId(rng.below(2) as u32))
    }
}

/// A concept or role atom over two predicates of each kind, so that
/// pairs often share their predicate.
fn flat_atom(rng: &mut Rng) -> Atom {
    let pred = rng.below(2) as u32;
    if rng.chance(0.25) {
        Atom::Concept(ConceptId(pred), flat_term(rng))
    } else {
        Atom::Role(RoleId(pred), flat_term(rng), flat_term(rng))
    }
}

/// The bindings of an inline substitution, as the oracle holds them.
fn as_map(sigma: &Subst) -> oracle::MapSubst {
    sigma.iter().collect()
}

fn cq_from(seed: u64, atoms: usize) -> CQ {
    let mut rng = Rng::new(seed);
    let (voc, _) = random_tbox(&mut rng, &KbShape::default());
    random_connected_cq(&mut rng, &voc, atoms, 2)
}

/// A pair for the containment kernel: two unrelated random CQs, or a CQ
/// and a generalisation of it (so that homomorphisms are common).
fn kernel_pair(seed: u64) -> (CQ, CQ) {
    let mut rng = Rng::new(seed);
    let to = random_kernel_cq(&mut rng, 4);
    let from = if rng.chance(0.5) {
        random_generalisation(&mut rng, &to)
    } else {
        random_kernel_cq(&mut rng, 4)
    };
    (from, to)
}

/// `cq` rebuilt from its parts through `CQ::new`.
fn rebuilt(cq: &CQ) -> CQ {
    CQ::new(cq.head().to_vec(), cq.atoms().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// mgu really unifies, and is stable under argument order.
    #[test]
    fn mgu_unifies(seed in 0u64..10_000) {
        let cq = cq_from(seed, 3);
        for a in cq.atoms() {
            for b in cq.atoms() {
                if let Some(sigma) = mgu(a, b) {
                    prop_assert_eq!(a.apply(&sigma), b.apply(&sigma));
                }
                prop_assert_eq!(mgu(a, b).is_some(), mgu(b, a).is_some());
            }
        }
    }

    /// Containment is reflexive; equivalence is symmetric.
    #[test]
    fn containment_reflexive(seed in 0u64..10_000, atoms in 1usize..5) {
        let cq = cq_from(seed, atoms);
        prop_assert!(contained_in(&cq, &cq));
        prop_assert!(equivalent(&cq, &cq));
    }

    /// Renaming variables never changes the canonical key; the canonical
    /// form is a fixpoint.
    #[test]
    fn canonicalization_invariance(seed in 0u64..10_000, atoms in 1usize..5, shift in 1u32..50) {
        let cq = cq_from(seed, atoms);
        let shifted = cq.shift_vars(shift);
        prop_assert_eq!(canonical_key(&cq), canonical_key(&shifted));
        prop_assert!(same_modulo_renaming(&cq, &shifted));
        let canon = canonicalize(&cq);
        prop_assert_eq!(&canonicalize(&canon), &canon, "idempotent");
        prop_assert!(same_modulo_renaming(&canon, &cq));
    }

    /// The core is equivalent to the query and no larger.
    #[test]
    fn core_is_equivalent_and_minimal(seed in 0u64..10_000, atoms in 1usize..5) {
        let cq = cq_from(seed, atoms);
        let core = cq_core(&cq);
        prop_assert!(core.num_atoms() <= cq.num_atoms());
        prop_assert!(equivalent(&core, &cq));
    }

    /// A homomorphism found by the search is a real homomorphism: every
    /// atom of `from` maps into `to` under the returned assignment.
    #[test]
    fn homomorphism_is_sound(seed in 0u64..10_000) {
        let from = cq_from(seed, 2);
        let to = cq_from(seed.wrapping_add(1), 3);
        if let Some(assign) = homomorphism(&from, &to) {
            let mut sigma = Subst::new();
            for (v, t) in &assign {
                sigma.bind(*v, *t);
            }
            for atom in from.atoms() {
                let image = atom.apply(&sigma);
                prop_assert!(
                    to.atoms().contains(&image),
                    "atom image {:?} missing from target",
                    image
                );
            }
        }
    }

    /// Substitution application is idempotent for fully-resolved
    /// substitutions produced by mgu.
    #[test]
    fn mgu_application_idempotent(seed in 0u64..10_000) {
        let cq = cq_from(seed, 3);
        let atoms = cq.atoms();
        if atoms.len() >= 2 {
            if let Some(sigma) = mgu(&atoms[0], &atoms[1]) {
                let once = cq.apply(&sigma);
                let twice = once.apply(&sigma);
                prop_assert_eq!(once, twice);
            }
        }
    }
}

// The containment kernel against its brute-force references. 512 cases
// each (the CI differential job's depth; `PROPTEST_CASES` caps it lower
// elsewhere): roughly half of the kernel pairs have a homomorphism, an
// eighth pass the signature test without one.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The kernel agrees with the reference that tries every atom→atom
    /// map, in both directions, on pairs with constants in head and body,
    /// repeated predicates, differing head arities and predicates that
    /// collide in the signature; and what it returns is a homomorphism.
    #[test]
    fn kernel_agrees_with_brute_force(seed in 0u64..1_000_000) {
        let (a, b) = kernel_pair(seed);
        for (from, to) in [(&a, &b), (&b, &a)] {
            let found = homomorphism(from, to);
            prop_assert_eq!(found.is_some(), brute_force_homomorphism(from, to), "{:?} -> {:?}", from, to);
            prop_assert_eq!(contained_in(to, from), found.is_some());
            if let Some(assign) = found {
                let h = |t: Term| match t {
                    Term::Var(v) => assign.iter().find(|(w, _)| *w == v).map_or(t, |&(_, u)| u),
                    Term::Const(_) => t,
                };
                let image: Vec<Term> = from.head().iter().map(|&t| h(t)).collect();
                prop_assert_eq!(image.as_slice(), to.head());
                for atom in from.atoms() {
                    let image = match *atom {
                        Atom::Concept(c, t) => Atom::Concept(c, h(t)),
                        Atom::Role(r, t1, t2) => Atom::Role(r, h(t1), h(t2)),
                    };
                    prop_assert!(to.atoms().contains(&image), "{:?} not in {:?}", image, to);
                }
            }
        }
    }

    /// The inline unifier binds what the map-based one binds — for
    /// `mgu` and for `mgu_preferring` under every set of kept variables —
    /// resolves every term alike, and unifies; equality of substitutions
    /// ignores the order bindings were made in.
    #[test]
    fn inline_unifier_matches_the_map_oracle(seed in 0u64..1_000_000) {
        let mut rng = Rng::new(seed);
        let (a, b) = (flat_atom(&mut rng), flat_atom(&mut rng));
        let keep_mask = rng.below(16);
        let keep: Vec<VarId> = (0..4).filter(|i| keep_mask >> i & 1 == 1).map(VarId).collect();
        let pairs = [
            (mgu(&a, &b), oracle::mgu(&a, &b)),
            (mgu_preferring(&a, &b, &keep), oracle::mgu_preferring(&a, &b, &keep)),
        ];
        for (got, want) in pairs {
            prop_assert_eq!(got.is_some(), want.is_some(), "{:?} vs {:?}", a, b);
            let (Some(sigma), Some(want)) = (got, want) else { continue };
            prop_assert_eq!(&as_map(&sigma), &want, "{:?} vs {:?} keeping {:?}", a, b, keep);
            prop_assert_eq!(a.apply(&sigma), b.apply(&sigma));
            let terms = (0..5).map(|v| Term::Var(VarId(v))).chain([Term::Const(IndividualId(0))]);
            for t in terms {
                prop_assert_eq!(sigma.resolve(t), oracle::resolve(&want, t));
            }
            let mut reversed = Subst::new();
            for (v, t) in sigma.iter().collect::<Vec<_>>().into_iter().rev() {
                reversed.bind(v, t);
            }
            prop_assert_eq!(reversed, sigma);
        }
    }

    /// "`q` folds onto `q` without atom `i`", asked without building the
    /// smaller query, is the homomorphism test on the smaller query; and
    /// a reused searcher answers every pair as a fresh one does.
    #[test]
    fn reused_searcher_matches_fresh_searches(seed in 0u64..1_000_000) {
        let (a, b) = kernel_pair(seed);
        let mut homs = Homomorphisms::new();
        for q in [&a, &b] {
            for i in 0..q.num_atoms() {
                prop_assert_eq!(
                    homs.folds_without(q, i),
                    homomorphism(q, &q.without_atom(i)).is_some(),
                    "{:?} without {}", q, i
                );
            }
        }
        for (from, to) in [(&a, &b), (&b, &a), (&a, &a)] {
            prop_assert_eq!(homs.exists(from, to), homomorphism(from, to).is_some());
            prop_assert_eq!(homs.contained_in(from, to), contained_in(from, to));
        }
    }

    /// The signature test is necessary for containment, and every
    /// constructor stores the signature a fresh `CQ::new` would compute.
    #[test]
    fn signature_is_necessary_and_maintained(seed in 0u64..1_000_000) {
        let (a, b) = kernel_pair(seed);
        if contained_in(&a, &b) {
            prop_assert!(b.signature().is_subset_of(a.signature()));
        }
        if contained_in(&b, &a) {
            prop_assert!(a.signature().is_subset_of(b.signature()));
        }
        let mut sigma = Subst::new();
        sigma.bind(VarId(0), Term::Var(VarId(1)));
        sigma.bind(VarId(2), b.head().first().copied().unwrap_or(Term::Var(VarId(3))));
        let mut derived = vec![rebuilt(&b), b.apply(&sigma), b.shift_vars(seed as u32 % 97)];
        derived.extend((0..b.num_atoms()).map(|i| b.without_atom(i)));
        for cq in &derived {
            prop_assert_eq!(cq.signature(), rebuilt(cq).signature(), "{:?}", cq);
        }
    }

    /// Equal canonical keys ⇔ equal packed keys ⇔ equal modulo renaming,
    /// against the reference that tries every atom bijection (≤ 6 atoms,
    /// so ≤ 720 of them): on renamed-and-shuffled variants, on variants
    /// with one atom replaced, and on unrelated queries, one labeller
    /// packing every key.
    #[test]
    fn canonical_key_agrees_with_brute_force(seed in 0u64..1_000_000) {
        let mut rng = Rng::new(seed);
        let a = random_kernel_cq(&mut rng, 6);
        let variant = random_variant(&mut rng, &a);
        prop_assert!(brute_force_same_modulo_renaming(&a, &variant));
        let mut atoms = variant.atoms().to_vec();
        let i = rng.below(atoms.len());
        atoms[i] = random_kernel_cq(&mut rng, 1).atoms()[0];
        let mutated = CQ::new(variant.head().to_vec(), atoms);
        let unrelated = random_kernel_cq(&mut rng, 6);
        let mut labeller = Canonicaliser::new();
        let packed = labeller.packed_key(a.head(), a.atoms()).to_vec();
        for b in [&variant, &mutated, &unrelated] {
            let same = brute_force_same_modulo_renaming(&a, b);
            prop_assert_eq!(canonical_key(&a) == canonical_key(b), same, "{:?} vs {:?}", a, b);
            prop_assert_eq!(same_modulo_renaming(&a, b), same);
            prop_assert_eq!(labeller.packed_key(b.head(), b.atoms()) == packed.as_slice(), same);
        }
    }

    /// The allocation-free occurrence tests equal their definitions:
    /// `is_unbound` and `unbound_vars` the head-free single occurrences
    /// counted by `var_occurrences`, `fresh_var` one past the largest of
    /// `all_vars`. Variants spread the variable ids.
    #[test]
    fn occurrence_tests_match_their_definitions(seed in 0u64..1_000_000) {
        let mut rng = Rng::new(seed);
        let mut cq = random_kernel_cq(&mut rng, 6);
        if rng.chance(0.5) {
            cq = random_variant(&mut rng, &cq);
        }
        let occurrences = cq.var_occurrences();
        let head: Vec<VarId> = cq.head_vars().collect();
        let unbound: Vec<VarId> = cq
            .all_vars()
            .into_iter()
            .filter(|v| !head.contains(v) && occurrences.get(v) == Some(&1))
            .collect();
        let fresh = VarId(cq.all_vars().iter().map(|v| v.0 + 1).max().unwrap_or(0));
        prop_assert_eq!(cq.fresh_var(), fresh);
        prop_assert_eq!(&cq.unbound_vars(), &unbound);
        for v in cq.all_vars().into_iter().chain([fresh]) {
            prop_assert_eq!(cq.is_unbound(v), unbound.contains(&v), "{:?} in {:?}", v, cq);
        }
    }
}
