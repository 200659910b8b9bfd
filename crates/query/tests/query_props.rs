//! Property tests of the query-algebra primitives: unification,
//! homomorphisms, containment, canonicalization, cores.

use proptest::prelude::*;

use obda_query::testkit::{
    brute_force_homomorphism, brute_force_same_modulo_renaming, random_connected_cq,
    random_generalisation, random_kernel_cq, random_tbox, random_variant, KbShape, Rng,
};
use obda_query::{
    canonical_key, canonicalize, contained_in, cq_core, equivalent, homomorphism, mgu,
    same_modulo_renaming, Atom, Canonicaliser, Subst, Term, VarId, CQ,
};

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
    /// with one atom replaced, and on unrelated queries. A reused
    /// labeller's key is the one-shot `canonical_key`.
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
            prop_assert_eq!(labeller.key(), canonical_key(b));
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
