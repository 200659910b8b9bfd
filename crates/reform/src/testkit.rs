//! Reference implementations for tests of this crate.

use std::collections::HashSet;

use obda_dllite::TBox;
use obda_query::{canonical_key, contained_in, mgu_preferring, VarId, CQ, UCQ};

use crate::applicability::specializations;

/// PerfectRef as the plain fixpoint: every candidate built with `CQ::new`
/// or `CQ::apply`, fresh variables minted past `all_vars`, and duplicates
/// recognised by their `canonical_key` in a `HashSet` — no table of exact
/// forms and no packed keys. `prune` selects the output-subsumed variant.
/// [`perfect_ref`](crate::perfect_ref) and
/// [`perfect_ref_pruned`](crate::perfect_ref_pruned) must return exactly
/// this union: the same disjuncts, in the same order, with the same
/// variable ids.
pub fn reference_perfect_ref(q: &CQ, tbox: &TBox, prune: bool) -> UCQ {
    let mut ucq = UCQ::single(q.clone());
    let mut seen = HashSet::from([canonical_key(q)]);
    let mut frontier = vec![q.clone()];
    let head_vars: Vec<VarId> = q.head_vars().collect();
    while let Some(current) = frontier.pop() {
        let fresh = VarId(
            current
                .all_vars()
                .iter()
                .map(|v| v.0 + 1)
                .max()
                .unwrap_or(0),
        );
        let mut candidates = Vec::new();
        for spec in specializations(&current, tbox, fresh) {
            let mut atoms = current.atoms().to_vec();
            atoms[spec.atom_idx] = spec.replacement;
            candidates.push(CQ::new(current.head().to_vec(), atoms));
        }
        let atoms = current.atoms();
        for i in 0..atoms.len() {
            for j in (i + 1)..atoms.len() {
                match mgu_preferring(&atoms[i], &atoms[j], &head_vars) {
                    Some(sigma) if !sigma.is_empty() => candidates.push(current.apply(&sigma)),
                    _ => {}
                }
            }
        }
        for candidate in candidates {
            if seen.insert(canonical_key(&candidate)) {
                frontier.push(candidate.clone());
                if !(prune && ucq.cqs().iter().any(|d| contained_in(&candidate, d))) {
                    ucq.push(candidate);
                }
            }
        }
    }
    ucq
}
