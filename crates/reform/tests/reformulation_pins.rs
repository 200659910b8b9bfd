//! Pinned reformulations of the LUBM workload: for Q1–Q13 and the A4
//! star query, the raw (`perfect_ref_pruned`) and minimal
//! (`minimize_ucq`) arm counts, an order-sensitive digest of the
//! disjuncts of each, a ceiling on the containment searches PerfectRef
//! enters, and for the two heaviest shapes the candidates it builds and a
//! ceiling on how many of them it canonically labels.
//!
//! The containment kernel may only skip work whose answer is `false`, so
//! a kernel change must leave every UCQ with the same disjuncts in the
//! same order. The digests in `tests/goldens/reformulation_pins.txt` were
//! written by the commit *before* the signature filter existed; re-bless
//! (`OBDA_BLESS=1 cargo test --release -p obda_reform --test
//! reformulation_pins`) only for a change that means to alter a
//! reformulation.
//!
//! The search ceilings are counts, not timings: they repeat exactly, so
//! the gate cannot flake. Without the signature filter Q13 enters
//! 8 046 629 searches and Q6 6 728 982. The candidate counts are the
//! fixpoint's own and may not move; before the exact-form check every
//! candidate was labelled (Q13 90 994, Q6 25 758).

use std::path::PathBuf;

use obda_lubm::{star_query, workload, UnivOntology};
use obda_query::{canonicalize, minimize_ucq, CQ, UCQ};
use obda_reform::perfect_ref_pruned_with_stats;

/// (shape, raw arms, minimal arms), measured on the parent commit.
const ARMS: [(&str, usize, usize); 14] = [
    ("Q1", 108, 40),
    ("Q2", 115, 4),
    ("Q3", 8, 2),
    ("Q4", 513, 29),
    ("Q5", 210, 24),
    ("Q6", 2196, 128),
    ("Q7", 1304, 154),
    ("Q8", 14, 1),
    ("Q9", 291, 4),
    ("Q10", 470, 264),
    ("Q11", 345, 180),
    ("Q12", 24, 6),
    ("Q13", 808, 275),
    ("A4", 90, 90),
];

/// Ceilings on `ReformStats::containment_searches` for the two shapes
/// that dominated a cold compile (measured: Q13 38 823, Q6 6 132).
const SEARCH_CEILINGS: [(&str, usize); 2] = [("Q13", 50_000), ("Q6", 10_000)];

/// (shape, `ReformStats::candidates`, ceiling on
/// `ReformStats::canonicalised`) — measured: Q13 53 289, Q6 9 208 since
/// recent forms are spelled up to a renaming (60 919 and 10 271 before).
const CANDIDATES: [(&str, usize, usize); 2] = [("Q13", 90_994, 55_000), ("Q6", 25_758, 9_600)];

/// FNV-1a over the canonical form of every disjunct, in order. The
/// canonical form is the canonical key spelled with vocabulary names, so
/// the digest does not depend on how `CanonKey` is represented.
fn digest(ucq: &UCQ, onto: &UnivOntology) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for cq in ucq.cqs() {
        let line = format!("{}\n", canonicalize(cq).display(&onto.voc));
        for b in line.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn lubm_reformulations_are_pinned() {
    let onto = UnivOntology::build();
    let mut shapes: Vec<(String, CQ)> = workload(&onto)
        .into_iter()
        .map(|w| (w.name, w.cq))
        .collect();
    shapes.push(("A4".into(), star_query(&onto, 4)));
    assert_eq!(shapes.len(), ARMS.len());

    let mut actual = String::new();
    for ((name, q), (pin, raw_arms, min_arms)) in shapes.iter().zip(ARMS) {
        assert_eq!(name, pin);
        let (raw, stats) = perfect_ref_pruned_with_stats(q, &onto.tbox);
        let minimal = minimize_ucq(&raw);
        assert_eq!((raw.len(), minimal.len()), (raw_arms, min_arms), "{name}");
        if let Some((_, ceiling)) = SEARCH_CEILINGS.iter().find(|(n, _)| n == name) {
            assert!(
                stats.containment_searches <= *ceiling,
                "{name}: {} containment searches entered (ceiling {ceiling}, {} filtered)",
                stats.containment_searches,
                stats.containment_filtered,
            );
            assert!(stats.containment_filtered > stats.containment_searches);
        }
        if let Some((_, candidates, ceiling)) = CANDIDATES.iter().find(|(n, ..)| n == name) {
            assert_eq!(
                stats.candidates, *candidates,
                "{name}: the fixpoint changed"
            );
            assert!(
                stats.canonicalised <= *ceiling,
                "{name}: {} of {candidates} candidates labelled (ceiling {ceiling})",
                stats.canonicalised,
            );
        }
        actual.push_str(&format!(
            "{name} raw={:016x} minimal={:016x}\n",
            digest(&raw, &onto),
            digest(&minimal, &onto)
        ));
    }

    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "goldens",
        "reformulation_pins.txt",
    ]
    .iter()
    .collect();
    if std::env::var_os("OBDA_BLESS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing {}; bless with OBDA_BLESS=1", path.display()));
    // Compare per shape so a failure names the reformulation that moved.
    assert_eq!(actual.lines().count(), want.lines().count());
    for (got, want) in actual.lines().zip(want.lines()) {
        assert_eq!(got, want, "disjuncts or their order changed");
    }
}
