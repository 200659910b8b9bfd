//! Heap allocations of the three cold-compile kernels, counted.
//!
//! PerfectRef, `minimize_ucq` and `prune_ucq` should allocate for what
//! they keep: a new CQ, a kept arm. Per-candidate or per-pair scratch
//! (a map per unifier, a `Vec` per popped query, a labeller per
//! disjunct, a `Vec` of coverage modes per atom pair) shows up here as a
//! multiple of those counts. Like the pins test, the ceilings are counts,
//! not timings: the counting allocator below is per thread, so a count
//! repeats exactly from run to run and other tests cannot add to it.
//!
//! Run with `cargo test --release -p obda_reform --test kernel_allocations
//! -- --nocapture` to print the measured counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use obda_dllite::ConstraintSet;
use obda_lubm::{generate, workload, GenConfig, UnivOntology};
use obda_query::{minimize_ucq, CQ, UCQ};
use obda_reform::{perfect_ref_pruned_with_stats, perfect_ref_with_stats, prune_ucq};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, returning its result and the allocations this thread made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Ceilings in allocations per unit, as (numerator, denominator) so that
/// they stay exact: PerfectRef per CQ generated, `minimize_ucq` and
/// `prune_ucq` per input arm. Each is the measured count (in the comment)
/// plus under 5 %. A CQ generated costs two allocations (head and body),
/// an emitted one two more for the union's copy, and the rest is buffers
/// growing. Scratch per candidate or per pair multiplies these: with a
/// map per unifier and a labeller per disjunct PerfectRef made 16 per CQ
/// on Q13 and minimisation 32 per arm on Q6, and with a vector of modes
/// per pair of atoms pruning made 265 per arm on Q7.
const PERFECT_REF_PER_NEW_CQ: [(&str, u64, u64); 2] = [
    ("Q13", 22, 10), // 39 789 / 19 005 = 2.09
    ("Q6", 29, 10),  // 15 497 / 5 480 = 2.83
];
const MINIMIZE_PER_ARM: [(&str, u64, u64); 2] = [
    ("Q13", 22, 10), // 1 712 / 808 = 2.12
    ("Q6", 21, 10),  // 4 484 / 2 196 = 2.04
];
const PRUNE_PER_ARM: [(&str, u64, u64); 2] = [
    ("Q7", 25, 10),    // 369 / 154 = 2.40
    ("Q10", 235, 100), // 597 / 264 = 2.26
];

fn check(what: &str, name: &str, allocations: u64, units: u64, (num, den): (u64, u64)) {
    println!(
        "{what} {name}: {allocations} allocations, {units} units, {:.2} per unit (ceiling {num}/{den})",
        allocations as f64 / units as f64
    );
    assert!(
        allocations * den <= units * num,
        "{what} {name}: {allocations} allocations for {units} (ceiling {num}/{den} each)"
    );
}

fn shape(onto: &UnivOntology, name: &str) -> CQ {
    workload(onto)
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("no shape {name}"))
        .cq
}

/// One test, so that the kernels run one at a time on this thread.
#[test]
fn compile_kernels_allocate_for_what_they_keep() {
    let mut onto = UnivOntology::build();

    for (name, num, den) in PERFECT_REF_PER_NEW_CQ {
        let q = shape(&onto, name);
        // The exhaustive variant emits every CQ the fixpoint generates;
        // the pruned one generates the same CQs and emits fewer.
        let generated = perfect_ref_with_stats(&q, &onto.tbox).1.generated as u64;
        let ((raw, _), allocations) = counted(|| perfect_ref_pruned_with_stats(&q, &onto.tbox));
        check(
            "perfect_ref_pruned",
            name,
            allocations,
            generated,
            (num, den),
        );
        let (_, allocations) = counted(|| minimize_ucq(&raw));
        let (_, num, den) = MINIMIZE_PER_ARM.iter().find(|(n, ..)| *n == name).unwrap();
        check(
            "minimize_ucq",
            name,
            allocations,
            raw.len() as u64,
            (*num, *den),
        );
    }

    let config = GenConfig {
        seed: 1,
        target_facts: 60_000,
        ..GenConfig::default()
    };
    let (abox, _) = generate(&mut onto, &config);
    let cons = ConstraintSet::mine_from_abox(&onto.tbox, &abox);
    for (name, num, den) in PRUNE_PER_ARM {
        let q = shape(&onto, name);
        let minimal: UCQ = minimize_ucq(&perfect_ref_pruned_with_stats(&q, &onto.tbox).0);
        let (_, allocations) = counted(|| prune_ucq(&minimal, &cons));
        check(
            "prune_ucq",
            name,
            allocations,
            minimal.len() as u64,
            (num, den),
        );
    }
}
