//! Heap allocations of cost estimation, counted.
//!
//! GDL prices every cover it explores through `Engine::explain`, and a
//! cover's reformulation can have hundreds of union arms. Pricing an arm
//! is arithmetic over the catalog statistics: it should allocate nothing,
//! so that what one `explain` call allocates (its scan tally, its plan
//! buffer) is shared by all the arms it prices. A `Vec` per arm, a set
//! per planning step or a catalog copy per call shows up here as a
//! multiple of the arm count. The counting allocator below is per thread,
//! so a count repeats exactly from run to run and other tests cannot add
//! to it.
//!
//! Run with `cargo test --release -p obda_rdbms --test
//! estimate_allocations -- --nocapture` to print the measured counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};

use obda_core::{choose_reformulation, CostEstimator, Strategy};
use obda_dllite::Dependencies;
use obda_lubm::{generate, star_query, workload, GenConfig, UnivOntology};
use obda_query::{FolQuery, CQ};
use obda_rdbms::{Engine, EngineProfile, LayoutKind};

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

/// `explain`, keeping every query GDL asks about.
struct Recording<'e> {
    engine: &'e Engine,
    asked: RefCell<Vec<FolQuery>>,
}

impl CostEstimator for Recording<'_> {
    fn estimate(&self, q: &FolQuery) -> f64 {
        self.asked.borrow_mut().push(q.clone());
        self.engine.explain(q)
    }
}

/// The conjunctions `explain` prices in `q`.
fn arms(q: &FolQuery) -> u64 {
    (match q {
        FolQuery::Cq(_) | FolQuery::Scq(_) => 1,
        FolQuery::Ucq(u) => u.len(),
        FolQuery::Uscq(u) => u.len(),
        FolQuery::Jucq(j) => j.total_cqs(),
        FolQuery::Juscq(j) => j.components().iter().map(|c| c.len()).sum(),
    }) as u64
}

/// At most this many allocations per arm priced, summed over the covers
/// GDL explores (measured counts in the comments). Before the bitset
/// planner priced arms in place, these read 30.3, 30.3 and 80.2.
const PER_ARM: [(&str, u64, u64); 3] = [("Q1", 1, 1), ("A4", 1, 1), ("Q10", 1, 1)];

#[test]
fn explain_allocates_per_call_not_per_arm() {
    let mut onto = UnivOntology::build();
    let (abox, _) = generate(
        &mut onto,
        &GenConfig {
            seed: 1,
            target_facts: 60_000,
            ..GenConfig::default()
        },
    );
    let deps = Dependencies::compute(&onto.voc, &onto.tbox);
    let engine = Engine::load(
        &abox,
        &onto.voc,
        LayoutKind::Simple,
        EngineProfile::pg_like(),
    );
    let shape = |name: &str| -> CQ {
        if name == "A4" {
            return star_query(&onto, 4);
        }
        workload(&onto)
            .into_iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("no shape {name}"))
            .cq
    };
    for (name, num, den) in PER_ARM {
        let recording = Recording {
            engine: &engine,
            asked: RefCell::new(Vec::new()),
        };
        let strategy = Strategy::Gdl { time_budget: None };
        choose_reformulation(&shape(name), &onto.tbox, &deps, &recording, &strategy);
        let covers = recording.asked.into_inner();
        let (mut allocations, mut priced) = (0, 0);
        for q in &covers {
            let (_, n) = counted(|| engine.explain(q));
            allocations += n;
            priced += arms(q);
        }
        println!(
            "explain {name}: {allocations} allocations over {} covers, {priced} arms, \
             {:.2} per arm (ceiling {num}/{den})",
            covers.len(),
            allocations as f64 / priced as f64
        );
        assert!(
            allocations * den <= priced * num,
            "explain {name}: {allocations} allocations for {priced} arms (ceiling {num}/{den} each)"
        );
    }
}
