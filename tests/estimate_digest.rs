//! Cost estimation pinned bit for bit. GDL asks the engine's `explain`
//! for the cost of every cover it explores; this suite records each
//! query it asked about on the 14 LUBM shapes, under the three layouts
//! and both engine profiles, and pins a digest of every estimate's
//! `f64::to_bits` and of `Debug` of the plans `Engine::prepare` makes for
//! that query. A change to the planner or the cost model that moves one
//! estimate, one slot order or one operator fails here.
//!
//! ```sh
//! OBDA_BLESS=1 cargo test --release --test estimate_digest \
//!     && cargo test --release --test estimate_digest
//! ```

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::PathBuf;

use obda::dllite::Dependencies;
use obda::prelude::*;

/// `explain`, recording the query and the bits of every estimate.
struct Recording<'e> {
    engine: &'e Engine,
    asked: RefCell<Vec<(FolQuery, u64)>>,
}

impl CostEstimator for Recording<'_> {
    fn estimate(&self, q: &FolQuery) -> f64 {
        let cost = self.engine.explain(q);
        self.asked.borrow_mut().push((q.clone(), cost.to_bits()));
        cost
    }

    fn name(&self) -> &str {
        "rdbms"
    }
}

/// FNV-1a, folded over a stream of byte strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn check_golden(name: &str, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "goldens", name]
        .iter()
        .collect();
    if std::env::var_os("OBDA_BLESS").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden {name}; bless with OBDA_BLESS=1"));
    assert_eq!(
        actual, want,
        "estimates or plans drifted from tests/goldens/{name}; a change meant \
         to keep them bit-identical does not"
    );
}

/// One line per (layout, profile, shape): how many covers GDL priced,
/// a digest of their estimates' bits, and a digest of their prepared
/// plans' `Debug`.
#[test]
fn gdl_estimates_and_plans_are_pinned() {
    let mut onto = UnivOntology::build();
    let (abox, _) = generate(
        &mut onto,
        &GenConfig {
            seed: 1,
            target_facts: 10_000,
            ..GenConfig::default()
        },
    );
    let deps = Dependencies::compute(&onto.voc, &onto.tbox);
    let mut shapes: Vec<(String, CQ)> = workload(&onto)
        .into_iter()
        .map(|w| (w.name, w.cq))
        .collect();
    shapes.push(("A4".into(), star_query(&onto, 4)));
    assert_eq!(shapes.len(), 14);

    let strategy = Strategy::Gdl { time_budget: None };
    let mut digest = String::new();
    for layout in [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph] {
        for profile in [EngineProfile::pg_like(), EngineProfile::db2_like()] {
            let name = profile.name();
            let engine = Engine::load(&abox, &onto.voc, layout, profile);
            for (shape, cq) in &shapes {
                let recording = Recording {
                    engine: &engine,
                    asked: RefCell::new(Vec::new()),
                };
                choose_reformulation(cq, &onto.tbox, &deps, &recording, &strategy);
                let asked = recording.asked.into_inner();
                let (mut estimates, mut plans) = (Fnv::new(), Fnv::new());
                for (q, bits) in &asked {
                    assert_eq!(
                        engine.explain(q).to_bits(),
                        *bits,
                        "{shape}: explain repeats"
                    );
                    estimates.feed(&bits.to_le_bytes());
                    plans.feed(format!("{:?}", engine.prepare(q)).as_bytes());
                }
                writeln!(
                    digest,
                    "{} {name} {shape} covers={} estimates={:016x} plans={:016x}",
                    layout.name(),
                    asked.len(),
                    estimates.0,
                    plans.0
                )
                .unwrap();
            }
        }
    }
    check_golden("gdl_estimates.digest", &digest);
}
