//! `verify`: answers against the certain-answer oracle, and the traced
//! pipeline against the server's own.
//!
//! On a small ABox of the same seed (the chase-based oracle does not
//! scale to the timed runs' size), every shape over the wire on both
//! backends must equal `obda_query::certain_answers`; then the staged
//! replay of every shape must return the rows and SQL size of
//! `Server::query`, with stage times summing to within
//! [`MAX_DRIFT_PCT`] of the server's own `StageSpans`.

use std::collections::HashSet;
use std::time::Instant;

use obda_dllite::Dependencies;
use obda_query::certain_answers;
use obda_rdbms::Backend;

use crate::fixture::{self, Host};
use crate::layers;
use crate::trace::Tracer;

/// How far the staged stage times may be from the server's.
pub const MAX_DRIFT_PCT: f64 = 15.0;

/// Returns whether everything held.
pub fn run(seed: u64) -> bool {
    let kb = fixture::build_kb(seed, fixture::VERIFY_FACTS);
    let shapes = fixture::shapes(&kb.onto);
    println!(
        "verify: seed {seed}, {} facts, {} shapes",
        kb.facts,
        shapes.len()
    );
    let mut wrong = 0;

    let host = Host::start(fixture::new_server(&kb, true));
    let mut sessions = [
        (Backend::Native, host.connect(Backend::Native)),
        (Backend::Sql, host.connect(Backend::Sql)),
    ];
    let voc = &kb.onto.voc;
    for shape in &shapes {
        let truth: HashSet<Vec<String>> = certain_answers(&kb.onto.tbox, &kb.abox, &shape.cq)
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|id| voc.individual_name(id).to_owned())
                    .collect()
            })
            .collect();
        let mut agree = true;
        for (backend, client) in &mut sessions {
            let mut results = client
                .simple_query(&shape.text)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", shape.name, backend.name()));
            let rows = std::mem::take(&mut results[0].rows);
            let distinct: HashSet<Vec<String>> = rows.iter().cloned().collect();
            if distinct.len() != rows.len() || distinct != truth {
                println!(
                    "MISMATCH {} on {}: {} rows ({} distinct), oracle {}",
                    shape.name,
                    backend.name(),
                    rows.len(),
                    distinct.len(),
                    truth.len()
                );
                wrong += 1;
                agree = false;
            }
        }
        if agree {
            println!(
                "{}: {} certain answers, both backends agree",
                shape.name,
                truth.len()
            );
        }
    }
    drop(sessions);
    drop(host);

    let deps = Dependencies::compute(voc, &kb.onto.tbox);
    let mut t = Tracer::new(Instant::now());
    let guard = layers::replay_and_guard(&mut t, &kb, &deps, &shapes, Backend::Native, |_| true);
    println!(
        "drift guard: {} shapes, {} mismatched, staged {:.3} s against the server's {:.3} s ({:+.1} %)",
        guard.checked,
        guard.mismatched,
        guard.staged.as_secs_f64(),
        guard.served.as_secs_f64(),
        guard.drift_pct()
    );
    wrong += guard.mismatched;
    if guard.drift_pct().abs() > MAX_DRIFT_PCT {
        println!("DRIFT beyond {MAX_DRIFT_PCT} %");
        wrong += 1;
    }
    println!("verify: {}", if wrong == 0 { "passed" } else { "FAILED" });
    wrong == 0
}
