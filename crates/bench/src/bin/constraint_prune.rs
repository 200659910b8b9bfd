//! Constraint-driven reformulation pruning: before/after statement
//! sizes and latencies on the LUBM workload, and the §6.3 headline —
//! the root-cover JUCQ for Q13 on the DPH (RDF) layout, rejected by the
//! DB2-like statement-size limit when generated naively, shrinks under
//! ABox completeness constraints to a servable statement that returns
//! the correct rows.
//!
//! Reported numbers (merged into `BENCH_qps.json` under the
//! `"constraint_prune"` section; path override: `OBDA_BENCH_JSON`):
//!
//! * `q13_dph_sql_bytes_off` / `q13_dph_sql_bytes_on` — the Q13
//!   root-cover statement on the DPH layout, unpruned vs pruned;
//! * `q13_dph_answerable` — 1 when the pruned statement fits the DB2
//!   limit **and** the SQL backend's rows match the native reference;
//! * `workload_sql_bytes_off` / `workload_sql_bytes_on` — summed UCQ
//!   statement sizes across the 13 workload queries (simple layout);
//! * `workload_arms_off` / `workload_arms_on` — summed union arms;
//! * `q13_eval_ms_off` / `q13_eval_ms_on` — native evaluation of the
//!   (un)pruned UCQ on the simple layout, best of three;
//! * `mine_ms` — one constraint-mining pass over the dataset.
//!
//! `--check` exits non-zero unless Q13 is answerable — the bench_guard
//! acceptance bar. Environment: `OBDA_CONSTRAINT_FACTS` (default
//! 20 000) scales the ABox.

use std::path::PathBuf;
use std::time::Instant;

use obda_bench::{benchjson, Dataset};
use obda_core::{choose_reformulation, prune_fol, Strategy, StructuralEstimator};
use obda_dllite::ConstraintSet;
use obda_query::FolQuery;
use obda_rdbms::{Backend, EngineProfile, EvalOptions, LayoutKind};

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let facts = env_usize("OBDA_CONSTRAINT_FACTS", 20_000);
    let ds = Dataset::build_with_facts(facts);
    println!("dataset: {} facts", ds.facts);

    let started = Instant::now();
    let cons = ConstraintSet::mine_from_abox(&ds.onto.tbox, &ds.abox);
    let mine_ms = started.elapsed().as_secs_f64() * 1e3;
    let stats = cons.stats();
    println!(
        "mined {} constraints in {mine_ms:.1} ms ({} empty preds, {} unary, {} role, {} pairs checked)",
        cons.len(),
        stats.empty_preds,
        stats.unary_inclusions,
        stats.role_inclusions,
        stats.pairs_checked,
    );

    let estimator = StructuralEstimator;
    let queries = ds.workload();

    // Workload-wide statement sizes (UCQ route, simple layout).
    let simple = ds.engine(LayoutKind::Simple, EngineProfile::pg_like());
    let (mut bytes_off, mut bytes_on) = (0usize, 0usize);
    let (mut arms_off, mut arms_on) = (0usize, 0usize);
    let mut q13: Option<(FolQuery, FolQuery)> = None;
    println!(
        "\n{:<6} {:>6} {:>6} {:>12} {:>12}",
        "query", "arms", "kept", "bytes_off", "bytes_on"
    );
    for wq in &queries {
        let off = choose_reformulation(&wq.cq, &ds.onto.tbox, &ds.deps, &estimator, &Strategy::Ucq);
        let (on, p) = prune_fol(&off.fol, &cons);
        let (b_off, b_on) = (simple.sql_for(&off.fol).len(), simple.sql_for(&on).len());
        bytes_off += b_off;
        bytes_on += b_on;
        arms_off += p.arms_in;
        arms_on += p.kept;
        println!(
            "{:<6} {:>6} {:>6} {:>12} {:>12}",
            wq.name, p.arms_in, p.kept, b_off, b_on
        );
        if wq.name == "Q13" {
            q13 = Some((off.fol.clone(), on));
        }
    }
    println!(
        "workload totals: arms {arms_off} -> {arms_on}, simple-layout SQL {bytes_off} -> {bytes_on} bytes"
    );
    let (q13_off, q13_on) = q13.expect("workload contains Q13");

    // Q13 native latency, simple layout, best of three.
    let eval_ms = |q: &FolQuery| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                simple.evaluate(q).expect("pg-like has no limit");
                t.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    };
    let (q13_ms_off, q13_ms_on) = (eval_ms(&q13_off), eval_ms(&q13_on));
    println!("Q13 native eval (simple): off {q13_ms_off:.2} ms, on {q13_ms_on:.2} ms");

    // The §6.3 headline: the Q13 root-cover JUCQ on the DPH layout under
    // the DB2-like statement-size limit.
    let q13_cq = &queries.iter().find(|w| w.name == "Q13").unwrap().cq;
    let croot_off = choose_reformulation(
        q13_cq,
        &ds.onto.tbox,
        &ds.deps,
        &estimator,
        &Strategy::CrootJucq,
    );
    let (croot_on, _) = prune_fol(&croot_off.fol, &cons);
    let db2 = EngineProfile::db2_like();
    let limit = db2
        .max_statement_bytes
        .expect("the DB2 profile models the §6.3 limit");
    let dph = ds.engine(LayoutKind::Dph, db2).with_backend(Backend::Sql);
    let dph_bytes_off = dph.sql_for(&croot_off.fol).len();
    let sql_on = dph.sql_for(&croot_on);
    let dph_bytes_on = sql_on.len();
    println!(
        "Q13 root-cover DPH statement: off {dph_bytes_off} bytes, on {dph_bytes_on} bytes (limit {limit})"
    );

    let answerable = if dph_bytes_on <= limit {
        // Correctness, not just size: the pruned statement's rows must
        // match the native reference on the unpruned reformulation.
        let native = ds.engine(LayoutKind::Simple, EngineProfile::pg_like());
        let mut want = native.evaluate(&q13_off).expect("reference").rows;
        want.sort();
        let opts = EvalOptions {
            sql_text: Some(&sql_on),
            sql_bytes: Some(dph_bytes_on),
            ..Default::default()
        };
        let mut rows = dph
            .evaluate_opts(&croot_on, &opts)
            .expect("pruned statement fits the limit")
            .rows;
        rows.sort();
        assert_eq!(rows, want, "pruned DPH Q13 must return the reference rows");
        println!(
            "Q13 on DPH under the DB2 limit: ANSWERED, {} rows (reference parity)",
            rows.len()
        );
        true
    } else {
        println!("Q13 on DPH under the DB2 limit: still too long after pruning");
        false
    };

    let path: PathBuf = std::env::var_os("OBDA_BENCH_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(benchjson::default_path);
    let obj = benchjson::JsonObj::new()
        .int("facts", ds.facts as u64)
        .num("mine_ms", mine_ms)
        .int("workload_sql_bytes_off", bytes_off as u64)
        .int("workload_sql_bytes_on", bytes_on as u64)
        .int("workload_arms_off", arms_off as u64)
        .int("workload_arms_on", arms_on as u64)
        .num("q13_eval_ms_off", q13_ms_off)
        .num("q13_eval_ms_on", q13_ms_on)
        .int("q13_dph_sql_bytes_off", dph_bytes_off as u64)
        .int("q13_dph_sql_bytes_on", dph_bytes_on as u64)
        .int("q13_dph_answerable", answerable as u64);
    benchjson::merge_section(&path, "constraint_prune", &obj).expect("write BENCH_qps.json");
    println!("merged constraint_prune section into {}", path.display());

    if check && !answerable {
        eprintln!("FAIL: DPH Q13 remains unanswerable under the DB2 limit with pruning on");
        std::process::exit(1);
    }
    if check {
        println!("CHECK PASSED: DPH Q13 answerable under the DB2 statement-size limit");
    }
}
