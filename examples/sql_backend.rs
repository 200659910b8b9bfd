//! The SQL-delegation backend, end to end: the same LUBM queries
//! planned directly and through generate-SQL → parse → lower → plan,
//! with identical results from the one executor — and what reading the
//! statement back costs.
//!
//! ```sh
//! cargo run --release --example sql_backend
//! ```

use std::time::Instant;

use obda::dllite::Dependencies;
use obda::prelude::*;
use obda::rdbms::Backend;

fn main() {
    let mut onto = UnivOntology::build();
    let config = GenConfig {
        target_facts: std::env::var("OBDA_SQL_EXAMPLE_FACTS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(800),
        ..Default::default()
    };
    let (abox, _) = generate(&mut onto, &config);
    let deps = Dependencies::compute(&onto.voc, &onto.tbox);
    println!(
        "LUBM KB: {} facts, {} concepts, {} roles\n",
        abox.len(),
        onto.voc.num_concepts(),
        onto.voc.num_roles()
    );

    // §6.3's statement-size limit: reformulations beyond it (the DPH
    // layout's CASE blowup) are *rejected*, not executed — Figure 3.
    let db2_limit = EngineProfile::db2_like()
        .max_statement_bytes
        .expect("DB2 profile models the statement-size limit");

    for layout in [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph] {
        let native = Engine::load(&abox, &onto.voc, layout, EngineProfile::pg_like());
        let sql = native.clone().with_backend(Backend::Sql);
        println!("== layout {:?} ==", layout);
        for w in workload(&onto) {
            let ucq = perfect_ref(&w.cq, &onto.tbox);
            let analysis = QueryAnalysis::new(&w.cq, &deps);
            let croot = root_cover(&analysis);
            let jucq = cover_reformulation(&w.cq, &onto.tbox, &croot.to_specs());
            for (tag, q) in [("ucq", FolQuery::Ucq(ucq)), ("jucq", FolQuery::Jucq(jucq))] {
                let sql_bytes = native.sql_for(&q).len();
                if sql_bytes > db2_limit {
                    println!(
                        "{:>4} {:>5}: statement too long ({:>9} bytes > {} limit) — §6.3/Fig. 3",
                        w.name, tag, sql_bytes, db2_limit
                    );
                    continue;
                }
                let t0 = Instant::now();
                let mut a = native.evaluate(&q).expect("native").rows;
                let t_native = t0.elapsed();
                let t0 = Instant::now();
                let out = sql.evaluate(&q).expect("sql backend");
                let t_sql = t0.elapsed();
                let mut b = out.rows;
                a.sort();
                b.sort();
                assert_eq!(a, b, "{}: backends disagree", w.name);
                let front_end = out.lowered.expect("the SQL path lowers").took;
                println!(
                    "{:>4} {:>5}: {:>5} rows | native {:>9.3?} | sql {:>9.3?} \
                     (parse+lower+plan {:>9.3?}) | {:>7} sql bytes",
                    w.name,
                    tag,
                    a.len(),
                    t_native,
                    t_sql,
                    front_end,
                    out.sql_bytes,
                );
            }
        }
        println!();
    }
    println!("every executable statement: native rows == sql-backend rows");
}
