//! What the SQL-delegation round trip costs on top of native execution.
//!
//! Both backends end in the same planner and operators; the SQL backend
//! first prints the statement and reads it back. These benches split
//! that front-end cost — generate / parse / lower — from the execution
//! it shares with the native path, i.e. how much of delegation is
//! *statement text handling* (the §6.3 size problem).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use obda_bench::Dataset;
use obda_query::FolQuery;
use obda_rdbms::sqlexec::{lower, parse};
use obda_rdbms::{Backend, EngineProfile, LayoutKind, SqlNames};
use obda_reform::perfect_ref;

fn bench_sql_backend(c: &mut Criterion) {
    let dataset = Dataset::build_with_facts(3_000);
    let onto = &dataset.onto;
    let native = dataset.engine(LayoutKind::Simple, EngineProfile::pg_like());
    let sql = dataset
        .engine(LayoutKind::Simple, EngineProfile::pg_like())
        .with_backend(Backend::Sql);
    let names = SqlNames::from_vocabulary(&onto.voc);

    // A compact and a union-heavy reformulation.
    let queries: Vec<(String, FolQuery)> = dataset
        .workload()
        .iter()
        .filter(|w| ["Q3", "Q11"].contains(&w.name.as_str()))
        .map(|w| {
            (
                w.name.clone(),
                FolQuery::Ucq(perfect_ref(&w.cq, &onto.tbox)),
            )
        })
        .collect();

    for (name, q) in &queries {
        c.bench_function(&format!("native/{name}"), |b| {
            b.iter(|| black_box(native.evaluate(black_box(q)).unwrap().rows.len()))
        });
        c.bench_function(&format!("sql-backend/{name}"), |b| {
            b.iter(|| black_box(sql.evaluate(black_box(q)).unwrap().rows.len()))
        });
        let text = native.sql_for(q);
        c.bench_function(&format!("sql-generate/{name}"), |b| {
            b.iter(|| black_box(native.sql_for(black_box(q)).len()))
        });
        c.bench_function(&format!("sql-parse/{name}"), |b| {
            b.iter(|| black_box(parse(black_box(&text)).unwrap()))
        });
        let parsed = parse(&text).unwrap();
        c.bench_function(&format!("sql-lower/{name}"), |b| {
            b.iter(|| black_box(lower(black_box(&parsed), &names, false).unwrap()))
        });
        c.bench_function(&format!("sql-run-cached-text/{name}"), |b| {
            b.iter(|| black_box(sql.run_sql(black_box(&text)).unwrap().rows.len()))
        });
    }
}

criterion_group!(benches, bench_sql_backend);
criterion_main!(benches);
