//! Engine operator microbenchmarks: scans, index-nested-loop CQ joins,
//! union dedup, JUCQ materialize+hash-join — the executor primitives whose
//! relative costs drive the figures.
//!
//! Each operator shape runs twice: on the default vectorized (batched
//! columnar) pipeline and on the row-at-a-time pipeline (`…-row`), so
//! the before/after of the hot-path refactor is measured, not asserted.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use obda_bench::Dataset;
use obda_query::{Atom, FolQuery, Term, VarId, CQ, JUCQ, UCQ};
use obda_rdbms::{Engine, EngineProfile, EvalOptions, ExecMode, LayoutKind};

fn v(i: u32) -> Term {
    Term::Var(VarId(i))
}

fn bench_executor(c: &mut Criterion) {
    let dataset = Dataset::build_with_facts(20_000);
    let onto = &dataset.onto;
    let engine = Engine::load(
        &dataset.abox,
        &onto.voc,
        LayoutKind::Simple,
        EngineProfile::pg_like(),
    );

    let scan = FolQuery::Cq(CQ::with_var_head(
        vec![VarId(0), VarId(1)],
        vec![Atom::Role(onto.takes_course, v(0), v(1))],
    ));
    let join2 = FolQuery::Cq(CQ::with_var_head(
        vec![VarId(0)],
        vec![
            Atom::Concept(onto.graduate_student, v(0)),
            Atom::Role(onto.takes_course, v(0), v(1)),
        ],
    ));
    let union4 = FolQuery::Ucq(UCQ::from_cqs(
        vec![v(0)],
        [
            onto.full_professor,
            onto.associate_professor,
            onto.assistant_professor,
            onto.lecturer,
        ]
        .map(|cls| CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(cls, v(0))])),
    ));
    let jucq = FolQuery::Jucq(JUCQ::new(
        vec![v(0)],
        vec![
            UCQ::single(CQ::with_var_head(
                vec![VarId(0)],
                vec![Atom::Concept(onto.graduate_student, v(0))],
            )),
            UCQ::single(CQ::with_var_head(
                vec![VarId(0), VarId(1)],
                vec![Atom::Role(onto.takes_course, v(0), v(1))],
            )),
        ],
    ));

    let mut group = c.benchmark_group("executor");
    for (name, q) in [
        ("role-scan", &scan),
        ("inl-join", &join2),
        ("union4-dedup", &union4),
        ("jucq-2way", &jucq),
    ] {
        // Default pipeline (vectorized batched execution).
        group.bench_function(name, |b| {
            b.iter(|| black_box(engine.evaluate(q).unwrap().rows.len()))
        });
        // Row-at-a-time baseline — the pre-vectorization hot path.
        let row_opts = EvalOptions {
            mode: Some(ExecMode::Row),
            ..EvalOptions::default()
        };
        group.bench_function(format!("{name}-row"), |b| {
            b.iter(|| black_box(engine.evaluate_opts(q, &row_opts).unwrap().rows.len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_executor);
criterion_main!(benches);
