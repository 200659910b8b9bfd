//! A memo-backed [`ReformCache`] is observationally a memo-less one: for
//! every LUBM workload shape (Q1–Q13 and the A4 star query) and every
//! cover GDL's first step can reach, both build the same JUCQ — on a
//! cold memo, and again once every fragment is served from it.

use obda_core::{moves_from, root_cover, FragmentMemo, GdlConfig, QueryAnalysis, ReformCache};
use obda_dllite::Dependencies;
use obda_lubm::{star_query, workload, UnivOntology};

#[test]
fn memo_backed_cache_equals_memo_less_on_every_lubm_shape() {
    let onto = UnivOntology::build();
    let deps = Dependencies::compute(&onto.voc, &onto.tbox);
    let mut shapes: Vec<(String, obda_query::CQ)> = workload(&onto)
        .into_iter()
        .map(|w| (w.name, w.cq))
        .collect();
    shapes.push(("A4".into(), star_query(&onto, 4)));
    assert_eq!(shapes.len(), 14);

    let memo = FragmentMemo::new();
    for (name, q) in &shapes {
        let analysis = QueryAnalysis::new(q, &deps);
        let root = root_cover(&analysis);
        let mut covers = vec![root.clone()];
        covers.extend(moves_from(&root, &analysis, &GdlConfig::default()));

        let mut plain = ReformCache::new(q, &onto.tbox, true);
        let mut cold = ReformCache::with_memo(q, &onto.tbox, true, Some(&memo));
        for cover in &covers {
            assert_eq!(
                cold.jucq_for(cover),
                plain.jucq_for(cover),
                "{name} {cover:?}"
            );
        }
        assert_eq!(plain.fragments().memoised, 0);
        assert_eq!(plain.fragments().computed, plain.misses());
        let cold_stats = cold.fragments();
        assert_eq!(cold_stats.memoised + cold_stats.computed, cold.misses());

        // A second search over the same shape — a recompile after a
        // commit — runs PerfectRef for nothing.
        let mut warm = ReformCache::with_memo(q, &onto.tbox, true, Some(&memo));
        for cover in &covers {
            assert_eq!(
                warm.jucq_for(cover),
                plain.jucq_for(cover),
                "{name} {cover:?}"
            );
        }
        assert_eq!(warm.fragments().computed, 0, "{name}: memo must be warm");
        assert_eq!(warm.fragments().memoised, warm.misses());
    }
    assert!(!memo.is_empty());
}

/// Minimised and raw reformulations of one fragment never alias.
#[test]
fn minimise_flag_is_part_of_the_key() {
    let onto = UnivOntology::build();
    let q = star_query(&onto, 4);
    let cover = obda_core::Cover::trivial(q.num_atoms());
    let memo = FragmentMemo::new();
    let raw = ReformCache::with_memo(&q, &onto.tbox, false, Some(&memo)).jucq_for(&cover);
    let min = ReformCache::with_memo(&q, &onto.tbox, true, Some(&memo)).jucq_for(&cover);
    assert_eq!(memo.len(), 2);
    assert_eq!(
        raw,
        ReformCache::new(&q, &onto.tbox, false).jucq_for(&cover)
    );
    assert_eq!(min, ReformCache::new(&q, &onto.tbox, true).jucq_for(&cover));
}

/// The memo is shared by every compiling thread of a server.
#[test]
fn fragment_memo_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FragmentMemo>();
}
