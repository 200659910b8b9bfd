//! Warm-path client scaling: one shared [`Server`] on a primed plan cache
//! must serve more queries per second to four client threads than to one.
//! It times a replay, so it is its own test target: cargo runs each
//! integration-test binary as a separate process, one after another, so
//! nothing else runs beside the timed replay. CI runs it in release mode
//! (the `threaded-stress` job).

use std::time::Instant;

use obda::prelude::*;

/// On a primed plan cache (GDL, 8 000 facts, all 14 shapes), 4 client
/// threads each replaying 10 rounds must serve at least 2× the queries
/// per second of 1 client replaying 10 rounds. The bar needs cores to
/// scale onto, so it holds where at least 4 CPUs are available;
/// elsewhere the ratio is only printed.
#[test]
fn warm_replay_scales_to_four_clients() {
    let mut onto = UnivOntology::build();
    let config = GenConfig {
        target_facts: 8_000,
        ..Default::default()
    };
    let (abox, _) = generate(&mut onto, &config);
    let mut queries: Vec<CQ> = workload(&onto).into_iter().map(|w| w.cq).collect();
    queries.push(star_query(&onto, 4));
    let srv = Server::new(
        onto.voc.clone(),
        onto.tbox.clone(),
        &abox,
        ServerConfig {
            reform_strategy: obda::core::Strategy::Gdl { time_budget: None },
            cache_plans: true,
            threads: 1,
            ..ServerConfig::default()
        },
    );
    let rounds = 10usize;
    let replay_qps = |clients: usize, rounds: usize| {
        let start = Instant::now();
        std::thread::scope(|s| {
            for c in 0..clients {
                let (srv, queries) = (&srv, &queries);
                s.spawn(move || {
                    for r in 0..rounds {
                        for k in 0..queries.len() {
                            let out = srv.query(&queries[(k + c + r) % queries.len()]).unwrap();
                            std::hint::black_box(out.outcome.rows.len());
                        }
                    }
                });
            }
        });
        (clients * rounds * queries.len()) as f64 / start.elapsed().as_secs_f64()
    };
    // Prime: one compile per shape. The first 4-client replay is timed
    // as it comes, cold threads and all.
    replay_qps(1, 1);
    let qps1 = replay_qps(1, rounds);
    let qps4 = replay_qps(4, rounds);
    let scaling = qps4 / qps1;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("warm replay: 1 client {qps1:.1} q/s, 4 clients {qps4:.1} q/s ({scaling:.2}x) on {cpus} CPUs");
    let stats = srv.cache_stats();
    assert_eq!(stats.misses, queries.len() as u64, "one miss per shape");
    if cpus >= 4 {
        assert!(
            scaling >= 2.0,
            "4-client warm replay scales {scaling:.2}x < 2x over 1 client on {cpus} CPUs"
        );
    }
}
