//! The serving-layer throughput benchmark: N client threads replaying a
//! mixed LUBM workload against one [`Server`], cold pipeline vs. warm
//! plan cache, 1 vs. 4 client threads.
//!
//! Reported numbers:
//!
//! * **cold QPS** — every call runs the full per-query pipeline
//!   (reformulation + planning + SQL sizing + execution), cache disabled;
//! * **warm QPS** — the same replay against a primed plan cache: each
//!   call fetches the stored compilation by canonical key and only
//!   executes (the §6.4-dominant estimation/search work is amortized);
//! * **client scaling** — warm QPS with 1 vs. 4 client threads sharing
//!   one `Arc`-snapshot server (inter-query concurrency).
//!
//! `--check` exits non-zero unless warm ≥ 5× cold and 4-thread ≥ 2×
//! 1-thread — the acceptance bars CI's threaded stress job enforces.
//!
//! Per-query latency percentiles (p50/p99, single client) for the cold
//! and warm paths are printed and merged into `BENCH_qps.json` under the
//! `"qps"` section (path override: `OBDA_BENCH_JSON`).
//!
//! Environment: `OBDA_QPS_FACTS` (default 20 000) scales the ABox;
//! `OBDA_QPS_ROUNDS` (default 40) scales the warm replay length.

use std::time::{Duration, Instant};

use obda_bench::{benchjson, ms, percentile};
use obda_core::Strategy;
use obda_lubm::{generate, star_query, workload, GenConfig, UnivOntology};
use obda_query::CQ;
use obda_rdbms::{ExecMode, Server, ServerConfig};

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Bench {
    onto: UnivOntology,
    abox: obda_dllite::ABox,
    queries: Vec<(String, CQ)>,
}

impl Bench {
    fn server(&self, cache: bool, threads: usize, exec_mode: ExecMode) -> Server {
        Server::new(
            self.onto.voc.clone(),
            self.onto.tbox.clone(),
            &self.abox,
            ServerConfig {
                reform_strategy: Strategy::Gdl { time_budget: None },
                cache_plans: cache,
                threads,
                exec_mode,
                ..ServerConfig::default()
            },
        )
    }

    /// Replay the mixed workload `rounds` times across `clients` threads
    /// against `srv`; returns queries-per-second.
    fn replay_qps(&self, srv: &Server, clients: usize, rounds: usize) -> f64 {
        let start = Instant::now();
        std::thread::scope(|s| {
            for c in 0..clients {
                let queries = &self.queries;
                s.spawn(move || {
                    for r in 0..rounds {
                        for k in 0..queries.len() {
                            let (_, cq) = &queries[(k + c + r) % queries.len()];
                            let out = srv.query(cq).expect("pg-like: no statement limit");
                            std::hint::black_box(out.outcome.rows.len());
                        }
                    }
                });
            }
        });
        let total = (clients * rounds * self.queries.len()) as f64;
        total / start.elapsed().as_secs_f64()
    }

    /// Single-client replay that records per-query wall latency.
    fn replay_latencies(&self, srv: &Server, rounds: usize) -> Vec<Duration> {
        let mut latencies = Vec::with_capacity(rounds * self.queries.len());
        for r in 0..rounds {
            for k in 0..self.queries.len() {
                let (_, cq) = &self.queries[(k + r) % self.queries.len()];
                let t0 = Instant::now();
                let out = srv.query(cq).expect("pg-like: no statement limit");
                latencies.push(t0.elapsed());
                std::hint::black_box(out.outcome.rows.len());
            }
        }
        latencies
    }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let facts = env_usize("OBDA_QPS_FACTS", 20_000);
    let rounds = env_usize("OBDA_QPS_ROUNDS", 40);

    let mut onto = UnivOntology::build();
    let (abox, report) = generate(
        &mut onto,
        &GenConfig {
            target_facts: facts,
            ..Default::default()
        },
    );
    // The mixed serving workload: every LUBM query plus one star shape.
    // (All 14 shapes participate; GDL compiles each exactly once on the
    // warm path, so even the heaviest reformulations are amortized.)
    let mut queries: Vec<(String, CQ)> = workload(&onto)
        .into_iter()
        .map(|w| (w.name, w.cq))
        .collect();
    queries.push(("A4".to_owned(), star_query(&onto, 4)));
    let bench = Bench {
        onto,
        abox,
        queries,
    };
    println!(
        "dataset: {} facts, {} query shapes, GDL reformulation",
        report.facts,
        bench.queries.len()
    );

    // Cold: full pipeline per call, one client. One pass over the
    // workload is enough signal — the pipeline is orders of magnitude
    // slower than cached execution.
    let cold_srv = bench.server(false, 1, ExecMode::default());
    let cold_lat = bench.replay_latencies(&cold_srv, 1);
    let cold_qps = cold_lat.len() as f64 / cold_lat.iter().sum::<Duration>().as_secs_f64();
    let (cold_p50, cold_p99) = (percentile(&cold_lat, 50.0), percentile(&cold_lat, 99.0));
    println!(
        "cold  pipeline      : {cold_qps:>10.1} q/s   (p50 {} ms, p99 {} ms)",
        ms(cold_p50),
        ms(cold_p99)
    );

    // Warm: primed cache, one client, on the default (vectorized)
    // native pipeline.
    let warm_srv = bench.server(true, 1, ExecMode::default());
    let _ = bench.replay_qps(&warm_srv, 1, 1); // prime (compiles once)
    let warm_lat = bench.replay_latencies(&warm_srv, rounds);
    let warm_qps = warm_lat.len() as f64 / warm_lat.iter().sum::<Duration>().as_secs_f64();
    let (warm_p50, warm_p99) = (percentile(&warm_lat, 50.0), percentile(&warm_lat, 99.0));
    let speedup = warm_qps / cold_qps;
    println!(
        "warm  plan cache    : {warm_qps:>10.1} q/s   ({speedup:.1}x cold, p50 {} ms, p99 {} ms)",
        ms(warm_p50),
        ms(warm_p99)
    );

    // The same warm replay on the row-at-a-time pipeline — the pre-PR
    // execution path, kept as a measured baseline so the tracked JSON
    // records the vectorized speedup, not an anecdote.
    let row_srv = bench.server(true, 1, ExecMode::Row);
    let _ = bench.replay_qps(&row_srv, 1, 1);
    let row_lat = bench.replay_latencies(&row_srv, rounds);
    let row_warm_qps = row_lat.len() as f64 / row_lat.iter().sum::<Duration>().as_secs_f64();
    let vectorized_speedup = warm_qps / row_warm_qps;
    println!(
        "warm  row pipeline  : {row_warm_qps:>10.1} q/s   (vectorized is {vectorized_speedup:.2}x)"
    );

    // Client scaling on the warm server.
    let qps1 = bench.replay_qps(&warm_srv, 1, rounds);
    let qps4 = bench.replay_qps(&warm_srv, 4, rounds);
    let scaling = qps4 / qps1;
    println!("warm  1 client      : {qps1:>10.1} q/s");
    println!("warm  4 clients     : {qps4:>10.1} q/s   ({scaling:.2}x scaling)");

    // Observability overhead: the same warm replay with the metrics
    // registry recording vs. gated off. The registry is lock-free
    // (relaxed atomics), so the pair should be within noise; the CI
    // bench guard enforces < 5%. Interleave two runs per mode and keep
    // each mode's best, so a scheduler hiccup in one run cannot fake a
    // regression.
    let mut metrics_on_qps = 0.0f64;
    let mut metrics_off_qps = 0.0f64;
    for _ in 0..2 {
        metrics_on_qps = metrics_on_qps.max(bench.replay_qps(&warm_srv, 1, rounds));
        warm_srv.observe().set_enabled(false);
        metrics_off_qps = metrics_off_qps.max(bench.replay_qps(&warm_srv, 1, rounds));
        warm_srv.observe().set_enabled(true);
    }
    let overhead = 1.0 - metrics_on_qps / metrics_off_qps;
    println!(
        "warm  metrics on    : {metrics_on_qps:>10.1} q/s   ({:.1}% overhead vs off: {metrics_off_qps:.1} q/s)",
        overhead * 100.0
    );

    // The cache counters live in the registry, so the metrics-off runs
    // above are not in them.
    let stats = warm_srv.cache_stats();
    println!(
        "cache: {} hits / {} misses / {} entries",
        stats.hits, stats.misses, stats.entries
    );

    let path = benchjson::default_path();
    let section = benchjson::JsonObj::new()
        .int("facts", report.facts as u64)
        .num("cold_qps", cold_qps)
        .num("cold_p50_ms", cold_p50.as_secs_f64() * 1e3)
        .num("cold_p99_ms", cold_p99.as_secs_f64() * 1e3)
        .num("warm_qps", warm_qps)
        .num("warm_p50_ms", warm_p50.as_secs_f64() * 1e3)
        .num("warm_p99_ms", warm_p99.as_secs_f64() * 1e3)
        .num("warm_speedup", speedup)
        .num("warm_qps_row_pipeline", row_warm_qps)
        .num("vectorized_speedup", vectorized_speedup)
        .num("qps_1_client", qps1)
        .num("qps_4_clients", qps4)
        .num("scaling_4_clients", scaling)
        .num("metrics_on_qps", metrics_on_qps)
        .num("metrics_off_qps", metrics_off_qps);
    if let Err(e) = benchjson::merge_section(&path, "qps", &section) {
        eprintln!("cannot write {}: {e}", path.display());
    } else {
        println!("wrote {} [qps]", path.display());
    }

    if check {
        let mut failed = false;
        if speedup < 5.0 {
            eprintln!("FAIL: warm-cache speedup {speedup:.1}x < 5x");
            failed = true;
        }
        // Client scaling needs hardware to scale onto: enforce the 2x
        // bar only where >= 4 CPUs are available (CI runners are), and
        // report it as unmeasurable elsewhere.
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cpus >= 4 {
            if scaling < 2.0 {
                eprintln!("FAIL: 4-client scaling {scaling:.2}x < 2x on {cpus} CPUs");
                failed = true;
            }
        } else {
            println!("note: scaling bar skipped ({cpus} CPU(s) available)");
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "CHECK PASSED: warm >= 5x cold{}",
            if cpus >= 4 {
                ", 4 clients >= 2x 1 client"
            } else {
                ""
            }
        );
    }
}
