//! The socket soak harness: sustained QPS through the wire front end.
//!
//! Where `qps` measures the serving layer in-process (no sockets), this
//! binary drives the full stack — TCP, protocol framing, per-statement
//! snapshot pinning — with N concurrent [`WireClient`] sessions
//! replaying a mixed statement stream for a fixed duration, while a
//! writer thread applies periodic reloads so sessions cross generation
//! boundaries mid-soak. Reported: sustained QPS plus p50/p99 per-query
//! latency, merged into `BENCH_qps.json` under the `"soak"` section,
//! plus an observability section (`"soak_observe"`) read back from the
//! server's metrics registry after the run.
//!
//! The soak also embeds a live [`MetricsEndpoint`] on an ephemeral port
//! and scrapes it over HTTP twice — mid-soak and after the load stops —
//! so the Prometheus exposition path is exercised under real concurrent
//! traffic, not just in unit tests.
//!
//! `--check` enforces only *correctness* bars (every query answered, no
//! protocol errors, reloads visible, every required metric family
//! served, counters monotone between the two scrapes); throughput bars
//! would be meaningless on the single-CPU CI container — the
//! thread-scaling rule from ROADMAP applies, so the only perf output is
//! informational.
//!
//! Environment: `OBDA_SOAK_FACTS` (default 8000), `OBDA_SOAK_SECONDS`
//! (default 5), `OBDA_SOAK_SESSIONS` (default 4), `OBDA_SOAK_WRITER`
//! (default `reload`; `txn` replaces the in-process reload writer with
//! a wire session committing `BEGIN` / `INSERT` / `COMMIT` blocks, so
//! generation churn comes from the MVCC transaction path instead).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obda_bench::{benchjson, ms, percentile};
use obda_core::Strategy;
use obda_lubm::{generate, GenConfig, UnivOntology};
use obda_rdbms::observe::Counter;
use obda_rdbms::pgwire::{PgConfig, PgListener, WireClient};
use obda_rdbms::{Backend, MetricsEndpoint, Server, ServerConfig};

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Metric families the exposition endpoint must serve (CI's smoke bar).
const REQUIRED_FAMILIES: &[&str] = &[
    "obda_queries_total",
    "obda_query_latency_seconds_bucket",
    "obda_stage_seconds_total",
    "obda_plan_cache_hits_total",
    "obda_fragment_memo_hits_total",
    "obda_fragment_memo_misses_total",
    "obda_fragment_memo_entries",
    "obda_constraint_mining_seconds_bucket",
    "obda_txn_commits_total",
    "obda_wal_appends_total",
    "obda_connections_admitted_total",
    "obda_cost_predicted_units_total",
    "obda_generation",
];

/// One HTTP scrape of `GET /metrics`; returns the response body.
fn scrape_metrics(addr: &std::net::SocketAddr) -> Result<String, String> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: soak\r\nConnection: close\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| e.to_string())?;
    if !response.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "unexpected status line: {:?}",
            response.lines().next().unwrap_or("")
        ));
    }
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err("no header/body separator in response".into()),
    }
}

/// Sum every sample of `family` (all label sets) in an exposition body.
fn family_sum(body: &str, family: &str) -> f64 {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            let bare = name.split('{').next().unwrap_or(name);
            (bare == family).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

/// The statement mix one session replays, cycling. Cheap shapes only —
/// the soak measures the serving path, not GDL compile time.
const STATEMENTS: &[&str] = &[
    "SELECT ?x WHERE GraduateStudent(?x)",
    "SELECT ?x, ?y WHERE Professor(?x), advisor(?y, ?x)",
    "ASK WHERE Student(?x)",
    "SHOW generation",
    "SELECT ?x WHERE Student(?x), takesCourse(?x, ?y)",
];

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let facts = env_usize("OBDA_SOAK_FACTS", 8_000);
    let seconds = env_usize("OBDA_SOAK_SECONDS", 5);
    let sessions = env_usize("OBDA_SOAK_SESSIONS", 4);
    let writer_mode = std::env::var("OBDA_SOAK_WRITER").unwrap_or_else(|_| "reload".into());

    let mut onto = UnivOntology::build();
    let (abox, report) = generate(
        &mut onto,
        &GenConfig {
            target_facts: facts,
            ..Default::default()
        },
    );
    let server = Arc::new(Server::new(
        onto.voc.clone(),
        onto.tbox.clone(),
        &abox,
        ServerConfig {
            reform_strategy: Strategy::Gdl { time_budget: None },
            ..ServerConfig::default()
        },
    ));
    let mut listener = PgListener::bind(
        "127.0.0.1:0",
        server.clone(),
        PgConfig {
            max_connections: sessions + 2,
            default_backend: Backend::Native,
            allow_chaos: false,
        },
    )
    .expect("bind ephemeral port");
    let addr = listener.local_addr();
    let mut metrics_endpoint =
        MetricsEndpoint::bind("127.0.0.1:0", server.clone()).expect("bind metrics endpoint");
    let metrics_addr = metrics_endpoint.local_addr();
    println!(
        "soak: {} facts, {sessions} sessions x {seconds}s against {addr} \
         (metrics on http://{metrics_addr}/metrics)",
        report.facts
    );

    let stop = Arc::new(AtomicBool::new(false));
    let errors = Arc::new(AtomicU64::new(0));
    let answered = Arc::new(AtomicU64::new(0));

    // Writer: keep sessions crossing generation boundaries (snapshot
    // pinning under churn). Two modes: `reload` republishes the same
    // ABox in-process every 500ms; `txn` drives BEGIN / INSERT / COMMIT
    // blocks through its own wire session, so churn comes from the MVCC
    // group-commit path and exercises the transaction protocol end to
    // end while readers soak.
    let writer_stop = stop.clone();
    let writer_errors = errors.clone();
    let writer_server = server.clone();
    let writer_abox = abox;
    let writer_txn = writer_mode == "txn";
    let writer = std::thread::spawn(move || {
        let mut writes = 0u64;
        if writer_txn {
            let mut client = match WireClient::connect(&addr, &[("backend", "native")]) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("writer: connect failed: {e}");
                    writer_errors.fetch_add(1, Ordering::Relaxed);
                    return writes;
                }
            };
            let mut n = 0u64;
            while !writer_stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(250));
                n += 1;
                let block = [
                    "BEGIN".to_string(),
                    format!("INSERT GraduateStudent(soak_txn_{n}), Student(soak_txn_{n})"),
                    "COMMIT".to_string(),
                ];
                let mut committed = true;
                for stmt in &block {
                    if let Err(e) = client.simple_query(stmt) {
                        eprintln!("writer: {stmt:?} failed: {e}");
                        writer_errors.fetch_add(1, Ordering::Relaxed);
                        committed = false;
                        let _ = client.simple_query("ROLLBACK");
                        break;
                    }
                }
                if committed {
                    writes += 1;
                }
            }
            client.terminate();
        } else {
            while !writer_stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(500));
                if writer_server.reload_abox(&writer_abox).is_ok() {
                    writes += 1;
                }
            }
        }
        writes
    });

    let mut handles = Vec::new();
    for s in 0..sessions {
        let stop = stop.clone();
        let errors = errors.clone();
        let answered = answered.clone();
        // Alternate backends across sessions: both execution paths soak.
        let backend = if s % 2 == 0 { "native" } else { "sql" };
        handles.push(std::thread::spawn(move || -> Vec<Duration> {
            let mut latencies = Vec::new();
            let mut client = match WireClient::connect(&addr, &[("backend", backend)]) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("session {s}: connect failed: {e}");
                    errors.fetch_add(1, Ordering::Relaxed);
                    return latencies;
                }
            };
            let mut k = s; // stagger the starting statement
            while !stop.load(Ordering::Relaxed) {
                let stmt = STATEMENTS[k % STATEMENTS.len()];
                k += 1;
                let t0 = Instant::now();
                match client.simple_query(stmt) {
                    Ok(results) => {
                        latencies.push(t0.elapsed());
                        answered.fetch_add(results.len() as u64, Ordering::Relaxed);
                    }
                    Err(e) => {
                        eprintln!("session {s}: {stmt:?} failed: {e}");
                        errors.fetch_add(1, Ordering::Relaxed);
                        return latencies;
                    }
                }
            }
            client.terminate();
            latencies
        }));
    }

    let started = Instant::now();
    // Scrape the live exposition endpoint mid-soak and again after load
    // stops: the pair proves the endpoint serves under traffic and that
    // the counters it reports are monotone.
    let half = Duration::from_millis((seconds as u64 * 1000) / 2);
    std::thread::sleep(half);
    let scrape_mid = scrape_metrics(&metrics_addr);
    std::thread::sleep(Duration::from_secs(seconds as u64).saturating_sub(half));
    stop.store(true, Ordering::SeqCst);
    let mut latencies: Vec<Duration> = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("session thread joins"));
    }
    let elapsed = started.elapsed();
    let writes = writer.join().expect("writer thread joins");
    let scrape_end = scrape_metrics(&metrics_addr);
    listener.shutdown();
    metrics_endpoint.shutdown();

    let total = latencies.len() as f64;
    let qps = total / elapsed.as_secs_f64();
    let p50 = percentile(&latencies, 50.0);
    let p99 = percentile(&latencies, 99.0);
    let errs = errors.load(Ordering::Relaxed);
    let write_label = if writer_txn { "txn commits" } else { "reloads" };
    println!(
        "soak: {total} queries in {:.1}s = {qps:.1} q/s (p50 {} ms, p99 {} ms), \
         {writes} {write_label}, {errs} errors",
        elapsed.as_secs_f64(),
        ms(p50),
        ms(p99),
    );

    let path = benchjson::default_path();
    let section = benchjson::JsonObj::new()
        .int("sessions", sessions as u64)
        .int("seconds", seconds as u64)
        .int("queries", latencies.len() as u64)
        .num("qps", qps)
        .num("p50_ms", p50.as_secs_f64() * 1e3)
        .num("p99_ms", p99.as_secs_f64() * 1e3)
        .str("writer_mode", &writer_mode)
        .int("reloads", writes)
        .int("errors", errs);
    if let Err(e) = benchjson::merge_section(&path, "soak", &section) {
        eprintln!("cannot write {}: {e}", path.display());
    } else {
        println!("wrote {} [soak]", path.display());
    }

    // Observability readback: what the server itself counted during the
    // soak, straight from the registry (not the scrape text).
    let observe = server.observe();
    let txn = server.txn_stats();
    let [admitted, rejected, panics, wal_appends] = [
        Counter::ConnectionsAdmitted,
        Counter::ConnectionsRejected,
        Counter::PanicsRecovered,
        Counter::WalAppends,
    ]
    .map(|c| observe.get(c));
    println!(
        "observe: txn_commits={} txn_conflicts={} admitted={admitted} rejected={rejected} \
         panics_recovered={panics} wal_appends={wal_appends}",
        txn.committed, txn.conflicts,
    );
    let observe_section = benchjson::JsonObj::new()
        .int("txn_commits", txn.committed)
        .int("txn_conflicts", txn.conflicts)
        .int("admission_admitted", admitted)
        .int("admission_rejected", rejected)
        .int("panics_recovered", panics)
        .int("wal_appends", wal_appends);
    if let Err(e) = benchjson::merge_section(&path, "soak_observe", &observe_section) {
        eprintln!("cannot write {}: {e}", path.display());
    } else {
        println!("wrote {} [soak_observe]", path.display());
    }

    if check {
        let mut failed = false;
        if errs > 0 {
            eprintln!("FAIL: {errs} session errors during soak");
            failed = true;
        }
        if latencies.is_empty() {
            eprintln!("FAIL: no queries completed");
            failed = true;
        }
        if writes == 0 {
            eprintln!("FAIL: writer published no {write_label} — generation churn untested");
            failed = true;
        }
        match (&scrape_mid, &scrape_end) {
            (Ok(mid), Ok(end)) => {
                for family in REQUIRED_FAMILIES {
                    if !end.contains(&format!("# TYPE {family} "))
                        && !end.contains(&format!("{family} "))
                        && !end.contains(&format!("{family}{{"))
                    {
                        eprintln!("FAIL: metric family {family} missing from /metrics");
                        failed = true;
                    }
                }
                let (mid_q, end_q) = (
                    family_sum(mid, "obda_queries_total"),
                    family_sum(end, "obda_queries_total"),
                );
                if mid_q <= 0.0 {
                    eprintln!("FAIL: mid-soak scrape shows no served queries");
                    failed = true;
                }
                if end_q < mid_q {
                    eprintln!("FAIL: obda_queries_total not monotone ({mid_q} -> {end_q})");
                    failed = true;
                }
                println!("scrape: obda_queries_total {mid_q} mid-soak -> {end_q} final");
            }
            (mid, end) => {
                if let Err(e) = mid {
                    eprintln!("FAIL: mid-soak metrics scrape: {e}");
                }
                if let Err(e) = end {
                    eprintln!("FAIL: final metrics scrape: {e}");
                }
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "CHECK PASSED: sustained load with {write_label} churn, zero errors, \
             metrics scraped live"
        );
    }
}
