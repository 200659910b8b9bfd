//! What every workload shares: the knowledge base, the query shapes, the
//! server settings, and a server hosted on an ephemeral port in-process.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use obda_core::Strategy;
use obda_dllite::ABox;
use obda_lubm::{generate, star_query, workload, GenConfig, UnivOntology};
use obda_query::CQ;
use obda_rdbms::pgwire::{PgConfig, PgListener, WireClient};
use obda_rdbms::{Backend, EngineProfile, LayoutKind, Server, ServerConfig};

/// Target fact count of the timed runs' ABox.
pub const FACTS: usize = 60_000;
/// Target fact count of the `verify` ABox, small enough for the
/// chase-based certain-answer oracle.
pub const VERIFY_FACTS: usize = 5_000;

/// The shapes whose cold compile takes under 200 ms. The warm and mixed
/// workloads rotate over these only: priming is part of `setup_s`, which
/// is measured several times per run, and one Q13 compile (7 s) would
/// span dozens of write generations.
pub const LIGHT: [&str; 9] = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q8", "Q11", "Q12", "A4"];

/// Where durable stores and traces go: inside the checkout, ignored by git.
pub const OUT_DIR: &str = "benchmark/out";

pub struct Shape {
    pub name: String,
    pub cq: CQ,
    /// The statement a wire client sends for `cq`.
    pub text: String,
}

/// Q1–Q13 and the four-atom star A4.
pub fn shapes(onto: &UnivOntology) -> Vec<Shape> {
    let mut named: Vec<(String, CQ)> = workload(onto).into_iter().map(|w| (w.name, w.cq)).collect();
    named.push(("A4".to_owned(), star_query(onto, 4)));
    named
        .into_iter()
        .map(|(name, cq)| Shape {
            text: crate::render::wire_text(&cq, &onto.voc),
            name,
            cq,
        })
        .collect()
}

pub fn light_shapes(onto: &UnivOntology) -> Vec<Shape> {
    let mut all = shapes(onto);
    all.retain(|s| LIGHT.contains(&s.name.as_str()));
    all
}

pub struct Kb {
    pub onto: UnivOntology,
    pub abox: ABox,
    pub facts: usize,
}

pub fn build_kb(seed: u64, target_facts: usize) -> Kb {
    let mut onto = UnivOntology::build();
    let config = GenConfig {
        seed,
        target_facts,
        ..GenConfig::default()
    };
    let (abox, report) = generate(&mut onto, &config);
    Kb {
        onto,
        abox,
        facts: report.facts,
    }
}

/// The settings every workload runs under. The flush policy (`fsync`
/// per commit group, checkpoint every 256 logged transactions) only
/// matters on a durable server.
pub fn server_config(cache_plans: bool) -> ServerConfig {
    ServerConfig {
        layout: LayoutKind::Simple,
        profile: EngineProfile::pg_like(),
        reform_strategy: Strategy::Gdl { time_budget: None },
        use_constraints: true,
        threads: 1,
        cache_plans,
        sync_commits: true,
        compact_every: 256,
        ..ServerConfig::default()
    }
}

pub fn new_server(kb: &Kb, cache_plans: bool) -> Server {
    Server::new(
        kb.onto.voc.clone(),
        kb.onto.tbox.clone(),
        &kb.abox,
        server_config(cache_plans),
    )
}

/// A fresh, empty directory under [`OUT_DIR`], removed again on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(label: &str) -> TempDir {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(OUT_DIR).join(format!("tmp-{}-{label}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create a directory under benchmark/out");
        TempDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn new_durable_server(kb: &Kb, dir: &Path) -> Server {
    Server::create_durable(
        dir,
        kb.onto.voc.clone(),
        kb.onto.tbox.clone(),
        &kb.abox,
        server_config(true),
    )
    .expect("create the durable store")
}

/// A server behind a wire listener on an ephemeral local port.
pub struct Host {
    pub server: Arc<Server>,
    listener: PgListener,
}

impl Host {
    pub fn start(server: Server) -> Host {
        let server = Arc::new(server);
        let listener = PgListener::bind("127.0.0.1:0", server.clone(), PgConfig::default())
            .expect("bind an ephemeral port");
        Host { server, listener }
    }

    pub fn addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    pub fn connect(&self, backend: Backend) -> WireClient {
        WireClient::connect(&self.addr(), &[("backend", backend.name())])
            .expect("connect a wire session")
    }

    /// Stop the listener, wait for its threads, and hand the server back.
    pub fn stop(mut self) -> Arc<Server> {
        self.listener.shutdown();
        self.server
    }
}

/// SplitMix64: the benchmark's own seeded generator, so shape order
/// depends on `--seed` and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
