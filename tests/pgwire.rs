//! End-to-end tests of the PostgreSQL wire-protocol front end: a raw
//! socket client against a real listener over a real LUBM server.
//!
//! The suite covers the PR's acceptance bars: startup + simple query
//! answering LUBM Q1 correctly under *both* execution backends; the
//! extended protocol; per-session isolation under a panicking session
//! and a malformed peer; admission control; reload visibility; and
//! graceful shutdown.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use obda::prelude::*;
use obda::rdbms::observe::Counter;
use obda::rdbms::pgwire::{ClientError, PgConfig, PgListener, WireClient};

/// Q1's wire-language rendering (the six-atom star; see
/// `obda_lubm::queries::q1`).
const Q1_WIRE: &str = "SELECT ?x WHERE teacherOf(?x, ?y1), takesCourse(?x, ?y2), \
     researchInterest(?x, ?y3), collaboratesWith(?x, ?y4), \
     authorOf(?x, ?y5), teachingAssistantOf(?x, ?y6)";

struct Fixture {
    server: Arc<Server>,
    listener: PgListener,
    abox: ABox,
    q1: CQ,
    /// Q1's expected answers as individual names, via the in-process API.
    q1_names: BTreeSet<String>,
}

fn fixture(config: PgConfig) -> Fixture {
    let mut onto = obda::lubm::UnivOntology::build();
    let (abox, _report) = generate(
        &mut onto,
        &GenConfig {
            target_facts: 800,
            ..Default::default()
        },
    );
    let q1 = workload(&onto)
        .into_iter()
        .find(|w| w.name == "Q1")
        .expect("workload has Q1")
        .cq;
    let server = Arc::new(Server::new(
        onto.voc.clone(),
        onto.tbox.clone(),
        &abox,
        ServerConfig {
            // The cheap deterministic strategy: these tests exercise the
            // wire layer, not the GDL search.
            reform_strategy: Strategy::CrootJucq,
            ..ServerConfig::default()
        },
    ));
    let outcome = server.query(&q1).expect("Q1 answers in-process");
    let snap = server.snapshot();
    let q1_names: BTreeSet<String> = outcome
        .outcome
        .rows
        .iter()
        .map(|row| {
            snap.vocabulary()
                .individual_name(IndividualId(row[0]))
                .to_string()
        })
        .collect();
    assert!(
        !q1_names.is_empty(),
        "fixture must generate at least one Q1 answer"
    );
    let listener =
        PgListener::bind("127.0.0.1:0", server.clone(), config).expect("bind ephemeral port");
    Fixture {
        server,
        listener,
        abox,
        q1,
        q1_names,
    }
}

fn names(rows: &[Vec<String>]) -> BTreeSet<String> {
    rows.iter().map(|r| r[0].clone()).collect()
}

#[test]
fn simple_query_answers_q1_under_both_backends() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();

    for backend in ["native", "sql"] {
        let mut client =
            WireClient::connect(&addr, &[("backend", backend)]).expect("startup completes");
        // The handshake announced the session's backend.
        assert!(
            client
                .parameters
                .iter()
                .any(|(k, v)| k == "backend" && v == backend),
            "ParameterStatus must announce backend={backend}"
        );
        let results = client.simple_query(Q1_WIRE).expect("Q1 over the wire");
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].columns, vec!["x"]);
        assert_eq!(
            names(&results[0].rows),
            fx.q1_names,
            "wire Q1 rows must match the in-process answers under {backend}"
        );
        assert_eq!(results[0].tag, format!("SELECT {}", results[0].rows.len()));
        client.terminate();
    }
    fx.listener.shutdown();
}

#[test]
fn extended_protocol_matches_simple_protocol() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();
    let mut client = WireClient::connect(&addr, &[]).expect("startup");

    let ext = client.extended_query(Q1_WIRE).expect("extended Q1");
    assert_eq!(ext.columns, vec!["x"]);
    assert_eq!(names(&ext.rows), fx.q1_names);

    // After an extended-protocol error (unknown statement), Sync
    // restores the session: the next query works.
    let err = client
        .extended_query("SELECT ?x WHERE Nope(?x)")
        .unwrap_err();
    match err {
        ClientError::Server { sqlstate, .. } => assert_eq!(sqlstate, "42601"),
        other => panic!("expected a server error, got {other}"),
    }
    let again = client
        .extended_query("SHOW backend")
        .expect("session recovered");
    assert_eq!(again.rows, vec![vec!["native".to_string()]]);
    client.terminate();
    fx.listener.shutdown();
}

#[test]
fn statements_ask_show_set_and_errors() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();
    let mut client = WireClient::connect(&addr, &[]).expect("startup");

    // Multi-statement buffer: SET is a no-op, SHOW answers, ASK is
    // boolean.
    let results = client
        .simple_query("SET search_path = lubm; SHOW generation; ASK WHERE Student(?x)")
        .expect("multi-statement buffer");
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].tag, "SET");
    assert_eq!(results[1].columns, vec!["generation"]);
    assert_eq!(results[2].columns, vec!["answer"]);
    assert_eq!(results[2].rows, vec![vec!["t".to_string()]]);

    // A syntax error mid-buffer: the completed statement's result is
    // discarded client-side, the error surfaces, the session survives.
    let err = client
        .simple_query("SHOW backend; FROB ?x; SHOW backend")
        .unwrap_err();
    match err {
        ClientError::Server { sqlstate, message } => {
            assert_eq!(sqlstate, "42601");
            assert!(message.contains("unknown statement"), "{message}");
        }
        other => panic!("expected server error, got {other}"),
    }
    let after = client
        .simple_query("SHOW backend")
        .expect("session survives errors");
    assert_eq!(after[0].rows, vec![vec!["native".to_string()]]);

    // Empty buffer → EmptyQueryResponse → zero results.
    assert!(client
        .simple_query("  ;; ")
        .expect("empty buffer")
        .is_empty());
    client.terminate();
    fx.listener.shutdown();
}

#[test]
fn panicking_session_leaves_others_answering() {
    let mut fx = fixture(PgConfig {
        allow_chaos: true,
        ..PgConfig::default()
    });
    let addr = fx.listener.local_addr();

    let mut victim = WireClient::connect(&addr, &[]).expect("victim startup");
    let mut bystander = WireClient::connect(&addr, &[]).expect("bystander startup");

    // Warm the bystander so it holds real session state.
    let before = bystander.simple_query(Q1_WIRE).expect("bystander warms up");
    assert_eq!(names(&before[0].rows), fx.q1_names);

    // The victim's statement panics server-side: it must get XX000 and
    // then lose the connection.
    match victim.simple_query("PANIC") {
        Err(ClientError::Server { sqlstate, message }) => {
            assert_eq!(sqlstate, "XX000");
            assert!(message.contains("panicked"), "{message}");
        }
        // The server may close before the client finishes draining.
        Err(ClientError::Closed) | Err(ClientError::Io(_)) => {}
        Ok(r) => panic!("PANIC statement answered normally: {r:?}"),
        Err(other) => panic!("unexpected client error: {other}"),
    }

    // The bystander and fresh connections still answer.
    let after = bystander
        .simple_query(Q1_WIRE)
        .expect("bystander unaffected");
    assert_eq!(names(&after[0].rows), fx.q1_names);
    let mut fresh = WireClient::connect(&addr, &[]).expect("fresh session after panic");
    let fresh_rows = fresh.simple_query(Q1_WIRE).expect("fresh session answers");
    assert_eq!(names(&fresh_rows[0].rows), fx.q1_names);

    bystander.terminate();
    fresh.terminate();
    fx.listener.shutdown();
}

#[test]
fn chaos_statement_is_refused_when_disabled() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();
    let mut client = WireClient::connect(&addr, &[]).expect("startup");
    match client.simple_query("PANIC") {
        Err(ClientError::Server { sqlstate, .. }) => assert_eq!(sqlstate, "0A000"),
        other => panic!("expected 0A000 refusal, got {other:?}"),
    }
    // Refusal is an ordinary error: the session lives on.
    assert!(client.simple_query("SHOW backend").is_ok());
    client.terminate();
    fx.listener.shutdown();
}

#[test]
fn malformed_peer_leaves_others_answering() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();

    let mut bystander = WireClient::connect(&addr, &[]).expect("bystander startup");

    // A connected-then-hostile peer: valid startup, then garbage frame
    // with an oversized declared length.
    let mut hostile = WireClient::connect(&addr, &[]).expect("hostile startup");
    hostile
        .send_raw(&[b'Q', 0x7f, 0xff, 0xff, 0xff])
        .expect("send oversized header");
    match hostile.read_message() {
        Ok((b'E', _)) => {}
        Ok((tag, _)) => panic!("expected ErrorResponse, got '{}'", tag.escape_ascii()),
        Err(_) => {} // already closed is acceptable
    }

    // And a peer that disconnects mid-message.
    let mut rude = WireClient::connect(&addr, &[]).expect("rude startup");
    rude.send_raw(&[b'Q', 0, 0, 1, 0, b'S'])
        .expect("partial frame");
    drop(rude);

    let rows = bystander
        .simple_query(Q1_WIRE)
        .expect("bystander unaffected");
    assert_eq!(names(&rows[0].rows), fx.q1_names);
    bystander.terminate();
    fx.listener.shutdown();
}

#[test]
fn admission_control_rejects_with_53300() {
    let mut fx = fixture(PgConfig {
        max_connections: 2,
        ..PgConfig::default()
    });
    let addr = fx.listener.local_addr();

    let a = WireClient::connect(&addr, &[]).expect("session 1");
    let b = WireClient::connect(&addr, &[]).expect("session 2");
    // The third must be told 53300 during its handshake.
    match WireClient::connect_timeout(&addr, Duration::from_secs(5), &[]) {
        Err(ClientError::Server { sqlstate, message }) => {
            assert_eq!(sqlstate, "53300");
            assert!(message.contains("too many connections"), "{message}");
        }
        Ok(_) => panic!("third session admitted past max_connections=2"),
        Err(other) => panic!("expected 53300, got {other}"),
    }
    // Freeing a slot readmits.
    a.terminate();
    let admitted = try_connect_until(&addr, Duration::from_secs(5));
    assert!(admitted, "slot freed by terminate must be reusable");
    b.terminate();
    fx.listener.shutdown();
}

/// Admission decrements when the session *thread* exits, which lags the
/// client-side terminate; poll briefly.
fn try_connect_until(addr: &std::net::SocketAddr, budget: Duration) -> bool {
    let deadline = std::time::Instant::now() + budget;
    while std::time::Instant::now() < deadline {
        if let Ok(c) = WireClient::connect(addr, &[]) {
            c.terminate();
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

#[test]
fn reload_is_visible_to_live_sessions() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();
    let mut client = WireClient::connect(&addr, &[]).expect("startup");

    let gen_before = show_one(&mut client, "SHOW generation");
    fx.server.reload_abox(&fx.abox).expect("reload commits");
    let gen_after = show_one(&mut client, "SHOW generation");
    assert!(
        gen_after.parse::<u64>().unwrap() > gen_before.parse::<u64>().unwrap(),
        "live session must observe the new generation ({gen_before} -> {gen_after})"
    );
    // And queries still answer on the new snapshot.
    let rows = client.simple_query(Q1_WIRE).expect("post-reload query");
    assert_eq!(names(&rows[0].rows), fx.q1_names);
    client.terminate();
    fx.listener.shutdown();
}

fn show_one(client: &mut WireClient, stmt: &str) -> String {
    client.simple_query(stmt).expect("SHOW answers")[0].rows[0][0].clone()
}

#[test]
fn graceful_shutdown_tells_idle_sessions_57p01() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();
    let mut client = WireClient::connect(&addr, &[]).expect("startup");
    assert!(client.simple_query("SHOW backend").is_ok());

    fx.listener.shutdown();

    // The idle session was told 57P01 (or simply closed, if the error
    // raced the close); either way the server is gone afterwards.
    match client.read_message() {
        Ok((b'E', body)) => {
            let text = String::from_utf8_lossy(&body).to_string();
            assert!(text.contains("57P01"), "expected 57P01 in {text:?}");
        }
        Ok((tag, _)) => panic!("unexpected message '{}' at shutdown", tag.escape_ascii()),
        Err(_) => {}
    }
    assert!(
        WireClient::connect(&addr, &[]).is_err(),
        "listener must not accept after shutdown"
    );
}

/// A misbehaving *server* declaring a negative, undersized, or oversized
/// frame length must surface a typed [`ClientError::Protocol`] — never an
/// underflow panic in the body-size subtraction or a giant allocation.
/// The client enforces the same 16MB cap as the server-side framing
/// (regression: it used to accept declared lengths up to 64MB).
#[test]
fn client_rejects_hostile_frame_lengths_from_server() {
    use std::io::{Read, Write};
    for evil_len in [-1i32, 3, 17 * 1024 * 1024] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hostile = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            // Drain the startup packet, then answer with a hostile header.
            let _ = sock.read(&mut [0u8; 1024]);
            let mut frame = vec![b'R'];
            frame.extend_from_slice(&evil_len.to_be_bytes());
            sock.write_all(&frame).unwrap();
            // Hold the socket open until the client reacts.
            let _ = sock.read(&mut [0u8; 16]);
        });
        let Err(err) = WireClient::connect(&addr, &[]) else {
            panic!("hostile header must fail (len {evil_len})")
        };
        match err {
            ClientError::Protocol(detail) => assert!(
                detail.contains(&evil_len.to_string()),
                "declared length should appear in: {detail}"
            ),
            other => panic!("expected a protocol error for len {evil_len}, got {other:?}"),
        }
        hostile.join().unwrap();
    }
}

// ---------------------------------------------------------------------------
// Wire transactions: BEGIN / INSERT / DELETE / COMMIT / ROLLBACK.
// ---------------------------------------------------------------------------

/// Pick a concept name and two individual names from the fixture for
/// fact statements.
fn sample_names(fx: &Fixture) -> (String, String, String) {
    let snap = fx.server.snapshot();
    let voc = snap.vocabulary();
    let concept = voc.concept_name(obda::dllite::ConceptId(0)).to_string();
    let a = voc.individual_name(IndividualId(0)).to_string();
    let b = voc.individual_name(IndividualId(1)).to_string();
    (concept, a, b)
}

fn expect_sqlstate(result: Result<Vec<obda::rdbms::pgwire::QueryResult>, ClientError>, want: &str) {
    match result {
        Err(ClientError::Server { sqlstate, message }) => {
            assert_eq!(sqlstate, want, "wrong SQLSTATE: {message}")
        }
        Ok(r) => panic!("expected SQLSTATE {want}, got success: {r:?}"),
        Err(other) => panic!("expected SQLSTATE {want}, got {other:?}"),
    }
}

#[test]
fn wire_transaction_commit_publishes_and_isolation_holds() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();
    let (concept, _, _) = sample_names(&fx);

    let mut writer = WireClient::connect(&addr, &[]).expect("writer connects");
    let mut reader = WireClient::connect(&addr, &[]).expect("reader connects");

    let r = writer.simple_query("BEGIN").expect("BEGIN");
    assert_eq!(r[0].tag, "BEGIN");
    // Insert a fact about a brand-new individual.
    let r = writer
        .simple_query(&format!("INSERT {concept}(wire_newcomer)"))
        .expect("in-txn INSERT");
    assert_eq!(r[0].tag, "INSERT 0 1");

    // Read-your-own-writes: the writer's SELECT sees the buffered fact,
    // rendered under the provisional name.
    let r = writer
        .simple_query(&format!("SELECT ?x WHERE {concept}(?x)"))
        .expect("in-txn SELECT");
    assert!(
        names(&r[0].rows).contains("wire_newcomer"),
        "writer must see its own uncommitted insert"
    );

    // Snapshot isolation: the reader must not see it before commit —
    // the name does not even resolve.
    let err = reader.simple_query(&format!("SELECT ?x WHERE {concept}(wire_newcomer)"));
    expect_sqlstate(err, "42601");

    let r = writer.simple_query("COMMIT").expect("COMMIT");
    assert_eq!(r[0].tag, "COMMIT");

    // After commit the fact is globally visible.
    let r = reader
        .simple_query(&format!("ASK WHERE {concept}(wire_newcomer)"))
        .expect("post-commit ASK");
    assert_eq!(r[0].rows, vec![vec!["t".to_string()]]);

    writer.terminate();
    reader.terminate();
    fx.listener.shutdown();
}

/// A transaction block pays for an overlay snapshot only when it reads
/// data: `BEGIN; INSERT; COMMIT` builds none (names resolve through the
/// transaction, and `COMMIT` is a keyword), `BEGIN; INSERT; SELECT`
/// builds exactly one, sees its own write, and accepts the individual
/// it just introduced as a query constant.
#[test]
fn only_in_transaction_reads_build_an_overlay() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();
    let (concept, known, _) = sample_names(&fx);
    let overlays = || fx.server.observe().get(Counter::TxnOverlays);
    let mut client = WireClient::connect(&addr, &[]).expect("startup");

    client
        .simple_query(&format!(
            "BEGIN; INSERT {concept}(ov_first), {concept}({known}); SET x = y; \
             DELETE {concept}(ov_first); SHOW transaction; COMMIT"
        ))
        .expect("a write-only block");
    assert_eq!(overlays(), 0, "no statement of the block read data");

    client
        .simple_query(&format!("BEGIN; INSERT {concept}(ov_second)"))
        .expect("dirty transaction");
    assert_eq!(overlays(), 0);
    let r = client
        .simple_query(&format!("SELECT ?x WHERE {concept}(?x)"))
        .expect("in-transaction SELECT");
    assert!(names(&r[0].rows).contains("ov_second"), "own write visible");
    assert_eq!(overlays(), 1);
    // The new name parses as a constant, and the unchanged working set
    // reuses the overlay it already built.
    let r = client
        .simple_query(&format!("ASK WHERE {concept}(ov_second)"))
        .expect("own new name as a constant");
    assert_eq!(r[0].rows, vec![vec!["t".to_string()]]);
    assert_eq!(overlays(), 1);
    client.simple_query("COMMIT").expect("COMMIT");
    assert_eq!(overlays(), 1, "COMMIT of a dirty transaction builds none");

    let m = metrics_map(&mut client);
    assert_eq!(m["txn_overlays"], "1");
    client.terminate();
    fx.listener.shutdown();
}

#[test]
fn wire_rollback_discards_buffered_writes() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();
    let (concept, a, _) = sample_names(&fx);

    let mut client = WireClient::connect(&addr, &[]).expect("connect");
    let before = show_one(&mut client, "SHOW generation");

    client.simple_query("BEGIN").expect("BEGIN");
    let r = client
        .simple_query(&format!("INSERT {concept}({a}); DELETE {concept}({a})"))
        .expect("buffered writes");
    assert_eq!(r[0].tag, "INSERT 0 1");
    assert_eq!(r[1].tag, "DELETE 1");
    let r = client.simple_query("ROLLBACK").expect("ROLLBACK");
    assert_eq!(r[0].tag, "ROLLBACK");

    // Nothing was published: the generation did not move.
    assert_eq!(show_one(&mut client, "SHOW generation"), before);
    client.terminate();
    fx.listener.shutdown();
}

#[test]
fn commit_outside_transaction_is_a_typed_error() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();
    let mut client = WireClient::connect(&addr, &[]).expect("connect");

    expect_sqlstate(client.simple_query("COMMIT"), "25P01");
    expect_sqlstate(client.simple_query("ROLLBACK"), "25P01");
    // The connection survives and keeps answering.
    let r = client.simple_query("SHOW backend").expect("still alive");
    assert_eq!(r[0].rows.len(), 1);
    client.terminate();
    fx.listener.shutdown();
}

#[test]
fn show_transaction_reports_session_state() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();
    let (concept, _, _) = sample_names(&fx);
    let mut client = WireClient::connect(&addr, &[]).expect("connect");

    let r = client.simple_query("SHOW transaction").expect("idle SHOW");
    assert_eq!(
        r[0].columns,
        vec![
            "transaction_status",
            "pending_ops",
            "new_names",
            "pinned_generation"
        ]
    );
    assert_eq!(r[0].rows[0][0], "idle");

    client.simple_query("BEGIN").expect("BEGIN");
    client
        .simple_query(&format!("INSERT {concept}(show_txn_newcomer)"))
        .expect("INSERT");
    let r = client.simple_query("SHOW transaction").expect("open SHOW");
    assert_eq!(r[0].rows[0][0], "open");
    assert_eq!(r[0].rows[0][1], "1", "one buffered fact write");
    assert_eq!(r[0].rows[0][2], "1", "one transaction-local name");
    assert_eq!(
        r[0].rows[0][3],
        fx.server.snapshot().generation().to_string(),
        "pinned at the begin generation"
    );
    client.simple_query("ROLLBACK").expect("ROLLBACK");
    client.terminate();
    fx.listener.shutdown();
}

#[test]
fn error_inside_transaction_aborts_it_until_rollback() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();
    let (concept, a, _) = sample_names(&fx);
    let mut client = WireClient::connect(&addr, &[]).expect("connect");

    client.simple_query("BEGIN").expect("BEGIN");
    client
        .simple_query(&format!("INSERT {concept}(aborted_newcomer)"))
        .expect("INSERT");
    // A syntax error aborts the transaction...
    expect_sqlstate(client.simple_query("SELECT garbage"), "42601");
    // ...after which ordinary statements are refused with 25P02...
    expect_sqlstate(
        client.simple_query(&format!("ASK WHERE {concept}({a})")),
        "25P02",
    );
    let r = client.simple_query("SHOW transaction");
    expect_sqlstate(r, "25P02");
    // ...and COMMIT rolls back, reporting what really happened.
    let r = client
        .simple_query("COMMIT")
        .expect("COMMIT of aborted txn");
    assert_eq!(r[0].tag, "ROLLBACK");

    // The buffered insert never published.
    expect_sqlstate(
        client.simple_query(&format!("ASK WHERE {concept}(aborted_newcomer)")),
        "42601",
    );
    client.terminate();
    fx.listener.shutdown();
}

#[test]
fn conflicting_wire_commits_get_serialization_failure() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();
    let (concept, a, _) = sample_names(&fx);

    let mut first = WireClient::connect(&addr, &[]).expect("first connects");
    let mut second = WireClient::connect(&addr, &[]).expect("second connects");

    first.simple_query("BEGIN").expect("first BEGIN");
    second.simple_query("BEGIN").expect("second BEGIN");
    first
        .simple_query(&format!("INSERT {concept}({a})"))
        .expect("first write");
    second
        .simple_query(&format!("DELETE {concept}({a})"))
        .expect("second write");

    let r = first.simple_query("COMMIT").expect("first commit wins");
    assert_eq!(r[0].tag, "COMMIT");
    // First-committer-wins: the overlapping key aborts the second.
    expect_sqlstate(second.simple_query("COMMIT"), "40001");

    // The loser's session is back to idle and can retry.
    let r = second.simple_query("SHOW transaction").expect("idle again");
    assert_eq!(r[0].rows[0][0], "idle");
    first.terminate();
    second.terminate();
    fx.listener.shutdown();
}

#[test]
fn autocommit_mutations_publish_immediately() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();
    let (concept, _, _) = sample_names(&fx);
    let mut client = WireClient::connect(&addr, &[]).expect("connect");

    let before: u64 = show_one(&mut client, "SHOW generation").parse().unwrap();
    let r = client
        .simple_query(&format!("INSERT {concept}(autocommit_newcomer)"))
        .expect("autocommit INSERT");
    assert_eq!(r[0].tag, "INSERT 0 1");
    let after: u64 = show_one(&mut client, "SHOW generation").parse().unwrap();
    assert_eq!(after, before + 1, "autocommit publishes one generation");
    let r = client
        .simple_query(&format!("ASK WHERE {concept}(autocommit_newcomer)"))
        .expect("ASK");
    assert_eq!(r[0].rows, vec![vec!["t".to_string()]]);

    // DELETE of a fact about an unknown individual is a no-op, not an
    // error, and reports zero applied facts.
    let r = client
        .simple_query(&format!("DELETE {concept}(never_existed)"))
        .expect("no-op DELETE");
    assert_eq!(r[0].tag, "DELETE 0");
    client.terminate();
    fx.listener.shutdown();
}

// ---------------------------------------------------------------------------
// Observability: SHOW metrics / SHOW slow_queries / EXPLAIN ANALYZE.
// ---------------------------------------------------------------------------

/// Collect a `SHOW metrics` result into a name → value map.
fn metrics_map(client: &mut WireClient) -> std::collections::BTreeMap<String, String> {
    let r = client.simple_query("SHOW metrics").expect("SHOW metrics");
    assert_eq!(r[0].columns, vec!["metric", "value"]);
    r[0].rows
        .iter()
        .map(|row| (row[0].clone(), row[1].clone()))
        .collect()
}

#[test]
fn show_metrics_reports_served_counters() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();

    // Serve Q1 under both backends so both per-backend counters move.
    for backend in ["native", "sql"] {
        let mut client = WireClient::connect(&addr, &[("backend", backend)]).expect("startup");
        client.simple_query(Q1_WIRE).expect("Q1 answers");
        client.terminate();
    }

    let mut client = WireClient::connect(&addr, &[]).expect("startup");
    let m = metrics_map(&mut client);
    // The fixture itself ran Q1 once in-process, so native >= 2.
    let native: u64 = m["queries_total.native"].parse().unwrap();
    let sql: u64 = m["queries_total.sql"].parse().unwrap();
    assert!(native >= 2, "native counter: {native}");
    assert!(sql >= 1, "sql counter: {sql}");
    assert!(m["query_rows_total"].parse::<u64>().unwrap() >= 1);
    assert!(m["plan_cache_misses"].parse::<u64>().unwrap() >= 1);
    // The native compile ran PerfectRef; the SQL session's compile of
    // the same shape took every fragment from the TBox scope's memo.
    let computed: u64 = m["fragment_memo_misses"].parse().unwrap();
    assert!(computed >= 1, "fragment_memo_misses: {computed}");
    assert!(m["fragment_memo_hits"].parse::<u64>().unwrap() >= computed);
    assert_eq!(m["fragment_memo_entries"], computed.to_string());
    // Those PerfectRef runs built candidates; some repeated exactly.
    let candidates: u64 = m["perfectref_candidates"].parse().unwrap();
    let canonicalised: u64 = m["perfectref_canonicalised"].parse().unwrap();
    assert!(
        candidates >= 1 && canonicalised <= candidates,
        "{candidates} / {canonicalised}"
    );
    // Constraints were mined once, for the one generation served.
    assert_eq!(m["constraint_mining_runs"], "1");
    assert!(m.contains_key("constraint_mining_p50_us"));
    // Latency histograms saw every served query.
    assert!(m.contains_key("query_latency_p50_us.native"));
    assert!(m.contains_key("query_latency_p99_us.sql"));
    // Connection admission counted this suite's sessions.
    assert!(m["connections_admitted"].parse::<u64>().unwrap() >= 3);
    assert_eq!(
        m["generation"],
        fx.server.snapshot().generation().to_string()
    );
    // Cost-model accuracy counters moved on the native path.
    assert!(m["cost_predicted_units"].parse::<f64>().unwrap() > 0.0);
    assert!(m["cost_measured_units"].parse::<f64>().unwrap() > 0.0);

    // SHOW statements themselves are not queries: a second SHOW must
    // not move the query counters.
    let m2 = metrics_map(&mut client);
    assert_eq!(m2["queries_total.native"], m["queries_total.native"]);
    client.terminate();
    fx.listener.shutdown();
}

#[test]
fn show_slow_queries_ranks_statements_by_latency() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();
    let mut client = WireClient::connect(&addr, &[]).expect("startup");

    for _ in 0..3 {
        client.simple_query(Q1_WIRE).expect("Q1 answers");
    }
    let r = client
        .simple_query("SHOW slow_queries")
        .expect("SHOW slow_queries");
    assert_eq!(
        r[0].columns,
        vec![
            "trace_id",
            "total_us",
            "parse_us",
            "reformulate_us",
            "plan_us",
            "sqlgen_us",
            "execute_us",
            "serialize_us",
            "backend",
            "cache_hit",
            "generation",
            "rows",
            "query"
        ]
    );
    assert!(
        r[0].rows.len() >= 3,
        "the ring must hold the statements just served, got {}",
        r[0].rows.len()
    );
    // Slowest-first ordering, nonzero totals, query text captured.
    let totals: Vec<u64> = r[0]
        .rows
        .iter()
        .map(|row| row[1].parse().expect("total_us is numeric"))
        .collect();
    assert!(
        totals.windows(2).all(|w| w[0] >= w[1]),
        "slow queries must be sorted slowest-first: {totals:?}"
    );
    assert!(totals[0] > 0, "a served statement takes measurable time");
    for row in &r[0].rows {
        assert!(
            row[12].contains("SELECT"),
            "query text captured: {:?}",
            row[12]
        );
        assert!(
            matches!(row[9].as_str(), "t" | "f"),
            "cache_hit renders as t/f"
        );
    }
    client.terminate();
    fx.listener.shutdown();
}

#[test]
fn explain_analyze_prices_and_measures_under_both_backends() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();

    for backend in ["native", "sql"] {
        let mut client = WireClient::connect(&addr, &[("backend", backend)]).expect("startup");
        let stmt = format!("EXPLAIN ANALYZE {Q1_WIRE}");
        let r = client.simple_query(&stmt).expect("EXPLAIN ANALYZE answers");
        assert_eq!(r[0].columns, vec!["QUERY PLAN"]);
        assert!(r[0].tag.starts_with("EXPLAIN"), "tag: {}", r[0].tag);
        let plan = r[0]
            .rows
            .iter()
            .map(|row| row[0].clone())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(plan.contains(&format!("backend={backend}")), "{plan}");
        assert!(plan.contains("predicted: total_cost="), "{plan}");
        assert!(plan.contains("measured: work_units="), "{plan}");

        // The second run replays the *cached* compilation — the plan a
        // plain query would run — and says so.
        let r = client.simple_query(&stmt).expect("cached EXPLAIN ANALYZE");
        let plan = r[0]
            .rows
            .iter()
            .map(|row| row[0].clone())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(plan.contains("cache_hit=true"), "{plan}");
        client.terminate();
    }
    fx.listener.shutdown();
}

/// The plan lines of an `EXPLAIN ANALYZE` result: arm labels and
/// priced steps, without the measured (timed) lines.
fn priced_steps(result: &obda::rdbms::pgwire::QueryResult) -> Vec<String> {
    result
        .rows
        .iter()
        .map(|row| row[0].clone())
        .filter(|l| l.ends_with(':') || l.starts_with("  [slot") || l.starts_with("  predicted"))
        .collect()
}

/// Under `backend=sql` what is observable is the statement that ran —
/// the SQL text read back — not the reformulation it was printed from:
/// `EXPLAIN ANALYZE` prices the lowered statement's plan, its estimates
/// feed the cost-accuracy counters, and the per-execution parse + lower
/// + plan shows as `plan_us`, not as execution.
#[test]
fn sql_backend_observability_reports_the_lowered_statement() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();

    // In process: the analysis explains exactly what the outcome says ran.
    let snap = fx.server.snapshot();
    let analyzed = fx
        .server
        .explain_analyze(&snap, &fx.q1, obda::rdbms::Backend::Sql)
        .expect("EXPLAIN ANALYZE under the SQL backend");
    let lowered = analyzed
        .outcome
        .lowered
        .as_ref()
        .expect("the SQL path reports the lowered statement");
    assert_eq!(
        analyzed.explain.to_string(),
        snap.engine().explain_plan(&lowered.fol).to_string()
    );
    let planned: f64 = lowered.plans.plans.iter().map(|p| p.est_cost()).sum();
    let explained: f64 = analyzed
        .explain
        .arms
        .iter()
        .map(|a| a.plan.est_cost())
        .sum();
    assert!(planned > 0.0 && (planned - explained).abs() <= 1e-9 * planned);
    assert!(analyzed.spans.plan >= lowered.took);
    assert_eq!(
        analyzed.spans.execute,
        analyzed.outcome.metrics.wall - lowered.took
    );

    // Over the wire: lowering inverts generation, so the SQL session's
    // priced steps are the native session's, arm for arm.
    let stmt = format!("EXPLAIN ANALYZE {Q1_WIRE}");
    let mut native = WireClient::connect(&addr, &[("backend", "native")]).expect("startup");
    let mut sql = WireClient::connect(&addr, &[("backend", "sql")]).expect("startup");
    let before: f64 = metrics_map(&mut native)["cost_predicted_units"]
        .parse()
        .unwrap();
    let native_plan = priced_steps(&native.simple_query(&stmt).expect("native EXPLAIN")[0]);
    let between: f64 = metrics_map(&mut native)["cost_predicted_units"]
        .parse()
        .unwrap();
    let sql_plan = priced_steps(&sql.simple_query(&stmt).expect("sql EXPLAIN")[0]);
    let after: f64 = metrics_map(&mut native)["cost_predicted_units"]
        .parse()
        .unwrap();
    assert!(native_plan.iter().any(|l| l.starts_with("  [slot")));
    assert_eq!(sql_plan, native_plan);
    // Both executions fed the accuracy counters the same estimate.
    assert!(between > before);
    assert!((after - between - (between - before)).abs() <= 1e-6 * after);

    // A warm SQL statement still pays its text round trip, and says so
    // under plan_us; a warm native statement plans nothing.
    for client in [&mut native, &mut sql] {
        client.simple_query(Q1_WIRE).expect("warm Q1");
    }
    let slow = native
        .simple_query("SHOW slow_queries")
        .expect("SHOW slow_queries");
    let warm = |backend: &str| -> Vec<u64> {
        slow[0]
            .rows
            .iter()
            .filter(|r| r[8] == backend && r[9] == "t" && !r[12].contains("EXPLAIN"))
            .map(|r| r[4].parse().expect("plan_us is numeric"))
            .collect()
    };
    assert!(!warm("sql").is_empty() && warm("sql").iter().all(|&us| us > 0));
    assert!(!warm("native").is_empty() && warm("native").iter().all(|&us| us == 0));

    native.terminate();
    sql.terminate();
    fx.listener.shutdown();
}

#[test]
fn explain_analyze_handles_ask_and_refuses_transactions() {
    let mut fx = fixture(PgConfig::default());
    let addr = fx.listener.local_addr();
    let mut client = WireClient::connect(&addr, &[]).expect("startup");

    // ASK bodies price and measure like SELECT.
    let r = client
        .simple_query("EXPLAIN ANALYZE ASK WHERE Student(?x)")
        .expect("EXPLAIN ANALYZE ASK");
    assert_eq!(r[0].columns, vec!["QUERY PLAN"]);

    // Inside a transaction block the overlay engine would poison the
    // shared plan cache: refused with a typed feature error.
    client.simple_query("BEGIN").expect("BEGIN");
    expect_sqlstate(
        client.simple_query(&format!("EXPLAIN ANALYZE {Q1_WIRE}")),
        "0A000",
    );
    client.simple_query("ROLLBACK").expect("ROLLBACK");
    // Back out of the block it answers again.
    assert!(client
        .simple_query(&format!("EXPLAIN ANALYZE {Q1_WIRE}"))
        .is_ok());
    client.terminate();
    fx.listener.shutdown();
}

/// The acceptance sweep: EXPLAIN ANALYZE answers on every layout × both
/// backends, always reporting a priced plan and measured work.
#[test]
fn explain_analyze_covers_all_layouts_and_backends() {
    let mut onto = obda::lubm::UnivOntology::build();
    let (abox, _) = generate(
        &mut onto,
        &GenConfig {
            target_facts: 400,
            ..Default::default()
        },
    );
    for layout in [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph] {
        let server = Arc::new(Server::new(
            onto.voc.clone(),
            onto.tbox.clone(),
            &abox,
            ServerConfig {
                layout,
                reform_strategy: Strategy::CrootJucq,
                ..ServerConfig::default()
            },
        ));
        let mut listener = PgListener::bind("127.0.0.1:0", server, PgConfig::default())
            .expect("bind ephemeral port");
        let addr = listener.local_addr();
        for backend in ["native", "sql"] {
            let mut client = WireClient::connect(&addr, &[("backend", backend)]).expect("startup");
            let r = client
                .simple_query("EXPLAIN ANALYZE SELECT ?x WHERE Student(?x), takesCourse(?x, ?y)")
                .unwrap_or_else(|e| panic!("EXPLAIN ANALYZE on {layout:?}/{backend}: {e}"));
            let plan = r[0]
                .rows
                .iter()
                .map(|row| row[0].clone())
                .collect::<Vec<_>>()
                .join("\n");
            assert!(
                plan.contains("predicted: total_cost=") && plan.contains("measured: work_units="),
                "{layout:?}/{backend}: {plan}"
            );
            // The native session compiles first and runs PerfectRef; the
            // SQL session's compile of the same shape finds every
            // fragment in the TBox scope's memo. Both drop `Student(?x)`,
            // which `∃takesCourse ⊑ Student` implies.
            let fragments = plan
                .lines()
                .find(|l| l.starts_with("fragments: "))
                .unwrap_or_else(|| panic!("{layout:?}/{backend}: no fragments line:\n{plan}"));
            assert!(fragments.ends_with(" eliminated=1"), "{fragments}");
            if backend == "native" {
                assert!(fragments.starts_with("fragments: 0 memoised / "));
                assert!(!fragments.contains("/ 0 computed"), "{fragments}");
            } else {
                assert!(fragments.contains("memoised / 0 computed"), "{fragments}");
                assert!(!fragments.starts_with("fragments: 0 "), "{fragments}");
            }
            client.terminate();
        }
        listener.shutdown();
    }
}

// ---------------------------------------------------------------------------
// The metric surface: SHOW metrics and /metrics render one catalogue.
// ---------------------------------------------------------------------------

/// A durable server that has served a scripted workload touching every
/// counter family: reads on both backends, a constrained cold compile
/// that prunes a union arm (`Worker ⊑ Person` with no worker but a
/// builder below it; `Apprentice`, with nothing below it either, is
/// dead and never built), an autocommit `INSERT`, a
/// `BEGIN`/`INSERT`/`COMMIT` block and a checkpoint. Returns the server, its listener, a `/metrics` endpoint
/// and the store directory (removed by the caller).
fn scripted_metrics_server(
    tag: &str,
) -> (
    Arc<Server>,
    PgListener,
    obda::rdbms::MetricsEndpoint,
    std::path::PathBuf,
) {
    let dir = std::env::temp_dir().join(format!("obda-pgwire-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let kb = KnowledgeBase::parse(
        "Apprentice <= Builder\nBuilder <= Worker\nWorker <= Person\nBuilder(b0)\nPerson(p0)",
    )
    .unwrap();
    let server = Arc::new(
        Server::create_durable(
            &dir,
            kb.voc().clone(),
            kb.tbox().clone(),
            kb.abox(),
            ServerConfig {
                reform_strategy: Strategy::Ucq,
                sync_commits: true,
                ..ServerConfig::default()
            },
        )
        .expect("durable server"),
    );
    let listener =
        PgListener::bind("127.0.0.1:0", server.clone(), PgConfig::default()).expect("bind");
    let endpoint =
        obda::rdbms::MetricsEndpoint::bind("127.0.0.1:0", server.clone()).expect("bind /metrics");
    let addr = listener.local_addr();
    for backend in ["native", "sql"] {
        let mut client = WireClient::connect(&addr, &[("backend", backend)]).expect("startup");
        for _ in 0..2 {
            let r = client
                .simple_query("SELECT ?x WHERE Person(?x)")
                .expect("read");
            assert_eq!(r[0].rows.len(), 2, "{backend}");
        }
        client.terminate();
    }
    let mut client = WireClient::connect(&addr, &[]).expect("startup");
    client
        .simple_query("INSERT Person(p1)")
        .expect("autocommit INSERT");
    client
        .simple_query("BEGIN; INSERT Builder(b1); COMMIT")
        .expect("transaction block");
    client
        .simple_query("SELECT ?x WHERE Person(?x)")
        .expect("read after the writes");
    client.terminate();
    server.checkpoint().expect("checkpoint");
    (server, listener, endpoint, dir)
}

/// One `GET /metrics` body.
fn scrape_metrics(addr: std::net::SocketAddr) -> String {
    use std::io::{Read as _, Write as _};
    let mut s = std::net::TcpStream::connect(addr).expect("connect /metrics");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    s.read_to_string(&mut response).expect("scrape");
    let (head, body) = response.split_once("\r\n\r\n").expect("HTTP response");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    body.to_string()
}

/// `SHOW metrics` rows, in order.
fn show_metrics_rows(addr: &std::net::SocketAddr) -> Vec<(String, String)> {
    let mut client = WireClient::connect(addr, &[]).expect("startup");
    let r = client.simple_query("SHOW metrics").expect("SHOW metrics");
    client.terminate();
    r[0].rows
        .iter()
        .map(|row| (row[0].clone(), row[1].clone()))
        .collect()
}

/// The `SHOW metrics` row a Prometheus counter sample is the twin of,
/// and whether the pair is µs (`SHOW`) against seconds (`/metrics`).
/// The regular rule drops `obda_` and `_total`, turns `_seconds` into
/// `_us` and a label value into a `.value` suffix; six families keep
/// older `SHOW` names.
fn show_twin(family: &str, label: Option<&str>) -> (String, bool) {
    let base = family.trim_start_matches("obda_");
    let base = base.strip_suffix("_total").unwrap_or(base);
    let (base, seconds) = match base.strip_suffix("_seconds") {
        Some(b) => (b, true),
        None => (base, false),
    };
    let name = match base {
        "queries" | "query_errors" | "query_rows" => format!("{base}_total"),
        "commit_stage" => "commit_us".into(),
        "commit" => "commit_us.total".into(),
        "checkpoint" => "checkpoint_micros".into(),
        b if seconds => format!("{b}_us"),
        b => b.into(),
    };
    match label {
        Some(v) => (format!("{name}.{v}"), seconds),
        None => (name, seconds),
    }
}

/// Every Prometheus counter sample has a `SHOW metrics` row with the
/// same value (µs against seconds for time totals, one decimal for the
/// cost units): the two renderings are one registry, not two lists.
#[test]
fn show_metrics_is_the_twin_of_every_prometheus_counter() {
    let (_server, mut listener, mut endpoint, dir) = scripted_metrics_server("parity");
    // SHOW first: its own connection is admitted before it reads.
    let show: std::collections::BTreeMap<String, String> =
        show_metrics_rows(&listener.local_addr())
            .into_iter()
            .collect();
    let prom = scrape_metrics(endpoint.local_addr());

    let counters: BTreeSet<&str> = prom
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.strip_suffix(" counter"))
        .collect();
    let mut checked = 0;
    for line in prom.lines().filter(|l| !l.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').unwrap();
        let (family, label) = match series.split_once('{') {
            Some((f, labels)) => {
                // The first label names the sample (`layout` rides along).
                let first = labels.trim_end_matches('}').split(',').next().unwrap();
                (f, Some(first.split_once('=').unwrap().1.trim_matches('"')))
            }
            None => (series, None),
        };
        if !counters.contains(family) {
            continue;
        }
        let (twin, seconds) = show_twin(family, label);
        let shown = show
            .get(&twin)
            .unwrap_or_else(|| panic!("{series} has no SHOW metrics twin {twin}"));
        let value: f64 = value.parse().unwrap();
        let shown: f64 = shown.parse().unwrap();
        if seconds {
            assert_eq!(value, shown / 1e6, "{series} vs {twin}");
        } else if family.starts_with("obda_cost_") {
            assert!((value - shown).abs() <= 0.05 + 1e-9, "{series} vs {twin}");
        } else {
            assert_eq!(value, shown, "{series} vs {twin}");
        }
        checked += 1;
    }
    // The workload moved the families the parity is about.
    for moved in [
        "queries_total.sql",
        "pruned_arms.empty",
        "stage_us.execute",
        "txn_commits",
        "wal_fsyncs",
        "checkpoints",
    ] {
        let v: f64 = show[moved].parse().unwrap();
        assert!(v > 0.0, "{moved} = {v}");
    }
    assert!(checked >= 40, "only {checked} counter samples");
    endpoint.shutdown();
    listener.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sum of every sample of `family` (all label sets) in an exposition
/// body.
fn family_sum(body: &str, family: &str) -> f64 {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            (series.split('{').next() == Some(family)).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

/// `/metrics` is scraped live while 4 reader sessions (alternating
/// backends) run a fixed statement mix and one session commits
/// `BEGIN`/`INSERT`/`COMMIT` blocks: once at a barrier halfway through
/// and once after the load stops. No session errs, the mid-run scrape
/// already counts the first halves, and the final `obda_queries_total`
/// equals every query the server served.
#[test]
fn live_metrics_scrape_counts_every_statement_under_wire_load() {
    const READERS: usize = 4;
    const STATEMENTS_PER_HALF: usize = 20;
    const COMMITS_PER_HALF: usize = 5;
    const STATEMENTS: [&str; 4] = [
        "SELECT ?x WHERE GraduateStudent(?x)",
        "SELECT ?x, ?y WHERE Professor(?x), advisor(?y, ?x)",
        "ASK WHERE Student(?x)",
        "SELECT ?x WHERE Student(?x), takesCourse(?x, ?y)",
    ];
    let mut fx = fixture(PgConfig::default());
    let mut endpoint =
        obda::rdbms::MetricsEndpoint::bind("127.0.0.1:0", fx.server.clone()).expect("bind");
    let addr = fx.listener.local_addr();
    let queries = |server: &Server| {
        (0..2)
            .map(|i| server.observe().get(Counter::Queries.at(i)))
            .sum::<u64>()
    };
    let before = queries(&fx.server);

    let barrier = std::sync::Barrier::new(READERS + 2);
    let run = |client: &mut WireClient, stmt: &str, errors: &mut Vec<String>| {
        if let Err(e) = client.simple_query(stmt) {
            errors.push(format!("{stmt:?}: {e}"));
        }
    };
    let (mid, errors) = std::thread::scope(|s| {
        let mut sessions = Vec::new();
        for r in 0..READERS {
            let (barrier, run) = (&barrier, &run);
            let backend = if r % 2 == 0 { "native" } else { "sql" };
            sessions.push(s.spawn(move || {
                let mut errors = Vec::new();
                let mut client = WireClient::connect(&addr, &[("backend", backend)]).unwrap();
                for half in 0..2 {
                    for k in 0..STATEMENTS_PER_HALF {
                        let stmt = STATEMENTS[(r + k) % STATEMENTS.len()];
                        run(&mut client, stmt, &mut errors);
                    }
                    if half == 0 {
                        barrier.wait();
                    }
                }
                client.terminate();
                errors
            }));
        }
        let (barrier, run) = (&barrier, &run);
        sessions.push(s.spawn(move || {
            let mut errors = Vec::new();
            let mut client = WireClient::connect(&addr, &[]).unwrap();
            for half in 0..2 {
                for k in 0..COMMITS_PER_HALF {
                    let n = half * COMMITS_PER_HALF + k;
                    run(&mut client, "BEGIN", &mut errors);
                    let insert = format!("INSERT GraduateStudent(load_{n}), Student(load_{n})");
                    run(&mut client, &insert, &mut errors);
                    run(&mut client, "COMMIT", &mut errors);
                }
                if half == 0 {
                    barrier.wait();
                }
            }
            client.terminate();
            errors
        }));
        barrier.wait();
        let mid = family_sum(&scrape_metrics(endpoint.local_addr()), "obda_queries_total");
        let errors: Vec<String> = sessions
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        (mid, errors)
    });
    let end = family_sum(&scrape_metrics(endpoint.local_addr()), "obda_queries_total");
    endpoint.shutdown();
    fx.listener.shutdown();

    assert!(errors.is_empty(), "session errors: {errors:?}");
    let served = (2 * READERS * STATEMENTS_PER_HALF) as f64;
    assert!(mid > 0.0, "the mid-run scrape shows no served queries");
    assert!(
        mid >= before as f64 + served / 2.0,
        "the mid-run scrape ({mid}) misses the first halves"
    );
    assert!(end >= mid, "obda_queries_total went back: {mid} -> {end}");
    assert_eq!(
        end,
        before as f64 + served,
        "final scrape vs statements served"
    );
    assert_eq!(
        fx.server.txn_stats().committed,
        2 * COMMITS_PER_HALF as u64,
        "every writer block committed"
    );
}

/// The metric surface — `SHOW metrics` row names in order, and every
/// exposition line with its sample value masked (HELP and TYPE lines
/// verbatim) — pinned in `tests/goldens/metrics_surface.txt`. A change
/// that renames, drops or reorders a metric shows up here; bless an
/// intended one with `OBDA_BLESS=1 cargo test --test pgwire`.
#[test]
fn metric_surface_matches_golden() {
    let (_server, mut listener, mut endpoint, dir) = scripted_metrics_server("surface");
    let prom = scrape_metrics(endpoint.local_addr());
    let mut actual = String::from("# SHOW metrics\n");
    for (name, _) in show_metrics_rows(&listener.local_addr()) {
        actual.push_str(&name);
        actual.push('\n');
    }
    actual.push_str("# /metrics\n");
    for line in prom.lines() {
        match line.rsplit_once(' ') {
            Some((series, _)) if !line.starts_with('#') => {
                actual.push_str(series);
                actual.push_str(" _\n");
            }
            _ => {
                actual.push_str(line);
                actual.push('\n');
            }
        }
    }
    endpoint.shutdown();
    listener.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let path: std::path::PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "goldens",
        "metrics_surface.txt",
    ]
    .iter()
    .collect();
    if std::env::var_os("OBDA_BLESS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden metrics_surface.txt; bless with OBDA_BLESS=1"));
    assert_eq!(
        actual, want,
        "the metric surface drifted from tests/goldens/metrics_surface.txt; \
         re-bless with OBDA_BLESS=1 if the change is intended"
    );
}
