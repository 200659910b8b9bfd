//! One wire session: startup negotiation, then the command loop.
//!
//! A session is one OS thread driving one [`TcpStream`] against one
//! shared [`Server`]. The isolation contract:
//!
//! * every *statement* pins its own [`EngineSnapshot`] — a reload that
//!   publishes mid-session affects only statements parsed after it;
//! * `BEGIN` opens a snapshot-isolated [`Txn`]: statements until
//!   `COMMIT`/`ROLLBACK` read the transaction's pinned generation plus
//!   its own buffered writes, and commit rides the group-commit WAL
//!   with first-committer-wins validation (a conflict is SQLSTATE
//!   `40001`). Any error inside an open transaction aborts it: only
//!   `COMMIT`/`ROLLBACK` are then accepted (`25P02` otherwise), and
//!   `COMMIT` of an aborted transaction rolls back, as in PostgreSQL.
//!   `INSERT`/`DELETE` outside a transaction autocommit as a one-shot
//!   transaction each;
//! * every statement executes under `catch_unwind`, so a panic (from a
//!   bug or from the chaos `PANIC` statement) is converted into an
//!   `ErrorResponse` with SQLSTATE `XX000` and *this* connection closes —
//!   nothing is shared mutably with other sessions, so they keep
//!   answering (the server's locks recover from poisoning; see
//!   [`Server`]'s poison-recovery notes);
//! * a malformed frame gets a final `ErrorResponse` (`08P01`) and the
//!   connection closes — the stream's framing can no longer be trusted;
//! * when shutdown is requested, an idle session is told `57P01` and
//!   closed; a statement already executing finishes on its pinned
//!   snapshot first.

use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use obda_dllite::IndividualId;

use super::framing::{
    read_message, read_startup, FrameError, OutBuf, CANCEL_REQUEST, GSSENC_REQUEST,
    PROTOCOL_VERSION, SSL_REQUEST,
};
use super::messages as msg;
use super::query::{
    parse_statement, split_statements, FactAtom, ParseWireError, ShowTopic, WireStatement,
};
use crate::engine::EngineError;
use crate::observe::{show_metrics, truncate_query, QueryTrace, StageSpans};
use crate::server::{AnalyzedQuery, EngineSnapshot, Server, ServerError};
use crate::sqlexec::Backend;
use crate::txn::Txn;

use std::collections::HashMap;

/// The version string reported to clients; the "obda" suffix makes it
/// obvious in `psql` that this is not a real PostgreSQL.
pub const SERVER_VERSION: &str = "16.0 (obda)";

/// Per-session configuration handed over by the listener.
pub struct SessionConfig {
    /// Backend used when the client does not pass `backend=` at startup.
    pub default_backend: Backend,
    /// Whether the chaos `PANIC` statement is honored.
    pub allow_chaos: bool,
    /// Process-unique id reported in `BackendKeyData`.
    pub session_id: i32,
}

/// A prepared statement retained across Parse/Bind/Execute. The wire
/// text is re-parsed against each Execute's pinned snapshot, so a
/// prepared statement transparently follows reloads — and plan caching
/// happens where it always does, in the server's canonical plan cache
/// (generation- and backend-keyed), which the re-parsed CQ hits.
struct Prepared {
    text: String,
}

/// A portal is just a bound reference to a prepared statement (our
/// statements take no parameters, so binding adds nothing).
struct Portal {
    statement: String,
}

/// Why the command loop ended. Used by the listener for logging only.
#[derive(Debug, PartialEq, Eq)]
pub enum SessionEnd {
    /// Client sent Terminate or closed the stream cleanly.
    Finished,
    /// The server is shutting down.
    Shutdown,
    /// The peer broke the protocol; an error was sent where possible.
    ProtocolError,
    /// A statement panicked; the error was reported and the stream closed.
    Panicked,
    /// I/O failure or mid-message disconnect.
    Io,
}

/// Serve one accepted connection to completion. `stop` is the listener's
/// shutdown flag. Never panics outward: statement panics are contained
/// per-statement, and everything else is typed.
pub fn run_session(
    server: &Server,
    mut stream: TcpStream,
    stop: &AtomicBool,
    cfg: &SessionConfig,
) -> SessionEnd {
    let _ = stream.set_read_timeout(Some(super::framing::POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let mut out = OutBuf::new();

    let backend = match negotiate_startup(&mut stream, stop, cfg, &mut out) {
        Ok(Some(b)) => b,
        Ok(None) => return SessionEnd::Finished,
        Err(end) => return end,
    };

    let mut session = Session {
        server,
        backend,
        allow_chaos: cfg.allow_chaos,
        prepared: HashMap::new(),
        portals: HashMap::new(),
        txn: None,
        txn_failed: false,
    };
    session.command_loop(&mut stream, stop, &mut out)
}

/// Startup negotiation: answer SSL/GSSENC probes with `'N'`, then accept
/// a version-3 StartupMessage, resolve the `backend=` parameter, and send
/// the auth-ok burst. `Ok(None)` = the peer left before starting.
fn negotiate_startup(
    stream: &mut TcpStream,
    stop: &AtomicBool,
    cfg: &SessionConfig,
    out: &mut OutBuf,
) -> Result<Option<Backend>, SessionEnd> {
    // A client may probe SSL and GSSENC before the real startup packet.
    for _ in 0..3 {
        let (code, body) = match read_startup(stream, stop) {
            Ok(Some(x)) => x,
            Ok(None) => return Ok(None),
            Err(e) => return Err(report_frame_error(stream, out, e)),
        };
        match code {
            SSL_REQUEST | GSSENC_REQUEST => {
                out.raw_byte(b'N');
                if out.flush_to(stream).is_err() {
                    return Err(SessionEnd::Io);
                }
            }
            CANCEL_REQUEST => {
                // Query cancellation is not supported; the protocol says
                // to just close the cancel connection.
                return Ok(None);
            }
            PROTOCOL_VERSION => {
                let params = match msg::decode_startup_params(&body) {
                    Ok(p) => p,
                    Err(e) => return Err(report_frame_error(stream, out, e)),
                };
                let mut backend = cfg.default_backend;
                for (key, value) in &params {
                    if key == "backend" {
                        backend = match value.as_str() {
                            "native" => Backend::Native,
                            "sql" => Backend::Sql,
                            other => {
                                send_error_and_close(
                                    stream,
                                    out,
                                    msg::SQLSTATE_INVALID_PARAMETER,
                                    &format!(
                                        "startup parameter backend={other} \
                                         (expected 'native' or 'sql')"
                                    ),
                                );
                                return Err(SessionEnd::ProtocolError);
                            }
                        };
                    }
                }
                msg::authentication_ok(out);
                msg::parameter_status(out, "server_version", SERVER_VERSION);
                msg::parameter_status(out, "server_encoding", "UTF8");
                msg::parameter_status(out, "client_encoding", "UTF8");
                msg::parameter_status(out, "backend", backend.name());
                msg::backend_key_data(out, cfg.session_id, 0);
                msg::ready_for_query(out, b'I');
                if out.flush_to(stream).is_err() {
                    return Err(SessionEnd::Io);
                }
                return Ok(Some(backend));
            }
            other => {
                send_error_and_close(
                    stream,
                    out,
                    msg::SQLSTATE_NOT_SUPPORTED,
                    &format!("unsupported protocol version/request code {other}"),
                );
                return Err(SessionEnd::ProtocolError);
            }
        }
    }
    send_error_and_close(
        stream,
        out,
        msg::SQLSTATE_PROTOCOL_VIOLATION,
        "too many pre-startup negotiation requests",
    );
    Err(SessionEnd::ProtocolError)
}

fn report_frame_error(stream: &mut TcpStream, out: &mut OutBuf, e: FrameError) -> SessionEnd {
    match e {
        FrameError::Malformed(detail) => {
            send_error_and_close(stream, out, msg::SQLSTATE_PROTOCOL_VIOLATION, &detail);
            SessionEnd::ProtocolError
        }
        FrameError::Shutdown => {
            send_error_and_close(
                stream,
                out,
                msg::SQLSTATE_ADMIN_SHUTDOWN,
                "server is shutting down",
            );
            SessionEnd::Shutdown
        }
        FrameError::Disconnected | FrameError::Io(_) => SessionEnd::Io,
    }
}

fn send_error_and_close(stream: &mut TcpStream, out: &mut OutBuf, sqlstate: &str, message: &str) {
    msg::error_response(out, sqlstate, message);
    let _ = out.flush_to(stream);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// A statement's outcome, ready to send: column names, the result's
/// `DataRow` frames already encoded, and the CommandComplete tag.
struct Rendered {
    columns: Vec<String>,
    rows: OutBuf,
    tag: String,
}

impl Rendered {
    /// Encode `rows` of text values under `columns`, tagged
    /// `{verb} {row count}`.
    fn table<'a, R>(columns: Vec<String>, verb: &str, rows: impl IntoIterator<Item = R>) -> Self
    where
        R: IntoIterator<Item = &'a str>,
        R::IntoIter: ExactSizeIterator,
    {
        let mut frames = OutBuf::new();
        let mut n = 0usize;
        for row in rows {
            msg::data_row(&mut frames, row.into_iter());
            n += 1;
        }
        Rendered {
            columns,
            rows: frames,
            tag: format!("{verb} {n}"),
        }
    }

    /// Queue the response: RowDescription when `describe` (the simple
    /// protocol; Describe sends it in the extended one) and the statement
    /// has columns, then the DataRows and CommandComplete.
    fn send(&self, out: &mut OutBuf, describe: bool) {
        if describe && !self.columns.is_empty() {
            msg::row_description(out, &self.columns);
        }
        out.append(&self.rows);
        msg::command_complete(out, &self.tag);
    }
}

/// What executing one statement can produce.
enum ExecError {
    /// Client-facing error; the session continues (simple protocol) or
    /// enters the skip-until-Sync state (extended protocol).
    Wire {
        sqlstate: &'static str,
        message: String,
    },
    /// The statement panicked; report and close the connection.
    Panicked(String),
}

impl From<ParseWireError> for ExecError {
    fn from(e: ParseWireError) -> Self {
        ExecError::Wire {
            sqlstate: msg::SQLSTATE_SYNTAX_ERROR,
            message: e.0,
        }
    }
}

impl From<EngineError> for ExecError {
    fn from(e: EngineError) -> Self {
        let sqlstate = match e {
            EngineError::StatementTooLong { .. } => msg::SQLSTATE_STATEMENT_TOO_COMPLEX,
            EngineError::Sql(_) => msg::SQLSTATE_INTERNAL_ERROR,
        };
        ExecError::Wire {
            sqlstate,
            message: e.to_string(),
        }
    }
}

struct Session<'a> {
    server: &'a Server,
    backend: Backend,
    allow_chaos: bool,
    prepared: HashMap<String, Prepared>,
    portals: HashMap<String, Portal>,
    /// The open transaction, if any. `Txn` borrows the same server the
    /// session does, so it lives here directly; dropping the session
    /// (client disconnect, panic, shutdown) rolls it back.
    txn: Option<Txn<'a>>,
    /// An error occurred inside the open transaction: only
    /// `COMMIT`/`ROLLBACK` are accepted until it ends.
    txn_failed: bool,
}

impl Session<'_> {
    fn command_loop(
        &mut self,
        stream: &mut TcpStream,
        stop: &AtomicBool,
        out: &mut OutBuf,
    ) -> SessionEnd {
        // Extended-protocol error discipline: after an error, ignore
        // everything until Sync.
        let mut skip_until_sync = false;
        loop {
            let (tag, body) = match read_message(stream, stop) {
                Ok(Some(x)) => x,
                Ok(None) => return SessionEnd::Finished,
                Err(e) => return report_frame_error(stream, out, e),
            };
            if skip_until_sync && tag != b'S' && tag != b'X' {
                continue;
            }
            if tag == b'Q' {
                // Simple protocol: completed-statement responses stay
                // queued, an error (if any) is appended after them, and
                // ReadyForQuery always closes the cycle.
                match self.on_simple_query(&body, out) {
                    Ok(()) => {}
                    Err(ExecError::Wire { sqlstate, message }) => {
                        self.fail_open_txn();
                        msg::error_response(out, sqlstate, &message);
                    }
                    Err(ExecError::Panicked(detail)) => {
                        send_error_and_close(
                            stream,
                            out,
                            msg::SQLSTATE_INTERNAL_ERROR,
                            &format!("statement panicked: {detail}"),
                        );
                        return SessionEnd::Panicked;
                    }
                }
                msg::ready_for_query(out, self.txn_status());
                if out.flush_to(stream).is_err() {
                    return SessionEnd::Io;
                }
                continue;
            }
            let result = match tag {
                b'P' => self.on_parse(&body, out),
                b'B' => self.on_bind(&body, out),
                b'D' => self.on_describe(&body, out),
                b'E' => self.on_execute(&body, out),
                b'C' => self.on_close(&body, out),
                b'S' => {
                    skip_until_sync = false;
                    msg::ready_for_query(out, self.txn_status());
                    Ok(())
                }
                b'H' => Ok(()), // Flush: we flush after every message anyway.
                b'X' => return SessionEnd::Finished,
                other => {
                    send_error_and_close(
                        stream,
                        out,
                        msg::SQLSTATE_PROTOCOL_VIOLATION,
                        &format!("unexpected frontend message '{}'", other.escape_ascii()),
                    );
                    return SessionEnd::ProtocolError;
                }
            };
            match result {
                Ok(()) => {
                    if out.flush_to(stream).is_err() {
                        return SessionEnd::Io;
                    }
                }
                Err(ExecError::Wire { sqlstate, message }) => {
                    self.fail_open_txn();
                    msg::error_response(out, sqlstate, &message);
                    skip_until_sync = true;
                    if out.flush_to(stream).is_err() {
                        return SessionEnd::Io;
                    }
                }
                Err(ExecError::Panicked(detail)) => {
                    send_error_and_close(
                        stream,
                        out,
                        msg::SQLSTATE_INTERNAL_ERROR,
                        &format!("statement panicked: {detail}"),
                    );
                    return SessionEnd::Panicked;
                }
            }
        }
    }

    /// Simple protocol: split on `;`, run statements in order, stop at
    /// the first error (remaining statements in the buffer are skipped,
    /// as in PostgreSQL). Responses for completed statements stay queued;
    /// the error (if any) is appended by the caller before ReadyForQuery.
    fn on_simple_query(&mut self, body: &[u8], out: &mut OutBuf) -> Result<(), ExecError> {
        let text = match msg::decode_query(body) {
            Ok(t) => t,
            Err(e) => {
                return Err(ExecError::Wire {
                    sqlstate: msg::SQLSTATE_PROTOCOL_VIOLATION,
                    message: e.to_string(),
                })
            }
        };
        let statements = split_statements(&text);
        if statements.is_empty() {
            msg::empty_query_response(out);
            return Ok(());
        }
        for stmt_text in statements {
            // Row-less statements (SET) get just a CommandComplete,
            // matching PostgreSQL.
            self.execute_text(stmt_text)?.send(out, true);
        }
        Ok(())
    }

    fn on_parse(&mut self, body: &[u8], out: &mut OutBuf) -> Result<(), ExecError> {
        let parse = msg::decode_parse(body).map_err(frame_to_exec)?;
        // Validate eagerly against the session's current names so Parse
        // errors surface at Parse time, like PostgreSQL's.
        let statements = split_statements(&parse.query);
        if statements.len() != 1 {
            return Err(ExecError::Wire {
                sqlstate: msg::SQLSTATE_SYNTAX_ERROR,
                message: "Parse takes exactly one statement".into(),
            });
        }
        self.parse(statements[0], &self.pinned())?;
        self.prepared.insert(
            parse.statement,
            Prepared {
                text: statements[0].to_string(),
            },
        );
        msg::parse_complete(out);
        Ok(())
    }

    fn on_bind(&mut self, body: &[u8], out: &mut OutBuf) -> Result<(), ExecError> {
        let bind = msg::decode_bind(body).map_err(frame_to_exec)?;
        if !self.prepared.contains_key(&bind.statement) {
            return Err(ExecError::Wire {
                sqlstate: msg::SQLSTATE_SYNTAX_ERROR,
                message: format!("prepared statement \"{}\" does not exist", bind.statement),
            });
        }
        if bind.nparams != 0 {
            return Err(ExecError::Wire {
                sqlstate: msg::SQLSTATE_NOT_SUPPORTED,
                message: "wire statements take no parameters".into(),
            });
        }
        self.portals.insert(
            bind.portal,
            Portal {
                statement: bind.statement,
            },
        );
        msg::bind_complete(out);
        Ok(())
    }

    fn on_describe(&mut self, body: &[u8], out: &mut OutBuf) -> Result<(), ExecError> {
        let target = msg::decode_target(body, "Describe").map_err(frame_to_exec)?;
        let text = self.resolve_target(&target)?;
        let stmt = self.parse(&text, &self.pinned())?;
        if target.kind == b'S' {
            msg::parameter_description(out);
        }
        match describe_columns(&stmt) {
            Some(columns) => msg::row_description(out, &columns),
            None => msg::no_data(out),
        }
        Ok(())
    }

    fn on_execute(&mut self, body: &[u8], out: &mut OutBuf) -> Result<(), ExecError> {
        let exec = msg::decode_execute(body).map_err(frame_to_exec)?;
        let portal = self
            .portals
            .get(&exec.portal)
            .ok_or_else(|| ExecError::Wire {
                sqlstate: msg::SQLSTATE_SYNTAX_ERROR,
                message: format!("portal \"{}\" does not exist", exec.portal),
            })?;
        let text = self
            .prepared
            .get(&portal.statement)
            .map(|p| p.text.clone())
            .ok_or_else(|| ExecError::Wire {
                sqlstate: msg::SQLSTATE_SYNTAX_ERROR,
                message: format!("prepared statement \"{}\" does not exist", portal.statement),
            })?;
        // Execute does not send RowDescription (Describe does).
        self.execute_text(&text)?.send(out, false);
        Ok(())
    }

    fn on_close(&mut self, body: &[u8], out: &mut OutBuf) -> Result<(), ExecError> {
        let target = msg::decode_target(body, "Close").map_err(frame_to_exec)?;
        // Closing a nonexistent target is not an error (per protocol).
        if target.kind == b'S' {
            self.prepared.remove(&target.name);
            self.portals.retain(|_, p| p.statement != target.name);
        } else {
            self.portals.remove(&target.name);
        }
        msg::close_complete(out);
        Ok(())
    }

    fn resolve_target(&self, target: &msg::TargetMsg) -> Result<String, ExecError> {
        let stmt_name = if target.kind == b'P' {
            &self
                .portals
                .get(&target.name)
                .ok_or_else(|| ExecError::Wire {
                    sqlstate: msg::SQLSTATE_SYNTAX_ERROR,
                    message: format!("portal \"{}\" does not exist", target.name),
                })?
                .statement
        } else {
            &target.name
        };
        self.prepared
            .get(stmt_name)
            .map(|p| p.text.clone())
            .ok_or_else(|| ExecError::Wire {
                sqlstate: msg::SQLSTATE_SYNTAX_ERROR,
                message: format!("prepared statement \"{stmt_name}\" does not exist"),
            })
    }

    /// `'I'` idle, `'T'` in an open transaction, `'E'` failed.
    fn txn_status(&self) -> u8 {
        match (&self.txn, self.txn_failed) {
            (None, _) => b'I',
            (Some(_), false) => b'T',
            (Some(_), true) => b'E',
        }
    }

    /// After an error: an open transaction becomes failed.
    fn fail_open_txn(&mut self) {
        if self.txn.is_some() {
            self.txn_failed = true;
        }
    }

    /// The snapshot a statement runs against: the open transaction's
    /// pinned generation when one exists, the current published
    /// snapshot otherwise.
    fn pinned(&self) -> Arc<EngineSnapshot> {
        match &self.txn {
            Some(txn) => Arc::clone(txn.snapshot()),
            None => self.server.snapshot(),
        }
    }

    /// Parse one statement: names resolve through the open transaction
    /// (pinned names plus its own new individuals), else in `snap`'s
    /// vocabulary. Never builds a transaction's overlay.
    fn parse(&self, text: &str, snap: &EngineSnapshot) -> Result<WireStatement, ParseWireError> {
        match &self.txn {
            Some(txn) => parse_statement(text, txn),
            None => parse_statement(text, snap.vocabulary()),
        }
    }

    /// Parse and execute one statement text: pin a snapshot (the open
    /// transaction's, if any), resolve names, run under `catch_unwind`.
    /// Only a statement that reads data pays for a dirty transaction's
    /// overlay.
    fn execute_text(&mut self, text: &str) -> Result<Rendered, ExecError> {
        // Failed-transaction discipline: nothing but COMMIT/ROLLBACK is
        // even parsed until the transaction block ends.
        if self.txn_failed {
            let first = text
                .trim()
                .split_whitespace()
                .next()
                .unwrap_or("")
                .to_ascii_uppercase();
            if !matches!(first.as_str(), "COMMIT" | "END" | "ROLLBACK" | "ABORT") {
                return Err(ExecError::Wire {
                    sqlstate: msg::SQLSTATE_IN_FAILED_TRANSACTION,
                    message: "current transaction is aborted, \
                              commands ignored until end of transaction block"
                        .into(),
                });
            }
        }
        let statement_started = Instant::now();
        let snap = self.pinned();
        let parse_started = Instant::now();
        let stmt = self.parse(text, &snap)?;
        let parse_span = parse_started.elapsed();
        match stmt {
            WireStatement::Set => Ok(tag_only("SET")),
            WireStatement::Show(topic) => Ok(self.run_show(topic, &snap)),
            WireStatement::Begin => self.run_begin(),
            WireStatement::Commit => self.run_commit(),
            WireStatement::Rollback => self.run_rollback(),
            WireStatement::Mutate { insert, facts } => self.run_mutate(insert, &facts),
            WireStatement::Panic => {
                if !self.allow_chaos {
                    return Err(ExecError::Wire {
                        sqlstate: msg::SQLSTATE_NOT_SUPPORTED,
                        message: "PANIC is disabled (start the listener with chaos enabled)".into(),
                    });
                }
                let r = catch_unwind(|| panic!("chaos PANIC statement"));
                debug_assert!(r.is_err());
                Err(ExecError::Panicked("chaos PANIC statement".into()))
            }
            WireStatement::Select { head_names, cq } => {
                let backend = self.backend;
                // Rows render against the view that answered: a dirty
                // transaction's overlay knows its provisional ids.
                let (outcome, view) = match &mut self.txn {
                    Some(txn) => {
                        let result = catch_unwind(AssertUnwindSafe(|| txn.query_as(&cq, backend)));
                        match result {
                            Ok(r) => (r.map_err(ExecError::from)?, txn.view()),
                            Err(payload) => return Err(ExecError::Panicked(panic_detail(payload))),
                        }
                    }
                    None => {
                        let server = self.server;
                        let snap_ref = &snap;
                        let result = catch_unwind(AssertUnwindSafe(move || {
                            server.query_on_as(snap_ref, &cq, backend)
                        }));
                        match result {
                            Ok(r) => (r.map_err(ExecError::from)?, snap),
                            Err(payload) => return Err(ExecError::Panicked(panic_detail(payload))),
                        }
                    }
                };
                let serialize_started = Instant::now();
                let rendered = render_select(&head_names, &outcome.outcome.rows, &view);
                let mut spans = outcome.spans;
                spans.parse = parse_span;
                spans.serialize = serialize_started.elapsed();
                self.record_statement_trace(
                    text,
                    backend,
                    outcome.cache_hit,
                    outcome.generation,
                    outcome.outcome.rows.len() as u64,
                    spans,
                    statement_started,
                );
                Ok(rendered)
            }
            WireStatement::ExplainAnalyze { cq } => {
                // In-transaction views share the pinned generation with
                // other sessions' cache entries, so their compilations
                // must stay out of the plan cache — and an EXPLAIN whose
                // plan is *not* the cached one would be lying. Refuse.
                if self.txn.is_some() {
                    return Err(ExecError::Wire {
                        sqlstate: msg::SQLSTATE_NOT_SUPPORTED,
                        message: "EXPLAIN ANALYZE inside a transaction block is not supported"
                            .into(),
                    });
                }
                let backend = self.backend;
                let server = self.server;
                let snap_ref = &snap;
                let result = catch_unwind(AssertUnwindSafe(move || {
                    server.explain_analyze(snap_ref, &cq, backend)
                }));
                let analyzed = match result {
                    Ok(r) => r.map_err(ExecError::from)?,
                    Err(payload) => return Err(ExecError::Panicked(panic_detail(payload))),
                };
                let serialize_started = Instant::now();
                let rendered = render_explain(&analyzed);
                let mut spans = analyzed.spans;
                spans.parse = parse_span;
                spans.serialize = serialize_started.elapsed();
                self.record_statement_trace(
                    text,
                    backend,
                    analyzed.cache_hit,
                    analyzed.generation,
                    analyzed.outcome.rows.len() as u64,
                    spans,
                    statement_started,
                );
                Ok(rendered)
            }
        }
    }

    /// Complete one query statement's trace: stamp id and end-to-end
    /// total and hand it to the registry (stage totals, slow-query ring,
    /// stderr slow log).
    #[allow(clippy::too_many_arguments)]
    fn record_statement_trace(
        &self,
        text: &str,
        backend: Backend,
        cache_hit: bool,
        generation: u64,
        rows: u64,
        spans: StageSpans,
        statement_started: Instant,
    ) {
        let observe = self.server.observe();
        observe.record_trace(QueryTrace {
            id: observe.next_trace_id(),
            query: truncate_query(text),
            backend,
            cache_hit,
            generation,
            rows,
            spans,
            total: statement_started.elapsed(),
        });
    }

    fn run_begin(&mut self) -> Result<Rendered, ExecError> {
        if self.txn.is_some() {
            // Stricter than PostgreSQL's warning: a typed error (which
            // also aborts the open transaction, per the session rule).
            return Err(ExecError::Wire {
                sqlstate: msg::SQLSTATE_ACTIVE_TRANSACTION,
                message: "there is already a transaction in progress".into(),
            });
        }
        self.txn = Some(self.server.begin());
        Ok(tag_only("BEGIN"))
    }

    fn run_commit(&mut self) -> Result<Rendered, ExecError> {
        match self.txn.take() {
            None => Err(ExecError::Wire {
                sqlstate: msg::SQLSTATE_NO_ACTIVE_TRANSACTION,
                message: "there is no transaction in progress".into(),
            }),
            Some(txn) if self.txn_failed => {
                // COMMIT of an aborted transaction rolls back, with the
                // ROLLBACK tag telling the client what really happened.
                self.txn_failed = false;
                txn.rollback();
                Ok(tag_only("ROLLBACK"))
            }
            Some(txn) => match txn.commit() {
                Ok(_generation) => Ok(tag_only("COMMIT")),
                Err(e @ ServerError::Conflict { .. }) => Err(ExecError::Wire {
                    sqlstate: msg::SQLSTATE_SERIALIZATION_FAILURE,
                    message: e.to_string(),
                }),
                Err(e) => Err(ExecError::Wire {
                    sqlstate: msg::SQLSTATE_INTERNAL_ERROR,
                    message: e.to_string(),
                }),
            },
        }
    }

    fn run_rollback(&mut self) -> Result<Rendered, ExecError> {
        match self.txn.take() {
            None => Err(ExecError::Wire {
                sqlstate: msg::SQLSTATE_NO_ACTIVE_TRANSACTION,
                message: "there is no transaction in progress".into(),
            }),
            Some(txn) => {
                self.txn_failed = false;
                txn.rollback();
                Ok(tag_only("ROLLBACK"))
            }
        }
    }

    /// `INSERT`/`DELETE`: buffer into the open transaction, or run as a
    /// one-shot autocommit transaction. `DELETE` of a fact naming an
    /// unknown individual is a no-op for that fact (there is nothing to
    /// retract), and the tag's row count reports only applied facts.
    fn run_mutate(&mut self, insert: bool, facts: &[FactAtom]) -> Result<Rendered, ExecError> {
        let tag_word = if insert { "INSERT 0" } else { "DELETE" };
        let applied = match &mut self.txn {
            Some(txn) => apply_facts(txn, insert, facts),
            None => {
                let mut txn = self.server.begin();
                let applied = apply_facts(&mut txn, insert, facts);
                match txn.commit() {
                    Ok(_generation) => applied,
                    Err(e @ ServerError::Conflict { .. }) => {
                        return Err(ExecError::Wire {
                            sqlstate: msg::SQLSTATE_SERIALIZATION_FAILURE,
                            message: e.to_string(),
                        })
                    }
                    Err(e) => {
                        return Err(ExecError::Wire {
                            sqlstate: msg::SQLSTATE_INTERNAL_ERROR,
                            message: e.to_string(),
                        })
                    }
                }
            }
        };
        Ok(tag_only(&format!("{tag_word} {applied}")))
    }

    fn run_show(&self, topic: ShowTopic, snap: &EngineSnapshot) -> Rendered {
        if topic == ShowTopic::Metrics {
            return self.run_show_metrics(snap);
        }
        if topic == ShowTopic::SlowQueries {
            return run_show_slow_queries(self.server);
        }
        if topic == ShowTopic::Transaction {
            let (status, pending, new_names, generation) = match &self.txn {
                Some(txn) => (
                    if self.txn_failed { "failed" } else { "open" },
                    txn.pending_ops(),
                    txn.new_names(),
                    txn.begin_generation(),
                ),
                None => ("idle", 0, 0, snap.generation()),
            };
            let (pending, new_names, generation) = (
                pending.to_string(),
                new_names.to_string(),
                generation.to_string(),
            );
            return Rendered::table(
                vec![
                    "transaction_status".into(),
                    "pending_ops".into(),
                    "new_names".into(),
                    "pinned_generation".into(),
                ],
                "SELECT",
                [[status, &pending, &new_names, &generation]],
            );
        }
        let (name, value) = match topic {
            ShowTopic::Generation => ("generation", snap.generation().to_string()),
            ShowTopic::Backend => ("backend", self.backend.name().to_string()),
            ShowTopic::ServerVersion => ("server_version", SERVER_VERSION.to_string()),
            ShowTopic::Cache => {
                let s = self.server.cache_stats();
                (
                    "cache",
                    format!(
                        "hits={} misses={} entries={} invalidated={}",
                        s.hits, s.misses, s.entries, s.invalidated
                    ),
                )
            }
            ShowTopic::Transaction | ShowTopic::Metrics | ShowTopic::SlowQueries => {
                unreachable!("handled above")
            }
        };
        Rendered::table(vec![name.to_string()], "SELECT", [[value.as_str()]])
    }

    /// `SHOW metrics`: [`crate::observe::show_metrics`] as `metric |
    /// value` rows — the wire-level twin of the Prometheus endpoint.
    fn run_show_metrics(&self, snap: &EngineSnapshot) -> Rendered {
        let rows = show_metrics(self.server, snap.generation());
        Rendered::table(
            vec!["metric".into(), "value".into()],
            "SELECT",
            rows.iter()
                .map(|(name, value)| [name.as_str(), value.as_str()]),
        )
    }
}

/// Column labels of a `SHOW slow_queries` result, in row order.
const SLOW_QUERY_COLUMNS: [&str; 13] = [
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
    "query",
];

/// `SHOW slow_queries`: the retained slowest traces, slowest first.
fn run_show_slow_queries(server: &Server) -> Rendered {
    let traces = server.observe().slow_queries();
    let rows: Vec<Vec<String>> = traces
        .iter()
        .map(|t| {
            vec![
                t.id.to_string(),
                t.total.as_micros().to_string(),
                t.spans.parse.as_micros().to_string(),
                t.spans.reformulate.as_micros().to_string(),
                t.spans.plan.as_micros().to_string(),
                t.spans.sqlgen.as_micros().to_string(),
                t.spans.execute.as_micros().to_string(),
                t.spans.serialize.as_micros().to_string(),
                t.backend.name().to_string(),
                if t.cache_hit { "t" } else { "f" }.to_string(),
                t.generation.to_string(),
                t.rows.to_string(),
                t.query.clone(),
            ]
        })
        .collect();
    Rendered::table(
        SLOW_QUERY_COLUMNS.iter().map(|c| c.to_string()).collect(),
        "SELECT",
        rows.iter().map(|r| r.iter().map(String::as_str)),
    )
}

/// Render an [`AnalyzedQuery`] as `QUERY PLAN` text lines: the plan's
/// predicted per-step costs next to the executor's measured work — the
/// cost-model accuracy loop, inspectable from any pg client.
fn render_explain(analyzed: &AnalyzedQuery) -> Rendered {
    let metrics = &analyzed.outcome.metrics;
    let mut lines: Vec<String> = Vec::new();
    lines.push(format!(
        "strategy={} backend={} cache_hit={} generation={}",
        analyzed.explain.strategy.name(),
        analyzed.backend.name(),
        analyzed.cache_hit,
        analyzed.generation,
    ));
    if let Some(p) = &analyzed.pruned {
        lines.push(format!(
            "constraints: arms_pruned={} (empty={} subsumed={}) kept={} dead_preds={}",
            p.total_pruned(),
            p.empty_pruned,
            p.subsumed_pruned,
            p.kept,
            analyzed.dead_preds,
        ));
    }
    lines.push(format!(
        "fragments: {} memoised / {} computed eliminated={}",
        analyzed.fragments.memoised, analyzed.fragments.computed, analyzed.eliminated,
    ));
    lines.push(format!(
        "predicted: total_cost={:.1}",
        analyzed.explain.total_cost
    ));
    lines.push(format!(
        "measured: work_units={:.1} rows={} wall_us={}",
        metrics.work_units(),
        analyzed.outcome.rows.len(),
        metrics.wall.as_micros(),
    ));
    if analyzed.explain.total_cost.is_finite() && analyzed.explain.total_cost > 0.0 {
        lines.push(format!(
            "accuracy: measured/predicted={:.3}",
            metrics.work_units() / analyzed.explain.total_cost
        ));
    }
    // Per-arm annotation only when the executor attributed arm deltas
    // that line up with the plan's conjunctions (top-level unions; a
    // plain CQ or a JUCQ reports statement totals only).
    let arm_metrics = &analyzed.outcome.arm_metrics;
    let annotate_arms = arm_metrics.len() == analyzed.explain.arms.len();
    for (i, arm) in analyzed.explain.arms.iter().enumerate() {
        lines.push(format!("{}:", arm.label));
        for step in &arm.plan.steps {
            lines.push(format!("  {step}"));
        }
        lines.push(format!("  predicted: cost={:.1}", arm.plan.est_cost()));
        if annotate_arms {
            let m = &arm_metrics[i];
            lines.push(format!(
                "  measured: work_units={:.1} rows={} wall_us={}",
                m.work_units(),
                m.output,
                m.wall.as_micros(),
            ));
        }
    }
    Rendered::table(
        vec!["QUERY PLAN".into()],
        "EXPLAIN",
        lines.iter().map(|l| [l.as_str()]),
    )
}

/// A row-less result carrying only a CommandComplete tag.
fn tag_only(tag: &str) -> Rendered {
    Rendered {
        columns: Vec::new(),
        rows: OutBuf::new(),
        tag: tag.to_string(),
    }
}

/// Apply ground facts to a transaction's working set, returning how many
/// were applied. Inserts intern unknown individuals transaction-locally;
/// deletes of facts naming unknown individuals are skipped.
fn apply_facts(txn: &mut Txn<'_>, insert: bool, facts: &[FactAtom]) -> usize {
    let mut applied = 0;
    for fact in facts {
        match fact {
            FactAtom::Concept(c, name) => {
                if insert {
                    let a = txn.individual(name);
                    txn.insert_concept(*c, a);
                    applied += 1;
                } else if let Some(a) = txn.find_individual(name) {
                    txn.retract_concept(*c, a);
                    applied += 1;
                }
            }
            FactAtom::Role(r, a_name, b_name) => {
                if insert {
                    let a = txn.individual(a_name);
                    let b = txn.individual(b_name);
                    txn.insert_role(*r, a, b);
                    applied += 1;
                } else if let (Some(a), Some(b)) =
                    (txn.find_individual(a_name), txn.find_individual(b_name))
                {
                    txn.retract_role(*r, a, b);
                    applied += 1;
                }
            }
        }
    }
    applied
}

fn frame_to_exec(e: FrameError) -> ExecError {
    ExecError::Wire {
        sqlstate: msg::SQLSTATE_PROTOCOL_VIOLATION,
        message: e.to_string(),
    }
}

fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Column names a statement will produce, or `None` for row-less ones.
fn describe_columns(stmt: &WireStatement) -> Option<Vec<String>> {
    match stmt {
        WireStatement::Select { head_names, .. } => Some(head_names.clone()),
        WireStatement::ExplainAnalyze { .. } => Some(vec!["QUERY PLAN".to_string()]),
        WireStatement::Show(ShowTopic::Transaction) => Some(vec![
            "transaction_status".to_string(),
            "pending_ops".to_string(),
            "new_names".to_string(),
            "pinned_generation".to_string(),
        ]),
        WireStatement::Show(ShowTopic::Metrics) => {
            Some(vec!["metric".to_string(), "value".to_string()])
        }
        WireStatement::Show(ShowTopic::SlowQueries) => {
            Some(SLOW_QUERY_COLUMNS.iter().map(|c| c.to_string()).collect())
        }
        WireStatement::Show(topic) => Some(vec![match topic {
            ShowTopic::Generation => "generation",
            ShowTopic::Cache => "cache",
            ShowTopic::Backend => "backend",
            ShowTopic::ServerVersion => "server_version",
            ShowTopic::Transaction | ShowTopic::Metrics | ShowTopic::SlowQueries => {
                unreachable!("handled above")
            }
        }
        .to_string()]),
        WireStatement::Set
        | WireStatement::Panic
        | WireStatement::Begin
        | WireStatement::Commit
        | WireStatement::Rollback
        | WireStatement::Mutate { .. } => None,
    }
}

/// Encode result rows as `DataRow`s, each value the individual's name
/// straight from the vocabulary. A boolean query (empty head) renders as
/// a single `t`/`f` row under the `answer` column.
fn render_select(head_names: &[String], rows: &[Vec<u32>], snap: &Arc<EngineSnapshot>) -> Rendered {
    if head_names.len() == 1 && head_names[0] == "answer" {
        let answer = if rows.is_empty() { "f" } else { "t" };
        return Rendered::table(vec!["answer".into()], "SELECT", [[answer]]);
    }
    let voc = snap.vocabulary();
    Rendered::table(
        head_names.to_vec(),
        "SELECT",
        rows.iter().map(|row| {
            row.iter()
                .map(move |&v| voc.individual_name(IndividualId(v)))
        }),
    )
}
