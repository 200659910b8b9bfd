//! A PostgreSQL wire-protocol (v3) front end over the serving layer.
//!
//! This module puts a socket in front of [`crate::server::Server`]: any
//! client that can speak the Postgres protocol — `psql`, a JDBC driver,
//! or the bundled [`WireClient`] — can connect, pick an execution
//! backend per session (`backend=native|sql` as a startup parameter),
//! and run statements in the wire query language (see [`query`]) against
//! generation-tagged snapshots with the canonical plan cache underneath.
//!
//! Layering, bottom-up:
//!
//! * [`framing`] — length-validated frame reader/writer; nothing above
//!   it touches raw lengths, so no message can trigger an oversized
//!   allocation or a panic;
//! * [`messages`] — typed backend-message constructors and checked
//!   frontend-message decoders;
//! * [`query`] — the `SELECT ?x WHERE Concept(?x), role(?x, c)` wire
//!   query language, parsed against a snapshot's vocabulary;
//! * [`session`] — startup negotiation and the per-connection command
//!   loop (simple protocol plus the Parse/Bind/Describe/Execute/Close/
//!   Sync extended subset), with per-statement panic containment;
//! * [`listener`] — accept loop, thread-per-session, admission control
//!   (`53300`) and graceful drain (`57P01`);
//! * [`client`] — a minimal blocking client for tests and harnesses.
//!
//! ## Robustness contract
//!
//! The front end never panics on peer input: malformed frames and
//! bodies are typed errors answered with `ErrorResponse` (SQLSTATE
//! `08P01`) before closing that one connection. A statement that
//! panics mid-execution (chaos `PANIC`, or a real bug) is contained by
//! `catch_unwind`, reported as `XX000`, and closes only its own
//! session — the serving layer's locks recover from poisoning, so
//! concurrent sessions keep answering. The malformed-protocol fuzz in
//! `tests/failure_injection.rs` and the chaos tests in `tests/pgwire.rs`
//! hold these properties under fire.

pub mod client;
pub mod framing;
pub mod listener;
pub mod messages;
pub mod query;
pub mod session;

pub use client::{ClientError, QueryResult, WireClient};
pub use framing::{FrameError, MAX_MESSAGE_LEN, MAX_STARTUP_LEN};
pub use listener::{PgConfig, PgListener};
pub use query::{
    parse_statement, split_statements, Names, ParseWireError, ShowTopic, WireStatement,
};
pub use session::{SessionEnd, SERVER_VERSION};
