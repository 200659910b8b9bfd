//! The SQL front end of the delegation path: read back the SQL that
//! [`crate::sql::SqlGenerator`] emits and hand it to the one executor.
//!
//! The paper's central claim is that ontological query answering can be
//! *delegated to an RDBMS*: reformulate under the TBox, emit SQL, and
//! let a relational engine with a cost-based optimizer execute it.
//! [`Backend::Sql`] keeps that loop honest — reformulation → SQL text →
//! parse → rows, with the rows a function of the *text* — without a
//! second relational evaluator:
//!
//! * [`token`] / [`parse`](mod@parse) — tokenizer and recursive-descent
//!   parser into the [`ast`];
//! * [`lower`](mod@lower) — the parsed statement becomes the
//!   [`FolQuery`](obda_query::FolQuery) it denotes.
//!
//! From there [`crate::engine::Engine`] plans and runs it like any other
//! query (`prepare` → `execute_parallel` → `columnar::run_plan`): one
//! planner, one join, one `DISTINCT`, one [`crate::meter::Meter`].
//! Nothing in this module scans storage, joins, deduplicates or meters.
//!
//! ## The dialect
//!
//! The parser accepts a little more than is lowered (`UNION ALL`, `OR`,
//! `CASE`, `JOIN … ON`, which desugars to the comma form). What lowers
//! is the closed set the generator prints, on any layout:
//!
//! | text | becomes |
//! |---|---|
//! | `c_<name> a` / `r_<name> a` | atom; columns `x` / `s`, `o` |
//! | `(SELECT subj AS x FROM triples WHERE pred = k) a`, `(SELECT subj AS s, obj AS o …) a` | atom of predicate code `k` (even: concept `k/2`, odd: role `k/2`) |
//! | `(SELECT entity AS x FROM dph WHERE pred0 = k OR …) a`, `(SELECT entity AS s, CASE … END AS o FROM dph WHERE …) a` | atom of code `k`; recognised strictly: all `DPH_COLUMNS` candidate columns in order under one code, the `dph_values` spill lookup in every `CASE` arm |
//! | `(SELECT u.s AS v0, … FROM <leaf> u [WHERE …] UNION …) a` | disjunctive slot; columns are its shared variables, positionally |
//! | `WHERE site = site AND site = <number> …` | sites of one class are one variable, or that constant |
//! | `SELECT DISTINCT site AS h0, <number> AS h1, NULL AS h2` | head; `NULL` is a variable no atom binds (no answers), `1 AS t` alone the empty head |
//! | `SELECT … UNION SELECT …` | UCQ, or USCQ if an arm has a slot |
//! | `WITH sql0 AS (…), … SELECT DISTINCT … FROM sql0, … WHERE sql1.h0 = sql0.h0 …` | JUCQ / JUSCQ: one component per binding, joined where the final `WHERE` equates columns |
//!
//! Rejected with a typed [`SqlError::Exec`] (`unsupported …`, or
//! `unknown` / `ambiguous` for names), never a panic and never another
//! evaluator: unknown tables, aliases, columns and predicate codes;
//! `UNION` arms of different arity; `UNION ALL`; `SELECT` without
//! `DISTINCT` outside a `UNION` (answers are sets); `OR`, bare terms and
//! literal-only comparisons in `WHERE`; a column equated with two
//! constants; `triples` / `dph` outside their subquery shapes, a DPH
//! block missing a candidate column; `CASE` or a subquery in expression
//! position anywhere else; a slot arm over more than one atom, or
//! projecting a constant, `NULL` or one column twice, or leaving a
//! column out; a `WITH` body that is not one
//! `SELECT` over every binding exactly once, or that filters a binding
//! by a constant or equates two of its own columns.
//!
//! Sources that no equality links are *not* rejected: a cover fragment
//! need not be connected (the root cover's `C3(y) ∧ C4(x)`), so the
//! generator prints cross products, and the planner runs them.
//!
//! `NULL` never reaches an answer: the one place the dialect produces it
//! (a head variable no atom binds) lowers to an unbound head variable,
//! for which the native projection emits no tuple.
//!
//! The differential harness ([`crate::testkit::differential_check`])
//! runs every random query and the LUBM sweep through generate → parse →
//! lower → execute on all three layouts, and `tests/sql_roundtrip.rs`
//! checks that lowering inverts generation.

pub mod ast;
pub mod lower;
pub mod parse;
pub mod token;

use std::fmt;

pub use lower::lower;
pub use parse::parse;

/// Which execution engine answers a query.
///
/// * [`Backend::Native`] — plan and run the reformulation directly;
/// * [`Backend::Sql`] — generate its SQL translation, then parse, lower,
///   plan and run *that*: the answer is what the text says. The two must
///   agree on every answer set; the differential harness enforces it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    #[default]
    Native,
    Sql,
}

impl Backend {
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Native => "native",
            Backend::Sql => "sql",
        }
    }
}

/// Errors from the SQL front end. For generator-produced statements
/// these indicate a generator/lowering bug (the differential suite
/// exists to keep them unreachable); for hand-written SQL they are
/// ordinary user errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// Unrecognized character or malformed literal at a byte offset.
    Tokenize { pos: usize, message: String },
    /// Syntax error at a byte offset.
    Parse { pos: usize, message: String },
    /// A statement that parses but does not lower: an unknown or
    /// ambiguous name, an arity mismatch, or a construct outside the
    /// dialect (`unsupported …`).
    Exec { message: String },
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Tokenize { pos, message } => {
                write!(f, "tokenize error at byte {pos}: {message}")
            }
            SqlError::Parse { pos, message } => write!(f, "parse error at byte {pos}: {message}"),
            SqlError::Exec { message } => write!(f, "execution error: {message}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl SqlError {
    pub(crate) fn exec(message: impl Into<String>) -> Self {
        SqlError::Exec {
            message: message.into(),
        }
    }
}
