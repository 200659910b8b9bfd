//! The wire query language: the small statement surface a socket client
//! can speak, parsed against a snapshot's [`Vocabulary`].
//!
//! Grammar (case-insensitive keywords, whitespace-insensitive):
//!
//! ```text
//! statement := select | ask | explain | show | set | panic | txn | mutate
//! select    := SELECT head WHERE body
//! ask       := ASK WHERE body
//! explain   := EXPLAIN ANALYZE ( select | ask )
//! head      := ?var ( , ?var )*
//! body      := atom ( , atom )*
//! atom      := Name ( term )            -- concept atom
//!            | Name ( term , term )     -- role atom
//! term      := ?var | Individual        -- bare identifier = constant
//! show      := SHOW ( generation | cache | backend | server_version
//!                   | transaction | metrics | slow_queries )
//! set       := SET ...                  -- accepted and ignored
//! panic     := PANIC                    -- chaos statement, gated
//! txn       := BEGIN | COMMIT | ROLLBACK   -- optional TRANSACTION/WORK
//! mutate    := INSERT fact ( , fact )*  -- buffered in the transaction
//!            | DELETE fact ( , fact )*
//! fact      := Name ( Individual )          -- ground concept fact
//!            | Name ( Individual , Individual )  -- ground role fact
//! ```
//!
//! Predicate names resolve by arity: one argument looks up a concept,
//! two arguments a role. Constants in *queries* resolve in the
//! snapshot's interned individuals (and, inside a transaction, the names
//! it introduced: see [`Names`]) — an unknown name is a parse-time
//! error (SQLSTATE 42601 at the session layer), not an empty result, so
//! typos are loud. Constants in `INSERT` facts stay *names*: an unknown
//! individual there is new data, interned transaction-locally by the
//! session and globally at commit.

use obda_dllite::{ConceptId, IndividualId, RoleId, Vocabulary};
use obda_query::{Atom, Term, VarId, CQ};
use std::collections::HashMap;

use crate::txn::Txn;

/// What a statement's names resolve against. Parsing only ever looks
/// names up, so it needs no snapshot and no engine: a [`Vocabulary`]
/// outside a transaction, and inside one the pinned vocabulary plus the
/// transaction's own new individuals ([`Txn`]) — which is how
/// a dirty transaction parses `COMMIT`, or anything else, without
/// building its overlay.
pub trait Names {
    fn find_concept(&self, name: &str) -> Option<ConceptId>;
    fn find_role(&self, name: &str) -> Option<RoleId>;
    fn find_individual(&self, name: &str) -> Option<IndividualId>;
}

impl Names for Vocabulary {
    fn find_concept(&self, name: &str) -> Option<ConceptId> {
        Vocabulary::find_concept(self, name)
    }

    fn find_role(&self, name: &str) -> Option<RoleId> {
        Vocabulary::find_role(self, name)
    }

    fn find_individual(&self, name: &str) -> Option<IndividualId> {
        Vocabulary::find_individual(self, name)
    }
}

/// Inside a transaction: predicates from the pinned snapshot,
/// individuals from it and from the transaction's own new names.
impl Names for Txn<'_> {
    fn find_concept(&self, name: &str) -> Option<ConceptId> {
        self.snapshot().vocabulary().find_concept(name)
    }

    fn find_role(&self, name: &str) -> Option<RoleId> {
        self.snapshot().vocabulary().find_role(name)
    }

    fn find_individual(&self, name: &str) -> Option<IndividualId> {
        Txn::find_individual(self, name)
    }
}

/// A parsed wire statement, ready for the session to execute.
#[derive(Debug)]
pub enum WireStatement {
    /// `SELECT ?x, ?y WHERE ...` or `ASK WHERE ...` — the head names are
    /// the wire column labels (`?x` → `x`; ASK gets a single `answer`).
    Select { head_names: Vec<String>, cq: CQ },
    /// `EXPLAIN ANALYZE SELECT ...` — run the query and return its
    /// priced plan annotated with the measured execution, one text line
    /// per `QUERY PLAN` row (the PostgreSQL convention).
    ExplainAnalyze { cq: CQ },
    /// `SHOW <topic>` — answered from server state, no query execution.
    Show(ShowTopic),
    /// `SET ...` — accepted as a no-op so JDBC/psql session setup works.
    Set,
    /// `PANIC` — deliberately panics inside the executing session; only
    /// honored when the listener enables chaos testing.
    Panic,
    /// `BEGIN [TRANSACTION|WORK]` — open a snapshot-isolated transaction.
    Begin,
    /// `COMMIT [TRANSACTION|WORK]` — commit the open transaction.
    Commit,
    /// `ROLLBACK [TRANSACTION|WORK]` — discard the open transaction.
    Rollback,
    /// `INSERT fact, ...` / `DELETE fact, ...` — ground fact writes,
    /// buffered in the session's transaction (or an implicit one-shot
    /// transaction in autocommit).
    Mutate { insert: bool, facts: Vec<FactAtom> },
}

/// One ground fact in an `INSERT`/`DELETE` statement. Predicates resolve
/// at parse time (writes never invent concepts or roles over the wire);
/// individuals stay names so inserts can introduce new ones.
#[derive(Clone, Debug)]
pub enum FactAtom {
    Concept(ConceptId, String),
    Role(RoleId, String, String),
}

/// Topics a `SHOW` statement can ask about.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShowTopic {
    Generation,
    Cache,
    Backend,
    ServerVersion,
    /// The session's transaction state: status, buffered write count,
    /// new-name count, pinned generation.
    Transaction,
    /// The server metrics registry, one `name | value` row per counter.
    Metrics,
    /// The slow-query ring: the N slowest statement traces, slowest
    /// first, with per-stage spans.
    SlowQueries,
}

/// A statement that failed to parse or resolve; the message is shipped
/// to the client verbatim in an `ErrorResponse`.
#[derive(Debug)]
pub struct ParseWireError(pub String);

impl std::fmt::Display for ParseWireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseWireError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseWireError> {
    Err(ParseWireError(msg.into()))
}

/// Split a simple-query buffer into statements on `;`, dropping empties.
pub fn split_statements(text: &str) -> Vec<&str> {
    text.split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '\''
}

/// Tokenize into identifiers, `?var` references, and single-char
/// punctuation (`(`, `)`, `,`).
fn tokenize(text: &str) -> Result<Vec<Token<'_>>, ParseWireError> {
    let mut tokens = Vec::new();
    let mut chars = text.char_indices().peekable();
    while let Some(&(i, c)) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '?' {
            chars.next();
            let start = i + c.len_utf8();
            let mut end = start;
            while let Some(&(j, d)) = chars.peek() {
                if is_ident_char(d) {
                    end = j + d.len_utf8();
                    chars.next();
                } else {
                    break;
                }
            }
            if end == start {
                return err("'?' must be followed by a variable name");
            }
            tokens.push(Token::Var(&text[start..end]));
        } else if c == '(' || c == ')' || c == ',' {
            chars.next();
            tokens.push(Token::Punct(c));
        } else if is_ident_char(c) {
            let start = i;
            let mut end = i + c.len_utf8();
            chars.next();
            while let Some(&(j, d)) = chars.peek() {
                if is_ident_char(d) {
                    end = j + d.len_utf8();
                    chars.next();
                } else {
                    break;
                }
            }
            tokens.push(Token::Ident(&text[start..end]));
        } else {
            return err(format!("unexpected character '{c}' in statement"));
        }
    }
    Ok(tokens)
}

enum Token<'a> {
    Ident(&'a str),
    Var(&'a str),
    Punct(char),
}

/// Parse one statement against `voc`. The names are only read —
/// unknown predicate or individual names are errors, never interned.
pub fn parse_statement(text: &str, voc: &dyn Names) -> Result<WireStatement, ParseWireError> {
    let trimmed = text.trim();
    let first = trimmed
        .split_whitespace()
        .next()
        .ok_or_else(|| ParseWireError("empty statement".into()))?;
    match first.to_ascii_uppercase().as_str() {
        "SELECT" => parse_query(&trimmed[first.len()..], false, voc),
        "ASK" => parse_query(&trimmed[first.len()..], true, voc),
        "EXPLAIN" => parse_explain(&trimmed[first.len()..], voc),
        "SHOW" => parse_show(&trimmed[first.len()..]),
        "SET" => Ok(WireStatement::Set),
        "PANIC" => Ok(WireStatement::Panic),
        "BEGIN" => parse_txn_control(&trimmed[first.len()..], WireStatement::Begin, "BEGIN"),
        "START" => {
            // `START TRANSACTION` is the SQL-standard spelling of BEGIN.
            let rest = trimmed[first.len()..].trim();
            if rest.eq_ignore_ascii_case("TRANSACTION") {
                Ok(WireStatement::Begin)
            } else {
                err("expected TRANSACTION after START")
            }
        }
        "COMMIT" | "END" => {
            parse_txn_control(&trimmed[first.len()..], WireStatement::Commit, "COMMIT")
        }
        "ROLLBACK" | "ABORT" => {
            parse_txn_control(&trimmed[first.len()..], WireStatement::Rollback, "ROLLBACK")
        }
        "INSERT" => parse_mutate(&trimmed[first.len()..], true, voc),
        "DELETE" => parse_mutate(&trimmed[first.len()..], false, voc),
        other => err(format!(
            "unknown statement '{other}' (expected SELECT, ASK, EXPLAIN, INSERT, \
             DELETE, BEGIN, COMMIT, ROLLBACK, SHOW, SET, or PANIC)"
        )),
    }
}

/// `EXPLAIN ANALYZE <select|ask>`: plain `EXPLAIN` (estimate without
/// running) is deliberately not offered — the cost model's predictions
/// are only interesting next to the measured run.
fn parse_explain(rest: &str, voc: &dyn Names) -> Result<WireStatement, ParseWireError> {
    let rest = rest.trim();
    let first = rest.split_whitespace().next().unwrap_or("");
    if !first.eq_ignore_ascii_case("ANALYZE") {
        return err("expected ANALYZE after EXPLAIN (only EXPLAIN ANALYZE is supported)");
    }
    let rest = rest[first.len()..].trim();
    let verb = rest.split_whitespace().next().unwrap_or("");
    let parsed = match verb.to_ascii_uppercase().as_str() {
        "SELECT" => parse_query(&rest[verb.len()..], false, voc)?,
        "ASK" => parse_query(&rest[verb.len()..], true, voc)?,
        _ => return err("expected SELECT or ASK after EXPLAIN ANALYZE"),
    };
    match parsed {
        WireStatement::Select { cq, .. } => Ok(WireStatement::ExplainAnalyze { cq }),
        _ => err("expected SELECT or ASK after EXPLAIN ANALYZE"),
    }
}

/// `BEGIN`/`COMMIT`/`ROLLBACK` with an optional `TRANSACTION`/`WORK`
/// noise word, nothing else.
fn parse_txn_control(
    rest: &str,
    stmt: WireStatement,
    kw: &str,
) -> Result<WireStatement, ParseWireError> {
    let rest = rest.trim();
    if rest.is_empty()
        || rest.eq_ignore_ascii_case("TRANSACTION")
        || rest.eq_ignore_ascii_case("WORK")
    {
        Ok(stmt)
    } else {
        err(format!("unexpected tokens after {kw}: '{rest}'"))
    }
}

/// `INSERT`/`DELETE` body: comma-separated ground facts. Predicates must
/// exist (by arity); individual arguments are kept as names — `INSERT`
/// may introduce new individuals, which the session interns in its
/// transaction's working set.
fn parse_mutate(
    rest: &str,
    insert: bool,
    voc: &dyn Names,
) -> Result<WireStatement, ParseWireError> {
    let verb = if insert { "INSERT" } else { "DELETE" };
    let tokens = tokenize(rest)?;
    let mut facts = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        let name = match &tokens[pos] {
            Token::Ident(n) => *n,
            _ => return err(format!("expected a predicate name after {verb}")),
        };
        pos += 1;
        if !matches!(tokens.get(pos), Some(Token::Punct('('))) {
            return err(format!("expected '(' after predicate '{name}'"));
        }
        pos += 1;
        let mut args: Vec<String> = Vec::new();
        loop {
            match tokens.get(pos) {
                Some(Token::Ident(ind)) => args.push((*ind).to_string()),
                Some(Token::Var(v)) => {
                    return err(format!("{verb} facts must be ground: '?{v}' is a variable"))
                }
                _ => return err(format!("expected an individual inside '{name}(...)'")),
            }
            pos += 1;
            match tokens.get(pos) {
                Some(Token::Punct(',')) => pos += 1,
                Some(Token::Punct(')')) => {
                    pos += 1;
                    break;
                }
                _ => return err(format!("expected ',' or ')' inside '{name}(...)'")),
            }
        }
        let fact = match args.len() {
            1 => {
                let cid = voc
                    .find_concept(name)
                    .ok_or_else(|| ParseWireError(format!("unknown concept '{name}'")))?;
                FactAtom::Concept(cid, args.pop().unwrap())
            }
            2 => {
                let rid = voc
                    .find_role(name)
                    .ok_or_else(|| ParseWireError(format!("unknown role '{name}'")))?;
                let b = args.pop().unwrap();
                let a = args.pop().unwrap();
                FactAtom::Role(rid, a, b)
            }
            n => {
                return err(format!(
                    "predicate '{name}' has {n} arguments (1 or 2 allowed)"
                ))
            }
        };
        facts.push(fact);
        if matches!(tokens.get(pos), Some(Token::Punct(','))) {
            pos += 1;
            if pos == tokens.len() {
                return err(format!("trailing ',' in {verb} statement"));
            }
        }
    }
    if facts.is_empty() {
        return err(format!("{verb} needs at least one fact"));
    }
    Ok(WireStatement::Mutate { insert, facts })
}

fn parse_show(rest: &str) -> Result<WireStatement, ParseWireError> {
    let topic = match rest.trim().to_ascii_lowercase().as_str() {
        "generation" => ShowTopic::Generation,
        "cache" => ShowTopic::Cache,
        "backend" => ShowTopic::Backend,
        "server_version" => ShowTopic::ServerVersion,
        "transaction" => ShowTopic::Transaction,
        "metrics" => ShowTopic::Metrics,
        "slow_queries" => ShowTopic::SlowQueries,
        other => {
            return err(format!(
                "unknown SHOW topic '{other}' (expected generation, cache, backend, \
                 server_version, transaction, metrics, or slow_queries)"
            ))
        }
    };
    Ok(WireStatement::Show(topic))
}

fn parse_query(rest: &str, is_ask: bool, voc: &dyn Names) -> Result<WireStatement, ParseWireError> {
    // Split on the WHERE keyword (case-insensitive, word boundary).
    let upper = rest.to_ascii_uppercase();
    let where_pos = find_keyword(&upper, "WHERE")
        .ok_or_else(|| ParseWireError("expected WHERE before the query body".into()))?;
    let (head_text, body_text) = (&rest[..where_pos], &rest[where_pos + "WHERE".len()..]);

    // Head: `?x, ?y` for SELECT; must be empty for ASK.
    let mut head_names: Vec<String> = Vec::new();
    let mut vars: HashMap<String, VarId> = HashMap::new();
    let head_tokens = tokenize(head_text)?;
    if is_ask {
        if !head_tokens.is_empty() {
            return err("ASK takes no head variables");
        }
    } else {
        let mut expect_var = true;
        for t in &head_tokens {
            match t {
                Token::Var(name) if expect_var => {
                    if vars.contains_key(*name) {
                        return err(format!("head variable ?{name} repeated"));
                    }
                    let id = VarId(vars.len() as u32);
                    vars.insert((*name).to_string(), id);
                    head_names.push((*name).to_string());
                    expect_var = false;
                }
                Token::Punct(',') if !expect_var => expect_var = true,
                _ => return err("head must be a comma-separated list of ?variables"),
            }
        }
        if head_names.is_empty() || expect_var {
            return err("SELECT needs at least one head ?variable");
        }
    }
    let head: Vec<VarId> = head_names.iter().map(|n| vars[n]).collect();

    // Body: `Name(term)` / `Name(term, term)`, comma-separated.
    let tokens = tokenize(body_text)?;
    let mut atoms = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        let name = match &tokens[pos] {
            Token::Ident(n) => *n,
            _ => return err("expected a predicate name in the query body"),
        };
        pos += 1;
        if !matches!(tokens.get(pos), Some(Token::Punct('('))) {
            return err(format!("expected '(' after predicate '{name}'"));
        }
        pos += 1;
        let mut terms = Vec::new();
        loop {
            let term = match tokens.get(pos) {
                Some(Token::Var(v)) => {
                    let next = VarId(vars.len() as u32);
                    let id = *vars.entry((*v).to_string()).or_insert(next);
                    Term::Var(id)
                }
                Some(Token::Ident(ind)) => {
                    let id = voc
                        .find_individual(ind)
                        .ok_or_else(|| ParseWireError(format!("unknown individual '{ind}'")))?;
                    Term::Const(id)
                }
                _ => return err(format!("expected a term inside '{name}(...)'")),
            };
            terms.push(term);
            pos += 1;
            match tokens.get(pos) {
                Some(Token::Punct(',')) => pos += 1,
                Some(Token::Punct(')')) => {
                    pos += 1;
                    break;
                }
                _ => return err(format!("expected ',' or ')' inside '{name}(...)'")),
            }
        }
        let atom = match terms.len() {
            1 => {
                let cid = voc
                    .find_concept(name)
                    .ok_or_else(|| ParseWireError(format!("unknown concept '{name}'")))?;
                Atom::Concept(cid, terms[0].clone())
            }
            2 => {
                let rid = voc
                    .find_role(name)
                    .ok_or_else(|| ParseWireError(format!("unknown role '{name}'")))?;
                Atom::Role(rid, terms[0].clone(), terms[1].clone())
            }
            n => {
                return err(format!(
                    "predicate '{name}' has {n} arguments (1 or 2 allowed)"
                ))
            }
        };
        atoms.push(atom);
        if matches!(tokens.get(pos), Some(Token::Punct(','))) {
            pos += 1;
            if pos == tokens.len() {
                return err("trailing ',' in query body");
            }
        }
    }
    if atoms.is_empty() {
        return err("query body has no atoms");
    }

    // Every head variable must occur in the body (safety).
    for (name, id) in vars.iter() {
        if head.contains(id) {
            let occurs = atoms.iter().any(|a| match a {
                Atom::Concept(_, t) => t == &Term::Var(*id),
                Atom::Role(_, s, o) => s == &Term::Var(*id) || o == &Term::Var(*id),
            });
            if !occurs {
                return err(format!("head variable ?{name} does not occur in the body"));
            }
        }
    }

    let cq = CQ::with_var_head(head, atoms);
    let head_names = if is_ask {
        vec!["answer".to_string()]
    } else {
        head_names
    };
    Ok(WireStatement::Select { head_names, cq })
}

/// Find `kw` as a standalone word in an already-uppercased string.
fn find_keyword(upper: &str, kw: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = upper[from..].find(kw) {
        let at = from + rel;
        let before_ok = at == 0
            || !upper[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + kw.len();
        let after_ok = after == upper.len()
            || !upper[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + kw.len();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn voc() -> Vocabulary {
        let mut v = Vocabulary::default();
        v.concept("Student");
        v.role("advisor");
        v.individual("alice");
        v
    }

    #[test]
    fn select_parses_concepts_roles_and_constants() {
        let v = voc();
        let stmt = parse_statement("SELECT ?x WHERE Student(?x), advisor(?x, alice)", &v).unwrap();
        match stmt {
            WireStatement::Select { head_names, cq } => {
                assert_eq!(head_names, vec!["x"]);
                assert_eq!(cq.head().len(), 1);
                assert_eq!(cq.atoms().len(), 2);
            }
            _ => panic!("expected Select"),
        }
    }

    #[test]
    fn ask_is_boolean_with_answer_column() {
        let v = voc();
        let stmt = parse_statement("ask where Student(alice)", &v).unwrap();
        match stmt {
            WireStatement::Select { head_names, cq } => {
                assert_eq!(head_names, vec!["answer"]);
                assert!(cq.is_boolean());
            }
            _ => panic!("expected Select"),
        }
    }

    #[test]
    fn errors_are_specific() {
        let v = voc();
        for (text, needle) in [
            ("SELECT ?x WHERE Nope(?x)", "unknown concept"),
            ("SELECT ?x WHERE advisor(?x, bob)", "unknown individual"),
            ("SELECT ?x WHERE advisor(?x)", "unknown concept"),
            ("SELECT ?x WHERE Student(?y)", "does not occur"),
            ("SELECT ?x WHERE", "no atoms"),
            ("SELECT WHERE Student(?x)", "at least one head"),
            ("FROB ?x", "unknown statement"),
            ("SELECT ?x WHERE Student(?x,", "expected"),
        ] {
            let e = parse_statement(text, &v).unwrap_err();
            assert!(
                e.0.contains(needle),
                "{text:?} gave {:?}, wanted substring {needle:?}",
                e.0
            );
        }
    }

    #[test]
    fn show_set_panic_statements() {
        let v = voc();
        assert!(matches!(
            parse_statement("SHOW generation", &v).unwrap(),
            WireStatement::Show(ShowTopic::Generation)
        ));
        assert!(matches!(
            parse_statement("set search_path = public", &v).unwrap(),
            WireStatement::Set
        ));
        assert!(matches!(
            parse_statement("PANIC", &v).unwrap(),
            WireStatement::Panic
        ));
        assert!(parse_statement("SHOW nonsense", &v).is_err());
    }

    #[test]
    fn txn_control_statements_parse() {
        let v = voc();
        for (text, want) in [
            ("BEGIN", "Begin"),
            ("begin transaction", "Begin"),
            ("BEGIN WORK", "Begin"),
            ("START TRANSACTION", "Begin"),
            ("COMMIT", "Commit"),
            ("end work", "Commit"),
            ("ROLLBACK", "Rollback"),
            ("abort transaction", "Rollback"),
        ] {
            let got = match parse_statement(text, &v).unwrap() {
                WireStatement::Begin => "Begin",
                WireStatement::Commit => "Commit",
                WireStatement::Rollback => "Rollback",
                other => panic!("{text:?} parsed to {other:?}"),
            };
            assert_eq!(got, want, "{text:?}");
        }
        assert!(parse_statement("BEGIN nonsense", &v).is_err());
        assert!(parse_statement("START", &v).is_err());
        assert!(parse_statement("COMMIT twice please", &v).is_err());
    }

    #[test]
    fn mutate_statements_keep_individuals_as_names() {
        let v = voc();
        // "bob" is unknown to the vocabulary — legal in INSERT.
        let stmt = parse_statement("INSERT Student(bob), advisor(bob, alice)", &v).unwrap();
        match stmt {
            WireStatement::Mutate { insert, facts } => {
                assert!(insert);
                assert_eq!(facts.len(), 2);
                match &facts[0] {
                    FactAtom::Concept(_, name) => assert_eq!(name, "bob"),
                    other => panic!("expected concept fact, got {other:?}"),
                }
                match &facts[1] {
                    FactAtom::Role(_, a, b) => {
                        assert_eq!(a, "bob");
                        assert_eq!(b, "alice");
                    }
                    other => panic!("expected role fact, got {other:?}"),
                }
            }
            other => panic!("expected Mutate, got {other:?}"),
        }
        assert!(matches!(
            parse_statement("DELETE Student(alice)", &v).unwrap(),
            WireStatement::Mutate { insert: false, .. }
        ));
        // Predicates must exist; facts must be ground.
        for (text, needle) in [
            ("INSERT Nope(bob)", "unknown concept"),
            ("INSERT knows(a, b)", "unknown role"),
            ("INSERT Student(?x)", "must be ground"),
            ("INSERT", "at least one fact"),
            ("DELETE Student(a, b, c)", "3 arguments"),
        ] {
            let e = parse_statement(text, &v).unwrap_err();
            assert!(e.0.contains(needle), "{text:?} gave {:?}", e.0);
        }
    }

    #[test]
    fn show_transaction_parses() {
        let v = voc();
        assert!(matches!(
            parse_statement("SHOW transaction", &v).unwrap(),
            WireStatement::Show(ShowTopic::Transaction)
        ));
    }

    #[test]
    fn statements_split_on_semicolons() {
        assert_eq!(
            split_statements(" SHOW backend ; ; SET a = b ;"),
            vec!["SHOW backend", "SET a = b"]
        );
        assert!(split_statements("  ;; ").is_empty());
    }
}
