//! Abstract syntax of the generated-SQL dialect.
//!
//! Statements are queries only (the engine's data lives in the layouts;
//! there is no DML): an optional `WITH` prologue of named common table
//! expressions, then a `UNION [ALL]` chain of `SELECT`s — the three
//! statement shapes `crate::sql` emits (plain conjunction, UCQ union,
//! JUCQ `WITH … AS`).

/// A full statement: CTE prologue + set-expression body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// `WITH name AS (…)` bindings, in order (a binding may not
    /// reference another in the generated dialect).
    pub ctes: Vec<(String, SetExpr)>,
    pub body: SetExpr,
}

/// A set expression: one `SELECT`, or a `UNION [ALL]` chain.
///
/// Union chains are stored *flat* (one `Vec` of arms, left to right)
/// rather than as nested binary nodes: reformulated UCQs reach hundreds
/// or thousands of arms, and a left-nested representation would recurse
/// that deep in lowering and drop glue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetExpr {
    Select(Box<Select>),
    /// `arms[0] UNION[ ALL] arms[1] UNION[ ALL] arms[2] …`,
    /// left-associative. Each arm carries the flag of the `UNION` that
    /// *precedes* it (`true` = `UNION ALL`); the first arm's flag is
    /// always `false`.
    Union {
        arms: Vec<(SetExpr, bool)>,
    },
}

impl SetExpr {
    /// The arms of the union chain, left to right (a single `SELECT`
    /// yields one arm), each with the flag of the `UNION` before it.
    pub fn union_arms(&self) -> Vec<(&SetExpr, bool)> {
        match self {
            SetExpr::Select(_) => vec![(self, false)],
            SetExpr::Union { arms } => arms.iter().map(|(a, all)| (a, *all)).collect(),
        }
    }
}

/// One `SELECT` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Select {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    /// `FROM` sources; empty for the FROM-less always-true select the
    /// generator emits for empty conjunction bodies.
    pub from: Vec<FromItem>,
    pub filter: Option<Expr>,
}

/// `expr [AS alias]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectItem {
    pub expr: Expr,
    pub alias: Option<String>,
}

/// One `FROM` source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FromItem {
    /// A base table or CTE reference, optionally aliased
    /// (`c_PhDStudent t0`, `triples`, `sql0`).
    Table { name: String, alias: Option<String> },
    /// An inline subquery with its mandatory alias (`(SELECT …) t0`).
    Subquery { query: Box<SetExpr>, alias: String },
}

impl FromItem {
    /// The name this source binds in the row namespace: the alias if
    /// given, else the table name itself (`FROM dph` exposes `dph.entity`).
    pub fn binding(&self) -> &str {
        match self {
            FromItem::Table { name, alias } => alias.as_deref().unwrap_or(name),
            FromItem::Subquery { alias, .. } => alias,
        }
    }
}

/// Scalar / boolean expressions. The dialect has one comparison (`=`),
/// `AND`/`OR`, `CASE`, integer literals, `NULL`, column references, and
/// scalar subqueries (the DPH spill lookup).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    Col {
        table: Option<String>,
        column: String,
    },
    Num(u32),
    Null,
    Case {
        /// `WHEN cond THEN value` arms in order.
        arms: Vec<(Expr, Expr)>,
        otherwise: Option<Box<Expr>>,
    },
    /// A parenthesized subquery in expression position. In this dialect
    /// it denotes the *set* of values the subquery returns: the DB2RDF
    /// spill lookup resolves a multi-valued column through it, and that
    /// is the only place lowering accepts one.
    Subquery(Box<SetExpr>),
    Eq(Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Split a conjunction into its top-level conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::And(a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            other => vec![other],
        }
    }
}
