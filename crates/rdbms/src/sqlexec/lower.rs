//! Lowering: a parsed statement of the generated-SQL dialect becomes the
//! [`FolQuery`] the native pipeline plans and runs.
//!
//! This is the inverse of [`crate::sql::SqlGenerator`], computed from the
//! statement alone. Every column of every `FROM` source is a *site*;
//! `WHERE` equalities merge sites into classes; a class is a variable,
//! or the constant it is compared with. A leaf source then reads back as
//! one atom over its sites' classes, a `UNION` subquery as a disjunctive
//! slot, a `SELECT` as a conjunction, a `UNION` chain as a union of
//! conjunctions and a `WITH` statement as a join of such unions. What
//! falls outside the dialect (the module docs list it) is a typed
//! [`SqlError::Exec`] naming the construct; the `CQ`/`UCQ`/`JUCQ`/`Slot`
//! constructors assert on arity and variable sets, so every such
//! condition is checked here first.

use obda_dllite::{ConceptId, IndividualId, PredId, RoleId};
use obda_query::{Atom, FolQuery, Slot, Term, VarId, CQ, JUCQ, JUSCQ, SCQ, UCQ, USCQ};

use crate::layout::dph::DPH_COLUMNS;
use crate::sql::SqlNames;

use super::ast::{Expr, FromItem, Query, Select, SelectItem, SetExpr};
use super::SqlError;

/// Lower one parsed statement. `names` resolves `c_<name>` / `r_<name>`
/// tables and bounds predicate codes. `boolean` settles the one form the
/// text leaves open: the final `SELECT DISTINCT 1` of a `WITH` statement
/// is what the generator prints both for an empty head and for the
/// constant head `(1)`.
pub fn lower(query: &Query, names: &SqlNames, boolean: bool) -> Result<FolQuery, SqlError> {
    let lw = Lowerer { names };
    if !query.ctes.is_empty() {
        return lw.with_statement(query, boolean);
    }
    let (mut arms, _) = lw.union(&query.body)?;
    if let SetExpr::Select(sel) = &query.body {
        require_distinct(sel)?;
        let conj = arms.pop().expect("a SELECT is one arm");
        return Ok(if conj.is_plain() {
            FolQuery::Cq(conj.into_cq())
        } else {
            FolQuery::Scq(conj.into_scq())
        });
    }
    let head = arms[0].head.clone();
    Ok(if arms.iter().all(Conj::is_plain) {
        FolQuery::Ucq(UCQ::from_cqs(head, arms.into_iter().map(Conj::into_cq)))
    } else {
        let scqs = arms.into_iter().map(Conj::into_scq).collect();
        FolQuery::Uscq(USCQ::new(head, scqs))
    })
}

fn unsupported(what: impl std::fmt::Display) -> SqlError {
    SqlError::exec(format!("unsupported {what}"))
}

/// Outside a `UNION` nothing else removes duplicates, and the lowered
/// query answers with a set.
fn require_distinct(sel: &Select) -> Result<(), SqlError> {
    if sel.distinct {
        Ok(())
    } else {
        Err(unsupported("SELECT without DISTINCT outside a UNION"))
    }
}

/// One lowered `SELECT`: a head over (possibly disjunctive) slots.
struct Conj {
    head: Vec<Term>,
    slots: Vec<Slot>,
}

impl Conj {
    fn is_plain(&self) -> bool {
        self.slots.iter().all(|s| s.len() == 1)
    }

    fn into_cq(self) -> CQ {
        CQ::new(self.head, self.slots.iter().map(|s| s.atoms()[0]).collect())
    }

    fn into_scq(self) -> SCQ {
        SCQ::new(self.head, self.slots)
    }
}

/// What a `FROM` item of a conjunction stands for.
enum Rel {
    /// One atom; column `i` is the predicate's position `i`.
    Atom(PredId),
    /// A disjunctive slot; column `i` is its `i`-th shared variable.
    Slot(Vec<SlotArm>),
}

/// One arm of a slot: its atom over variables of its own, and which of
/// them each column of the slot carries.
type SlotArm = (Atom, Vec<VarId>);

/// A leaf source: its predicate and the names of its columns.
type Leaf<'q> = (PredId, Vec<Option<&'q str>>);

/// One `FROM` item resolved: the name it binds, its columns (`None` for
/// a column no name reaches) and what it stands for.
struct Source<'q, R> {
    binding: &'q str,
    cols: Vec<Option<&'q str>>,
    rel: R,
}

enum Item {
    Site(usize),
    Const(u32),
    Null,
}

/// Equality classes over sites. The representative of a class is its
/// smallest site, so numbering variables by representative follows the
/// order of the text.
struct Classes {
    parent: Vec<usize>,
    constant: Vec<Option<u32>>,
}

impl Classes {
    fn new(sites: usize) -> Self {
        Classes {
            parent: (0..sites).collect(),
            constant: vec![None; sites],
        }
    }

    fn find(&self, mut site: usize) -> usize {
        while self.parent[site] != site {
            site = self.parent[site];
        }
        site
    }

    fn constant(&self, site: usize) -> Option<u32> {
        self.constant[self.find(site)]
    }

    fn bind(&mut self, site: usize, k: u32) -> Result<(), SqlError> {
        let root = self.find(site);
        match self.constant[root].replace(k) {
            Some(other) if other != k => Err(unsupported(format!(
                "WHERE: one column equated with both {other} and {k}"
            ))),
            _ => Ok(()),
        }
    }

    fn union(&mut self, a: usize, b: usize) -> Result<(), SqlError> {
        let (a, b) = (self.find(a), self.find(b));
        let (root, child) = (a.min(b), a.max(b));
        if root != child {
            self.parent[child] = root;
            if let Some(k) = self.constant[child] {
                self.bind(root, k)?;
            }
        }
        Ok(())
    }
}

/// A `SELECT` resolved against its sources: who owns each site, which
/// sites are equal, and what the items select.
struct Block<'q, R> {
    sources: Vec<Source<'q, R>>,
    /// First site of each source: site = `offsets[source] + column`.
    offsets: Vec<usize>,
    classes: Classes,
    items: Vec<Item>,
    /// The sole item is the generator's existence marker `1 AS t`.
    marker: bool,
}

impl<'q, R> Block<'q, R> {
    fn resolve(
        sel: &'q Select,
        mut source: impl FnMut(&'q FromItem) -> Result<Source<'q, R>, SqlError>,
    ) -> Result<Self, SqlError> {
        let mut sources: Vec<Source<'q, R>> = Vec::with_capacity(sel.from.len());
        let mut offsets = Vec::with_capacity(sel.from.len());
        let mut sites = 0;
        for item in &sel.from {
            let src = source(item)?;
            if sources.iter().any(|s| s.binding == src.binding) {
                return Err(SqlError::exec(format!(
                    "ambiguous table or alias: {}",
                    src.binding
                )));
            }
            offsets.push(sites);
            sites += src.cols.len();
            sources.push(src);
        }
        let mut block = Block {
            sources,
            offsets,
            classes: Classes::new(sites),
            items: Vec::with_capacity(sel.items.len()),
            marker: is_marker(&sel.items),
        };
        for conjunct in sel.filter.iter().flat_map(Expr::conjuncts) {
            let Expr::Eq(a, b) = conjunct else {
                return Err(unsupported(
                    "WHERE: only a conjunction of `=` comparisons lowers (found OR or a bare term)",
                ));
            };
            match (block.operand(a)?, block.operand(b)?) {
                (Item::Site(x), Item::Site(y)) => block.classes.union(x, y)?,
                (Item::Site(x), Item::Const(k)) | (Item::Const(k), Item::Site(x)) => {
                    block.classes.bind(x, k)?
                }
                _ => return Err(unsupported("WHERE: comparison without a column")),
            }
        }
        if !block.marker {
            for item in &sel.items {
                let it = block.operand(&item.expr)?;
                block.items.push(it);
            }
        }
        Ok(block)
    }

    fn operand(&self, e: &Expr) -> Result<Item, SqlError> {
        match e {
            Expr::Col { table, column } => self.site(table.as_deref(), column).map(Item::Site),
            Expr::Num(n) => Ok(Item::Const(*n)),
            Expr::Null => Ok(Item::Null),
            Expr::Subquery(_) => Err(unsupported(
                "subquery in expression position (only the DPH spill lookup, inside its block)",
            )),
            _ => Err(unsupported(
                "expression: only columns, numbers and NULL are selected or compared",
            )),
        }
    }

    fn site(&self, table: Option<&str>, column: &str) -> Result<usize, SqlError> {
        let mut hits = self
            .sources
            .iter()
            .zip(&self.offsets)
            .filter(|(s, _)| table.is_none_or(|t| t == s.binding))
            .flat_map(|(s, &first)| {
                s.cols
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c == Some(column))
                    .map(move |(j, _)| first + j)
            });
        let shown = || match table {
            Some(t) => format!("{t}.{column}"),
            None => column.to_owned(),
        };
        match (hits.next(), hits.next()) {
            (Some(site), None) => Ok(site),
            (Some(_), Some(_)) => Err(SqlError::exec(format!("ambiguous column: {}", shown()))),
            (None, _) => match table {
                Some(t) if self.sources.iter().all(|s| s.binding != t) => {
                    Err(SqlError::exec(format!("unknown table or alias: {t}")))
                }
                _ => Err(SqlError::exec(format!("unknown column: {}", shown()))),
            },
        }
    }

    /// Which source owns `site`.
    fn owner(&self, site: usize) -> usize {
        self.offsets.partition_point(|&first| first <= site) - 1
    }

    /// Number the variable classes in site order and return the term of
    /// every site, plus the first unused variable id.
    fn terms(&self) -> (Vec<Term>, u32) {
        let sites = self.classes.parent.len();
        let mut terms: Vec<Term> = Vec::with_capacity(sites);
        let mut next = 0;
        for site in 0..sites {
            let root = self.classes.find(site);
            terms.push(match self.classes.constant[root] {
                Some(k) => Term::Const(IndividualId(k)),
                None if root == site => {
                    next += 1;
                    Term::Var(VarId(next - 1))
                }
                None => terms[root],
            });
        }
        (terms, next)
    }

    /// The head the items select. `NULL` is a variable no source binds:
    /// the native pipeline drops such tuples, as SQL answers drop `NULL`.
    fn head(&self, terms: &[Term], mut fresh: u32) -> Vec<Term> {
        self.items
            .iter()
            .map(|item| match item {
                Item::Site(s) => terms[*s],
                Item::Const(k) => Term::Const(IndividualId(*k)),
                Item::Null => {
                    fresh += 1;
                    Term::Var(VarId(fresh - 1))
                }
            })
            .collect()
    }
}

/// `SELECT [DISTINCT] 1 AS t`: what the generator selects when there is
/// no variable to select.
fn is_marker(items: &[SelectItem]) -> bool {
    matches!(items, [SelectItem { expr: Expr::Num(1), alias: Some(t) }] if t == "t")
}

/// The names under which an enclosing query reaches a subquery's
/// columns: those of its first arm.
fn exposed_names(sel: &Select) -> Vec<Option<&str>> {
    if is_marker(&sel.items) {
        return Vec::new();
    }
    sel.items
        .iter()
        .map(|item| match (&item.alias, &item.expr) {
            (Some(alias), _) => Some(alias.as_str()),
            (None, Expr::Col { column, .. }) => Some(column.as_str()),
            _ => None,
        })
        .collect()
}

/// The arms of a `UNION` chain (one for a lone `SELECT`).
fn union_arms(set: &SetExpr) -> Result<Vec<&Select>, SqlError> {
    set.union_arms()
        .into_iter()
        .map(|(arm, all)| match arm {
            _ if all => Err(unsupported("UNION ALL (answers are sets)")),
            SetExpr::Select(sel) => Ok(&**sel),
            SetExpr::Union { .. } => Err(unsupported("nested UNION")),
        })
        .collect()
}

fn atom(pred: PredId, mut args: impl Iterator<Item = Term>) -> Atom {
    let mut next = || args.next().expect("one term per position");
    match pred {
        PredId::Concept(c) => Atom::Concept(c, next()),
        PredId::Role(r) => {
            let s = next();
            Atom::Role(r, s, next())
        }
    }
}

struct Lowerer<'n> {
    names: &'n SqlNames,
}

impl Lowerer<'_> {
    /// A `UNION` chain (or lone `SELECT`) as conjunctions of one arity,
    /// with the column names it exposes.
    fn union<'q>(&self, set: &'q SetExpr) -> Result<(Vec<Conj>, Vec<Option<&'q str>>), SqlError> {
        let selects = union_arms(set)?;
        let mut arms: Vec<Conj> = Vec::with_capacity(selects.len());
        for sel in &selects {
            let conj = self.conjunction(sel)?;
            if let Some(first) = arms.first() {
                if first.head.len() != conj.head.len() {
                    return Err(SqlError::exec(format!(
                        "UNION arity mismatch: {} vs {} columns",
                        first.head.len(),
                        conj.head.len()
                    )));
                }
            }
            arms.push(conj);
        }
        Ok((arms, exposed_names(selects[0])))
    }

    fn conjunction(&self, sel: &Select) -> Result<Conj, SqlError> {
        let block = Block::resolve(sel, |item| self.source(item))?;
        let (terms, fresh) = block.terms();
        let slots = block
            .sources
            .iter()
            .zip(&block.offsets)
            .map(|(src, &first)| match &src.rel {
                Rel::Atom(pred) => Slot::single(atom(*pred, terms[first..].iter().copied())),
                Rel::Slot(arms) => Slot::new(
                    arms.iter()
                        .map(|(atom, cols)| {
                            atom.map_vars(|v| {
                                let j = cols.iter().position(|c| *c == v);
                                terms[first + j.expect("slot_arm: every variable is a column")]
                            })
                        })
                        .collect(),
                ),
            })
            .collect();
        Ok(Conj {
            head: block.head(&terms, fresh),
            slots,
        })
    }

    fn source<'q>(&self, item: &'q FromItem) -> Result<Source<'q, Rel>, SqlError> {
        let atom_source = |(pred, cols)| Source {
            binding: item.binding(),
            cols,
            rel: Rel::Atom(pred),
        };
        let (query, alias) = match item {
            FromItem::Table { name, .. } => return self.table(name).map(atom_source),
            FromItem::Subquery { query, alias } => (query, alias),
        };
        if let SetExpr::Select(sel) = &**query {
            if let Some(leaf) = self.leaf_subquery(sel)? {
                return Ok(atom_source(leaf));
            }
        }
        let mut cols: Option<Vec<Option<&str>>> = None;
        let mut arms = Vec::new();
        for sel in union_arms(query)? {
            let arm = self.slot_arm(sel)?;
            match &cols {
                None => cols = Some(exposed_names(sel)),
                Some(c) if c.len() != arm.1.len() => {
                    return Err(SqlError::exec(format!(
                        "UNION arity mismatch: {} vs {} columns",
                        c.len(),
                        arm.1.len()
                    )))
                }
                Some(_) => {}
            }
            arms.push(arm);
        }
        Ok(Source {
            binding: alias,
            cols: cols.expect("a set expression has an arm"),
            rel: Rel::Slot(arms),
        })
    }

    /// One arm of a disjunctive slot, `SELECT <columns> FROM <leaf> u
    /// [WHERE …]`. The columns must be the atom's variables, once each:
    /// anything else would constrain this arm alone in a way one shared
    /// variable set cannot say.
    fn slot_arm(&self, sel: &Select) -> Result<SlotArm, SqlError> {
        let refuse = |what| unsupported(format!("subquery: a UNION arm in FROM {what}"));
        let block = Block::resolve(sel, |item| match self.leaf(item)? {
            Some((pred, cols)) => Ok(Source {
                binding: item.binding(),
                cols,
                rel: pred,
            }),
            None => Err(refuse("selects from one atom")),
        })?;
        let [leaf] = block.sources.as_slice() else {
            return Err(refuse("selects from one atom"));
        };
        let (terms, fresh) = block.terms();
        let atom = atom(leaf.rel, terms.iter().copied());
        let head = block.head(&terms, fresh);
        let Some(cols) = head.iter().map(|t| t.as_var()).collect::<Option<Vec<_>>>() else {
            return Err(refuse("projects a constant"));
        };
        if (1..cols.len()).any(|j| cols[..j].contains(&cols[j])) {
            return Err(refuse("projects one atom column twice"));
        }
        if atom.vars().any(|v| !cols.contains(&v)) {
            return Err(refuse("leaves an atom column unprojected"));
        }
        if cols.iter().any(|c| atom.vars().all(|v| v != *c)) {
            return Err(refuse("projects NULL"));
        }
        Ok((atom, cols))
    }

    /// The atom a `FROM` item stands for and the names of its columns,
    /// when the item is one of the leaf shapes; `None` for any other
    /// subquery.
    fn leaf<'q>(&self, item: &'q FromItem) -> Result<Option<Leaf<'q>>, SqlError> {
        match item {
            FromItem::Table { name, .. } => self.table(name).map(Some),
            FromItem::Subquery { query, .. } => match &**query {
                SetExpr::Select(sel) => self.leaf_subquery(sel),
                SetExpr::Union { .. } => Ok(None),
            },
        }
    }

    /// A `c_<name>` / `r_<name>` table.
    fn table(&self, name: &str) -> Result<Leaf<'static>, SqlError> {
        match self.names.table(name) {
            Some(pred @ PredId::Concept(_)) => Ok((pred, vec![Some("x")])),
            Some(pred @ PredId::Role(_)) => Ok((pred, vec![Some("s"), Some("o")])),
            None if matches!(name, "triples" | "dph" | "dph_values") => Err(unsupported(format!(
                "table reference: `{name}` is read only through its generated subquery"
            ))),
            None => Err(SqlError::exec(format!("unknown table: {name}"))),
        }
    }

    /// The predicate-filtered `triples` subquery or a DPH
    /// candidate-column block.
    fn leaf_subquery<'q>(&self, sel: &'q Select) -> Result<Option<Leaf<'q>>, SqlError> {
        let [FromItem::Table { name, alias: None }] = sel.from.as_slice() else {
            return Ok(None);
        };
        let code = match name.as_str() {
            "triples" => triple_leaf(sel).ok_or_else(|| {
                unsupported(
                    "`triples` subquery: only `SELECT subj AS x | subj AS s, obj AS o \
                     FROM triples WHERE pred = <code>`",
                )
            })?,
            "dph" => dph_leaf(sel).ok_or_else(|| {
                unsupported(format!(
                    "`dph` subquery: only the generated block (all {DPH_COLUMNS} candidate \
                     columns, one predicate code, spill lookup included)"
                ))
            })?,
            _ => return Ok(None),
        };
        let cols = exposed_names(sel);
        let (pred, known) = match (code % 2, cols.len()) {
            (0, 1) => (
                PredId::Concept(ConceptId(code / 2)),
                self.names.concept_names().len(),
            ),
            (1, 2) => (
                PredId::Role(RoleId(code / 2)),
                self.names.role_names().len(),
            ),
            _ => {
                return Err(SqlError::exec(format!(
                    "predicate code {code} does not have {} column(s)",
                    cols.len()
                )))
            }
        };
        if (code / 2) as usize >= known {
            return Err(SqlError::exec(format!("unknown predicate code: {code}")));
        }
        Ok(Some((pred, cols)))
    }

    /// `WITH sqlN AS (…), … SELECT DISTINCT … FROM sql0, sql1, … WHERE …`:
    /// a join of unions. Every binding is a component, joined exactly
    /// once; the final `WHERE` says which component columns are one
    /// variable.
    fn with_statement(&self, query: &Query, boolean: bool) -> Result<FolQuery, SqlError> {
        let mut components: Vec<Vec<Conj>> = Vec::with_capacity(query.ctes.len());
        let mut columns: Vec<Vec<Option<&str>>> = Vec::with_capacity(query.ctes.len());
        for (i, (name, body)) in query.ctes.iter().enumerate() {
            if query.ctes[..i].iter().any(|(other, _)| other == name) {
                return Err(SqlError::exec(format!("duplicate WITH binding: {name}")));
            }
            let (arms, names) = self.union(body)?;
            components.push(arms);
            columns.push(names);
        }
        let SetExpr::Select(sel) = &query.body else {
            return Err(unsupported(
                "WITH statement: the body is one SELECT over the bindings",
            ));
        };
        require_distinct(sel)?;
        let block = Block::resolve(sel, |item| {
            let bound = match item {
                FromItem::Table { name, .. } => query.ctes.iter().position(|(cte, _)| cte == name),
                FromItem::Subquery { .. } => None,
            };
            match bound {
                Some(i) => Ok(Source {
                    binding: item.binding(),
                    cols: columns[i].clone(),
                    rel: i,
                }),
                None => Err(unsupported(
                    "WITH statement: the final SELECT reads the WITH bindings only",
                )),
            }
        })?;
        let mut joined: Vec<usize> = block.sources.iter().map(|s| s.rel).collect();
        joined.sort_unstable();
        if joined != (0..components.len()).collect::<Vec<_>>() {
            return Err(unsupported(
                "WITH statement: every binding is joined exactly once",
            ));
        }
        // A constant, or an equality inside one component, would have to
        // filter that component's rows; the join of materialized
        // components only matches columns across components.
        let sites = block.classes.parent.len();
        if (0..sites).any(|s| block.classes.constant(s).is_some()) {
            return Err(unsupported(
                "WITH statement: constant comparison in the final WHERE",
            ));
        }
        if (0..sites).any(|s| {
            let root = block.classes.find(s);
            root != s && block.owner(root) == block.owner(s)
        }) {
            return Err(unsupported(
                "WITH statement: equality between two columns of one binding",
            ));
        }
        let (terms, fresh) = block.terms();
        let boolean = boolean
            && matches!(
                sel.items.as_slice(),
                [SelectItem {
                    expr: Expr::Num(1),
                    alias: None
                }]
            );
        let head = if block.marker || boolean {
            Vec::new()
        } else {
            block.head(&terms, fresh)
        };
        // Component heads in binding order, whatever order FROM lists them in.
        let mut heads: Vec<Vec<Term>> = vec![Vec::new(); components.len()];
        for (src, &first) in block.sources.iter().zip(&block.offsets) {
            heads[src.rel] = terms[first..first + src.cols.len()].to_vec();
        }
        // `JUCQ::new` insists that every head variable is exported; a
        // NULL item is one that is not, which only a JUSCQ carries.
        let exported = block.items.iter().all(|item| !matches!(item, Item::Null));
        let plain = components.iter().flatten().all(Conj::is_plain);
        let parts = heads.into_iter().zip(components);
        Ok(if plain && exported {
            let ucqs = parts
                .map(|(h, arms)| UCQ::from_cqs(h, arms.into_iter().map(Conj::into_cq)))
                .collect();
            FolQuery::Jucq(JUCQ::new(head, ucqs))
        } else {
            let uscqs = parts
                .map(|(h, arms)| USCQ::new(h, arms.into_iter().map(Conj::into_scq).collect()))
                .collect();
            FolQuery::Juscq(JUSCQ::new(head, uscqs))
        })
    }
}

// -- leaf shapes ---------------------------------------------------------

fn is_col(e: &Expr, table: Option<&str>, column: &str) -> bool {
    matches!(e, Expr::Col { table: t, column: c } if t.as_deref() == table && c == column)
}

/// `<stem><k>`, e.g. `pred3`.
fn is_indexed_col(e: &Expr, table: Option<&str>, stem: &str, k: usize) -> bool {
    matches!(e, Expr::Col { table: t, column: c } if t.as_deref() == table
        && c.strip_prefix(stem).and_then(|d| d.parse().ok()) == Some(k))
}

fn is_eq(e: &Expr, lhs: impl Fn(&Expr) -> bool, rhs: impl Fn(&Expr) -> bool) -> bool {
    matches!(e, Expr::Eq(a, b) if lhs(a) && rhs(b))
}

fn is_num(n: u32) -> impl Fn(&Expr) -> bool {
    move |e| matches!(e, Expr::Num(m) if *m == n)
}

fn aliased<'q>(item: &'q SelectItem, column: &str) -> Option<&'q str> {
    is_col(&item.expr, None, column)
        .then_some(item.alias.as_deref())
        .flatten()
}

/// The predicate code of `SELECT subj AS x FROM triples WHERE pred = k`
/// or `SELECT subj AS s, obj AS o FROM triples WHERE pred = k`.
fn triple_leaf(sel: &Select) -> Option<u32> {
    let Some(Expr::Eq(l, r)) = &sel.filter else {
        return None;
    };
    let (true, Expr::Num(code)) = (is_col(l, None, "pred"), &**r) else {
        return None;
    };
    match sel.items.as_slice() {
        [s] => aliased(s, "subj"),
        [s, o] => aliased(s, "subj").and(aliased(o, "obj")),
        _ => None,
    }?;
    Some(*code)
}

/// The predicate code of a `dph_concept_source` / `dph_role_source`
/// block, when `sel` is exactly one: every candidate column present,
/// in order, under a single code.
fn dph_leaf(sel: &Select) -> Option<u32> {
    // `pred0 = c OR pred1 = c OR …` parses left-nested.
    let mut disjuncts = Vec::with_capacity(DPH_COLUMNS);
    let mut rest = sel.filter.as_ref()?;
    while let Expr::Or(l, r) = rest {
        disjuncts.push(&**r);
        rest = l;
    }
    disjuncts.push(rest);
    disjuncts.reverse();
    let Expr::Eq(_, first) = disjuncts[0] else {
        return None;
    };
    let Expr::Num(code) = **first else {
        return None;
    };
    let all_candidates = disjuncts.len() == DPH_COLUMNS
        && disjuncts
            .iter()
            .enumerate()
            .all(|(k, d)| is_eq(d, |e| is_indexed_col(e, None, "pred", k), is_num(code)));
    let shape = match sel.items.as_slice() {
        [x] => aliased(x, "entity").is_some(),
        [s, o] => aliased(s, "entity").is_some() && o.alias.is_some() && dph_object(&o.expr, code),
        _ => false,
    };
    (all_candidates && shape).then_some(code)
}

/// `CASE WHEN pred<k> = c THEN <candidate k> … ELSE NULL END`.
fn dph_object(e: &Expr, code: u32) -> bool {
    let Expr::Case { arms, otherwise } = e else {
        return false;
    };
    arms.len() == DPH_COLUMNS
        && matches!(otherwise.as_deref(), Some(Expr::Null))
        && arms.iter().enumerate().all(|(k, (when, then))| {
            is_eq(when, |e| is_indexed_col(e, None, "pred", k), is_num(code))
                && dph_candidate(then, k, code)
        })
}

/// `CASE WHEN multi<k> = 1 THEN (<spill lookup>) ELSE val<k> END`.
fn dph_candidate(e: &Expr, k: usize, code: u32) -> bool {
    let Expr::Case { arms, otherwise } = e else {
        return false;
    };
    let [(when, Expr::Subquery(spill))] = arms.as_slice() else {
        return false;
    };
    is_eq(when, |e| is_indexed_col(e, None, "multi", k), is_num(1))
        && otherwise
            .as_deref()
            .is_some_and(|e| is_indexed_col(e, None, "val", k))
        && dph_spill(spill, k, code)
}

/// `SELECT mv.val FROM dph_values mv WHERE mv.key = dph.val<k> AND
/// mv.pred = c`: all values of a multi-valued entry.
fn dph_spill(q: &SetExpr, k: usize, code: u32) -> bool {
    let SetExpr::Select(sel) = q else {
        return false;
    };
    let ([item], [from @ FromItem::Table { name, .. }], Some(Expr::And(key, pred))) =
        (sel.items.as_slice(), sel.from.as_slice(), &sel.filter)
    else {
        return false;
    };
    let mv = Some(from.binding());
    name == "dph_values"
        && is_col(&item.expr, mv, "val")
        && is_eq(
            key,
            |e| is_col(e, mv, "key"),
            |e| is_indexed_col(e, Some("dph"), "val", k),
        )
        && is_eq(pred, |e| is_col(e, mv, "pred"), is_num(code))
}

#[cfg(test)]
mod tests {
    use super::super::parse;
    use super::*;
    use crate::engine::{Engine, EngineError};
    use crate::layout::testutil::small_abox;
    use crate::layout::LayoutKind;
    use crate::profile::EngineProfile;
    use crate::sql::SqlGenerator;

    /// A = {0, 1}; B = {2}; r = {(0,1), (0,2), (3,2)}; s = {(1,0)}.
    fn engine(layout: LayoutKind) -> Engine {
        let (voc, abox) = small_abox();
        Engine::load(&abox, &voc, layout, EngineProfile::pg_like())
    }

    fn lowered(sql: &str) -> Result<FolQuery, SqlError> {
        let (voc, _) = small_abox();
        lower(&parse(sql)?, &SqlNames::from_vocabulary(&voc), false)
    }

    fn rows(sql: &str) -> Vec<Vec<u32>> {
        let mut rows = engine(LayoutKind::Simple)
            .run_sql(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"))
            .rows;
        rows.sort();
        rows
    }

    /// The statement parses but is refused, with `needle` in the message.
    fn refused(sql: &str, needle: &str) {
        match lowered(sql) {
            Err(SqlError::Exec { message }) => {
                assert!(message.contains(needle), "{sql}: {message}")
            }
            other => panic!("{sql}: expected a refusal naming {needle:?}, got {other:?}"),
        }
    }

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    // -- accepted: ported from the evaluator's own unit tests ------------

    #[test]
    fn scan_project_filter() {
        assert_eq!(rows("SELECT DISTINCT t0.x AS h0 FROM c_A t0"), [[0], [1]]);
        assert_eq!(
            rows("SELECT DISTINCT t0.s AS h0, t0.o AS h1 FROM r_r t0 WHERE t0.s = 0"),
            [[0, 1], [0, 2]]
        );
        assert_eq!(
            lowered("SELECT DISTINCT t0.s AS h0, 7 AS h1 FROM r_r t0 WHERE 2 = t0.o").unwrap(),
            FolQuery::Cq(CQ::new(
                vec![v(0), Term::Const(IndividualId(7))],
                vec![Atom::Role(RoleId(0), v(0), Term::Const(IndividualId(2)))]
            ))
        );
    }

    #[test]
    fn equalities_join_whatever_the_from_order() {
        assert_eq!(
            rows("SELECT DISTINCT t0.x AS h0, t1.o AS h1 FROM c_A t0, r_r t1 WHERE t1.s = t0.x"),
            [[0, 1], [0, 2]]
        );
        // JOIN … ON is the comma form.
        assert_eq!(
            rows("SELECT DISTINCT a.x, b.o FROM c_A a JOIN r_r b ON b.s = a.x"),
            [[0, 1], [0, 2]]
        );
        // The two role atoms come before the concept that links them;
        // the planner orders the join, not the text.
        assert!(rows(
            "SELECT DISTINCT t0.o AS h0 FROM r_r t0, r_s t1, c_A t2 \
             WHERE t1.s = t2.x AND t0.s = t2.x"
        )
        .is_empty());
        // Transitive equalities are one variable.
        assert_eq!(
            lowered("SELECT DISTINCT c.x FROM c_A a, c_A b, c_B c WHERE a.x = b.x AND c.x = b.x")
                .unwrap(),
            FolQuery::Cq(CQ::new(
                vec![v(0)],
                vec![
                    Atom::Concept(ConceptId(0), v(0)),
                    Atom::Concept(ConceptId(1), v(0))
                ]
            ))
        );
    }

    /// A cover fragment need not be connected, so the generator prints
    /// cross products and they lower like anything else.
    #[test]
    fn cross_products_are_accepted() {
        assert_eq!(
            rows("SELECT DISTINCT t0.x AS h0, t1.x AS h1 FROM c_A t0, c_B t1"),
            [[0, 2], [1, 2]]
        );
        assert_eq!(
            rows("SELECT DISTINCT t0.x, t1.x FROM c_A t0 CROSS JOIN c_B t1"),
            [[0, 2], [1, 2]]
        );
    }

    #[test]
    fn unions_are_sets_and_their_arms_are_metered() {
        let sql = "SELECT x AS h0 FROM c_A UNION SELECT s AS h0 FROM r_r";
        assert_eq!(rows(sql), [[0], [1], [3]]);
        let out = engine(LayoutKind::Simple).run_sql(sql).unwrap();
        assert_eq!(out.arm_metrics.len(), 2);
        let scanned: f64 = out.arm_metrics.iter().map(|a| a.scanned).sum();
        assert_eq!(scanned, out.metrics.scanned);
        assert_eq!(out.metrics.output, 3);
        // The same arm twice is one disjunct.
        let FolQuery::Ucq(u) = lowered("SELECT x FROM c_A UNION SELECT a.x FROM c_A a").unwrap()
        else {
            panic!("a UNION of plain arms is a UCQ")
        };
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn with_statements_join_their_bindings() {
        let sql = "WITH sql0 AS (SELECT x AS h0 FROM c_A), sql1 AS (SELECT s AS h0 FROM r_r) \
                   SELECT DISTINCT sql0.h0 FROM sql0, sql1 WHERE sql1.h0 = sql0.h0";
        assert_eq!(rows(sql), [[0]]);
        let FolQuery::Jucq(j) = lowered(sql).unwrap() else {
            panic!("plain components make a JUCQ")
        };
        assert_eq!(j.num_components(), 2);
        assert_eq!(j.components()[0].head(), j.components()[1].head());
        // FROM may list the bindings in any order, under aliases.
        assert_eq!(
            rows(
                "WITH p AS (SELECT x AS h0 FROM c_A), q AS (SELECT s AS h0, o AS h1 FROM r_r) \
                 SELECT DISTINCT b.h1, 9 FROM q b, p a WHERE a.h0 = b.h0"
            ),
            [[1, 9], [2, 9]]
        );
    }

    #[test]
    fn the_marker_is_the_empty_head_and_null_answers_nothing() {
        assert_eq!(rows("SELECT DISTINCT 1 AS t"), [Vec::<u32>::new()]);
        assert_eq!(
            rows("SELECT DISTINCT 1 AS t FROM r_s t0"),
            [Vec::<u32>::new()]
        );
        assert!(rows("SELECT DISTINCT 1 AS t FROM r_s t0 WHERE t0.s = t0.o").is_empty());
        assert_eq!(rows("SELECT DISTINCT 1 AS h0 FROM c_B"), [[1]]);
        assert!(rows("SELECT DISTINCT NULL AS h0 FROM c_A").is_empty());
        assert!(rows("SELECT DISTINCT t0.x AS h0, NULL AS h1 FROM c_A t0").is_empty());
    }

    /// `SELECT DISTINCT 1` closes a WITH statement for the empty head
    /// and for the head `(1)` alike; the caller says which.
    #[test]
    fn the_final_select_of_a_boolean_join_needs_the_flag() {
        let (voc, _) = small_abox();
        let names = SqlNames::from_vocabulary(&voc);
        let parsed =
            parse("WITH sql0 AS (SELECT DISTINCT 1 AS t FROM c_A t0) SELECT DISTINCT 1 FROM sql0")
                .unwrap();
        assert!(lower(&parsed, &names, true).unwrap().head().is_empty());
        assert_eq!(
            lower(&parsed, &names, false).unwrap().head(),
            [Term::Const(IndividualId(1))]
        );
    }

    #[test]
    fn union_subqueries_are_disjunctive_slots() {
        // A(x) ∧ (r(x, y) ∨ s(y, x)): the arms list the shared variables
        // in opposite column order.
        let sql = "SELECT DISTINCT t0.x AS h0, t1.v1 AS h1 FROM c_A t0, \
                   (SELECT u.s AS v0, u.o AS v1 FROM r_r u \
                    UNION SELECT u.o AS v0, u.s AS v1 FROM r_s u) t1 WHERE t1.v0 = t0.x";
        let FolQuery::Scq(scq) = lowered(sql).unwrap() else {
            panic!("a slot makes an SCQ")
        };
        assert_eq!(
            scq.slots()[1].atoms(),
            [
                Atom::Role(RoleId(0), v(0), v(1)),
                Atom::Role(RoleId(1), v(1), v(0))
            ]
        );
        assert_eq!(rows(sql), [[0, 1], [0, 2]]);
        // Arm-local constants and repeated variables stay in their arm;
        // a ground slot is an existence check.
        let sql = "SELECT DISTINCT t0.x AS h0 FROM c_A t0, \
                   (SELECT 1 AS t FROM c_A u WHERE u.x = 2 UNION SELECT 1 AS t FROM c_B u WHERE u.x = 2) t1, \
                   (SELECT u.s AS v0 FROM r_r u WHERE u.o = 1 UNION SELECT u.s AS v0 FROM r_s u WHERE u.o = u.s) t2 \
                   WHERE t2.v0 = t0.x";
        assert_eq!(rows(sql), [[0]]);
    }

    /// All three leaf shapes denote the same atom, on any layout.
    #[test]
    fn every_leaf_shape_lowers_on_every_layout() {
        let (voc, _) = small_abox();
        let q = FolQuery::Cq(CQ::new(
            vec![v(0), v(1)],
            vec![
                Atom::Concept(ConceptId(0), v(0)),
                Atom::Role(RoleId(0), v(0), v(1)),
            ],
        ));
        for text_of in [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph] {
            let sql = SqlGenerator::new(SqlNames::from_vocabulary(&voc), text_of).generate(&q);
            assert_eq!(lowered(&sql).unwrap(), q, "{text_of:?}");
            for run_on in [LayoutKind::Simple, LayoutKind::Triple, LayoutKind::Dph] {
                let mut rows = engine(run_on).run_sql(&sql).unwrap().rows;
                rows.sort();
                assert_eq!(rows, [[0, 1], [0, 2]], "{text_of:?} text on {run_on:?}");
            }
        }
    }

    /// The predicate-filtered `triples` subquery is the role's extent
    /// scan — what the evaluator's pushed-down filter imitated.
    #[test]
    fn a_triples_leaf_scans_one_extent() {
        let e = engine(LayoutKind::Triple);
        let out = e
            .run_sql("SELECT DISTINCT t.s, t.o FROM (SELECT subj AS s, obj AS o FROM triples WHERE pred = 1) t")
            .unwrap();
        assert_eq!(out.rows.len(), 3);
        let native = e
            .evaluate(&FolQuery::Cq(CQ::new(
                vec![v(0), v(1)],
                vec![Atom::Role(RoleId(0), v(0), v(1))],
            )))
            .unwrap();
        assert_eq!(out.metrics.scanned, native.metrics.scanned);
        assert!(out.metrics.scanned < 7.0, "not the whole triple table");
    }

    /// A multi-valued DPH entry answers with all its values: the spill
    /// lookup is part of the block, not something to evaluate.
    #[test]
    fn a_dph_role_block_answers_multi_valued_entries() {
        let mut voc = obda_dllite::Vocabulary::new();
        let r = voc.role("r");
        let s = voc.individual("s");
        let mut abox = obda_dllite::ABox::new();
        for i in 0..3 {
            let o = voc.individual(&format!("o{i}"));
            abox.assert_role(r, s, o);
        }
        let e = Engine::load(&abox, &voc, LayoutKind::Dph, EngineProfile::pg_like());
        let q = FolQuery::Cq(CQ::new(
            vec![v(1)],
            vec![Atom::Role(r, Term::Const(s), v(1))],
        ));
        let mut rows = e.run_sql(&e.sql_for(&q)).unwrap().rows;
        rows.sort();
        assert_eq!(rows, [[1], [2], [3]]);
    }

    // -- refused, case by case ------------------------------------------

    #[test]
    fn unknown_and_ambiguous_names() {
        refused("SELECT DISTINCT x FROM nope", "unknown table: nope");
        refused("SELECT DISTINCT x FROM c_Nope", "unknown table: c_Nope");
        refused(
            "SELECT DISTINCT t0.nope FROM c_A t0",
            "unknown column: t0.nope",
        );
        refused("SELECT DISTINCT nope FROM c_A t0", "unknown column: nope");
        refused(
            "SELECT DISTINCT t9.x FROM c_A t0",
            "unknown table or alias: t9",
        );
        refused("SELECT DISTINCT x FROM c_A a, c_B b", "ambiguous column: x");
        refused(
            "SELECT DISTINCT t.x FROM c_A t, c_B t",
            "ambiguous table or alias: t",
        );
        refused(
            "SELECT DISTINCT t.x FROM (SELECT subj AS x FROM triples WHERE pred = 40) t",
            "unknown predicate code: 40",
        );
        refused(
            "SELECT DISTINCT t.x FROM (SELECT subj AS x FROM triples WHERE pred = 1) t",
            "does not have 1 column",
        );
        // The engine reports the same thing as a SQL error.
        assert!(matches!(
            engine(LayoutKind::Simple).run_sql("SELECT DISTINCT x FROM nope"),
            Err(EngineError::Sql(SqlError::Exec { .. }))
        ));
    }

    #[test]
    fn union_arity_and_union_all() {
        refused(
            "SELECT x AS h0 FROM c_A UNION SELECT s AS h0, o AS h1 FROM r_r",
            "UNION arity mismatch: 1 vs 2",
        );
        refused(
            "SELECT DISTINCT t.v0 FROM (SELECT u.x AS v0 FROM c_A u \
             UNION SELECT u.s AS v0, u.o AS v1 FROM r_r u) t",
            "UNION arity mismatch: 1 vs 2",
        );
        refused(
            "SELECT x AS h0 FROM c_A UNION ALL SELECT x AS h0 FROM c_A",
            "unsupported UNION ALL",
        );
        // Outside a UNION only DISTINCT makes the answer a set.
        refused("SELECT x AS h0 FROM c_A", "SELECT without DISTINCT");
    }

    #[test]
    fn where_is_a_conjunction_of_equalities() {
        refused(
            "SELECT DISTINCT t0.s FROM r_r t0 WHERE t0.s = 0 OR t0.o = 2",
            "unsupported WHERE",
        );
        refused(
            "SELECT DISTINCT t0.s FROM r_r t0 WHERE t0.s",
            "unsupported WHERE",
        );
        refused(
            "SELECT DISTINCT t0.s FROM r_r t0 WHERE 1 = 1",
            "unsupported WHERE",
        );
        refused(
            "SELECT DISTINCT t0.s FROM r_r t0 WHERE t0.s = NULL",
            "unsupported WHERE",
        );
        refused(
            "SELECT DISTINCT t0.s FROM r_r t0 WHERE t0.s = 1 AND t0.o = t0.s AND t0.o = 2",
            "equated with both 1 and 2",
        );
        // A comparison the dialect has no token for never parses.
        assert!(matches!(
            lowered("SELECT DISTINCT t0.s FROM r_r t0 WHERE t0.s < 1"),
            Err(SqlError::Tokenize { .. })
        ));
    }

    #[test]
    fn expressions_outside_the_leaf_shapes() {
        // The evaluator expanded a correlated subquery per value; only
        // the DPH spill lookup, inside its block, has that meaning now.
        refused(
            "SELECT DISTINCT t0.x AS h0, (SELECT u.o FROM r_r u WHERE u.s = t0.x) AS h1 FROM c_A t0",
            "unsupported subquery in expression position",
        );
        refused(
            "SELECT DISTINCT CASE WHEN t0.x = 1 THEN 2 ELSE 3 END FROM c_A t0",
            "unsupported expression",
        );
        refused(
            "SELECT DISTINCT s FROM triples",
            "unsupported table reference",
        );
        refused(
            "SELECT DISTINCT t.x FROM (SELECT obj AS x FROM triples WHERE pred = 1) t",
            "unsupported `triples` subquery",
        );
        refused(
            "SELECT DISTINCT t.x FROM (SELECT subj AS x FROM triples) t",
            "unsupported `triples` subquery",
        );
    }

    #[test]
    fn a_damaged_dph_block_is_refused() {
        let (voc, _) = small_abox();
        let generator = SqlGenerator::new(SqlNames::from_vocabulary(&voc), LayoutKind::Dph);
        let concept = generator.generate(&FolQuery::Cq(CQ::new(
            vec![v(0)],
            vec![Atom::Concept(ConceptId(1), v(0))],
        )));
        let role = generator.generate(&FolQuery::Cq(CQ::new(
            vec![v(0)],
            vec![Atom::Role(RoleId(1), v(0), v(1))],
        )));
        assert!(lowered(&concept).is_ok() && lowered(&role).is_ok());
        for damaged in [
            // a candidate column missing from the filter
            concept.replace(" OR pred7 = 2", ""),
            // … or filtered under another code
            concept.replace("pred3 = 2", "pred3 = 0"),
            // a candidate arm missing from the CASE
            role.replacen("WHEN pred0 = 3 THEN CASE WHEN multi0 = 1 THEN (SELECT mv.val FROM dph_values mv WHERE mv.key = dph.val0 AND mv.pred = 3) ELSE val0 END ", "", 1),
            // a spill lookup for another column
            role.replace("mv.key = dph.val5", "mv.key = dph.val4"),
            // no spill lookup at all
            role.replace("CASE WHEN multi2 = 1 THEN (SELECT mv.val FROM dph_values mv WHERE mv.key = dph.val2 AND mv.pred = 3) ELSE val2 END", "val2"),
        ] {
            assert!(damaged != concept && damaged != role, "the edit applied");
            refused(&damaged, "unsupported `dph` subquery");
        }
    }

    #[test]
    fn slot_arms_bind_one_shared_variable_set() {
        let slot = |arms: &str| format!("SELECT DISTINCT t.v0 FROM ({arms}) t");
        refused(
            &slot("SELECT u.x AS v0 FROM c_B u UNION SELECT u.x AS v0 FROM c_A u, c_B w"),
            "selects from one atom",
        );
        refused(
            &slot("SELECT u.s AS v0 FROM r_r u UNION SELECT u.x AS v0 FROM c_A u"),
            "leaves an atom column unprojected",
        );
        refused(
            &slot("SELECT u.x AS v0, u.x AS v1 FROM c_A u UNION SELECT u.s AS v0, u.o AS v1 FROM r_r u"),
            "projects one atom column twice",
        );
        refused(
            &slot("SELECT u.s AS v0 FROM r_r u WHERE u.s = 1 AND u.o = 2 UNION SELECT u.x AS v0 FROM c_A u"),
            "projects a constant",
        );
        refused(
            &slot("SELECT 5 AS v0 FROM c_A u WHERE u.x = 5 UNION SELECT u.x AS v0 FROM c_A u"),
            "projects a constant",
        );
        refused(
            &slot("SELECT u.x AS v0, NULL AS v1 FROM c_A u UNION SELECT u.s AS v0, u.o AS v1 FROM r_r u"),
            "projects NULL",
        );
        // An arm cannot reach outside itself.
        refused(
            "SELECT DISTINCT t0.x FROM c_A t0, (SELECT u.s AS v0 FROM r_r u WHERE u.o = t0.x \
             UNION SELECT u.s AS v0 FROM r_s u WHERE u.o = 1) t1 WHERE t1.v0 = t0.x",
            "unknown table or alias: t0",
        );
    }

    #[test]
    fn with_statements_outside_the_generated_shape() {
        let ctes =
            "WITH sql0 AS (SELECT x AS h0 FROM c_A), sql1 AS (SELECT s AS h0, o AS h1 FROM r_r)";
        refused(
            &format!("{ctes} SELECT DISTINCT sql0.h0 FROM sql0"),
            "every binding is joined exactly once",
        );
        refused(
            &format!("{ctes} SELECT DISTINCT a.h0 FROM sql0 a, sql0 b, sql1 WHERE b.h0 = a.h0"),
            "every binding is joined exactly once",
        );
        refused(
            &format!("{ctes} SELECT DISTINCT sql0.h0 FROM sql0, sql1, c_B"),
            "reads the WITH bindings only",
        );
        refused(
            &format!("{ctes} SELECT DISTINCT sql0.h0 FROM sql0, sql1 WHERE sql1.h0 = 0"),
            "constant comparison in the final WHERE",
        );
        refused(
            &format!("{ctes} SELECT DISTINCT sql0.h0 FROM sql0, sql1 WHERE sql1.h0 = sql1.h1"),
            "two columns of one binding",
        );
        refused(
            &format!("{ctes} SELECT sql0.h0 FROM sql0, sql1 WHERE sql1.h0 = sql0.h0"),
            "SELECT without DISTINCT",
        );
        refused(
            &format!("{ctes} SELECT DISTINCT sql0.h0 FROM sql0, sql1 UNION SELECT DISTINCT sql0.h0 FROM sql0, sql1"),
            "the body is one SELECT",
        );
        refused(
            "WITH a AS (SELECT x AS h0 FROM c_A), a AS (SELECT x AS h0 FROM c_B) \
             SELECT DISTINCT a.h0 FROM a",
            "duplicate WITH binding: a",
        );
        // A binding cannot read another.
        refused(
            "WITH a AS (SELECT x AS h0 FROM c_A), b AS (SELECT h0 FROM a) \
             SELECT DISTINCT a.h0 FROM a, b WHERE b.h0 = a.h0",
            "unknown table: a",
        );
    }

    /// An unexported head variable (NULL in the final select) is legal
    /// in a JUSCQ only; the statement lowers to one and answers nothing.
    #[test]
    fn an_unexported_head_variable_makes_a_juscq() {
        let sql = "WITH sql0 AS (SELECT DISTINCT t0.x AS h0 FROM c_A t0) \
                   SELECT DISTINCT sql0.h0, NULL FROM sql0";
        assert!(matches!(lowered(sql).unwrap(), FolQuery::Juscq(_)));
        assert!(rows(sql).is_empty());
    }
}
