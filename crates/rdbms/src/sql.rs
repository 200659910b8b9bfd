//! SQL text generation for all dialects and layouts.
//!
//! The native backend executes `FolQuery` values directly (the SQL
//! backend reads this text back — [`crate::sqlexec`] — and must find
//! the same query in it), but the SQL translation is generated for every
//! statement either way because its *size* is operationally
//! significant: DB2 rejects statements beyond ~2 MB, which
//! is exactly how the Figure-3 failures arise ("The statement is too long
//! or too complex. Current SQL statement size is 2,247,118"). On the
//! DB2RDF layout every atom compiles to a candidate-column `CASE` over the
//! DPH/RPH tables (the layout hashes predicates into `k` column pairs), so
//! reformulations multiply in length — §6.3's observation that the RDF
//! layout plus ontology-based reformulation "yields queries too large for
//! evaluation".
//!
//! JUCQs compile to the `WITH sqlN AS (…) SELECT DISTINCT …` shape of §3.

use std::collections::HashMap;
use std::fmt::Write as _;

use obda_dllite::{PredId, Vocabulary};
use obda_query::{Atom, FolQuery, Slot, Term, VarId, CQ, JUCQ, JUSCQ, SCQ, UCQ, USCQ};

use crate::layout::dph::DPH_COLUMNS;
use crate::layout::LayoutKind;

/// Name snapshot for SQL rendering (decouples the engine from the
/// `Vocabulary`'s lifetime).
#[derive(Debug, Clone, Default)]
pub struct SqlNames {
    concepts: Vec<String>,
    roles: Vec<String>,
    /// `c_<name>` / `r_<name>` → predicate: the way back from the text.
    /// Looked up with names read from SQL, hence the default hasher.
    tables: HashMap<String, PredId>,
}

impl SqlNames {
    pub fn from_vocabulary(voc: &Vocabulary) -> Self {
        let mut names = SqlNames {
            concepts: voc
                .concept_ids()
                .map(|c| voc.concept_name(c).to_owned())
                .collect(),
            roles: voc
                .role_ids()
                .map(|r| voc.role_name(r).to_owned())
                .collect(),
            tables: HashMap::new(),
        };
        for c in voc.concept_ids() {
            names.tables.insert(names.concept(c.0), PredId::Concept(c));
        }
        for r in voc.role_ids() {
            names.tables.insert(names.role(r.0), PredId::Role(r));
        }
        names
    }

    /// The predicate stored in table `name` (`c_<name>` / `r_<name>`).
    pub(crate) fn table(&self, name: &str) -> Option<PredId> {
        self.tables.get(name).copied()
    }

    /// Concept names in id order (`c_<name>` is concept `i`'s table).
    pub fn concept_names(&self) -> &[String] {
        &self.concepts
    }

    /// Role names in id order (`r_<name>` is role `i`'s table).
    pub fn role_names(&self) -> &[String] {
        &self.roles
    }

    fn concept(&self, id: u32) -> String {
        self.concepts
            .get(id as usize)
            .map(|n| format!("c_{n}"))
            .unwrap_or_else(|| format!("c_{id}"))
    }

    fn role(&self, id: u32) -> String {
        self.roles
            .get(id as usize)
            .map(|n| format!("r_{n}"))
            .unwrap_or_else(|| format!("r_{id}"))
    }
}

/// SQL generator for one layout.
#[derive(Debug, Clone)]
pub struct SqlGenerator {
    names: SqlNames,
    layout: LayoutKind,
}

impl SqlGenerator {
    pub fn new(names: SqlNames, layout: LayoutKind) -> Self {
        SqlGenerator { names, layout }
    }

    /// The name snapshot this generator renders with (the `sqlexec`
    /// backend resolves `c_<name>` / `r_<name>` table references
    /// through it).
    pub fn names(&self) -> &SqlNames {
        &self.names
    }

    pub fn layout(&self) -> LayoutKind {
        self.layout
    }

    /// Render any dialect to SQL.
    pub fn generate(&self, q: &FolQuery) -> String {
        match q {
            FolQuery::Cq(cq) => self.cq_sql(cq),
            FolQuery::Ucq(ucq) => self.ucq_sql(ucq),
            FolQuery::Scq(scq) => self.scq_sql(scq),
            FolQuery::Uscq(uscq) => self.uscq_sql(uscq),
            FolQuery::Jucq(jucq) => self.jucq_sql(jucq),
            FolQuery::Juscq(juscq) => self.juscq_sql(juscq),
        }
    }

    // -- leaf table expressions ----------------------------------------

    /// The FROM-clause source of one atom: plain table (simple layout),
    /// predicate-filtered triple table, or the DPH candidate-column CASE.
    fn atom_source(&self, atom: &Atom, alias: &str) -> (String, String, Option<String>) {
        // Returns (source text, subject column, object column).
        match self.layout {
            LayoutKind::Simple => match atom {
                Atom::Concept(c, _) => (
                    format!("{} {alias}", self.names.concept(c.0)),
                    "x".into(),
                    None,
                ),
                Atom::Role(r, _, _) => (
                    format!("{} {alias}", self.names.role(r.0)),
                    "s".into(),
                    Some("o".into()),
                ),
            },
            LayoutKind::Triple => match atom {
                Atom::Concept(c, _) => (
                    format!(
                        "(SELECT subj AS x FROM triples WHERE pred = {}) {alias}",
                        c.0 * 2
                    ),
                    "x".into(),
                    None,
                ),
                Atom::Role(r, _, _) => (
                    format!(
                        "(SELECT subj AS s, obj AS o FROM triples WHERE pred = {}) {alias}",
                        r.0 * 2 + 1
                    ),
                    "s".into(),
                    Some("o".into()),
                ),
            },
            LayoutKind::Dph => match atom {
                Atom::Concept(c, _) => (dph_concept_source(c.0, alias), "x".into(), None),
                Atom::Role(r, _, _) => (dph_role_source(r.0, alias), "s".into(), Some("o".into())),
            },
        }
    }

    // -- dialect renderers ----------------------------------------------

    fn cq_sql(&self, cq: &CQ) -> String {
        self.conjunction_sql(
            &cq.atoms()
                .iter()
                .map(|a| Slot::single(*a))
                .collect::<Vec<_>>(),
            cq.head(),
        )
    }

    fn scq_sql(&self, scq: &SCQ) -> String {
        self.conjunction_sql(scq.slots(), scq.head())
    }

    /// Conjunction of (possibly disjunctive) slots. Disjunctive slots are
    /// inlined as UNION subqueries exposing canonical column names.
    fn conjunction_sql(&self, slots: &[Slot], head: &[Term]) -> String {
        let mut from: Vec<String> = Vec::new();
        let mut wheres: Vec<String> = Vec::new();
        // var → (alias, column) of first binding.
        let mut var_site: Vec<(VarId, String)> = Vec::new();
        for (i, slot) in slots.iter().enumerate() {
            let alias = format!("t{i}");
            if slot.len() == 1 {
                let (source, subj_col, obj_col) = self.atom_source(&slot.atoms()[0], &alias);
                from.push(source);
                let atom = &slot.atoms()[0];
                let cols: Vec<&str> = match atom {
                    Atom::Concept(..) => vec![subj_col.as_str()],
                    Atom::Role(..) => {
                        vec![subj_col.as_str(), obj_col.as_deref().unwrap_or("o")]
                    }
                };
                for (t, col) in atom.terms().zip(cols) {
                    let site = format!("{alias}.{col}");
                    match t {
                        Term::Const(k) => wheres.push(format!("{site} = {}", k.0)),
                        Term::Var(v) => match var_site.iter().find(|(w, _)| *w == v) {
                            Some((_, first)) => wheres.push(format!("{site} = {first}")),
                            None => var_site.push((v, site)),
                        },
                    }
                }
            } else {
                // Disjunctive slots expose one canonical column per
                // shared variable (`v<id>`); constants and repeated
                // variables are constrained inside each union arm, so the
                // outer query binds by *variable* — the executor keys
                // slot extensions the same way (arms may list the shared
                // variables in different positional orders).
                from.push(self.slot_union_source(slot, &alias));
                for v in slot_var_order(slot) {
                    let site = format!("{alias}.v{}", v.0);
                    match var_site.iter().find(|(w, _)| *w == v) {
                        Some((_, first)) => wheres.push(format!("{site} = {first}")),
                        None => var_site.push((v, site)),
                    }
                }
            }
        }
        let select: Vec<String> = head
            .iter()
            .enumerate()
            .map(|(i, t)| match t {
                Term::Const(k) => format!("{} AS h{i}", k.0),
                Term::Var(v) => {
                    let site = var_site
                        .iter()
                        .find(|(w, _)| w == v)
                        .map(|(_, s)| s.clone())
                        .unwrap_or_else(|| "NULL".into());
                    format!("{site} AS h{i}")
                }
            })
            .collect();
        let mut sql = String::new();
        let _ = write!(
            sql,
            "SELECT DISTINCT {}",
            if select.is_empty() {
                "1 AS t".to_owned()
            } else {
                select.join(", ")
            },
        );
        // An empty body (no slots) is the always-true conjunction: a
        // FROM-less SELECT over the implicit single row, like the
        // executor's empty-tuple result.
        if !from.is_empty() {
            let _ = write!(sql, " FROM {}", from.join(", "));
        }
        if !wheres.is_empty() {
            let _ = write!(sql, " WHERE {}", wheres.join(" AND "));
        }
        sql
    }

    /// A disjunctive slot as an inline UNION exposing one aligned column
    /// per shared variable (`v<id>`, in [`slot_var_order`]). Each arm
    /// projects its own term positions onto those variable columns and
    /// applies its own constant / repeated-variable constraints, so arms
    /// with flipped argument order (`r(x,y) ∨ r2(y,x)`) or private
    /// constants stay semantically aligned — running the generated SQL
    /// (the `sqlexec` backend) is what surfaced the earlier positional
    /// form as wrong.
    fn slot_union_source(&self, slot: &Slot, alias: &str) -> String {
        let order = slot_var_order(slot);
        let arms: Vec<String> = slot
            .atoms()
            .iter()
            .map(|a| {
                let (src, s, o) = self.atom_source(a, "u");
                let cols: Vec<String> = match a {
                    Atom::Concept(..) => vec![format!("u.{s}")],
                    Atom::Role(..) => vec![
                        format!("u.{s}"),
                        format!("u.{}", o.as_deref().unwrap_or("o")),
                    ],
                };
                // First column of each variable, plus arm-local
                // constraints (constants, repeated variables).
                let mut bound: Vec<(VarId, usize)> = Vec::new();
                let mut constraints: Vec<String> = Vec::new();
                for (i, t) in a.terms().enumerate() {
                    match t {
                        Term::Const(k) => constraints.push(format!("{} = {}", cols[i], k.0)),
                        Term::Var(v) => match bound.iter().find(|(w, _)| *w == v) {
                            Some((_, first)) => {
                                constraints.push(format!("{} = {}", cols[i], cols[*first]))
                            }
                            None => bound.push((v, i)),
                        },
                    }
                }
                // A fully-ground slot (empty shared variable set, e.g.
                // `C(a) ∨ D(a)`) exposes only an existence marker.
                let sel: Vec<String> = if order.is_empty() {
                    vec!["1 AS t".to_owned()]
                } else {
                    order
                        .iter()
                        .map(|v| {
                            let (_, i) = bound
                                .iter()
                                .find(|(w, _)| w == v)
                                .expect("slot atoms share one variable set");
                            format!("{} AS v{}", cols[*i], v.0)
                        })
                        .collect()
                };
                let mut arm = format!("SELECT {} FROM {src}", sel.join(", "));
                if !constraints.is_empty() {
                    let _ = write!(arm, " WHERE {}", constraints.join(" AND "));
                }
                arm
            })
            .collect();
        format!("({}) {alias}", arms.join(" UNION "))
    }

    fn ucq_sql(&self, ucq: &UCQ) -> String {
        ucq.cqs()
            .iter()
            .map(|cq| self.cq_sql(cq))
            .collect::<Vec<_>>()
            .join("\nUNION\n")
    }

    fn uscq_sql(&self, uscq: &USCQ) -> String {
        uscq.scqs()
            .iter()
            .map(|scq| self.scq_sql(scq))
            .collect::<Vec<_>>()
            .join("\nUNION\n")
    }

    /// The WITH … AS form of §3.
    fn jucq_sql(&self, jucq: &JUCQ) -> String {
        let heads: Vec<Vec<Term>> = jucq
            .components()
            .iter()
            .map(|c| c.head().to_vec())
            .collect();
        let bodies: Vec<String> = jucq.components().iter().map(|c| self.ucq_sql(c)).collect();
        self.with_join_sql(jucq.head(), &heads, &bodies)
    }

    fn juscq_sql(&self, juscq: &JUSCQ) -> String {
        let heads: Vec<Vec<Term>> = juscq
            .components()
            .iter()
            .map(|c| c.head().to_vec())
            .collect();
        let bodies: Vec<String> = juscq
            .components()
            .iter()
            .map(|c| self.uscq_sql(c))
            .collect();
        self.with_join_sql(juscq.head(), &heads, &bodies)
    }

    fn with_join_sql(&self, head: &[Term], comp_heads: &[Vec<Term>], bodies: &[String]) -> String {
        let mut sql = String::from("WITH ");
        for (i, body) in bodies.iter().enumerate() {
            if i > 0 {
                sql.push_str(", ");
            }
            let _ = write!(sql, "sql{i} AS (\n{body}\n)");
        }
        // Join conditions on shared head variables; projection of head.
        let mut var_site: Vec<(VarId, String)> = Vec::new();
        let mut conds: Vec<String> = Vec::new();
        for (i, chead) in comp_heads.iter().enumerate() {
            for (j, t) in chead.iter().enumerate() {
                if let Term::Var(v) = t {
                    let site = format!("sql{i}.h{j}");
                    match var_site.iter().find(|(w, _)| w == v) {
                        Some((_, first)) => conds.push(format!("{site} = {first}")),
                        None => var_site.push((*v, site)),
                    }
                }
            }
        }
        let select: Vec<String> = head
            .iter()
            .map(|t| match t {
                Term::Const(k) => format!("{}", k.0),
                Term::Var(v) => var_site
                    .iter()
                    .find(|(w, _)| w == v)
                    .map(|(_, s)| s.clone())
                    .unwrap_or_else(|| "NULL".into()),
            })
            .collect();
        let from: Vec<String> = (0..bodies.len()).map(|i| format!("sql{i}")).collect();
        let _ = write!(
            sql,
            "\nSELECT DISTINCT {}",
            if select.is_empty() {
                "1".to_owned()
            } else {
                select.join(", ")
            },
        );
        if !from.is_empty() {
            let _ = write!(sql, " FROM {}", from.join(", "));
        }
        if !conds.is_empty() {
            let _ = write!(sql, " WHERE {}", conds.join(" AND "));
        }
        sql
    }
}

/// Canonical column order of a disjunctive slot: the shared variables in
/// the *first* atom's positional order, deduplicated — the same order the
/// executor appends a slot's new variables in.
fn slot_var_order(slot: &Slot) -> Vec<VarId> {
    let mut order = Vec::new();
    for v in slot.atoms()[0].vars() {
        if !order.contains(&v) {
            order.push(v);
        }
    }
    order
}

/// DPH source of a concept atom: CASE over all candidate (pred, val)
/// columns checking the type marker.
fn dph_concept_source(concept: u32, alias: &str) -> String {
    let code = concept * 2;
    let mut preds = Vec::with_capacity(DPH_COLUMNS);
    for k in 0..DPH_COLUMNS {
        preds.push(format!("pred{k} = {code}"));
    }
    format!(
        "(SELECT entity AS x FROM dph WHERE {}) {alias}",
        preds.join(" OR ")
    )
}

/// DPH source of a role atom, following the DB2RDF translation shape \[9\]:
/// per candidate column, resolve the value either inline or — when the
/// column's multi-value flag is set — through the spill/VALUES-table
/// indirection. This per-atom block is what multiplies reformulated SQL
/// into the megabytes (§6.3's "statement too long" failures).
fn dph_role_source(role: u32, alias: &str) -> String {
    let code = role * 2 + 1;
    let mut cases = Vec::with_capacity(DPH_COLUMNS);
    let mut preds = Vec::with_capacity(DPH_COLUMNS);
    for k in 0..DPH_COLUMNS {
        cases.push(format!(
            "WHEN pred{k} = {code} THEN CASE WHEN multi{k} = 1 THEN \
             (SELECT mv.val FROM dph_values mv WHERE mv.key = dph.val{k} AND mv.pred = {code}) \
             ELSE val{k} END"
        ));
        preds.push(format!("pred{k} = {code}"));
    }
    format!(
        "(SELECT entity AS s, CASE {} ELSE NULL END AS o FROM dph WHERE {}) {alias}",
        cases.join(" "),
        preds.join(" OR ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::{ConceptId, RoleId};

    fn names() -> SqlNames {
        let mut voc = Vocabulary::new();
        voc.concept("PhDStudent");
        voc.role("worksWith");
        voc.role("supervisedBy");
        SqlNames::from_vocabulary(&voc)
    }

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    fn sample_cq() -> CQ {
        CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(ConceptId(0), v(0)),
                Atom::Role(RoleId(0), v(0), v(1)),
            ],
        )
    }

    #[test]
    fn simple_layout_cq_sql() {
        let g = SqlGenerator::new(names(), LayoutKind::Simple);
        let sql = g.generate(&FolQuery::Cq(sample_cq()));
        assert!(sql.starts_with("SELECT DISTINCT"));
        assert!(sql.contains("c_PhDStudent t0"));
        assert!(sql.contains("r_worksWith t1"));
        assert!(sql.contains("t1.s = t0.x"), "join condition: {sql}");
    }

    #[test]
    fn jucq_uses_with_clause() {
        let g = SqlGenerator::new(names(), LayoutKind::Simple);
        let comp1 = UCQ::single(CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Concept(ConceptId(0), v(0))],
        ));
        let comp2 = UCQ::single(CQ::with_var_head(
            vec![VarId(0)],
            vec![Atom::Role(RoleId(0), v(0), v(1))],
        ));
        let jucq = JUCQ::new(vec![v(0)], vec![comp1, comp2]);
        let sql = g.generate(&FolQuery::Jucq(jucq));
        assert!(sql.starts_with("WITH sql0 AS ("));
        assert!(sql.contains("sql1 AS ("));
        assert!(sql.contains("SELECT DISTINCT sql0.h0 FROM sql0, sql1"));
        assert!(sql.contains("sql1.h0 = sql0.h0"));
    }

    #[test]
    fn dph_sql_is_much_longer() {
        let simple = SqlGenerator::new(names(), LayoutKind::Simple);
        let dph = SqlGenerator::new(names(), LayoutKind::Dph);
        let q = FolQuery::Cq(sample_cq());
        let s1 = simple.generate(&q);
        let s2 = dph.generate(&q);
        assert!(
            s2.len() > 4 * s1.len(),
            "DPH CASE blowup: {} vs {}",
            s2.len(),
            s1.len()
        );
        assert!(s2.contains("CASE WHEN pred0"));
    }

    #[test]
    fn ucq_arms_joined_by_union() {
        let g = SqlGenerator::new(names(), LayoutKind::Simple);
        let u = UCQ::from_cqs(
            vec![v(0)],
            [
                CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(0), v(0))]),
                CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(1), v(0), v(1))]),
            ],
        );
        let sql = g.generate(&FolQuery::Ucq(u));
        assert_eq!(sql.matches("\nUNION\n").count(), 1);
    }

    #[test]
    fn constants_become_literals() {
        let g = SqlGenerator::new(names(), LayoutKind::Simple);
        let q = CQ::new(
            vec![v(0)],
            vec![Atom::Role(
                RoleId(0),
                v(0),
                Term::Const(obda_dllite::IndividualId(42)),
            )],
        );
        let sql = g.generate(&FolQuery::Cq(q));
        assert!(sql.contains("t0.o = 42"));
    }

    #[test]
    fn boolean_query_selects_marker() {
        let g = SqlGenerator::new(names(), LayoutKind::Simple);
        let q = CQ::with_var_head(vec![], vec![Atom::Concept(ConceptId(0), v(0))]);
        let sql = g.generate(&FolQuery::Cq(q));
        assert!(sql.contains("SELECT DISTINCT 1 AS t"));
    }

    #[test]
    fn triple_layout_filters_by_pred() {
        let g = SqlGenerator::new(names(), LayoutKind::Triple);
        let sql = g.generate(&FolQuery::Cq(sample_cq()));
        assert!(sql.contains("FROM triples WHERE pred ="));
    }
}
