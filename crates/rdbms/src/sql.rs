//! SQL text generation for all dialects and layouts.
//!
//! The native backend executes `FolQuery` values directly (the SQL
//! backend reads this text back — [`crate::sqlexec`] — and must find
//! the same query in it), but the translation's *size* matters on both:
//! DB2 rejects statements beyond ~2 MB, which is exactly how the
//! Figure-3 failures arise ("The statement is too long or too complex.
//! Current SQL statement size is 2,247,118"). One renderer writes into a
//! [`fmt::Write`] sink: a `String` for the text ([`SqlGenerator::generate`]),
//! a byte counter for its length alone ([`SqlGenerator::sql_len`]). On the
//! DB2RDF layout every atom compiles to a candidate-column `CASE` over the
//! DPH/RPH tables (the layout hashes predicates into `k` column pairs), so
//! reformulations multiply in length — §6.3's observation that the RDF
//! layout plus ontology-based reformulation "yields queries too large for
//! evaluation".
//!
//! JUCQs compile to the `WITH sqlN AS (…) SELECT DISTINCT …` shape of §3.

use std::collections::HashMap;
use std::fmt;

use obda_dllite::{PredId, Vocabulary};
use obda_query::{Atom, Conjunct, Conjunction, FolQuery, Join, Term, Union, VarId, Visitor};

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
        let concepts = voc
            .concept_ids()
            .map(|c| (format!("c_{}", voc.concept_name(c)), PredId::Concept(c)));
        let roles = voc
            .role_ids()
            .map(|r| (format!("r_{}", voc.role_name(r)), PredId::Role(r)));
        SqlNames {
            concepts: voc
                .concept_ids()
                .map(|c| voc.concept_name(c).to_owned())
                .collect(),
            roles: voc
                .role_ids()
                .map(|r| voc.role_name(r).to_owned())
                .collect(),
            tables: concepts.chain(roles).collect(),
        }
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

    /// Write the table of `atom`'s predicate: `c_<name>` / `r_<name>`,
    /// or the id where the snapshot has no name for it.
    fn write_table(&self, w: &mut impl fmt::Write, atom: &Atom) -> fmt::Result {
        let (prefix, names, id) = match atom {
            Atom::Concept(c, _) => ("c_", &self.concepts, c.0),
            Atom::Role(r, _, _) => ("r_", &self.roles, r.0),
        };
        match names.get(id as usize) {
            Some(name) => write!(w, "{prefix}{name}"),
            None => write!(w, "{prefix}{id}"),
        }
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

    /// Render any dialect to SQL.
    pub fn generate(&self, q: &FolQuery) -> String {
        let mut sql = String::new();
        self.render(q, &mut sql);
        sql
    }

    /// The length in bytes of [`SqlGenerator::generate`]'s text: the same
    /// renderer, writing into a counter instead of a string.
    pub fn sql_len(&self, q: &FolQuery) -> usize {
        let mut bytes = ByteCount(0);
        self.render(q, &mut bytes);
        bytes.0
    }

    fn render(&self, q: &FolQuery, w: &mut impl fmt::Write) {
        q.visit(&mut Render { gen: self, w })
            .expect("a String or a byte count takes every write");
    }

    /// Write the FROM-clause source of one atom: plain table (simple
    /// layout), predicate-filtered triple table, or the DPH
    /// candidate-column CASE, exposing [`columns`]`(atom)`.
    fn write_source(
        &self,
        w: &mut impl fmt::Write,
        atom: &Atom,
        alias: impl fmt::Display,
    ) -> fmt::Result {
        match (self.layout, atom) {
            (LayoutKind::Simple, _) => {
                self.names.write_table(w, atom)?;
                write!(w, " {alias}")
            }
            (LayoutKind::Triple, Atom::Concept(c, _)) => write!(
                w,
                "(SELECT subj AS x FROM triples WHERE pred = {}) {alias}",
                c.0 * 2
            ),
            (LayoutKind::Triple, Atom::Role(r, _, _)) => write!(
                w,
                "(SELECT subj AS s, obj AS o FROM triples WHERE pred = {}) {alias}",
                r.0 * 2 + 1
            ),
            (LayoutKind::Dph, Atom::Concept(c, _)) => {
                w.write_str("(SELECT entity AS x FROM dph WHERE ")?;
                write_dph_preds(w, c.0 * 2)?;
                write!(w, ") {alias}")
            }
            (LayoutKind::Dph, Atom::Role(r, _, _)) => write_dph_role(w, r.0 * 2 + 1, alias),
        }
    }
}

/// A [`fmt::Write`] sink that keeps only the length of what it is given.
struct ByteCount(usize);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// A column a term is read from: an atom's own column in slot `i`
/// (`t<i>.x`, `.s`, `.o`), a disjunctive slot's variable column
/// (`t<i>.v<id>`), a join component's head position (`sql<i>.h<j>`), or
/// a column of a disjunctive slot's union arm (`u.x`, `.s`, `.o`).
#[derive(Clone, Copy, PartialEq)]
enum Site {
    Col(usize, &'static str),
    Var(usize, VarId),
    Head(usize, usize),
    Arm(&'static str),
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Site::Col(i, col) => write!(f, "t{i}.{col}"),
            Site::Var(i, v) => write!(f, "t{i}.v{}", v.0),
            Site::Head(i, j) => write!(f, "sql{i}.h{j}"),
            Site::Arm(col) => write!(f, "u.{col}"),
        }
    }
}

/// The columns an atom's source exposes, one per argument, with the
/// term each carries.
fn columns(atom: &Atom) -> impl Iterator<Item = (&'static str, Term)> + '_ {
    let names: &[&str] = match atom {
        Atom::Concept(..) => &["x"],
        Atom::Role(..) => &["s", "o"],
    };
    names.iter().copied().zip(atom.terms())
}

/// The sites slot `i` binds, with the term each carries: a single atom's
/// own columns, or a disjunctive slot's one column per shared variable.
/// Either way there are at most two.
fn slot_sites(i: usize, atoms: &[Atom]) -> impl Iterator<Item = (Site, Term)> {
    let mut sites = [None, None];
    if let [atom] = atoms {
        for (k, (col, t)) in columns(atom).enumerate() {
            sites[k] = Some((Site::Col(i, col), t));
        }
    } else {
        for (k, v) in slot_var_order(&atoms[0]).enumerate() {
            sites[k] = Some((Site::Var(i, v), Term::Var(v)));
        }
    }
    sites.into_iter().flatten()
}

/// The first of `sites` that binds `v`: where the query reads it, and
/// what every later site of `v` is equated with.
fn first_site(mut sites: impl Iterator<Item = (Site, Term)>, v: VarId) -> Option<Site> {
    sites
        .find(|&(_, t)| t == Term::Var(v))
        .map(|(site, _)| site)
}

/// `SELECT DISTINCT` and the head: each variable read at its first site
/// (`NULL` where none binds it), each constant as a literal, position
/// `i` named `h<i>` when `named`. An empty head selects the marker `1`.
fn write_select<I: Iterator<Item = (Site, Term)>>(
    w: &mut impl fmt::Write,
    head: &[Term],
    sites: impl Fn() -> I,
    named: bool,
) -> fmt::Result {
    w.write_str("SELECT DISTINCT ")?;
    if head.is_empty() {
        w.write_str(if named { "1 AS t" } else { "1" })?;
    }
    for (i, t) in head.iter().enumerate() {
        if i > 0 {
            w.write_str(", ")?;
        }
        match *t {
            Term::Const(k) => write!(w, "{}", k.0)?,
            Term::Var(v) => match first_site(sites(), v) {
                Some(site) => write!(w, "{site}")?,
                None => w.write_str("NULL")?,
            },
        }
        if named {
            write!(w, " AS h{i}")?;
        }
    }
    Ok(())
}

/// The `WHERE` clause of `sites`: a constant's site equals the
/// constant, a variable's later sites equal its first.
fn write_where<I: Iterator<Item = (Site, Term)>>(
    w: &mut impl fmt::Write,
    sites: impl Fn() -> I,
) -> fmt::Result {
    let mut lead = " WHERE ";
    for (site, t) in sites() {
        match t {
            Term::Const(k) => write!(w, "{lead}{site} = {}", k.0)?,
            Term::Var(v) => match first_site(sites(), v) {
                Some(first) if first != site => write!(w, "{lead}{site} = {first}")?,
                _ => continue,
            },
        }
        lead = " AND ";
    }
    Ok(())
}

/// One statement's renderer: a conjunction, a union of them, or §3's
/// `WITH … AS` join of unions, written into `w`.
struct Render<'g, W> {
    gen: &'g SqlGenerator,
    w: W,
}

impl<W: fmt::Write> Visitor<'_> for Render<'_, W> {
    type Out = fmt::Result;

    /// Conjunction of (possibly disjunctive) slots. Disjunctive slots are
    /// inlined as UNION subqueries exposing one canonical column per
    /// shared variable (`v<id>`); constants and repeated variables are
    /// constrained inside each union arm, so the outer query binds by
    /// *variable* — the executor keys slot extensions the same way (arms
    /// may list the shared variables in different positional orders).
    fn conjunction<C: Conjunction>(&mut self, c: &C) -> fmt::Result {
        let (body, w) = (c.body(), &mut self.w);
        let sites = || {
            body.iter()
                .enumerate()
                .flat_map(|(i, slot)| slot_sites(i, slot.atoms()))
        };
        write_select(w, c.head(), sites, true)?;
        // An empty body (no slots) is the always-true conjunction: a
        // FROM-less SELECT over the implicit single row, like the
        // executor's empty-tuple result.
        for (i, slot) in body.iter().enumerate() {
            w.write_str(if i == 0 { " FROM " } else { ", " })?;
            match slot.atoms() {
                [atom] => self.gen.write_source(w, atom, format_args!("t{i}"))?,
                atoms => self.gen.write_slot_union(w, atoms, i)?,
            }
        }
        write_where(w, sites)
    }

    fn union<U: Union>(&mut self, u: &U) -> fmt::Result {
        for (i, arm) in u.arms().iter().enumerate() {
            if i > 0 {
                self.w.write_str("\nUNION\n")?;
            }
            self.conjunction(arm)?;
        }
        Ok(())
    }

    /// The WITH … AS form of §3: join conditions on shared head
    /// variables, projection of the head.
    fn join<J: Join>(&mut self, j: &J) -> fmt::Result {
        self.w.write_str("WITH ")?;
        for (i, component) in j.components().iter().enumerate() {
            if i > 0 {
                self.w.write_str(", ")?;
            }
            write!(self.w, "sql{i} AS (\n")?;
            self.union(component)?;
            self.w.write_str("\n)")?;
        }
        let w = &mut self.w;
        let sites = || {
            j.components().iter().enumerate().flat_map(|(i, c)| {
                let head = c.head().iter().enumerate();
                head.filter(|(_, t)| t.as_var().is_some())
                    .map(move |(k, &t)| (Site::Head(i, k), t))
            })
        };
        w.write_str("\n")?;
        write_select(w, j.head(), sites, false)?;
        for i in 0..j.components().len() {
            write!(w, "{}sql{i}", if i == 0 { " FROM " } else { ", " })?;
        }
        write_where(w, sites)
    }
}

impl SqlGenerator {
    /// A disjunctive slot as an inline UNION exposing one aligned column
    /// per shared variable (`v<id>`, in [`slot_var_order`]). Each arm
    /// projects its own term positions onto those variable columns and
    /// applies its own constant / repeated-variable constraints, so arms
    /// with flipped argument order (`r(x,y) ∨ r2(y,x)`) or private
    /// constants stay semantically aligned — running the generated SQL
    /// (the `sqlexec` backend) is what surfaced the earlier positional
    /// form as wrong.
    fn write_slot_union(
        &self,
        w: &mut impl fmt::Write,
        atoms: &[Atom],
        slot: usize,
    ) -> fmt::Result {
        for (i, atom) in atoms.iter().enumerate() {
            w.write_str(if i == 0 { "(SELECT " } else { " UNION SELECT " })?;
            let sites = || columns(atom).map(|(col, t)| (Site::Arm(col), t));
            // A fully-ground slot (empty shared variable set, e.g.
            // `C(a) ∨ D(a)`) exposes only an existence marker.
            let mut order = slot_var_order(&atoms[0]).peekable();
            if order.peek().is_none() {
                w.write_str("1 AS t")?;
            }
            for (k, v) in order.enumerate() {
                let site = first_site(sites(), v).expect("slot atoms share one variable set");
                write!(w, "{}{site} AS v{}", if k == 0 { "" } else { ", " }, v.0)?;
            }
            w.write_str(" FROM ")?;
            self.write_source(w, atom, "u")?;
            write_where(w, sites)?;
        }
        write!(w, ") t{slot}")
    }
}

/// Canonical column order of a disjunctive slot: the shared variables in
/// its *first* atom's positional order, deduplicated — the same order
/// the executor appends a slot's new variables in.
fn slot_var_order(atom: &Atom) -> impl Iterator<Item = VarId> + '_ {
    atom.vars()
        .enumerate()
        .filter(move |&(i, v)| !atom.vars().take(i).any(|w| w == v))
        .map(|(_, v)| v)
}

/// The DPH filter of a predicate code: any candidate column holds it.
fn write_dph_preds(w: &mut impl fmt::Write, code: u32) -> fmt::Result {
    for k in 0..DPH_COLUMNS {
        if k > 0 {
            w.write_str(" OR ")?;
        }
        write!(w, "pred{k} = {code}")?;
    }
    Ok(())
}

/// DPH source of a role atom, following the DB2RDF translation shape \[9\]:
/// per candidate column, resolve the value either inline or — when the
/// column's multi-value flag is set — through the spill/VALUES-table
/// indirection. This per-atom block is what multiplies reformulated SQL
/// into the megabytes (§6.3's "statement too long" failures).
fn write_dph_role(w: &mut impl fmt::Write, code: u32, alias: impl fmt::Display) -> fmt::Result {
    w.write_str("(SELECT entity AS s, CASE ")?;
    for k in 0..DPH_COLUMNS {
        if k > 0 {
            w.write_str(" ")?;
        }
        write!(
            w,
            "WHEN pred{k} = {code} THEN CASE WHEN multi{k} = 1 THEN \
             (SELECT mv.val FROM dph_values mv WHERE mv.key = dph.val{k} AND mv.pred = {code}) \
             ELSE val{k} END"
        )?;
    }
    w.write_str(" ELSE NULL END AS o FROM dph WHERE ")?;
    write_dph_preds(w, code)?;
    write!(w, ") {alias}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::{ConceptId, RoleId};
    use obda_query::{CQ, JUCQ, UCQ};

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
