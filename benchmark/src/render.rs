//! CQ → wire text: the statement a socket client would type for a
//! workload query, using the vocabulary's names.

use obda_dllite::Vocabulary;
use obda_query::{Atom, Term, CQ};

fn term(t: &Term, voc: &Vocabulary) -> String {
    match t {
        Term::Var(v) => format!("?v{}", v.0),
        Term::Const(c) => voc.individual_name(*c).to_owned(),
    }
}

/// `SELECT ?v0, ?v1 WHERE A(?v0), r(?v0, ?v1)`, or `ASK WHERE …` for a
/// boolean query. The wire language has variable heads only, which is
/// all the workload uses.
pub fn wire_text(cq: &CQ, voc: &Vocabulary) -> String {
    let body: Vec<String> = cq
        .atoms()
        .iter()
        .map(|atom| match atom {
            Atom::Concept(c, t) => format!("{}({})", voc.concept_name(*c), term(t, voc)),
            Atom::Role(r, a, b) => {
                format!("{}({}, {})", voc.role_name(*r), term(a, voc), term(b, voc))
            }
        })
        .collect();
    if cq.is_boolean() {
        return format!("ASK WHERE {}", body.join(", "));
    }
    let head: Vec<String> = cq
        .head()
        .iter()
        .map(|t| {
            assert!(
                matches!(t, Term::Var(_)),
                "the wire language has no constant head terms"
            );
            term(t, voc)
        })
        .collect();
    format!("SELECT {} WHERE {}", head.join(", "), body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_lubm::UnivOntology;
    use obda_query::canonical_key;
    use obda_rdbms::pgwire::{parse_statement, WireStatement};

    #[test]
    fn every_shape_round_trips_through_the_wire_parser() {
        let onto = UnivOntology::build();
        let shapes = crate::fixture::shapes(&onto);
        assert_eq!(shapes.len(), 14);
        for shape in &shapes {
            match parse_statement(&shape.text, &onto.voc) {
                Ok(WireStatement::Select { cq, head_names }) => {
                    assert_eq!(
                        canonical_key(&cq),
                        canonical_key(&shape.cq),
                        "{}: {}",
                        shape.name,
                        shape.text
                    );
                    assert_eq!(head_names.len(), shape.cq.head().len(), "{}", shape.name);
                }
                other => panic!("{}: {:?} from {}", shape.name, other, shape.text),
            }
        }
    }

    #[test]
    fn boolean_queries_render_as_ask() {
        let onto = UnivOntology::build();
        let cq = CQ::new(
            vec![],
            vec![Atom::Concept(onto.student, Term::Var(obda_query::VarId(0)))],
        );
        let text = wire_text(&cq, &onto.voc);
        assert_eq!(text, "ASK WHERE Student(?v0)");
        assert!(matches!(
            parse_statement(&text, &onto.voc),
            Ok(WireStatement::Select { .. })
        ));
    }
}
