//! The workload: queries Q1–Q13 (§6.1: 2–10 atoms, average ≈5.8, UCQ
//! reformulations from tens to hundreds of CQs) and the star queries
//! A3–A6 derived from Q1 for the search-space study (Table 6; A6 = Q1).
//!
//! The paper's exact queries live in its unavailable technical report;
//! these are rebuilt against the rebuilt ontology to match the reported
//! *statistics* (atom counts, reformulation sizes, presence of a 2-atom
//! query with the largest reformulation — Q11). Actual sizes are printed
//! by the `workload_stats` binary (`crates/bench/src/bin/workload_stats.rs`).

use obda_query::{Atom, Term, VarId, CQ};

use crate::tbox::UnivOntology;

/// A named workload query.
#[derive(Clone, Debug)]
pub struct WorkloadQuery {
    pub name: String,
    pub cq: CQ,
}

fn v(i: u32) -> Term {
    Term::Var(VarId(i))
}

/// Q1: the six-atom star over a single subject (A6 = Q1) — the profile of
/// a "busy" teaching assistant: teaches, studies, researches,
/// collaborates, publishes, assists.
pub fn q1(onto: &UnivOntology) -> CQ {
    // q(x) ← teacherOf(x,y1) ∧ takesCourse(x,y2) ∧ researchInterest(x,y3)
    //        ∧ collaboratesWith(x,y4) ∧ authorOf(x,y5)
    //        ∧ teachingAssistantOf(x,y6)
    CQ::with_var_head(
        vec![VarId(0)],
        vec![
            Atom::Role(onto.teacher_of, v(0), v(1)),
            Atom::Role(onto.takes_course, v(0), v(2)),
            Atom::Role(onto.research_interest, v(0), v(3)),
            Atom::Role(onto.collaborates_with, v(0), v(4)),
            Atom::Role(onto.author_of, v(0), v(5)),
            Atom::Role(onto.teaching_assistant_of, v(0), v(6)),
        ],
    )
}

/// The star-query family A3..A6 (prefixes of Q1's atom list).
pub fn star_query(onto: &UnivOntology, arity: usize) -> CQ {
    assert!((2..=6).contains(&arity));
    let full = q1(onto);
    CQ::with_var_head(vec![VarId(0)], full.atoms()[..arity].to_vec())
}

/// The full workload Q1–Q13.
pub fn workload(onto: &UnivOntology) -> Vec<WorkloadQuery> {
    let mut qs: Vec<WorkloadQuery> = Vec::with_capacity(13);
    let mut push = |name: &str, cq: CQ| {
        qs.push(WorkloadQuery {
            name: name.into(),
            cq,
        })
    };

    push("Q1", q1(onto));

    // Q2 (4 atoms): graduate students with a professor advisor in a
    // department.
    push(
        "Q2",
        CQ::with_var_head(
            vec![VarId(0), VarId(1)],
            vec![
                Atom::Concept(onto.graduate_student, v(0)),
                Atom::Role(onto.advisor, v(0), v(1)),
                Atom::Concept(onto.professor, v(1)),
                Atom::Role(onto.works_for, v(1), v(2)),
            ],
        ),
    );

    // Q3 (5 atoms): students taking a graduate course offered by a
    // department.
    push(
        "Q3",
        CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(onto.student, v(0)),
                Atom::Role(onto.takes_course, v(0), v(1)),
                Atom::Concept(onto.graduate_course, v(1)),
                Atom::Role(onto.offers_course, v(2), v(1)),
                Atom::Concept(onto.department, v(2)),
            ],
        ),
    );

    // Q4 (4 atoms): faculty of departments of a university.
    push(
        "Q4",
        CQ::with_var_head(
            vec![VarId(0), VarId(1)],
            vec![
                Atom::Concept(onto.faculty, v(0)),
                Atom::Role(onto.works_for, v(0), v(1)),
                Atom::Concept(onto.department, v(1)),
                Atom::Role(onto.sub_organization_of, v(1), v(2)),
            ],
        ),
    );

    // Q5 (3 atoms, fat person cone): members of universities.
    push(
        "Q5",
        CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(onto.person, v(0)),
                Atom::Role(onto.member_of, v(0), v(1)),
                Atom::Concept(onto.university, v(1)),
            ],
        ),
    );

    // Q6 (6 atoms): articles of professors and their departments.
    push(
        "Q6",
        CQ::with_var_head(
            vec![VarId(0), VarId(1)],
            vec![
                Atom::Concept(onto.article, v(0)),
                Atom::Role(onto.publication_author, v(0), v(1)),
                Atom::Concept(onto.professor, v(1)),
                Atom::Role(onto.works_for, v(1), v(2)),
                Atom::Concept(onto.department, v(2)),
                Atom::Role(onto.sub_organization_of, v(2), v(3)),
            ],
        ),
    );

    // Q7 (4 atoms): research groups inside organizations.
    push(
        "Q7",
        CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(onto.organization, v(0)),
                Atom::Role(onto.sub_organization_of, v(1), v(0)),
                Atom::Concept(onto.research_group, v(1)),
                Atom::Role(onto.sub_organization_of, v(0), v(2)),
            ],
        ),
    );

    // Q8 (6 atoms): the student–advisor–course triangle.
    push(
        "Q8",
        CQ::with_var_head(
            vec![VarId(0), VarId(1)],
            vec![
                Atom::Concept(onto.student, v(0)),
                Atom::Role(onto.advisor, v(0), v(2)),
                Atom::Concept(onto.professor, v(2)),
                Atom::Role(onto.teacher_of, v(2), v(1)),
                Atom::Role(onto.takes_course, v(0), v(1)),
                Atom::Concept(onto.graduate_course, v(1)),
            ],
        ),
    );

    // Q9 (5 atoms): publications authored by chairs with a degree — the
    // heavyweight reformulation of the workload (paper: Q9's minimal UCQ
    // is a union of 145 CQs).
    push(
        "Q9",
        CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(onto.publication, v(2)),
                Atom::Role(onto.publication_author, v(2), v(0)),
                Atom::Concept(onto.chair, v(0)),
                Atom::Role(onto.degree_from, v(0), v(3)),
                Atom::Concept(onto.university, v(3)),
            ],
        ),
    );

    // Q10 (10 atoms): the two-hub faculty/department pattern.
    push(
        "Q10",
        CQ::with_var_head(
            vec![VarId(0), VarId(1)],
            vec![
                Atom::Role(onto.works_for, v(0), v(1)),
                Atom::Concept(onto.department, v(1)),
                Atom::Role(onto.sub_organization_of, v(1), v(2)),
                Atom::Concept(onto.university, v(2)),
                Atom::Role(onto.teacher_of, v(0), v(3)),
                Atom::Concept(onto.graduate_course, v(3)),
                Atom::Role(onto.takes_course, v(4), v(3)),
                Atom::Concept(onto.graduate_student, v(4)),
                Atom::Role(onto.advisor, v(4), v(0)),
                Atom::Role(onto.member_of, v(4), v(1)),
            ],
        ),
    );

    // Q11 (2 atoms, maximal reformulation): people and who they work with
    // — worksWith is symmetric with several subroles, Person's cone is the
    // widest in the ontology (cf. §6.2: Q11 has 2 atoms but the maximum
    // number of reformulations).
    push(
        "Q11",
        CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(onto.person, v(0)),
                Atom::Role(onto.works_with, v(1), v(0)),
            ],
        ),
    );

    // Q12 (5 atoms, selective): chairs and the universities their
    // departments belong to.
    push(
        "Q12",
        CQ::with_var_head(
            vec![VarId(0), VarId(2)],
            vec![
                Atom::Concept(onto.chair, v(0)),
                Atom::Role(onto.head_of, v(0), v(1)),
                Atom::Concept(onto.department, v(1)),
                Atom::Role(onto.sub_organization_of, v(1), v(2)),
                Atom::Concept(onto.university, v(2)),
            ],
        ),
    );

    // Q13 (7 atoms, cyclic): teaching professors with a degree from the
    // university their department belongs to.
    push(
        "Q13",
        CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(onto.professor, v(0)),
                Atom::Role(onto.member_of, v(0), v(1)),
                Atom::Concept(onto.department, v(1)),
                Atom::Role(onto.sub_organization_of, v(1), v(2)),
                Atom::Concept(onto.university, v(2)),
                Atom::Role(onto.degree_from, v(0), v(2)),
                Atom::Role(onto.teacher_of, v(0), v(3)),
            ],
        ),
    );

    qs
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_reform::perfect_ref;

    #[test]
    fn workload_shape_matches_paper() {
        let onto = UnivOntology::build();
        let qs = workload(&onto);
        assert_eq!(qs.len(), 13);
        let sizes: Vec<usize> = qs.iter().map(|q| q.cq.num_atoms()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert_eq!(min, 2, "smallest query has 2 atoms (Q11)");
        assert_eq!(max, 10, "largest query has 10 atoms (Q10)");
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(
            (4.5..=7.0).contains(&avg),
            "average atom count ≈5.8, got {avg}"
        );
        for q in &qs {
            assert!(q.cq.is_connected(), "{} must be connected", q.name);
        }
    }

    #[test]
    fn star_queries_are_prefixes_of_q1() {
        let onto = UnivOntology::build();
        let q1 = q1(&onto);
        for n in 3..=6 {
            let a = star_query(&onto, n);
            assert_eq!(a.num_atoms(), n);
            assert_eq!(a.atoms(), &q1.atoms()[..n]);
            assert!(a.is_connected());
        }
        assert_eq!(star_query(&onto, 6).atoms(), q1.atoms());
    }

    #[test]
    fn reformulation_sizes_span_a_wide_range() {
        // §6.1: UCQ reformulations between 35 and 667 CQs. The rebuilt
        // ontology must produce the same *regime*: small queries tens,
        // fat-concept queries hundreds.
        let onto = UnivOntology::build();
        let qs = workload(&onto);
        let mut sizes = Vec::new();
        for q in &qs {
            // Only measure the cheap ones here (full sweep in the harness).
            if q.cq.num_atoms() <= 3 {
                sizes.push(perfect_ref(&q.cq, &onto.tbox).len());
            }
        }
        let max = sizes.iter().max().copied().unwrap_or(0);
        assert!(
            max >= 100,
            "Q5/Q11-style queries reformulate into 100s: {sizes:?}"
        );
    }

    #[test]
    fn q11_has_two_atoms_and_large_reformulation() {
        let onto = UnivOntology::build();
        let qs = workload(&onto);
        let q11 = qs.iter().find(|q| q.name == "Q11").unwrap();
        assert_eq!(q11.cq.num_atoms(), 2);
        let ucq = perfect_ref(&q11.cq, &onto.tbox);
        assert!(
            ucq.len() > 200,
            "Q11 reformulation is the largest: {}",
            ucq.len()
        );
    }
}
