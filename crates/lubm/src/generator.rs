//! EUDG-like scalable data generation (Lutz et al. \[23\]).
//!
//! Generates university ABoxes under [`crate::tbox::UnivOntology`]. Two
//! properties matter for the evaluation:
//!
//! * **scale** — the paper uses 15M- and 100M-fact ABoxes; the generator
//!   takes a target fact count and emits universities until it is reached;
//! * **incompleteness** — reformulation only pays off when data is *not*
//!   saturated: the generator asserts most-specific types only (never the
//!   implied supertypes), sometimes asserts a *general* type without the
//!   specific one, randomly orients symmetric/inverse facts (authorOf vs
//!   publicationAuthor), and drops a fraction of role facts whose
//!   existence is still implied by existential axioms.
//!
//! Generation is fully deterministic given the seed.

use obda_dllite::{ABox, IndividualId};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

use crate::tbox::{UnivOntology, FIELDS};

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct GenConfig {
    pub seed: u64,
    /// Stop once at least this many facts were asserted.
    pub target_facts: usize,
    /// Probability of asserting only the general type (e.g. `Professor`
    /// instead of `FullProfessor`).
    pub general_type_prob: f64,
    /// Probability of omitting an implied role fact (left to the ∃ axioms).
    pub omit_role_prob: f64,
    pub departments_per_university: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            seed: 42,
            target_facts: 50_000,
            general_type_prob: 0.15,
            omit_role_prob: 0.2,
            departments_per_university: 12,
        }
    }
}

/// Generation summary: what [`generate`] produced, for sanity checks.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenReport {
    pub universities: usize,
    pub departments: usize,
    pub faculty: usize,
    pub students: usize,
    pub publications: usize,
    pub facts: usize,
}

/// Generate an ABox over the ontology.
pub fn generate(onto: &mut UnivOntology, config: &GenConfig) -> (ABox, GenReport) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut abox = ABox::new();
    let mut report = GenReport::default();
    let mut uni_idx = 0usize;
    while abox.len() < config.target_facts {
        generate_university(onto, config, &mut rng, &mut abox, uni_idx, &mut report);
        uni_idx += 1;
    }
    report.universities = uni_idx;
    report.facts = abox.len();
    (abox, report)
}

fn ind(onto: &mut UnivOntology, name: String) -> IndividualId {
    onto.voc.individual(&name)
}

#[allow(clippy::too_many_arguments)]
fn generate_university(
    onto: &mut UnivOntology,
    config: &GenConfig,
    rng: &mut StdRng,
    abox: &mut ABox,
    u: usize,
    report: &mut GenReport,
) {
    let univ = ind(onto, format!("Univ{u}"));
    abox.assert_concept(onto.university, univ);

    let n_depts = config.departments_per_university.max(1);
    for d in 0..n_depts {
        report.departments += 1;
        let dept = ind(onto, format!("U{u}D{d}"));
        abox.assert_concept(onto.department, dept);
        abox.assert_role(onto.sub_organization_of, dept, univ);
        let field = FIELDS[d % FIELDS.len()];

        // Research group.
        let group = ind(onto, format!("U{u}D{d}G0"));
        abox.assert_concept(onto.field_concept(field, "ResearchGroup"), group);
        if !rng.random_bool(config.omit_role_prob) {
            abox.assert_role(onto.sub_organization_of, group, dept);
        }

        // Courses: regular + graduate + field seminars.
        let n_courses = rng.random_range(8..14);
        let mut courses = Vec::with_capacity(n_courses);
        for c in 0..n_courses {
            let course = ind(onto, format!("U{u}D{d}C{c}"));
            let cls = match c % 4 {
                0 => onto.graduate_course,
                1 => onto.field_concept(field, "Course"),
                2 => onto.field_concept(field, "Seminar"),
                _ => onto.course,
            };
            abox.assert_concept(cls, course);
            if !rng.random_bool(config.omit_role_prob) {
                abox.assert_role(onto.offers_course, dept, course);
            }
            courses.push(course);
        }

        // Faculty.
        let n_full = rng.random_range(3..6);
        let n_assoc = rng.random_range(3..6);
        let n_assist = rng.random_range(2..5);
        let n_lect = rng.random_range(2..4);
        let mut faculty = Vec::new();
        let tiers = [
            (onto.full_professor, n_full),
            (onto.associate_professor, n_assoc),
            (onto.assistant_professor, n_assist),
            (onto.lecturer, n_lect),
        ];
        let mut fi = 0usize;
        for (cls, count) in tiers {
            for _ in 0..count {
                report.faculty += 1;
                let f = ind(onto, format!("U{u}D{d}F{fi}"));
                fi += 1;
                // Most-specific typing, occasionally generalized.
                if rng.random_bool(config.general_type_prob) {
                    abox.assert_concept(onto.professor, f);
                } else {
                    abox.assert_concept(cls, f);
                }
                if !rng.random_bool(config.omit_role_prob) {
                    abox.assert_role(onto.works_for, f, dept);
                }
                // Teaching.
                for _ in 0..rng.random_range(1..3) {
                    let c = courses[rng.random_range(0..courses.len())];
                    if !rng.random_bool(config.omit_role_prob) {
                        abox.assert_role(onto.teacher_of, f, c);
                    }
                }
                // Degrees.
                if !rng.random_bool(config.omit_role_prob) {
                    abox.assert_role(onto.doctoral_degree_from, f, univ);
                }
                // Direct university affiliation for some faculty
                // (affiliatedWith ⊑ memberOf feeds Q5).
                if rng.random_bool(0.3) {
                    abox.assert_role(onto.affiliated_with, f, univ);
                }
                // Research interest.
                let proj = ind(onto, format!("U{u}D{d}P{fi}"));
                abox.assert_concept(onto.field_concept(field, "Project"), proj);
                if !rng.random_bool(config.omit_role_prob) {
                    abox.assert_role(onto.research_interest, f, proj);
                }
                faculty.push(f);
            }
        }
        // Chair: the first full professor heads the department.
        if let Some(&head) = faculty.first() {
            abox.assert_concept(onto.chair, head);
            abox.assert_role(onto.head_of, head, dept);
        }
        // Faculty collaboration (symmetric via worksWith ⊑ worksWith⁻).
        for i in 1..faculty.len() {
            if rng.random_bool(0.3) {
                let j = rng.random_range(0..i);
                abox.assert_role(onto.collaborates_with, faculty[i], faculty[j]);
            }
        }

        // Students.
        let n_grad = rng.random_range(8..14);
        let n_under = rng.random_range(20..30);
        for s in 0..n_grad {
            report.students += 1;
            let st = ind(onto, format!("U{u}D{d}GS{s}"));
            let cls = match s % 5 {
                0 => onto.research_assistant,
                1 => onto.teaching_assistant,
                _ => onto.graduate_student,
            };
            if rng.random_bool(config.general_type_prob) {
                abox.assert_concept(onto.student, st);
            } else {
                abox.assert_concept(cls, st);
            }
            if !rng.random_bool(config.omit_role_prob) {
                abox.assert_role(onto.member_of, st, dept);
            }
            // Advisor (implied by GraduateStudent ⊑ ∃advisor when omitted).
            if !faculty.is_empty() && !rng.random_bool(config.omit_role_prob) {
                let a = faculty[rng.random_range(0..faculty.len())];
                abox.assert_role(onto.advisor, st, a);
            }
            for _ in 0..rng.random_range(1..4) {
                let c = courses[rng.random_range(0..courses.len())];
                if !rng.random_bool(config.omit_role_prob) {
                    abox.assert_role(onto.takes_course, st, c);
                }
            }
            if s % 5 == 1 && !courses.is_empty() {
                // A "busy" teaching assistant: the Q1 profile (teaches a
                // seminar, assists, researches, collaborates, publishes).
                let c = courses[rng.random_range(0..courses.len())];
                abox.assert_role(onto.teaching_assistant_of, st, c);
                let taught = courses[rng.random_range(0..courses.len())];
                abox.assert_role(onto.teacher_of, st, taught);
                let proj = ind(onto, format!("U{u}D{d}TAProj{s}"));
                abox.assert_concept(onto.field_concept(field, "Project"), proj);
                abox.assert_role(onto.research_interest, st, proj);
                if !faculty.is_empty() {
                    let f = faculty[rng.random_range(0..faculty.len())];
                    abox.assert_role(onto.collaborates_with, st, f);
                }
                let pb = ind(onto, format!("U{u}D{d}TAPub{s}"));
                abox.assert_concept(onto.conference_paper, pb);
                abox.assert_role(onto.author_of, st, pb);
            }
            if !rng.random_bool(config.omit_role_prob) {
                abox.assert_role(onto.undergraduate_degree_from, st, univ);
            }
        }
        for s in 0..n_under {
            report.students += 1;
            let st = ind(onto, format!("U{u}D{d}US{s}"));
            if rng.random_bool(config.general_type_prob) {
                abox.assert_concept(onto.student, st);
            } else {
                abox.assert_concept(onto.undergraduate_student, st);
            }
            for _ in 0..rng.random_range(2..5) {
                let c = courses[rng.random_range(0..courses.len())];
                if !rng.random_bool(config.omit_role_prob) {
                    abox.assert_role(onto.takes_course, st, c);
                }
            }
        }

        // Publications: authored by faculty (and grad students).
        let n_pubs = rng.random_range(10..18);
        for p in 0..n_pubs {
            report.publications += 1;
            let pb = ind(onto, format!("U{u}D{d}Pub{p}"));
            let cls = match p % 6 {
                0 => onto.journal_article,
                1 => onto.conference_paper,
                2 => onto.technical_report,
                3 => onto.book,
                4 => onto.doctoral_thesis,
                _ => onto.article,
            };
            abox.assert_concept(cls, pb);
            if faculty.is_empty() {
                continue;
            }
            let author = faculty[rng.random_range(0..faculty.len())];
            // Randomly orient the authorship fact: the role hierarchy
            // (authorOf ≡ publicationAuthor⁻) bridges the two at query
            // time.
            if rng.random_bool(0.5) {
                abox.assert_role(onto.publication_author, pb, author);
            } else {
                abox.assert_role(onto.author_of, author, pb);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig {
            target_facts: 3000,
            ..Default::default()
        };
        let mut o1 = UnivOntology::build();
        let (a1, _) = generate(&mut o1, &cfg);
        let mut o2 = UnivOntology::build();
        let (a2, _) = generate(&mut o2, &cfg);
        assert_eq!(a1.len(), a2.len());
        assert_eq!(a1.concept_assertions(), a2.concept_assertions());
        assert_eq!(a1.role_assertions(), a2.role_assertions());
    }

    #[test]
    fn reaches_target_scale() {
        let cfg = GenConfig {
            target_facts: 5000,
            ..Default::default()
        };
        let mut onto = UnivOntology::build();
        let (abox, report) = generate(&mut onto, &cfg);
        assert!(abox.len() >= 5000);
        assert!(report.universities >= 1);
        assert!(report.faculty > 0 && report.students > 0);
    }

    #[test]
    fn data_is_consistent_with_the_ontology() {
        let cfg = GenConfig {
            target_facts: 4000,
            ..Default::default()
        };
        let mut onto = UnivOntology::build();
        let (abox, _) = generate(&mut onto, &cfg);
        assert!(obda_dllite::is_consistent(&onto.voc, &onto.tbox, &abox));
    }

    #[test]
    fn data_is_incomplete_wrt_reasoning() {
        // The generator must leave reasoning work on the table: some
        // FullProfessor has no explicit worksFor fact (implied via
        // Employee ⊑ ∃worksFor), and no Person facts are asserted at all.
        let cfg = GenConfig {
            target_facts: 4000,
            ..Default::default()
        };
        let mut onto = UnivOntology::build();
        let (abox, _) = generate(&mut onto, &cfg);
        let persons = abox.concept_members(onto.person).count();
        assert_eq!(persons, 0, "supertypes are never asserted");
        let full_profs: Vec<_> = abox.concept_members(onto.full_professor).collect();
        assert!(!full_profs.is_empty());
        let missing_works_for = full_profs
            .iter()
            .filter(|&&f| !abox.role_pairs(onto.works_for).any(|(s, _)| s == f))
            .count();
        assert!(missing_works_for > 0, "some faculty lack explicit worksFor");
    }

    #[test]
    fn authorship_is_split_across_orientations() {
        let cfg = GenConfig {
            target_facts: 8000,
            ..Default::default()
        };
        let mut onto = UnivOntology::build();
        let (abox, _) = generate(&mut onto, &cfg);
        let fwd = abox.role_pairs(onto.publication_author).count();
        let bwd = abox.role_pairs(onto.author_of).count();
        assert!(fwd > 0 && bwd > 0, "both orientations present: {fwd}/{bwd}");
    }
}
