//! A parameterized LUBM-like university benchmark.
//!
//! Reproduces the structure of the Lehigh University Benchmark [Guo, Pan &
//! Heflin, 2005] that the paper's Example 1 runs on: the univ-bench
//! class/property hierarchy expressed in RDFS, and data generation per
//! university → department → faculty/students/courses/publications.
//!
//! Two properties matter for reproducing the paper's effects:
//!
//! * instances are typed **only with leaf classes** (a `FullProfessor` is
//!   never explicitly a `Professor`, `Faculty`, `Employee` or `Person`), so
//!   complete answers require reasoning;
//! * faculty are connected to organizations via `worksFor ⊑ memberOf` and to
//!   universities via `mastersDegreeFrom / doctoralDegreeFrom ⊑ degreeFrom`,
//!   the properties of the Example-1 query.

use crate::builder::GraphBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdfref_model::{Graph, TermId};

/// The univ-bench namespace.
pub const UB: &str = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#";

/// Generation parameters. Defaults mirror (scaled-down) LUBM densities.
#[derive(Debug, Clone)]
pub struct LubmConfig {
    /// Number of universities (the LUBM scale factor).
    pub universities: usize,
    /// Departments per university.
    pub departments_per_university: usize,
    /// Full professors per department.
    pub full_professors: usize,
    /// Associate professors per department.
    pub associate_professors: usize,
    /// Assistant professors per department.
    pub assistant_professors: usize,
    /// Lecturers per department.
    pub lecturers: usize,
    /// Undergraduate students per department.
    pub undergraduate_students: usize,
    /// Graduate students per department.
    pub graduate_students: usize,
    /// Undergraduate-level courses per department.
    pub courses: usize,
    /// Graduate courses per department.
    pub graduate_courses: usize,
    /// Research groups per department.
    pub research_groups: usize,
    /// Publications per faculty member.
    pub publications_per_faculty: usize,
    /// RNG seed (generation is deterministic given the config).
    pub seed: u64,
}

impl Default for LubmConfig {
    fn default() -> Self {
        LubmConfig {
            universities: 1,
            departments_per_university: 3,
            full_professors: 3,
            associate_professors: 4,
            assistant_professors: 5,
            lecturers: 2,
            undergraduate_students: 40,
            graduate_students: 12,
            courses: 10,
            graduate_courses: 5,
            research_groups: 2,
            publications_per_faculty: 3,
            seed: 0x10b3,
        }
    }
}

impl LubmConfig {
    /// A config with `n` universities and default densities.
    pub fn scale(n: usize) -> Self {
        LubmConfig {
            universities: n.max(1),
            ..LubmConfig::default()
        }
    }
}

/// Dictionary ids of the univ-bench vocabulary.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // field names mirror the ontology 1:1
pub struct LubmVocab {
    // Classes.
    pub person: TermId,
    pub employee: TermId,
    pub faculty: TermId,
    pub professor: TermId,
    pub full_professor: TermId,
    pub associate_professor: TermId,
    pub assistant_professor: TermId,
    pub lecturer: TermId,
    pub chair: TermId,
    pub student: TermId,
    pub undergraduate_student: TermId,
    pub graduate_student: TermId,
    pub teaching_assistant: TermId,
    pub research_assistant: TermId,
    pub organization: TermId,
    pub university: TermId,
    pub department: TermId,
    pub research_group: TermId,
    pub work: TermId,
    pub course: TermId,
    pub graduate_course: TermId,
    pub publication: TermId,
    pub article: TermId,
    pub journal_article: TermId,
    pub conference_paper: TermId,
    pub technical_report: TermId,
    pub book: TermId,
    pub software: TermId,
    // Properties.
    pub degree_from: TermId,
    pub masters_degree_from: TermId,
    pub doctoral_degree_from: TermId,
    pub undergraduate_degree_from: TermId,
    pub member_of: TermId,
    pub works_for: TermId,
    pub head_of: TermId,
    pub advisor: TermId,
    pub teacher_of: TermId,
    pub takes_course: TermId,
    pub teaching_assistant_of: TermId,
    pub publication_author: TermId,
    pub sub_organization_of: TermId,
    pub research_interest: TermId,
    pub name: TermId,
    pub email_address: TermId,
}

/// A generated dataset: graph + vocabulary ids + IRI schemes.
#[derive(Debug, Clone)]
pub struct LubmDataset {
    /// The generated graph (schema + data).
    pub graph: Graph,
    /// Vocabulary ids (valid in `graph`'s dictionary).
    pub vocab: LubmVocab,
    /// The config used.
    pub config: LubmConfig,
}

impl LubmDataset {
    /// IRI of university `u`.
    pub fn university_iri(u: usize) -> String {
        format!("http://www.Univ{u}.edu")
    }

    /// IRI of department `d` of university `u`.
    pub fn department_iri(u: usize, d: usize) -> String {
        format!("http://www.Department{d}.Univ{u}.edu")
    }

    /// IRI of full professor `i` of department `(u, d)`.
    pub fn full_professor_iri(u: usize, d: usize, i: usize) -> String {
        format!("{}/FullProfessor{i}", Self::department_iri(u, d))
    }

    /// IRI of graduate course `i` of department `(u, d)`.
    pub fn graduate_course_iri(u: usize, d: usize, i: usize) -> String {
        format!("{}/GraduateCourse{i}", Self::department_iri(u, d))
    }

    /// Resolve an IRI in this dataset's dictionary (if present).
    pub fn id_of(&self, iri: &str) -> Option<TermId> {
        self.graph.dictionary().id_of_iri(iri)
    }
}

/// The univ-bench RDFS ontology (classes, hierarchy, property constraints),
/// inserted into `b`; returns the vocabulary ids.
pub fn ontology(b: &mut GraphBuilder) -> LubmVocab {
    let c = |b: &mut GraphBuilder, n: &str| b.ns(UB, n);
    let vocab = LubmVocab {
        person: c(b, "Person"),
        employee: c(b, "Employee"),
        faculty: c(b, "Faculty"),
        professor: c(b, "Professor"),
        full_professor: c(b, "FullProfessor"),
        associate_professor: c(b, "AssociateProfessor"),
        assistant_professor: c(b, "AssistantProfessor"),
        lecturer: c(b, "Lecturer"),
        chair: c(b, "Chair"),
        student: c(b, "Student"),
        undergraduate_student: c(b, "UndergraduateStudent"),
        graduate_student: c(b, "GraduateStudent"),
        teaching_assistant: c(b, "TeachingAssistant"),
        research_assistant: c(b, "ResearchAssistant"),
        organization: c(b, "Organization"),
        university: c(b, "University"),
        department: c(b, "Department"),
        research_group: c(b, "ResearchGroup"),
        work: c(b, "Work"),
        course: c(b, "Course"),
        graduate_course: c(b, "GraduateCourse"),
        publication: c(b, "Publication"),
        article: c(b, "Article"),
        journal_article: c(b, "JournalArticle"),
        conference_paper: c(b, "ConferencePaper"),
        technical_report: c(b, "TechnicalReport"),
        book: c(b, "Book"),
        software: c(b, "Software"),
        degree_from: c(b, "degreeFrom"),
        masters_degree_from: c(b, "mastersDegreeFrom"),
        doctoral_degree_from: c(b, "doctoralDegreeFrom"),
        undergraduate_degree_from: c(b, "undergraduateDegreeFrom"),
        member_of: c(b, "memberOf"),
        works_for: c(b, "worksFor"),
        head_of: c(b, "headOf"),
        advisor: c(b, "advisor"),
        teacher_of: c(b, "teacherOf"),
        takes_course: c(b, "takesCourse"),
        teaching_assistant_of: c(b, "teachingAssistantOf"),
        publication_author: c(b, "publicationAuthor"),
        sub_organization_of: c(b, "subOrganizationOf"),
        research_interest: c(b, "researchInterest"),
        name: c(b, "name"),
        email_address: c(b, "emailAddress"),
    };
    let v = &vocab;
    // Class hierarchy.
    for (sub, sup) in [
        (v.employee, v.person),
        (v.faculty, v.employee),
        (v.professor, v.faculty),
        (v.full_professor, v.professor),
        (v.associate_professor, v.professor),
        (v.assistant_professor, v.professor),
        (v.chair, v.professor),
        (v.lecturer, v.faculty),
        (v.student, v.person),
        (v.undergraduate_student, v.student),
        (v.graduate_student, v.student),
        (v.teaching_assistant, v.person),
        (v.research_assistant, v.student),
        (v.university, v.organization),
        (v.department, v.organization),
        (v.research_group, v.organization),
        (v.course, v.work),
        (v.graduate_course, v.course),
        (v.article, v.publication),
        (v.journal_article, v.article),
        (v.conference_paper, v.article),
        (v.technical_report, v.publication),
        (v.book, v.publication),
        (v.software, v.publication),
    ] {
        b.subclass(sub, sup);
    }
    // Property hierarchy.
    for (sub, sup) in [
        (v.masters_degree_from, v.degree_from),
        (v.doctoral_degree_from, v.degree_from),
        (v.undergraduate_degree_from, v.degree_from),
        (v.works_for, v.member_of),
        (v.head_of, v.works_for),
    ] {
        b.subproperty(sub, sup);
    }
    // Domains and ranges.
    for (p, dom) in [
        (v.degree_from, v.person),
        (v.member_of, v.person),
        (v.advisor, v.person),
        (v.teacher_of, v.faculty),
        (v.takes_course, v.student),
        (v.teaching_assistant_of, v.teaching_assistant),
        (v.publication_author, v.publication),
        (v.sub_organization_of, v.organization),
        (v.research_interest, v.person),
    ] {
        b.domain(p, dom);
    }
    for (p, rng) in [
        (v.degree_from, v.university),
        (v.member_of, v.organization),
        (v.advisor, v.professor),
        (v.teacher_of, v.course),
        (v.takes_course, v.course),
        (v.teaching_assistant_of, v.course),
        (v.publication_author, v.person),
        (v.sub_organization_of, v.organization),
    ] {
        b.range(p, rng);
    }
    vocab
}

/// Degree universities are drawn from the first `DEGREE_POOL` universities
/// only, so Univ0's graduates, Example 1's answers, do not thin out as the
/// scale grows past it. Up to this many universities the pool is all of
/// them, so those datasets do not depend on it.
pub const DEGREE_POOL: usize = 1_000;

/// Generate a dataset.
pub fn generate(config: &LubmConfig) -> LubmDataset {
    let mut b = GraphBuilder::new();
    let v = ontology(&mut b);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n_univ = config.universities;

    // Universities first so degree targets exist.
    let univ_ids: Vec<TermId> = (0..n_univ)
        .map(|u| {
            let id = b.iri(&LubmDataset::university_iri(u));
            b.a(id, v.university);
            id
        })
        .collect();
    let degree_univs = n_univ.min(DEGREE_POOL);
    let any_univ = |rng: &mut StdRng| univ_ids[rng.gen_range(0..degree_univs)];

    for u in 0..n_univ {
        for d in 0..config.departments_per_university {
            let dept_iri = LubmDataset::department_iri(u, d);
            let dept = b.iri(&dept_iri);
            b.a(dept, v.department);
            b.triple(dept, v.sub_organization_of, univ_ids[u]);

            for g in 0..config.research_groups {
                let group = b.iri(&format!("{dept_iri}/ResearchGroup{g}"));
                b.a(group, v.research_group);
                b.triple(group, v.sub_organization_of, dept);
            }

            // Courses.
            let mut course_ids = Vec::new();
            for i in 0..config.courses {
                let id = b.iri(&format!("{dept_iri}/Course{i}"));
                b.a(id, v.course);
                course_ids.push(id);
            }
            let mut grad_course_ids = Vec::new();
            for i in 0..config.graduate_courses {
                let id = b.iri(&LubmDataset::graduate_course_iri(u, d, i));
                b.a(id, v.graduate_course);
                grad_course_ids.push(id);
            }
            let all_courses: Vec<TermId> =
                course_ids.iter().chain(&grad_course_ids).copied().collect();

            // Faculty.
            let mut faculty_ids: Vec<TermId> = Vec::new();
            let mk_faculty = |b: &mut GraphBuilder,
                              rng: &mut StdRng,
                              kind: &str,
                              class: TermId,
                              i: usize|
             -> TermId {
                let id = b.iri(&format!("{dept_iri}/{kind}{i}"));
                b.a(id, class);
                b.triple(id, v.works_for, dept);
                b.triple(
                    id,
                    v.undergraduate_degree_from,
                    univ_ids[rng.gen_range(0..degree_univs)],
                );
                b.triple(
                    id,
                    v.masters_degree_from,
                    univ_ids[rng.gen_range(0..degree_univs)],
                );
                b.triple(
                    id,
                    v.doctoral_degree_from,
                    univ_ids[rng.gen_range(0..degree_univs)],
                );
                let name = b.literal(&format!("{kind}{i} of {dept_iri}"));
                b.triple(id, v.name, name);
                let email = b.literal(&format!("{kind}{i}@Department{d}.Univ{u}.edu"));
                b.triple(id, v.email_address, email);
                // Teach 1–2 courses.
                for _ in 0..rng.gen_range(1..=2usize) {
                    let c = all_courses[rng.gen_range(0..all_courses.len())];
                    b.triple(id, v.teacher_of, c);
                }
                id
            };
            for i in 0..config.full_professors {
                let id = mk_faculty(&mut b, &mut rng, "FullProfessor", v.full_professor, i);
                faculty_ids.push(id);
                if i == 0 {
                    // The chair: head of the department (headOf ⊑ worksFor).
                    b.triple(id, v.head_of, dept);
                }
            }
            for i in 0..config.associate_professors {
                faculty_ids.push(mk_faculty(
                    &mut b,
                    &mut rng,
                    "AssociateProfessor",
                    v.associate_professor,
                    i,
                ));
            }
            for i in 0..config.assistant_professors {
                faculty_ids.push(mk_faculty(
                    &mut b,
                    &mut rng,
                    "AssistantProfessor",
                    v.assistant_professor,
                    i,
                ));
            }
            for i in 0..config.lecturers {
                faculty_ids.push(mk_faculty(&mut b, &mut rng, "Lecturer", v.lecturer, i));
            }

            // Publications (leaf-typed).
            let pub_classes = [v.journal_article, v.conference_paper, v.technical_report];
            for (fi, &f) in faculty_ids.iter().enumerate() {
                for p in 0..config.publications_per_faculty {
                    let id = b.iri(&format!("{dept_iri}/Publication{fi}_{p}"));
                    b.a(id, pub_classes[rng.gen_range(0..pub_classes.len())]);
                    b.triple(id, v.publication_author, f);
                }
            }

            // Students.
            for i in 0..config.undergraduate_students {
                let id = b.iri(&format!("{dept_iri}/UndergraduateStudent{i}"));
                b.a(id, v.undergraduate_student);
                b.triple(id, v.member_of, dept);
                for _ in 0..rng.gen_range(2..=4usize) {
                    let c = course_ids[rng.gen_range(0..course_ids.len())];
                    b.triple(id, v.takes_course, c);
                }
                if rng.gen_bool(0.2) {
                    let a = faculty_ids[rng.gen_range(0..faculty_ids.len())];
                    b.triple(id, v.advisor, a);
                }
            }
            for i in 0..config.graduate_students {
                let id = b.iri(&format!("{dept_iri}/GraduateStudent{i}"));
                b.a(id, v.graduate_student);
                b.triple(id, v.member_of, dept);
                b.triple(id, v.undergraduate_degree_from, any_univ(&mut rng));
                for _ in 0..rng.gen_range(1..=3usize) {
                    let c = grad_course_ids[rng.gen_range(0..grad_course_ids.len())];
                    b.triple(id, v.takes_course, c);
                }
                let a = faculty_ids[rng.gen_range(0..faculty_ids.len())];
                b.triple(id, v.advisor, a);
                if i % 5 == 0 {
                    // Also a teaching assistant (multi-leaf-typed instance).
                    b.a(id, v.teaching_assistant);
                    let c = course_ids[rng.gen_range(0..course_ids.len())];
                    b.triple(id, v.teaching_assistant_of, c);
                } else if i % 7 == 0 {
                    b.a(id, v.research_assistant);
                }
            }
        }
    }

    LubmDataset {
        graph: b.finish(),
        vocab: v,
        config: config.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfref_model::fxhash::FxHashSet;
    use rdfref_model::Schema;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&LubmConfig::default());
        let b = generate(&LubmConfig::default());
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&LubmConfig::default());
        let b = generate(&LubmConfig {
            seed: 99,
            ..LubmConfig::default()
        });
        assert_ne!(a.graph, b.graph);
    }

    #[test]
    fn scale_multiplies_size() {
        let one = generate(&LubmConfig::scale(1));
        let three = generate(&LubmConfig::scale(3));
        assert!(three.graph.len() > 2 * one.graph.len());
    }

    #[test]
    fn schema_matches_the_ontology() {
        let ds = generate(&LubmConfig::default());
        let schema = Schema::from_graph(&ds.graph);
        assert_eq!(schema.subclass.len(), 24);
        assert_eq!(schema.subproperty.len(), 5);
        assert_eq!(schema.domain.len(), 9);
        assert_eq!(schema.range.len(), 8);
        // Closure folds hierarchies: Full professor is transitively a Person.
        let cl = schema.closure();
        assert!(cl.is_subclass(ds.vocab.full_professor, ds.vocab.person));
        assert!(cl.is_subproperty(ds.vocab.head_of, ds.vocab.member_of));
    }

    #[test]
    fn instances_are_leaf_typed_only() {
        let ds = generate(&LubmConfig::default());
        // No explicit Person / Faculty / Student type assertions.
        use rdfref_model::dictionary::ID_RDF_TYPE;
        for t in ds.graph.iter() {
            if t.p == ID_RDF_TYPE {
                assert!(
                    t.o != ds.vocab.person
                        && t.o != ds.vocab.faculty
                        && t.o != ds.vocab.student
                        && t.o != ds.vocab.employee
                        && t.o != ds.vocab.professor,
                    "non-leaf explicit type found"
                );
            }
        }
    }

    #[test]
    fn example1_ingredients_exist() {
        let ds = generate(&LubmConfig::scale(2));
        // Some faculty member has a masters degree from university 0
        // (probabilistically certain with 2×3×14 faculty; the seed is fixed).
        let univ0 = ds.id_of(&LubmDataset::university_iri(0)).unwrap();
        let masters = ds.vocab.masters_degree_from;
        let has_masters_from_univ0 = ds.graph.iter().any(|t| t.p == masters && t.o == univ0);
        assert!(has_masters_from_univ0);
    }

    #[test]
    fn degree_universities_come_from_the_pool() {
        let n = DEGREE_POOL + 100;
        let ds = generate(&LubmConfig {
            universities: n,
            departments_per_university: 1,
            full_professors: 1,
            associate_professors: 1,
            assistant_professors: 1,
            lecturers: 1,
            undergraduate_students: 2,
            graduate_students: 2,
            courses: 1,
            graduate_courses: 1,
            research_groups: 0,
            publications_per_faculty: 0,
            ..LubmConfig::default()
        });
        let pool: FxHashSet<TermId> = (0..DEGREE_POOL)
            .map(|u| ds.id_of(&LubmDataset::university_iri(u)).unwrap())
            .collect();
        let v = &ds.vocab;
        let degrees = [
            v.undergraduate_degree_from,
            v.masters_degree_from,
            v.doctoral_degree_from,
        ];
        let mut seen = 0;
        for t in ds.graph.iter().filter(|t| degrees.contains(&t.p)) {
            assert!(pool.contains(&t.o), "a degree from outside the pool");
            seen += 1;
        }
        assert!(seen >= n, "{seen} degrees");
    }

    #[test]
    fn named_iri_schemes_resolve() {
        let ds = generate(&LubmConfig::default());
        assert!(ds.id_of(&LubmDataset::department_iri(0, 0)).is_some());
        assert!(ds
            .id_of(&LubmDataset::full_professor_iri(0, 0, 0))
            .is_some());
        assert!(ds
            .id_of(&LubmDataset::graduate_course_iri(0, 0, 0))
            .is_some());
        assert!(ds.id_of("http://nonexistent").is_none());
    }
}
