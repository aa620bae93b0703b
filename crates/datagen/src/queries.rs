//! The query workload: the paper's Example 1 and a LUBM-style query mix.

use crate::error::{DatagenError, Result};
use crate::lubm::LubmDataset;
use rdfref_model::dictionary::{ID_RDFS_SUBCLASSOF, ID_RDF_TYPE};
use rdfref_query::ast::{Atom, Cq};
use rdfref_query::Var;

fn v(n: &str) -> Var {
    Var::new(n)
}

/// The Example-1 query of §4 of the paper:
///
/// ```text
/// q(x, u, y, v, z) :- x rdf:type u,                      (t1)
///                     y rdf:type v,                      (t2)
///                     x ub:mastersDegreeFrom  <UnivK>,   (t3)
///                     y ub:doctoralDegreeFrom <UnivK>,   (t4)
///                     x ub:memberOf z,                   (t5)
///                     y ub:memberOf z                    (t6)
/// ```
///
/// `target_university` selects `<UnivK>` (the paper uses Univ532 of the
/// 100M-triple LUBM; any generated university index works here).
pub fn example1(ds: &LubmDataset, target_university: usize) -> Result<Cq> {
    let univ = ds
        .id_of(&LubmDataset::university_iri(target_university))
        .ok_or_else(|| DatagenError::MissingEntity(format!("university {target_university}")))?;
    let vb = &ds.vocab;
    let cq = Cq::new(
        vec![v("x"), v("u"), v("y"), v("v"), v("z")],
        vec![
            Atom::new(v("x"), ID_RDF_TYPE, v("u")),
            Atom::new(v("y"), ID_RDF_TYPE, v("v")),
            Atom::new(v("x"), vb.masters_degree_from, univ),
            Atom::new(v("y"), vb.doctoral_degree_from, univ),
            Atom::new(v("x"), vb.member_of, v("z")),
            Atom::new(v("y"), vb.member_of, v("z")),
        ],
    )?;
    Ok(cq)
}

/// The paper's winning cover for Example 1:
/// `{{t1,t3}, {t3,t5}, {t2,t4}, {t4,t6}}`.
pub fn example1_paper_cover() -> Result<rdfref_query::Cover> {
    let cover = rdfref_query::Cover::new(vec![vec![0, 2], vec![2, 4], vec![1, 3], vec![3, 5]], 6)?;
    Ok(cover)
}

/// A named query.
#[derive(Debug, Clone)]
pub struct NamedQuery {
    /// Short identifier used in experiment tables (e.g. `Q03`).
    pub name: &'static str,
    /// What the query asks.
    pub description: &'static str,
    /// The query.
    pub cq: Cq,
}

/// The LUBM-style mix used by experiments E2/E3/E5/E8. All queries are
/// answerable on any generated dataset (they reference university 0,
/// department 0 and professor 0, which always exist).
pub fn lubm_mix(ds: &LubmDataset) -> Result<Vec<NamedQuery>> {
    let vb = &ds.vocab;
    let dept0 = ds
        .id_of(&LubmDataset::department_iri(0, 0))
        .ok_or_else(|| DatagenError::MissingEntity("department 0".into()))?;
    let univ0 = ds
        .id_of(&LubmDataset::university_iri(0))
        .ok_or_else(|| DatagenError::MissingEntity("university 0".into()))?;
    let prof0 = ds
        .id_of(&LubmDataset::full_professor_iri(0, 0, 0))
        .ok_or_else(|| DatagenError::MissingEntity("professor 0".into()))?;
    let course0 = ds
        .id_of(&LubmDataset::graduate_course_iri(0, 0, 0))
        .ok_or_else(|| DatagenError::MissingEntity("graduate course 0".into()))?;

    Ok(vec![
        NamedQuery {
            name: "Q01",
            description: "graduate students taking a given graduate course",
            cq: Cq::new(
                vec![v("x")],
                vec![
                    Atom::new(v("x"), ID_RDF_TYPE, vb.graduate_student),
                    Atom::new(v("x"), vb.takes_course, course0),
                ],
            )?,
        },
        NamedQuery {
            name: "Q02",
            description: "persons who are members of a given department (needs subclass + subproperty reasoning)",
            cq: Cq::new(
                vec![v("x")],
                vec![
                    Atom::new(v("x"), ID_RDF_TYPE, vb.person),
                    Atom::new(v("x"), vb.member_of, dept0),
                ],
            )?,
        },
        NamedQuery {
            name: "Q03",
            description: "publications of a given professor (needs subclass reasoning over Publication)",
            cq: Cq::new(
                vec![v("x")],
                vec![
                    Atom::new(v("x"), ID_RDF_TYPE, vb.publication),
                    Atom::new(v("x"), vb.publication_author, prof0),
                ],
            )?,
        },
        NamedQuery {
            name: "Q04",
            description: "professors working for a given department, with their names",
            cq: Cq::new(
                vec![v("x"), v("n")],
                vec![
                    Atom::new(v("x"), ID_RDF_TYPE, vb.professor),
                    Atom::new(v("x"), vb.works_for, dept0),
                    Atom::new(v("x"), vb.name, v("n")),
                ],
            )?,
        },
        NamedQuery {
            name: "Q05",
            description: "all (person, organization) membership pairs",
            cq: Cq::new(
                vec![v("x"), v("z")],
                vec![
                    Atom::new(v("x"), ID_RDF_TYPE, vb.person),
                    Atom::new(v("x"), vb.member_of, v("z")),
                ],
            )?,
        },
        NamedQuery {
            name: "Q06",
            description: "all students",
            cq: Cq::new(
                vec![v("x")],
                vec![Atom::new(v("x"), ID_RDF_TYPE, vb.student)],
            )?,
        },
        NamedQuery {
            name: "Q07",
            description: "students taking a course taught by a given professor",
            cq: Cq::new(
                vec![v("x"), v("y")],
                vec![
                    Atom::new(v("x"), ID_RDF_TYPE, vb.student),
                    Atom::new(v("x"), vb.takes_course, v("y")),
                    Atom::new(prof0, vb.teacher_of, v("y")),
                ],
            )?,
        },
        NamedQuery {
            name: "Q08",
            description: "students member of a department of a given university, with email",
            cq: Cq::new(
                vec![v("x"), v("e")],
                vec![
                    Atom::new(v("x"), ID_RDF_TYPE, vb.student),
                    Atom::new(v("x"), vb.member_of, v("y")),
                    Atom::new(v("y"), vb.sub_organization_of, univ0),
                    Atom::new(v("x"), vb.email_address, v("e")),
                ],
            )?,
        },
        NamedQuery {
            name: "Q09",
            description: "advisor triangle: student advised by the teacher of a course they take",
            cq: Cq::new(
                vec![v("x"), v("y"), v("z")],
                vec![
                    Atom::new(v("x"), ID_RDF_TYPE, vb.student),
                    Atom::new(v("y"), ID_RDF_TYPE, vb.faculty),
                    Atom::new(v("z"), ID_RDF_TYPE, vb.course),
                    Atom::new(v("x"), vb.advisor, v("y")),
                    Atom::new(v("y"), vb.teacher_of, v("z")),
                    Atom::new(v("x"), vb.takes_course, v("z")),
                ],
            )?,
        },
        NamedQuery {
            name: "Q10",
            description: "all classes of the members of a given department (variable class position)",
            cq: Cq::new(
                vec![v("x"), v("u")],
                vec![
                    Atom::new(v("x"), ID_RDF_TYPE, v("u")),
                    Atom::new(v("x"), vb.member_of, dept0),
                ],
            )?,
        },
        NamedQuery {
            name: "Q11",
            description: "schema query: all subclasses of Person (needs hierarchy unfolding)",
            cq: Cq::new(
                vec![v("c")],
                vec![Atom::new(v("c"), ID_RDFS_SUBCLASSOF, vb.person)],
            )?,
        },
        NamedQuery {
            name: "Q12",
            description: "everything known about a professor (variable property position)",
            cq: Cq::new(
                vec![v("p"), v("o")],
                vec![Atom::new(prof0, v("p"), v("o"))],
            )?,
        },
    ])
}

/// Query mix for the DBLP-like dataset: author-centric (skew-sensitive),
/// type-hierarchy and citation-join queries.
pub fn biblio_mix(ds: &crate::biblio::BiblioDataset) -> Result<Vec<NamedQuery>> {
    let vb = &ds.vocab;
    let author0 = ds
        .graph
        .dictionary()
        .id_of_iri("http://bib.example.org/author/0")
        .ok_or_else(|| DatagenError::MissingEntity("author 0".into()))?;
    Ok(vec![
        NamedQuery {
            name: "B01",
            description: "works created by the most prolific author (creator ⊒ author/editor)",
            cq: Cq::new(
                vec![v("p")],
                vec![
                    Atom::new(v("p"), ID_RDF_TYPE, vb.publication),
                    Atom::new(v("p"), vb.creator, author0),
                ],
            )?,
        },
        NamedQuery {
            name: "B02",
            description: "articles citing articles (double subclass reasoning)",
            cq: Cq::new(
                vec![v("a"), v("b")],
                vec![
                    Atom::new(v("a"), ID_RDF_TYPE, vb.article),
                    Atom::new(v("a"), vb.cites, v("b")),
                    Atom::new(v("b"), ID_RDF_TYPE, vb.article),
                ],
            )?,
        },
        NamedQuery {
            name: "B03",
            description: "publication kinds with their creators (class variable)",
            cq: Cq::new(
                vec![v("p"), v("t"), v("c")],
                vec![
                    Atom::new(v("p"), ID_RDF_TYPE, v("t")),
                    Atom::new(v("p"), vb.creator, v("c")),
                ],
            )?,
        },
        NamedQuery {
            name: "B04",
            description: "titles of books (leaf class, no reasoning needed)",
            cq: Cq::new(
                vec![v("p"), v("t")],
                vec![
                    Atom::new(v("p"), ID_RDF_TYPE, vb.book),
                    Atom::new(v("p"), vb.title, v("t")),
                ],
            )?,
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lubm::{generate, LubmConfig};

    #[test]
    fn example1_has_the_paper_shape() {
        let ds = generate(&LubmConfig::default());
        let q = example1(&ds, 0).unwrap();
        assert_eq!(q.size(), 6);
        assert_eq!(q.arity(), 5);
        // t1 and t2 have variable class positions.
        assert!(q.body[0].o.is_var() && q.body[1].o.is_var());
        // t3 and t4 share the constant university.
        assert_eq!(q.body[2].o, q.body[3].o);
        // the paper cover is valid for it.
        let cover = example1_paper_cover().unwrap();
        assert_eq!(cover.len(), 4);
    }

    #[test]
    fn mix_is_well_formed_and_diverse() {
        let ds = generate(&LubmConfig::default());
        let mix = lubm_mix(&ds).unwrap();
        assert_eq!(mix.len(), 12);
        let names: std::collections::HashSet<_> = mix.iter().map(|q| q.name).collect();
        assert_eq!(names.len(), 12);
        // At least one schema query and one variable-property query.
        assert!(mix.iter().any(|q| q.name == "Q11"));
        assert!(mix.iter().any(|q| q.cq.body.iter().any(|a| a.p.is_var())));
        // All queries non-empty bodies and valid arity.
        for q in &mix {
            assert!(q.cq.size() >= 1);
            assert!(q.cq.arity() >= 1);
        }
    }

    #[test]
    fn dataset_mixes_are_well_formed() {
        let b = crate::biblio::generate(&crate::biblio::BiblioConfig {
            publications: 30,
            authors: 10,
            ..crate::biblio::BiblioConfig::default()
        });
        assert_eq!(biblio_mix(&b).unwrap().len(), 4);
        for nq in biblio_mix(&b).unwrap() {
            assert!(nq.cq.size() >= 1, "{}", nq.name);
            assert!(!nq.description.is_empty());
        }
    }

    #[test]
    fn example1_errors_on_missing_university() {
        let ds = generate(&LubmConfig::scale(1));
        let err = example1(&ds, 99).unwrap_err();
        assert!(matches!(err, crate::error::DatagenError::MissingEntity(_)));
    }
}
