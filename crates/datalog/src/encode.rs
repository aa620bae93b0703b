//! The RDF → Datalog encoding (the Dat technique).
//!
//! * every triple of the graph becomes an EDB fact `triple(s, p, o)`;
//! * an IDB predicate `tc(s, p, o)` ("triple closure") is defined by one
//!   copy rule plus the RDFS rules of the DB fragment — both the data-tier
//!   rules (rdfs2/3/7/9) and the schema-tier rules (transitivity,
//!   domain/range propagation), so `tc` coincides with `G∞`;
//! * the input CQ becomes a rule `q(x̄) :- tc-atoms`.
//!
//! Evaluating `q` on the engine answers the query with full RDFS
//! completeness, paying a saturation-like derivation cost at query time —
//! Dat's characteristic trade-off in the demo's comparisons.

use crate::ast::{DAtom, DTerm, DatalogError, Pred, Program, Rule};
use crate::engine::Engine;
use rdfref_model::dictionary::{
    ID_RDFS_DOMAIN, ID_RDFS_RANGE, ID_RDFS_SUBCLASSOF, ID_RDFS_SUBPROPERTYOF, ID_RDF_TYPE,
};
use rdfref_model::{Graph, TermId};
use rdfref_obs::Obs;
use rdfref_query::ast::{Cq, PTerm};
use rdfref_query::Var;

/// The EDB predicate name.
pub const TRIPLE: &str = "triple";
/// The closed IDB predicate name.
pub const TC: &str = "tc";
/// The query head predicate name.
pub const QUERY: &str = "q";

fn p_triple() -> Pred {
    Pred::new(TRIPLE)
}
fn p_tc() -> Pred {
    Pred::new(TC)
}

fn tc(args: Vec<DTerm>) -> DAtom {
    DAtom::new(p_tc(), args)
}

fn v(name: &str) -> DTerm {
    DTerm::Var(Var::new(name))
}

fn k(id: TermId) -> DTerm {
    DTerm::Const(id)
}

/// Encode a graph into a program: EDB facts plus the RDFS closure rules for
/// `tc` (no query yet; see [`encode_query`]).
///
/// The closure rules are fixed and safe by construction, but their safety
/// is still checked through [`Rule::new`] like any other rule — an
/// encoding bug surfaces as a typed [`DatalogError`], never a panic.
pub fn encode_graph(graph: &Graph) -> Result<Program, DatalogError> {
    let mut prog = Program::new();
    for t in graph.iter() {
        prog.fact(p_triple(), vec![t.s, t.p, t.o]);
    }
    let rules: Vec<Rule> = vec![
        // Copy rule: tc ⊇ triple.
        Rule::new(
            tc(vec![v("s"), v("p"), v("o")]),
            vec![DAtom::new(p_triple(), vec![v("s"), v("p"), v("o")])],
        )?,
        // rdfs9: s τ c1, c1 ≺sc c2 → s τ c2.
        Rule::new(
            tc(vec![v("s"), k(ID_RDF_TYPE), v("c2")]),
            vec![
                tc(vec![v("s"), k(ID_RDF_TYPE), v("c1")]),
                tc(vec![v("c1"), k(ID_RDFS_SUBCLASSOF), v("c2")]),
            ],
        )?,
        // rdfs7: s p o, p ≺sp q → s q o.
        Rule::new(
            tc(vec![v("s"), v("q"), v("o")]),
            vec![
                tc(vec![v("s"), v("p"), v("o")]),
                tc(vec![v("p"), k(ID_RDFS_SUBPROPERTYOF), v("q")]),
            ],
        )?,
        // rdfs2: s p o, p ←d c → s τ c.
        Rule::new(
            tc(vec![v("s"), k(ID_RDF_TYPE), v("c")]),
            vec![
                tc(vec![v("s"), v("p"), v("o")]),
                tc(vec![v("p"), k(ID_RDFS_DOMAIN), v("c")]),
            ],
        )?,
        // rdfs3: s p o, p ↪r c → o τ c.
        Rule::new(
            tc(vec![v("o"), k(ID_RDF_TYPE), v("c")]),
            vec![
                tc(vec![v("s"), v("p"), v("o")]),
                tc(vec![v("p"), k(ID_RDFS_RANGE), v("c")]),
            ],
        )?,
        // rdfs11: subclass transitivity (for schema-position queries).
        Rule::new(
            tc(vec![v("a"), k(ID_RDFS_SUBCLASSOF), v("c")]),
            vec![
                tc(vec![v("a"), k(ID_RDFS_SUBCLASSOF), v("b")]),
                tc(vec![v("b"), k(ID_RDFS_SUBCLASSOF), v("c")]),
            ],
        )?,
        // rdfs5: subproperty transitivity.
        Rule::new(
            tc(vec![v("a"), k(ID_RDFS_SUBPROPERTYOF), v("c")]),
            vec![
                tc(vec![v("a"), k(ID_RDFS_SUBPROPERTYOF), v("b")]),
                tc(vec![v("b"), k(ID_RDFS_SUBPROPERTYOF), v("c")]),
            ],
        )?,
        // ext-d↑: p ←d c1, c1 ≺sc c2 → p ←d c2.
        Rule::new(
            tc(vec![v("p"), k(ID_RDFS_DOMAIN), v("c2")]),
            vec![
                tc(vec![v("p"), k(ID_RDFS_DOMAIN), v("c1")]),
                tc(vec![v("c1"), k(ID_RDFS_SUBCLASSOF), v("c2")]),
            ],
        )?,
        // ext-r↑.
        Rule::new(
            tc(vec![v("p"), k(ID_RDFS_RANGE), v("c2")]),
            vec![
                tc(vec![v("p"), k(ID_RDFS_RANGE), v("c1")]),
                tc(vec![v("c1"), k(ID_RDFS_SUBCLASSOF), v("c2")]),
            ],
        )?,
        // ext-d↓: p1 ≺sp p2, p2 ←d c → p1 ←d c.
        Rule::new(
            tc(vec![v("p1"), k(ID_RDFS_DOMAIN), v("c")]),
            vec![
                tc(vec![v("p1"), k(ID_RDFS_SUBPROPERTYOF), v("p2")]),
                tc(vec![v("p2"), k(ID_RDFS_DOMAIN), v("c")]),
            ],
        )?,
        // ext-r↓.
        Rule::new(
            tc(vec![v("p1"), k(ID_RDFS_RANGE), v("c")]),
            vec![
                tc(vec![v("p1"), k(ID_RDFS_SUBPROPERTYOF), v("p2")]),
                tc(vec![v("p2"), k(ID_RDFS_RANGE), v("c")]),
            ],
        )?,
    ];
    for r in rules {
        prog.rule(r);
    }
    Ok(prog)
}

/// Encode a CQ as a rule `q(x̄) :- tc(t1), …, tc(tα)`.
///
/// Bound-constant head positions (produced by reformulation — not by user
/// queries) are passed through as constants.
pub fn encode_query(cq: &Cq) -> Result<Rule, DatalogError> {
    let to_dterm = |t: &PTerm| match t {
        PTerm::Var(v) => Ok(DTerm::Var(v.clone())),
        PTerm::Const(c) => Ok(DTerm::Const(*c)),
        PTerm::Range(..) => Err(DatalogError::RangeTermUnsupported),
    };
    let head = DAtom::new(
        Pred::new(QUERY),
        cq.head
            .iter()
            .map(to_dterm)
            .collect::<Result<_, DatalogError>>()?,
    );
    let body = cq
        .body
        .iter()
        .map(|a| Ok(tc(vec![to_dterm(&a.s)?, to_dterm(&a.p)?, to_dterm(&a.o)?])))
        .collect::<Result<_, DatalogError>>()?;
    Rule::new(head, body)
}

/// Answer a CQ over a graph via the Dat technique: encode, run to fixpoint,
/// read off `q`. Returns the deduplicated, sorted answer tuples and the
/// engine (for inspection of derivation counts in experiments).
pub fn answer_datalog(graph: &Graph, cq: &Cq) -> Result<(Vec<Vec<TermId>>, Engine), DatalogError> {
    answer_datalog_obs(graph, cq, &Obs::disabled())
}

/// [`answer_datalog`] recording into `obs`: the engine's `datalog.run` span,
/// per-round fact histogram, and rule-firing counters.
pub fn answer_datalog_obs(
    graph: &Graph,
    cq: &Cq,
    obs: &Obs,
) -> Result<(Vec<Vec<TermId>>, Engine), DatalogError> {
    let mut prog = encode_graph(graph)?;
    prog.rule(encode_query(cq)?);
    let mut engine = Engine::load(&prog)?;
    engine.obs = obs.clone();
    engine.run();
    let mut rows: Vec<Vec<TermId>> = engine.tuples(&Pred::new(QUERY)).to_vec();
    rows.sort_unstable();
    rows.dedup();
    Ok((rows, engine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfref_model::parser::parse_turtle;
    use rdfref_query::parse_select;

    const DOC: &str = r#"
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:Book rdfs:subClassOf ex:Publication .
ex:writtenBy rdfs:subPropertyOf ex:hasAuthor .
ex:writtenBy rdfs:domain ex:Book .
ex:writtenBy rdfs:range ex:Person .
ex:doi1 rdf:type ex:Book .
ex:doi1 ex:writtenBy _:b1 .
_:b1 ex:hasName "J. L. Borges" .
ex:doi1 ex:publishedIn "1949" .
"#;

    #[test]
    fn dat_answers_the_paper_query() {
        // §3's query: names of authors of things connected to "1949".
        let mut g = parse_turtle(DOC).unwrap();
        let q = parse_select(
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x3 WHERE { ?x1 ex:hasAuthor ?x2 . ?x2 ex:hasName ?x3 . ?x1 ?x4 "1949" }"#,
            g.dictionary_mut(),
        )
        .unwrap();
        let (rows, _) = answer_datalog(&g, &q).unwrap();
        assert_eq!(rows.len(), 1);
        let name = g.dictionary().term(rows[0][0]).clone();
        assert_eq!(name, rdfref_model::Term::literal("J. L. Borges"));
    }

    #[test]
    fn dat_derives_types_through_domain() {
        let mut g = parse_turtle(DOC).unwrap();
        let q = parse_select(
            r#"PREFIX ex: <http://example.org/>
               PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               SELECT ?x WHERE { ?x rdf:type ex:Publication }"#,
            g.dictionary_mut(),
        )
        .unwrap();
        let (rows, engine) = answer_datalog(&g, &q).unwrap();
        assert_eq!(rows.len(), 1); // doi1, via domain + subclass
        assert!(engine.derived_count > 0);
    }

    #[test]
    fn dat_handles_variable_property_queries() {
        let mut g = parse_turtle(DOC).unwrap();
        // All (property, value) pairs of doi1, including inferred hasAuthor.
        let q = parse_select(
            r#"PREFIX ex: <http://example.org/>
               SELECT ?p ?o WHERE { ex:doi1 ?p ?o }"#,
            g.dictionary_mut(),
        )
        .unwrap();
        let (rows, _) = answer_datalog(&g, &q).unwrap();
        let has_author = g
            .dictionary()
            .id_of_iri("http://example.org/hasAuthor")
            .unwrap();
        assert!(rows.iter().any(|r| r[0] == has_author));
        // Also the entailed type Publication.
        let publication = g
            .dictionary()
            .id_of_iri("http://example.org/Publication")
            .unwrap();
        assert!(rows
            .iter()
            .any(|r| r[0] == ID_RDF_TYPE && r[1] == publication));
    }

    #[test]
    fn dat_schema_position_query() {
        let doc = r#"
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:A rdfs:subClassOf ex:B .
ex:B rdfs:subClassOf ex:C .
"#;
        let mut g = parse_turtle(doc).unwrap();
        let q = parse_select(
            r#"PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
               PREFIX ex: <http://example.org/>
               SELECT ?x WHERE { ?x rdfs:subClassOf ex:C }"#,
            g.dictionary_mut(),
        )
        .unwrap();
        let (rows, _) = answer_datalog(&g, &q).unwrap();
        assert_eq!(rows.len(), 2); // A (transitively) and B
    }

    #[test]
    fn bound_head_constants_pass_through() {
        let mut g = parse_turtle(DOC).unwrap();
        let book = g.dictionary_mut().intern_iri("http://example.org/Book");
        let cq = Cq::new_unchecked(
            vec![PTerm::Var(Var::new("x")), PTerm::Const(book)],
            vec![rdfref_query::ast::Atom::new(
                Var::new("x"),
                ID_RDF_TYPE,
                book,
            )],
        );
        let (rows, _) = answer_datalog(&g, &cq).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], book);
    }
}
