//! Quickstart: the paper's running example (§3, Figure 2), answered with
//! every strategy.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use rdfref::prelude::*;

fn main() {
    // The RDF graph of Figure 2: a book, its author, and four RDFS
    // constraints. Note that the data triples never say that doi1 is a
    // Publication, that doi1 has an author, or that _:b1 is a Person —
    // those are implicit.
    let mut graph = rdfref::model::parser::parse_turtle(
        r#"
        @prefix rdf:  <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        @prefix ex:   <http://example.org/> .

        # data
        ex:doi1 rdf:type ex:Book ;
                ex:writtenBy _:b1 ;
                ex:hasTitle "El Aleph" ;
                ex:publishedIn "1949" .
        _:b1 ex:hasName "J. L. Borges" .

        # constraints
        ex:Book rdfs:subClassOf ex:Publication .        # books are publications
        ex:writtenBy rdfs:subPropertyOf ex:hasAuthor .  # writing means authoring
        ex:writtenBy rdfs:domain ex:Book .
        ex:writtenBy rdfs:range ex:Person .
    "#,
    )
    .expect("the example graph parses");

    // The paper's §3 query: "names of authors of books somehow connected to
    // the literal 1949". Evaluated naively on the explicit triples it
    // returns nothing — ex:hasAuthor is never asserted.
    let q = parse_select(
        r#"
        PREFIX ex: <http://example.org/>
        SELECT ?name WHERE {
            ?x ex:hasAuthor ?a .
            ?a ex:hasName ?name .
            ?x ?p "1949"
        }"#,
        graph.dictionary_mut(),
    )
    .expect("the query parses");

    let db = Database::builder().build(graph);
    let opts = AnswerOptions::default();

    println!("=== query ===");
    println!(
        "{}\n",
        rdfref::query::display::cq_to_string(&q, db.dictionary())
    );

    for strategy in [
        Strategy::Saturation,
        Strategy::RefUcq,
        Strategy::RefScq,
        Strategy::RefGCov,
        Strategy::Datalog,
    ] {
        let answer = db
            .query(&q)
            .strategy(strategy.clone())
            .options(opts.clone())
            .run()
            .expect("answering succeeds");
        println!("=== {} ===", strategy.name());
        for row in answer.decoded(db.dictionary()) {
            let rendered: Vec<String> = row.iter().map(|t| t.to_string()).collect();
            println!("  answer: {}", rendered.join(", "));
        }
        println!("{}", answer.explain);
    }

    // Incomplete reformulation (Virtuoso/AllegroGraph-style) misses the
    // answer entirely: it needs the subPropertyOf constraint.
    let partial = db
        .query(&q)
        .strategy(Strategy::RefIncomplete(
            IncompletenessProfile::subclass_only(),
        ))
        .options(opts.clone())
        .run()
        .expect("incomplete answering runs");
    println!(
        "=== Ref/incomplete (subclass only) ===\n  answers: {} (missed {})",
        partial.len(),
        1 - partial.len()
    );
}
