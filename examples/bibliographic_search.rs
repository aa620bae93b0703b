//! A bibliographic-search scenario on DBLP-like data: skewed authorship,
//! incomplete-system comparison, and live updates with incremental
//! saturation maintenance.
//!
//! ```sh
//! cargo run --release --example bibliographic_search
//! ```

use rdfref::datagen::biblio::{generate, BiblioConfig};
use rdfref::model::dictionary::ID_RDF_TYPE;
use rdfref::prelude::*;
use rdfref::query::ast::Atom;

fn main() {
    let ds = generate(&BiblioConfig::default());
    println!(
        "DBLP-like dataset: {} triples, {} authors, {} publications\n",
        ds.graph.len(),
        400,
        2000
    );
    let v = &ds.vocab;
    let db = Database::builder().build(ds.graph.clone());
    let opts = AnswerOptions::default();

    // "Everything created by the most prolific author" — creator is a
    // super-property; only author/editor edges are asserted.
    let top_author = ds
        .graph
        .dictionary()
        .id_of_iri("http://bib.example.org/author/0")
        .expect("author 0 exists");
    let q_creator = Cq::new(
        vec![Var::new("p")],
        vec![
            Atom::new(Var::new("p"), ID_RDF_TYPE, v.publication),
            Atom::new(Var::new("p"), v.creator, top_author),
        ],
    )
    .unwrap();

    println!("=== works created by the top author ===");
    let sat = db
        .query(&q_creator)
        .strategy(Strategy::Saturation)
        .options(opts.clone())
        .run()
        .unwrap();
    let gcv = db
        .query(&q_creator)
        .strategy(Strategy::RefGCov)
        .options(opts.clone())
        .run()
        .unwrap();
    assert_eq!(sat.rows(), gcv.rows());
    println!(
        "complete answer  : {} works (Sat {:?}, Ref/GCov {:?}, cover {})",
        sat.len(),
        sat.explain.wall,
        gcv.explain.wall,
        gcv.explain.cover.as_ref().unwrap()
    );

    // What deployed systems with incomplete reformulation would return.
    for (label, profile) in [
        (
            "hierarchies only",
            IncompletenessProfile::hierarchies_only(),
        ),
        ("subclass only", IncompletenessProfile::subclass_only()),
        ("no reasoning", IncompletenessProfile::none()),
    ] {
        let partial = db
            .query(&q_creator)
            .strategy(Strategy::RefIncomplete(profile))
            .options(opts.clone())
            .run()
            .unwrap();
        println!(
            "{label:<17}: {} works ({} missing)",
            partial.len(),
            sat.len() - partial.len()
        );
    }

    // Live updates: a Sat-based deployment must maintain the saturation.
    println!("\n=== live updates (Sat maintenance vs Ref) ===");
    let mut reasoner = IncrementalReasoner::new(ds.graph.clone());
    let new_pub = Term::iri("http://bib.example.org/pub/new");
    let t_type = reasoner.intern_triple(
        &new_pub,
        &Term::iri(rdfref::model::vocab::RDF_TYPE),
        &Term::iri("http://bib.example.org/schema#JournalArticle"),
    );
    let t_author = reasoner.intern_triple(
        &new_pub,
        &Term::iri("http://bib.example.org/schema#author"),
        &Term::iri("http://bib.example.org/author/0"),
    );
    let start = std::time::Instant::now();
    let added = reasoner.insert(&[t_type, t_author]);
    println!(
        "inserted 2 explicit triples → saturation grew by {added} triples in {:?}",
        start.elapsed()
    );

    // Ref needs no maintenance: just re-prepare and re-ask.
    let db2 = Database::builder().build(reasoner.explicit().clone());
    let after = db2
        .query(&q_creator)
        .strategy(Strategy::RefGCov)
        .options(opts.clone())
        .run()
        .unwrap();
    println!(
        "re-asking via Ref: {} works (one more than before: {})",
        after.len(),
        after.len() == sat.len() + 1
    );

    // Deleting the insertion brings everything back.
    let start = std::time::Instant::now();
    let removed = reasoner.delete(&[t_type, t_author]);
    println!(
        "deleted them again → maintenance removed {removed} triples in {:?}",
        start.elapsed()
    );
    assert_eq!(reasoner.saturated(), &saturate(reasoner.explicit()));
    println!("maintained saturation verified against from-scratch saturation ✓");
}
