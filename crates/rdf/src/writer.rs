//! Serialization of graphs: N-Triples and prefix-compressed Turtle.

use crate::graph::Graph;
use crate::term::Term;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Serialize a graph as N-Triples, one triple per line, in the graph's
/// (SPO id) order.
pub fn to_ntriples(graph: &Graph) -> String {
    let mut out = String::with_capacity(graph.len() * 64);
    for t in graph.iter_decoded() {
        let _ = writeln!(out, "{t}");
    }
    out
}

/// Write a graph as N-Triples to any `io::Write` sink (e.g. a file), without
/// materializing the whole document in memory.
pub fn write_ntriples<W: std::io::Write>(graph: &Graph, mut sink: W) -> std::io::Result<()> {
    for t in graph.iter_decoded() {
        writeln!(sink, "{t}")?;
    }
    Ok(())
}

/// Serialize a graph as Turtle with prefix compression: namespaces are
/// inferred from the IRIs in use (the text up to the last `#` or `/`), the
/// most frequent ones get `@prefix` declarations, and `rdf:type` is written
/// as `a`. The output re-parses to the same graph with
/// [`crate::parser::parse_turtle`].
pub fn to_turtle(graph: &Graph) -> String {
    // 1. Collect namespace frequencies over the IRIs in use.
    let mut ns_counts: BTreeMap<String, usize> = BTreeMap::new();
    let split_ns = |iri: &str| -> Option<(String, String)> {
        let cut = iri.rfind(['#', '/'])? + 1;
        let (ns, local) = iri.split_at(cut);
        // A usable local name for turtle-lite: alphanumerics/underscore/dash,
        // starting with a letter.
        let ok = !local.is_empty()
            && local
                .chars()
                .next()
                .map(|c| c.is_alphabetic())
                .unwrap_or(false)
            && local
                .chars()
                .all(|c| c.is_alphanumeric() || c == '_' || c == '-');
        if ok {
            Some((ns.to_string(), local.to_string()))
        } else {
            None
        }
    };
    for t in graph.iter_decoded() {
        for term in [&t.subject, &t.property, &t.object] {
            if let Some(iri) = term.as_iri() {
                if let Some((ns, _)) = split_ns(iri) {
                    *ns_counts.entry(ns).or_insert(0) += 1;
                }
            }
        }
    }
    // 2. Assign prefixes to namespaces used at least twice; well-known ones
    //    get their conventional labels.
    let mut prefixes: BTreeMap<String, String> = BTreeMap::new(); // ns → label
    let mut counter = 0usize;
    for (ns, count) in &ns_counts {
        let label = match ns.as_str() {
            // Well-known namespaces always get their conventional labels.
            crate::vocab::RDF_NS => "rdf".to_string(),
            crate::vocab::RDFS_NS => "rdfs".to_string(),
            crate::vocab::XSD_NS => "xsd".to_string(),
            // Others only earn a prefix when used repeatedly.
            _ if *count < 2 => continue,
            _ => {
                let label = format!("ns{counter}");
                counter += 1;
                label
            }
        };
        prefixes.insert(ns.clone(), label);
    }

    let render = |term: &Term| -> String {
        match term {
            Term::Iri(iri) => {
                if iri.as_ref() == crate::vocab::RDF_TYPE {
                    return "a".to_string();
                }
                if let Some((ns, local)) = split_ns(iri) {
                    if let Some(label) = prefixes.get(&ns) {
                        return format!("{label}:{local}");
                    }
                }
                format!("<{iri}>")
            }
            other => other.to_string(),
        }
    };

    // 3. Emit: prefix block, then triples grouped by subject with `;`.
    let mut out = String::new();
    for (ns, label) in &prefixes {
        let _ = writeln!(out, "@prefix {label}: <{ns}> .");
    }
    if !prefixes.is_empty() {
        out.push('\n');
    }
    let mut by_subject: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    for t in graph.iter_decoded() {
        by_subject
            .entry(render(&t.subject))
            .or_default()
            .push((render(&t.property), render(&t.object)));
    }
    for (subject, pos) in by_subject {
        let _ = write!(out, "{subject} ");
        for (i, (p, o)) in pos.iter().enumerate() {
            if i > 0 {
                let _ = write!(out, " ;\n{:width$} ", "", width = subject.chars().count());
            }
            let _ = write!(out, "{p} {o}");
        }
        let _ = writeln!(out, " .");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_ntriples;
    use crate::parser::parse_turtle;
    use crate::term::Term;

    #[test]
    fn round_trip_preserves_graph() {
        let mut g = Graph::new();
        g.insert(
            Term::iri("http://s"),
            Term::iri("http://p"),
            Term::literal("with \"quotes\" and \n newline"),
        )
        .unwrap();
        g.insert(
            Term::blank("b1"),
            Term::iri("http://p"),
            Term::iri("http://o"),
        )
        .unwrap();
        g.insert(
            Term::iri("http://s"),
            Term::iri("http://p"),
            Term::typed_literal("5", "http://www.w3.org/2001/XMLSchema#integer"),
        )
        .unwrap();
        let doc = to_ntriples(&g);
        let g2 = parse_ntriples(&doc).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn turtle_round_trip_with_prefixes() {
        let doc = r#"
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:Book rdfs:subClassOf ex:Publication .
ex:doi1 rdf:type ex:Book ;
        ex:hasTitle "El Aleph" ;
        ex:writtenBy _:b1 .
_:b1 ex:hasName "J. L. Borges" .
"#;
        let g = parse_turtle(doc).unwrap();
        let rendered = to_turtle(&g);
        // Prefixes were inferred and used.
        assert!(rendered.contains("@prefix"), "{rendered}");
        assert!(rendered.contains("rdfs:subClassOf"), "{rendered}");
        assert!(rendered.contains(" a "), "rdf:type becomes 'a': {rendered}");
        // Round trip.
        let g2 =
            parse_turtle(&rendered).unwrap_or_else(|e| panic!("reparse failed: {e}\n{rendered}"));
        assert_eq!(g, g2);
    }

    #[test]
    fn turtle_handles_awkward_iris_and_literals() {
        let mut g = Graph::new();
        // IRI whose local name is not prefixable (starts with a digit).
        g.insert(
            Term::iri("http://e/123abc"),
            Term::iri("http://e/p"),
            Term::literal("quote \" and newline \n"),
        )
        .unwrap();
        g.insert(
            Term::iri("http://e/ok"),
            Term::iri("http://e/p"),
            Term::typed_literal("5", "http://www.w3.org/2001/XMLSchema#integer"),
        )
        .unwrap();
        let rendered = to_turtle(&g);
        let g2 =
            parse_turtle(&rendered).unwrap_or_else(|e| panic!("reparse failed: {e}\n{rendered}"));
        assert_eq!(g, g2);
    }

    #[test]
    fn turtle_groups_subjects_with_semicolons() {
        let mut g = Graph::new();
        g.insert(
            Term::iri("http://e/s"),
            Term::iri("http://e/p"),
            Term::iri("http://e/a"),
        )
        .unwrap();
        g.insert(
            Term::iri("http://e/s"),
            Term::iri("http://e/q"),
            Term::iri("http://e/b"),
        )
        .unwrap();
        let rendered = to_turtle(&g);
        assert_eq!(rendered.matches(';').count(), 1, "{rendered}");
        assert_eq!(parse_turtle(&rendered).unwrap().len(), 2);
    }

    #[test]
    fn write_to_sink_matches_string() {
        let mut g = Graph::new();
        g.insert(
            Term::iri("http://s"),
            Term::iri("http://p"),
            Term::iri("http://o"),
        )
        .unwrap();
        let mut buf = Vec::new();
        write_ntriples(&g, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), to_ntriples(&g));
    }
}
