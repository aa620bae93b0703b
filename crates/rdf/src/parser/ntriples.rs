//! N-Triples parser.
//!
//! Implements the W3C N-Triples grammar restricted to the features the
//! workspace produces (IRIs, blank nodes, plain/typed/language literals,
//! `#` comments), with precise line- and column-numbered errors. The
//! parser never panics: any byte sequence either yields a graph or a
//! typed [`ModelError::Syntax`].

use crate::error::{ModelError, Result};
use crate::graph::{sorted_run, Graph};
use crate::term::{Literal, Term};
use crate::triple::Triple;

/// Parse an N-Triples document into a fresh [`Graph`].
pub fn parse_ntriples(input: &str) -> Result<Graph> {
    let mut graph = Graph::new();
    parse_ntriples_into(input, &mut graph)?;
    Ok(graph)
}

/// Parse an N-Triples document, inserting into an existing graph: one
/// sort and one merge. On a syntax error the graph keeps its triples.
pub fn parse_ntriples_into(input: &str, graph: &mut Graph) -> Result<()> {
    let mut batch = Vec::new();
    for (lineno, raw) in input.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let mut cursor = Cursor::new(text, line);
        let subject = cursor.parse_term()?;
        cursor.skip_ws();
        let property = cursor.parse_term()?;
        cursor.skip_ws();
        let object = cursor.parse_term()?;
        cursor.skip_ws();
        cursor.expect_char('.')?;
        cursor.skip_ws();
        if !cursor.at_end() {
            return Err(cursor.error("trailing content after '.'"));
        }
        let t = Triple::new(subject, property, object).map_err(|e| ModelError::Syntax {
            line,
            message: e.to_string(),
        })?;
        batch.push(graph.encode(&t));
    }
    graph.apply_delta(&sorted_run(batch), &[]);
    Ok(())
}

/// A character cursor over one line of N-Triples, tracking the column so
/// errors point at the offending character.
pub(crate) struct Cursor<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
    col: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(text: &'a str, line: usize) -> Self {
        Cursor {
            chars: text.chars().peekable(),
            line,
            col: 1,
        }
    }

    pub(crate) fn error(&self, message: &str) -> ModelError {
        ModelError::Syntax {
            line: self.line,
            message: format!("column {}: {message}", self.col),
        }
    }

    pub(crate) fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    pub(crate) fn at_end(&mut self) -> bool {
        self.chars.peek().is_none()
    }

    pub(crate) fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    pub(crate) fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        if c.is_some() {
            self.col += 1;
        }
        c
    }

    /// Consume exactly `c` or fail with a positioned error. (Named to stay
    /// clear of `Option::expect`, which library code is denied.)
    pub(crate) fn expect_char(&mut self, c: char) -> Result<()> {
        match self.bump() {
            Some(found) if found == c => Ok(()),
            Some(found) => Err(self.error(&format!("expected '{c}', found '{found}'"))),
            None => Err(self.error(&format!("expected '{c}', found end of line"))),
        }
    }

    /// Parse one term: `<iri>`, `_:label`, or a literal.
    pub(crate) fn parse_term(&mut self) -> Result<Term> {
        match self.peek() {
            Some('<') => self.parse_iri(),
            Some('_') => self.parse_blank(),
            Some('"') => self.parse_literal(),
            Some(c) => Err(self.error(&format!("unexpected character '{c}' at start of term"))),
            None => Err(self.error("unexpected end of line, expected a term")),
        }
    }

    /// Parse `<iri>` and return the IRI text.
    fn parse_iri_string(&mut self) -> Result<String> {
        self.expect_char('<')?;
        let mut iri = String::new();
        loop {
            match self.bump() {
                Some('>') => break,
                Some(c) if c.is_whitespace() => {
                    return Err(self.error("whitespace inside IRI"));
                }
                Some(c) => iri.push(c),
                None => return Err(self.error("unterminated IRI")),
            }
        }
        Ok(iri)
    }

    pub(crate) fn parse_iri(&mut self) -> Result<Term> {
        let iri = self.parse_iri_string()?;
        Term::iri_checked(&iri).map_err(|_| self.error(&format!("invalid IRI <{iri}>")))
    }

    pub(crate) fn parse_blank(&mut self) -> Result<Term> {
        self.expect_char('_')?;
        self.expect_char(':')?;
        let mut label = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '-' {
                label.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if label.is_empty() {
            return Err(self.error("empty blank node label"));
        }
        Ok(Term::blank(label))
    }

    pub(crate) fn parse_literal(&mut self) -> Result<Term> {
        self.expect_char('"')?;
        let mut lex = String::new();
        loop {
            match self.bump() {
                Some('"') => break,
                Some('\\') => match self.bump() {
                    Some('n') => lex.push('\n'),
                    Some('r') => lex.push('\r'),
                    Some('t') => lex.push('\t'),
                    Some('"') => lex.push('"'),
                    Some('\\') => lex.push('\\'),
                    Some(c) => return Err(self.error(&format!("bad escape '\\{c}'"))),
                    None => return Err(self.error("unterminated escape")),
                },
                Some(c) => lex.push(c),
                None => return Err(self.error("unterminated literal")),
            }
        }
        match self.peek() {
            Some('^') => {
                self.expect_char('^')?;
                self.expect_char('^')?;
                let dt_iri = self.parse_iri_string()?;
                let dt = Term::iri_checked(&dt_iri)
                    .map_err(|_| self.error(&format!("invalid datatype IRI <{dt_iri}>")))?;
                let Term::Iri(dt_iri) = dt else {
                    return Err(self.error("datatype must be an IRI"));
                };
                Ok(Term::Literal(Literal {
                    lexical: lex.into(),
                    datatype: Some(dt_iri),
                    language: None,
                }))
            }
            Some('@') => {
                self.bump();
                let mut lang = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == '-' {
                        lang.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if lang.is_empty() {
                    return Err(self.error("empty language tag"));
                }
                Ok(Term::Literal(Literal::lang(lex, &lang)))
            }
            _ => Ok(Term::literal(lex)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::Triple;
    use crate::vocab;

    #[test]
    fn parses_the_paper_example_graph() {
        // The running example of §3 of the paper.
        let doc = r#"
# G: a book described in RDF
<http://doi1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://Book> .
<http://doi1> <http://writtenBy> _:b1 .
<http://doi1> <http://hasTitle> "El Aleph" .
_:b1 <http://hasName> "J. L. Borges" .
<http://doi1> <http://publishedIn> "1949" .
"#;
        let g = parse_ntriples(doc).unwrap();
        assert_eq!(g.len(), 5);
        let t = Triple::new(
            Term::iri("http://doi1"),
            Term::iri(vocab::RDF_TYPE),
            Term::iri("http://Book"),
        )
        .unwrap();
        assert!(g.contains(&t));
    }

    #[test]
    fn parses_typed_and_language_literals() {
        let doc = concat!(
            "<http://s> <http://p> \"1949\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
            "<http://s> <http://p> \"hola\"@es .\n",
        );
        let g = parse_ntriples(doc).unwrap();
        assert_eq!(g.len(), 2);
        assert!(g.contains(
            &Triple::new(
                Term::iri("http://s"),
                Term::iri("http://p"),
                Term::typed_literal("1949", vocab::XSD_INTEGER),
            )
            .unwrap()
        ));
    }

    #[test]
    fn parses_escapes() {
        let doc = "<http://s> <http://p> \"say \\\"hi\\\"\\n\" .\n";
        let g = parse_ntriples(doc).unwrap();
        let obj = g.iter_decoded().next().unwrap().object;
        assert_eq!(obj, Term::literal("say \"hi\"\n"));
    }

    #[test]
    fn error_reports_line_numbers() {
        let doc = "<http://s> <http://p> <http://o> .\nbroken line\n";
        let err = parse_ntriples(doc).unwrap_err();
        match err {
            ModelError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn error_reports_columns() {
        // The bad escape is at column 28 of the trimmed line.
        let err = parse_ntriples("<http://s> <http://p> \"ab\\x\" .\n").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("column"), "no column in: {text}");
        assert!(text.contains("bad escape"), "wrong message: {text}");
    }

    #[test]
    fn rejects_missing_dot() {
        let err = parse_ntriples("<http://s> <http://p> <http://o>\n").unwrap_err();
        assert!(matches!(err, ModelError::Syntax { line: 1, .. }));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let err = parse_ntriples("<http://s> <http://p> <http://o> . extra\n").unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn rejects_literal_subject() {
        let err = parse_ntriples("\"lit\" <http://p> <http://o> .\n").unwrap_err();
        assert!(matches!(err, ModelError::Syntax { line: 1, .. }));
    }

    #[test]
    fn rejects_unterminated_iri_and_literal() {
        assert!(parse_ntriples("<http://s <http://p> <http://o> .").is_err());
        assert!(parse_ntriples("<http://s> <http://p> \"open .").is_err());
    }

    #[test]
    fn rejects_bad_datatype_iri() {
        assert!(parse_ntriples("<http://s> <http://p> \"x\"^^<not iri> .").is_err());
        assert!(parse_ntriples("<http://s> <http://p> \"x\"^^<> .").is_err());
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let g = parse_ntriples("\n# only a comment\n\n").unwrap();
        assert!(g.is_empty());
    }

    #[test]
    fn duplicate_triples_deduplicated() {
        let doc = "<http://s> <http://p> <http://o> .\n<http://s> <http://p> <http://o> .\n";
        let g = parse_ntriples(doc).unwrap();
        assert_eq!(g.len(), 1);
    }
}
