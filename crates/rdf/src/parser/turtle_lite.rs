//! "Turtle-lite": a pragmatic Turtle subset.
//!
//! Supported features — chosen so ontologies and test fixtures are pleasant
//! to write by hand:
//!
//! * `@prefix pfx: <iri> .` declarations (and `PREFIX` SPARQL-style);
//! * prefixed names `pfx:local` everywhere a term is allowed;
//! * `a` as sugar for `rdf:type`;
//! * predicate lists `s p1 o1 ; p2 o2 .` and object lists `s p o1 , o2 .`;
//! * `<full-iri>`, `_:blank`, `"literal"`, `"lit"^^dt`, `"lit"@lang`,
//!   bare integers (parsed as `xsd:integer`-typed literals);
//! * `#` comments (outside of quoted strings and IRIs).
//!
//! Not supported (rejected with a clear error): collections `(...)`,
//! anonymous nodes `[...]`, multi-line literals, base IRIs.
//!
//! The parser never panics: any byte sequence either yields a graph or a
//! typed [`ModelError`] whose message carries line and column.

use crate::error::{ModelError, Result};
use crate::graph::{sorted_run, Graph};
use crate::term::Term;
use crate::triple::{EncodedTriple, Triple};
use crate::vocab;
use std::collections::HashMap;

/// Parse a turtle-lite document into a fresh graph.
///
/// ```
/// let g = rdfref_model::parser::parse_turtle(r#"
///     @prefix ex: <http://example.org/> .
///     ex:doi1 a ex:Book ; ex:hasTitle "El Aleph" .
/// "#).unwrap();
/// assert_eq!(g.len(), 2);
/// ```
pub fn parse_turtle(input: &str) -> Result<Graph> {
    let mut g = Graph::new();
    parse_turtle_into(input, &mut g)?;
    Ok(g)
}

/// Parse a turtle-lite document into an existing graph: one sort and one
/// merge. On a syntax error the graph keeps its triples.
pub fn parse_turtle_into(input: &str, graph: &mut Graph) -> Result<()> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        prefixes: HashMap::new(),
    };
    let mut batch = Vec::new();
    parser.document(graph, &mut batch)?;
    graph.apply_delta(&sorted_run(batch), &[]);
    Ok(())
}

/// A literal's datatype annotation as written — resolved to an IRI by the
/// parser. A dedicated type (not a nested [`Tok`]) so no impossible token
/// shapes need handling downstream.
#[derive(Debug, Clone, PartialEq)]
enum DtTok {
    Iri(String),
    Prefixed(String, String),
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Iri(String),
    Prefixed(String, String),
    Blank(String),
    Literal {
        lexical: String,
        datatype: Option<DtTok>,
        language: Option<String>,
    },
    Integer(String),
    A,
    PrefixDecl,
    Dot,
    Semicolon,
    Comma,
}

struct Located {
    tok: Tok,
    line: usize,
    col: usize,
}

/// Character scanner with line/column tracking.
struct Scanner<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
    col: usize,
}

impl<'a> Scanner<'a> {
    fn new(input: &'a str) -> Scanner<'a> {
        Scanner {
            chars: input.chars().peekable(),
            line: 1,
            col: 1,
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn peek2(&mut self) -> Option<char> {
        let mut look = self.chars.clone();
        look.next();
        look.next()
    }

    fn next(&mut self) -> Option<char> {
        let c = self.chars.next();
        match c {
            Some('\n') => {
                self.line += 1;
                self.col = 1;
            }
            Some(_) => self.col += 1,
            None => {}
        }
        c
    }

    fn error(&self, message: &str) -> ModelError {
        ModelError::Syntax {
            line: self.line,
            message: format!("column {}: {message}", self.col),
        }
    }

    fn read_name(&mut self) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || matches!(c, '_' | '-' | ':' | '%') {
                s.push(c);
                self.next();
            } else {
                break;
            }
        }
        s
    }
}

fn tokenize(input: &str) -> Result<Vec<Located>> {
    let mut out = Vec::new();
    let mut sc = Scanner::new(input);
    while let Some(c) = sc.peek() {
        let (line, col) = (sc.line, sc.col);
        let push = |out: &mut Vec<Located>, tok: Tok| out.push(Located { tok, line, col });
        match c {
            c if c.is_whitespace() => {
                sc.next();
            }
            '#' => {
                while let Some(c) = sc.peek() {
                    if c == '\n' {
                        break;
                    }
                    sc.next();
                }
            }
            '<' => {
                sc.next();
                let mut iri = String::new();
                loop {
                    match sc.peek() {
                        Some('>') => {
                            sc.next();
                            break;
                        }
                        Some('\n') | None => return Err(sc.error("unterminated IRI")),
                        Some(c) => {
                            iri.push(c);
                            sc.next();
                        }
                    }
                }
                push(&mut out, Tok::Iri(iri));
            }
            '"' => {
                sc.next();
                let mut lex = String::new();
                loop {
                    match sc.next() {
                        Some('"') => break,
                        Some('\\') => match sc.next() {
                            Some('n') => lex.push('\n'),
                            Some('r') => lex.push('\r'),
                            Some('t') => lex.push('\t'),
                            Some('"') => lex.push('"'),
                            Some('\\') => lex.push('\\'),
                            Some(c) => return Err(sc.error(&format!("bad escape '\\{c}'"))),
                            None => return Err(sc.error("unterminated escape")),
                        },
                        Some('\n') => return Err(sc.error("multi-line literals not supported")),
                        Some(c) => lex.push(c),
                        None => return Err(sc.error("unterminated literal")),
                    }
                }
                // Optional ^^datatype or @lang.
                if sc.peek() == Some('^') {
                    sc.next();
                    if sc.next() != Some('^') {
                        return Err(sc.error("expected '^^'"));
                    }
                    let datatype = match sc.peek() {
                        Some('<') => {
                            sc.next();
                            let mut iri = String::new();
                            loop {
                                match sc.next() {
                                    Some('>') => break,
                                    Some(c) => iri.push(c),
                                    None => {
                                        return Err(sc.error("unterminated datatype IRI"));
                                    }
                                }
                            }
                            DtTok::Iri(iri)
                        }
                        _ => {
                            let name = sc.read_name();
                            let (pfx, local) = split_prefixed(&name).ok_or_else(|| {
                                sc.error("expected datatype IRI or prefixed name")
                            })?;
                            DtTok::Prefixed(pfx, local)
                        }
                    };
                    push(
                        &mut out,
                        Tok::Literal {
                            lexical: lex,
                            datatype: Some(datatype),
                            language: None,
                        },
                    );
                } else if sc.peek() == Some('@') {
                    sc.next();
                    let mut lang = String::new();
                    while let Some(c) = sc.peek() {
                        if c.is_ascii_alphanumeric() || c == '-' {
                            lang.push(c);
                            sc.next();
                        } else {
                            break;
                        }
                    }
                    if lang.is_empty() {
                        return Err(sc.error("empty language tag"));
                    }
                    push(
                        &mut out,
                        Tok::Literal {
                            lexical: lex,
                            datatype: None,
                            language: Some(lang),
                        },
                    );
                } else {
                    push(
                        &mut out,
                        Tok::Literal {
                            lexical: lex,
                            datatype: None,
                            language: None,
                        },
                    );
                }
            }
            '_' => {
                sc.next();
                if sc.next() != Some(':') {
                    return Err(sc.error("expected ':' after '_'"));
                }
                let label = sc.read_name();
                if label.is_empty() {
                    return Err(sc.error("empty blank node label"));
                }
                push(&mut out, Tok::Blank(label));
            }
            '.' => {
                sc.next();
                push(&mut out, Tok::Dot);
            }
            ';' => {
                sc.next();
                push(&mut out, Tok::Semicolon);
            }
            ',' => {
                sc.next();
                push(&mut out, Tok::Comma);
            }
            '(' | '[' => {
                return Err(
                    sc.error("collections and anonymous nodes are not supported by turtle-lite")
                );
            }
            '@' => {
                sc.next();
                let word = sc.read_name();
                if word == "prefix" {
                    push(&mut out, Tok::PrefixDecl);
                } else {
                    return Err(sc.error(&format!("unsupported directive '@{word}'")));
                }
            }
            c if c.is_ascii_digit() || c == '-' || c == '+' => {
                let mut num = String::new();
                num.push(c);
                sc.next();
                while let Some(d) = sc.peek() {
                    if d.is_ascii_digit() {
                        num.push(d);
                        sc.next();
                    } else if d == '.' {
                        // A '.' followed by a non-digit terminates the
                        // statement, so only consume it when a digit follows.
                        if matches!(sc.peek2(), Some(e) if e.is_ascii_digit()) {
                            num.push(d);
                            sc.next();
                        } else {
                            break;
                        }
                    } else {
                        break;
                    }
                }
                push(&mut out, Tok::Integer(num));
            }
            _ => {
                let name = sc.read_name();
                if name.is_empty() {
                    return Err(sc.error(&format!("unexpected character '{c}'")));
                }
                if name == "a" {
                    push(&mut out, Tok::A);
                } else if name.eq_ignore_ascii_case("prefix") {
                    push(&mut out, Tok::PrefixDecl);
                } else if let Some((pfx, local)) = split_prefixed(&name) {
                    push(&mut out, Tok::Prefixed(pfx, local));
                } else {
                    return Err(sc.error(&format!("bare word '{name}' is not a term")));
                }
            }
        }
    }
    Ok(out)
}

fn split_prefixed(name: &str) -> Option<(String, String)> {
    let idx = name.find(':')?;
    Some((name[..idx].to_string(), name[idx + 1..].to_string()))
}

struct Parser {
    tokens: Vec<Located>,
    pos: usize,
    prefixes: HashMap<String, String>,
}

impl Parser {
    fn peek(&self) -> Option<&Located> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<&Located> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Line/column of the token at (or just before) the cursor.
    fn position(&self) -> (usize, usize) {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| (t.line, t.col))
            .unwrap_or((0, 0))
    }

    fn line(&self) -> usize {
        self.position().0
    }

    fn err(&self, m: &str) -> ModelError {
        let (line, col) = self.position();
        ModelError::Syntax {
            line,
            message: format!("column {col}: {m}"),
        }
    }

    fn document(&mut self, graph: &mut Graph, batch: &mut Vec<EncodedTriple>) -> Result<()> {
        while self.peek().is_some() {
            if matches!(self.peek().map(|t| &t.tok), Some(Tok::PrefixDecl)) {
                self.prefix_decl()?;
            } else {
                self.statement(graph, batch)?;
            }
        }
        Ok(())
    }

    fn prefix_decl(&mut self) -> Result<()> {
        self.next(); // PrefixDecl
        let (pfx, local) = match self.next().map(|t| t.tok.clone()) {
            Some(Tok::Prefixed(p, l)) => (p, l),
            _ => return Err(self.err("expected 'pfx:' after @prefix")),
        };
        if !local.is_empty() {
            return Err(self.err("prefix label must end with ':'"));
        }
        let iri = match self.next().map(|t| t.tok.clone()) {
            Some(Tok::Iri(iri)) => iri,
            _ => return Err(self.err("expected <iri> in prefix declaration")),
        };
        // SPARQL-style PREFIX has no trailing dot; Turtle-style does.
        if matches!(self.peek().map(|t| &t.tok), Some(Tok::Dot)) {
            self.next();
        }
        self.prefixes.insert(pfx, iri);
        Ok(())
    }

    fn statement(&mut self, graph: &mut Graph, batch: &mut Vec<EncodedTriple>) -> Result<()> {
        let subject = self.term()?;
        loop {
            let property = self.property_term()?;
            loop {
                let object = self.term()?;
                let t = Triple::new(subject.clone(), property.clone(), object)
                    .map_err(|e| self.err(&e.to_string()))?;
                batch.push(graph.encode(&t));
                match self.peek().map(|t| &t.tok) {
                    Some(Tok::Comma) => {
                        self.next();
                    }
                    _ => break,
                }
            }
            match self.next().map(|t| t.tok.clone()) {
                Some(Tok::Semicolon) => continue,
                Some(Tok::Dot) => return Ok(()),
                Some(_) => return Err(self.err("expected ';', ',' or '.'")),
                None => return Err(self.err("unexpected end of document, expected '.'")),
            }
        }
    }

    fn property_term(&mut self) -> Result<Term> {
        if matches!(self.peek().map(|t| &t.tok), Some(Tok::A)) {
            self.next();
            return Ok(Term::iri(vocab::RDF_TYPE));
        }
        self.term()
    }

    fn resolve(&self, pfx: &str, local: &str) -> Result<String> {
        let base = self.prefixes.get(pfx).ok_or(ModelError::UnknownPrefix {
            line: self.line(),
            prefix: pfx.to_string(),
        })?;
        Ok(format!("{base}{local}"))
    }

    fn term(&mut self) -> Result<Term> {
        let tok = self
            .next()
            .map(|t| t.tok.clone())
            .ok_or_else(|| self.err("unexpected end of document, expected a term"))?;
        match tok {
            Tok::Iri(iri) => {
                Term::iri_checked(&iri).map_err(|_| self.err(&format!("invalid IRI <{iri}>")))
            }
            Tok::Prefixed(pfx, local) => {
                let iri = self.resolve(&pfx, &local)?;
                Term::iri_checked(&iri).map_err(|_| self.err(&format!("invalid IRI <{iri}>")))
            }
            Tok::Blank(label) => Ok(Term::blank(label)),
            Tok::Integer(n) => Ok(Term::typed_literal(n, vocab::XSD_INTEGER)),
            Tok::Literal {
                lexical,
                datatype,
                language,
            } => {
                let datatype = match datatype {
                    Some(DtTok::Iri(iri)) => Some(iri),
                    Some(DtTok::Prefixed(pfx, local)) => Some(self.resolve(&pfx, &local)?),
                    None => None,
                };
                Ok(Term::Literal(crate::term::Literal {
                    lexical: lexical.into(),
                    datatype: datatype.map(Into::into),
                    language: language.map(|l| l.to_ascii_lowercase().into()),
                }))
            }
            Tok::A => Ok(Term::iri(vocab::RDF_TYPE)),
            other => Err(self.err(&format!("expected a term, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::Triple;

    #[test]
    fn parses_prefixes_a_and_lists() {
        let doc = r#"
@prefix ex: <http://example.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:Book rdfs:subClassOf ex:Publication .
ex:doi1 a ex:Book ;
        ex:writtenBy _:b1 ;
        ex:hasTitle "El Aleph" , "The Aleph"@en ;
        ex:publishedIn 1949 .
_:b1 ex:hasName "J. L. Borges" .
"#;
        let g = parse_turtle(doc).unwrap();
        assert_eq!(g.len(), 7);
        assert!(g.contains(
            &Triple::new(
                Term::iri("http://example.org/doi1"),
                Term::iri(vocab::RDF_TYPE),
                Term::iri("http://example.org/Book"),
            )
            .unwrap()
        ));
        assert!(g.contains(
            &Triple::new(
                Term::iri("http://example.org/doi1"),
                Term::iri("http://example.org/publishedIn"),
                Term::typed_literal("1949", vocab::XSD_INTEGER),
            )
            .unwrap()
        ));
    }

    #[test]
    fn sparql_style_prefix_accepted() {
        let doc = "PREFIX ex: <http://e/>\nex:s ex:p ex:o .";
        let g = parse_turtle(doc).unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn unknown_prefix_is_reported() {
        let err = parse_turtle("nope:s nope:p nope:o .").unwrap_err();
        assert!(matches!(err, ModelError::UnknownPrefix { .. }));
    }

    #[test]
    fn typed_literal_with_prefixed_datatype() {
        let doc = "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n@prefix e: <http://e/> .\ne:s e:p \"12\"^^xsd:integer .";
        let g = parse_turtle(doc).unwrap();
        let obj = g.iter_decoded().next().unwrap().object;
        assert_eq!(obj, Term::typed_literal("12", vocab::XSD_INTEGER));
    }

    #[test]
    fn rejects_unsupported_syntax() {
        assert!(parse_turtle("@prefix e: <http://e/> .\ne:s e:p ( 1 2 ) .").is_err());
        assert!(parse_turtle("@prefix e: <http://e/> .\ne:s e:p [ e:q 1 ] .").is_err());
        assert!(parse_turtle("@base <http://e/> .").is_err());
    }

    #[test]
    fn rejects_missing_dot() {
        let err = parse_turtle("@prefix e: <http://e/> .\ne:s e:p e:o").unwrap_err();
        assert!(err.to_string().contains("'.'"));
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse_turtle("@prefix e: <http://e/> .\ne:s e:p \"x\\q\" .").unwrap_err();
        match &err {
            ModelError::Syntax { line, message } => {
                assert_eq!(*line, 2);
                assert!(message.contains("column"), "no column in: {message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn comments_everywhere() {
        let doc = "# header\n@prefix e: <http://e/> . # trailing\ne:s e:p e:o . # done\n";
        let g = parse_turtle(doc).unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn semicolon_object_and_comma_lists_compose() {
        let doc = "@prefix e: <http://e/> .\ne:s e:p e:a , e:b ; e:q e:c .";
        let g = parse_turtle(doc).unwrap();
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn integers_do_not_swallow_statement_dot() {
        let doc = "@prefix e: <http://e/> .\ne:s e:p 1949 .\ne:s e:q 7 .";
        let g = parse_turtle(doc).unwrap();
        assert_eq!(g.len(), 2);
    }
}
