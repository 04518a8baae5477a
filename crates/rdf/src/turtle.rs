//! A Turtle-subset parser and serializer.
//!
//! Supports the fragment the annotation layer needs to persist and reload
//! repositories: `@prefix` directives, subject groups with `;`/`,`
//! abbreviations, the `a` keyword, IRIs, prefixed names, blank node labels,
//! string/numeric/boolean literals, datatype (`^^`) and language (`@`) tags,
//! and `#` comments. Collections and anonymous `[...]` blank nodes are not
//! supported (the annotation encoding never produces them).

use crate::namespace::PrefixMap;
use crate::store::GraphStore;
use crate::term::{Iri, Literal, Term};
use crate::triple::Triple;
use crate::{namespace::xsd, RdfError, Result};
use std::fmt::Write as _;

/// Escapes a string for a double-quoted Turtle literal.
pub fn escape_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Parses a Turtle document into triples plus the prefix map it declared.
pub fn parse(input: &str) -> Result<(Vec<Triple>, PrefixMap)> {
    let mut triples = Vec::new();
    let mut sink = |t: Triple| {
        triples.push(t);
        Ok(())
    };
    let prefixes = parse_each(input, &mut sink)?;
    Ok((triples, prefixes))
}

/// Streaming parse: invokes `sink` for each triple as it is produced, so a
/// bulk loader can ingest documents without materializing the triple list.
/// A sink error aborts the parse and is returned as-is.
pub fn parse_each(input: &str, sink: &mut dyn FnMut(Triple) -> Result<()>) -> Result<PrefixMap> {
    let mut parser = Parser::new(input, sink);
    parser.parse_document()?;
    Ok(parser.prefixes)
}

/// Parses a Turtle document straight into a [`GraphStore`]. Ill-formed
/// triples surface as [`crate::RdfError`] values (this path ingests
/// external data, so it must not abort the process).
pub fn parse_into_store(input: &str) -> Result<GraphStore> {
    let mut store = GraphStore::new();
    let mut sink = |t: Triple| store.try_insert(t).map(|_| ());
    parse_each(input, &mut sink)?;
    Ok(store)
}

/// Serializes a store as Turtle, grouping triples by subject and compacting
/// IRIs against the given prefix map. Generic over
/// [`Storage`](crate::storage::Storage) so durable backends export the
/// same way as the in-memory store.
pub fn serialize<S: crate::storage::Storage + ?Sized>(store: &S, prefixes: &PrefixMap) -> String {
    let mut out = String::new();
    for (p, ns) in prefixes.iter() {
        let _ = writeln!(out, "@prefix {p}: <{ns}> .");
    }
    if prefixes.iter().next().is_some() {
        out.push('\n');
    }
    let mut last_subject: Option<Term> = None;
    // iter() is SPO-ordered per dictionary ids, which is not stable across
    // stores; sort for deterministic output.
    let mut triples: Vec<Triple> = store.iter().collect();
    triples.sort();
    for t in &triples {
        if last_subject.as_ref() == Some(&t.subject) {
            let _ = write!(
                out,
                " ;\n    {} {}",
                render(&t.predicate, prefixes),
                render(&t.object, prefixes)
            );
        } else {
            if last_subject.is_some() {
                out.push_str(" .\n");
            }
            let _ = write!(
                out,
                "{} {} {}",
                render(&t.subject, prefixes),
                render(&t.predicate, prefixes),
                render(&t.object, prefixes)
            );
            last_subject = Some(t.subject.clone());
        }
    }
    if last_subject.is_some() {
        out.push_str(" .\n");
    }
    out
}

fn render(term: &Term, prefixes: &PrefixMap) -> String {
    match term {
        Term::Iri(iri) => {
            if iri.as_str() == crate::namespace::rdf::TYPE {
                "a".to_string()
            } else if let Some(pname) = prefixes.compact(iri) {
                pname
            } else {
                format!("<{iri}>")
            }
        }
        Term::Blank(b) => b.to_string(),
        Term::Literal(l) => {
            // Numeric / boolean shorthands where the lexical form is canonical.
            // Only canonical lexical forms may be written bare: "007" or
            // "1." would silently re-parse as a different literal.
            match l.datatype().as_str() {
                xsd::INTEGER if l.as_i64().is_some_and(|v| v.to_string() == l.lexical()) => {
                    return l.lexical().to_string()
                }
                xsd::BOOLEAN if matches!(l.lexical(), "true" | "false") => {
                    return l.lexical().to_string()
                }
                xsd::DOUBLE
                    if looks_double(l.lexical())
                        && l.as_f64()
                            .is_some_and(|v| crate::term::canonical_double(v) == l.lexical()) =>
                {
                    return l.lexical().to_string()
                }
                _ => {}
            }
            let mut s = format!("\"{}\"", escape_string(l.lexical()));
            if let Some(lang) = l.lang() {
                let _ = write!(s, "@{lang}");
            } else if l.datatype().as_str() != xsd::STRING {
                if let Some(pname) = prefixes.compact(l.datatype()) {
                    let _ = write!(s, "^^{pname}");
                } else {
                    let _ = write!(s, "^^<{}>", l.datatype());
                }
            }
            s
        }
    }
}

/// True when the string parses back as an xsd:double shorthand (contains a
/// decimal point or exponent so the parser will type it as double).
fn looks_double(s: &str) -> bool {
    (s.contains('.') || s.contains(['e', 'E'])) && s.parse::<f64>().is_ok()
}

struct Parser<'a, 's> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    line_start: usize,
    prefixes: PrefixMap,
    sink: &'s mut dyn FnMut(Triple) -> Result<()>,
}

impl<'a, 's> Parser<'a, 's> {
    fn new(src: &'a str, sink: &'s mut dyn FnMut(Triple) -> Result<()>) -> Self {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            line_start: 0,
            prefixes: PrefixMap::new(),
            sink,
        }
    }

    fn err(&self, message: impl Into<String>) -> RdfError {
        RdfError::TurtleSyntax {
            line: self.line,
            col: self.pos - self.line_start + 1,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(c)
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'#') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn expect(&mut self, c: u8) -> Result<()> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {:?}, found {:?}",
                c as char,
                self.peek().map(|b| b as char)
            )))
        }
    }

    fn parse_document(&mut self) -> Result<()> {
        loop {
            self.skip_ws();
            if self.peek().is_none() {
                return Ok(());
            }
            if self.src[self.pos..].starts_with("@prefix") {
                self.parse_prefix()?;
            } else {
                self.parse_statement()?;
            }
        }
    }

    fn parse_prefix(&mut self) -> Result<()> {
        self.pos += "@prefix".len();
        self.skip_ws();
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b':' {
                break;
            }
            if !(c.is_ascii_alphanumeric() || c == b'_' || c == b'-') {
                return Err(self.err("invalid prefix name"));
            }
            self.bump();
        }
        let prefix = self.src[start..self.pos].to_string();
        self.expect(b':')?;
        self.skip_ws();
        let iri = self.parse_iri_ref()?;
        self.expect(b'.')?;
        self.prefixes.declare(prefix, iri.as_str().to_string());
        Ok(())
    }

    fn parse_statement(&mut self) -> Result<()> {
        let subject = self.parse_term()?;
        if !subject.is_resource() {
            return Err(self.err("subject must be an IRI or blank node"));
        }
        loop {
            self.skip_ws();
            let predicate = self.parse_verb()?;
            loop {
                let object = self.parse_term()?;
                let triple = Triple::new(subject.clone(), predicate.clone(), object);
                // The grammar above already restricts subject/predicate
                // shapes; this guard keeps the invariant local so future
                // grammar extensions cannot leak an ill-formed triple into
                // a panicking store insert.
                if !triple.is_well_formed() {
                    return Err(self.err(format!("ill-formed triple: {triple}")));
                }
                (self.sink)(triple)?;
                self.skip_ws();
                if self.peek() == Some(b',') {
                    self.bump();
                } else {
                    break;
                }
            }
            self.skip_ws();
            match self.peek() {
                Some(b';') => {
                    self.bump();
                    self.skip_ws();
                    // allow trailing `;` before `.`
                    if self.peek() == Some(b'.') {
                        self.bump();
                        return Ok(());
                    }
                }
                Some(b'.') => {
                    self.bump();
                    return Ok(());
                }
                other => {
                    return Err(self
                        .err(format!("expected ';' or '.', found {:?}", other.map(|b| b as char))))
                }
            }
        }
    }

    fn parse_verb(&mut self) -> Result<Term> {
        self.skip_ws();
        // the `a` keyword
        if self.peek() == Some(b'a') {
            let next = self.bytes.get(self.pos + 1).copied();
            if next.is_none_or(|c| c.is_ascii_whitespace()) {
                self.bump();
                return Ok(Term::iri(crate::namespace::rdf::TYPE));
            }
        }
        let t = self.parse_term()?;
        if t.as_iri().is_none() {
            return Err(self.err("predicate must be an IRI"));
        }
        Ok(t)
    }

    fn parse_term(&mut self) -> Result<Term> {
        self.skip_ws();
        match self.peek() {
            Some(b'<') => Ok(Term::Iri(self.parse_iri_ref()?)),
            Some(b'_') => self.parse_blank(),
            Some(b'"') => self.parse_literal(),
            Some(c) if c == b'+' || c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(_) => self.parse_pname_or_keyword(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_iri_ref(&mut self) -> Result<Iri> {
        self.expect(b'<')?;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b'>' {
                let iri = Iri::try_new(&self.src[start..self.pos])
                    .map_err(|_| self.err("invalid IRI"))?;
                self.bump();
                return Ok(iri);
            }
            self.bump();
        }
        Err(self.err("unterminated IRI"))
    }

    fn parse_blank(&mut self) -> Result<Term> {
        // consume `_:`
        self.bump();
        self.expect(b':')?;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' {
                self.bump();
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("empty blank node label"));
        }
        Ok(Term::blank(&self.src[start..self.pos]))
    }

    fn parse_literal(&mut self) -> Result<Term> {
        self.expect(b'"')?;
        let mut value = String::new();
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'n') => value.push('\n'),
                    Some(b'r') => value.push('\r'),
                    Some(b't') => value.push('\t'),
                    Some(b'\\') => value.push('\\'),
                    Some(b'"') => value.push('"'),
                    other => {
                        return Err(self.err(format!("bad escape \\{:?}", other.map(|b| b as char))))
                    }
                },
                Some(c) => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    if c < 0x80 {
                        value.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let mut end = self.pos;
                        while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                            end += 1;
                        }
                        value.push_str(&self.src[start..end]);
                        self.pos = end;
                    }
                }
                None => return Err(self.err("unterminated string literal")),
            }
        }
        // optional suffix
        match self.peek() {
            Some(b'^') => {
                self.bump();
                self.expect(b'^')?;
                self.skip_ws();
                let dt = match self.peek() {
                    Some(b'<') => self.parse_iri_ref()?,
                    _ => {
                        let t = self.parse_pname_or_keyword()?;
                        t.as_iri().cloned().ok_or_else(|| self.err("datatype must be an IRI"))?
                    }
                };
                Ok(Term::Literal(Literal::typed(value, dt)))
            }
            Some(b'@') => {
                self.bump();
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == b'-' {
                        self.bump();
                    } else {
                        break;
                    }
                }
                if self.pos == start {
                    return Err(self.err("empty language tag"));
                }
                Ok(Term::Literal(Literal::lang_string(value, &self.src[start..self.pos])))
            }
            _ => Ok(Term::string(value)),
        }
    }

    fn parse_number(&mut self) -> Result<Term> {
        let start = self.pos;
        if matches!(self.peek(), Some(b'+') | Some(b'-')) {
            self.bump();
        }
        let mut saw_dot = false;
        let mut saw_exp = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => {
                    self.bump();
                }
                b'.' if !saw_dot && !saw_exp => {
                    // A `.` followed by a non-digit is the statement terminator.
                    if self.bytes.get(self.pos + 1).is_some_and(|d| d.is_ascii_digit()) {
                        saw_dot = true;
                        self.bump();
                    } else {
                        break;
                    }
                }
                b'e' | b'E' if !saw_exp => {
                    saw_exp = true;
                    self.bump();
                    if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if saw_dot || saw_exp {
            let v: f64 = text.parse().map_err(|_| self.err(format!("bad double {text:?}")))?;
            Ok(Term::double(v))
        } else {
            let v: i64 = text.parse().map_err(|_| self.err(format!("bad integer {text:?}")))?;
            Ok(Term::integer(v))
        }
    }

    fn parse_pname_or_keyword(&mut self) -> Result<Term> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b':' | b'.') {
                // A trailing '.' is the statement terminator, not part of the name.
                if c == b'.' {
                    let next = self.bytes.get(self.pos + 1).copied();
                    if next.is_none_or(|d| !(d.is_ascii_alphanumeric() || d == b'_')) {
                        break;
                    }
                }
                self.bump();
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        match text {
            "" => Err(self.err("expected a term")),
            "true" => Ok(Term::boolean(true)),
            "false" => Ok(Term::boolean(false)),
            _ if text.contains(':') => {
                let iri = self.prefixes.expand(text).map_err(|e| self.err(e.to_string()))?;
                Ok(Term::Iri(iri))
            }
            _ => Err(self.err(format!("unknown keyword or unprefixed name {text:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::namespace::{q, rdf};

    #[test]
    fn parse_paper_style_annotations() {
        // Mirrors the paper's Figure 2 annotation graph: a protein ID typed
        // as ImprintHitEntry, annotated with HitRatio/MassCoverage evidence.
        let doc = r#"
            @prefix q: <http://qurator.org/iq#> .
            @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
            # the data item (LSID-wrapped Uniprot accession)
            <urn:lsid:uniprot.org:uniprot:P30089>
                a q:ImprintHitEntry ;
                q:contains-evidence _:hr , _:mc .
            _:hr a q:HitRatio ; q:value 0.82 .
            _:mc a q:MassCoverage ; q:value 31 .
        "#;
        let (triples, prefixes) = parse(doc).unwrap();
        assert_eq!(triples.len(), 7);
        assert_eq!(prefixes.namespace("q"), Some("http://qurator.org/iq#"));
        let store: GraphStore = triples.into_iter().collect();
        let subject = Term::iri("urn:lsid:uniprot.org:uniprot:P30089");
        assert_eq!(
            store.object(&subject, &Term::iri(rdf::TYPE)),
            Some(Term::Iri(q::iri("ImprintHitEntry")))
        );
        let evid = store.objects(&subject, &Term::Iri(q::iri("contains-evidence")));
        assert_eq!(evid.len(), 2);
    }

    #[test]
    fn literal_forms() {
        let doc = r#"
            @prefix x: <http://x/> .
            @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
            x:s x:str "plain" ;
                x:esc "a\"b\nc" ;
                x:lang "ciao"@it ;
                x:int 42 ;
                x:neg -7 ;
                x:dbl 3.25 ;
                x:exp 1e3 ;
                x:bool true ;
                x:typed "12"^^xsd:long .
        "#;
        let store = parse_into_store(doc).unwrap();
        let s = Term::iri("http://x/s");
        let get = |p: &str| store.object(&s, &Term::iri(format!("http://x/{p}"))).unwrap();
        assert_eq!(get("str"), Term::string("plain"));
        assert_eq!(get("esc"), Term::string("a\"b\nc"));
        assert_eq!(get("lang"), Term::Literal(Literal::lang_string("ciao", "it")));
        assert_eq!(get("int"), Term::integer(42));
        assert_eq!(get("neg"), Term::integer(-7));
        assert_eq!(get("dbl").as_literal().unwrap().as_f64(), Some(3.25));
        assert_eq!(get("exp").as_literal().unwrap().as_f64(), Some(1000.0));
        assert_eq!(get("bool"), Term::boolean(true));
        assert_eq!(get("typed").as_literal().unwrap().datatype().as_str(), xsd::LONG);
    }

    #[test]
    fn unicode_strings_survive() {
        let doc = "@prefix x: <http://x/> .\nx:s x:p \"protéine – αβγ\" .";
        let store = parse_into_store(doc).unwrap();
        let o = store.object(&Term::iri("http://x/s"), &Term::iri("http://x/p")).unwrap();
        assert_eq!(o, Term::string("protéine – αβγ"));
    }

    #[test]
    fn serialize_then_parse_is_identity() {
        let doc = r#"
            @prefix q: <http://qurator.org/iq#> .
            <urn:lsid:a:b:X> a q:DataEntity ;
                q:score 2.5 ;
                q:label "hello \"world\"" ;
                q:count 3 ;
                q:ok false .
        "#;
        let store = parse_into_store(doc).unwrap();
        let text = serialize(&store, &PrefixMap::with_defaults());
        let reparsed = parse_into_store(&text).unwrap();
        let mut a: Vec<Triple> = store.iter().collect();
        let mut b: Vec<Triple> = reparsed.iter().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "serialized form:\n{text}");
    }

    #[test]
    fn syntax_errors_carry_position() {
        let doc = "@prefix x: <http://x/> .\nx:s x:p ;;";
        let err = parse(doc).unwrap_err();
        match err {
            RdfError::TurtleSyntax { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unknown_prefix_is_an_error() {
        let err = parse("nope:s nope:p nope:o .").unwrap_err();
        assert!(matches!(err, RdfError::TurtleSyntax { .. }));
    }

    #[test]
    fn trailing_semicolon_is_tolerated() {
        let doc = "@prefix x: <http://x/> .\nx:s x:p x:o ; .";
        let (triples, _) = parse(doc).unwrap();
        assert_eq!(triples.len(), 1);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_term() -> impl Strategy<Value = Term> {
        prop_oneof![
            "[a-zA-Z][a-zA-Z0-9]{0,8}".prop_map(|s| Term::iri(format!("http://t/{s}"))),
            "[a-zA-Z][a-zA-Z0-9]{0,8}".prop_map(Term::blank),
            any::<i64>().prop_map(Term::integer),
            any::<bool>().prop_map(Term::boolean),
            (-1e9f64..1e9).prop_map(Term::double),
            "\\PC{0,20}".prop_map(Term::string),
            ("\\PC{0,12}", "[a-z]{2}").prop_map(|(s, l)| Term::Literal(Literal::lang_string(s, l))),
        ]
    }

    fn arb_resource() -> impl Strategy<Value = Term> {
        prop_oneof![
            "[a-zA-Z][a-zA-Z0-9]{0,8}".prop_map(|s| Term::iri(format!("http://t/{s}"))),
            "[a-zA-Z][a-zA-Z0-9]{0,8}".prop_map(Term::blank),
        ]
    }

    proptest! {
        /// serialize ∘ parse is the identity on stores (graph isomorphism is
        /// trivial here because we only emit labelled blank nodes).
        #[test]
        fn roundtrip(triples in proptest::collection::vec(
            (arb_resource(), "[a-zA-Z][a-zA-Z0-9]{0,6}", arb_term()),
            0..40,
        )) {
            let store: GraphStore = triples
                .into_iter()
                .map(|(s, p, o)| Triple::new(s, Term::iri(format!("http://t/p/{p}")), o))
                .collect();
            let text = serialize(&store, &PrefixMap::with_defaults());
            let reparsed = parse_into_store(&text).unwrap();
            let mut a: Vec<Triple> = store.iter().collect();
            let mut b: Vec<Triple> = reparsed.iter().collect();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b, "text was:\n{}", text);
        }
    }
}
