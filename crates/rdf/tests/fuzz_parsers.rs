//! Robustness: the parser must never panic, whatever bytes arrive — it
//! either produces a graph or a typed error with a line number.

use proptest::prelude::*;
use rdfref_model::parser::parse_turtle;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Totally random printable input.
    #[test]
    fn turtle_never_panics(input in "[ -~\n\t]{0,200}") {
        let _ = parse_turtle(&input);
    }

    /// Near-miss inputs assembled from real syntax fragments — more likely
    /// to reach deep parser states than uniform noise.
    #[test]
    fn near_miss_inputs_never_panic(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("<http://e/s>".to_string()),
                Just("\"literal".to_string()),
                Just("\"lit\"^^".to_string()),
                Just("\"lit\"@".to_string()),
                Just("_:".to_string()),
                Just("_:b".to_string()),
                Just("@prefix".to_string()),
                Just("ex:".to_string()),
                Just(":".to_string()),
                Just(".".to_string()),
                Just(";".to_string()),
                Just(",".to_string()),
                Just("a".to_string()),
                Just("1949".to_string()),
                Just("\\".to_string()),
                Just("^^<".to_string()),
                Just("<".to_string()),
                Just("\n".to_string()),
            ],
            0..24,
        ),
        seps in proptest::collection::vec(prop_oneof![Just(" "), Just(""), Just("\n")], 0..24),
    ) {
        let mut doc = String::new();
        for (i, p) in parts.iter().enumerate() {
            doc.push_str(p);
            if let Some(s) = seps.get(i) {
                doc.push_str(s);
            }
        }
        let _ = parse_turtle(&doc);
    }

    /// Arbitrary raw bytes, lossily decoded: exercises non-ASCII, control
    /// characters and U+FFFD replacement characters that the printable-only
    /// strategies above never produce.
    #[test]
    fn parsers_never_panic_on_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let input = String::from_utf8_lossy(&bytes);
        let _ = parse_turtle(&input);
    }

    /// Raw bytes spliced into otherwise well-formed documents reach deeper
    /// parser states (literal bodies, IRI bodies, language tags) than
    /// uniform noise.
    #[test]
    fn bytes_spliced_into_syntax_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..32),
        pick in 0usize..6,
    ) {
        let noise = String::from_utf8_lossy(&bytes).into_owned();
        let templates = [
            format!("<http://e/s> <http://e/p> \"{noise}\" ."),
            format!("<http://e/{noise}> <http://e/p> <http://e/o> ."),
            format!("@prefix ex: <http://e/{noise}> .\nex:s ex:p ex:o ."),
            format!("_:b{noise} <http://e/p> \"x\"@{noise} ."),
            format!("<http://e/s> <http://e/p> \"lit\"^^<{noise}> ."),
            noise.clone(),
        ];
        let doc = &templates[pick % templates.len()];
        let _ = parse_turtle(doc);
    }
}
