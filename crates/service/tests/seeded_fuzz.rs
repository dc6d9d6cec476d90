//! Seeded fuzz loops over the two text parsers every request meets first,
//! `Json::parse` and the cotree term parsers. No external fuzzer: each loop
//! draws its documents and byte mutations from a fixed-seed `ChaCha8Rng`,
//! so a failure reproduces exactly.
//!
//! Properties: no input panics either parser; printed JSON re-parses to an
//! equal value; every accepted term yields a post-order cotree that passes
//! `validate()` and survives a `to_term()` round trip through the labelled
//! parser.

use cograph::{random_cotree, Cotree, CotreeShape};
use pcservice::ingest::{parse_cotree_term, parse_cotree_term_labelled};
use pcservice::Json;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

const ROUNDS: usize = 3000;

fn pick<'a>(rng: &mut ChaCha8Rng, pieces: &[&'a str]) -> &'a str {
    pieces[rng.gen_range(0..pieces.len())]
}

/// A uniform `f64` in `[0, 1)`.
fn unit(rng: &mut ChaCha8Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Text mixing plain letters with every byte class the printer escapes or
/// copies through: quotes, backslashes, control characters, multi-byte
/// UTF-8.
fn random_text(rng: &mut ChaCha8Rng) -> String {
    const PIECES: &[&str] = &[
        "a", "Z", "7", " ", "\"", "\\", "/", "\n", "\r", "\t", "\u{1}", "\u{8}", "\u{c}", "\u{1f}",
        "\u{7f}", "é", "✓", "😀", "{", "]", ":", ",", "\\u0041",
    ];
    (0..rng.gen_range(0..12))
        .map(|_| pick(rng, PIECES))
        .collect()
}

fn random_number(rng: &mut ChaCha8Rng) -> f64 {
    match rng.gen_range(0..5) {
        0 => rng.gen_range(0..1000u64) as f64,
        1 => -(rng.gen_range(0..1u64 << 40) as f64),
        2 => rng.gen_range(0..=1u64 << 53) as f64,
        3 => (unit(rng) - 0.5) * 1000.0,
        _ => (unit(rng) - 0.5) * 1e300,
    }
}

fn random_json(rng: &mut ChaCha8Rng, depth: usize) -> Json {
    let kinds = if depth >= 5 { 4 } else { 6 };
    match rng.gen_range(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(random_number(rng)),
        3 => Json::Str(random_text(rng)),
        4 => Json::Arr(
            (0..rng.gen_range(0..5))
                .map(|_| random_json(rng, depth + 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..5))
                .map(|_| (random_text(rng), random_json(rng, depth + 1)))
                .collect(),
        ),
    }
}

/// `text` with one to four bytes replaced, inserted or deleted, or cut
/// short, made valid UTF-8 again the lossy way.
fn mutated(text: &str, alphabet: &[u8], rng: &mut ChaCha8Rng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=4) {
        let at = rng.gen_range(0..=bytes.len());
        let byte = alphabet[rng.gen_range(0..alphabet.len())];
        match rng.gen_range(0..4) {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Printing `value` and parsing the text gives `value` back, and printing
/// that again gives the same text.
fn assert_print_round_trip(value: &Json) {
    let text = value.to_string();
    let again = Json::parse(&text).unwrap_or_else(|e| panic!("{text:?} does not re-parse: {e}"));
    assert_eq!(&again, value, "{text}");
    assert_eq!(again.to_string(), text);
}

#[test]
fn json_documents_print_and_reparse_to_equal_values() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x150);
    for _ in 0..ROUNDS {
        assert_print_round_trip(&random_json(&mut rng, 0));
    }
}

#[test]
fn mutated_json_never_panics_and_what_parses_round_trips() {
    const ALPHABET: &[u8] =
        b"{}[]\",:\\/ -+.0123456789eEtrufalsn\t\n\x01\x7f\xc3\xa9\xe2\x9c\x93\xff";
    let mut rng = ChaCha8Rng::seed_from_u64(0x151);
    let mut accepted = 0;
    for round in 0..ROUNDS {
        let text = if round % 4 == 0 {
            // Byte soup from the alphabet alone.
            let soup: Vec<u8> = (0..rng.gen_range(0..40))
                .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
                .collect();
            String::from_utf8_lossy(&soup).into_owned()
        } else {
            mutated(&random_json(&mut rng, 0).to_string(), ALPHABET, &mut rng)
        };
        if let Ok(value) = Json::parse(&text) {
            accepted += 1;
            assert_print_round_trip(&value);
        }
    }
    assert!(accepted > ROUNDS / 20, "only {accepted} mutants parsed");
}

/// Both parsers on `text`: neither panics, and each accepted tree is a
/// valid post-order arena that the labelled parser rebuilds exactly from
/// its `to_term()`. Returns how many of the two accepted it.
fn check_term(text: &str) -> usize {
    let mut accepted = 0;
    for parsed in [parse_cotree_term(text), parse_cotree_term_labelled(text)] {
        let Ok(tree) = parsed else { continue };
        accepted += 1;
        assert_eq!(tree.validate(), Ok(()), "{text:?}");
        let term = tree.to_term();
        let again: Cotree = parse_cotree_term_labelled(&term)
            .unwrap_or_else(|e| panic!("{term:?} (from {text:?}) does not re-parse: {e}"));
        assert_eq!(again, tree, "{text:?}");
    }
    accepted
}

#[test]
fn exported_and_mutated_terms_parse_to_valid_trees_or_errors() {
    const ALPHABET: &[u8] = b"()uj01 a9\n\t\xc3\xa9-";
    let mut rng = ChaCha8Rng::seed_from_u64(0x152);
    let mut accepted = 0;
    for round in 0..ROUNDS {
        let shape = CotreeShape::ALL[round % 3];
        let term = random_cotree(rng.gen_range(1..40), shape, &mut rng).to_term();
        assert_eq!(check_term(&term), 2, "{term:?}");
        accepted += check_term(&mutated(&term, ALPHABET, &mut rng));
    }
    assert!(accepted > ROUNDS / 20, "only {accepted} mutants parsed");
}

#[test]
fn random_token_soup_parses_to_valid_trees_or_errors() {
    const TOKENS: &[&str] = &[
        "(u",
        "(j",
        "(0",
        "(1",
        "(",
        ")",
        ")",
        " ",
        "\n",
        "a",
        "b",
        "c",
        "x7",
        "0",
        "1",
        "2",
        "10",
        "007",
        "4294967295",
        "4294967296",
        "é",
        "(u (j a b) c)",
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(0x153);
    let mut accepted = 0;
    for _ in 0..ROUNDS {
        let words = rng.gen_range(1..30);
        let text: Vec<&str> = (0..words).map(|_| pick(&mut rng, TOKENS)).collect();
        accepted += check_term(&text.join(if rng.gen_bool(0.5) { " " } else { "" }));
    }
    assert!(accepted > 0, "no soup parsed");
}
