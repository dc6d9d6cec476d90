//! A minimal JSON tree, parser and printer.
//!
//! The build environment has no crates.io access (so no `serde_json`), and
//! the service's needs are small: parse one query object per input line and
//! emit one response object per output line. This module implements exactly
//! that — a [`Json`] value tree, a strict recursive-descent parser and a
//! printer with proper string escaping. Object key order is preserved.
//!
//! The printer ([`Json::write`], which `Display` delegates to) appends to
//! one `String`: integers through a digit loop, strings as runs between
//! escapes, with no formatting machinery per value. The parser copies each
//! run of unescaped string bytes at once.
//!
//! The parser refuses documents nested deeper than [`MAX_DEPTH`] with a
//! typed [`JsonErrorKind::TooDeep`] error, so a hostile body of nested
//! brackets costs one bounded pass instead of exhausting the stack of the
//! thread parsing it.

use std::fmt;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. Every
/// message this service reads nests a few levels.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`; integral values up to 2^53 survive
    /// exactly, which covers every count this service emits).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with preserved key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Convenience constructor for an object.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for an integral number.
    pub fn num(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Parses one JSON document from `text` (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Appends the compact JSON text of this value to `out` (the text
    /// `to_string` gives).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.fract() == 0.0 && x.abs() < 2f64.powi(53) => {
                write_integer(out, *x as i64)
            }
            // Rare (ratios and means): the shortest round-trip form.
            Json::Num(x) => out.push_str(&x.to_string()),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_integer(out: &mut String, value: i64) {
    if value < 0 {
        out.push('-');
    }
    let mut rest = value.unsigned_abs();
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| d as char));
}

fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    let mut control = *b"\\u00__";
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => {
                control[4] = HEX[usize::from(byte >> 4)];
                control[5] = HEX[usize::from(byte & 0xf)];
                std::str::from_utf8(&control).expect("ASCII")
            }
            _ => continue,
        };
        // Escapes sit at ASCII bytes, so every run is a whole UTF-8 slice.
        out.push_str(&s[run..i]);
        out.push_str(escape);
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse error with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
    /// Malformed text, or well-formed but past [`MAX_DEPTH`].
    pub kind: JsonErrorKind,
}

/// The two ways [`Json::parse`] refuses a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The text is not JSON.
    Syntax,
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

impl JsonError {
    /// The wire error code of a refused request body: `bad_json` for text
    /// that is not JSON, `bad_request` for a document nested too deep.
    pub fn code(&self) -> &'static str {
        match self.kind {
            JsonErrorKind::Syntax => "bad_json",
            JsonErrorKind::TooDeep => "bad_request",
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.pos)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            message: message.into(),
            kind: JsonErrorKind::Syntax,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    /// One value inside `depth` enclosing arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(JsonError {
                kind: JsonErrorKind::TooDeep,
                ..self.err(format!("nesting deeper than {MAX_DEPTH} levels"))
            }),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        // JSON has no infinities: a literal past `f64::MAX` is refused, or it
        // would print back as `inf`.
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(JsonError {
                pos: start,
                message: format!("invalid number '{text}'"),
                kind: JsonErrorKind::Syntax,
            }),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // A run of bytes that need no decoding ends at an ASCII byte or
            // the end of the text, so it is a whole UTF-8 slice of `text`.
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by this service's
                            // inputs; map lone surrogates to the replacement
                            // character instead of erroring.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(self.err(format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
                _ => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_query_object() {
        let text = r#"{"id":"q1","kind":"full_cover","edge_list":"0 1\n1 2"}"#;
        let value = Json::parse(text).unwrap();
        assert_eq!(value.get("id").and_then(Json::as_str), Some("q1"));
        assert_eq!(
            value.get("edge_list").and_then(Json::as_str),
            Some("0 1\n1 2")
        );
        let printed = value.to_string();
        assert_eq!(Json::parse(&printed).unwrap(), value);
    }

    #[test]
    fn numbers_arrays_and_literals() {
        let value = Json::parse(r#"{"xs":[1,2.5,-3],"ok":true,"none":null}"#).unwrap();
        match value.get("xs") {
            Some(Json::Arr(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[0].as_u64(), Some(1));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(value.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(value.get("none"), Some(&Json::Null));
    }

    #[test]
    fn escapes_survive_round_trip() {
        let original = Json::str("line1\nline2\t\"quoted\" \\ \u{1}");
        let reparsed = Json::parse(&original.to_string()).unwrap();
        assert_eq!(reparsed, original);
    }

    #[test]
    fn unicode_strings_round_trip() {
        let value = Json::parse(r#""héllo ✓""#).unwrap();
        assert_eq!(value.as_str(), Some("héllo ✓"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("{} extra").is_err());
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.kind, err.pos), (JsonErrorKind::TooDeep, MAX_DEPTH));
        assert_eq!(err.code(), "bad_request");
        let objects = r#"{"a":"#.repeat(MAX_DEPTH + 1);
        assert_eq!(
            Json::parse(&objects).unwrap_err().kind,
            JsonErrorKind::TooDeep
        );
        assert_eq!(Json::parse("[1,").unwrap_err().code(), "bad_json");
    }

    #[test]
    fn numbers_past_the_f64_range_are_refused() {
        let err = Json::parse("[1, 1e999]").unwrap_err();
        assert_eq!(
            (err.pos, err.message.as_str()),
            (4, "invalid number '1e999'")
        );
        assert!(Json::parse("-1e999").is_err());
        assert_eq!(Json::parse("1e308").unwrap(), Json::Num(1e308));
    }

    #[test]
    fn printer_output_is_byte_identical_to_the_formatter_it_replaced() {
        let value = Json::obj(vec![
            (
                "ints",
                Json::Arr(
                    [0.0, -0.0, 7.0, -42.0, 9007199254740991.0]
                        .map(Json::Num)
                        .to_vec(),
                ),
            ),
            (
                "floats",
                Json::Arr(
                    [0.5, -2.25, 1e21, 9007199254740992.0]
                        .map(Json::Num)
                        .to_vec(),
                ),
            ),
            ("text", Json::str("a\"b\\c\nd\re\tf\u{1}\u{1f}\u{7f}é✓")),
            (
                "nested",
                Json::obj(vec![("k\n", Json::Null), ("t", Json::Bool(true))]),
            ),
        ]);
        let expected = concat!(
            r#"{"ints":[0,0,7,-42,9007199254740991],"#,
            r#""floats":[0.5,-2.25,1000000000000000000000,9007199254740992],"#,
            r#""text":"a\"b\\c\nd\re\tf\u0001\u001f"#,
            "\u{7f}é✓\",",
            r#""nested":{"k\n":null,"t":true}}"#,
        );
        assert_eq!(value.to_string(), expected);
    }

    #[test]
    fn error_carries_position() {
        let err = Json::parse("[1, x]").unwrap_err();
        assert_eq!(err.pos, 4);
    }
}
