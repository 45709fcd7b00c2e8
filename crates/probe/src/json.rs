//! The workspace's one JSON implementation.
//!
//! DESIGN.md §5 forbids new dependencies, so the exporters build JSON by
//! string assembly. This module holds the number and string writers they
//! use, and one RFC 8259 reader with two entry points: [`parse`] builds a
//! [`Json`] tree (the tests read exports back with it) and [`validate`]
//! checks a document by the same grammar without building anything.

use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// `"00" "01" .. "99"`: the two decimal digits of every value below 100.
const DIGIT_PAIRS: &str = concat!(
    "00010203040506070809",
    "10111213141516171819",
    "20212223242526272829",
    "30313233343536373839",
    "40414243444546474849",
    "50515253545556575859",
    "60616263646566676869",
    "70717273747576777879",
    "80818283848586878889",
    "90919293949596979899",
);

/// Writes `v` in decimal, exactly as `{}` formats it, without going
/// through the `fmt` machinery.
pub(crate) fn write_u64<W: Write + ?Sized>(out: &mut W, mut v: u64) -> std::fmt::Result {
    // Split into base-100 digits, least significant first; a u64 has at
    // most 10 of them. The leading one is written without a leading zero.
    let mut low = [0u8; 10];
    let mut n = 0;
    while v >= 100 {
        low[n] = (v % 100) as u8;
        v /= 100;
        n += 1;
    }
    let lead = 2 * v as usize;
    out.write_str(&DIGIT_PAIRS[lead + usize::from(v < 10)..lead + 2])?;
    for &pair in low[..n].iter().rev() {
        let at = 2 * usize::from(pair);
        out.write_str(&DIGIT_PAIRS[at..at + 2])?;
    }
    Ok(())
}

/// Appends `v` to `out` in decimal; see [`write_u64`].
pub(crate) fn push_u64(out: &mut String, v: u64) {
    // Writing into a `String` cannot fail.
    let _ = write_u64(out, v);
}

/// Appends `s` to `out` with JSON string escaping.
pub fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let b = c as usize;
                out.push_str("\\u00");
                out.push(char::from(HEX[b >> 4]));
                out.push(char::from(HEX[b & 0xf]));
            }
            c => out.push(c),
        }
    }
}

/// Escapes `s` as the contents of a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as its source text, so an integer above 2^53
    /// reads back exactly through [`Json::as_u64`].
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps iteration deterministic; a repeated
    /// key keeps its last value.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object (`None` on non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value as the nearest `f64`, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The exact value, if this is a number written as a plain unsigned
    /// integer that fits a `u64` (no sign, fraction or exponent).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // The grammar admits no `+`, the one sign `u64` parsing takes.
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Where and why a document failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document into a [`Json`] tree; trailing
/// data is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser::<true>::new(input);
    p.document()?;
    Ok(p.built.pop().expect("a parsed document leaves one value"))
}

/// Checks that `input` is one complete JSON document, by the same
/// grammar as [`parse`], without building the tree: it allocates nothing,
/// so it stays cheap on multi-megabyte exports.
pub fn validate(input: &str) -> Result<(), JsonError> {
    Parser::<false>::new(input).document()
}

/// How deeply arrays and objects may nest. The scanner recurses once per
/// level, so a bound keeps a hostile document an error, not a stack
/// overflow.
const MAX_DEPTH: u32 = 128;

/// One recursive-descent scanner for both entry points. The scan itself
/// returns nothing; with `BUILD` set, each value it finishes is pushed
/// onto `built`, and a closing bracket folds its members (keys and values
/// alternating, for an object) into one container. With `BUILD` clear,
/// `built` is never touched and nothing is allocated.
struct Parser<'a, const BUILD: bool> {
    text: &'a str,
    pos: usize,
    depth: u32,
    built: Vec<Json>,
}

impl<'a, const BUILD: bool> Parser<'a, BUILD> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            pos: 0,
            depth: 0,
            built: Vec::new(),
        }
    }

    fn document(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        self.value()?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return self.fail("trailing data after the document");
        }
        Ok(())
    }

    #[cold]
    fn fail<T>(&self, msg: &'static str) -> Result<T, JsonError> {
        Err(JsonError { at: self.pos, msg })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.fail("expected a JSON value"),
            None => self.fail("unexpected end of input"),
        }
    }

    /// Steps into an array or object, the cursor on its opening bracket.
    fn enter(&mut self) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return self.fail("arrays and objects nested too deep");
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    fn object(&mut self) -> Result<(), JsonError> {
        self.enter()?;
        let base = self.built.len();
        self.skip_ws();
        if !self.eat(b'}') {
            loop {
                self.skip_ws();
                if self.peek() != Some(b'"') {
                    return self.fail("expected a string");
                }
                self.string()?;
                self.skip_ws();
                if !self.eat(b':') {
                    return self.fail("expected ':'");
                }
                self.skip_ws();
                self.value()?;
                self.skip_ws();
                if self.eat(b'}') {
                    break;
                }
                if !self.eat(b',') {
                    return self.fail("expected ',' or '}'");
                }
            }
        }
        if BUILD {
            let mut map = BTreeMap::new();
            let mut members = self.built.split_off(base).into_iter();
            while let (Some(Json::Str(key)), Some(v)) = (members.next(), members.next()) {
                map.insert(key, v);
            }
            self.built.push(Json::Obj(map));
        }
        self.depth -= 1;
        Ok(())
    }

    fn array(&mut self) -> Result<(), JsonError> {
        self.enter()?;
        let base = self.built.len();
        self.skip_ws();
        if !self.eat(b']') {
            loop {
                self.skip_ws();
                self.value()?;
                self.skip_ws();
                if self.eat(b']') {
                    break;
                }
                if !self.eat(b',') {
                    return self.fail("expected ',' or ']'");
                }
            }
        }
        if BUILD {
            let items = self.built.split_off(base);
            self.built.push(Json::Arr(items));
        }
        self.depth -= 1;
        Ok(())
    }

    /// Scans a string literal, the cursor on its opening quote.
    /// Unescaped runs are copied as whole `&str` slices, so decoding is
    /// linear in the literal's length.
    fn string(&mut self) -> Result<(), JsonError> {
        self.pos += 1; // '"'
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            if BUILD {
                // The run ends at an ASCII byte or the end, both char
                // boundaries.
                out.push_str(&self.text[run..self.pos]);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    if BUILD {
                        self.built.push(Json::Str(out));
                    }
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    if BUILD {
                        out.push(c);
                    }
                }
                Some(_) => return self.fail("raw control byte in string"),
                None => return self.fail("unterminated string"),
            }
        }
    }

    /// Decodes the escape after a backslash. A `\uD8xx\uDCxx` surrogate
    /// pair is one scalar; a lone surrogate, which RFC 8259 lets through,
    /// becomes U+FFFD.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                if (0xd800..0xdc00).contains(&hi)
                    && self.text.as_bytes()[self.pos..].starts_with(b"\\u")
                {
                    let back = self.pos;
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if (0xdc00..0xe000).contains(&lo) {
                        let scalar = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                        return Ok(char::from_u32(scalar).expect("a surrogate pair is a scalar"));
                    }
                    self.pos = back;
                }
                return Ok(char::from_u32(hi).unwrap_or('\u{fffd}'));
            }
            _ => return self.fail("bad escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Reads exactly four hex digits.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0;
        for _ in 0..4 {
            match self.peek().and_then(|c| char::from(c).to_digit(16)) {
                Some(d) => v = v << 4 | d,
                None => return self.fail("bad \\u escape"),
            }
            self.pos += 1;
        }
        Ok(v)
    }

    /// RFC 8259: `int = "0" / digit1-9 *DIGIT`, `frac = "." 1*DIGIT`,
    /// `exp = ("e" / "E") ["-" / "+"] 1*DIGIT`.
    fn number(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        self.eat(b'-');
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return self.fail("bad number"),
        }
        if self.eat(b'.') && self.digits() == 0 {
            return self.fail("bad number");
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return self.fail("bad number");
            }
        }
        if BUILD {
            self.built
                .push(Json::Num(self.text[start..self.pos].to_string()));
        }
        Ok(())
    }

    /// Advances past a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<(), JsonError> {
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return self.fail("bad literal");
        }
        self.pos += word.len();
        if BUILD {
            self.built.push(v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row goes through both entry points, which must agree.
    const ACCEPT: &[&str] = &[
        "{}",
        "[]",
        "{\"a\":[1,2.5,-3,1e9],\"b\":{\"c\":null,\"d\":true}}",
        "\"lone string\"",
        "  42  ",
        "0",
        "-0",
        "-0.5e3",
        "1E+9",
        "10",
        "0.25",
        "2e-7",
        "[0,-1,1.5]",
        r#"{"schema":"v1","w":{"fig10":{"speedup":3.5,"iters":4}},"ok":true}"#,
        r#"[1, -2.5e3, "a\"b\n", null, false]"#,
        r#""\ud83d\ude00""#,
        r#""\ud800x""#,
        "\"caf\u{e9} \u{1F600}\"",
    ];

    const REJECT: &[&str] = &[
        "",
        "{",
        "{\"a\":}",
        "[1,]",
        "tru",
        "1 2",
        "\"\\x\"",
        "1.",
        "1e",
        "1e+",
        "01",
        "-01",
        "[1.,2]",
        "{\"a\":1.}",
        "-",
        ".5",
        "1.e3",
        "+1",
        "{\"a\":1} x",
        "\"unterminated",
        "{oops}",
        "\"a\u{1}b\"",
        r#""\u+abc""#,
        r#""\ud83d\u+abc""#,
    ];

    #[test]
    fn parse_and_validate_share_one_grammar() {
        for ok in ACCEPT {
            validate(ok).unwrap_or_else(|e| panic!("validate {ok:?}: {e}"));
            parse(ok).unwrap_or_else(|e| panic!("parse {ok:?}: {e}"));
        }
        for bad in REJECT {
            assert!(validate(bad).is_err(), "validate accepted {bad:?}");
            assert!(parse(bad).is_err(), "parse accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_in_both_entry_points() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let deepest = nest(MAX_DEPTH as usize);
        validate(&deepest).expect("128 levels validate");
        parse(&deepest).expect("128 levels parse");
        let too_deep = nest(MAX_DEPTH as usize + 1);
        assert_eq!(validate(&too_deep).expect_err("129 levels").at, 128);
        assert_eq!(parse(&too_deep).expect_err("129 levels").at, 128);
        assert!(validate(&"[{\"a\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn errors_name_the_byte_and_the_reason() {
        let err = parse("{oops}").expect_err("bare key");
        assert_eq!(err, validate("{oops}").expect_err("bare key"));
        assert_eq!(err.to_string(), "invalid JSON at byte 1: expected a string");
    }

    #[test]
    fn parses_nested_shapes() {
        let v = parse(r#"{"schema":"v1","w":{"fig10":{"speedup":3.5,"iters":4}},"ok":true}"#)
            .expect("well-formed");
        let fig10 = v.get("w").and_then(|w| w.get("fig10")).expect("nested");
        assert_eq!(fig10.get("speedup").and_then(Json::as_num), Some(3.5));
        assert_eq!(fig10.get("iters").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("schema").and_then(Json::as_str), Some("v1"));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("w").and_then(|w| w.get("missing")), None);
        let Json::Arr(items) = parse(r#"[1, -2.5e3, "a\"b\n", null, false]"#).expect("well-formed")
        else {
            panic!("array")
        };
        assert_eq!(items[1].as_num(), Some(-2500.0));
        assert_eq!(items[2], Json::Str("a\"b\n".into()));
        assert_eq!(items[3], Json::Null);
    }

    /// `as_u64` reads a plain integer exactly, even above 2^53 where the
    /// nearest `f64` is off, and refuses anything else.
    #[test]
    fn integers_read_back_exactly() {
        const ROWS: &[(&str, Option<u64>)] = &[
            ("0", Some(0)),
            ("9007199254740993", Some((1 << 53) + 1)),
            ("18446744073709551615", Some(u64::MAX)),
            ("18446744073709551616", None),
            ("1.0", None),
            ("1e3", None),
            ("-1", None),
            ("-0", None),
            ("\"7\"", None),
        ];
        for &(doc, want) in ROWS {
            assert_eq!(parse(doc).expect(doc).as_u64(), want, "{doc}");
        }
        assert_eq!(
            parse("18446744073709551615").expect("u64::MAX").as_num(),
            Some(u64::MAX as f64)
        );
    }

    #[test]
    fn strings_decode_to_scalars() {
        let decoded = |doc: &str| parse(doc).expect("well-formed").as_str().map(String::from);
        assert_eq!(decoded(r#""\ud83d\ude00""#).as_deref(), Some("\u{1F600}"));
        assert_eq!(decoded(r#""\ud800x""#).as_deref(), Some("\u{fffd}x"));
        assert_eq!(
            decoded("\"caf\u{e9} \u{1F600}\"").as_deref(),
            Some("caf\u{e9} \u{1F600}")
        );
        assert_eq!(
            decoded(r#""\ud83d\u0041\/\b\f""#).as_deref(),
            Some("\u{fffd}A/\u{8}\u{c}")
        );
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let raw = "a\"b\\c\nd\te\u{1}f\u{1F600}";
        let doc = format!("{{\"k\":\"{}\"}}", escape(raw));
        let v = parse(&doc).expect("escaped string parses");
        assert_eq!(v.get("k").and_then(Json::as_str), Some(raw));
    }

    #[test]
    fn control_characters_escape_as_four_hex_digits() {
        let mut s = String::new();
        push_escaped(&mut s, "\u{0}\u{1f}\u{b}\"\n");
        assert_eq!(s, "\\u0000\\u001f\\u000b\\\"\\n");
    }

    #[test]
    fn decimal_writer_matches_display() {
        let mut cases = vec![0, 1, 9, 10, 99, 100, 101, 999, 1_000, u64::from(u32::MAX)];
        cases.extend([u64::MAX - 1, u64::MAX]);
        cases.extend((0..64).map(|i| 1u64 << i));
        cases.extend((1..20).map(|i| 10u64.pow(i) - 1));
        cases.extend((1..20).map(|i| 10u64.pow(i)));
        for v in cases {
            let mut s = String::from("x");
            push_u64(&mut s, v);
            assert_eq!(s, format!("x{v}"));
        }
    }
}
