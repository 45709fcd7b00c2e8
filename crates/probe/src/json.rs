//! Hand-rolled JSON helpers.
//!
//! DESIGN.md §5 forbids new dependencies, so the exporters build JSON by
//! string assembly. This module centralizes number and string writing
//! plus a small recursive-descent validator used by tests (and callers
//! who want a sanity check) to guarantee the assembled output actually
//! parses.

use std::fmt::Write;

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

/// Validates that `input` is one complete JSON value.
///
/// Minimal by design: checks structure, string escapes and number syntax;
/// rejects trailing garbage. Good enough to prove exporter output loads.
pub fn validate(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, b"true"),
        Some(b'f') => parse_lit(b, pos, b"false"),
        Some(b'n') => parse_lit(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at {pos:?}")),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos:?}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos:?}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos:?}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos:?}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') | Some(b'\\') | Some(b'/') | Some(b'b') | Some(b'f')
                    | Some(b'n') | Some(b'r') | Some(b't') => *pos += 1,
                    Some(b'u') => {
                        for i in 1..=4 {
                            if !b
                                .get(*pos + i)
                                .map(|c| c.is_ascii_hexdigit())
                                .unwrap_or(false)
                            {
                                return Err(format!("bad \\u escape at byte {pos:?}"));
                            }
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at byte {pos:?}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at {pos:?}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    let bad = || Err(format!("bad number at byte {start}"));
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // RFC 8259: int = "0" / digit1-9 *DIGIT, frac = "." 1*DIGIT,
    // exp = ("e" / "E") ["-" / "+"] 1*DIGIT.
    match b.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            skip_digits(b, pos);
        }
        _ => return bad(),
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if skip_digits(b, pos) == 0 {
            return bad();
        }
    }
    if matches!(b.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        if skip_digits(b, pos) == 0 {
            return bad();
        }
    }
    Ok(())
}

/// Advances past a run of ASCII digits and returns its length.
fn skip_digits(b: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_through_validate() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let mut s = String::from("{\"k\":\"");
        push_escaped(&mut s, nasty);
        s.push_str("\"}");
        validate(&s).expect("escaped string parses");
    }

    #[test]
    fn validator_accepts_typical_documents() {
        for ok in [
            "{}",
            "[]",
            "{\"a\":[1,2.5,-3,1e9],\"b\":{\"c\":null,\"d\":true}}",
            "\"lone string\"",
            "  42  ",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_garbage() {
        for bad in ["{", "{\"a\":}", "[1,]", "tru", "1 2", "\"\\x\""] {
            assert!(validate(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn validator_follows_the_rfc_number_grammar() {
        for ok in [
            "0",
            "-0",
            "-0.5e3",
            "1E+9",
            "10",
            "0.25",
            "2e-7",
            "[0,-1,1.5]",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
        for bad in [
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
        ] {
            assert!(validate(bad).is_err(), "{bad} should fail");
        }
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
