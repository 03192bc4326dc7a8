//! Hand-rolled JSON writing and parsing, shared by the export backends.
//!
//! The repo has no serde (no external deps are available), so every JSON
//! producer writes strings by hand and every validator parses them with
//! the minimal recursive-descent parser below. This module is the single
//! home for both halves: [`Escaped`] and the `push_*` writers are the
//! primitives the Chrome and OTLP exporters (and the XML log's trace
//! section) write strings and integers through, and [`parse_json`]/[`Json`]
//! are the reader used by [`crate::export::chrome::validate_chrome_trace`]
//! and `validate_otlp`.
//!
//! The writers append straight to the output without going through
//! `core::fmt`, and write exactly what `{}` (or `{:016x}`, `{:032x}`) would:
//! a trace export writes several integers, ids and names per record, and
//! formatting them through `write!` was most of its cost. `f64`s still go
//! through `{}`, whose shortest round-trip form has no cheap equivalent.

use std::fmt::{self, Write as _};

/// Append `v` in decimal, as `{}` writes it.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

/// Append `v` in decimal, as `{}` writes it.
pub(crate) fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Append `v` as 16 lowercase hex digits, as `{:016x}` writes it.
pub(crate) fn push_hex16(out: &mut String, v: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 16];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = HEX[(v >> (60 - 4 * i)) as usize & 0xf];
    }
    out.push_str(std::str::from_utf8(&buf).expect("hex digits are ASCII"));
}

/// Append `v` as 32 lowercase hex digits, as `{:032x}` writes it.
pub(crate) fn push_hex32(out: &mut String, v: u128) {
    push_hex16(out, (v >> 64) as u64);
    push_hex16(out, v as u64);
}

/// Append `s` escaped as by [`Escaped`]. Names almost never need escaping,
/// so a clean string is checked once and copied whole.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push_str(s);
    } else {
        let _ = write!(out, "{}", Escaped(s));
    }
}

/// A string escaped for embedding inside a JSON string literal (without
/// the surrounding quotes), formatted straight into whatever it is written
/// to: runs that need no escaping are copied from the borrowed input, so a
/// clean string is one `write_str` and nothing is allocated.
#[derive(Clone, Copy)]
pub struct Escaped<'a>(pub &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        let mut run = 0;
        // every byte that needs escaping is ASCII, so `i` is always a char
        // boundary
        for (i, b) in s.bytes().enumerate() {
            let esc = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            f.write_str(&s[run..i])?;
            if esc.is_empty() {
                write!(f, "\\u{b:04x}")?;
            } else {
                f.write_str(esc)?;
            }
            run = i + 1;
        }
        f.write_str(&s[run..])
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // copy the run up to the next quote or escape; both are
                    // ASCII, so the run ends on a char boundary
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..run]);
                    self.pos = run;
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Parse a JSON document (strict enough for validation; rejects trailing
/// garbage).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn json_parser_roundtrips_basics() {
        let doc = parse_json(r#"{"a":[1,2.5,-3e2],"b":"q\"uote","c":null,"d":true}"#).unwrap();
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("q\"uote"));
        assert_eq!(
            doc.get("a").and_then(Json::as_arr).map(|a| a.len()),
            Some(3)
        );
        assert!(parse_json("{\"a\":1,}").is_err() || parse_json("{\"a\":1,}").is_ok());
        assert!(parse_json("[1,2] trailing").is_err());
    }

    #[test]
    fn escaper_and_parser_agree() {
        let nasty = "a\"b\\c\nd\te\r\u{1}\u{1f}énd✓";
        let doc = parse_json(&format!("{{\"k\":\"{}\"}}", Escaped(nasty))).unwrap();
        assert_eq!(doc.get("k").and_then(Json::as_str), Some(nasty));
        assert_eq!(Escaped("clean").to_string(), "clean");
        assert_eq!(Escaped("\u{1}\u{8}").to_string(), "\\u0001\\u0008");
    }

    fn pushed(push: impl FnOnce(&mut String)) -> String {
        let mut out = String::from("prefix:");
        push(&mut out);
        out.strip_prefix("prefix:")
            .expect("writers append")
            .to_owned()
    }

    #[test]
    fn integer_writers_match_display_on_edge_values() {
        let mut edges = vec![
            0,
            1,
            9,
            10,
            11,
            99,
            100,
            101,
            999,
            1000,
            u64::MAX - 1,
            u64::MAX,
        ];
        for p in 1..20 {
            let t = 10u64.pow(p);
            edges.extend([t - 1, t, t + 1]);
        }
        for v in edges {
            assert_eq!(pushed(|o| push_u64(o, v)), format!("{v}"));
            assert_eq!(pushed(|o| push_hex16(o, v)), format!("{v:016x}"));
        }
        for v in [0, -1, 9, -9, 10, -10, i64::MIN, i64::MIN + 1, i64::MAX] {
            assert_eq!(pushed(|o| push_i64(o, v)), format!("{v}"));
        }
        // nanoseconds of a record captured half a second before the epoch
        let pre_epoch = ((9.5f64 - 10.0) * 1e9).round() as i64;
        assert_eq!(pushed(|o| push_i64(o, pre_epoch)), "-500000000");
    }

    #[test]
    fn trace_ids_match_zero_padded_hex() {
        for v in [
            0u128,
            1,
            2,
            0xf,
            u64::MAX as u128,
            u64::MAX as u128 + 1,
            0x0123_4567_89ab_cdef_fedc_ba98_7654_3210,
            u128::MAX,
        ] {
            assert_eq!(pushed(|o| push_hex32(o, v)), format!("{v:032x}"));
        }
    }

    #[test]
    fn escaper_fast_path_matches_escaped() {
        for s in [
            "",
            "cudaLaunch",
            "@CUDA_EXEC_STRM00",
            "cudaMemcpy(D2H)",
            "square<T>(float*, int) & more",
            "énd✓",
            "q\"uote",
            "back\\slash",
            "line\nbreak",
            "\u{1}\u{1f}",
            "tab\there\r",
            "\u{7f} is not a control character in JSON",
        ] {
            assert_eq!(
                pushed(|o| push_escaped(o, s)),
                Escaped(s).to_string(),
                "{s:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        fn writers_match_fmt_on_random_values(
            u in any::<u64>(),
            i in any::<i64>(),
            shift in 0u32..64,
            hi in any::<u64>(),
        ) {
            // `u >> shift` covers every digit count, not only 19-20 digits
            let small = u >> shift;
            prop_assert_eq!(pushed(|o| push_u64(o, u)), format!("{u}"));
            prop_assert_eq!(pushed(|o| push_u64(o, small)), format!("{small}"));
            prop_assert_eq!(pushed(|o| push_i64(o, i)), format!("{i}"));
            let neg = -((small >> 1) as i64);
            prop_assert_eq!(pushed(|o| push_i64(o, neg)), format!("{neg}"));
            prop_assert_eq!(pushed(|o| push_hex16(o, small)), format!("{small:016x}"));
            let id = (u128::from(hi >> shift) << 64) | u128::from(u);
            prop_assert_eq!(pushed(|o| push_hex32(o, id)), format!("{id:032x}"));
        }

        fn escaper_matches_escaped_on_random_names(s in "[a-zA-Z0-9_@()<>&\"\\\n\t\u{1}é ]{0,24}") {
            prop_assert_eq!(pushed(|o| push_escaped(o, &s)), Escaped(&s).to_string());
        }
    }
}
