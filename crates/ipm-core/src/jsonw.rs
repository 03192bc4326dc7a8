//! Hand-rolled JSON writing and parsing, shared by the export backends.
//!
//! The repo has no serde (no external deps are available), so every JSON
//! producer writes strings by hand and every validator parses them with
//! the minimal recursive-descent parser below. This module is the single
//! home for both halves: [`Escaped`] and the `push_*` writers are the
//! primitives the Chrome and OTLP exporters and the XML log write strings
//! and numbers through, and [`parse_json`]/[`Json`] are the reader used by
//! [`crate::export::chrome::validate_chrome_trace`] and `validate_otlp`.
//!
//! The writers append straight to the output without going through
//! `core::fmt`, and write exactly what `{}` (or `{:016x}`, `{:032x}`) would:
//! a trace export writes several numbers, ids and names per record, and
//! formatting them through `write!` was most of its cost. [`push_f64`]
//! finds the shortest digits that read back to the same `f64` with Ryu
//! (Adams, PLDI 2018, <https://doi.org/10.1145/3192366.3192369>), over
//! power-of-5 tables the compiler evaluates from `const fn`s below, and
//! lays them out as `Display` does.

use std::fmt::{self, Write as _};

/// `"00"` to `"99"`, so the digit writer divides once per two digits.
const PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Write `v`'s decimal digits to the tail of `buf` (at least 20 bytes)
/// and return where they start: eight at a time while more remain, each
/// eight as two independent runs of four, then the rest in pairs.
fn decimal(buf: &mut [u8], mut v: u64) -> usize {
    fn pair(buf: &mut [u8], end: usize, d: u32) {
        let d = d as usize * 2;
        buf[end - 2..end].copy_from_slice(&PAIRS[d..d + 2]);
    }
    let mut i = buf.len();
    while v >= 100_000_000 {
        let eight = (v % 100_000_000) as u32;
        v /= 100_000_000;
        let (hi, lo) = (eight / 10_000, eight % 10_000);
        pair(buf, i, lo % 100);
        pair(buf, i - 2, lo / 100);
        pair(buf, i - 4, hi % 100);
        pair(buf, i - 6, hi / 100);
        i -= 8;
    }
    let mut v = v as u32;
    while v >= 100 {
        pair(buf, i, v % 100);
        v /= 100;
        i -= 2;
    }
    if v >= 10 {
        pair(buf, i, v);
        i - 2
    } else {
        buf[i - 1] = b'0' + v as u8;
        i - 1
    }
}

/// Append `bytes`, which the writers here fill with ASCII only.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    out.push_str(std::str::from_utf8(bytes).expect("number writers emit ASCII"));
}

/// Append `v` in decimal, as `{}` writes it.
pub(crate) fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0; 20];
    let i = decimal(&mut buf, v);
    push_ascii(out, &buf[i..]);
}

/// Append `v` in decimal, as `{}` writes it.
#[cfg(feature = "otlp")]
pub(crate) fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Append `v` as 16 lowercase hex digits, as `{:016x}` writes it.
#[cfg(feature = "otlp")]
pub(crate) fn push_hex16(out: &mut String, v: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 16];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = HEX[(v >> (60 - 4 * i)) as usize & 0xf];
    }
    push_ascii(out, &buf);
}

/// Append `v` as 32 lowercase hex digits, as `{:032x}` writes it.
#[cfg(feature = "otlp")]
pub(crate) fn push_hex32(out: &mut String, v: u128) {
    push_hex16(out, (v >> 64) as u64);
    push_hex16(out, v as u64);
}

/// Append `v` as `{}` writes it: the shortest digits that read back to
/// `v`, never with an exponent (`1e21` is `1000000000000000000000`,
/// `5e-324` is `0.000…5`), without `.0` on an integral value, and `-0`
/// for `-0.0`. The exporters only hold finite numbers (the log reader
/// bounds every time it loads); a non-finite one trips a debug assertion
/// and is otherwise written by [`push_non_finite`].
pub(crate) fn push_f64(out: &mut String, v: f64) {
    debug_assert!(v.is_finite(), "writers only see finite numbers, got {v}");
    if !v.is_finite() {
        push_non_finite(out, v);
        return;
    }
    if v.is_sign_negative() {
        out.push('-');
    }
    if v == 0.0 {
        out.push('0');
        return;
    }
    let (mantissa, exp10) = shortest(v.to_bits());
    // digits at the tail, after room for `0.` and up to 21 more zeros; the
    // buffer starts out all zeros
    let mut buf = [b'0'; 40];
    let i = decimal(&mut buf, mantissa);
    let n = (buf.len() - i) as i32;
    // v = 0.<digits> × 10^point
    let point = n + exp10;
    if point >= n {
        push_ascii(out, &buf[i..]);
        out.extend(std::iter::repeat_n('0', (point - n) as usize));
    } else if point > 0 {
        // shift the integer part left over the decimal point
        let int = point as usize;
        buf.copy_within(i..i + int, i - 1);
        buf[i - 1 + int] = b'.';
        push_ascii(out, &buf[i - 1..]);
    } else if i as i32 + point >= 2 {
        let start = (i as i32 + point) as usize - 2;
        buf[start + 1] = b'.';
        push_ascii(out, &buf[start..]);
    } else {
        out.push_str("0.");
        out.extend(std::iter::repeat_n('0', (-point) as usize));
        push_ascii(out, &buf[i..]);
    }
}

/// Append a non-finite `v` as `{}` writes it: `NaN`, `inf` or `-inf`.
pub(crate) fn push_non_finite(out: &mut String, v: f64) {
    out.push_str(if v.is_nan() {
        "NaN"
    } else if v > 0.0 {
        "inf"
    } else {
        "-inf"
    });
}

/// Width of a [`POW5`] entry: `5^i` scaled to exactly this many bits.
const POW5_BITS: i32 = 125;
/// Width of a [`POW5_INV`] entry, in the same sense.
const POW5_INV_BITS: i32 = 125;
/// Limbs of the `const` big numbers the tables are cut from: 960 bits
/// hold both `5^325` (755 bits) and the `2^959` the inverses divide.
const LIMBS: usize = 15;

/// Bits of `5^e` (`⌈e · log2 5⌉`, 1 for `e = 0`), for `e ≤ 3528`.
const fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊e · log10 2⌋`, for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> i32 {
    ((e as u32 * 78_913) >> 18) as i32
}

/// `⌊e · log10 5⌋`, for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> i32 {
    ((e as u32 * 732_923) >> 20) as i32
}

/// `x · m` in place, little-endian limbs; the product must fit.
const fn mul_small(x: &mut [u64; LIMBS], m: u64) {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let p = x[i] as u128 * m as u128 + carry;
        x[i] = p as u64;
        carry = p >> 64;
        i += 1;
    }
}

/// `⌊x / d⌋` in place.
const fn div_small(x: &mut [u64; LIMBS], d: u64) {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let cur = (rem << 64) | x[i] as u128;
        x[i] = (cur / d as u128) as u64;
        rem = cur % d as u128;
    }
}

/// Limb `i` of `x`, zero past the top.
const fn limb(x: &[u64; LIMBS], i: usize) -> u128 {
    if i < LIMBS {
        x[i] as u128
    } else {
        0
    }
}

/// `⌊x / 2^s⌋ mod 2^128`.
const fn bits_from(x: &[u64; LIMBS], s: i32) -> u128 {
    let (l, off) = (s as usize / 64, s as u32 % 64);
    let low = (limb(x, l + 1) << 64 | limb(x, l)) >> off;
    if off == 0 {
        low
    } else {
        low | limb(x, l + 2) << (128 - off)
    }
}

/// `5^i` to [`POW5_BITS`] bits, truncated (Ryu's `DOUBLE_POW5_SPLIT`), for
/// every `i` a negative binary exponent needs.
static POW5: [u128; 326] = {
    let mut table = [0; 326];
    let mut x = [0; LIMBS];
    x[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let bits = pow5_bits(i as i32);
        table[i] = if bits <= POW5_BITS {
            bits_from(&x, 0) << (POW5_BITS - bits)
        } else {
            bits_from(&x, bits - POW5_BITS)
        };
        mul_small(&mut x, 5);
        i += 1;
    }
    table
};

/// `⌊2^(bits(5^q) − 1 + POW5_INV_BITS) / 5^q⌋ + 1` (Ryu's
/// `DOUBLE_POW5_INV_SPLIT`), for every `q` a positive binary exponent
/// needs. `⌊⌊2^959 / 5^(q−1)⌋ / 5⌋ = ⌊2^959 / 5^q⌋`, so one division by 5
/// per entry walks the whole table.
static POW5_INV: [u128; 342] = {
    const TOP: i32 = 64 * LIMBS as i32 - 1;
    let mut table = [0; 342];
    let mut x = [0; LIMBS];
    x[LIMBS - 1] = 1 << 63;
    let mut q = 0;
    while q < table.len() {
        let bits = pow5_bits(q as i32) - 1 + POW5_INV_BITS;
        table[q] = bits_from(&x, TOP - bits) + 1;
        div_small(&mut x, 5);
        q += 1;
    }
    table
};

/// `⌊m · mul / 2^j⌋` for `j ≥ 64`, where the result fits in 64 bits.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let lo = u128::from(m) * (mul as u64 as u128);
    let hi = u128::from(m) * (mul >> 64);
    (((lo >> 64) + hi) >> (j - 64)) as u64
}

fn multiple_of_pow5(mut v: u64, p: i32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) && count < p {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// Ryu's `d2d`: the shortest decimal `m · 10^e` that reads back as the
/// positive finite `f64` with these bits, and the closest to it among
/// those. An exact tie rounds up, where Ryu rounds to even:
/// `965817170205.90625` is equally near `…205.9062` and `…205.9063`, and
/// `{}` writes the latter.
fn shortest(bits: u64) -> (u64, i32) {
    const MANTISSA_BITS: u32 = 52;
    const BIAS: i32 = 1023;
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as i32;
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // the interval of decimals that round to `v` includes its bounds when
    // the mantissa is even (round-half-to-even reading)
    let accept_bounds = m2.is_multiple_of(2);
    // the lower neighbour is closer when `v` is a power of two
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mv = 4 * m2;
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // scale the interval [mm, mp] / 4 · 2^e2 to integers vm..vp times
    // 10^e10, noting when a bound falls exactly on an integer: an included
    // lower bound may then end in zeros, an excluded upper one steps down
    let (e10, mul, j, vm_exact, vp_exact) = if e2 >= 0 {
        let q = log10_pow2(e2) - i32::from(e2 > 3);
        let j = -e2 + q + POW5_INV_BITS + pow5_bits(q) - 1;
        // at most one of mp, mv and mm is a multiple of 5
        let bound_exact = q <= 21 && !mv.is_multiple_of(5);
        (
            q,
            POW5_INV[q as usize],
            j,
            bound_exact && accept_bounds && multiple_of_pow5(mm, q),
            bound_exact && !accept_bounds && multiple_of_pow5(mp, q),
        )
    } else {
        let q = log10_pow5(-e2) - i32::from(-e2 > 1);
        let i = -e2 - q;
        let j = q - (pow5_bits(i) - POW5_BITS);
        // mm = mv − 1 − mm_shift is even exactly when mm_shift is 1
        (
            q + e2,
            POW5[i as usize],
            j,
            q <= 1 && accept_bounds && mm_shift == 1,
            q <= 1 && !accept_bounds,
        )
    };
    let mut vr = mul_shift(mv, mul, j);
    let mut vp = mul_shift(mp, mul, j) - u64::from(vp_exact);
    let mut vm = mul_shift(mm, mul, j);
    let mut vm_exact = vm_exact;

    // drop digits while the interval still holds a shorter decimal, then
    // round what is left half up, as `Display` does; most values lose two
    // or more, so try two at once first
    let mut removed = 0;
    let mut last_removed = 0;
    if !vm_exact && vp / 100 > vm / 100 {
        last_removed = vr % 100 / 10;
        (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
        removed = 2;
    }
    while vp / 10 > vm / 10 {
        vm_exact &= vm.is_multiple_of(10);
        last_removed = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_exact {
        // an exact, included lower bound may end in zeros to drop too
        while vm.is_multiple_of(10) {
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // vr itself is out of the interval when it sits on an excluded bound
    let output = vr + u64::from(vr == vm && !vm_exact || last_removed >= 5);
    (output, e10 + removed)
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
            #[cfg(feature = "otlp")]
            assert_eq!(pushed(|o| push_hex16(o, v)), format!("{v:016x}"));
        }
        #[cfg(feature = "otlp")]
        {
            for v in [0, -1, 9, -9, 10, -10, i64::MIN, i64::MIN + 1, i64::MAX] {
                assert_eq!(pushed(|o| push_i64(o, v)), format!("{v}"));
            }
            // nanoseconds of a record captured half a second before the epoch
            let pre_epoch = ((9.5f64 - 10.0) * 1e9).round() as i64;
            assert_eq!(pushed(|o| push_i64(o, pre_epoch)), "-500000000");
        }
    }

    #[test]
    fn writers_match_fmt_on_f64_edge_values() {
        let two53 = (1u64 << 53) as f64;
        let mut edges = vec![
            0.0,
            5e-324,
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::MAX,
            two53 - 1.0,
            two53,
            two53 + 1.0,
            two53 + 2.0,
            0.1 + 0.2,
            1e21,
            1e22,
            123456789012345680.0,
            // exactly 965817170205.90625, a tie between two 16-digit
            // neighbours
            965_817_170_205.906_3,
            // the largest trace time the log reader accepts
            1e12,
            1e12f64.next_down(),
        ];
        for e in -323..=308 {
            let p: f64 = format!("1e{e}").parse().expect("a power of ten");
            edges.extend([p, p.next_down(), p.next_up()]);
        }
        for v in edges.clone() {
            edges.push(-v);
        }
        for v in edges {
            assert_eq!(
                pushed(|o| push_f64(o, v)),
                format!("{v}"),
                "{:#x}",
                v.to_bits()
            );
        }
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(pushed(|o| push_non_finite(o, v)), format!("{v}"));
        }
    }

    #[cfg(feature = "otlp")]
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

        #[test]
        fn writers_match_fmt_on_random_values(u in any::<u64>(), shift in 0u32..64) {
            // `u >> shift` covers every digit count, not only 19-20 digits
            let small = u >> shift;
            prop_assert_eq!(pushed(|o| push_u64(o, u)), format!("{u}"));
            prop_assert_eq!(pushed(|o| push_u64(o, small)), format!("{small}"));
        }

        #[test]
        fn escaper_matches_escaped_on_random_names(s in "[a-zA-Z0-9_@()<>&\"\\\n\t\u{1}é ]{0,24}") {
            prop_assert_eq!(pushed(|o| push_escaped(o, &s)), Escaped(&s).to_string());
        }
    }

    #[cfg(feature = "otlp")]
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn writers_match_fmt_on_random_ids(
            u in any::<u64>(),
            i in any::<i64>(),
            shift in 0u32..64,
            hi in any::<u64>(),
        ) {
            let small = u >> shift;
            prop_assert_eq!(pushed(|o| push_i64(o, i)), format!("{i}"));
            let neg = -((small >> 1) as i64);
            prop_assert_eq!(pushed(|o| push_i64(o, neg)), format!("{neg}"));
            prop_assert_eq!(pushed(|o| push_hex16(o, small)), format!("{small:016x}"));
            let id = (u128::from(hi >> shift) << 64) | u128::from(u);
            prop_assert_eq!(pushed(|o| push_hex32(o, id)), format!("{id:032x}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn writers_match_fmt_on_random_f64_bits(bits in any::<u64>()) {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                prop_assert_eq!(pushed(|o| push_f64(o, v)), format!("{v}"));
            }
        }

        /// What the exporters write: times in seconds up to the reader's
        /// 1e12 s bound, spread over every magnitude, as Chrome's µs, as
        /// µs durations, and relative to an epoch (OTLP and the XML epoch).
        #[test]
        fn writers_match_fmt_on_exported_times(
            t in 0.0f64..1e12,
            scale in 0i32..16,
            len in 0.0f64..1.0,
            epoch in 0.0f64..1.0,
        ) {
            let begin = t / 10f64.powi(scale);
            let end = begin + len * begin.max(1e-6);
            let epoch = epoch * begin;
            for v in [begin, end, begin * 1e6, (end - begin) * 1e6, begin - epoch] {
                prop_assert_eq!(pushed(|o| push_f64(o, v)), format!("{v}"));
            }
        }
    }
}
