//! The workspace's only JSON code: scalar encoders, one document tree,
//! one reader and one printer. It is hand-rolled because the workspace
//! builds offline with no external crates, and it lives here because
//! `radar-obs` is the lowest crate every producer and consumer depends on.
//!
//! The event encoder ([`crate::Event::to_json_line`]) appends straight to
//! a byte buffer through [`push_u64`] / [`push_f64`] /
//! [`push_str_escaped`] and never builds a tree; everything else goes
//! through [`Value`]: a strict RFC 8259 reader ([`Value::parse`]) that
//! keeps integers exact and bounds nesting, and one printer with a
//! pretty ([`Value::pretty`]) and a compact (`Display`) layout, both valid
//! JSON for every tree.

use std::fmt;
use std::io::Write as _;
use std::ops::Index;

// ---------------------------------------------------------------------------
// Scalar encoders
// ---------------------------------------------------------------------------

/// `"00"` … `"99"`: [`write_digits`] emits two digits per division.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
                                  2021222324252627282930313233343536373839\
                                  4041424344454647484950515253545556575859\
                                  6061626364656667686970717273747576777879\
                                  8081828384858687888990919293949596979899";

/// Exact as `f64` and as `u64`.
const POW10: [f64; 10] = [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9];

/// Writes `v` in decimal so its last digit lands at `buf[end - 1]`;
/// returns the index of its first digit.
fn write_digits(buf: &mut [u8], end: usize, mut v: u64) -> usize {
    let mut at = end;
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    at
}

/// Appends `v` in decimal, exactly as `{v}` would.
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; 20];
    let at = write_digits(&mut buf, 20, v);
    out.extend_from_slice(&buf[at..]);
}

/// Appends `v` exactly as `{v}` (shortest round-trip `Display`) would.
///
/// Integers in `[0, 2^53)` print as integers. Otherwise, if
/// `v == (m as f64) / 10^k` for an integer `m < 10^15` and `k <= 9`, the
/// decimal `m / 10^k` is printed with trailing zeros trimmed. That is
/// exact: `m` and `10^k` are representable and division rounds correctly,
/// so `v` is the double nearest that decimal and the decimal parses back
/// to `v`; and as every decimal of at most 15 significant digits survives
/// decimal → double → decimal, no other such decimal — so no shorter one
/// — maps to `v`. `SimTime` is integer microseconds, so every timestamp,
/// latency and lag takes this path. Negative values, `-0.0`, values from
/// `2^53` up and whatever fails the check fall back to `{v}`; non-finite
/// values are `null`.
pub fn push_f64(out: &mut Vec<u8>, v: f64) {
    if !v.is_finite() {
        out.extend_from_slice(b"null");
        return;
    }
    if v.is_sign_positive() && v < 9_007_199_254_740_992.0 {
        let int = v as u64;
        if int as f64 == v {
            push_u64(out, int);
            return;
        }
        // The largest k <= 9 that keeps m = v * 10^k below 10^15.
        let mut k = 9;
        let mut limit = 1e6;
        while v >= limit && k > 0 {
            k -= 1;
            limit *= 10.0;
        }
        let scale = POW10[k];
        let m = (v * scale + 0.5) as u64;
        if m < 1_000_000_000_000_000 && m as f64 / scale == v {
            let mut frac = m - int * scale as u64;
            while k > 0 && frac.is_multiple_of(10) {
                frac /= 10;
                k -= 1;
            }
            // Zero-filled, so a short `frac` is already left-padded.
            let mut buf = [b'0'; 32];
            write_digits(&mut buf, 32, frac);
            let point = 32 - k - 1;
            buf[point] = b'.';
            let at = write_digits(&mut buf, point, int);
            out.extend_from_slice(&buf[at..]);
            return;
        }
    }
    let _ = write!(out, "{v}");
}

/// Appends `s` as a quoted JSON string: `"` and `\` escaped, control
/// characters as `\n` / `\r` / `\t` / `\u00XX`, everything else as is.
pub fn push_str_escaped(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    for b in s.bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b if b < 0x20 => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.extend_from_slice(b"\\u00");
                out.push(HEX[usize::from(b >> 4)]);
                out.push(HEX[usize::from(b & 15)]);
            }
            // Bytes of multi-byte characters are all >= 0x80.
            b => out.push(b),
        }
    }
    out.push(b'"');
}

// ---------------------------------------------------------------------------
// The tree
// ---------------------------------------------------------------------------

/// A JSON document.
///
/// Numbers compare by value (`UInt(3) == Num(3.0)`): a tree built with
/// `Num` equals what the reader makes of its own printed form.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number held as `f64`; non-finite values print as `null`.
    Num(f64),
    /// An unsigned integer, exact over the whole `u64` range. The reader
    /// produces it for every digit-only token that fits.
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document (insertion) order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, when it is a whole non-negative
    /// number below 2^64.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(n) => Some(n),
            Value::Num(n) if n >= 0.0 && n.fract() == 0.0 && n < 18_446_744_073_709_551_616.0 => {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The value as a float, when it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Num(n) => Some(n),
            Value::UInt(n) => Some(n as f64),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value's elements, when it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders with two-space indentation, one member per line, `": "`
    /// after keys, `[]` / `{}` for empty containers.
    pub fn pretty(&self) -> String {
        self.render(Some(0))
    }

    fn render(&self, indent: Option<usize>) -> String {
        let mut out = Vec::new();
        self.write(&mut out, indent);
        String::from_utf8(out).expect("the encoders emit UTF-8")
    }

    /// The one printer. `indent` is the current depth in the pretty
    /// layout and `None` in the compact one.
    fn write(&self, out: &mut Vec<u8>, indent: Option<usize>) {
        let inner = indent.map(|depth| depth + 1);
        let newline = |out: &mut Vec<u8>, indent: Option<usize>| {
            if let Some(depth) = indent {
                out.push(b'\n');
                out.resize(out.len() + 2 * depth, b' ');
            }
        };
        match self {
            Value::Null => out.extend_from_slice(b"null"),
            Value::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            Value::Num(v) => push_f64(out, *v),
            Value::UInt(v) => push_u64(out, *v),
            Value::Str(s) => push_str_escaped(out, s),
            Value::Arr(items) if items.is_empty() => out.extend_from_slice(b"[]"),
            Value::Obj(members) if members.is_empty() => out.extend_from_slice(b"{}"),
            Value::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    newline(out, inner);
                    item.write(out, inner);
                }
                newline(out, indent);
                out.push(b']');
            }
            Value::Obj(members) => {
                out.push(b'{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    newline(out, inner);
                    push_str_escaped(out, key);
                    out.extend_from_slice(if indent.is_some() { b": " } else { b":" });
                    value.write(out, inner);
                }
                newline(out, indent);
                out.push(b'}');
            }
        }
    }
}

/// The compact layout: one line, no spaces.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(None))
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::UInt(a), Value::UInt(b)) => a == b,
            (n @ Value::Num(_), Value::UInt(b)) | (Value::UInt(b), n @ Value::Num(_)) => {
                n.as_u64() == Some(*b)
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Arr(a), Value::Arr(b)) => a == b,
            (Value::Obj(a), Value::Obj(b)) => a == b,
            _ => false,
        }
    }
}

/// `value["field"]`: member lookup on objects, [`Value::Null`] when the
/// key is absent or the value is not an object (mirroring the common
/// dynamic-JSON idiom).
impl Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        const NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other == self
    }
}

// ---------------------------------------------------------------------------
// The reader
// ---------------------------------------------------------------------------

/// Error from reading JSON: what was wrong and, for syntax errors, the
/// byte offset. [`crate::parse_jsonl`] prefixes the line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub(crate) String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for String {
    fn from(e: ParseError) -> String {
        e.0
    }
}

/// Containers may nest this deep. The writers in this workspace never
/// exceed 5; the bound keeps the recursive reader's stack use fixed
/// whatever the input.
const MAX_DEPTH: usize = 64;

impl Value {
    /// Parses one JSON document (RFC 8259), rejecting trailing input.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with the byte offset when `text` is not
    /// valid JSON, or nests containers more than 64 deep.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut reader = Reader { text, pos: 0 };
        let value = reader.value(0)?;
        reader.skip_ws();
        if reader.pos != text.len() {
            return reader.fail("trailing characters");
        }
        Ok(value)
    }
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn fail<T>(&self, what: &str) -> Result<T, ParseError> {
        Err(ParseError(format!("{what} at byte {}", self.pos)))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            None => self.fail("unexpected end of input"),
            Some(b'{') => self.container(depth, b'}'),
            Some(b'[') => self.container(depth, b']'),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.fail("unexpected character"),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if !self.text[self.pos..].starts_with(word) {
            return self.fail("invalid literal");
        }
        self.pos += word.len();
        Ok(value)
    }

    /// An array (`close == b']'`) or an object (`b'}'`): the same
    /// comma-separated loop, with a `"key":` in front of each object
    /// member.
    fn container(&mut self, depth: usize, close: u8) -> Result<Value, ParseError> {
        if depth == MAX_DEPTH {
            return self.fail(&format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.pos += 1;
        let mut items = Vec::new();
        let mut members = Vec::new();
        self.skip_ws();
        if !self.eat(close) {
            loop {
                if close == b'}' {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return self.fail("expected a string key");
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(b':') {
                        return self.fail("expected ':'");
                    }
                    members.push((key, self.value(depth + 1)?));
                } else {
                    items.push(self.value(depth + 1)?);
                }
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return self.fail(if close == b'}' {
                        "expected ',' or '}'"
                    } else {
                        "expected ',' or ']'"
                    });
                }
            }
        }
        Ok(if close == b'}' {
            Value::Obj(members)
        } else {
            Value::Arr(items)
        })
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        let digits = |r: &mut Self| {
            let from = r.pos;
            while matches!(r.peek(), Some(b'0'..=b'9')) {
                r.pos += 1;
            }
            r.pos - from
        };
        self.eat(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = digits(self);
        if int_digits == 0 || (leading_zero && int_digits > 1) {
            self.pos = start;
            return self.fail("invalid number");
        }
        let mut integer = self.text.as_bytes()[start] != b'-';
        if self.eat(b'.') {
            integer = false;
            if digits(self) == 0 {
                return self.fail("invalid number: no digits after '.'");
            }
        }
        if self.eat(b'e') || self.eat(b'E') {
            integer = false;
            let _ = self.eat(b'+') || self.eat(b'-');
            if digits(self) == 0 {
                return self.fail("invalid number: no digits in exponent");
            }
        }
        let token = &self.text[start..self.pos];
        if integer {
            // Too long for `u64`: still a number, but not one any
            // integer field accepts.
            if let Ok(v) = token.parse::<u64>() {
                return Ok(Value::UInt(v));
            }
        }
        Ok(Value::Num(
            token
                .parse()
                .expect("the grammar above is a subset of f64's"),
        ))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // the opening quote, checked by the caller
        let mut out = String::new();
        loop {
            // A run of plain characters ends at an ASCII byte, so both
            // ends of the slice are character boundaries.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return self.fail("bad escape"),
                    };
                    out.push(c);
                    self.pos += 1;
                }
                Some(_) => return self.fail("unescaped control character in string"),
            }
        }
    }

    /// Reads `uXXXX`, and `\uXXXX` again after the high half of a
    /// surrogate pair, with `pos` on the first `u`; leaves `pos` on the
    /// last hex digit.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.text[self.pos + 1..].starts_with("\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        match char::from_u32(code) {
            Some(c) => Ok(c),
            None => self.fail("lone surrogate in \\u escape"),
        }
    }

    /// The four hex digits after `pos`; leaves `pos` on the last.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = (self.text.get(self.pos + 1..self.pos + 5))
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        let Some(digits) = digits else {
            return self.fail("bad \\u escape");
        };
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_simcore::SimRng;

    fn f64_text(v: f64) -> String {
        let mut out = Vec::new();
        push_f64(&mut out, v);
        String::from_utf8(out).unwrap()
    }

    /// The oracle is `{v}`: the report and the event log printed floats
    /// with it before the encoder existed.
    fn assert_f64_matches_display(v: f64) {
        let want = if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        };
        assert_eq!(f64_text(v), want, "bits {:#018x}", v.to_bits());
    }

    #[test]
    fn push_f64_matches_display_on_a_million_values() {
        let mut rng = SimRng::seed_from(0x0b5e_55ed);
        for _ in 0..180_000 {
            // What a trace is made of: microsecond-quantised times and
            // their differences, over a run and over a day.
            let micros = rng.next_u64() % 3_000_000_000;
            assert_f64_matches_display(micros as f64 / 1e6);
            assert_f64_matches_display((rng.next_u64() % 86_400_000_000) as f64 / 1e6);
            // Unit counts and rates: ratios of small integers.
            let n = rng.next_u64() % 100_000;
            let d = 1 + rng.next_u64() % 64;
            assert_f64_matches_display(n as f64 / d as f64);
            assert_f64_matches_display(n as f64 / 100.0);
            // Decimals with k digits after the point, k = 1..=12.
            let k = 1 + rng.index(12) as i32;
            assert_f64_matches_display((rng.next_u64() >> 14) as f64 / 10f64.powi(k));
            // Anything at all: raw bit patterns (subnormals, NaN and
            // infinities included), unit samples, integers to 2^63.
            assert_f64_matches_display(f64::from_bits(rng.next_u64()));
            assert_f64_matches_display(rng.unit());
            assert_f64_matches_display((rng.next_u64() >> rng.index(64)) as f64);
        }
        #[rustfmt::skip]
        let edges = [
            0.0, -0.0, 1e21, 1e-7, 1e-9, 0.1 + 0.2, 0.3, -2.5, 5e-324, f64::MIN_POSITIVE, f64::MAX,
            f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 9_007_199_254_740_991.0,
            9_007_199_254_740_992.0, 999_999_999_999_999.9, 1_000_000.000_000_1,
            999_999.999_999_999_9, 123_456.789, 0.000_000_001, 4_503_599_627_370_495.5,
        ];
        for v in edges {
            assert_f64_matches_display(v);
        }
        assert_eq!(f64_text(f64::NAN), "null");
        assert_eq!(f64_text(12.5), "12.5");
        assert_eq!(f64_text(0.000_123), "0.000123");
        assert_eq!(f64_text(-0.0), "-0");
    }

    #[test]
    fn push_u64_matches_display() {
        let mut rng = SimRng::seed_from(7);
        let mut got = Vec::new();
        let mut check = |v: u64| {
            got.clear();
            push_u64(&mut got, v);
            assert_eq!(std::str::from_utf8(&got).unwrap(), v.to_string());
        };
        for _ in 0..200_000 {
            check(rng.next_u64() >> rng.index(64));
        }
        for v in [0, 9, 10, 99, 100, 101, 12_345, 1 << 53, 1 << 63, u64::MAX] {
            check(v);
        }
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("-2.5e2").unwrap(), Value::Num(-250.0));
        assert_eq!(Value::parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v["c"], "x");
        assert_eq!(v["a"].as_array().unwrap().len(), 3);
        assert_eq!(v["a"].as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v["a"].as_array().unwrap()[2]["b"], Value::Null);
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Value::parse(r#""a\"b\\c\nd\u0041\/\b\f\r\t""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA/\u{8}\u{c}\r\t"));
        // A surrogate pair is one character; half of one is an error.
        assert_eq!(Value::parse(r#""\ud83e\udd80""#).unwrap(), "\u{1F980}");
        for lone in [
            r#""\ud800""#,
            r#""\ud800x""#,
            r#""\udc00""#,
            r#""\ud800\u0041""#,
        ] {
            let e = Value::parse(lone).unwrap_err().to_string();
            assert!(e.contains("lone surrogate"), "{lone}: {e}");
        }
    }

    #[test]
    fn rejects_garbage() {
        #[rustfmt::skip]
        let bad = [
            "", "{", "[1,]", "12 34", "{\"a\" 1}", "nil", "{1:2}", "[1 2]", "\"open", "\"tab\there\"",
            "\"\\x\"", "\"\\u12\"", "\"\\u+123\"", "01", "-", "+1", "1.", ".5", "1e", "1e+", "--1",
            "0x10", "NaN", "tru",
        ];
        for bad in bad {
            assert!(Value::parse(bad).is_err(), "{bad:?} parsed");
        }
        let e = Value::parse("[1, ?]").unwrap_err();
        assert_eq!(e.to_string(), "unexpected character at byte 4");
        assert_eq!(String::from(e), "unexpected character at byte 4");
    }

    #[test]
    fn integer_tokens_stay_exact_and_numbers_compare_by_value() {
        let big = (1u64 << 53) + 1;
        assert!(matches!(
            Value::parse(&big.to_string()).unwrap(),
            Value::UInt(v) if v == big
        ));
        assert!(matches!(
            Value::parse("18446744073709551615").unwrap(),
            Value::UInt(u64::MAX)
        ));
        // Not integers: too long for u64, signed, fractional, exponent.
        for (text, want) in [
            ("18446744073709551616", 18_446_744_073_709_551_616.0),
            ("-1", -1.0),
            ("-0", 0.0),
            ("5.0", 5.0),
            ("1e3", 1000.0),
            ("1E-2", 0.01),
        ] {
            assert!(
                matches!(Value::parse(text).unwrap(), Value::Num(v) if v == want),
                "{text}"
            );
        }
        assert_eq!(Value::UInt(3), Value::Num(3.0));
        assert_eq!(Value::Num(3.0), Value::UInt(3));
        assert_ne!(Value::UInt(3), Value::Num(3.5));
        assert_ne!(Value::UInt(big), Value::Num(big as f64));
        assert_ne!(Value::UInt(u64::MAX), Value::Num(u64::MAX as f64));
        assert_eq!(Value::Num(5.0).as_u64(), Some(5));
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Num(u64::MAX as f64).as_u64(), None);
        assert_eq!(Value::UInt(7).as_f64(), Some(7.0));
    }

    #[test]
    fn nesting_is_bounded_by_a_named_error() {
        let nested =
            |open: &str, close: &str, n: usize| format!("{}{}", open.repeat(n), close.repeat(n));
        assert!(Value::parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(Value::parse(&format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH),
            "}".repeat(MAX_DEPTH)
        ))
        .is_ok());
        for hostile in [
            nested("[", "]", MAX_DEPTH + 1),
            "[".repeat(300_000),
            "{\"a\":".repeat(200_000),
        ] {
            let e = Value::parse(&hostile).unwrap_err().to_string();
            assert!(e.contains("nesting deeper than 64 levels"), "{e}");
        }
    }

    fn sample() -> Value {
        Value::Obj(vec![
            ("a\"b".into(), Value::Str("x\ny".into())),
            ("n".into(), Value::Num(1.5)),
            ("i".into(), Value::UInt(7)),
            ("z".into(), Value::Arr(vec![Value::Null, Value::Bool(true)])),
            ("empty".into(), Value::Arr(vec![])),
            ("none".into(), Value::Obj(vec![])),
        ])
    }

    #[test]
    fn escapes_and_layout() {
        assert_eq!(
            sample().pretty(),
            "{\n  \"a\\\"b\": \"x\\ny\",\n  \"n\": 1.5,\n  \"i\": 7,\n  \"z\": [\n    null,\n    \
             true\n  ],\n  \"empty\": [],\n  \"none\": {}\n}"
        );
        assert_eq!(
            sample().to_string(),
            r#"{"a\"b":"x\ny","n":1.5,"i":7,"z":[null,true],"empty":[],"none":{}}"#
        );
    }

    #[test]
    fn both_layouts_are_valid_json_for_every_tree() {
        let hostile = Value::Arr(vec![
            Value::Str("\u{1}\u{7f}\u{301}\"\\'".into()),
            Value::Num(f64::NAN),
            Value::Num(f64::INFINITY),
            Value::Num(-0.0),
            Value::UInt(u64::MAX),
            Value::Num(1e300),
            sample(),
        ]);
        let mut want = hostile.clone();
        if let Value::Arr(items) = &mut want {
            items[1] = Value::Null;
            items[2] = Value::Null;
        }
        for text in [hostile.to_string(), hostile.pretty()] {
            let back = Value::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            assert_eq!(back, want, "{text}");
            let Value::Arr(items) = &back else {
                panic!("not an array: {text}")
            };
            assert!(matches!(items[4], Value::UInt(u64::MAX)), "{text}");
            assert!(
                matches!(items[3], Value::Num(z) if z == 0.0 && z.is_sign_negative()),
                "{text}"
            );
        }
        assert!(!hostile.to_string().contains('\n'));
        assert!(hostile
            .to_string()
            .contains("\\u0001\u{7f}\u{301}\\\"\\\\'"));
    }

    #[test]
    fn display_is_valid_json() {
        let text = r#"{"a":[1,true,"s"],"b":{"c":null}}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(Value::parse(&v.to_string()).unwrap(), v);
    }
}
