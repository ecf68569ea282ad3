//! Minimal JSON support: string escaping for the exporters and a small
//! recursive-descent parser used by the round-trip tests (and by anyone
//! who wants to post-process an export without external crates).
//!
//! The parser is hardened against untrusted input — `nrlt-report` feeds
//! it whatever bundle files it is pointed at, so a malformed document
//! must come back as an `Err`, never as a crash:
//!
//! * **depth limit** — nesting beyond [`MAX_DEPTH`] is an error instead
//!   of a recursion-driven stack overflow (an overflow aborts the
//!   process; it cannot be caught),
//! * **size limit** — documents larger than [`MAX_BYTES`] are rejected
//!   before a byte is parsed,
//! * **finite numbers only** — `1e999` and friends overflow `f64` to
//!   infinity under `str::parse`; JSON has no Inf/NaN, so non-finite
//!   results are errors (the exporters render them as `0`),
//! * **no trailing garbage** — a document must consume its input.
//!
//! The field readers on [`Value`] (`str_field`, `u64_field`,
//! `u32_field`, `i64_field`) are the one set of rules every bundle
//! loader applies to the numbers it reads back: integers only, within
//! the range an `f64` holds exactly, with an error naming the field.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON document (without the quotes).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a quoted JSON string.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Render an `f64` as a JSON number (JSON has no NaN/Inf; they become 0).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // Trim trailing zeros for readability while staying lossless
        // enough for telemetry purposes.
        let s = format!("{v:.6}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        if s.is_empty() || s == "-" {
            "0".to_owned()
        } else {
            s.to_owned()
        }
    } else {
        "0".to_owned()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`; large `u64`s lose precision, which
    /// is acceptable for validity checking).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (insertion order not preserved).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member of an object, if this is an object and the key exists.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string member `key` of an object.
    pub fn str_field(&self, key: &str) -> Result<String, String> {
        self.get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing string field {key:?}"))
    }

    fn num_field(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("missing numeric field {key:?}"))
    }

    /// The numeric member `key` as a `u64`: a non-negative integer no
    /// larger than 2^53, above which the `f64`-backed parser no longer
    /// holds every integer exactly. Anything else is an error, never a
    /// clamp or a truncation.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        let f = self.num_field(key)?;
        if !(0.0..=MAX_EXACT).contains(&f) || f.fract() != 0.0 {
            return Err(format!("field {key:?} is {f}, not an integer in [0, 2^53]"));
        }
        Ok(f as u64)
    }

    /// [`u64_field`](Self::u64_field) that must also fit a `u32`.
    pub fn u32_field(&self, key: &str) -> Result<u32, String> {
        let n = self.u64_field(key)?;
        u32::try_from(n).map_err(|_| format!("field {key:?} is {n}, above u32::MAX"))
    }

    /// The numeric member `key` as an `i64`: an integer in
    /// [-2^53, 2^53], the signed twin of [`u64_field`](Self::u64_field).
    pub fn i64_field(&self, key: &str) -> Result<i64, String> {
        let f = self.num_field(key)?;
        if !(-MAX_EXACT..=MAX_EXACT).contains(&f) || f.fract() != 0.0 {
            return Err(format!("field {key:?} is {f}, not an integer in [-2^53, 2^53]"));
        }
        Ok(f as i64)
    }
}

/// 2^53: every integer up to it is exact in an `f64`.
const MAX_EXACT: f64 = (1u64 << 53) as f64;

/// Maximum container nesting (arrays + objects). Exceeding it is an
/// error — the alternative is a stack overflow, which aborts.
pub const MAX_DEPTH: usize = 128;

/// Maximum document size in bytes, checked before parsing. Like
/// [`MAX_DEPTH`], far above anything the exporters write (the largest
/// committed document is tens of kilobytes; whole bundles are
/// megabytes), far below anything that could exhaust the stack or
/// memory.
pub const MAX_BYTES: usize = 64 << 20;

/// Parse a complete JSON document of at most [`MAX_BYTES`] bytes and
/// [`MAX_DEPTH`] levels of nesting. Errors carry a byte offset.
pub fn parse(input: &str) -> Result<Value, String> {
    if input.len() > MAX_BYTES {
        return Err(format!("document is {} bytes, limit is {MAX_BYTES} bytes", input.len()));
    }
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogates are replaced; the exporters never
                            // emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    self.pos = start + len;
                    if self.pos > self.bytes.len() {
                        return Err("truncated UTF-8".into());
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
        ) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match s.parse::<f64>() {
            // `str::parse` maps overflowing literals like 1e999 to
            // infinity; JSON has no Inf/NaN, so reject them.
            Ok(v) if v.is_finite() => Ok(Value::Num(v)),
            Ok(_) => Err(format!("non-finite number {s:?} at byte {start}")),
            Err(_) => Err(format!("bad number {s:?} at byte {start}")),
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            out.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_escapes() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn escapes_roundtrip_through_the_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}f — ünïcode";
        let doc = format!("{{\"k\": {}}}", string(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2.5, -3e2, true, false, null], "b": {"c": "d"}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 6);
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_an_overflow() {
        // 100k opens would blow the stack; the limit turns it into Err.
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let deep_obj = "{\"k\":".repeat(100_000);
        assert!(parse(&deep_obj).unwrap_err().contains("nesting deeper than"));
    }

    #[test]
    fn depth_limit_is_exact() {
        let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        // Sibling containers don't accumulate depth.
        let siblings = format!("[{},{}]", nested(MAX_DEPTH - 1), nested(MAX_DEPTH - 1));
        assert!(parse(&siblings).is_ok());
    }

    #[test]
    fn oversized_documents_are_rejected_before_parsing() {
        // Whitespace alone is a parse error; the size check must come
        // first and name the limit.
        let err = parse(&" ".repeat(MAX_BYTES + 1)).unwrap_err();
        assert!(err.contains(&format!("limit is {MAX_BYTES} bytes")), "{err}");
        let mut padded = " ".repeat(MAX_BYTES - 2);
        padded.push_str("[]");
        assert!(parse(&padded).is_ok());
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        // 1e999 overflows f64 to infinity under str::parse.
        assert!(parse("1e999").unwrap_err().contains("non-finite"));
        assert!(parse("-1e999").unwrap_err().contains("non-finite"));
        // Bare IEEE spellings are not JSON at all.
        assert!(parse("NaN").is_err());
        assert!(parse("Infinity").is_err());
        assert!(parse("-Infinity").is_err());
        // Huge-but-finite still parses.
        assert_eq!(parse("1e308").unwrap().as_f64(), Some(1e308));
        // Subnormal underflow to 0 is finite and fine.
        assert_eq!(parse("1e-999").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn lone_surrogates_become_replacement_chars() {
        // The exporters never emit surrogates; untrusted input may.
        // Documented behavior: each lone surrogate decodes to U+FFFD.
        let v = parse(r#""a\ud800b""#).unwrap();
        assert_eq!(v.as_str(), Some("a\u{fffd}b"));
        // Escaped surrogate pairs are not recombined — two replacements.
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{fffd}\u{fffd}"));
        // Raw (non-escaped) astral characters pass through untouched.
        assert_eq!(parse("\"\u{1f600}\"").unwrap().as_str(), Some("\u{1f600}"));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse("{} x").unwrap_err().contains("trailing data"));
        assert!(parse("null]").unwrap_err().contains("trailing data"));
        assert!(parse(" {\"a\": 1} \n").is_ok());
    }

    #[test]
    fn number_rendering_is_json_safe() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(2.0), "2");
        assert_eq!(number(0.0), "0");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
        assert!(parse(&number(123.456)).is_ok());
    }

    #[test]
    fn field_readers_accept_exact_integers_only() {
        let v = parse(
            r#"{"s": "x", "n": 7, "big": 9007199254740992, "neg": -3, "frac": 1.5,
                "huge": 1e30, "u32max": 4294967295, "over": 4294967296}"#,
        )
        .unwrap();
        assert_eq!(v.str_field("s"), Ok("x".to_owned()));
        assert!(v.str_field("n").unwrap_err().contains("missing string field \"n\""));
        assert_eq!(v.u64_field("n"), Ok(7));
        assert_eq!(v.u64_field("big"), Ok(1 << 53));
        assert_eq!(v.u32_field("u32max"), Ok(u32::MAX));
        assert_eq!(v.i64_field("neg"), Ok(-3));
        assert_eq!(v.i64_field("big"), Ok(1 << 53));
        for key in ["neg", "frac", "huge", "s", "absent"] {
            let err = v.u64_field(key).unwrap_err();
            assert!(err.contains(&format!("{key:?}")), "{key}: {err}");
        }
        assert!(v.u32_field("over").unwrap_err().contains("above u32::MAX"));
        for key in ["frac", "huge", "absent"] {
            assert!(v.i64_field(key).is_err(), "{key}");
        }
        assert_eq!(parse(r#"{"m": -9007199254740992}"#).unwrap().i64_field("m"), Ok(-(1 << 53)));
        assert!(parse(r#"{"m": -9007199254740994}"#).unwrap().i64_field("m").is_err());
    }
}
