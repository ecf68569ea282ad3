//! Minimal JSON support: string escaping for the exporters and a small
//! recursive-descent parser used by the round-trip tests (and by anyone
//! who wants to post-process an export without external crates).
//!
//! The parser is hardened against untrusted input — `nrlt-report` feeds
//! it whatever bundle files it is pointed at, so a malformed document
//! must come back as an `Err`, never as a crash:
//!
//! * **depth limit** — nesting beyond [`ParseLimits::max_depth`] is an
//!   error instead of a recursion-driven stack overflow (an overflow
//!   aborts the process; it cannot be caught),
//! * **size limit** — documents larger than [`ParseLimits::max_bytes`]
//!   are rejected before a byte is parsed,
//! * **finite numbers only** — `1e999` and friends overflow `f64` to
//!   infinity under `str::parse`; JSON has no Inf/NaN, so non-finite
//!   results are errors (the exporters render them as `0`),
//! * **no trailing garbage** — a document must consume its input.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON document (without the quotes).
pub fn escape(s: &str) -> String {
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
}

/// Hard bounds enforced while parsing untrusted documents.
#[derive(Debug, Clone, Copy)]
pub struct ParseLimits {
    /// Maximum container nesting (arrays + objects). Exceeding it is an
    /// error — the alternative is a stack overflow, which aborts.
    pub max_depth: usize,
    /// Maximum document size in bytes, checked before parsing.
    pub max_bytes: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        // Far above anything the exporters write (the largest committed
        // document is tens of kilobytes; whole bundles are megabytes),
        // far below anything that could exhaust the stack or memory.
        ParseLimits { max_depth: 128, max_bytes: 64 << 20 }
    }
}

/// Parse a complete JSON document under [`ParseLimits::default`].
/// Errors carry a byte offset.
pub fn parse(input: &str) -> Result<Value, String> {
    parse_with_limits(input, &ParseLimits::default())
}

/// Parse a complete JSON document under explicit [`ParseLimits`].
pub fn parse_with_limits(input: &str, limits: &ParseLimits) -> Result<Value, String> {
    if input.len() > limits.max_bytes {
        return Err(format!(
            "document is {} bytes, limit is {} bytes",
            input.len(),
            limits.max_bytes
        ));
    }
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0, depth: 0, max_depth: limits.max_depth };
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
    max_depth: usize,
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
        if self.depth > self.max_depth {
            return Err(format!("nesting deeper than {} at byte {}", self.max_depth, self.pos));
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

/// Render a [`Value`] back to compact JSON. Object members come out in
/// `BTreeMap` (key-sorted) order, so rendering is deterministic — the
/// same parsed document always serializes to the same bytes.
pub fn render(v: &Value) -> String {
    let mut out = String::new();
    render_into(v, &mut out);
    out
}

fn render_into(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => out.push_str(&number(*n)),
        Value::Str(s) => {
            out.push('"');
            out.push_str(&escape(s));
            out.push('"');
        }
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&escape(k));
                out.push_str("\":");
                render_into(val, out);
            }
            out.push('}');
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
        let limits = ParseLimits { max_depth: 3, ..ParseLimits::default() };
        assert!(parse_with_limits("[[[1]]]", &limits).is_ok());
        assert!(parse_with_limits("[[[[1]]]]", &limits).is_err());
        // Sibling containers don't accumulate depth.
        assert!(parse_with_limits("[[1],[2],[{\"a\":3}]]", &limits).is_ok());
    }

    #[test]
    fn oversized_documents_are_rejected_before_parsing() {
        let limits = ParseLimits { max_bytes: 16, ..ParseLimits::default() };
        assert!(parse_with_limits("[1,2,3]", &limits).is_ok());
        let err = parse_with_limits("[1,2,3,4,5,6,7,8,9]", &limits).unwrap_err();
        assert!(err.contains("limit is 16 bytes"), "{err}");
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
    fn render_roundtrips_and_is_deterministic() {
        let doc = r#"{"z": [1, 2.5, true, null], "a": {"nested": "v\"al"}, "m": -3}"#;
        let v = parse(doc).unwrap();
        let rendered = render(&v);
        // Keys come out sorted; numbers re-render canonically.
        assert_eq!(rendered, r#"{"a":{"nested":"v\"al"},"m":-3,"z":[1,2.5,true,null]}"#);
        // Round trip is a fixed point.
        assert_eq!(render(&parse(&rendered).unwrap()), rendered);
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
}
