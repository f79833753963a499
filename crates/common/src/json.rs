//! A minimal, dependency-free JSON value model with a serializer and a
//! strict parser.
//!
//! The telemetry subsystem writes JSONL streams and `manifest.json`
//! files and the `report` binary reads them back; both sides go through
//! [`JsonValue`], so what the sink emits is exactly what the parser
//! accepts (round-trip asserted by tests). This is deliberately a small
//! subset of JSON:
//!
//! * numbers are `u64`, `i64` or finite `f64` (no exponent emission,
//!   though the parser accepts exponents);
//! * object keys keep insertion order (streams stay diff-friendly and
//!   deterministic);
//! * no `\uXXXX` escapes are emitted; the parser accepts the basic
//!   escapes it could ever see from our own serializer plus `\u`.

use std::fmt;

/// A parsed or buildable JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, stored as `f64` (exact for integers < 2^53,
    /// which covers every counter this workspace emits).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value at `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric content, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric content as `u64`, if this is a non-negative integer.
    #[expect(clippy::cast_possible_truncation, reason = "guarded: an integer within u64 range")]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean content, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes to a compact single-line JSON string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes with two-space indentation (for `manifest.json`).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_num(*n, out),
            JsonValue::Str(s) => write_escaped(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, n: usize| out.push_str(&"  ".repeat(n));
        match self {
            JsonValue::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push(']');
            }
            JsonValue::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    pad(out, indent + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
            _ => self.write(out),
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Num(n as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Num(n as f64)
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Num(n)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf; null is the convention
    } else if n.fract() == 0.0 {
        // Integer-valued: `{n:.0}` prints the exact decimal expansion of
        // the f64 at any magnitude. A cast through i64 would saturate
        // beyond ±2^63, silently corrupting large u64 counters (which
        // arrive here via `From<u64>`).
        out.push_str(&format!("{n:.0}"));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Error produced when JSON parsing fails: a message and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input where it went wrong.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns a [`JsonError`] naming the offending byte offset on malformed
/// input.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else { return Err(self.err("unterminated string")) };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else { return Err(self.err("bad escape")) };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("non-utf8 \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our
                            // serializer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: the input is a &str, so this is
                    // guaranteed valid; copy the full character.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| self.err("invalid utf8"))?;
                    #[expect(clippy::expect_used, reason = "`s` holds the byte just consumed")]
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        #[expect(clippy::expect_used, reason = "the loop above consumed only ASCII bytes")]
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| JsonError { message: format!("bad number '{text}'"), offset: start })
    }
}

/// Parses one JSONL document per non-empty line.
///
/// # Errors
///
/// Returns the first line's error, tagged with its 1-based line number.
pub fn parse_jsonl(input: &str) -> Result<Vec<JsonValue>, String> {
    input
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact() {
        let v = JsonValue::obj(vec![
            ("name", "mix2_01".into()),
            ("count", 42u64.into()),
            ("ratio", 0.5.into()),
            ("ok", true.into()),
            ("none", JsonValue::Null),
            ("tags", JsonValue::Arr(vec!["a".into(), "b".into()])),
        ]);
        let text = v.to_string_compact();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn round_trips_pretty() {
        let v = JsonValue::obj(vec![
            ("outer", JsonValue::obj(vec![("inner", 1u64.into())])),
            ("empty", JsonValue::Obj(Vec::new())),
            ("list", JsonValue::Arr(vec![1u64.into(), 2u64.into()])),
        ]);
        assert_eq!(parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn escapes_survive() {
        let v = JsonValue::Str("quote \" slash \\ newline \n tab \t unicode é".into());
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn integers_emit_without_fraction() {
        assert_eq!(JsonValue::from(1_000_000u64).to_string_compact(), "1000000");
        assert_eq!(JsonValue::from(0.25).to_string_compact(), "0.25");
    }

    #[test]
    fn huge_integers_emit_every_digit() {
        // Above the old 9e15 cutoff the writer used to fall through to
        // `{}` and, worse, an i64 cast path; both must emit the exact
        // value. 2^63 and 2^64 are exactly representable in f64.
        assert_eq!(JsonValue::from(1u64 << 53).to_string_compact(), "9007199254740992");
        assert_eq!(
            JsonValue::from(9_300_000_000_000_000u64).to_string_compact(),
            "9300000000000000"
        );
        assert_eq!(
            JsonValue::from(9_223_372_036_854_775_808.0f64).to_string_compact(),
            "9223372036854775808"
        );
        assert_eq!(
            JsonValue::from(18_446_744_073_709_551_616.0f64).to_string_compact(),
            "18446744073709551616"
        );
        assert_eq!(
            JsonValue::from(-9_223_372_036_854_775_808.0f64).to_string_compact(),
            "-9223372036854775808"
        );
    }

    #[test]
    fn huge_integers_round_trip_at_the_boundaries() {
        // Every boundary the writer branches on: the last exact u64
        // (2^53), the old cutoff's neighborhood, i64::MIN/MAX magnitude,
        // the u64 range edge, and far beyond any integer type.
        for v in [
            (1u64 << 53) as f64,
            9e15,
            9.3e15,
            9_223_372_036_854_775_808.0,
            -9_223_372_036_854_775_808.0,
            18_446_744_073_709_551_616.0,
            1e300,
        ] {
            let doc = JsonValue::obj(vec![("n", JsonValue::Num(v))]);
            let back = parse(&doc.to_string_compact()).expect("writer emits valid JSON");
            assert_eq!(back.get("n").and_then(JsonValue::as_f64), Some(v), "value {v}");
        }
    }

    #[test]
    fn accessors_work() {
        let v = parse(r#"{"a": 3, "b": "x", "c": [1, 2], "d": true}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(v.get("b").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(JsonValue::as_arr).map(<[_]>::len), Some(2));
        assert_eq!(v.get("d").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("hello").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn parses_exponents_and_negatives() {
        assert_eq!(parse("-12").unwrap().as_f64(), Some(-12.0));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("-12").unwrap().as_u64(), None);
    }

    #[test]
    fn jsonl_parses_lines() {
        let lines = "{\"a\":1}\n\n{\"a\":2}\n";
        let vals = parse_jsonl(lines).unwrap();
        assert_eq!(vals.len(), 2);
        assert!(parse_jsonl("{\"a\":1}\nnot json\n").is_err());
    }
}
