//! A small, dependency-free JSON value type with a writer and parser.
//!
//! The workspace serializes probe traces, run counters, and Chrome-trace
//! timelines without external crates (the build environment is offline),
//! so this module provides the minimal JSON machinery those features need:
//! an ordered-object [`Json`] value, a compact writer ([`Json::to_string`]
//! via `Display`), and a recursive-descent parser ([`Json::parse`]).
//!
//! Unsigned and signed integers are kept in dedicated variants so `u64`
//! values (addresses, nanosecond timestamps) round-trip exactly rather
//! than through an `f64`.
//!
//! # Examples
//!
//! ```
//! use aputil::json::Json;
//!
//! let v = Json::obj([
//!     ("name", Json::from("put")),
//!     ("bytes", Json::from(1024u64)),
//! ]);
//! let text = v.to_string();
//! assert_eq!(text, r#"{"name":"put","bytes":1024}"#);
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.get("bytes").and_then(Json::as_u64), Some(1024));
//! ```

use core::fmt;

/// A JSON value. Object member order is preserved.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Non-negative integer (exact `u64`).
    U(u64),
    /// Negative integer.
    I(i64),
    /// Floating-point number.
    F(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Maximum container nesting depth [`Json::parse`] accepts. The parser is
/// recursive-descent, so unbounded `[[[[…]]]]` input would otherwise grow
/// the host stack until the process dies; anything legitimately produced
/// by this workspace nests a handful of levels.
pub const MAX_JSON_DEPTH: usize = 128;

/// What class of failure a [`JsonError`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Malformed input (bad token, truncation, trailing garbage, …).
    Syntax,
    /// Containers nested deeper than [`MAX_JSON_DEPTH`].
    TooDeep,
}

/// Parse failure: kind, byte offset, and description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    pub kind: JsonErrorKind,
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        if v < 0 {
            Json::I(v)
        } else {
            Json::U(v as u64)
        }
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U(v) => Some(*v),
            // Strict upper bound: `u64::MAX as f64` rounds up to 2^64, so a
            // `<=` comparison would admit a float of exactly 2^64 whose
            // `as u64` cast silently saturates to `u64::MAX`. Every integral
            // float strictly below 2^64 (the largest is 2^64 - 2048)
            // converts exactly.
            Json::F(f) if *f >= 0.0 && f.fract() == 0.0 && *f < u64::MAX as f64 => Some(*f as u64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::U(v) if *v <= i64::MAX as u64 => Some(*v as i64),
            Json::I(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U(v) => Some(*v as f64),
            Json::I(v) => Some(*v as f64),
            Json::F(v) => Some(*v),
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

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Recursively sorts every object's members by key, producing the
    /// canonical form used for content addressing: two documents that
    /// differ only in member order (or in integral-float spelling of the
    /// same logical value, once both pass through typed accessors)
    /// canonicalize to the same bytes. Arrays keep their order — element
    /// order is semantically significant.
    pub fn canonicalize(&self) -> Json {
        match self {
            Json::Arr(items) => Json::Arr(items.iter().map(Json::canonicalize).collect()),
            Json::Obj(members) => {
                let mut sorted: Vec<(String, Json)> = members
                    .iter()
                    .map(|(k, v)| (k.clone(), v.canonicalize()))
                    .collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                Json::Obj(sorted)
            }
            other => other.clone(),
        }
    }

    /// Parses a complete JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    /// Compact (no whitespace) JSON serialization.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(true) => f.write_str("true"),
            Json::Bool(false) => f.write_str("false"),
            Json::U(v) => write!(f, "{v}"),
            Json::I(v) => write!(f, "{v}"),
            Json::F(v) => {
                if v.is_finite() {
                    // Guarantee a parseable float even for integral values.
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    // JSON has no Infinity/NaN; degrade to null.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write_json_escaped(f, s)
}

/// Writes `s` as a quoted JSON string into any [`fmt::Write`] sink, with
/// exactly the escaping [`Json`]'s `Display` uses. Exported so streaming
/// serializers (e.g. the Chrome-trace exporter) share one escaping
/// implementation instead of reinventing it.
pub fn write_json_escaped<W: fmt::Write>(w: &mut W, s: &str) -> fmt::Result {
    w.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => w.write_str("\\\"")?,
            '\\' => w.write_str("\\\\")?,
            '\n' => w.write_str("\\n")?,
            '\r' => w.write_str("\\r")?,
            '\t' => w.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(w, "\\u{:04x}", c as u32)?,
            c => w.write_char(c)?,
        }
    }
    w.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            kind: JsonErrorKind::Syntax,
            offset: self.pos,
            message: message.into(),
        }
    }

    /// Bumps the container nesting depth, refusing past
    /// [`MAX_JSON_DEPTH`]. Callers must pair with [`Self::leave`] on
    /// every success path (error paths abandon the parse entirely).
    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_JSON_DEPTH {
            return Err(JsonError {
                kind: JsonErrorKind::TooDeep,
                offset: self.pos,
                message: format!("containers nested deeper than {MAX_JSON_DEPTH}"),
            });
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
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
            Err(self.err(format!("expected '{}'", b as char)))
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

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.leave();
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.leave();
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.leave();
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.leave();
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Combine surrogate pairs; lone surrogates become
                            // the replacement character.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(cp).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Everything up to the next quote or backslash is
                    // literal text. Both delimiters are ASCII, so the run
                    // ends on a scalar boundary: validate and append it
                    // once, not once per character.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::F)
                .map_err(|_| self.err(format!("invalid number '{text}'")))
        } else if negative {
            text.parse::<i64>()
                .map(Json::I)
                .map_err(|_| self.err(format!("invalid number '{text}'")))
        } else {
            text.parse::<u64>()
                .map(Json::U)
                .map_err(|_| self.err(format!("invalid number '{text}'")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "18446744073709551615", "-42"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
        let v = Json::parse("1.5").unwrap();
        assert_eq!(v.as_f64(), Some(1.5));
    }

    #[test]
    fn u64_values_are_exact() {
        let big = u64::MAX - 1;
        let v = Json::from(big);
        assert_eq!(Json::parse(&v.to_string()).unwrap().as_u64(), Some(big));
    }

    #[test]
    fn as_u64_float_boundaries() {
        // 2^64 is exactly representable as f64 and is out of range: the
        // old `<= u64::MAX as f64` bound let it through and the cast
        // saturated to u64::MAX.
        let two_pow_64 = 18446744073709551616.0_f64;
        assert_eq!(Json::F(two_pow_64).as_u64(), None);
        assert_eq!(Json::F(two_pow_64 * 2.0).as_u64(), None);
        // The largest representable f64 below 2^64 (2^64 - 2048) converts
        // exactly.
        let below = 18446744073709549568.0_f64;
        assert!(below < two_pow_64);
        assert_eq!(Json::F(below).as_u64(), Some(18446744073709549568));
        // Ordinary integral floats, zero, and rejections stay as before.
        assert_eq!(Json::F(42.0).as_u64(), Some(42));
        assert_eq!(Json::F(0.0).as_u64(), Some(0));
        assert_eq!(Json::F(-1.0).as_u64(), None);
        assert_eq!(Json::F(1.5).as_u64(), None);
        assert_eq!(Json::F(f64::NAN).as_u64(), None);
        assert_eq!(Json::F(f64::INFINITY).as_u64(), None);
    }

    #[test]
    fn object_order_preserved() {
        let text = r#"{"z":1,"a":2,"m":[1,2,3]}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line\nquote\"back\\slash\ttab\u{1}unicode\u{1F600}";
        let v = Json::Str(s.to_string());
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_str(), Some(s));
    }

    #[test]
    fn surrogate_pair_parses() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn string_runs_keep_multibyte_scalars_next_to_escapes() {
        // 2-, 3- and 4-byte scalars hard against escapes, each other and
        // both delimiters; raw control characters pass through as before.
        let v = Json::parse("\"é\\n€\\\"😀\\\\é\\u00e9€\\ud83d\\ude00é\"").unwrap();
        assert_eq!(v.as_str(), Some("é\n€\"😀\\éé€😀é"));
        let v = Json::parse("\"a\tb\u{1}€\"").unwrap();
        assert_eq!(v.as_str(), Some("a\tb\u{1}€"));
        assert_eq!(Json::parse("\"\"").unwrap().as_str(), Some(""));
        assert_eq!(Json::parse("\"€\"").unwrap().as_str(), Some("€"));
        // Lone surrogates (high without low, low alone) become U+FFFD and
        // the text after them survives.
        let v = Json::parse(r#""\ud83dé\udc00€""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{FFFD}é\u{FFFD}€"));
        // A long literal run costs one validation (the quadratic scan took
        // seconds on this).
        let long = format!("\"{}\"", "é€😀x".repeat(200_000));
        assert_eq!(
            Json::parse(&long).unwrap().as_str().map(str::len),
            Some(2_000_000)
        );
    }

    #[test]
    fn string_errors_keep_kind_offset_and_message() {
        for (text, offset, message) in [
            ("\"abc", 4, "unterminated string"),
            ("\"é€", 6, "unterminated string"),
            ("\"é\\n", 5, "unterminated string"),
            ("\"ab\\", 4, "invalid escape sequence"),
            ("\"é\\x€\"", 4, "invalid escape sequence"),
            ("\"€\\u12", 6, "truncated \\u escape"),
            ("\"€\\u12zz\"", 6, "invalid \\u escape"),
            ("\"\\u00é9\"", 3, "invalid \\u escape"),
            ("\"é\\ud83d\\u12", 11, "truncated \\u escape"),
            ("\"é\\ud83d\\uzzzz\"", 11, "invalid \\u escape"),
            ("{\"k€\":\"v\\q\"}", 11, "invalid escape sequence"),
        ] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(err.kind, JsonErrorKind::Syntax, "{text:?}");
            assert_eq!(
                (err.offset, err.message.as_str()),
                (offset, message),
                "{text:?}"
            );
        }
    }

    #[test]
    fn rejects_garbage() {
        for text in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "{\"a\":}"] {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn depth_cap_boundary() {
        // Exactly MAX_JSON_DEPTH nested arrays parse; one more is a
        // structured TooDeep error, not a stack overflow.
        let ok = format!(
            "{}{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(Json::parse(&ok).is_ok());
        let deep = format!(
            "{}{}",
            "[".repeat(MAX_JSON_DEPTH + 1),
            "]".repeat(MAX_JSON_DEPTH + 1)
        );
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TooDeep);
        assert!(err.message.contains("128"), "{err}");
        // Same cap through objects, and for a hostile unclosed flood.
        let objs = "{\"a\":".repeat(MAX_JSON_DEPTH + 1);
        assert_eq!(Json::parse(&objs).unwrap_err().kind, JsonErrorKind::TooDeep);
        let flood = "[".repeat(1 << 20);
        assert_eq!(
            Json::parse(&flood).unwrap_err().kind,
            JsonErrorKind::TooDeep
        );
        // Ordinary syntax errors keep the Syntax kind.
        assert_eq!(Json::parse("[1,").unwrap_err().kind, JsonErrorKind::Syntax);
        // Siblings do not accumulate depth: a wide-but-shallow document
        // is fine.
        let wide = format!("[{}]", vec!["[1]"; 1000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn canonicalize_sorts_keys_recursively() {
        let v = Json::parse(r#"{"z":{"b":1,"a":2},"a":[{"y":1,"x":2}],"m":3}"#).unwrap();
        assert_eq!(
            v.canonicalize().to_string(),
            r#"{"a":[{"x":2,"y":1}],"m":3,"z":{"a":2,"b":1}}"#
        );
        // Canonicalizing is idempotent and array order survives.
        let c = v.canonicalize();
        assert_eq!(c.canonicalize(), c);
        let arr = Json::parse("[3,1,2]").unwrap();
        assert_eq!(arr.canonicalize().to_string(), "[3,1,2]");
    }

    #[test]
    fn nested_lookup() {
        let v = Json::parse(r#"{"a":{"b":[10,20]}}"#).unwrap();
        let arr = v
            .get("a")
            .and_then(|a| a.get("b"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(arr[1].as_u64(), Some(20));
    }
}
