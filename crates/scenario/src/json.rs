//! Minimal pure-std JSON model, parser, and writer.
//!
//! The workspace has no serde; this module follows the same conventions
//! as `rcoal-telemetry`'s hand-written serialization, generalized into a
//! small document model so scenario files can be *parsed* as well as
//! written.
//!
//! Numbers are stored as their source **literal** ([`Value::Num`] holds
//! the original text). Scenario seeds are full-range `u64`s which do not
//! survive a round-trip through `f64` (53-bit mantissa), so the model
//! never converts a number it merely transports — callers pick the
//! interpretation (`as_u64`, `as_f64`, ...) at the leaf.

pub use rcoal_telemetry::json_escape;
use std::fmt;

/// A parse error with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// A JSON document node.
///
/// Object member order is preserved, so a [`Value`] built field by field
/// serializes in exactly that order — the property canonical scenario
/// hashing relies on.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal text (never routed through `f64`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as ordered `(key, value)` members.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// A number node for a `u64` (exact at any magnitude).
    pub fn u64(n: u64) -> Value {
        Value::Num(n.to_string())
    }

    /// A number node for a `usize`.
    pub fn usize(n: usize) -> Value {
        Value::Num(n.to_string())
    }

    /// A number node for an `f64`, using Rust's shortest round-trip
    /// formatting. Non-finite values have no JSON form and become `null`.
    pub fn f64(x: f64) -> Value {
        if x.is_finite() {
            // `{:?}` prints the shortest decimal that parses back to the
            // same f64, and always includes a '.' or exponent.
            Value::Num(format!("{x:?}"))
        } else {
            Value::Null
        }
    }

    /// A string node.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Member lookup on an object (first match); `None` on other node
    /// kinds.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string node.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean node.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This number as an exact `u64`, if the literal is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// This number as an exact `usize`, if the literal is one.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// This number as an exact `u32`, if the literal is one.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// This number as an `f64` (lossy for > 53-bit integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array node.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The ordered members, if this is an object node.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace), members in stored order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(s) => out.push_str(s),
            Value::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&json_escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document, requiring it to span the whole input.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] locating the first syntax problem.
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            src: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON document"));
        }
        Ok(v)
    }
}

/// Convenience builder for object nodes, preserving insertion order.
#[derive(Debug, Clone, Default)]
pub struct ObjBuilder {
    members: Vec<(String, Value)>,
}

impl ObjBuilder {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a member.
    #[must_use]
    pub fn field(mut self, key: &str, value: Value) -> Self {
        self.members.push((key.to_string(), value));
        self
    }

    /// Appends a member only when `value` is `Some`.
    #[must_use]
    pub fn opt_field(self, key: &str, value: Option<Value>) -> Self {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// Finishes the object.
    pub fn build(self) -> Value {
        Value::Obj(self.members)
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
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
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX for the
                                // low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                None
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            continue; // hex4 advanced pos itself
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\` at
                    // once. Both delimiters are ASCII, so a run between
                    // them starts and ends on char boundaries of the
                    // `&str` input.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - start);
                    let text = self
                        .src
                        .get(start..start + run)
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push_str(text);
                    self.pos += run;
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

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        let lit = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        Ok(Value::Num(lit.to_string()))
    }
}

/// Lower-case hex digits, indexed by nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// The lower-case hex form of `bytes`: keys in scenario documents,
/// keys and ciphertexts in run rows. A row carries 32 KiB of ciphertext
/// hex at 512 plaintexts, so the digits come from a table rather than
/// one `format!` per byte.
pub fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(2 * bytes.len());
    for &b in bytes {
        out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
        out.push(char::from(HEX_DIGITS[usize::from(b & 0xf)]));
    }
    out
}

/// Why [`unhex`] rejected a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HexError {
    /// An odd number of bytes.
    OddLength,
    /// A byte pair that splits a multi-byte character.
    NotAscii,
    /// A byte pair that is not two hex digits.
    InvalidByte(String),
}

impl fmt::Display for HexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HexError::OddLength => f.write_str("hex string has odd length"),
            HexError::NotAscii => f.write_str("hex string is not ascii"),
            HexError::InvalidByte(pair) => write!(f, "invalid hex byte {pair:?}"),
        }
    }
}

/// Decodes pairs of hex digits (either case) into bytes; the inverse of
/// [`hex`].
///
/// # Errors
///
/// [`HexError`] for an odd length or the first pair that is not two hex
/// digits.
pub fn unhex(hex: &str) -> Result<Vec<u8>, HexError> {
    fn nibble(c: u8) -> Option<u8> {
        char::from(c).to_digit(16).map(|d| d as u8)
    }
    if !hex.len().is_multiple_of(2) {
        return Err(HexError::OddLength);
    }
    hex.as_bytes()
        .chunks_exact(2)
        .map(|pair| match (nibble(pair[0]), nibble(pair[1])) {
            (Some(hi), Some(lo)) => Ok(hi << 4 | lo),
            _ => Err(std::str::from_utf8(pair)
                .map_or(HexError::NotAscii, |s| HexError::InvalidByte(s.into()))),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_digits_match_format_and_round_trip() {
        let bytes: Vec<u8> = (0..=255).collect();
        let formatted: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex(&bytes), formatted);
        assert_eq!(unhex(&formatted), Ok(bytes.clone()));
        assert_eq!(unhex(&formatted.to_uppercase()), Ok(bytes));
    }

    #[test]
    fn unhex_names_the_first_bad_pair() {
        assert_eq!(unhex("abc"), Err(HexError::OddLength));
        assert_eq!(unhex("00zz11"), Err(HexError::InvalidByte("zz".into())));
        assert_eq!(unhex("+f"), Err(HexError::InvalidByte("+f".into())));
        assert_eq!(unhex("0é0"), Err(HexError::NotAscii));
        assert_eq!(
            HexError::InvalidByte("zz".into()).to_string(),
            "invalid hex byte \"zz\""
        );
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null"), Ok(Value::Null));
        assert_eq!(Value::parse("true"), Ok(Value::Bool(true)));
        assert_eq!(Value::parse(" false "), Ok(Value::Bool(false)));
        assert_eq!(Value::parse("42"), Ok(Value::Num("42".into())));
        assert_eq!(Value::parse("-1.5e3"), Ok(Value::Num("-1.5e3".into())));
        assert_eq!(Value::parse("\"hi\""), Ok(Value::Str("hi".into())));
    }

    #[test]
    fn u64_literals_survive_exactly() {
        let big = u64::MAX;
        let v = Value::parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        assert_eq!(Value::u64(big).to_json(), big.to_string());
    }

    #[test]
    fn parses_nested_structures_and_preserves_member_order() {
        let v = Value::parse(r#"{"b": [1, {"c": null}], "a": "x"}"#).unwrap();
        let members = v.as_obj().unwrap();
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        assert_eq!(v.get("a").and_then(Value::as_str), Some("x"));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("c"), Some(&Value::Null));
    }

    #[test]
    fn round_trips_compact_serialization() {
        let src = r#"{"a":1,"b":[true,null,"s\n"],"c":{"d":2.5}}"#;
        let v = Value::parse(src).unwrap();
        assert_eq!(v.to_json(), src);
        assert_eq!(Value::parse(&v.to_json()), Ok(v));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Value::str("a\"b\\c\nd\te\u{1}");
        let back = Value::parse(&v.to_json()).unwrap();
        assert_eq!(back, v);
        let uni = Value::parse(r#""\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(uni.as_str(), Some("é😀"));
    }

    #[test]
    fn long_mixed_string_round_trips() {
        // Plain ASCII runs, multi-byte UTF-8, every escape form, and a
        // surrogate pair, repeated into one long string.
        let source = r#"hex 00ff é漢😀 \" \\ \/ \b \f \n \r \t \u00e9\ud83d\ude00 Aé😀|"#;
        let decoded = "hex 00ff é漢😀 \" \\ / \u{8} \u{c} \n \r \t é😀 Aé😀|";
        let reps = 1000;
        let doc = format!("[\"{}\", 1]", source.repeat(reps));
        let v = Value::parse(&doc).unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr[0].as_str(), Some(decoded.repeat(reps).as_str()));
        assert_eq!(arr[1].as_u64(), Some(1));
        assert_eq!(Value::parse(&v.to_json()), Ok(v));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{\"a\":1} extra",
            "01x",
            "\"\\q\"",
            "[,]",
            "1.",
            "-",
            "1e",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Value::parse("{}"), Ok(Value::Obj(vec![])));
        assert_eq!(Value::parse("[ ]"), Ok(Value::Arr(vec![])));
        assert_eq!(Value::Obj(vec![]).to_json(), "{}");
        assert_eq!(Value::Arr(vec![]).to_json(), "[]");
    }

    #[test]
    fn f64_builder_is_parseable_and_finite_only() {
        assert_eq!(Value::f64(2.5).to_json(), "2.5");
        assert_eq!(Value::f64(f64::NAN), Value::Null);
        let v = Value::f64(0.1);
        assert_eq!(v.as_f64(), Some(0.1));
    }

    #[test]
    fn obj_builder_preserves_order_and_skips_none() {
        let v = ObjBuilder::new()
            .field("z", Value::u64(1))
            .opt_field("skipped", None)
            .opt_field("kept", Some(Value::Bool(true)))
            .field("a", Value::str("s"))
            .build();
        assert_eq!(v.to_json(), r#"{"z":1,"kept":true,"a":"s"}"#);
    }

    #[test]
    fn typed_accessors_reject_wrong_kinds() {
        let v = Value::parse(r#"{"n": 3.5, "s": "x"}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), None);
        assert_eq!(v.get("n").unwrap().as_f64(), Some(3.5));
        assert_eq!(v.get("s").unwrap().as_u64(), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("x"), None);
        assert_eq!(Value::Null.as_arr(), None);
    }
}
