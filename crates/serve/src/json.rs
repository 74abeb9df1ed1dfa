//! A tiny, total JSON value codec for the wire protocol.
//!
//! The server reads newline-delimited frames from untrusted sockets, so
//! the parser must be **total**: any byte sequence either parses to a
//! [`Json`] value or returns a [`JsonError`] — it never panics, never
//! recurses unboundedly ([`MAX_DEPTH`]) and never allocates
//! proportionally to anything but the input length. The writer is the
//! exact inverse on the values the parser can produce:
//! `parse(write(v)) == v` for every finite value (proptested in
//! `tests/json_props.rs`).
//!
//! Design choices, all in service of determinism on the wire:
//!
//! * objects are [`BTreeMap`]s — written in key order, so a value has
//!   exactly one encoding and response frames are byte-stable;
//! * integers that fit `i64` stay integers; anything with a fraction,
//!   an exponent or outside the `i64` range becomes a float (non-finite
//!   results are a parse error, so the writer never sees them);
//! * floats are written with a decimal point (`1.0`, not `1`) so the
//!   integer/float distinction survives the round trip;
//! * duplicate object keys follow the common "last one wins" rule.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth the parser accepts. Frames are flat in
/// practice; the limit only bounds stack usage on adversarial input.
pub const MAX_DEPTH: usize = 96;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent that fits `i64`.
    Int(i64),
    /// Any other (finite) number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; key-ordered, written deterministically.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs (later duplicates win).
    #[must_use]
    pub fn object<I: IntoIterator<Item = (String, Json)>>(pairs: I) -> Json {
        Json::Object(pairs.into_iter().collect())
    }

    /// A string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value from any unsigned count (saturating at `i64::MAX`,
    /// far beyond every budget in the suite).
    #[must_use]
    pub fn uint(n: u64) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }

    /// Member lookup on objects; `None` elsewhere.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer payload as an unsigned count, if non-negative.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|n| u64::try_from(n).ok())
    }

    /// The integer payload as a `usize`, if it fits.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_i64().and_then(|n| usize::try_from(n).ok())
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(map) => Some(map),
            _ => None,
        }
    }

    /// Serializes the value to its canonical one-line encoding.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// Why a byte sequence failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending position.
    pub offset: usize,
    /// A short, static description of the problem.
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

/// Parses one complete JSON value from `input` (surrounding whitespace
/// allowed, trailing non-whitespace rejected). Total: returns `Err` on
/// any malformed input, never panics.
pub fn parse(input: &[u8]) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input,
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            reason,
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

    fn eat(&mut self, byte: u8, reason: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn literal(&mut self, word: &'static [u8], value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes, validated as UTF-8 in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            match std::str::from_utf8(&self.bytes[start..self.pos]) {
                Ok(chunk) => out.push_str(chunk),
                Err(_) => {
                    self.pos = start;
                    return Err(self.err("invalid UTF-8 in string"));
                }
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let Some(b) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let high = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&high) {
                    // High surrogate: must pair with a \uDC00.. low.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 1;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                } else if (0xDC00..0xE000).contains(&high) {
                    return Err(self.err("unpaired surrogate"));
                } else {
                    high
                };
                match char::from_u32(code) {
                    Some(c) => out.push(c),
                    None => return Err(self.err("invalid unicode escape")),
                }
            }
            _ => return Err(self.err("invalid escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated unicode escape"));
            };
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // The span is ASCII digits/sign/dot/exp by construction.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !fractional {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Json::Float(f)),
            _ => Err(self.err("number out of range")),
        }
    }
}

fn write_value(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Int(n) => {
            out.push_str(&n.to_string());
        }
        Json::Float(f) => {
            if f.is_finite() {
                let text = format!("{f}");
                out.push_str(&text);
                // Keep the integer/float distinction on the wire: a float
                // that printed without fraction or exponent gets a ".0".
                if !text.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                // The parser never produces these; tolerate them anyway.
                out.push_str("null");
            }
        }
        Json::Str(s) => write_string(s, out),
        Json::Array(items) => {
            out.push('[');
            for (index, item) in items.iter().enumerate() {
                if index > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Object(map) => {
            out.push('{');
            for (index, (key, item)) in map.iter().enumerate() {
                if index > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> Json {
        let value = parse(text.as_bytes()).expect(text);
        let rewritten = value.to_text();
        let again = parse(rewritten.as_bytes()).expect(&rewritten);
        assert_eq!(value, again, "{text} -> {rewritten}");
        value
    }

    #[test]
    fn scalars_parse_and_round_trip() {
        assert_eq!(roundtrip("null"), Json::Null);
        assert_eq!(roundtrip("true"), Json::Bool(true));
        assert_eq!(roundtrip("-42"), Json::Int(-42));
        assert_eq!(roundtrip("0"), Json::Int(0));
        assert_eq!(roundtrip("2.5"), Json::Float(2.5));
        assert_eq!(roundtrip("2.0"), Json::Float(2.0));
        assert_eq!(roundtrip("1e3"), Json::Float(1000.0));
        assert_eq!(roundtrip("\"a\\nb\\u00e9\""), Json::Str("a\nbé".into()));
        // Beyond i64: becomes a float, stays a float.
        assert!(matches!(roundtrip("99999999999999999999"), Json::Float(_)));
    }

    #[test]
    fn containers_parse_and_round_trip() {
        let value = roundtrip(r#"{"b":[1,2,{"x":null}],"a":"y"}"#);
        assert_eq!(value.get("a").and_then(Json::as_str), Some("y"));
        assert_eq!(
            value.get("b").and_then(Json::as_array).map(<[Json]>::len),
            Some(3)
        );
        // Objects write key-sorted: one canonical encoding per value.
        assert_eq!(value.to_text(), r#"{"a":"y","b":[1,2,{"x":null}]}"#);
        assert_eq!(roundtrip("[]"), Json::Array(Vec::new()));
        assert_eq!(roundtrip("{}"), Json::object([]));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            roundtrip("\"\\ud83e\\udd80\""),
            Json::Str("\u{1F980}".into())
        );
    }

    #[test]
    fn malformed_inputs_error_without_panicking() {
        for bad in [
            "",
            "{",
            "[1,",
            "nul",
            "TRUE",
            "01",
            "1.",
            "1e",
            "-",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 lone\"",
            "\"\\udc00 lone\"",
            "{\"a\" 1}",
            "{a:1}",
            "[1] trailing",
            "1e999",
        ] {
            assert!(parse(bad.as_bytes()).is_err(), "{bad:?} should not parse");
        }
        // DEL (0x7F) is *not* a control character JSON forbids: RFC 8259
        // only excludes %x00-1F unescaped.
        assert_eq!(parse(b"\"\x7fok\"").unwrap(), Json::Str("\u{7f}ok".into()));
        // Raw control byte inside a string.
        assert!(parse(b"\"a\x01b\"").is_err());
        // Invalid UTF-8 inside a string.
        assert!(parse(b"\"\xff\"").is_err());
    }

    #[test]
    fn depth_limit_is_enforced_not_overflowed() {
        let mut deep = String::new();
        for _ in 0..(MAX_DEPTH + 10) {
            deep.push('[');
        }
        let err = parse(deep.as_bytes()).unwrap_err();
        assert_eq!(err.reason, "nesting too deep");
        // Right at the limit still parses.
        let mut ok = String::new();
        for _ in 0..MAX_DEPTH {
            ok.push('[');
        }
        for _ in 0..MAX_DEPTH {
            ok.push(']');
        }
        assert!(parse(ok.as_bytes()).is_ok());
    }

    #[test]
    fn duplicate_keys_last_one_wins() {
        let value = parse(br#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(value.get("k"), Some(&Json::Int(2)));
    }
}
