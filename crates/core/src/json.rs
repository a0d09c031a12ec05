//! A dependency-free JSON data model, writer and parser.
//!
//! The vendored `serde` stand-in provides marker traits only (no data
//! model), so result archival needs its own serialisation layer.  This
//! module is that layer: a small [`JsonValue`] tree, a deterministic writer
//! and a recursive-descent parser, used by `ivc-experiments` to archive
//! campaign reports.
//!
//! Determinism is a hard requirement — the campaign engine promises
//! byte-identical reports regardless of worker count — so the writer makes
//! no formatting decisions that depend on anything but the value tree:
//!
//! * objects preserve insertion order (they are association lists, not
//!   hash maps),
//! * numbers use Rust's shortest-round-trip `f64` formatting, with whole
//!   numbers written as integers, and
//! * non-finite numbers (which JSON cannot represent) are written as
//!   `null` by [`JsonValue::number`], never produced implicitly.

use std::fmt;

/// Deepest array/object nesting [`JsonValue::parse`] accepts (real
/// documents stay under ten levels): a parse error, not a stack overflow.
const MAX_NESTING_DEPTH: usize = 128;

/// One node of a JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (JSON has a single numeric type).
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object as an ordered association list (insertion order is
    /// preserved, which keeps the writer deterministic).
    Object(Vec<(String, JsonValue)>),
}

/// Error raised when parsing malformed JSON text.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonParseError {
    /// Byte offset at which the parse failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

impl JsonValue {
    /// A number, mapping the non-finite values JSON cannot express to
    /// `null` (the reader maps them back via [`JsonValue::as_f64`]'s
    /// `None`).
    pub fn number(value: f64) -> JsonValue {
        if value.is_finite() {
            JsonValue::Number(value)
        } else {
            JsonValue::Null
        }
    }

    /// A string value.
    pub fn string(value: impl Into<String>) -> JsonValue {
        JsonValue::String(value.into())
    }

    /// An array of numbers.
    pub fn number_array(values: &[f64]) -> JsonValue {
        JsonValue::Array(values.iter().map(|v| JsonValue::number(*v)).collect())
    }

    /// An array of strings.
    pub fn string_array<S: AsRef<str>>(values: &[S]) -> JsonValue {
        JsonValue::Array(
            values
                .iter()
                .map(|v| JsonValue::String(v.as_ref().to_string()))
                .collect(),
        )
    }

    /// `self` as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `self` as a finite f64, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// `self` as a usize, if it is a non-negative whole number within
    /// f64's exact-integer range (beyond 2^53 a JSON number can no longer
    /// name the integer it was meant to carry, so it is rejected rather
    /// than silently rounded).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(n)
                if *n >= 0.0
                    && n.fract() == 0.0
                    && *n <= MAX_EXACT_INTEGER as f64
                    // On 32-bit targets usize is the tighter bound; without
                    // this, `as usize` would saturate instead of rejecting.
                    && *n <= usize::MAX as f64 =>
            {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// `self` as a u64, if it is a non-negative whole number.
    ///
    /// Values above 2^53 lose precision through the f64 number model; the
    /// writer side ([`u64_to_json`]) therefore encodes large integers as
    /// strings, which this accessor also accepts.  Raw JSON *numbers*
    /// above 2^53 are rejected (the digits written are not the value the
    /// reader would get back), matching the writer's contract.  One edge
    /// is undetectable after parsing: a text like `2^53 + 1` rounds onto
    /// 2^53 itself inside the parser and is accepted as that value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n)
                if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_INTEGER as f64 =>
            {
                Some(*n as u64)
            }
            JsonValue::String(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// `self` as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// `self` as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a.as_slice()),
            _ => None,
        }
    }

    /// Member lookup on objects (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serialises the value as compact JSON (no whitespace).
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Serialises the value as pretty JSON with two-space indentation —
    /// the archival format (stable, diffable, human-readable).
    pub fn to_json_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Parses JSON text into a value tree.
    pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
        let mut parser = Parser { text, pos: 0 };
        parser.skip_whitespace();
        let value = parser.parse_value(0)?;
        parser.skip_whitespace();
        if parser.pos != text.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => write_number(*n, out),
            JsonValue::String(s) => write_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in members.iter().enumerate() {
                    push_indent(out, indent + 1);
                    write_string(key, out);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                    if i + 1 < members.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push('}');
            }
            // Empty containers and scalars render compactly.
            other => other.write_compact(out),
        }
    }
}

/// The largest integer every f64 (and therefore every JSON number here)
/// represents exactly: 2^53.
pub const MAX_EXACT_INTEGER: u64 = 1 << 53;

/// Encodes a `u64` losslessly: within f64's exact-integer range it becomes
/// a JSON number, above it a decimal string (both accepted by
/// [`JsonValue::as_u64`]).
pub fn u64_to_json(value: u64) -> JsonValue {
    if value <= MAX_EXACT_INTEGER {
        JsonValue::Number(value as f64)
    } else {
        JsonValue::String(value.to_string())
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // `JsonValue::number` never constructs these, but a hand-built
        // `JsonValue::Number(f64::NAN)` must still emit valid JSON.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        // Whole numbers print without the trailing ".0" Rust would not add
        // anyway, but go through i64 to avoid "-0".
        let as_int = n as i64;
        out.push_str(&as_int.to_string());
    } else {
        // Rust's f64 Display is the shortest string that round-trips, and
        // is deterministic — exactly what byte-identical archives need.
        out.push_str(&n.to_string());
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset; the parser steps over whole characters only, so it is
    /// always a char boundary.
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    /// Parses the value at `pos`, inside `depth` open arrays and objects.
    fn parse_value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b'[' | b'{') if depth == MAX_NESTING_DEPTH => {
                Err(self.error(format!("nesting deeper than {MAX_NESTING_DEPTH} levels")))
            }
            Some(b'[') => self.parse_array(depth + 1),
            Some(b'{') => self.parse_object(depth + 1),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.error(format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_keyword(
        &mut self,
        keyword: &str,
        value: JsonValue,
    ) -> Result<JsonValue, JsonParseError> {
        if self.text[self.pos..].starts_with(keyword) {
            self.pos += keyword.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{keyword}'")))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        let parsed: f64 = text
            .parse()
            .map_err(|_| self.error(format!("invalid number '{text}'")))?;
        if !parsed.is_finite() {
            return Err(self.error(format!("number '{text}' overflows f64")));
        }
        Ok(JsonValue::Number(parsed))
    }

    fn parse_string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let first = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair: a low surrogate must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00)
                                } else {
                                    return Err(self.error("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&first) {
                                return Err(self.error("lone low surrogate"));
                            } else {
                                first
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(self.error(format!("invalid escape '\\{}'", other as char)));
                        }
                    }
                }
                _ => {
                    // Consume one (possibly multi-byte) character.
                    let ch = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("peek saw a byte");
                    if (ch as u32) < 0x20 {
                        return Err(self.error("unescaped control character in string"));
                    }
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonParseError> {
        let text = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let value = u32::from_str_radix(text, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(value)
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value(depth)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value(depth)?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    #[test]
    fn scalars_round_trip() {
        for (text, value) in [
            ("null", JsonValue::Null),
            ("true", JsonValue::Bool(true)),
            ("false", JsonValue::Bool(false)),
            ("0", JsonValue::Number(0.0)),
            ("-17", JsonValue::Number(-17.0)),
            ("3.5", JsonValue::Number(3.5)),
            ("1e3", JsonValue::Number(1000.0)),
            ("\"hi\"", JsonValue::String("hi".into())),
        ] {
            assert_eq!(JsonValue::parse(text).unwrap(), value, "{text}");
            let rendered = value.to_json_string();
            assert_eq!(JsonValue::parse(&rendered).unwrap(), value, "{rendered}");
        }
    }

    #[test]
    fn number_formatting_is_canonical() {
        assert_eq!(JsonValue::Number(4.0).to_json_string(), "4");
        assert_eq!(JsonValue::Number(-0.0).to_json_string(), "0");
        assert_eq!(JsonValue::Number(0.25).to_json_string(), "0.25");
        // Shortest round-trip representation.
        assert_eq!(JsonValue::Number(0.1).to_json_string(), "0.1");
        let third = 1.0 / 3.0;
        let rendered = JsonValue::Number(third).to_json_string();
        assert_eq!(rendered.parse::<f64>().unwrap(), third);
        // Non-finite values degrade to null rather than invalid JSON.
        assert_eq!(JsonValue::number(f64::NAN), JsonValue::Null);
        assert_eq!(JsonValue::Number(f64::INFINITY).to_json_string(), "null");
    }

    #[test]
    fn u64_encoding_is_lossless() {
        for v in [0u64, 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let encoded = u64_to_json(v);
            assert_eq!(encoded.as_u64(), Some(v), "{v}");
            let rendered = encoded.to_json_string();
            assert_eq!(
                JsonValue::parse(&rendered).unwrap().as_u64(),
                Some(v),
                "{rendered}"
            );
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let tricky = "line1\nline2\t\"quoted\" \\ slash \u{1F600} \u{0007}";
        let value = JsonValue::String(tricky.into());
        let rendered = value.to_json_string();
        assert_eq!(JsonValue::parse(&rendered).unwrap(), value);
        // Explicit \u escapes, including a surrogate pair.
        let parsed = JsonValue::parse("\"\\u0041\\ud83d\\ude00\"").unwrap();
        assert_eq!(parsed, JsonValue::String("A\u{1F600}".into()));
    }

    #[test]
    fn containers_round_trip_and_preserve_order() {
        let value = obj(vec![
            ("zulu", JsonValue::Number(1.0)),
            (
                "alpha",
                JsonValue::Array(vec![
                    JsonValue::Null,
                    JsonValue::Bool(false),
                    JsonValue::String("x".into()),
                ]),
            ),
            ("empty_array", JsonValue::Array(vec![])),
            ("empty_object", JsonValue::Object(vec![])),
            ("nested", obj(vec![("k", JsonValue::Number(2.5))])),
        ]);
        let compact = value.to_json_string();
        assert_eq!(JsonValue::parse(&compact).unwrap(), value);
        // Insertion order survives (zulu before alpha).
        assert!(compact.find("zulu").unwrap() < compact.find("alpha").unwrap());
        let pretty = value.to_json_string_pretty();
        assert_eq!(JsonValue::parse(&pretty).unwrap(), value);
        assert!(pretty.ends_with('\n'));
    }

    #[test]
    fn accessors() {
        let value = obj(vec![
            ("n", JsonValue::Number(7.0)),
            ("s", JsonValue::String("text".into())),
            ("b", JsonValue::Bool(true)),
            ("a", JsonValue::Array(vec![JsonValue::Number(1.0)])),
        ]);
        assert_eq!(value.get("n").unwrap().as_usize(), Some(7));
        assert_eq!(value.get("n").unwrap().as_f64(), Some(7.0));
        assert_eq!(value.get("s").unwrap().as_str(), Some("text"));
        assert_eq!(value.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(value.get("a").unwrap().as_array().unwrap().len(), 1);
        assert!(value.get("missing").is_none());
        assert_eq!(JsonValue::Number(-1.0).as_usize(), None);
        assert_eq!(JsonValue::Number(1.5).as_usize(), None);
        // Raw numbers beyond f64's exact-integer range are rejected, not
        // silently rounded — only the string encoding carries them.
        let max_exact = MAX_EXACT_INTEGER as f64;
        assert_eq!(JsonValue::Number(max_exact).as_u64(), Some(1 << 53));
        assert_eq!(JsonValue::Number(max_exact * 2.0).as_u64(), None);
        assert_eq!(JsonValue::Number(max_exact * 2.0).as_usize(), None);
        // 2^64 used to saturate to u64::MAX through `as u64`; now rejected.
        assert_eq!(
            JsonValue::parse("18446744073709551616").unwrap().as_u64(),
            None
        );
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for text in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"k\" 1}",
            "{\"k\":}",
            "\"unterminated",
            "tru",
            "12abc",
            "[1] trailing",
            "\"bad \\q escape\"",
            "\"lone \\ud800 surrogate\"",
            "1e999",
        ] {
            assert!(JsonValue::parse(text).is_err(), "accepted: {text}");
        }
    }

    #[test]
    fn string_heavy_documents_parse_in_linear_time() {
        // ~1 MB: 80k short strings with a multi-byte character each.  The
        // parser once re-validated the rest of the document per character,
        // which took minutes at this size in a debug build.
        let items: Vec<JsonValue> = (0..80_000)
            .map(|i| JsonValue::String(format!("s{i:06}é")))
            .collect();
        let text = JsonValue::Array(items.clone()).to_json_string();
        assert!(text.len() > 900_000, "{}", text.len());
        let start = std::time::Instant::now();
        assert_eq!(JsonValue::parse(&text).unwrap(), JsonValue::Array(items));
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs_f64() < 5.0, "parse took {elapsed:?}");
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize, open: &str, close: &str| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(JsonValue::parse(&nested(MAX_NESTING_DEPTH, "[", "]")).is_ok());
        assert!(JsonValue::parse(&nested(MAX_NESTING_DEPTH, "{\"k\":", "}")).is_ok());
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let err = JsonValue::parse(&nested(MAX_NESTING_DEPTH + 1, open, close)).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
            // Far past any stack: an error, not an abort.
            let err = JsonValue::parse(&open.repeat(200_000)).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
        }
    }

    #[test]
    fn parse_error_reports_offset() {
        let err = JsonValue::parse("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }
}
